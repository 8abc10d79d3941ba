"""perseus: reconstruct crowd-pump diffusion networks from message corpora
and classify the spreaders behind them.

The pipeline runs ingestion (rule-based signal extraction), event
segmentation, diffusion-graph inference, market-outcome measurement,
feature engineering, and a from-scratch GNN classifier, wired together by
the `perseus` command line tool.
"""

from .ingest import CrowdPumpMessage, RawMessage, TradeDirection, parse_corpus
from .events import CrowdPumpEvent, build_event_sets
from .diffusion import DiffusionGraph, build_graphs
from .market import MarketOutcome, PriceSeries, compute_outcomes
from .features import FEATURE_COLUMNS, FeatureMatrix
from .gnn import GraphData, ModelConfig, predict, train
from .synth import SynthConfig, generate_corpus

__version__ = "0.1.0"

__all__ = [
    "CrowdPumpMessage",
    "RawMessage",
    "TradeDirection",
    "parse_corpus",
    "CrowdPumpEvent",
    "build_event_sets",
    "DiffusionGraph",
    "build_graphs",
    "MarketOutcome",
    "PriceSeries",
    "compute_outcomes",
    "FEATURE_COLUMNS",
    "FeatureMatrix",
    "GraphData",
    "ModelConfig",
    "predict",
    "train",
    "SynthConfig",
    "generate_corpus",
    "__version__",
]
