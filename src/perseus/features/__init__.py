"""Per-spreader feature engineering over the inferred diffusion graphs.

Each node gets a 23-dimensional vector: three message/market aggregates
(total targets achieved, rating, average increase) followed by ten
topological measures computed twice, once on the directed 0/1 graph
(`*_u`) and once on the weighted graph (`*_w`).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from ..diffusion import DiffusionGraph
from ..ingest import CrowdPumpMessage
from ..market import MarketOutcome
from .centrality import betweenness, clustering, closeness, pagerank, path_centrality
from .community import CommunityPartition, louvain, modularity, symmetrize
from .ego import EGO_KEYS, ego_feature_matrix, ego_features

FEATURE_COLUMNS = (
    "total_targets_achieved",
    "rating",
    "average_increase",
    "clustering_u",
    "clustering_w",
    "closeness_u",
    "closeness_w",
    "betweenness_u",
    "betweenness_w",
    "pagerank_u",
    "pagerank_w",
    "in_ratio_u",
    "in_ratio_w",
    "out_degree_u",
    "out_degree_w",
    "out_ratio_u",
    "out_ratio_w",
    "efficiency_u",
    "efficiency_w",
    "effective_size_u",
    "effective_size_w",
    "density_u",
    "density_w",
)

N_FEATURES = len(FEATURE_COLUMNS)


def osn_features(
    messages: Sequence[CrowdPumpMessage], outcomes: Mapping[int, MarketOutcome]
) -> tuple[int, float]:
    """(total targets achieved, rating) over one spreader's messages.

    Achieved and announced target counts are summed across the spreader's
    priced messages and the rating is their ratio, so a (1 of 2) message and
    a (3 of 8) message give total 4 and rating 4/10.  Messages without an
    outcome contribute nothing; a spreader with no announced targets gets
    rating 0.
    """
    achieved = 0
    announced = 0
    for message in messages:
        outcome = outcomes.get(message.pid)
        if outcome is None:
            continue
        achieved += outcome.targets_achieved
        announced += outcome.targets_total
    rating = achieved / announced if announced else 0.0
    return achieved, rating


def market_feature(
    messages: Sequence[CrowdPumpMessage], outcomes: Mapping[int, MarketOutcome]
) -> float:
    """Mean extreme return across the spreader's priced messages."""
    returns = [
        outcomes[m.pid].max_return for m in messages if m.pid in outcomes
    ]
    return float(np.mean(returns)) if returns else 0.0


def whole_graph_features(graph: DiffusionGraph) -> dict[str, np.ndarray]:
    """The twenty topological columns for every node of one graph."""
    directed = graph.directed.astype(float)
    weighted = graph.weighted
    out: dict[str, np.ndarray] = {}
    for suffix, adj, isw in (("u", directed, False), ("w", weighted, True)):
        out[f"clustering_{suffix}"] = clustering(adj, isw)
        out[f"closeness_{suffix}"], out[f"betweenness_{suffix}"] = path_centrality(adj, isw)
        out[f"pagerank_{suffix}"] = pagerank(adj, isw)
        egos = ego_feature_matrix(adj, isw)
        for key in EGO_KEYS:
            out[f"{key}_{suffix}"] = egos[key]
    return out


def compute_feature_rows(
    graph: DiffusionGraph,
    messages_by_spreader: Mapping[str, Sequence[CrowdPumpMessage]],
    outcomes: Mapping[int, MarketOutcome],
) -> np.ndarray:
    """Raw (n_nodes, 23) matrix in FEATURE_COLUMNS order."""
    topo = whole_graph_features(graph)
    rows = np.zeros((graph.n, N_FEATURES))
    for i, entity in enumerate(graph.nodes):
        msgs = messages_by_spreader.get(entity, ())
        total, rating = osn_features(msgs, outcomes)
        rows[i, 0] = total
        rows[i, 1] = rating
        rows[i, 2] = market_feature(msgs, outcomes)
    for j, column in enumerate(FEATURE_COLUMNS[3:], start=3):
        rows[:, j] = topo[column]
    return rows


@dataclass
class FeatureMatrix:
    graph_id: str
    entity_ids: tuple[str, ...]
    x: np.ndarray  # (n, 23) raw or standardized
    y: np.ndarray  # (n,) 1 = mastermind

    def __post_init__(self) -> None:
        self.x = np.asarray(self.x, dtype=float)
        self.y = np.asarray(self.y, dtype=int)
        if self.x.shape != (len(self.entity_ids), N_FEATURES):
            raise ValueError(
                f"{self.graph_id}: feature matrix is {self.x.shape}, "
                f"want ({len(self.entity_ids)}, {N_FEATURES})"
            )


def assemble_matrix(
    graph: DiffusionGraph,
    rows: np.ndarray,
    labels: Mapping[str, int],
) -> FeatureMatrix:
    """Attach labels to a feature matrix; every node must be labeled."""
    unlabeled = [e for e in graph.nodes if e not in labels]
    if unlabeled:
        raise KeyError(f"{graph.graph_id}: no label for {', '.join(sorted(unlabeled))}")
    y = np.array([labels[e] for e in graph.nodes], dtype=int)
    return FeatureMatrix(graph_id=graph.graph_id, entity_ids=graph.nodes, x=rows, y=y)


@dataclass
class Standardizer:
    """Column z-scoring fitted on training rows only; dead columns map to 0."""

    mean: np.ndarray
    std: np.ndarray

    @classmethod
    def fit(cls, matrices: Iterable[np.ndarray]) -> "Standardizer":
        stacked = np.vstack(list(matrices))
        return cls(mean=stacked.mean(axis=0), std=stacked.std(axis=0))

    def transform(self, x: np.ndarray) -> np.ndarray:
        out = np.zeros_like(x, dtype=float)
        alive = self.std > 0
        out[:, alive] = (x[:, alive] - self.mean[alive]) / self.std[alive]
        return out

    def to_json(self) -> dict:
        return {
            "columns": list(FEATURE_COLUMNS),
            "mean": [repr(float(v)) for v in self.mean],
            "std": [repr(float(v)) for v in self.std],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Standardizer":
        """Raises ValueError unless `obj` has a mean and a std for each feature column."""
        mean, std = (np.array([float(v) for v in obj[key]]) for key in ("mean", "std"))
        if tuple(obj["columns"]) != FEATURE_COLUMNS or not mean.shape == std.shape == (N_FEATURES,):
            raise ValueError(f"expected a mean and a std for each of the {N_FEATURES} feature columns")
        return cls(mean=mean, std=std)


def write_features_csv(path: Path | str, matrices: Sequence[FeatureMatrix]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["entity_id", "label", "graph_id", *FEATURE_COLUMNS])
        for matrix in matrices:
            for i, entity in enumerate(matrix.entity_ids):
                writer.writerow(
                    [entity, int(matrix.y[i]), matrix.graph_id]
                    + [repr(float(v)) for v in matrix.x[i]]
                )


def read_features_csv(path: Path | str) -> list[FeatureMatrix]:
    grouped: dict[str, list[tuple[str, int, list[float]]]] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if header[:3] != ["entity_id", "label", "graph_id"] or tuple(header[3:]) != FEATURE_COLUMNS:
            raise ValueError(f"{path}: unexpected feature CSV header")
        for row in reader:
            try:
                if len(row) != len(header):
                    raise ValueError(f"expected {len(header)} fields, got {len(row)}")
                entity, label, graph_id = row[0], int(row[1]), row[2]
                if label not in (-1, 0, 1):
                    raise ValueError(f"label {label} is not -1, 0 or 1")
                values = [float(v) for v in row[3:]]
            except ValueError as exc:
                raise ValueError(f"{path}:{reader.line_num}: {exc}") from None
            grouped.setdefault(graph_id, []).append((entity, label, values))
    return [
        FeatureMatrix(
            graph_id=graph_id,
            entity_ids=tuple(r[0] for r in rows),
            x=np.array([r[2] for r in rows]),
            y=np.array([r[1] for r in rows]),
        )
        for graph_id, rows in grouped.items()
    ]


__all__ = [
    "FEATURE_COLUMNS",
    "N_FEATURES",
    "CommunityPartition",
    "FeatureMatrix",
    "Standardizer",
    "assemble_matrix",
    "betweenness",
    "clustering",
    "closeness",
    "compute_feature_rows",
    "ego_features",
    "ego_feature_matrix",
    "louvain",
    "market_feature",
    "modularity",
    "osn_features",
    "pagerank",
    "path_centrality",
    "read_features_csv",
    "symmetrize",
    "whole_graph_features",
    "write_features_csv",
]
