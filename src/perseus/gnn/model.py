"""Model assembly, training loop and parameter files.

A model is a stack of identical message-passing layers narrowing to one
output channel, squashed by a sigmoid into a per-node mastermind
probability. Training runs full-batch per graph with Adam for a fixed
budget of `epochs` epochs and ships the final epoch's parameters.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from ..diffusion import derive_directed
from ..jsonfile import read_json, write_json
from .layers import (
    Adam,
    Layout,
    bce_grad_wrt_logits,
    bce_loss,
    gat_backward,
    gat_forward,
    gat_layout,
    glorot,
    sage_backward,
    sage_forward,
    sage_layout,
    sigmoid,
)

ARCH_GAT = "gat"
ARCH_SAGE = "graphsage"
VARIANT_DIRECTED = "directed"
VARIANT_WEIGHTED = "weighted"
ARCHITECTURES = (ARCH_GAT, ARCH_SAGE)
VARIANTS = (VARIANT_WEIGHTED, VARIANT_DIRECTED)

PARAMS_FORMAT_VERSION = 1


class ModelConfigError(ValueError):
    """Every rule a model config breaks, one "<field>: <problem>" each."""

    def __init__(self, problems: Sequence[str]):
        super().__init__("; ".join(problems))
        self.problems = list(problems)


# Each ModelConfig field's rule: (test, what breaking it is, formatted with the value).
_RULES = {
    "architecture": (ARCHITECTURES.__contains__, "unknown {!r}"),
    "graph_variant": (VARIANTS.__contains__, "unknown {!r}"),
    "hidden_channels": (lambda v: v >= 1, "must be positive"),
    "num_layers": (lambda v: v >= 1, "must be at least 1"),
    "learning_rate": (lambda v: 0 < v < math.inf, "must be positive and finite"),
    "epochs": (lambda v: v >= 1, "must be positive"),
    "seed": (lambda v: v >= 0, "must be non-negative"),
    "threshold": (lambda v: 0.0 <= v <= 1.0, "must be in [0, 1]"),
}


@dataclass(frozen=True)
class ModelConfig:
    architecture: str = ARCH_SAGE
    graph_variant: str = VARIANT_WEIGHTED
    hidden_channels: int = 8
    num_layers: int = 2
    learning_rate: float = 0.0005
    epochs: int = 100
    seed: int = 7
    threshold: float = 0.5

    def __post_init__(self) -> None:
        """Raises ModelConfigError naming every field of the wrong type, then
        every other field that breaks its rule. A field's type is its
        default's; a bool is never a number, and an int widens to float."""
        problems, typed = [], {}
        for f in fields(self):
            kind, value = type(f.default), getattr(self, f.name)
            if isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else kind):
                problems.append(f"{f.name}: expected {kind.__name__}, got {value!r}")
            else:
                typed[f.name] = kind(value)
                object.__setattr__(self, f.name, typed[f.name])
        for name, value in typed.items():
            ok, broken = _RULES[name]
            if not ok(value):
                problems.append(f"{name}: {broken.format(value)}")
        if problems:
            raise ModelConfigError(problems)

    def dims(self, in_dim: int) -> list[int]:
        return [in_dim] + [self.hidden_channels] * (self.num_layers - 1) + [1]


@dataclass
class GraphData:
    """One graph ready for training: features, labels and the weighted
    adjacency, from which the directed one is derived."""

    graph_id: str
    nodes: tuple[str, ...]
    x: np.ndarray
    y: np.ndarray
    weighted: np.ndarray
    _inbound: dict[str, np.ndarray] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def inbound(self, variant: str) -> np.ndarray:
        """Read-only (n, n) 0/1 mask for the requested variant, built on the
        first call: row i marks the nodes that feed i, and the diagonal is 1,
        so every node also sees itself.

        Directed keeps only the arrows that survived the pairwise duel;
        weighted keeps every influence arrow with a nonzero weight, so a node
        aggregates all of its candidate influencers, not just the duel winners.
        """
        if variant not in self._inbound:
            if variant == VARIANT_DIRECTED:
                adj = derive_directed(self.weighted) > 0
            elif variant == VARIANT_WEIGHTED:
                adj = self.weighted > 0
            else:
                raise ValueError(f"unknown graph variant {variant!r}")
            mask = adj.T.astype(float)
            np.fill_diagonal(mask, 1.0)
            mask.flags.writeable = False
            self._inbound[variant] = mask
        return self._inbound[variant]

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)


def _layouts(config: ModelConfig, in_dim: int) -> list[Layout]:
    dims = config.dims(in_dim)
    layout = gat_layout if config.architecture == ARCH_GAT else sage_layout
    return [layout(d_in, d_out) for d_in, d_out in zip(dims, dims[1:])]


def init_params(config: ModelConfig, in_dim: int) -> list[dict[str, np.ndarray]]:
    rng = np.random.default_rng(config.seed)
    return [
        {
            name: np.zeros(shape) if fans is None else glorot(rng, *fans, shape)
            for name, (shape, fans) in layout.items()
        }
        for layout in _layouts(config, in_dim)
    ]


@np.errstate(all="ignore")  # the NaN check reports a divergence, not a numpy warning
def forward(
    params: Sequence[dict[str, np.ndarray]],
    config: ModelConfig,
    graph: GraphData,
    keep_caches: bool = False,
):
    """Per-node probabilities; with keep_caches also the layer caches.

    Raises FloatingPointError naming the first layer whose output contains
    a NaN, so a diverged run dies where it diverged instead of three stages
    later in the loss.
    """
    inbound = graph.inbound(config.graph_variant)
    run = gat_forward if config.architecture == ARCH_GAT else sage_forward
    h = graph.x
    caches = []
    last = len(params) - 1
    for i, layer in enumerate(params):
        h, cache = run(h, layer, inbound, activate=(i != last))
        if np.isnan(h).any():
            raise FloatingPointError(
                f"NaN in layer {i} output on graph {graph.graph_id}"
            )
        caches.append(cache)
    logits = h[:, 0]
    probs = sigmoid(logits)
    if keep_caches:
        return probs, logits, caches
    return probs


@np.errstate(all="ignore")
def loss_and_grads(
    params: Sequence[dict[str, np.ndarray]],
    config: ModelConfig,
    graph: GraphData,
) -> tuple[float, list[dict[str, np.ndarray]]]:
    probs, logits, caches = forward(params, config, graph, keep_caches=True)
    y = graph.y.astype(float)
    loss = bce_loss(probs, y)
    d_h = bce_grad_wrt_logits(probs, y)[:, None]
    back = gat_backward if config.architecture == ARCH_GAT else sage_backward
    grads: list[dict[str, np.ndarray]] = [None] * len(params)  # type: ignore[list-item]
    for i in range(len(params) - 1, -1, -1):
        d_h, grads[i] = back(caches[i], d_h)
    return loss, grads


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    seconds: float


def train(
    config: ModelConfig, train_graphs: Sequence[GraphData]
) -> tuple[list[dict[str, np.ndarray]], list[EpochRecord]]:
    """Train on the given graphs, one Adam step per graph per epoch, for
    `config.epochs` epochs, and return the final epoch's parameters.

    Graphs are visited in the order given (sort upstream for determinism).
    """
    if not train_graphs:
        raise ValueError("no training graphs")
    params = init_params(config, train_graphs[0].x.shape[1])
    optimizer = Adam(config.learning_rate)
    history: list[EpochRecord] = []
    for epoch in range(1, config.epochs + 1):
        started = time.perf_counter()
        losses = []
        for graph in train_graphs:
            loss, grads = loss_and_grads(params, config, graph)
            optimizer.step(params, grads)
            losses.append(loss)
        history.append(
            EpochRecord(epoch, float(np.mean(losses)), time.perf_counter() - started)
        )
    return params, history


def predict(
    params: Sequence[dict[str, np.ndarray]],
    config: ModelConfig,
    graph: GraphData,
    threshold: Optional[float] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """(labels, probabilities); label 1 wherever probability >= threshold."""
    cut = config.threshold if threshold is None else threshold
    probs = forward(params, config, graph)
    return (probs >= cut).astype(int), probs


def write_history_csv(path: Path | str, history: Sequence[EpochRecord]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("epoch,train_loss,epoch_seconds\n")
        for r in history:
            fh.write(f"{r.epoch},{r.train_loss!r},{r.seconds!r}\n")


def read_history_csv(path: Path | str) -> list[EpochRecord]:
    """The records write_history_csv wrote; a malformed row raises
    ValueError naming its file and line."""
    history = []
    with open(path, encoding="utf-8") as fh:
        for number, line in enumerate(fh, start=1):
            if number == 1 or not line.strip():
                continue
            try:
                epoch, loss, seconds = line.split(",")
                history.append(EpochRecord(int(epoch), float(loss), float(seconds)))
            except ValueError as exc:
                raise ValueError(f"{path}:{number}: {exc}") from None
    return history


def save_params(
    path: Path | str,
    params: Sequence[dict[str, np.ndarray]],
    config: ModelConfig,
    in_dim: int,
) -> None:
    payload = {
        "format_version": PARAMS_FORMAT_VERSION,
        "config": asdict(config),
        "in_dim": in_dim,
        "layers": [
            {name: arr.tolist() for name, arr in layer.items()} for layer in params
        ],
    }
    write_json(path, payload)


def load_params(path: Path | str) -> tuple[list[dict[str, np.ndarray]], ModelConfig, int]:
    return read_json(path, _params_from_json)


def _params_from_json(obj: dict) -> tuple[list[dict[str, np.ndarray]], ModelConfig, int]:
    if obj.get("format_version") != PARAMS_FORMAT_VERSION:
        raise ValueError(f"unsupported parameter format {obj.get('format_version')}")
    config = ModelConfig(**obj["config"])
    in_dim = int(obj["in_dim"])
    params = [
        {name: np.array(value, dtype=float) for name, value in layer.items()}
        for layer in obj["layers"]
    ]
    expected = _layouts(config, in_dim)
    if len(params) != len(expected):
        raise ValueError(f"{len(params)} layers where the config has {len(expected)}")
    for i, (layer, layout) in enumerate(zip(params, expected)):
        got = {name: arr.shape for name, arr in layer.items()}
        need = {name: shape for name, (shape, _) in layout.items()}
        if got != need:
            raise ValueError(f"layer {i} has parameters {got} where the config needs {need}")
    return params, config, in_dim
