"""Diffusion-network inference from event participation order.

Each event orders its k spreaders by announcement time, ranks l = 1..k (the
segmentation already broke time ties by entity id). Earlier spreaders are
treated as likelier sources for later ones, with adjacency in the ranking
counting for more than distance:

    h_rs = 1 / (l_s (l_s - l_r))  for l_r < l_s, else 0
    lambda_rs = h_rs / sum_t h_rt  (the last-ranked row stays all zero)

With P the spreader x event 0/1 incidence matrix, I = P P^T and d = diag(I),
the co-occurrence weight is the Jaccard ratio theta = I / (d_r + d_s - I),
with a zero diagonal. The graph is W = theta * sum_events lambda (or, read
literally, theta / sum_events lambda), divided by its peak into [0, 1]. A
binary orientation keeps r -> s only where the weight beats its reverse.
"""

from __future__ import annotations

import math
import shutil
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .events import CrowdPumpEvent
from .jsonfile import read_json, write_json

MIN_SPREADERS = 4

AGG_PRODUCT = "dani_product"
AGG_QUOTIENT = "paper_literal_quotient"
AGGREGATIONS = (AGG_PRODUCT, AGG_QUOTIENT)


class GraphTooSmall(Exception):
    def __init__(self, coin: str, n: int):
        self.coin = coin
        self.n = n
        super().__init__(f"{coin}: only {n} spreaders, need at least {MIN_SPREADERS}")


@dataclass
class DiffusionGraph:
    cryptocurrency: str
    period: str
    nodes: tuple[str, ...]
    weighted: np.ndarray   # W, floats in [0, 1]

    @property
    def directed(self) -> np.ndarray:
        """W*, 0/1 ints: derive_directed(weighted), computed on each read.

        A loaded graph derives it from the stored nine-decimal weights.
        Rounding is monotone, so it can turn a pair closer than 1e-9 into a
        tie (no arrow) but never flip an arrow.
        """
        return derive_directed(self.weighted)

    @property
    def n(self) -> int:
        return len(self.nodes)

    @property
    def graph_id(self) -> str:
        return f"{self.period}/{self.cryptocurrency}"


@lru_cache(maxsize=None)
def lambda_matrix(k: int) -> np.ndarray:
    """Read-only (k, k) lambda of an event with k spreaders, rows and columns
    in announcement order. Row totals are in-order sums, so each entry is
    the same float a left-to-right loop over the row gives."""
    ranks = np.arange(1, k + 1)
    gap = ranks[None, :] - ranks[:, None]
    h = np.divide(1.0, ranks[None, :] * gap, out=np.zeros((k, k)), where=gap > 0)
    total = np.cumsum(h, axis=1)[:, -1:]
    lam = np.divide(h, total, out=np.zeros((k, k)), where=total > 0)
    lam.flags.writeable = False
    return lam


def infer_weighted(
    events: Sequence[CrowdPumpEvent], mode: str = AGG_PRODUCT
) -> tuple[tuple[str, ...], np.ndarray]:
    """Infer the weighted adjacency over all spreaders seen in `events`.

    Returns (nodes sorted by entity id, W normalized to [0, 1]). Raises
    GraphTooSmall below MIN_SPREADERS spreaders.
    """
    if mode not in AGGREGATIONS:
        raise ValueError(f"unknown aggregation mode {mode!r}")
    nodes = tuple(sorted({entity for event in events for entity in event.spreaders}))
    if len(nodes) < MIN_SPREADERS:
        coin = events[0].cryptocurrency if events else "?"
        raise GraphTooSmall(coin, len(nodes))
    index = {entity: i for i, entity in enumerate(nodes)}

    lam_sum = np.zeros((len(nodes), len(nodes)))
    incidence = np.zeros((len(nodes), len(events)))
    for j, event in enumerate(events):
        idx = [index[entity] for entity in event.spreaders]
        if len(idx) > 1:
            lam_sum[np.ix_(idx, idx)] += lambda_matrix(len(idx))
        incidence[idx, j] = 1.0
    shared = incidence @ incidence.T
    d = np.diag(shared)
    theta = shared / (d[:, None] + d[None, :] - shared)
    np.fill_diagonal(theta, 0.0)

    if mode == AGG_PRODUCT:
        raw = theta * lam_sum
    else:
        # literal quotient reading: co-occurrence over accumulated strength
        raw = np.divide(theta, lam_sum, out=np.zeros_like(theta), where=lam_sum > 0)
    peak = raw.max()
    weighted = raw / peak if peak > 0 else raw
    return nodes, weighted


def derive_directed(weighted: np.ndarray) -> np.ndarray:
    """W*_rs = 1 iff W_rs > W_sr; ties (including zero pairs) get no edge."""
    return (weighted > weighted.T).astype(np.int8)


def build_graph(
    coin: str,
    period: str,
    events: Sequence[CrowdPumpEvent],
    mode: str = AGG_PRODUCT,
) -> DiffusionGraph:
    nodes, weighted = infer_weighted(events, mode=mode)
    return DiffusionGraph(cryptocurrency=coin, period=period, nodes=nodes, weighted=weighted)


def build_graphs(
    event_sets: Mapping[tuple[str, str], Sequence[CrowdPumpEvent]],
    mode: str = AGG_PRODUCT,
) -> tuple[dict[str, DiffusionGraph], list[tuple[str, str, int]]]:
    """Build one graph per (period, coin); undersized coins are dropped and
    reported as (period, coin, spreader count)."""
    graphs: dict[str, DiffusionGraph] = {}
    dropped: list[tuple[str, str, int]] = []
    for (period, coin), events in sorted(event_sets.items()):
        try:
            graph = build_graph(coin, period, list(events), mode=mode)
        except GraphTooSmall as exc:
            dropped.append((period, coin, exc.n))
            continue
        graphs[graph.graph_id] = graph
    return graphs, dropped


# --- artifact files ----------------------------------------------------------
# A graph directory holds <period>/<coin><table> per graph and GRAPH_TABLES
# entry, and index.json: {"graphs": [{period, coin}], "dropped": [{period,
# cryptocurrency, spreaders}]}.

GRAPH_TABLES = (".nodes.tsv", ".weighted.tsv")
INDEX = "index.json"


def _tables(directory: Path, coin: str) -> list[Path]:
    return [directory / f"{coin}{table}" for table in GRAPH_TABLES]


def save_graphs(
    root: Path | str,
    graphs: Mapping[str, DiffusionGraph],
    dropped: Sequence[tuple[str, str, int]],
) -> list[Path]:
    """Replace `root` with the tables of every graph, in graph id order, and
    the index; the files written.

    Weighted edges go to a src<TAB>dst<TAB>weight TSV with nine decimal
    places; the node index maps row number to entity id. The orientation is
    not stored, as it is a function of the weights (DiffusionGraph.directed).
    """
    root = Path(root)
    if root.exists():
        shutil.rmtree(root)
    listed = sorted(graphs.values(), key=lambda graph: graph.graph_id)
    written: list[Path] = []
    for graph in listed:
        nodes, weighted = graph.nodes, graph.weighted
        nodes_path, weighted_path = _tables(root / graph.period, graph.cryptocurrency)
        nodes_path.parent.mkdir(parents=True, exist_ok=True)
        nodes_path.write_text("".join(f"{i}\t{entity}\n" for i, entity in enumerate(nodes)), encoding="utf-8")
        weighted_path.write_text(
            "".join(
                f"{nodes[r]}\t{nodes[s]}\t{weighted[r, s]:.9f}\n"
                for r, s in zip(*np.nonzero(weighted > 0))
            ),
            encoding="utf-8",
        )
        written += [nodes_path, weighted_path]
    index = {
        "graphs": [{"period": g.period, "coin": g.cryptocurrency} for g in listed],
        "dropped": [{"period": p, "cryptocurrency": c, "spreaders": n} for p, c, n in dropped],
    }
    return written + [write_json(root / INDEX, index)]


def graph_index(root: Path | str) -> list[tuple[str, str]]:
    """(period, coin) of every graph that root/index.json lists, in its order."""
    return read_json(
        Path(root) / INDEX,
        lambda index: [(entry["period"], entry["coin"]) for entry in index["graphs"]],
    )


def graph_files(root: Path | str) -> list[Path]:
    """The index and the tables of every graph it lists (only the index
    while it does not exist)."""
    root = Path(root)
    listed = graph_index(root) if (root / INDEX).exists() else []
    return [root / INDEX] + [p for period, coin in listed for p in _tables(root / period, coin)]


def load_graph(directory: Path | str, coin: str, period: str) -> DiffusionGraph:
    """Read the tables save_graphs wrote; a malformed line (wrong field count,
    unknown entity, non-finite weight) raises ValueError naming it."""
    directory = Path(directory)
    nodes_path, weighted_path = _tables(directory, coin)
    nodes: list[str] = []
    path, number = nodes_path, 0
    try:
        with open(path, encoding="utf-8") as fh:
            for number, line in enumerate(fh, start=1):
                _, entity = line.rstrip("\n").split("\t")
                nodes.append(entity)
        index = {entity: i for i, entity in enumerate(nodes)}
        weighted = np.zeros((len(nodes), len(nodes)))
        path = weighted_path
        with open(path, encoding="utf-8") as fh:
            for number, line in enumerate(fh, start=1):
                src, dst, w = line.rstrip("\n").split("\t")
                weighted[index[src], index[dst]] = weight = float(w)
                if not math.isfinite(weight):
                    raise ValueError(f"weight {w!r} is not a finite number")
    except KeyError as exc:
        raise ValueError(f"{path}:{number}: unknown entity {exc.args[0]!r}") from None
    except ValueError as exc:
        raise ValueError(f"{path}:{number}: {exc}") from None
    return DiffusionGraph(cryptocurrency=coin, period=period, nodes=tuple(nodes), weighted=weighted)


def load_graphs(root: Path | str) -> dict[str, DiffusionGraph]:
    """Every graph root/index.json lists, by graph id; a malformed table
    raises load_graph's ValueError."""
    root = Path(root)
    # load_graph is looked up at each call, so a wrapper set on it sees every one.
    graphs = (load_graph(root / period, coin, period) for period, coin in graph_index(root))
    return {graph.graph_id: graph for graph in graphs}
