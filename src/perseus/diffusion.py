"""Diffusion-network inference from event participation order.

Each event orders its spreaders by announcement time; earlier spreaders are
treated as likelier sources for later ones, with adjacency in the ranking
counting for more than distance. Per-event pair strengths are row-normalized,
summed across events, weighted by how consistently two spreaders co-occur
(Jaccard over event participation), and finally normalized into [0, 1]. A
binary orientation keeps r -> s only where the weight beats its reverse.
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .events import CrowdPumpEvent

MIN_SPREADERS = 4

AGG_PRODUCT = "dani_product"
AGG_QUOTIENT = "paper_literal_quotient"
AGGREGATIONS = (AGG_PRODUCT, AGG_QUOTIENT)


class GraphTooSmall(Exception):
    def __init__(self, coin: str, n: int):
        self.coin = coin
        self.n = n
        super().__init__(f"{coin}: only {n} spreaders, need at least {MIN_SPREADERS}")


@dataclass(frozen=True)
class RankingVector:
    """1-based announcement-order ranks for one event's spreaders."""

    event_id: int
    ranks: Mapping[str, int]


@dataclass
class DiffusionGraph:
    cryptocurrency: str
    period: str
    nodes: tuple[str, ...]
    weighted: np.ndarray   # W, floats in [0, 1]
    directed: np.ndarray   # W*, 0/1 ints
    event_participation: dict[str, frozenset[int]]

    @property
    def n(self) -> int:
        return len(self.nodes)

    @property
    def graph_id(self) -> str:
        return f"{self.period}/{self.cryptocurrency}"


def ranking_vector(event: CrowdPumpEvent) -> RankingVector:
    """Ranks in announcement order; the segmentation already broke time ties
    by entity id, so the order of event.messages is authoritative."""
    return RankingVector(
        event_id=event.event_id,
        ranks={m.entity_id: i for i, m in enumerate(event.messages, start=1)},
    )


def pair_strength(ranking: RankingVector, r: str, s: str) -> float:
    """h, the per-event source likelihood of r for s: 1 / (l_s * (l_s - l_r))
    when r precedes s, else 0."""
    if r == s:
        raise ValueError("pair_strength needs two distinct spreaders")
    lr = ranking.ranks[r]
    ls = ranking.ranks[s]
    if lr >= ls:
        return 0.0
    return 1.0 / (ls * (ls - lr))


def lambda_weights(event: CrowdPumpEvent) -> dict[tuple[str, str], float]:
    """Row-normalized pair strengths for one event.

    Rows sum to 1 except for the last-ranked spreader, whose row is all
    zero (nobody follows it).
    """
    ranking = ranking_vector(event)
    spreaders = list(ranking.ranks)
    out: dict[tuple[str, str], float] = {}
    for r in spreaders:
        row = {s: pair_strength(ranking, r, s) for s in spreaders if s != r}
        total = sum(row.values())
        if total > 0:
            for s, h in row.items():
                out[(r, s)] = h / total
        else:
            for s in row:
                out[(r, s)] = 0.0
    return out


def jaccard_theta(participation: Mapping[str, frozenset[int]], r: str, s: str) -> float:
    a, b = participation[r], participation[s]
    union = a | b
    if not union:
        return 0.0
    return len(a & b) / len(union)


def infer_weighted(
    events: Sequence[CrowdPumpEvent], mode: str = AGG_PRODUCT
) -> tuple[tuple[str, ...], np.ndarray, dict[str, frozenset[int]]]:
    """Infer the weighted adjacency over all spreaders seen in `events`.

    Returns (nodes sorted by entity id, W normalized to [0, 1], event
    participation). Raises GraphTooSmall below MIN_SPREADERS spreaders.
    """
    if mode not in AGGREGATIONS:
        raise ValueError(f"unknown aggregation mode {mode!r}")
    participation: dict[str, set[int]] = defaultdict(set)
    for event in events:
        for entity in event.spreaders:
            participation[entity].add(event.event_id)
    nodes = tuple(sorted(participation))
    if len(nodes) < MIN_SPREADERS:
        coin = events[0].cryptocurrency if events else "?"
        raise GraphTooSmall(coin, len(nodes))
    index = {entity: i for i, entity in enumerate(nodes)}
    frozen = {entity: frozenset(ids) for entity, ids in participation.items()}

    lam_sum = np.zeros((len(nodes), len(nodes)))
    for event in events:
        for (r, s), lam in lambda_weights(event).items():
            lam_sum[index[r], index[s]] += lam

    theta = np.zeros_like(lam_sum)
    for r in nodes:
        for s in nodes:
            if r != s:
                theta[index[r], index[s]] = jaccard_theta(frozen, r, s)

    if mode == AGG_PRODUCT:
        raw = theta * lam_sum
    else:
        # literal quotient reading: co-occurrence over accumulated strength
        raw = np.divide(theta, lam_sum, out=np.zeros_like(theta), where=lam_sum > 0)
    peak = raw.max()
    weighted = raw / peak if peak > 0 else raw
    return nodes, weighted, frozen


def derive_directed(weighted: np.ndarray) -> np.ndarray:
    """W*_rs = 1 iff W_rs > W_sr; ties (including zero pairs) get no edge."""
    return (weighted > weighted.T).astype(np.int8)


def build_graph(
    coin: str,
    period: str,
    events: Sequence[CrowdPumpEvent],
    mode: str = AGG_PRODUCT,
) -> DiffusionGraph:
    nodes, weighted, participation = infer_weighted(events, mode=mode)
    return DiffusionGraph(
        cryptocurrency=coin,
        period=period,
        nodes=nodes,
        weighted=weighted,
        directed=derive_directed(weighted),
        event_participation=participation,
    )


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

def save_graph(graph: DiffusionGraph, directory: Path | str) -> None:
    """Write nodes/weighted/directed files for one graph under `directory`.

    Weighted edges go to a src<TAB>dst<TAB>weight TSV with nine decimal
    places; directed edges to a src<TAB>dst TSV; the node index maps row
    number to entity id.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    stem = graph.cryptocurrency
    with open(directory / f"{stem}.nodes.tsv", "w", encoding="utf-8") as fh:
        fh.writelines(f"{i}\t{entity}\n" for i, entity in enumerate(graph.nodes))
    nodes, weighted = graph.nodes, graph.weighted
    with open(directory / f"{stem}.weighted.tsv", "w", encoding="utf-8") as fh:
        fh.writelines(
            f"{nodes[r]}\t{nodes[s]}\t{weighted[r, s]:.9f}\n"
            for r, s in zip(*np.nonzero(weighted > 0))
        )
    with open(directory / f"{stem}.directed.tsv", "w", encoding="utf-8") as fh:
        fh.writelines(f"{nodes[r]}\t{nodes[s]}\n" for r, s in zip(*np.nonzero(graph.directed)))
    participation = {
        entity: sorted(ids) for entity, ids in graph.event_participation.items()
    }
    with open(directory / f"{stem}.events.json", "w", encoding="utf-8") as fh:
        json.dump(participation, fh, sort_keys=True)


def load_graph(directory: Path | str, coin: str, period: str) -> DiffusionGraph:
    directory = Path(directory)
    nodes: list[str] = []
    with open(directory / f"{coin}.nodes.tsv", encoding="utf-8") as fh:
        for line in fh:
            _, entity = line.rstrip("\n").split("\t")
            nodes.append(entity)
    index = {entity: i for i, entity in enumerate(nodes)}
    weighted = np.zeros((len(nodes), len(nodes)))
    with open(directory / f"{coin}.weighted.tsv", encoding="utf-8") as fh:
        for line in fh:
            src, dst, w = line.rstrip("\n").split("\t")
            weighted[index[src], index[dst]] = float(w)
    directed = np.zeros((len(nodes), len(nodes)), dtype=np.int8)
    with open(directory / f"{coin}.directed.tsv", encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            src, dst = line.rstrip("\n").split("\t")
            directed[index[src], index[dst]] = 1
    loaded = json.loads((directory / f"{coin}.events.json").read_text(encoding="utf-8"))
    participation = {entity: frozenset(ids) for entity, ids in loaded.items()}
    return DiffusionGraph(
        cryptocurrency=coin,
        period=period,
        nodes=tuple(nodes),
        weighted=weighted,
        directed=directed,
        event_participation=participation,
    )
