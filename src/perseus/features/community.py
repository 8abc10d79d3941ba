"""Louvain community detection over the symmetrized weighted graph.

Used as labeling assistance: communities group the channels that echo each
other, which is where mastermind/accomplice annotation starts. The
implementation is deterministic: nodes are visited in index order and ties
between candidate communities break toward the smaller community id.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_GAIN_EPS = 1e-12


@dataclass(frozen=True)
class CommunityPartition:
    assignment: dict[int, int]
    modularity: float
    pass_modularity: tuple[float, ...]

    @property
    def n_communities(self) -> int:
        return len(set(self.assignment.values()))


def symmetrize(weighted: np.ndarray) -> np.ndarray:
    sym = (weighted + weighted.T) / 2.0
    sym = sym.astype(float).copy()
    np.fill_diagonal(sym, 0.0)
    return sym


def modularity(sym: np.ndarray, assignment: dict[int, int]) -> float:
    """Newman modularity of a partition of the symmetric graph `sym`."""
    m2 = sym.sum()
    if m2 == 0:
        return 0.0
    k = sym.sum(axis=1)
    labels = np.array([assignment[i] for i in range(len(sym))])
    q = 0.0
    # Not np.unique: under numpy 2 it imports numpy.ma, costing a run ~10 ms and 0.7 MB.
    for c in sorted(set(labels.tolist())):
        members = labels == c
        q += sym[np.ix_(members, members)].sum() / m2 - (k[members].sum() / m2) ** 2
    return float(q)


def _local_moves(adj: np.ndarray, m2: float) -> tuple[np.ndarray, bool]:
    """One phase of index-order local moves; returns (community labels, moved?)."""
    n = len(adj)
    comm = np.arange(n)
    k = adj.sum(axis=1)
    tot = k.copy()
    moved_any = False
    while True:
        moved = False
        for i in range(n):
            old = comm[i]
            nbrs = np.flatnonzero(adj[i])
            nbrs = nbrs[nbrs != i]
            # weight from i to each community, added in neighbour order
            links = np.bincount(comm[nbrs], weights=adj[i, nbrs], minlength=n)
            tot[old] -= k[i]
            base = links[old] / m2 * 2.0 - tot[old] * k[i] * 2.0 / (m2 * m2)
            best_comm, best_gain = old, base
            for c in np.flatnonzero(links):
                if c == old:
                    continue
                gain = links[c] / m2 * 2.0 - tot[c] * k[i] * 2.0 / (m2 * m2)
                if gain > best_gain + _GAIN_EPS:
                    best_comm, best_gain = c, gain
            comm[i] = best_comm
            tot[best_comm] += k[i]
            if best_comm != old:
                moved = True
                moved_any = True
        if not moved:
            break
    return comm, moved_any


def _first_use(labels: np.ndarray) -> np.ndarray:
    """Labels renumbered 0, 1, ... in order of first appearance."""
    order: dict[int, int] = {}
    return np.array([order.setdefault(int(c), len(order)) for c in labels])


def _aggregate(adj: np.ndarray, comm: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Collapse communities into super-nodes (labels renumbered by first use).
    np.add.at adds the edges in row-major order, one at a time."""
    relabeled = _first_use(comm)
    size = int(relabeled.max()) + 1
    agg = np.zeros((size, size))
    i, j = np.nonzero(adj)
    np.add.at(agg, (relabeled[i], relabeled[j]), adj[i, j])
    return agg, relabeled


def louvain(weighted: np.ndarray) -> CommunityPartition:
    """Full Louvain on (W + W^T)/2. The reported modularity is recomputed on
    the original symmetrized graph from the returned assignment."""
    sym = symmetrize(weighted)
    n = len(sym)
    m2 = sym.sum()
    if m2 == 0:
        assignment = {i: i for i in range(n)}
        return CommunityPartition(assignment, 0.0, ())

    mapping = np.arange(n)  # original node -> current super-node
    current = sym
    history: list[float] = []
    while True:
        comm, moved = _local_moves(current, m2)
        agg, relabeled = _aggregate(current, comm)
        mapping = relabeled[mapping]
        history.append(modularity(sym, dict(enumerate(mapping.tolist()))))
        if not moved or len(agg) == len(current):
            break
        current = agg

    assignment = dict(enumerate(_first_use(mapping).tolist()))
    return CommunityPartition(assignment, modularity(sym, assignment), tuple(history))
