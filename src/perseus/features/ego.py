"""Ego-network measures around one node of a diffusion graph.

The out-ego network is the node plus everyone it points at; alters are those
neighbors, and n counts alters only. Redundancy terms t_i count each alter's
outward ties to other alters (the ego's own edges never count as ties). The
in-ratio uses the in-ego network instead. All six measures default to zero
for isolated egos, and density needs at least two alters to mean anything.
"""

from __future__ import annotations

import numpy as np

EGO_KEYS = (
    "in_ratio",
    "out_degree",
    "out_ratio",
    "efficiency",
    "effective_size",
    "density",
)


def ego_features(adj: np.ndarray, v: int, weighted: bool) -> dict[str, float]:
    """The six ego measures of node v; see `ego_feature_matrix`."""
    return {key: float(col[v]) for key, col in ego_feature_matrix(adj, weighted).items()}


def _tie_sum(w: np.ndarray, members: np.ndarray) -> float:
    """Sum of w over members × members, added one term at a time in row-major
    order from 0.0 (np.cumsum never regroups, and a non-edge adds 0.0)."""
    return np.cumsum(w[np.ix_(members, members)].ravel())[-1]


def ego_feature_matrix(adj: np.ndarray, weighted: bool) -> dict[str, np.ndarray]:
    """All six ego measures for every node, keyed like EGO_KEYS."""
    size = len(adj)
    w = np.where(adj > 0, adj if weighted else 1.0, 0.0)
    np.fill_diagonal(w, 0.0)
    out = {key: np.zeros(size) for key in EGO_KEYS}
    for v in range(size):
        row, col = adj[v], adj[:, v]
        alters = np.flatnonzero(row)
        alters = alters[alters != v]
        n = len(alters)
        if n:
            ties = _tie_sum(w, alters)
            q = float(row[alters].sum()) if weighted else float(n)
            out["effective_size"][v] = n - ties / n
            out["efficiency"][v] = 1.0 - ties / (n * n)
            out["out_degree"][v] = q
            out["out_ratio"][v] = q / n
            if n >= 2:
                m = _tie_sum(w, np.concatenate(([v], alters)))
                out["density"][v] = 2.0 * m / (n * (n - 1))
        in_alters = np.flatnonzero(col)
        in_alters = in_alters[in_alters != v]
        if len(in_alters):
            indeg = float(col[in_alters].sum()) if weighted else float(len(in_alters))
            out["in_ratio"][v] = indeg / len(in_alters)
    return out
