"""Whole-graph node measures on the inferred diffusion graphs.

Every function takes a square adjacency matrix: the 0/1 directed matrix for
the unweighted variant, the [0, 1] weight matrix for the weighted one. In the
weighted case distance is the reciprocal of the edge weight, so heavier edges
are shorter.
"""

from __future__ import annotations

import heapq

import numpy as np

PAGERANK_DAMPING = 0.85
PAGERANK_TOL = 1e-9
PAGERANK_MAX_ITER = 200


def _degrees_sym(adj: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    sym = np.maximum(adj, adj.T).astype(float)
    np.fill_diagonal(sym, 0.0)
    return sym, (sym > 0).sum(axis=1)


def clustering(adj: np.ndarray, weighted: bool) -> np.ndarray:
    """Local clustering on the undirected projection.

    Unweighted: share of closed neighbor pairs. Weighted: geometric-mean
    coefficient over edge weights scaled by the largest symmetrized weight.
    """
    sym, deg = _degrees_sym(adj)
    denom = deg * (deg - 1)
    if weighted:
        peak = sym.max()
        hat = sym / peak if peak > 0 else sym
        root = np.cbrt(hat)
        closed = np.einsum("ij,jk,ki->i", root, root, root)
    else:
        binary = (sym > 0).astype(float)
        closed = np.einsum("ij,jk,ki->i", binary, binary, binary)
    out = np.zeros(len(adj))
    mask = denom > 0
    out[mask] = closed[mask] / denom[mask]
    return out


def _shortest_paths(
    adj: np.ndarray, s: int, weighted: bool
) -> tuple[list[int], np.ndarray, np.ndarray, list[list[int]]]:
    """Brandes' single-source pass: (order, dist, sigma, pred).

    `order` lists the nodes reached from `s` by nondecreasing distance, `dist`
    holds the directed shortest-path distances (inf where unreachable),
    `sigma` counts the shortest paths from `s`, and `pred` lists each node's
    predecessors on them.
    """
    n = len(adj)
    pred: list[list[int]] = [[] for _ in range(n)]
    sigma = np.zeros(n)
    sigma[s] = 1.0
    dist = np.full(n, np.inf)
    dist[s] = 0.0
    order: list[int] = []
    if not weighted:
        queue = [s]
        while queue:
            u = queue.pop(0)
            order.append(u)
            for v in np.flatnonzero(adj[u]):
                v = int(v)
                if np.isinf(dist[v]):
                    dist[v] = dist[u] + 1
                    queue.append(v)
                if dist[v] == dist[u] + 1:
                    sigma[v] += sigma[u]
                    pred[v].append(u)
    else:
        heap = [(0.0, s)]
        done = np.zeros(n, dtype=bool)
        while heap:
            d, u = heapq.heappop(heap)
            if done[u]:
                continue
            done[u] = True
            order.append(u)
            for v in np.flatnonzero(adj[u]):
                v = int(v)
                nd = d + 1.0 / adj[u, v]
                if nd < dist[v]:
                    dist[v] = nd
                    sigma[v] = sigma[u]
                    pred[v] = [u]
                    heapq.heappush(heap, (nd, v))
                elif nd == dist[v] and not done[v]:
                    sigma[v] += sigma[u]
                    pred[v].append(u)
    return order, dist, sigma, pred


def path_centrality(adj: np.ndarray, weighted: bool) -> tuple[np.ndarray, np.ndarray]:
    """(closeness, betweenness) from one shortest-path pass per source.

    Closeness is outgoing-distance closeness, normalized by the reachable
    share so that nodes commanding a small component do not outrank globally
    central ones. Betweenness is directed shortest-path betweenness,
    endpoints excluded, unnormalized: Brandes' accumulation pushes each
    source's dependencies back through its predecessor DAG.
    """
    n = len(adj)
    close = np.zeros(n)
    between = np.zeros(n)
    for s in range(n):
        order, dist, sigma, pred = _shortest_paths(adj, s, weighted)
        reach = np.isfinite(dist)
        reach[s] = False
        r = int(reach.sum())
        if r:
            close[s] = (r / float(dist[reach].sum())) * (r / (n - 1))
        delta = np.zeros(n)
        for v in reversed(order):
            for u in pred[v]:
                delta[u] += sigma[u] / sigma[v] * (1.0 + delta[v])
            if v != s:
                between[v] += delta[v]
    return close, between


def closeness(adj: np.ndarray, weighted: bool) -> np.ndarray:
    """Outgoing-distance closeness; see `path_centrality`."""
    return path_centrality(adj, weighted)[0]


def betweenness(adj: np.ndarray, weighted: bool) -> np.ndarray:
    """Directed shortest-path betweenness; see `path_centrality`."""
    return path_centrality(adj, weighted)[1]


def pagerank(adj: np.ndarray, weighted: bool) -> np.ndarray:
    """Power-iteration pagerank; dangling mass is spread uniformly."""
    n = len(adj)
    if n == 0:
        return np.zeros(0)
    mat = adj.astype(float).copy()
    if not weighted:
        mat = (mat > 0).astype(float)
    np.fill_diagonal(mat, 0.0)
    out = mat.sum(axis=1)
    dangling = out == 0
    trans = np.zeros_like(mat)
    nz = ~dangling
    trans[nz] = mat[nz] / out[nz, None]
    teleport = (1.0 - PAGERANK_DAMPING) / n
    x = np.full(n, 1.0 / n)
    for _ in range(PAGERANK_MAX_ITER):
        nxt = teleport + PAGERANK_DAMPING * (x @ trans + x[dangling].sum() / n)
        if np.abs(nxt - x).sum() < PAGERANK_TOL:
            x = nxt
            break
        x = nxt
    return x
