"""Whole-graph node measures on the inferred diffusion graphs.

Every function takes a square adjacency matrix: the 0/1 directed matrix for
the unweighted variant, the [0, 1] weight matrix for the weighted one. In the
weighted case distance is the reciprocal of the edge weight, so heavier edges
are shorter.
"""

from __future__ import annotations

import heapq
import math
from typing import Optional

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
    nbrs: list[list[int]], lengths: Optional[list[list[float]]], s: int
) -> tuple[list[int], list[float], list[float], list[list[int]]]:
    """Brandes' single-source pass: (order, dist, sigma, pred).

    `nbrs[u]` lists u's out-neighbours in increasing order and `lengths[u]`
    the lengths of those edges; without lengths every edge is one hop.
    `order` lists the nodes reached from `s` by nondecreasing distance, `dist`
    holds the directed shortest-path distances (inf where unreachable),
    `sigma` counts the shortest paths from `s`, and `pred` lists each node's
    predecessors on them.
    """
    n = len(nbrs)
    pred: list[list[int]] = [[] for _ in range(n)]
    sigma = [0.0] * n
    sigma[s] = 1.0
    dist = [math.inf] * n
    dist[s] = 0.0
    order: list[int] = []
    if lengths is None:
        order.append(s)
        head = 0
        while head < len(order):  # `order` doubles as the BFS queue
            u = order[head]
            head += 1
            for v in nbrs[u]:
                if dist[v] == math.inf:
                    dist[v] = dist[u] + 1
                    order.append(v)
                if dist[v] == dist[u] + 1:
                    sigma[v] += sigma[u]
                    pred[v].append(u)
    else:
        heap = [(0.0, s)]
        done = [False] * n
        while heap:
            d, u = heapq.heappop(heap)
            if done[u]:
                continue
            done[u] = True
            order.append(u)
            for v, length in zip(nbrs[u], lengths[u]):
                nd = d + length
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
    nbrs = [np.flatnonzero(row).tolist() for row in adj]
    lengths = [(1.0 / adj[u, vs]).tolist() for u, vs in enumerate(nbrs)] if weighted else None
    close = np.zeros(n)
    between = np.zeros(n)
    for s in range(n):
        order, dist, sigma, pred = _shortest_paths(nbrs, lengths, s)
        dist_arr = np.array(dist)
        reach = np.isfinite(dist_arr)
        reach[s] = False
        r = int(reach.sum())
        if r:
            close[s] = (r / float(dist_arr[reach].sum())) * (r / (n - 1))
        delta = [0.0] * n
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
