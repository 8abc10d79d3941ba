"""Independent reference implementations the test suite checks the package
against.

Everything here deliberately takes a different route from the package:
dicts and fractions instead of numpy arrays, Floyd-Warshall pair counting
instead of Brandes accumulation, a dense linear solve instead of power
iteration, pure-python scalar loops instead of vectorized layers, a re-count
of every candidate cut pair instead of per-coin earliest ends, a
`csv.DictReader`/`csv.writer` row loop instead of columnar price I/O, a
search and a slice per message instead of one `reduceat` per price series, an
alters × alters loop instead of in-order tie sums over a masked matrix, a
bar loop over numpy scalars and `datetime` plans instead of one over
Python floats, a dict of Louvain link weights instead of `np.bincount`,
per-pair dicts of lambda weights and frozenset Jaccard ratios instead of
broadcast rank blocks and an incidence product, a sorted list of
(-weight, src, dst) tuples instead of `np.lexsort`, a scan for tie groups
instead of `np.unique` counts, Adam moments per parameter array instead of
over one flat vector.
Agreement between the two routes is then evidence, not tautology.
"""

from __future__ import annotations

import csv
import hashlib
import math
from collections import defaultdict
from datetime import timedelta
from fractions import Fraction
from itertools import combinations
from pathlib import Path
from typing import Sequence

import numpy as np

from perseus.evaluation import SPLIT_COARSE_CELLS, SplitInfeasible, _plan_for
from perseus.features.ego import EGO_KEYS
from perseus.gnn import bce_loss, forward
from perseus.ingest import TradeDirection, normalize_symbol, parse_timestamp
from perseus import synth
from perseus.market import (
    FORWARD_FILL_LIMIT,
    OUTCOME_WINDOW,
    RETURN_DIRECTION_AWARE,
    RETURN_PAPER_LITERAL,
    RETURN_RULES,
    MarketOutcome,
    PriceSeries,
    _posix,
)


# ---------------------------------------------------------------------------
# cascade-influence reconstruction


def brute_influence(event_logs, mode="dani_product"):
    """Dict-and-fraction reconstruction of the influence matrices.

    ``event_logs`` is a list of events, each a list of ``(entity, time)``
    pairs with distinct entities; time may be anything orderable. Returns a
    dict with ``nodes`` (sorted tuple), ``theta`` and ``w`` (dicts keyed by
    ordered entity pairs, Fractions), ``h`` and ``lam`` (one dict per
    event), and ``w_star`` (set of surviving arrows).
    """
    nodes = sorted({e for log in event_logs for e, _ in log})
    participation = {
        r: frozenset(i for i, log in enumerate(event_logs) if any(e == r for e, _ in log))
        for r in nodes
    }

    theta = {}
    for r in nodes:
        for s in nodes:
            if r == s:
                continue
            union = participation[r] | participation[s]
            inter = participation[r] & participation[s]
            theta[(r, s)] = Fraction(len(inter), len(union)) if union else Fraction(0)

    h_per_event = []
    lam_per_event = []
    for log in event_logs:
        ordered = sorted(log, key=lambda p: (p[1], p[0]))
        rank = {e: i for i, (e, _) in enumerate(ordered, start=1)}
        h = {}
        for r in rank:
            for s in rank:
                if r == s:
                    continue
                if rank[r] < rank[s]:
                    h[(r, s)] = Fraction(1, rank[s] * (rank[s] - rank[r]))
                else:
                    h[(r, s)] = Fraction(0)
        lam = {}
        for r in rank:
            row_total = sum(h[(r, s)] for s in rank if s != r)
            for s in rank:
                if s != r:
                    lam[(r, s)] = h[(r, s)] / row_total if row_total else Fraction(0)
        h_per_event.append(h)
        lam_per_event.append(lam)

    raw = {}
    for r in nodes:
        for s in nodes:
            if r == s:
                continue
            lam_sum = sum(lam.get((r, s), Fraction(0)) for lam in lam_per_event)
            if mode == "dani_product":
                raw[(r, s)] = theta[(r, s)] * lam_sum
            else:
                raw[(r, s)] = theta[(r, s)] / lam_sum if lam_sum else Fraction(0)

    peak = max(raw.values(), default=Fraction(0))
    w = {pair: (v / peak if peak else v) for pair, v in raw.items()}
    w_star = {(r, s) for (r, s), v in w.items() if v > w[(s, r)]}
    return {
        "nodes": tuple(nodes),
        "participation": participation,
        "theta": theta,
        "h": h_per_event,
        "lam": lam_per_event,
        "w": w,
        "w_star": w_star,
    }


def _lambda_weights(event):
    """Row-normalized pair strengths h = 1 / (l_s * (l_s - l_r)) for r before
    s, over one event's spreaders in announcement order; the row total is a
    left-to-right `+=`, the order numpy's in-order cumsum takes."""
    ranks = {m.entity_id: i for i, m in enumerate(event.messages, start=1)}
    spreaders = list(ranks)
    out = {}
    for r in spreaders:
        row = {}
        for s in spreaders:
            if s != r:
                lr, ls = ranks[r], ranks[s]
                row[s] = 0.0 if lr >= ls else 1.0 / (ls * (ls - lr))
        total = 0.0
        for h in row.values():
            total += h
        if total > 0:
            for s, h in row.items():
                out[(r, s)] = h / total
        else:
            for s in row:
                out[(r, s)] = 0.0
    return out


def _jaccard_theta(participation, r, s):
    a, b = participation[r], participation[s]
    union = a | b
    if not union:
        return 0.0
    return len(a & b) / len(union)


def reference_infer_weighted(events, mode="dani_product"):
    """Per-pair loops over a dict of lambda weights and an n x n loop of
    frozenset Jaccard ratios; same return value as diffusion.infer_weighted."""
    participation = defaultdict(set)
    for event in events:
        for entity in event.spreaders:
            participation[entity].add(event.event_id)
    nodes = tuple(sorted(participation))
    index = {entity: i for i, entity in enumerate(nodes)}
    frozen = {entity: frozenset(ids) for entity, ids in participation.items()}

    lam_sum = np.zeros((len(nodes), len(nodes)))
    for event in events:
        for (r, s), lam in _lambda_weights(event).items():
            lam_sum[index[r], index[s]] += lam

    theta = np.zeros_like(lam_sum)
    for r in nodes:
        for s in nodes:
            if r != s:
                theta[index[r], index[s]] = _jaccard_theta(frozen, r, s)

    if mode == "dani_product":
        raw = theta * lam_sum
    else:
        raw = np.divide(theta, lam_sum, out=np.zeros_like(theta), where=lam_sum > 0)
    peak = raw.max()
    weighted = raw / peak if peak > 0 else raw
    return nodes, weighted


def reference_score_edge_recovery(weighted, nodes, truth, directed=None):
    """Precision at |E| from a sorted list of (-weight, src, dst) tuples."""
    present = set(nodes)
    true_edges = {(s, d) for s, d in truth.edges if s in present and d in present}
    if not true_edges:
        raise ValueError("no ground-truth edges among the graph's nodes")
    candidates = weighted if directed is None else np.where(directed > 0, weighted, 0.0)
    order = []
    n = len(nodes)
    for r in range(n):
        for s in range(n):
            if r != s and candidates[r, s] > 0.0:
                order.append((-float(candidates[r, s]), nodes[r], nodes[s]))
    order.sort()
    top = order[: len(true_edges)]
    hits = sum(1 for _, src, dst in top if (src, dst) in true_edges)
    return hits / len(true_edges)


# ---------------------------------------------------------------------------
# ego networks


def brute_ego(adj, v, weighted):
    """Set-logic ego measures for node v of a dense adjacency (list of lists)."""
    n_nodes = len(adj)
    alters = [u for u in range(n_nodes) if u != v and adj[v][u] > 0]
    n = len(alters)
    feats = dict.fromkeys(
        ("in_ratio", "out_degree", "out_ratio", "efficiency", "effective_size", "density"),
        0.0,
    )
    if n:
        ties = 0.0
        for a in alters:
            for b in alters:
                if a != b and adj[a][b] > 0:
                    ties += adj[a][b] if weighted else 1.0
        q = sum(adj[v][u] for u in alters) if weighted else float(n)
        feats["effective_size"] = n - ties / n
        feats["efficiency"] = 1.0 - ties / (n * n)
        feats["out_degree"] = q
        feats["out_ratio"] = q / n
        if n >= 2:
            members = [v] + alters
            m = 0.0
            for a in members:
                for b in members:
                    if a != b and adj[a][b] > 0:
                        m += adj[a][b] if weighted else 1.0
            feats["density"] = 2.0 * m / (n * (n - 1))
    in_alters = [u for u in range(n_nodes) if u != v and adj[u][v] > 0]
    if in_alters:
        indeg = sum(adj[u][v] for u in in_alters) if weighted else float(len(in_alters))
        feats["in_ratio"] = indeg / len(in_alters)
    return feats


def reference_ego_features(adj, v, weighted):
    """The alters × alters loop: one Python addition per tie, in row-major
    order over the alters, starting from 0.0."""
    row = adj[v]
    alters = [int(j) for j in np.flatnonzero(row) if j != v]
    n = len(alters)

    if n == 0:
        feats = {key: 0.0 for key in EGO_KEYS}
    else:
        ties_total = 0.0
        for i in alters:
            for j in alters:
                if i != j and adj[i, j] > 0:
                    ties_total += adj[i, j] if weighted else 1.0
        q = float(row[alters].sum()) if weighted else float(n)
        feats = {
            "effective_size": n - ties_total / n,
            "efficiency": 1.0 - ties_total / (n * n),
            "out_degree": q,
            "out_ratio": q / n,
            "density": 0.0,
        }
        if n >= 2:
            members = [v, *alters]
            m = 0.0
            for i in members:
                for j in members:
                    if i != j and adj[i, j] > 0:
                        m += adj[i, j] if weighted else 1.0
            feats["density"] = 2.0 * m / (n * (n - 1))

    col = adj[:, v]
    in_alters = [int(j) for j in np.flatnonzero(col) if j != v]
    if in_alters:
        indeg = float(col[in_alters].sum()) if weighted else float(len(in_alters))
        feats["in_ratio"] = indeg / len(in_alters)
    else:
        feats["in_ratio"] = 0.0
    return feats


# ---------------------------------------------------------------------------
# shortest paths: exact Floyd-Warshall plus path counting


def exact_distances(adj, weighted):
    """All-pairs shortest distances as Fractions (None = unreachable)."""
    n = len(adj)
    dist = [[None] * n for _ in range(n)]
    for i in range(n):
        dist[i][i] = Fraction(0)
    for i in range(n):
        for j in range(n):
            if i != j and adj[i][j] > 0:
                dist[i][j] = Fraction(1) if not weighted else Fraction(1) / Fraction(adj[i][j])
    for k in range(n):
        for i in range(n):
            if dist[i][k] is None:
                continue
            for j in range(n):
                if dist[k][j] is None:
                    continue
                via = dist[i][k] + dist[k][j]
                if dist[i][j] is None or via < dist[i][j]:
                    dist[i][j] = via
    return dist


def _path_counts(adj, weighted, dist, s):
    """Number of shortest paths from s to every node, by distance ordering."""
    n = len(adj)
    sigma = [0] * n
    sigma[s] = 1
    order = sorted(
        (v for v in range(n) if v != s and dist[s][v] is not None),
        key=lambda v: dist[s][v],
    )
    for v in order:
        for u in range(n):
            if u == v or adj[u][v] <= 0 or dist[s][u] is None:
                continue
            cost = Fraction(1) if not weighted else Fraction(1) / Fraction(adj[u][v])
            if dist[s][u] + cost == dist[s][v]:
                sigma[v] += sigma[u]
    return sigma


def brute_closeness(adj, weighted):
    """(r / total distance) * (r / (n - 1)) from exact distances.

    The two divisions and the product are done in float exactly like a
    direct transcription of the formula, so integer-valued unweighted
    inputs reproduce the package values bit for bit.
    """
    n = len(adj)
    dist = exact_distances(adj, weighted)
    out = []
    for v in range(n):
        reach = [dist[v][u] for u in range(n) if u != v and dist[v][u] is not None]
        r = len(reach)
        if n <= 1 or r == 0:
            out.append(0.0)
            continue
        total = float(sum(reach))
        out.append((r / total) * (r / (n - 1)))
    return out


def brute_betweenness(adj, weighted):
    """Pair-summation betweenness from exact distances and path counts."""
    n = len(adj)
    dist = exact_distances(adj, weighted)
    sigma = [_path_counts(adj, weighted, dist, s) for s in range(n)]
    scores = []
    for v in range(n):
        acc = Fraction(0)
        for s in range(n):
            if s == v:
                continue
            for t in range(n):
                if t == v or t == s or dist[s][t] is None:
                    continue
                if dist[s][v] is None or dist[v][t] is None:
                    continue
                if dist[s][v] + dist[v][t] == dist[s][t]:
                    acc += Fraction(sigma[s][v] * sigma[v][t], sigma[s][t])
        scores.append(float(acc))
    return scores


def brute_clustering(adj, weighted):
    """Triple-loop clustering on the max-symmetrized projection."""
    n = len(adj)
    sym = [[max(adj[i][j], adj[j][i]) if i != j else 0.0 for j in range(n)] for i in range(n)]
    peak = max((sym[i][j] for i in range(n) for j in range(n)), default=0.0)
    out = []
    for v in range(n):
        nbrs = [u for u in range(n) if sym[v][u] > 0]
        deg = len(nbrs)
        if deg < 2:
            out.append(0.0)
            continue
        closed = 0.0
        for i in nbrs:
            for j in nbrs:
                if i == j or sym[i][j] <= 0:
                    continue
                if weighted:
                    closed += ((sym[v][i] / peak) * (sym[i][j] / peak) * (sym[j][v] / peak)) ** (1.0 / 3.0)
                else:
                    closed += 1.0
        out.append(closed / (deg * (deg - 1)))
    return out


def solve_pagerank(adj, weighted, damping=0.85):
    """Stationary distribution by dense linear solve instead of iteration."""
    a = np.array(adj, dtype=float)
    n = len(a)
    if n == 0:
        return np.zeros(0)
    if not weighted:
        a = (a > 0).astype(float)
    np.fill_diagonal(a, 0.0)
    out = a.sum(axis=1)
    trans = np.zeros_like(a)
    for i in range(n):
        if out[i] > 0:
            trans[i] = a[i] / out[i]
        else:
            trans[i] = 1.0 / n
    system = np.eye(n) - damping * trans.T
    rhs = np.full(n, (1.0 - damping) / n)
    return np.linalg.solve(system, rhs)


# ---------------------------------------------------------------------------
# classification metrics


def pairwise_auc(probabilities, labels):
    """O(n^2) probability-of-correct-ranking with half credit for ties."""
    pos = [p for p, l in zip(probabilities, labels) if l == 1]
    neg = [p for p, l in zip(probabilities, labels) if l == 0]
    if not pos or not neg:
        raise ValueError("both classes required")
    wins = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                wins += 1.0
            elif p == q:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def reference_roc_auc(probabilities, labels):
    """Rank-formulation AUC whose tie groups are found by a scan over the
    stably sorted scores, each given its average 1-based rank."""
    p = np.asarray(probabilities, dtype=float)
    y = np.asarray(labels, dtype=int)
    n_pos = int(np.sum(y == 1))
    n_neg = int(np.sum(y == 0))
    order = np.argsort(p, kind="stable")
    ranks = np.empty(len(p), dtype=float)
    sorted_p = p[order]
    i = 0
    while i < len(p):
        j = i
        while j + 1 < len(p) and sorted_p[j + 1] == sorted_p[i]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2 + 1
        i = j + 1
    pos_rank_sum = float(np.sum(ranks[y == 1]))
    return (pos_rank_sum - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg)


def formula_metrics(tp, fp, fn, tn):
    def ratio(num, den):
        return num / den if den else 0.0

    precision = ratio(tp, tp + fp)
    recall = ratio(tp, tp + fn)
    f1 = ratio(2.0 * precision * recall, precision + recall)
    accuracy = ratio(tp + tn, tp + fp + fn + tn)
    den = (tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)
    mcc = ratio(tp * tn - fp * fn, math.sqrt(den)) if den else 0.0
    return {
        "precision": precision,
        "recall": recall,
        "f1": f1,
        "accuracy": accuracy,
        "mcc": mcc,
    }


# ---------------------------------------------------------------------------
# chronological split


def _plan_error(plan, targets):
    if not any(plan.tokens):
        return math.inf
    return sum(abs(f - t) for f, t in zip(plan.fractions, targets))


def reference_chronological_split(messages, targets=(0.70, 0.15, 0.15)):
    """The per-pair split search: every candidate cut pair re-counts the
    spreaders of all three chunks through `_plan_for`. A candidate cut inside
    a run of equal timestamps moves to the run's first message."""
    if len(targets) != 3 or abs(sum(targets) - 1.0) > 1e-9:
        raise ValueError("targets must be three fractions summing to 1")
    msgs = sorted(messages, key=lambda m: (m.source_datetime, m.pid))
    n = len(msgs)
    distinct = {m.cryptocurrency for m in msgs}
    if n < 3 or len(distinct) < 3:
        raise SplitInfeasible(
            f"need at least 3 messages and 3 tokens, have {n} and {len(distinct)}"
        )

    def candidates(lo, hi, budget):
        """The grid indices, each moved back to the earliest message that
        shares its timestamp; a cut at index 0 is no cut and goes."""
        span = range(max(1, lo), min(n - 1, hi) + 1)
        if len(span) > budget:
            step = len(span) / budget
            span = sorted({span[int(k * step)] for k in range(budget)})
        snapped = {
            next(a for a in range(n) if msgs[a].source_datetime == msgs[k].source_datetime)
            for k in span
        }
        return sorted(snapped - {0})

    def scan(ci, cj):
        best = (math.inf, -1, -1)
        for i in ci:
            for j in cj:
                if j <= i:
                    continue
                err = _plan_error(_plan_for(msgs, i, j), targets)
                if err < best[0]:
                    best = (err, i, j)
        return best

    coarse = candidates(1, n - 1, SPLIT_COARSE_CELLS)
    err, bi, bj = scan(coarse, coarse)
    if bi < 0:
        raise SplitInfeasible("no valid cut pair found")
    stride = max(1, (n - 2) // SPLIT_COARSE_CELLS)
    err2, ri, rj = scan(
        candidates(bi - stride, bi + stride, 2 * stride + 1),
        candidates(bj - stride, bj + stride, 2 * stride + 1),
    )
    if err2 < err:
        bi, bj = ri, rj
    plan = _plan_for(msgs, bi, bj)
    if not any(plan.tokens):
        raise SplitInfeasible("no token reaches four spreaders in any split")
    return plan


# ---------------------------------------------------------------------------
# price CSVs


def reference_load_price_csv(path, pair=None):
    """The row loop: `csv.DictReader` and `float()` per field."""
    path = Path(path)
    ts, price = [], []
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            stamp = row["timestamp"].strip()
            try:
                ts.append(float(stamp) / 1000.0)
            except ValueError:
                ts.append(_posix(parse_timestamp(stamp)))
            price.append(float(row["price"]))
    return PriceSeries(pair or path.stem, np.array(ts), np.array(price))


def reference_write_price_csv(path, series):
    """The row loop: one `csv.writer.writerow` per point."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["timestamp", "price"])
        for t, p in zip(series.ts, series.price):
            writer.writerow([int(round(t * 1000)), repr(float(p))])


# ---------------------------------------------------------------------------
# market outcomes


class MissingData(Exception):
    """The price series does not cover the requested window."""


def price_at(series, when, pid=None):
    """Price at `when`: the last point at or before it, else the first point
    within ten minutes after. Raises MissingData when neither exists."""
    t = _posix(when)
    idx = int(np.searchsorted(series.ts, t, side="right")) - 1
    if idx >= 0:
        return float(series.price[idx])
    limit = t + FORWARD_FILL_LIMIT.total_seconds()
    nxt = int(np.searchsorted(series.ts, t, side="left"))
    if nxt < len(series) and series.ts[nxt] <= limit:
        return float(series.price[nxt])
    raise MissingData(f"{series.pair}: no price data at {when.isoformat()} for pid {pid}")


def _window_indices(series, start, window):
    t0 = _posix(start)
    lo = int(np.searchsorted(series.ts, t0, side="right"))
    hi = int(np.searchsorted(series.ts, t0 + window.total_seconds(), side="right"))
    return lo, hi


def reference_outcome(series, message, rule=RETURN_DIRECTION_AWARE, window=OUTCOME_WINDOW):
    """One message's outcome, judged on its own: two or three searches, a
    slice and its max and min per message. Raises MissingData when there is
    no announcement price."""
    if rule not in RETURN_RULES:
        raise ValueError(f"unknown return rule {rule!r}")
    p0 = price_at(series, message.source_datetime, message.pid)
    lo, hi = _window_indices(series, message.source_datetime, window)
    prices = series.price[lo:hi]
    high = max(p0, float(prices.max())) if len(prices) else p0
    low = min(p0, float(prices.min())) if len(prices) else p0
    is_long = message.trade_direction is TradeDirection.LONG
    if is_long or rule == RETURN_PAPER_LITERAL:
        extreme, ret = high, (high - p0) / p0
    else:
        extreme, ret = low, (p0 - low) / p0
    targets = [float(t) for t in message.target_prices]
    return MarketOutcome(
        pid=message.pid,
        announcement_price=p0,
        extreme_price=extreme,
        max_return=ret,
        targets_achieved=sum(1 for t in targets if (t <= high if is_long else t >= low)),
        targets_total=len(targets),
    )


def reference_compute_outcomes(messages, series, rule=RETURN_DIRECTION_AWARE):
    """`compute_outcomes` through `reference_outcome`, one message at a time."""
    messages = list(messages)
    by_coin = {}
    for message in messages:
        by_coin.setdefault(message.cryptocurrency, []).append(message)
    judged = {}
    for s in series:
        coin = normalize_symbol(s.pair)
        results = judged[coin] = {}
        for message in by_coin.get(coin, ()):
            try:
                results[message.pid] = reference_outcome(s, message, rule)
            except MissingData:
                pass
    outcomes = {pid: o for results in judged.values() for pid, o in results.items()}
    return outcomes, [m.pid for m in messages if m.pid not in outcomes]


# ---------------------------------------------------------------------------
# synthetic prices


def reference_generate_prices(messages, config):
    """The bar loop over numpy scalars and `datetime` plans; each bar ends
    with an unused `rng.uniform(-1.0, 1.0)`, the draw that keeps the stream."""
    clusters = synth._cluster_messages(messages)
    series: dict[str, PriceSeries] = {}
    bar = config.bar_minutes * 60
    for coin, events in clusters.items():
        pair = f"{coin}USDT"
        rng = np.random.default_rng(
            np.random.SeedSequence(
                [config.seed, int(hashlib.sha256(pair.encode()).hexdigest()[:8], 16)]
            )
        )
        plans = []
        for idx, cluster in enumerate(events):
            first = cluster[0]
            entry = float(first.entry_prices[0])
            k = synth._hit_count(config, pair, idx)
            t0 = synth._snap_to_bar(first.source_datetime, config.bar_minutes)
            t_last = max(m.source_datetime for m in cluster)
            t_peak = synth._snap_to_bar(
                t_last + timedelta(hours=synth.PEAK_LAG_HOURS), config.bar_minutes
            )
            t_decay = t_peak + timedelta(hours=synth.DECAY_HOURS)
            peak = entry * (1.0 + config.target_step * (k + 0.5)) if k > 0 else entry
            plans.append((t0, t_peak, t_decay, entry, peak))
        t_start = plans[0][0] - timedelta(minutes=config.bar_minutes) - timedelta(hours=73)
        t_end = plans[-1][0] + timedelta(hours=73)
        n_bars = int((t_end - t_start).total_seconds() // bar) + 1
        ts = np.array(
            [t_start.timestamp() + i * bar for i in range(n_bars)], dtype=np.float64
        )
        prices = np.empty(n_bars, dtype=np.float64)
        log_p = math.log(plans[0][3])
        plan_i = 0
        for i in range(n_bars):
            t = ts[i]
            while plan_i + 1 < len(plans) and t >= plans[plan_i + 1][0].timestamp():
                plan_i += 1
            t0, t_peak, t_decay, entry, peak = plans[plan_i]
            s0, s_peak, s_decay = t0.timestamp(), t_peak.timestamp(), t_decay.timestamp()
            window_end = s0 + 72 * 3600.0
            in_window = s0 <= t <= window_end
            if t < s0:
                log_p += config.price_drift + config.price_volatility * float(
                    rng.standard_normal()
                )
                level = math.exp(log_p)
            elif t == s0:
                level = entry
                log_p = math.log(entry)
            elif t <= s_peak and peak > entry:
                frac = (t - s0) / (s_peak - s0)
                level = math.exp(
                    math.log(entry) + frac * (math.log(peak) - math.log(entry))
                )
                log_p = math.log(level)
            elif t <= s_decay and peak > entry:
                frac = (t - s_peak) / (s_decay - s_peak)
                level = math.exp(
                    math.log(peak) + frac * (math.log(entry) - math.log(peak))
                )
                log_p = math.log(level)
            elif in_window:
                level = math.exp(log_p) * (
                    1.0 + 0.25 * config.price_volatility * float(rng.standard_normal())
                )
            else:
                log_p += config.price_drift + config.price_volatility * float(
                    rng.standard_normal()
                )
                level = math.exp(log_p)
            prices[i] = level
            rng.uniform(-1.0, 1.0)
        series[pair] = PriceSeries(pair=pair, ts=ts, price=prices)
    return series


# ---------------------------------------------------------------------------
# communities


def brute_modularity(weights, assignment):
    """Loop-wise Newman modularity on the symmetrized half-sum matrix."""
    n = len(weights)
    sym = [
        [0.0 if i == j else (weights[i][j] + weights[j][i]) / 2.0 for j in range(n)]
        for i in range(n)
    ]
    two_m = sum(sym[i][j] for i in range(n) for j in range(n))
    if two_m == 0:
        return 0.0
    k = [sum(sym[i][j] for j in range(n)) for i in range(n)]
    q = 0.0
    for i in range(n):
        for j in range(n):
            if assignment[i] == assignment[j]:
                q += sym[i][j] / two_m - (k[i] * k[j]) / (two_m * two_m)
    return q


def reference_local_moves(adj, m2, gain_eps=1e-12):
    """One phase of index-order Louvain local moves with a dict of link
    weights per node, one Python addition per neighbour in index order;
    returns (community labels, moved?)."""
    n = len(adj)
    comm = np.arange(n)
    k = adj.sum(axis=1)
    tot = k.copy()
    moved_any = False
    while True:
        moved = False
        for i in range(n):
            old = comm[i]
            # weight from i to each community, self excluded
            links: dict[int, float] = {}
            for j in np.flatnonzero(adj[i]):
                if j != i:
                    links[comm[j]] = links.get(comm[j], 0.0) + adj[i, j]
            tot[old] -= k[i]
            comm[i] = -1
            base = links.get(old, 0.0) / m2 * 2.0 - tot[old] * k[i] * 2.0 / (m2 * m2)
            best_comm, best_gain = old, base
            for c, w in sorted(links.items()):
                if c == old:
                    continue
                gain = w / m2 * 2.0 - tot[c] * k[i] * 2.0 / (m2 * m2)
                if gain > best_gain + gain_eps:
                    best_comm, best_gain = c, gain
            comm[i] = best_comm
            tot[best_comm] += k[i]
            if best_comm != old:
                moved = True
                moved_any = True
        if not moved:
            break
    return comm, moved_any


def iter_partitions(items):
    """Every set partition of ``items`` (restricted-growth enumeration)."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for smaller in iter_partitions(rest):
        for i in range(len(smaller)):
            yield smaller[:i] + [[first] + smaller[i]] + smaller[i + 1 :]
        yield [[first]] + smaller


def best_partition(weights):
    """(max modularity, list of argmax partitions) by exhaustive enumeration."""
    n = len(weights)
    best_q = -math.inf
    argmax = []
    for parts in iter_partitions(range(n)):
        assignment = [0] * n
        for c, members in enumerate(parts):
            for m in members:
                assignment[m] = c
        q = brute_modularity(weights, assignment)
        if q > best_q + 1e-12:
            best_q = q
            argmax = [parts]
        elif abs(q - best_q) <= 1e-12:
            argmax.append(parts)
    return best_q, argmax


# ---------------------------------------------------------------------------
# numerics


def central_difference(f, vec, h=1e-5):
    """Two-sided finite-difference gradient of a scalar function of a vector."""
    grad = np.zeros_like(vec)
    for i in range(len(vec)):
        up = vec.copy()
        up[i] += h
        down = vec.copy()
        down[i] -= h
        grad[i] = (f(up) - f(down)) / (2.0 * h)
    return grad


def graph_loss(params, config, graph):
    """The training loss of one graph, the function the gradient checks
    differentiate numerically."""
    return bce_loss(forward(params, config, graph), graph.y.astype(float))


class ReferenceAdam:
    """Bias-corrected Adam with its moments kept per parameter array, one
    array at a time, instead of over one flat vector."""

    def __init__(self, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self._m = {}
        self._v = {}

    def step(self, params, grads):
        self.step_count += 1
        t = self.step_count
        for i, (layer, grad) in enumerate(zip(params, grads)):
            for name, g in grad.items():
                key = (i, name)
                if key not in self._m:
                    self._m[key] = np.zeros_like(g)
                    self._v[key] = np.zeros_like(g)
                m = self._m[key] = self.beta1 * self._m[key] + (1 - self.beta1) * g
                v = self._v[key] = self.beta2 * self._v[key] + (1 - self.beta2) * g * g
                m_hat = m / (1 - self.beta1**t)
                v_hat = v / (1 - self.beta2**t)
                layer[name] = layer[name] - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def params_to_vector(params: Sequence[dict[str, np.ndarray]]) -> np.ndarray:
    """Flatten all parameters into one vector (layer by layer, sorted names)."""
    return np.concatenate(
        [params[i][name].ravel() for i in range(len(params)) for name in sorted(params[i])]
    )


def vector_to_params(
    vector: np.ndarray, template: Sequence[dict[str, np.ndarray]]
) -> list[dict[str, np.ndarray]]:
    out = []
    pos = 0
    for layer in template:
        rebuilt = {}
        for name in sorted(layer):
            size = layer[name].size
            rebuilt[name] = vector[pos : pos + size].reshape(layer[name].shape).copy()
            pos += size
        out.append(rebuilt)
    if pos != vector.size:
        raise ValueError(f"vector has {vector.size} entries, template needs {pos}")
    return out


# ---------------------------------------------------------------------------
# scalar message passing (no numpy)


def _leaky(v):
    return v if v > 0 else 0.2 * v


def _elu(v):
    return v if v > 0 else math.exp(v) - 1.0


def _sigmoid(v):
    if v >= 0:
        return 1.0 / (1.0 + math.exp(-v))
    ev = math.exp(v)
    return ev / (1.0 + ev)


def _matmul_rows(rows, weight):
    out_dim = len(weight[0])
    return [
        [sum(row[k] * weight[k][c] for k in range(len(row))) for c in range(out_dim)]
        for row in rows
    ]


def scalar_gat_forward(x, layers, edges):
    """List-based single-head attention forward; edges carry no self loops."""
    h = [list(row) for row in x]
    n = len(h)
    incoming = {d: [d] for d in range(n)}
    for src, dst in edges:
        incoming[dst].append(src)
    last = len(layers) - 1
    for li, layer in enumerate(layers):
        g = _matmul_rows(h, layer["weight"])
        dout = len(layer["bias"])
        a_self = layer["att"][:dout]
        a_neigh = layer["att"][dout:]
        z = []
        for d in range(n):
            scores = [
                _leaky(
                    sum(g[d][k] * a_self[k] for k in range(dout))
                    + sum(g[s][k] * a_neigh[k] for k in range(dout))
                )
                for s in incoming[d]
            ]
            m = max(scores)
            ex = [math.exp(sc - m) for sc in scores]
            tot = sum(ex)
            alpha = [e / tot for e in ex]
            z.append(
                [
                    sum(alpha[i] * g[s][c] for i, s in enumerate(incoming[d]))
                    + layer["bias"][c]
                    for c in range(dout)
                ]
            )
        h = z if li == last else [[_elu(v) for v in row] for row in z]
    return [_sigmoid(row[0]) for row in h]


def scalar_sage_forward(x, layers, edges):
    """List-based self-inclusive mean aggregation; edges carry no self loops."""
    h = [list(row) for row in x]
    n = len(h)
    nbrs = {d: [] for d in range(n)}
    for src, dst in edges:
        nbrs[dst].append(src)
    last = len(layers) - 1
    for li, layer in enumerate(layers):
        agg = []
        for d in range(n):
            cnt = 1 + len(nbrs[d])
            agg.append(
                [
                    (h[d][k] + sum(h[s][k] for s in nbrs[d])) / cnt
                    for k in range(len(h[d]))
                ]
            )
        z = _matmul_rows(agg, layer["weight"])
        z = [
            [z[d][c] + layer["bias"][c] for c in range(len(layer["bias"]))]
            for d in range(n)
        ]
        h = z if li == last else [[_elu(v) for v in row] for row in z]
    return [_sigmoid(row[0]) for row in h]
