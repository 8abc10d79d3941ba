"""Metrics, ROC analysis, split construction, t-tests and timing summaries.

Every metric with a zero denominator is defined as 0 so single-class
predictions produce numbers instead of NaNs; report consumers can rely on
that convention.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from datetime import datetime
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

# A split keeps a token in a period exactly when that period's graph of the
# token has enough spreaders to be built, so both use one minimum.
from .diffusion import MIN_SPREADERS
from .ingest import CrowdPumpMessage

DEFAULT_GRID = tuple(round(0.05 * i, 2) for i in range(21))
SPLIT_FRACTIONS = (0.70, 0.15, 0.15)
# Candidate cut indices per cut in the split search's coarse pass.
SPLIT_COARSE_CELLS = 40
SPLIT_NAMES = ("train", "val", "test")

METRIC_NAMES = ("precision", "recall", "f1", "accuracy", "mcc")


class DegenerateVariance(ValueError):
    """Both samples are constant; the t statistic is undefined."""


class SplitInfeasible(ValueError):
    """Too few usable tokens to form three chronological splits."""


@dataclass(frozen=True)
class Confusion:
    tp: int
    fp: int
    fn: int
    tn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn


def confusion_from(y_true: Sequence[int], y_pred: Sequence[int]) -> Confusion:
    t = np.asarray(y_true, dtype=int)
    p = np.asarray(y_pred, dtype=int)
    if t.shape != p.shape:
        raise ValueError("label/prediction length mismatch")
    return Confusion(
        tp=int(np.sum((p == 1) & (t == 1))),
        fp=int(np.sum((p == 1) & (t == 0))),
        fn=int(np.sum((p == 0) & (t == 1))),
        tn=int(np.sum((p == 0) & (t == 0))),
    )


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def metrics(confusion: Confusion) -> dict[str, float]:
    tp, fp, fn, tn = confusion.tp, confusion.fp, confusion.fn, confusion.tn
    precision = _ratio(tp, tp + fp)
    recall = _ratio(tp, tp + fn)
    f1 = _ratio(2 * precision * recall, precision + recall)
    accuracy = _ratio(tp + tn, confusion.total)
    mcc_den = math.sqrt((tp + fp) * (tp + fn) * (tn + fp) * (tn + fn))
    mcc = _ratio(tp * tn - fp * fn, mcc_den)
    return {
        "precision": precision,
        "recall": recall,
        "f1": f1,
        "accuracy": accuracy,
        "mcc": mcc,
    }


def roc_auc(probabilities: Sequence[float], labels: Sequence[int]) -> float:
    """Rank-formulation AUC; tied scores contribute half a concordant pair."""
    p = np.asarray(probabilities, dtype=float)
    y = np.asarray(labels, dtype=int)
    n_pos = int(np.sum(y == 1))
    n_neg = int(np.sum(y == 0))
    if n_pos == 0 or n_neg == 0:
        raise ValueError("roc_auc needs both classes present")
    _, group, counts = np.unique(p, return_inverse=True, return_counts=True)
    end = np.cumsum(counts)  # 1-based rank of each tie group's last member
    ranks = (end - (counts - 1) / 2)[group]  # the group's average rank
    pos_rank_sum = float(np.sum(ranks[y == 1]))
    return (pos_rank_sum - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg)


def threshold_sweep(
    probabilities: Sequence[float],
    labels: Sequence[int],
    grid: Sequence[float] = DEFAULT_GRID,
) -> list[dict[str, float]]:
    p = np.asarray(probabilities, dtype=float)
    y = np.asarray(labels, dtype=int)
    rows = []
    for th in grid:
        pred = (p >= th).astype(int)
        row = {"threshold": float(th)}
        row.update(metrics(confusion_from(y, pred)))
        rows.append(row)
    return rows


def best_threshold(sweep: Sequence[Mapping[str, float]]) -> float:
    """Threshold with the highest F1; earliest grid point on ties."""
    if not sweep:
        raise ValueError("empty sweep")
    best = sweep[0]
    for row in sweep[1:]:
        if row["f1"] > best["f1"]:
            best = row
    return best["threshold"]


# ---------------------------------------------------------------------------
# Chronological splitting


@dataclass(frozen=True)
class SplitPlan:
    cut1: datetime
    cut2: datetime
    fractions: tuple[float, float, float]
    tokens: tuple[tuple[str, ...], tuple[str, ...], tuple[str, ...]]
    dropped: tuple[tuple[str, ...], tuple[str, ...], tuple[str, ...]]
    message_counts: tuple[int, int, int]

    def split_of(self, message: CrowdPumpMessage) -> Optional[str]:
        """Split name for a message, None when its token was dropped there."""
        t = message.source_datetime
        idx = 0 if t < self.cut1 else (1 if t < self.cut2 else 2)
        if message.cryptocurrency not in self.tokens[idx]:
            return None
        return SPLIT_NAMES[idx]

    def to_json(self) -> dict:
        """The split_plan.json document: cuts as ISO timestamps, tuples as lists."""
        return {**asdict(self), "cut1": self.cut1.isoformat(), "cut2": self.cut2.isoformat()}

    @classmethod
    def from_json(cls, obj: dict) -> "SplitPlan":
        return cls(
            cut1=datetime.fromisoformat(obj["cut1"]),
            cut2=datetime.fromisoformat(obj["cut2"]),
            fractions=tuple(obj["fractions"]),
            tokens=tuple(map(tuple, obj["tokens"])),
            dropped=tuple(map(tuple, obj["dropped"])),
            message_counts=tuple(obj["message_counts"]),
        )


def _token_census(chunk: Sequence[CrowdPumpMessage]) -> tuple[tuple[str, ...], tuple[str, ...]]:
    spreaders: dict[str, set[str]] = {}
    for m in chunk:
        spreaders.setdefault(m.cryptocurrency, set()).add(m.entity_id)
    kept = tuple(sorted(c for c, s in spreaders.items() if len(s) >= MIN_SPREADERS))
    dropped = tuple(sorted(c for c, s in spreaders.items() if len(s) < MIN_SPREADERS))
    return kept, dropped


def _plan_for(messages: Sequence[CrowdPumpMessage], i: int, j: int) -> SplitPlan:
    chunks = (messages[:i], messages[i:j], messages[j:])
    kept, dropped = zip(*(_token_census(c) for c in chunks))
    total = sum(len(k) for k in kept)
    fractions = tuple(len(k) / total for k in kept) if total else (0.0, 0.0, 0.0)
    return SplitPlan(
        cut1=messages[i].source_datetime,
        cut2=messages[j].source_datetime,
        fractions=fractions,  # type: ignore[arg-type]
        tokens=kept,  # type: ignore[arg-type]
        dropped=dropped,  # type: ignore[arg-type]
        message_counts=tuple(len(c) for c in chunks),  # type: ignore[arg-type]
    )


def _earliest_ends(
    coins: Sequence[int], pairs: Sequence[int], starts: Iterable[int]
) -> dict[int, np.ndarray]:
    """Per start a: ends[c], the smallest e at which messages[a:e] holds
    MIN_SPREADERS distinct spreaders of coin c, or n + 1 if none.

    `coins[k]` and `pairs[k]` index message k's coin and (coin, spreader)
    pair. One backward pass keeps, per coin, the smallest first indices at or
    after a over that coin's pairs; the largest of them is the last message
    the coin needs.
    """
    n = len(coins)
    wanted = set(starts)
    first = [-1] * (max(pairs) + 1)
    low: list[list[int]] = [[] for _ in range(max(coins) + 1)]
    ends = np.full(len(low), n + 1)
    out = {}
    for a in range(n - 1, -1, -1):
        c, p = coins[a], pairs[a]
        if first[p] in low[c]:
            low[c].remove(first[p])
        first[p] = a
        low[c].insert(0, a)
        del low[c][MIN_SPREADERS:]
        if len(low[c]) == MIN_SPREADERS:
            ends[c] = low[c][-1] + 1
        if a in wanted:
            out[a] = ends.copy()
    return out


def chronological_split(
    messages: Sequence[CrowdPumpMessage],
    targets: Sequence[float] = SPLIT_FRACTIONS,
) -> SplitPlan:
    """Search two cut timestamps whose token-count fractions track targets.

    A token (cryptocurrency) counts toward a split only when at least four
    distinct spreaders announce it inside that split; weaker appearances are
    dropped from the split and listed in the plan. A cut never falls between
    two messages of one timestamp, so `message_counts` are the messages
    `SplitPlan.split_of` routes to each split. The search scans a coarse
    grid of candidate cut indices, then refines exhaustively around the best
    coarse cell, minimizing the L1 distance to the target fractions. Each
    candidate pair is scored from the per-coin earliest ends of its chunks'
    starts, without re-reading the messages.
    """
    if len(targets) != 3 or abs(sum(targets) - 1.0) > 1e-9:
        raise ValueError("targets must be three fractions summing to 1")
    msgs = sorted(messages, key=lambda m: (m.source_datetime, m.pid))
    n = len(msgs)
    distinct = {m.cryptocurrency for m in msgs}
    if n < 3 or len(distinct) < 3:
        raise SplitInfeasible(
            f"need at least 3 messages and 3 tokens, have {n} and {len(distinct)}"
        )
    coin_ids: dict[str, int] = {}
    pair_ids: dict[tuple[str, str], int] = {}
    coins = [coin_ids.setdefault(m.cryptocurrency, len(coin_ids)) for m in msgs]
    pairs = [pair_ids.setdefault((m.cryptocurrency, m.entity_id), len(pair_ids)) for m in msgs]
    t0, t1, t2 = targets
    # first[k]: the first message of k's timestamp run, where a cut at k moves.
    first = list(range(n))
    for k in range(1, n):
        if msgs[k].source_datetime == msgs[k - 1].source_datetime:
            first[k] = first[k - 1]

    def candidates(lo: int, hi: int, budget: int) -> list[int]:
        span = range(max(1, lo), min(n - 1, hi) + 1)
        if len(span) > budget:
            step = len(span) / budget
            span = [span[int(k * step)] for k in range(budget)]
        return sorted({first[k] for k in span} - {0})

    def scan(ci: list[int], cj: list[int]) -> tuple[float, int, int]:
        """Best (error, i, j): the first minimum in row-major (ci, cj) order."""
        ends = _earliest_ends(coins, pairs, {0, *ci, *cj})
        ends0 = np.sort(ends[0])
        j_arr = np.array(cj)
        # Kept tokens of the chunks [0, i), [i, j) and [j, n) along one row.
        k2 = np.array([np.count_nonzero(ends[j] <= n) for j in cj])
        best = (math.inf, -1, -1)
        for i in ci:
            k0 = np.searchsorted(ends0, i, side="right")
            k1 = np.searchsorted(np.sort(ends[i]), j_arr, side="right")
            total = k0 + k1 + k2
            share = np.maximum(total, 1)
            # |f0 - t0| + |f1 - t1| + |f2 - t2|, added left to right as a scalar sum would.
            err = (np.abs(k0 / share - t0) + np.abs(k1 / share - t1)) + np.abs(k2 / share - t2)
            err[(total == 0) | (j_arr <= i)] = math.inf
            c = int(np.argmin(err))
            if err[c] < best[0]:
                best = (float(err[c]), i, cj[c])
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
    return _plan_for(msgs, bi, bj)


# ---------------------------------------------------------------------------
# Welch's t-test with a self-contained t CDF


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz method)."""
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, 300):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-12:
            return h
    raise ArithmeticError("incomplete beta continued fraction did not converge")


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    if x < 0.0 or x > 1.0:
        raise ValueError("x outside [0, 1]")
    if x == 0.0 or x == 1.0:
        return x
    ln_bt = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    bt = math.exp(ln_bt)
    if x < (a + 1.0) / (a + b + 2.0):
        return bt * _betacf(a, b, x) / a
    return 1.0 - bt * _betacf(b, a, 1.0 - x) / b


def student_t_sf2(t: float, df: float) -> float:
    """Two-sided tail probability P(|T| >= t) for Student's t."""
    if df <= 0:
        raise ValueError("degrees of freedom must be positive")
    x = df / (df + t * t)
    return regularized_incomplete_beta(df / 2.0, 0.5, x)


def welch_t_test(group_a: Sequence[float], group_b: Sequence[float]) -> tuple[float, float]:
    a = np.asarray(group_a, dtype=float)
    b = np.asarray(group_b, dtype=float)
    if len(a) < 2 or len(b) < 2:
        raise ValueError("each group needs at least two observations")
    va = float(np.var(a, ddof=1))
    vb = float(np.var(b, ddof=1))
    if va == 0.0 and vb == 0.0:
        raise DegenerateVariance("both groups are constant")
    sa, sb = va / len(a), vb / len(b)
    statistic = (float(np.mean(a)) - float(np.mean(b))) / math.sqrt(sa + sb)
    df = (sa + sb) ** 2 / (sa**2 / (len(a) - 1) + sb**2 / (len(b) - 1))
    if statistic == 0.0:
        return 0.0, 1.0
    return statistic, student_t_sf2(statistic, df)


def feature_t_tests(
    x: np.ndarray,
    y: np.ndarray,
    feature_names: Sequence[str],
) -> dict[str, Optional[tuple[float, float]]]:
    """Per-feature Welch test of mastermind rows against accomplice rows.

    Features where the statistic is undefined (a class missing, too small,
    or both groups constant) map to None.
    """
    if x.shape[1] != len(feature_names):
        raise ValueError("feature name count does not match matrix width")
    y = np.asarray(y, dtype=int)
    out: dict[str, Optional[tuple[float, float]]] = {}
    pos = x[y == 1]
    neg = x[y == 0]
    for k, name in enumerate(feature_names):
        if len(pos) < 2 or len(neg) < 2:
            out[name] = None
            continue
        try:
            out[name] = welch_t_test(pos[:, k], neg[:, k])
        except DegenerateVariance:
            out[name] = None
    return out


# ---------------------------------------------------------------------------
# Timing


def timing_report(
    epoch_times: Iterable[float],
    inference_samples: Iterable[tuple[int, float]] = (),
) -> dict:
    """Empirical CDF of epoch times plus mean inference time per graph size."""
    times = sorted(float(t) for t in epoch_times)
    cdf = [[t, (i + 1) / len(times)] for i, t in enumerate(times)]
    by_nodes: dict[int, list[float]] = {}
    for n_nodes, seconds in inference_samples:
        by_nodes.setdefault(int(n_nodes), []).append(float(seconds))
    inference = {
        str(n): {"mean_seconds": sum(v) / len(v), "samples": len(v)}
        for n, v in sorted(by_nodes.items())
    }
    return {"epoch_cdf": cdf, "inference_by_node_count": inference}
