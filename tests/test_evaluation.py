"""Classification scoring, chronological token splitting and Welch tests."""

import json
import math
import sys
from datetime import datetime, timedelta, timezone
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
import scipy.stats

sys.path.insert(0, str(Path(__file__).resolve().parent))
import oracles

from perseus import synth
from perseus.evaluation import (
    DEFAULT_GRID,
    METRIC_NAMES,
    DegenerateVariance,
    SplitInfeasible,
    SplitPlan,
    best_threshold,
    chronological_split,
    confusion_from,
    feature_t_tests,
    metrics,
    roc_auc,
    threshold_sweep,
    timing_report,
    welch_t_test,
)
from perseus.ingest import CrowdPumpMessage, TradeDirection

T0 = datetime(2024, 1, 1, tzinfo=timezone.utc)


def msg(pid, coin, channel, hours):
    return CrowdPumpMessage(
        pid=pid,
        entity_id=channel,
        trade_direction=TradeDirection.LONG,
        source_datetime=T0 + timedelta(hours=hours),
        exchange="Unspecified",
        cryptocurrency=coin,
        channel_participants=0,
        entry_prices=(Decimal("1"),),
        target_prices=(Decimal("2"),),
        stop_loss=None,
        message_text="t",
    )


# ---------------------------------------------------------------------------
# confusion metrics


def test_mcc_worked_example():
    # tp=7 fp=2 fn=3 tn=88
    y_true = [1] * 10 + [0] * 90
    y_pred = [1] * 7 + [0] * 3 + [1] * 2 + [0] * 88
    scored = metrics(confusion_from(y_true, y_pred))
    expected = (7 * 88 - 2 * 3) / math.sqrt(9 * 10 * 90 * 91)
    assert scored["mcc"] == pytest.approx(expected, abs=1e-12)
    assert scored["precision"] == pytest.approx(7 / 9)
    assert scored["recall"] == pytest.approx(0.7)
    assert scored["accuracy"] == pytest.approx(0.95)
    assert scored["f1"] == pytest.approx(2 * (7 / 9) * 0.7 / (7 / 9 + 0.7))


def test_metric_names_are_frozen():
    assert METRIC_NAMES == ("precision", "recall", "f1", "accuracy", "mcc")
    scored = metrics(confusion_from([1, 0], [1, 0]))
    assert tuple(scored) == METRIC_NAMES


def test_zero_denominators_score_zero():
    # no predicted positives: precision, f1 and mcc all have a zero denominator
    scored = metrics(confusion_from([1, 0, 0], [0, 0, 0]))
    assert scored["precision"] == 0.0
    assert scored["recall"] == 0.0
    assert scored["f1"] == 0.0
    assert scored["mcc"] == 0.0
    assert scored["accuracy"] == pytest.approx(2 / 3)


def test_metrics_match_the_formula_oracle():
    rng = np.random.default_rng(17)
    for _ in range(1000):
        n = int(rng.integers(1, 30))
        y_true = rng.integers(0, 2, size=n)
        y_pred = rng.integers(0, 2, size=n)
        scored = metrics(confusion_from(y_true, y_pred))
        tp = int(np.sum((y_pred == 1) & (y_true == 1)))
        fp = int(np.sum((y_pred == 1) & (y_true == 0)))
        fn = int(np.sum((y_pred == 0) & (y_true == 1)))
        tn = int(np.sum((y_pred == 0) & (y_true == 0)))
        expected = oracles.formula_metrics(tp, fp, fn, tn)
        for name in METRIC_NAMES:
            assert scored[name] == pytest.approx(expected[name], abs=1e-12), name


# ---------------------------------------------------------------------------
# AUC


def test_auc_matches_pairwise_counting():
    rng = np.random.default_rng(23)
    for _ in range(200):
        n = int(rng.integers(3, 40))
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        probs = np.round(rng.random(n), 2)  # coarse grid forces ties
        expected = oracles.pairwise_auc(probs.tolist(), labels.tolist())
        assert roc_auc(probs, labels) == pytest.approx(expected, abs=1e-9)
        assert roc_auc(probs, labels) == oracles.reference_roc_auc(probs, labels)


def test_auc_requires_both_classes():
    with pytest.raises(ValueError):
        roc_auc([0.2, 0.8], [1, 1])
    with pytest.raises(ValueError):
        roc_auc([0.2, 0.8], [0, 0])


def test_auc_is_invariant_to_monotone_transforms():
    rng = np.random.default_rng(29)
    probs = rng.random(50)
    labels = (rng.random(50) < 0.4).astype(int)
    base = roc_auc(probs, labels)
    assert roc_auc(probs**3, labels) == pytest.approx(base, abs=1e-12)
    assert roc_auc(1 / (1 + np.exp(-7 * probs)), labels) == pytest.approx(base, abs=1e-12)


def test_tied_scores_count_half():
    assert roc_auc([0.5, 0.5], [0, 1]) == 0.5
    assert roc_auc([0.3, 0.3, 0.9], [0, 1, 1]) == pytest.approx(0.75)


# ---------------------------------------------------------------------------
# threshold sweep


def test_sweep_covers_the_grid_with_all_metrics():
    probs = [0.1, 0.4, 0.6, 0.9]
    labels = [0, 0, 1, 1]
    rows = threshold_sweep(probs, labels)
    assert [r["threshold"] for r in rows] == [round(0.05 * i, 2) for i in range(21)]
    assert DEFAULT_GRID[0] == 0.0 and DEFAULT_GRID[-1] == 1.0
    for row in rows:
        assert set(row) == {"threshold", *METRIC_NAMES}
    assert rows[0]["recall"] == 1.0  # cut 0.0 predicts everything positive
    assert rows[-1]["recall"] == 0.0 and rows[-1]["precision"] == 0.0


def test_best_threshold_takes_earliest_max_f1():
    rows = threshold_sweep([0.1, 0.4, 0.6, 0.9], [0, 0, 1, 1])
    best = best_threshold(rows)
    assert isinstance(best, float)
    top = max(r["f1"] for r in rows)
    winners = [r["threshold"] for r in rows if r["f1"] == top]
    assert best == winners[0]
    assert best == 0.45  # first cut separating the two classes perfectly
    with pytest.raises(ValueError):
        best_threshold([])


# ---------------------------------------------------------------------------
# chronological split


def sequential_corpus(n_coins=20, per_coin=8):
    """Era-structured stream: each token is announced by 4 channels, one era
    at a time, so token counts track message counts."""
    messages = []
    pid = 0
    for c in range(n_coins):
        for k in range(per_coin):
            pid += 1
            messages.append(
                msg(pid, f"COIN{c:02d}", f"chan{k % 4}", hours=c * 100 + k)
            )
    return messages


def test_split_fractions_track_the_targets():
    plan = chronological_split(sequential_corpus())
    for got, want in zip(plan.fractions, (0.70, 0.15, 0.15)):
        assert abs(got - want) <= 0.05
    assert sum(plan.message_counts) == 160
    assert plan.cut1 < plan.cut2
    # every kept token sits in exactly one split
    seen = [t for chunk in plan.tokens for t in chunk]
    assert len(seen) == len(set(seen))


def test_split_of_routes_messages():
    corpus = sequential_corpus()
    plan = chronological_split(corpus)
    names = {plan.split_of(m) for m in corpus}
    assert names <= {"train", "val", "test", None}
    assert {"train", "val", "test"} <= names
    for m in corpus:
        where = plan.split_of(m)
        if m.source_datetime < plan.cut1:
            assert where in ("train", None)
        elif m.source_datetime < plan.cut2:
            assert where in ("val", None)
        else:
            assert where in ("test", None)


def test_split_drops_thin_tokens():
    corpus = sequential_corpus(n_coins=6)
    # one extra token announced by a single channel in the last era
    corpus.append(msg(9999, "THIN", "loner", hours=2000))
    plan = chronological_split(corpus)
    assert "THIN" in plan.dropped[2]
    assert all("THIN" not in chunk for chunk in plan.tokens)


def test_split_needs_three_tokens():
    with pytest.raises(SplitInfeasible):
        chronological_split(sequential_corpus(n_coins=2))


def test_split_needs_spreader_depth():
    # three tokens but every message is from the same channel: no token ever
    # reaches four spreaders, in any chunk
    messages = [msg(i + 1, f"C{i % 3}", "only", hours=i) for i in range(30)]
    with pytest.raises(SplitInfeasible):
        chronological_split(messages)


def test_split_rejects_bad_targets():
    with pytest.raises(ValueError):
        chronological_split(sequential_corpus(), targets=(0.5, 0.5))
    with pytest.raises(ValueError):
        chronological_split(sequential_corpus(), targets=(0.6, 0.2, 0.1))


def random_split_corpus(rng):
    """3-150 messages over 2-8 coins and 1-10 spreaders; timestamps drawn
    from about n/3 hours, so many messages share one, in shuffled pid order."""
    n = int(rng.integers(3, 151))
    n_coins = int(rng.integers(2, 9))
    n_spreaders = int(rng.integers(1, 11))
    hours = rng.integers(0, n // 3 + 1, size=n)
    pids = rng.permutation(n) + 1
    return [
        msg(int(pid), f"C{rng.integers(n_coins)}", f"s{rng.integers(n_spreaders)}", int(h))
        for pid, h in zip(pids, hours)
    ]


def split_outcome(split, corpus, targets):
    try:
        return split(corpus, targets)
    except SplitInfeasible as exc:
        return f"SplitInfeasible: {exc}"


def test_split_matches_the_per_pair_oracle():
    rng = np.random.default_rng(5)
    target_sets = [(0.70, 0.15, 0.15), (0.5, 0.3, 0.2), (1 / 3, 1 / 3, 1 / 3)]
    outcomes = []
    for trial in range(150):
        corpus = random_split_corpus(rng)
        targets = target_sets[trial % 3]
        got = split_outcome(chronological_split, corpus, targets)
        want = split_outcome(oracles.reference_chronological_split, corpus, targets)
        assert got == want, (trial, got, want)
        outcomes.append(type(got))
        if isinstance(got, SplitPlan):
            # split_of's timestamp rule, tokens aside, routes what the plan counts.
            routed = [0, 0, 0]
            for m in corpus:
                routed[(m.source_datetime >= got.cut1) + (m.source_datetime >= got.cut2)] += 1
            assert tuple(routed) == got.message_counts, (trial, routed, got)
    # both the feasible and the infeasible branch are exercised
    assert str in outcomes and SplitPlan in outcomes


SPLIT_PLANS = Path(__file__).resolve().parent / "golden" / "split_plans.json"
# The synth shapes of the benchmark workloads (perfbench/run.py).
SPLIT_SHAPES = {
    "msg_dense": dict(n_spreaders=60, n_masterminds=3, n_events=90, n_coins=6),
    "price_long": dict(n_spreaders=12, n_masterminds=3, n_events=150, n_coins=6, forward_prob=0.1),
    "graph_wide": dict(n_spreaders=90, n_masterminds=3, n_events=24, n_coins=3),
}


def split_plan_records():
    """{"<shape>/<synth seed>": plan} for synth seeds 0-2 of every shape.

    Regenerate tests/golden/split_plans.json only for an intended change of
    the split, and say why in CHANGES.md. From the repo root:

        PYTHONPATH=src python -c "import json, sys; sys.path.insert(0, 'tests');
        import test_evaluation as t; print(json.dumps(t.split_plan_records(), indent=1))" \
        > tests/golden/split_plans.json
    """
    records = {}
    for shape, sizes in SPLIT_SHAPES.items():
        for seed in range(3):
            corpus = synth.generate_corpus(synth.SynthConfig(seed=seed, **sizes))
            plan = chronological_split(corpus.messages)
            records[f"{shape}/{seed}"] = {
                "cut1": plan.cut1.isoformat(),
                "cut2": plan.cut2.isoformat(),
                "fractions": list(plan.fractions),
                "tokens": [list(t) for t in plan.tokens],
                "dropped": [list(t) for t in plan.dropped],
                "message_counts": list(plan.message_counts),
            }
    return records


def test_split_plans_match_golden():
    assert split_plan_records() == json.loads(SPLIT_PLANS.read_text())


# ---------------------------------------------------------------------------
# Welch's t-test


def test_welch_matches_scipy():
    rng = np.random.default_rng(37)
    for _ in range(50):
        a = rng.normal(size=int(rng.integers(3, 20)))
        b = rng.normal(loc=rng.normal(), size=int(rng.integers(3, 20)))
        t, p = welch_t_test(a, b)
        ref = scipy.stats.ttest_ind(a, b, equal_var=False)
        assert t == pytest.approx(ref.statistic, abs=1e-9)
        assert p == pytest.approx(ref.pvalue, abs=1e-9)


def test_welch_is_antisymmetric():
    a = [1.0, 2.0, 3.0, 4.5]
    b = [2.0, 2.5, 4.0]
    t_ab, p_ab = welch_t_test(a, b)
    t_ba, p_ba = welch_t_test(b, a)
    assert t_ab == pytest.approx(-t_ba, abs=1e-12)
    assert p_ab == pytest.approx(p_ba, abs=1e-12)


def test_welch_degenerate_and_equal_cases():
    with pytest.raises(DegenerateVariance):
        welch_t_test([1.0, 1.0, 1.0], [2.0, 2.0])
    with pytest.raises(ValueError):
        welch_t_test([1.0], [2.0, 3.0])
    t, p = welch_t_test([1.0, 2.0], [1.0, 2.0])
    assert (t, p) == (0.0, 1.0)


def test_feature_t_tests_label_split():
    rng = np.random.default_rng(41)
    x = rng.normal(size=(20, 3))
    y = np.array([1] * 5 + [0] * 15)
    x[:5, 0] += 10.0  # feature 0 separates the classes
    x[:, 2] = 1.0  # constant everywhere: degenerate
    out = feature_t_tests(x, y, ["sep", "noise", "flat"])
    assert set(out) == {"sep", "noise", "flat"}
    assert out["flat"] is None
    t, p = out["sep"]
    ref = scipy.stats.ttest_ind(x[:5, 0], x[5:, 0], equal_var=False)
    assert t == pytest.approx(ref.statistic, abs=1e-9)
    assert p == pytest.approx(ref.pvalue, abs=1e-9)
    assert out["noise"] is not None


def test_feature_t_tests_need_two_per_class():
    x = np.zeros((3, 2))
    out = feature_t_tests(x, np.array([1, 0, 0]), ["a", "b"])
    assert out == {"a": None, "b": None}
    with pytest.raises(ValueError):
        feature_t_tests(x, np.array([1, 0, 0]), ["only_one"])


# ---------------------------------------------------------------------------
# timing


def test_timing_report_shapes():
    report = timing_report([0.3, 0.1, 0.2], [(10, 0.01), (10, 0.03), (25, 0.05)])
    assert report["epoch_cdf"] == [[0.1, 1 / 3], [0.2, 2 / 3], [0.3, 1.0]]
    by_nodes = report["inference_by_node_count"]
    assert by_nodes["10"]["mean_seconds"] == pytest.approx(0.02)
    assert by_nodes["10"]["samples"] == 2
    assert by_nodes["25"]["samples"] == 1
