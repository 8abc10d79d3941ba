"""Cascade-based network inference: lambda blocks, theta, W and W*."""

import sys
from datetime import datetime, timedelta, timezone
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import oracles

from perseus.diffusion import (
    AGG_PRODUCT,
    AGG_QUOTIENT,
    GraphTooSmall,
    build_graph,
    build_graphs,
    derive_directed,
    infer_weighted,
    lambda_matrix,
    load_graph,
    load_graphs,
    save_graphs,
)
from perseus.evaluation import chronological_split
from perseus.events import build_event_sets
from perseus.ingest import CrowdPumpMessage, TradeDirection
from perseus.synth import SynthConfig, generate_corpus

T0 = datetime(2024, 1, 1, tzinfo=timezone.utc)

_pid = iter(range(1, 100000))


def msg(channel, hours, coin="SUI"):
    return CrowdPumpMessage(
        pid=next(_pid),
        entity_id=channel,
        trade_direction=TradeDirection.LONG,
        source_datetime=T0 + timedelta(hours=hours),
        exchange="Unspecified",
        cryptocurrency=coin,
        channel_participants=0,
        entry_prices=(Decimal("1.0"),),
        target_prices=(Decimal("1.1"),),
        stop_loss=None,
        message_text="t",
    )


def events_from(schedule, coin="SUI"):
    """Events for a list of cascades, each a list of (channel, hour)."""
    messages = [msg(c, h, coin) for cascade in schedule for c, h in cascade]
    messages.sort(key=lambda m: (m.source_datetime, m.pid))
    sets = build_event_sets(messages, lambda m: "all")
    return sets[("all", coin)]


# the canonical two-cascade fixture: a leads b and c, then a leads c again,
# plus an unrelated singleton x to satisfy the four-spreader floor
CANONICAL = [
    [("a", 0), ("b", 1), ("c", 2)],
    [("a", 200), ("c", 201)],
    [("x", 400)],
]


def test_lambda_rows_follow_the_pair_strength_formula():
    # h_rs = 1 / (l_s (l_s - l_r)) where r precedes s: row 1 of a three-rank
    # event holds h = 1/2 and 1/6, so lambda = 3/4 and 1/4
    lam = lambda_matrix(3)
    assert lam[0, 2] / lam[0, 1] == pytest.approx((1 / 6) / (1 / 2))
    assert lambda_matrix(2)[0, 1] == 1.0
    # nobody is a source for an earlier spreader, or for itself
    assert np.all(np.tril(lambda_matrix(6)) == 0.0)


def test_event_spreaders_are_in_announcement_order():
    events = events_from([[("b", 0), ("c", 1), ("a", 2)], [("z", 300)]])
    assert events[0].spreaders == ("b", "c", "a")
    assert events[1].spreaders == ("z",)


def test_lambda_three_chain():
    np.testing.assert_array_equal(
        lambda_matrix(3), [[0.0, 0.75, 0.25], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]]
    )


def test_lambda_rows_partition_or_vanish():
    for k in range(1, 12):
        rows = lambda_matrix(k).sum(axis=1)
        np.testing.assert_allclose(rows[:-1], 1.0, atol=1e-12)
        # the last-ranked spreader has nobody to influence
        assert rows[-1] == 0.0


def test_lambda_matrix_is_cached_and_read_only():
    lam = lambda_matrix(5)
    assert lambda_matrix(5) is lam
    with pytest.raises(ValueError):
        lam[0, 1] = 0.0


def test_theta_is_the_jaccard_ratio_of_event_sets():
    # a is in events {0, 1} and b in {0}, so theta_ab = 1/2 and lambda_ab = 1;
    # c -> d has theta = lambda = 1 and sets the peak
    nodes, w = infer_weighted(
        events_from([[("a", 0), ("b", 1)], [("a", 200)], [("c", 400), ("d", 401)]])
    )
    idx = {n: i for i, n in enumerate(nodes)}
    assert w[idx["a"], idx["b"]] == 0.5
    assert w[idx["c"], idx["d"]] == 1.0
    # disjoint event sets: theta = 0, whatever lambda says
    assert w[idx["a"], idx["c"]] == 0.0 and w[idx["b"], idx["d"]] == 0.0


def test_canonical_fixture_weights():
    events = events_from(CANONICAL)
    nodes, w = infer_weighted(events)
    assert nodes == ("a", "b", "c", "x")
    idx = {n: i for i, n in enumerate(nodes)}
    assert w[idx["a"], idx["b"]] == pytest.approx(0.3, abs=1e-12)
    assert w[idx["a"], idx["c"]] == pytest.approx(1.0, abs=1e-12)
    assert w[idx["b"], idx["c"]] == pytest.approx(0.4, abs=1e-12)
    # every other entry, including the whole x row and column, is zero
    mask = np.zeros_like(w, dtype=bool)
    for r, s in [("a", "b"), ("a", "c"), ("b", "c")]:
        mask[idx[r], idx[s]] = True
    assert np.all(w[~mask] == 0.0)

    star = derive_directed(w)
    arrows = {(nodes[r], nodes[s]) for r, s in zip(*np.nonzero(star))}
    assert arrows == {("a", "b"), ("a", "c"), ("b", "c")}


def test_repeated_two_spreader_cascade_tops_the_scale():
    events = events_from(
        [
            [("a", 0), ("b", 1)],
            [("a", 200), ("b", 201)],
            [("c", 400), ("d", 401)],
        ]
    )
    nodes, w = infer_weighted(events)
    idx = {n: i for i, n in enumerate(nodes)}
    assert w[idx["a"], idx["b"]] == pytest.approx(1.0)
    assert w[idx["c"], idx["d"]] == pytest.approx(0.5)


def test_quotient_aggregation_mode():
    events = events_from(CANONICAL)
    nodes, w = infer_weighted(events, mode=AGG_QUOTIENT)
    idx = {n: i for i, n in enumerate(nodes)}
    ref = oracles.brute_influence(
        [[("a", 0), ("b", 1), ("c", 2)], [("a", 0), ("c", 1)], [("x", 0)]],
        mode="paper_literal_quotient",
    )
    for (r, s), val in ref["w"].items():
        assert w[idx[r], idx[s]] == pytest.approx(float(val), abs=1e-12)
    # quotient raw: theta/sum-lambda -> ab 2/3, ac 4/5, bc 1/2, peak 4/5
    assert w[idx["a"], idx["b"]] == pytest.approx(5 / 6, abs=1e-12)
    assert w[idx["a"], idx["c"]] == pytest.approx(1.0, abs=1e-12)
    assert w[idx["b"], idx["c"]] == pytest.approx(0.625, abs=1e-12)


def test_graph_too_small():
    with pytest.raises(GraphTooSmall):
        infer_weighted(events_from([[("a", 0), ("b", 1), ("c", 2)]]))


def test_build_graphs_reports_dropped_coins():
    small = events_from([[("a", 0), ("b", 1)]], coin="ARB")
    big = events_from(CANONICAL)
    graphs, dropped = build_graphs({("all", "ARB"): small, ("all", "SUI"): big})
    assert list(graphs) == ["all/SUI"]
    assert dropped == [("all", "ARB", 2)]
    g = graphs["all/SUI"]
    assert g.graph_id == "all/SUI"
    assert g.n == 4


def test_directed_antisymmetry_and_scale_invariance():
    rng = np.random.default_rng(17)
    for _ in range(30):
        n = int(rng.integers(2, 9))
        w = rng.random((n, n)) * (rng.random((n, n)) < 0.6)
        np.fill_diagonal(w, 0.0)
        star = derive_directed(w)
        assert np.all(star * star.T == 0)
        assert np.array_equal(star, derive_directed(w * float(rng.uniform(0.1, 50.0))))
        # an arrow always points up the weight comparison
        for r, s in zip(*np.nonzero(star)):
            assert w[r, s] > w[s, r]


def test_relabeling_equivariance():
    events = events_from(CANONICAL)
    renamed = {"a": "w_3", "b": "q_1", "c": "m_2", "x": "b_9"}
    schedule = [
        [(renamed[c], h) for c, h in cascade] for cascade in CANONICAL
    ]
    nodes1, w1 = infer_weighted(events)
    nodes2, w2 = infer_weighted(events_from(schedule))
    perm = [nodes2.index(renamed[n]) for n in nodes1]
    assert np.allclose(w2[np.ix_(perm, perm)], w1, atol=1e-15)


def test_matches_brute_force_on_random_instances():
    rng = np.random.default_rng(23)
    for _ in range(25):
        n_spreaders = int(rng.integers(4, 7))
        names = [f"s{i}" for i in range(n_spreaders)]
        schedule = []
        hour = 0.0
        for _ in range(int(rng.integers(1, 6))):
            size = int(rng.integers(1, n_spreaders + 1))
            members = rng.choice(names, size=size, replace=False)
            schedule.append([(str(m), hour + float(j)) for j, m in enumerate(members)])
            hour += 500.0
        if len({c for cascade in schedule for c, _ in cascade}) < 4:
            continue
        events = events_from(schedule)
        nodes, w = infer_weighted(events)
        idx = {n: i for i, n in enumerate(nodes)}
        base = [[(c, h) for c, h in cascade] for cascade in schedule]
        ref = oracles.brute_influence(base)
        assert nodes == ref["nodes"]
        for (r, s), val in ref["w"].items():
            assert abs(w[idx[r], idx[s]] - float(val)) < 1e-9
        star = derive_directed(w)
        arrows = {(nodes[r], nodes[s]) for r, s in zip(*np.nonzero(star))}
        assert arrows == ref["w_star"]


def test_graph_files_round_trip(tmp_path):
    """save_graphs replaces the directory whole: the tables of a graph it
    held before are gone."""
    root = tmp_path / "graphs"
    other = build_graph("ARB", "val", events_from(CANONICAL))
    save_graphs(root, {other.graph_id: other}, [])
    graph = build_graph("SUI", "all", events_from(CANONICAL))
    written = save_graphs(root, {graph.graph_id: graph}, [])
    again = load_graph(root / "all", "SUI", "all")
    assert again.nodes == graph.nodes
    assert again.cryptocurrency == "SUI" and again.period == "all"
    # weights persist at nine decimal places
    assert np.allclose(again.weighted, graph.weighted, atol=5e-10)
    assert np.array_equal(again.directed, graph.directed)
    files = ["all/SUI.nodes.tsv", "all/SUI.weighted.tsv", "index.json"]
    assert written == [root / name for name in files]
    assert sorted(p.relative_to(root).as_posix() for p in root.rglob("*")) == ["all", *files]


# The msg_dense, price_long and graph_wide bench shapes.
BENCH_SHAPES = [
    pytest.param(SynthConfig(n_spreaders=60, n_masterminds=3, n_events=90, n_coins=6), id="msg_dense"),
    pytest.param(
        SynthConfig(n_spreaders=12, n_masterminds=3, n_events=150, n_coins=6, forward_prob=0.1),
        id="price_long",
    ),
    pytest.param(SynthConfig(n_spreaders=90, n_masterminds=3, n_events=24, n_coins=3), id="graph_wide"),
]


# `perseus synth`'s default shape, then the bench shapes.
@pytest.mark.parametrize(
    "config", [pytest.param(SynthConfig(n_coins=6), id="default"), *BENCH_SHAPES]
)
def test_stored_weights_give_the_built_orientation(tmp_path, config):
    """A loaded graph derives its arrows from the nine-decimal stored
    weights; on the pipeline's graphs they are the arrows of the unrounded
    weights."""
    messages = generate_corpus(config).messages
    event_sets = build_event_sets(messages, chronological_split(messages).split_of)
    for mode in (AGG_PRODUCT, AGG_QUOTIENT):
        graphs, dropped = build_graphs(event_sets, mode=mode)
        assert graphs
        save_graphs(tmp_path / mode, graphs, dropped)
        loaded = load_graphs(tmp_path / mode)
        assert sorted(loaded) == sorted(graphs)
        for graph_id, graph in graphs.items():
            assert np.array_equal(loaded[graph_id].directed, graph.directed), (mode, graph_id)


def assert_same_inference(events, mode):
    nodes, w = infer_weighted(events, mode=mode)
    ref_nodes, ref_w = oracles.reference_infer_weighted(events, mode=mode)
    assert nodes == ref_nodes
    assert np.array_equal(w, ref_w)


def test_bit_identical_to_the_pair_loops_on_tie_heavy_schedules():
    """Announcement times fall on whole hours, so many spreaders tie and
    are ranked by entity id, and some cascades repeat verbatim, so many
    weights tie too."""
    rng = np.random.default_rng(41)
    checked = 0
    while checked < 150:
        n_spreaders = int(rng.integers(4, 41))
        names = [f"s{i:02d}" for i in range(n_spreaders)]
        schedule = []
        for c in range(int(rng.integers(1, 13))):
            if schedule and rng.random() < 0.3:
                members = [m for m, _ in schedule[int(rng.integers(len(schedule)))]]
            else:
                members = rng.choice(names, size=int(rng.integers(1, n_spreaders + 1)), replace=False)
            hours = np.sort(rng.integers(0, 3, size=len(members)))
            schedule.append([(str(m), 500.0 * c + float(h)) for m, h in zip(members, hours)])
        if len({m for cascade in schedule for m, _ in cascade}) < 4:
            continue
        events = events_from(schedule)
        for mode in (AGG_PRODUCT, AGG_QUOTIENT):
            assert_same_inference(events, mode)
        checked += 1


@pytest.mark.parametrize(
    "config", [pytest.param(SynthConfig(seed=0), id="default"), *BENCH_SHAPES]
)
def test_bit_identical_to_the_pair_loops_on_synthetic_corpora(config):
    messages = generate_corpus(config).messages
    event_sets = build_event_sets(messages, lambda m: "all")
    assert event_sets
    for events in event_sets.values():
        if len({e for event in events for e in event.spreaders}) >= 4:
            for mode in (AGG_PRODUCT, AGG_QUOTIENT):
                assert_same_inference(events, mode)


@pytest.mark.parametrize(
    "table, line, problem",
    [
        ("weighted", "ghost\tnobody\t0.5", "unknown entity 'ghost'"),
        ("weighted", "a\tb", r"not enough values to unpack \(expected 3, got 2\)"),
        ("weighted", "a\tb\tnan", "weight 'nan' is not a finite number"),
        ("weighted", "a\tb\theavy", "could not convert string to float: 'heavy'"),
        ("nodes", "4", r"not enough values to unpack \(expected 2, got 1\)"),
    ],
)
def test_load_graph_names_the_malformed_line(tmp_path, table, line, problem):
    graph = build_graph("SUI", "all", events_from(CANONICAL))
    save_graphs(tmp_path, {graph.graph_id: graph}, [])
    path = tmp_path / "all" / f"SUI.{table}.tsv"
    n_lines = len(path.read_text().splitlines())
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(line + "\n")
    with pytest.raises(ValueError, match=rf"SUI\.{table}\.tsv:{n_lines + 1}: {problem}"):
        load_graph(tmp_path / "all", "SUI", "all")
