"""Spreader feature engineering: profile columns, centralities, ego
measures, communities and standardization."""

import re
import sys
from datetime import datetime, timedelta, timezone
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import oracles

from perseus.diffusion import DiffusionGraph
from perseus.features import (
    FEATURE_COLUMNS,
    N_FEATURES,
    FeatureMatrix,
    Standardizer,
    assemble_matrix,
    compute_feature_rows,
    market_feature,
    osn_features,
    read_features_csv,
    whole_graph_features,
    write_features_csv,
)
from perseus.features.centrality import betweenness, closeness, clustering, pagerank
from perseus.features.community import _local_moves, louvain, modularity, symmetrize
from perseus.features.ego import EGO_KEYS, ego_feature_matrix, ego_features
from perseus.ingest import CrowdPumpMessage, TradeDirection, parse_corpus
from perseus.market import MarketOutcome

FIXTURES = Path(__file__).resolve().parents[1] / "src" / "perseus" / "data" / "fixtures"


def graph_from(weighted, coin="SUI", period="all"):
    w = np.asarray(weighted, dtype=float)
    nodes = tuple(f"n{i}" for i in range(len(w)))
    return DiffusionGraph(cryptocurrency=coin, period=period, nodes=nodes, weighted=w)


def outcome(pid, achieved, total, ret=0.0):
    return MarketOutcome(
        pid=pid,
        announcement_price=1.0,
        extreme_price=1.0 + ret,
        max_return=ret,
        targets_achieved=achieved,
        targets_total=total,
    )


def spreader_msg(pid):
    return CrowdPumpMessage(
        pid=pid,
        entity_id="chan",
        trade_direction=TradeDirection.LONG,
        source_datetime=datetime(2024, 1, 1, tzinfo=timezone.utc) + timedelta(hours=pid),
        exchange="Unspecified",
        cryptocurrency="SUI",
        channel_participants=0,
        entry_prices=(Decimal("1.0"),),
        target_prices=(Decimal("1.1"),),
        stop_loss=None,
        message_text="t",
    )


# ---------------------------------------------------------------------------
# profile columns


def test_column_order_is_frozen():
    assert N_FEATURES == 23
    assert FEATURE_COLUMNS[:3] == ("total_targets_achieved", "rating", "average_increase")
    measures = (
        "clustering",
        "closeness",
        "betweenness",
        "pagerank",
        "in_ratio",
        "out_degree",
        "out_ratio",
        "efficiency",
        "effective_size",
        "density",
    )
    assert FEATURE_COLUMNS[3:] == tuple(
        f"{m}_{suffix}" for m in measures for suffix in ("u", "w")
    )


def test_osn_features_pool_achieved_over_announced():
    msgs = [spreader_msg(1), spreader_msg(2)]
    outcomes = {1: outcome(1, 1, 2), 2: outcome(2, 3, 8)}
    total, rating = osn_features(msgs, outcomes)
    assert total == 4
    assert rating == pytest.approx(0.4, abs=1e-15)  # 4 of 10, not a mean of shares


def test_osn_features_handle_missing_and_empty():
    msgs = [spreader_msg(1), spreader_msg(2)]
    total, rating = osn_features(msgs, {1: outcome(1, 2, 5)})
    assert (total, rating) == (2, 0.4)
    assert osn_features(msgs, {}) == (0, 0.0)
    zero_totals = {1: outcome(1, 0, 0)}
    assert osn_features([spreader_msg(1)], zero_totals) == (0, 0.0)


def test_rating_stays_in_unit_interval():
    rng = np.random.default_rng(2)
    for _ in range(100):
        k = int(rng.integers(1, 6))
        outs = {}
        for pid in range(1, k + 1):
            total = int(rng.integers(0, 9))
            outs[pid] = outcome(pid, int(rng.integers(0, total + 1)), total)
        _, rating = osn_features([spreader_msg(p) for p in outs], outs)
        assert 0.0 <= rating <= 1.0


def test_market_feature_is_the_mean_return():
    msgs = [spreader_msg(1), spreader_msg(2), spreader_msg(3)]
    outcomes = {1: outcome(1, 0, 1, ret=0.10), 2: outcome(2, 0, 1, ret=0.30)}
    assert market_feature(msgs, outcomes) == pytest.approx(0.20)
    assert market_feature(msgs, {}) == 0.0


# ---------------------------------------------------------------------------
# ego worked examples


def test_star_ego_has_no_redundancy():
    adj = np.zeros((4, 4))
    adj[0, 1] = adj[0, 2] = adj[0, 3] = 1.0
    feats = ego_features(adj, 0, weighted=False)
    assert feats["effective_size"] == 3.0
    assert feats["efficiency"] == 1.0
    assert feats["out_degree"] == 3.0
    assert feats["out_ratio"] == 1.0
    assert feats["in_ratio"] == 0.0


def test_mutual_tie_pair_halves_the_ego():
    adj = np.zeros((3, 3))
    adj[0, 1] = adj[0, 2] = 1.0
    adj[1, 2] = adj[2, 1] = 1.0
    feats = ego_features(adj, 0, weighted=False)
    assert feats["effective_size"] == 1.0  # 2 - 2/2
    assert feats["efficiency"] == 0.5
    # directed density over ego+alters: 4 arcs, n(n-1) = 2
    assert feats["density"] == 4.0


def test_in_ratio_means_incoming_weight():
    adj = np.zeros((3, 3))
    adj[1, 0] = 0.5
    adj[2, 0] = 1.0
    feats = ego_features(adj, 0, weighted=True)
    assert feats["in_ratio"] == pytest.approx(0.75)
    unweighted = ego_features((adj > 0).astype(float), 0, weighted=False)
    assert unweighted["in_ratio"] == 1.0


def test_isolated_ego_is_all_zero():
    adj = np.zeros((3, 3))
    feats = ego_features(adj, 1, weighted=True)
    assert all(v == 0.0 for v in feats.values())


def test_ego_bounds_hold_on_random_graphs():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(2, 10))
        adj = (rng.random((n, n)) < 0.5).astype(float)
        np.fill_diagonal(adj, 0.0)
        for v in range(n):
            feats = ego_features(adj, v, weighted=False)
            alters = int(adj[v].sum())
            assert feats["effective_size"] <= alters + 1e-12
            assert feats["efficiency"] <= 1.0 + 1e-12


def test_ego_matrix_matches_the_reference_loop_bit_for_bit():
    """Seeded random graphs, n from 2 to 120 and density from 0.05 to 0.9,
    every third with a non-zero diagonal and some negative weights (alters
    but not ties), each as given and as 0/1."""
    rng = np.random.default_rng(2024)
    sizes = np.linspace(2, 120, 16).astype(int)
    densities = np.linspace(0.05, 0.9, 16)
    for k, (n, p) in enumerate(zip(sizes, rng.permutation(densities))):
        weights = np.round(rng.random((n, n)) * 1.2 - 0.1, 9)
        adj = np.where(rng.random((n, n)) < p, weights, 0.0)
        if k % 3:
            np.fill_diagonal(adj, 0.0)
        for graph, weighted in ((adj, True), ((adj > 0).astype(float), False)):
            got = ego_feature_matrix(graph, weighted)
            want = [oracles.reference_ego_features(graph, v, weighted) for v in range(n)]
            for key in EGO_KEYS:
                assert np.array_equal(got[key], [f[key] for f in want]), (n, p, weighted, key)


# ---------------------------------------------------------------------------
# centrality worked examples


def test_three_cycle_pagerank_is_uniform():
    adj = np.zeros((3, 3))
    adj[0, 1] = adj[1, 2] = adj[2, 0] = 1.0
    pr = pagerank(adj, weighted=False)
    assert np.allclose(pr, 1 / 3, atol=1e-9)
    assert pr.sum() == pytest.approx(1.0, abs=1e-9)


def test_path_betweenness_and_closeness():
    adj = np.zeros((3, 3))
    adj[0, 1] = adj[1, 2] = 1.0
    bc = betweenness(adj, weighted=False)
    assert bc.tolist() == [0.0, 1.0, 0.0]
    cc = closeness(adj, weighted=False)
    assert cc[0] == pytest.approx((2 / 3) * (2 / 2))
    assert cc[1] == pytest.approx((1 / 1) * (1 / 2))
    assert cc[2] == 0.0


def test_directed_cycle_clusters_as_a_triangle():
    adj = np.zeros((3, 3))
    adj[0, 1] = adj[1, 2] = adj[2, 0] = 1.0
    assert clustering(adj, weighted=False).tolist() == [1.0, 1.0, 1.0]


def test_heavier_edges_are_shorter_paths():
    adj = np.zeros((3, 3))
    adj[0, 1] = 1.0      # distance 1
    adj[0, 2] = 0.25     # direct distance 4
    adj[1, 2] = 1.0      # via-b distance 2 wins
    cc = closeness(adj, weighted=True)
    assert cc[0] == pytest.approx((2 / 3) * (2 / 2))
    bc = betweenness(adj, weighted=True)
    assert bc[1] == 1.0


# ---------------------------------------------------------------------------
# communities


def test_two_triangles_split_in_two():
    w = np.zeros((6, 6))
    for a, b in [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]:
        w[a, b] = w[b, a] = 1.0
    part = louvain(w)
    assert part.n_communities == 2
    assert part.modularity == pytest.approx(0.5, abs=1e-9)
    labels = [part.assignment[i] for i in range(6)]
    assert len(set(labels[:3])) == 1
    assert len(set(labels[3:])) == 1


def test_complete_graph_stays_whole():
    w = np.ones((5, 5)) - np.eye(5)
    part = louvain(w)
    assert part.n_communities == 1
    assert part.modularity == pytest.approx(0.0, abs=1e-12)


def test_local_moves_match_the_reference_loop_bit_for_bit():
    """Seeded random non-negative graphs, n from 2 to 120, symmetric as
    louvain passes them, every third with a non-zero diagonal as an
    aggregated graph has; weighted and 0/1."""
    rng = np.random.default_rng(4242)
    sizes = np.linspace(2, 120, 16).astype(int)
    densities = np.linspace(0.05, 0.9, 16)
    for k, (n, p) in enumerate(zip(sizes, rng.permutation(densities))):
        w = np.where(rng.random((n, n)) < p, np.round(rng.random((n, n)), 9), 0.0)
        adj = (w + w.T) / 2.0
        if k % 3:
            np.fill_diagonal(adj, 0.0)
        for graph in (adj, (adj > 0).astype(float)):
            if graph.sum() == 0:
                continue
            got, moved = _local_moves(graph, graph.sum())
            want, want_moved = oracles.reference_local_moves(graph, graph.sum())
            assert np.array_equal(got, want) and moved == want_moved, (n, p)


def test_louvain_passes_never_lose_modularity():
    rng = np.random.default_rng(31)
    for _ in range(30):
        n = int(rng.integers(4, 12))
        w = rng.random((n, n)) * (rng.random((n, n)) < 0.4)
        np.fill_diagonal(w, 0.0)
        part = louvain(w)
        assert all(
            b >= a - 1e-12 for a, b in zip(part.pass_modularity, part.pass_modularity[1:])
        )
        # the reported score is a recomputation, not an accumulator
        labels = [part.assignment[i] for i in range(n)]
        ref = oracles.brute_modularity(w.tolist(), labels)
        assert part.modularity == pytest.approx(ref, abs=1e-9)
        assert part.modularity == pytest.approx(
            modularity(symmetrize(w), part.assignment), abs=1e-12
        )


def test_louvain_matches_exhaustive_argmax_on_the_triangle_pair():
    w = np.zeros((6, 6))
    for a, b in [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]:
        w[a, b] = w[b, a] = 1.0
    best_q, argmax = oracles.best_partition(w.tolist())
    part = louvain(w)
    assert part.modularity == pytest.approx(best_q, abs=1e-9)
    labels = np.array([part.assignment[i] for i in range(6)])
    grouped = sorted(sorted(np.flatnonzero(labels == c).tolist()) for c in set(labels.tolist()))
    assert grouped in [sorted(sorted(g) for g in p) for p in argmax]


def test_sui_fixture_forms_two_communities():
    lines = (FIXTURES / "sui_case.jsonl").read_text().splitlines()
    messages, _ = parse_corpus(lines)
    from perseus.events import build_event_sets
    from perseus.diffusion import build_graphs

    sets = build_event_sets(messages, lambda m: "all")
    graphs, _ = build_graphs(sets)
    g = graphs["all/SUI"]
    part = louvain(g.weighted)
    assert part.n_communities == 2
    by_comm = {}
    for i, node in enumerate(g.nodes):
        by_comm.setdefault(part.assignment[i], set()).add(node)
    assert {frozenset(v) for v in by_comm.values()} == {
        frozenset({"CQSScalpingFree", "QualitySignalsChannel"}),
        frozenset(
            {"cryptotipstrick", "wallstreetqueenofficialtm", "MCY_TRADINGS", "Cryptotegic1"}
        ),
    }


# ---------------------------------------------------------------------------
# assembly and standardization


def test_feature_rows_shape_and_osn_columns():
    w = np.zeros((4, 4))
    w[0, 1] = 1.0
    w[0, 2] = 0.5
    w[2, 3] = 0.25
    graph = graph_from(w)
    msgs = {"n0": [spreader_msg(1)], "n2": [spreader_msg(2)]}
    outcomes = {1: outcome(1, 1, 2, ret=0.2), 2: outcome(2, 3, 8, ret=0.1)}
    rows = compute_feature_rows(graph, msgs, outcomes)
    assert rows.shape == (4, 23)
    assert rows[0, 0] == 1 and rows[0, 1] == pytest.approx(0.5) and rows[0, 2] == pytest.approx(0.2)
    assert rows[2, 0] == 3 and rows[2, 1] == pytest.approx(0.375)
    assert rows[1, 0] == 0 and rows[1, 1] == 0.0 and rows[1, 2] == 0.0
    topo = whole_graph_features(graph)
    for j, col in enumerate(FEATURE_COLUMNS[3:], start=3):
        np.testing.assert_array_equal(rows[:, j], topo[col])


def test_feature_rows_permute_with_the_nodes():
    rng = np.random.default_rng(13)
    w = rng.random((5, 5)) * (rng.random((5, 5)) < 0.5)
    np.fill_diagonal(w, 0.0)
    graph = graph_from(w)
    perm = [3, 1, 4, 0, 2]
    permuted = DiffusionGraph(
        cryptocurrency="SUI",
        period="all",
        nodes=tuple(graph.nodes[i] for i in perm),
        weighted=w[np.ix_(perm, perm)],
    )
    base = compute_feature_rows(graph, {}, {})
    moved = compute_feature_rows(permuted, {}, {})
    assert np.allclose(moved, base[perm], atol=1e-12)


def test_assemble_matrix_names_unlabeled_nodes():
    graph = graph_from(np.zeros((4, 4)))
    rows = np.zeros((4, N_FEATURES))
    with pytest.raises(KeyError) as err:
        assemble_matrix(graph, rows, {"n0": 1, "n1": 0})
    assert "n2" in str(err.value) and "n3" in str(err.value)
    mat = assemble_matrix(graph, rows, {"n0": 1, "n1": 0, "n2": 0, "n3": 0})
    assert mat.y.tolist() == [1, 0, 0, 0]


def test_standardizer_centers_and_scales():
    x = np.zeros((2, N_FEATURES))
    x[0, 0] = 0.0
    x[1, 0] = 2.0
    std = Standardizer.fit([x])
    out = std.transform(x)
    assert out[:, 0].tolist() == [-1.0, 1.0]
    # constant columns collapse to zero rather than dividing by zero
    assert np.all(out[:, 1:] == 0.0)


def test_standardizer_json_round_trip():
    x = np.arange(2 * N_FEATURES, dtype=float).reshape(2, N_FEATURES)
    std = Standardizer.fit([x])
    again = Standardizer.from_json(std.to_json())
    np.testing.assert_array_equal(std.mean, again.mean)
    np.testing.assert_array_equal(std.std, again.std)
    np.testing.assert_allclose(again.transform(x), std.transform(x), atol=0)


@pytest.mark.parametrize(
    "edit",
    [
        lambda obj: {**obj, "mean": obj["mean"][:-1], "std": obj["std"][:-1]},
        lambda obj: {**obj, "std": obj["std"][:-1]},
        lambda obj: {**obj, "columns": obj["columns"][::-1]},
        lambda obj: {key: values[:-1] for key, values in obj.items()},
    ],
    ids=["22_entries", "short_std", "reordered_columns", "every_list_short"],
)
def test_standardizer_rejects_a_file_that_does_not_fit_the_columns(edit):
    std = Standardizer.fit([np.arange(2 * N_FEATURES, dtype=float).reshape(2, N_FEATURES)])
    with pytest.raises(ValueError):
        Standardizer.from_json(edit(std.to_json()))


def test_features_csv_round_trip(tmp_path):
    rng = np.random.default_rng(41)
    mats = []
    for coin in ("SUI", "ARB"):
        x = rng.random((3, N_FEATURES))
        mats.append(
            FeatureMatrix(
                graph_id=f"train/{coin}",
                entity_ids=(f"{coin.lower()}_a", f"{coin.lower()}_b", f"{coin.lower()}_c"),
                x=x,
                y=np.array([1, 0, 0]),
            )
        )
    path = tmp_path / "train.csv"
    write_features_csv(path, mats)
    again = read_features_csv(path)
    assert [m.graph_id for m in again] == ["train/SUI", "train/ARB"]
    for a, b in zip(mats, again):
        assert a.entity_ids == b.entity_ids
        np.testing.assert_array_equal(np.asarray(a.y), np.asarray(b.y))
        np.testing.assert_allclose(b.x, a.x, atol=0)


@pytest.mark.parametrize(
    "row",
    [
        "x",
        "a,one,train/SUI",
        "a,0,train/SUI" + ",heavy" * N_FEATURES,
        "a,2,train/SUI" + ",0.5" * N_FEATURES,
    ],
    ids=["short_row", "short_row_word_label", "bad_cell", "label_2"],
)
def test_read_features_csv_names_a_bad_row_by_line(tmp_path, row):
    mat = FeatureMatrix(
        graph_id="train/SUI", entity_ids=("a", "b"), x=np.zeros((2, N_FEATURES)), y=np.array([1, 0])
    )
    path = tmp_path / "train.csv"
    write_features_csv(path, [mat])
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(row + "\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:4: "):
        read_features_csv(path)
