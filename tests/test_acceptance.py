"""Release gate: one check per shipping criterion, one verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines
as they print; without ``-s`` pytest shows them only for failing checks.
"""

import json
import subprocess
import sys
import time
from datetime import datetime, timedelta, timezone
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import oracles
from oracles import graph_loss, params_to_vector, vector_to_params

from perseus.diffusion import build_graphs, derive_directed, infer_weighted, lambda_matrix
from perseus.evaluation import (
    METRIC_NAMES,
    best_threshold,
    confusion_from,
    metrics,
    roc_auc,
    threshold_sweep,
)
from perseus.events import build_event_sets, flag_concurrent_broadcasts
from perseus.features import Standardizer, assemble_matrix, compute_feature_rows
from perseus.features.centrality import betweenness, closeness, clustering, pagerank
from perseus.features.community import louvain
from perseus.features.ego import EGO_KEYS, ego_features
from perseus.gnn import (
    ARCH_GAT,
    ARCH_SAGE,
    GraphData,
    ModelConfig,
    init_params,
    loss_and_grads,
    predict,
    train,
)
from perseus.ingest import CrowdPumpMessage, TradeDirection, parse_corpus
from perseus.market import compute_outcomes
from perseus.synth import SynthConfig, generate_corpus, generate_prices, score_edge_recovery

FIXTURES = Path(__file__).resolve().parents[1] / "src" / "perseus" / "data" / "fixtures"
T0 = datetime(2024, 1, 1, tzinfo=timezone.utc)


def verdict(number, ok, detail):
    line = f"[criterion {number:02d}] {'PASS' if ok else 'FAIL'} {detail}"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# shared builders

_pid = iter(range(1, 10_000_000))


def spreader_message(channel, hours, coin="SUI"):
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


def events_from_schedule(schedule):
    """One event per cascade: cascades sit 500 h apart, members 1 h apart."""
    messages = [spreader_message(c, h) for cascade in schedule for c, h in cascade]
    messages.sort(key=lambda m: (m.source_datetime, m.pid))
    return build_event_sets(messages, lambda m: "all")[("all", "SUI")]


def make_graph_data(weighted, x, y, graph_id="g"):
    w = np.asarray(weighted, dtype=float)
    return GraphData(
        graph_id=graph_id,
        nodes=tuple(f"n{i}" for i in range(len(w))),
        x=np.asarray(x, dtype=float),
        y=np.asarray(y, dtype=int),
        weighted=w,
    )


def random_graph_data(rng, n=5, in_dim=3, graph_id="g"):
    w = rng.random((n, n)) * (rng.random((n, n)) < 0.5)
    np.fill_diagonal(w, 0.0)
    x = rng.normal(size=(n, in_dim))
    y = (rng.random(n) < 0.3).astype(int)
    return make_graph_data(w, x, y, graph_id=graph_id)


def pipeline_matrices(seed):
    """Synthetic corpus for one seed, run through the real pipeline stages."""
    cfg = SynthConfig(seed=seed, n_coins=2, n_events=20)
    corpus = generate_corpus(cfg)
    event_sets = build_event_sets(corpus.messages, lambda m: "all")
    graphs, _ = build_graphs(event_sets)
    prices = generate_prices(corpus.messages, cfg)
    outcomes, _ = compute_outcomes(corpus.messages, prices.values())
    out = []
    for gid in sorted(graphs):
        g = graphs[gid]
        by_spreader = {}
        for event in event_sets[(g.period, g.cryptocurrency)]:
            for m in event.messages:
                by_spreader.setdefault(m.entity_id, []).append(m)
        rows = compute_feature_rows(g, by_spreader, outcomes)
        labels = {n: corpus.truth.labels[n] for n in g.nodes}
        out.append((g, assemble_matrix(g, rows, labels), f"{seed}:{gid}"))
    return out


@pytest.fixture(scope="module")
def synthetic_split():
    """Sixty labeled graphs from thirty corpora, split 40/10/10, standardized."""
    t0 = time.perf_counter()
    entries = []
    for seed in range(100, 130):
        entries.extend(pipeline_matrices(seed))
    train_set, val_set, test_set = entries[:40], entries[40:50], entries[50:]
    std = Standardizer.fit([m.x for _, m, _ in train_set])

    def convert(part):
        return [
            GraphData(
                graph_id=gid,
                nodes=tuple(m.entity_ids),
                x=std.transform(m.x),
                y=m.y.astype(float),
                weighted=g.weighted,
            )
            for g, m, gid in part
        ]

    return convert(train_set), convert(val_set), convert(test_set), time.perf_counter() - t0


# ---------------------------------------------------------------------------
# 1. cascade-based network inference against the rational-arithmetic oracle


def test_01_network_inference_matches_brute_force():
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    checked = 0
    aligned = True
    errs = {"theta": 0.0, "h": 0.0, "lambda": 0.0, "w": 0.0}
    arrows_ok = True
    while checked < 500:
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

        events = events_from_schedule(schedule)
        ref = oracles.brute_influence(schedule)
        if len(events) != len(schedule):
            aligned = False
            break
        for event, h_ref, lam_ref in zip(events, ref["h"], ref["lam"]):
            # lambda_matrix rows and columns follow announcement order
            rank = {e: i for i, e in enumerate(event.spreaders)}
            lam = lambda_matrix(len(rank))
            aligned &= {(r, s) for r in rank for s in rank if r != s} == set(lam_ref)
            for (r, s), val in lam_ref.items():
                errs["lambda"] = max(errs["lambda"], abs(lam[rank[r], rank[s]] - float(val)))
            # lambda is h over its row total, so the oracle's row total
            # scales lambda back to h
            for r in rank:
                total = sum(v for (rr, _), v in h_ref.items() if rr == r)
                for s in rank:
                    if s != r:
                        err = abs(lam[rank[r], rank[s]] * float(total) - float(h_ref[(r, s)]))
                        errs["h"] = max(errs["h"], err)

        nodes, w = infer_weighted(events)
        aligned &= nodes == ref["nodes"]
        # theta as infer_weighted forms it: I / (d_r + d_s - I), with I = P P^T
        # over the spreader x event incidence of the events built above
        incidence = np.array([[n in event.spreaders for event in events] for n in nodes], float)
        shared = incidence @ incidence.T
        d = np.diag(shared)
        theta = shared / (d[:, None] + d[None, :] - shared)
        idx = {n: i for i, n in enumerate(nodes)}
        for (r, s), val in ref["theta"].items():
            errs["theta"] = max(errs["theta"], abs(theta[idx[r], idx[s]] - float(val)))
        for (r, s), val in ref["w"].items():
            errs["w"] = max(errs["w"], abs(w[idx[r], idx[s]] - float(val)))
        star = derive_directed(w)
        arrows = {(nodes[r], nodes[s]) for r, s in zip(*np.nonzero(star))}
        arrows_ok &= arrows == ref["w_star"]
        checked += 1

    elapsed = time.perf_counter() - t0
    worst = max(errs.values())
    ok = aligned and arrows_ok and worst < 1e-9 and elapsed < 10.0
    verdict(
        1,
        ok,
        f"{checked} instances, max |err| theta/h/lambda/W {worst:.2e}, "
        f"arrow sets {'match' if arrows_ok else 'differ'}, {elapsed:.1f}s (< 10s)",
    )


# ---------------------------------------------------------------------------
# 2. analytic gradients against central finite differences


def test_02_gradients_match_central_differences():
    rng = np.random.default_rng(11)
    t0 = time.perf_counter()
    worst = 0.0
    combos = 0
    for k in range(20):
        g = random_graph_data(rng, n=5, in_dim=3, graph_id=f"fx{k}")
        for arch in (ARCH_GAT, ARCH_SAGE):
            for variant in ("weighted", "directed"):
                config = ModelConfig(architecture=arch, graph_variant=variant, hidden_channels=4)
                params = init_params(config, 3)
                _, grads = loss_and_grads(params, config, g)
                analytic = params_to_vector(grads)

                def f(vec, config=config, params=params, g=g):
                    return graph_loss(vector_to_params(vec, params), config, g)

                numeric = oracles.central_difference(f, params_to_vector(params), h=1e-5)
                denom = np.maximum(np.abs(numeric), 1e-6)
                worst = max(worst, float(np.max(np.abs(analytic - numeric) / denom)))
                combos += 1
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-4 and elapsed < 60.0
    verdict(
        2,
        ok,
        f"{combos} fixture/arch/variant combos, max rel err {worst:.2e} (< 1e-4), "
        f"{elapsed:.1f}s (< 60s)",
    )


# ---------------------------------------------------------------------------
# 3. planted-network edge recovery from half-probability cascades


def test_03_synthetic_edge_recovery():
    t0 = time.perf_counter()
    cfg = SynthConfig(
        n_spreaders=50, n_masterminds=5, n_events=200, n_coins=1, forward_prob=0.5, seed=0
    )
    corpus = generate_corpus(cfg)
    graphs, _ = build_graphs(build_event_sets(corpus.messages, lambda m: "all"))
    (g,) = graphs.values()
    precision = score_edge_recovery(g.weighted, g.nodes, corpus.truth, directed=g.directed)
    elapsed = time.perf_counter() - t0
    baseline = len(corpus.truth.edges) / (len(corpus.truth.nodes) * (len(corpus.truth.nodes) - 1))
    ok = precision >= 0.6 and elapsed < 30.0
    verdict(
        3,
        ok,
        f"directed precision@|E_true| {precision:.3f} (>= 0.6, chance {baseline:.3f}), "
        f"{elapsed:.1f}s (< 30s)",
    )


# ---------------------------------------------------------------------------
# 4. classification quality on held-out synthetic graphs


def test_04_synthetic_classification_quality(synthetic_split):
    train_graphs, val_graphs, test_graphs, gen_seconds = synthetic_split
    t0 = time.perf_counter()
    results = {}
    for variant in ("weighted", "directed"):
        config = ModelConfig(graph_variant=variant)
        params, _ = train(config, train_graphs)

        val_probs, val_y = [], []
        for gd in val_graphs:
            _, p = predict(params, config, gd)
            val_probs.extend(p)
            val_y.extend(gd.y)
        cut = best_threshold(threshold_sweep(np.array(val_probs), np.array(val_y)))

        test_probs, test_y = [], []
        for gd in test_graphs:
            _, p = predict(params, config, gd)
            test_probs.extend(p)
            test_y.extend(gd.y)
        test_probs = np.array(test_probs)
        test_y = np.array(test_y, dtype=int)
        results[variant] = (
            metrics(confusion_from(test_y, (test_probs >= cut).astype(int)))["f1"],
            roc_auc(test_probs, test_y),
        )
    elapsed = gen_seconds + time.perf_counter() - t0
    wf1, wauc = results["weighted"]
    _, dauc = results["directed"]
    ok = wf1 >= 0.9 and wauc >= dauc - 0.05 and elapsed < 300.0
    verdict(
        4,
        ok,
        f"weighted test F1 {wf1:.3f} (>= 0.9), AUC weighted {wauc:.3f} vs "
        f"directed {dauc:.3f} (gap >= -0.05), {elapsed:.1f}s (< 300s)",
    )


# ---------------------------------------------------------------------------
# 5. classification metrics and AUC against formula recomputation


def test_05_metrics_match_oracle():
    rng = np.random.default_rng(404)
    exact = True
    worst_auc = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 60))
        y = rng.integers(0, 2, size=n)
        if y.min() == y.max():
            y[0] = 1 - y[0]
        pred = rng.integers(0, 2, size=n)
        c = confusion_from(y, pred)
        ref = oracles.formula_metrics(c.tp, c.fp, c.fn, c.tn)
        got = metrics(c)
        exact &= all(got[name] == ref[name] for name in METRIC_NAMES)

        probs = rng.random(size=n)
        if rng.random() < 0.5:
            probs = np.round(probs, 2)  # coarse grid forces tied scores
        worst_auc = max(worst_auc, abs(roc_auc(probs, y) - oracles.pairwise_auc(probs, y)))
    ok = exact and worst_auc < 1e-9
    verdict(
        5,
        ok,
        f"1000 sets, metrics {'exact' if exact else 'DIFFER'}, "
        f"max |AUC err| {worst_auc:.2e} (< 1e-9)",
    )


# ---------------------------------------------------------------------------
# 6. ego measures and centralities against brute-force implementations


def test_06_ego_and_centrality_match_oracle():
    rng = np.random.default_rng(42)
    exact = True
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 11))
        adj = rng.random((n, n)) * (rng.random((n, n)) < 0.5)
        np.fill_diagonal(adj, 0.0)
        dense = adj.tolist()

        # integer-arithmetic quantities reproduce bit for bit unweighted
        exact &= closeness(adj, weighted=False).tolist() == oracles.brute_closeness(dense, False)
        exact &= clustering(adj, weighted=False).tolist() == oracles.brute_clustering(dense, False)
        for v in range(n):
            ref = oracles.brute_ego(dense, v, False)
            got = ego_features(adj, v, weighted=False)
            exact &= all(got[key] == ref[key] for key in EGO_KEYS)

        # float accumulation order and fixed-point iteration differ from the
        # rational oracle in the last ulps, so these compare at 1e-9
        for weighted in (False, True):
            worst = max(
                worst,
                float(
                    np.max(
                        np.abs(
                            betweenness(adj, weighted=weighted)
                            - np.array(oracles.brute_betweenness(dense, weighted))
                        )
                    )
                ),
                float(
                    np.max(
                        np.abs(
                            pagerank(adj, weighted=weighted)
                            - oracles.solve_pagerank(dense, weighted)
                        )
                    )
                ),
            )
        worst = max(
            worst,
            float(
                np.max(
                    np.abs(closeness(adj, weighted=True) - np.array(oracles.brute_closeness(dense, True)))
                )
            ),
            float(
                np.max(
                    np.abs(clustering(adj, weighted=True) - np.array(oracles.brute_clustering(dense, True)))
                )
            ),
        )
        for v in range(n):
            ref = oracles.brute_ego(dense, v, True)
            got = ego_features(adj, v, weighted=True)
            worst = max(worst, max(abs(got[key] - ref[key]) for key in EGO_KEYS))

    ok = exact and worst < 1e-9
    verdict(
        6,
        ok,
        f"100 graphs, unweighted closeness/clustering/ego "
        f"{'exact' if exact else 'DIFFER'}, remaining max |err| {worst:.2e} (< 1e-9)",
    )


# ---------------------------------------------------------------------------
# 7. community detection sanity


def test_07_louvain_sanity():
    w = np.zeros((6, 6))
    for a, b in [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]:
        w[a, b] = w[b, a] = 1.0
    part = louvain(w)
    triangles_ok = part.n_communities == 2 and abs(part.modularity - 0.5) <= 1e-9

    rng = np.random.default_rng(1337)
    monotone = True
    for _ in range(50):
        n = int(rng.integers(4, 14))
        rand = rng.random((n, n)) * (rng.random((n, n)) < 0.4)
        np.fill_diagonal(rand, 0.0)
        scores = louvain(rand).pass_modularity
        monotone &= all(b >= a - 1e-12 for a, b in zip(scores, scores[1:]))

    ok = triangles_ok and monotone
    verdict(
        7,
        ok,
        f"two triangles -> {part.n_communities} communities at Q={part.modularity:.9f}, "
        f"pass scores {'nondecreasing' if monotone else 'DECREASED'} on 50 random graphs",
    )


# ---------------------------------------------------------------------------
# 8. single-epoch speed at the documented scale


def test_08_single_epoch_speed(synthetic_split):
    train_graphs, val_graphs, test_graphs, _ = synthetic_split
    batch = train_graphs + val_graphs + test_graphs
    total_nodes = sum(len(gd.nodes) for gd in batch)
    total_edges = sum(int(gd.inbound("weighted").sum()) - gd.n_nodes for gd in batch)
    _, history = train(ModelConfig(epochs=1), batch)
    seconds = history[0].seconds
    ok = total_nodes >= 554 and total_edges >= 1788 and seconds < 1.0
    verdict(
        8,
        ok,
        f"one epoch over {total_nodes} nodes / {total_edges} edges in "
        f"{seconds * 1000:.0f}ms (< 1s)",
    )


# ---------------------------------------------------------------------------
# 9. end-to-end determinism of the command line pipeline


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "perseus", *args], capture_output=True, text=True
    )


def test_09_pipeline_determinism(tmp_path):
    outputs = []
    for name in ("first", "second"):
        out = tmp_path / name
        for command in (("synth", "--out", str(out)), ("all", "--out", str(out))):
            proc = run_cli(*command)
            assert proc.returncode == 0, proc.stderr
        outputs.append(out)
    a, b = outputs

    params_same = (a / "model.json").read_bytes() == (b / "model.json").read_bytes()
    predictions_same = (a / "predictions.jsonl").read_bytes() == (b / "predictions.jsonl").read_bytes()

    report_a = json.loads((a / "report.json").read_text())
    report_b = json.loads((b / "report.json").read_text())
    report_a.pop("timing")
    report_b.pop("timing")

    def strip_epoch_seconds(path):
        return [line.rsplit(",", 1)[0] for line in path.read_text().splitlines()]

    history_same = strip_epoch_seconds(a / "history.csv") == strip_epoch_seconds(b / "history.csv")

    ok = params_same and predictions_same and report_a == report_b and history_same
    verdict(
        9,
        ok,
        "two fresh runs: params "
        + ("identical" if params_same else "DIFFER")
        + ", predictions "
        + ("identical" if predictions_same else "DIFFER")
        + ", report (minus timing) "
        + ("equal" if report_a == report_b else "DIFFERS")
        + ", history (minus seconds) "
        + ("equal" if history_same else "DIFFERS"),
    )


# ---------------------------------------------------------------------------
# 10. shipped case fixtures behave as documented


def test_10_fixture_qualitative_checks():
    # SUI: the two labeled masterminds take the two highest probabilities
    lines = (FIXTURES / "sui_case.jsonl").read_text().splitlines()
    messages, _ = parse_corpus(lines)
    event_sets = build_event_sets(messages, lambda m: "all")
    graphs, _ = build_graphs(event_sets)
    g = graphs["all/SUI"]
    by_spreader = {}
    for event in event_sets[("all", "SUI")]:
        for m in event.messages:
            by_spreader.setdefault(m.entity_id, []).append(m)
    rows = compute_feature_rows(g, by_spreader, {})
    labels = json.loads((FIXTURES / "sui_labels.json").read_text())["labels"]
    mat = assemble_matrix(g, rows, {n: labels[n] for n in g.nodes})
    std = Standardizer.fit([mat.x])
    gd = GraphData(
        graph_id="all/SUI",
        nodes=tuple(mat.entity_ids),
        x=std.transform(mat.x),
        y=mat.y.astype(float),
        weighted=g.weighted,
    )
    config = ModelConfig(learning_rate=0.01, epochs=200)
    params, _ = train(config, [gd])
    _, probs = predict(params, config, gd)
    order = np.argsort(-probs)
    top_two = {gd.nodes[i] for i in order[:2]}
    masterminds = {n for n, label in labels.items() if label == 1}
    sui_ok = top_two == masterminds

    # STORJ: one same-second flag covering all six simultaneous channels
    lines = (FIXTURES / "storj_case.jsonl").read_text().splitlines()
    messages, _ = parse_corpus(lines)
    flags = flag_concurrent_broadcasts(build_event_sets(messages, lambda m: "all")[("all", "STORJ")])
    storj_ok = (
        len(flags) == 1
        and "same_second" in flags[0].reasons
        and flags[0].channels
        == (
            "CoinCoachSignals",
            "CryptoGuruSignal",
            "CryptoMarketSignalz",
            "CryptoTradingExpertz",
            "GoldenSignalz",
            "VIPExpertSignals",
        )
    )

    ok = sui_ok and storj_ok
    margin = f"{probs[order[0]]:.3f}/{probs[order[1]]:.3f} vs {probs[order[2]]:.3f}"
    verdict(
        10,
        ok,
        f"SUI top-2 {sorted(top_two)} ({margin}) "
        f"{'==' if sui_ok else '!='} labeled masterminds; STORJ same-second flag "
        f"{'covers all six channels' if storj_ok else 'WRONG'}",
    )
