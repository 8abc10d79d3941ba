"""Synthetic benchmark generator: planted networks, cascades, price ramps."""

import numpy as np
import pytest

import oracles
from perseus.features.ego import ego_features
from perseus.ingest import raw_message_to_json
from perseus.market import compute_outcomes
from perseus.synth import (
    GroundTruth,
    SynthConfig,
    generate_corpus,
    generate_network,
    generate_prices,
    load_labels,
    load_truth,
    score_edge_recovery,
    write_labels,
    write_truth,
)

SMALL = SynthConfig(n_spreaders=12, n_masterminds=2, n_events=8, n_coins=2, seed=3)


def coin_series(corpus):
    return list(generate_prices(corpus.messages, corpus.config).values())


def test_generation_is_byte_deterministic():
    a = generate_corpus(SMALL)
    b = generate_corpus(SMALL)
    assert [raw_message_to_json(m) for m in a.raw_messages] == [
        raw_message_to_json(m) for m in b.raw_messages
    ]
    assert a.truth == b.truth
    pa, pb = generate_prices(a.messages, SMALL), generate_prices(b.messages, SMALL)
    assert set(pa) == set(pb)
    for pair in pa:
        np.testing.assert_array_equal(pa[pair].price, pb[pair].price)
        np.testing.assert_array_equal(pa[pair].ts, pb[pair].ts)


@pytest.mark.parametrize(
    "config",
    [
        SynthConfig(seed=0),
        SynthConfig(seed=1),
        SynthConfig(seed=2),
        # the graph_wide and price_long bench shapes (perseus synth defaults to 6 coins)
        SynthConfig(n_spreaders=90, n_masterminds=3, n_events=24, n_coins=3),
        SynthConfig(n_spreaders=12, n_masterminds=3, n_events=150, n_coins=6, forward_prob=0.1),
        SynthConfig(n_events=8, target_hit_rate=0.0),  # peak == entry: no ramp
        SynthConfig(n_events=8, target_hit_rate=1.0),  # every event ramps
        SynthConfig(n_events=6, bar_minutes=1),
        SynthConfig(n_events=8, bar_minutes=15),
        SynthConfig(n_events=8, price_drift=1e-5),
        SynthConfig(n_events=1),  # one plan, no switch
    ],
    ids=lambda c: f"seed{c.seed}-events{c.n_events}-coins{c.n_coins}-hit{c.target_hit_rate}"
    f"-bar{c.bar_minutes}-drift{c.price_drift}",
)
def test_prices_match_the_reference_bar_loop(config):
    messages = generate_corpus(config).messages
    got = generate_prices(messages, config)
    want = oracles.reference_generate_prices(messages, config)
    assert list(got) == list(want)
    for pair in want:
        for column in ("ts", "price"):
            same = np.array_equal(getattr(got[pair], column), getattr(want[pair], column))
            assert same, (pair, column)


def test_network_shape_and_labels():
    truth = generate_network(SMALL)
    assert len(truth.nodes) == 12
    assert sum(truth.labels.values()) == 2
    assert len(truth.masterminds) == 2
    assert set(truth.labels) == set(truth.nodes)
    assert set(truth.communities.values()) <= {0, 1}
    # every edge stays inside the node set and never self-loops
    for src, dst in truth.edges:
        assert src in truth.labels and dst in truth.labels
        assert src != dst
    # masterminds source their cluster: no incoming edges
    for m in truth.masterminds:
        assert all(dst != m for _, dst in truth.edges)


def test_full_forwarding_reaches_the_closure():
    config = SynthConfig(
        n_spreaders=10, n_masterminds=2, n_events=4, n_coins=1, forward_prob=1.0, seed=5
    )
    corpus = generate_corpus(config)
    reach = {}
    for plan in corpus.plans:
        if plan.root not in reach:
            frontier = [plan.root]
            seen = {plan.root}
            while frontier:
                node = frontier.pop()
                for src, dst in corpus.truth.edges:
                    if src == node and dst not in seen:
                        seen.add(dst)
                        frontier.append(dst)
            reach[plan.root] = seen
        assert {e for e, _ in plan.activations} == reach[plan.root]


def test_masterminds_have_the_efficient_egos():
    truth = generate_network(SynthConfig(n_spreaders=40, n_masterminds=4, seed=11))
    adj = truth.adjacency()
    index = {n: i for i, n in enumerate(truth.nodes)}
    eff = {
        n: ego_features(adj, index[n], weighted=False)["efficiency"] for n in truth.nodes
    }
    mm = [eff[n] for n in truth.masterminds]
    others = [eff[n] for n in truth.nodes if truth.labels[n] == 0]
    assert min(mm) > np.mean(others)


def test_ratings_concentrate_at_the_hit_rate():
    config = SynthConfig(
        n_spreaders=24,
        n_masterminds=3,
        n_events=200,
        n_coins=2,
        forward_prob=0.9,
        seed=19,
    )
    corpus = generate_corpus(config)
    assert len(corpus.messages) > 1000
    outcomes, missing = compute_outcomes(corpus.messages, coin_series(corpus))
    assert missing == []
    achieved = sum(o.targets_achieved for o in outcomes.values())
    announced = sum(o.targets_total for o in outcomes.values())
    assert announced == 5 * len(corpus.messages)
    assert abs(achieved / announced - 0.5) < 0.05


def test_price_ramp_tops_out_half_a_step_past_the_last_target():
    # only each event's first message sees the full ramp: later spreaders
    # announce after the price has already started moving
    corpus = generate_corpus(SMALL)
    outcomes, _ = compute_outcomes(corpus.messages, coin_series(corpus))
    by_key = {(m.entity_id, m.source_datetime): m.pid for m in corpus.messages}
    step = SMALL.target_step
    checked = 0
    for plan in corpus.plans:
        root_entity, root_time = plan.activations[0]
        assert root_entity == plan.root
        outcome = outcomes[by_key[root_entity, root_time]]
        k = outcome.targets_achieved
        assert outcome.targets_total == SMALL.targets_per_message
        assert abs(outcome.max_return - step * (k + 0.5)) < step / 2
        checked += 1
    assert checked == SMALL.n_events


def test_edge_recovery_scores_the_planted_graph():
    truth = generate_network(SMALL)
    adj = truth.adjacency()
    assert score_edge_recovery(adj, truth.nodes, truth) == 1.0
    # reversing every arrow ruins precision
    assert score_edge_recovery(adj.T, truth.nodes, truth) < 0.5
    with pytest.raises(ValueError):
        score_edge_recovery(adj, ["ghost_a", "ghost_b"], truth)


def test_edge_recovery_respects_the_directed_mask():
    truth = GroundTruth(
        nodes=("a", "b", "c"),
        edges=(("a", "b"), ("a", "c")),
        labels={"a": 1, "b": 0, "c": 0},
        communities={"a": 0, "b": 0, "c": 0},
    )
    weighted = np.array([[0.0, 0.9, 0.8], [0.95, 0.0, 0.0], [0.0, 0.0, 0.0]])
    # unmasked, the spurious b->a outranks both true edges
    assert score_edge_recovery(weighted, truth.nodes, truth) == 0.5
    directed = np.array([[0.0, 0.0, 0.8], [0.95, 0.0, 0.0], [0.0, 0.0, 0.0]])
    # the duel removed a->b, so only a->c competes among the true arrows
    assert score_edge_recovery(weighted, truth.nodes, truth, directed=directed) == 0.5


def test_edge_recovery_matches_the_sorted_tuple_loop():
    """Weights drawn from four levels, so most candidates tie on weight and
    the (src, dst) names decide the ranking."""
    rng = np.random.default_rng(8)
    for _ in range(3000):
        n = int(rng.integers(2, 11))
        nodes = tuple(f"n{i}" for i in rng.permutation(n))
        weighted = rng.choice([0.0, 0.25, 0.5, 1.0], size=(n, n))
        edges = [(nodes[r], nodes[s]) for r in range(n) for s in range(n) if r != s]
        picked = rng.choice(len(edges), size=int(rng.integers(1, len(edges) + 1)), replace=False)
        truth = GroundTruth(
            nodes=nodes,
            edges=tuple(edges[i] for i in picked),
            labels=dict.fromkeys(nodes, 0),
            communities=dict.fromkeys(nodes, 0),
        )
        directed = (weighted > weighted.T).astype(np.int8)
        for mask in (None, directed):
            want = oracles.reference_score_edge_recovery(weighted, nodes, truth, mask)
            assert score_edge_recovery(weighted, nodes, truth, mask) == want


def test_truth_and_labels_round_trip(tmp_path):
    truth = generate_network(SMALL)
    write_truth(tmp_path / "truth.json", truth)
    assert load_truth(tmp_path / "truth.json") == truth
    write_labels(tmp_path / "labels.json", truth.labels)
    assert load_labels(tmp_path / "labels.json") == truth.labels


def test_texts_differ_across_channels_in_one_event():
    corpus = generate_corpus(SMALL)
    by_time = {}
    for m in corpus.raw_messages:
        by_time.setdefault(m.timestamp, []).append(m.text)
    for texts in by_time.values():
        assert len(set(texts)) == len(texts)


def test_config_validation():
    with pytest.raises(ValueError):
        SynthConfig(n_spreaders=3, n_masterminds=3)
    with pytest.raises(ValueError):
        SynthConfig(forward_prob=0.0)
    with pytest.raises(ValueError):
        SynthConfig(n_events=0)
    with pytest.raises(ValueError):
        SynthConfig(target_hit_rate=1.5)
    with pytest.raises(ValueError):
        SynthConfig(seed=-1)
    with pytest.raises(ValueError):
        SynthConfig(bar_minutes=0)
    with pytest.raises(ValueError):
        SynthConfig(targets_per_message=0)
    with pytest.raises(ValueError):
        SynthConfig(target_step=-0.5)
    with pytest.raises(ValueError):
        SynthConfig(mean_delay_hours=-1.0)
    SynthConfig(target_step=0.0, mean_delay_hours=0.0)
