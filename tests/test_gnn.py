"""From-scratch GNN stack: layer math, autograd, training loop, persistence."""

import json
import math
import re
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import oracles
from oracles import graph_loss, params_to_vector, vector_to_params

from perseus.gnn import (
    ARCH_GAT,
    ARCH_SAGE,
    GraphData,
    ModelConfig,
    ModelConfigError,
    forward,
    init_params,
    load_params,
    loss_and_grads,
    predict,
    read_history_csv,
    save_params,
    train,
    write_history_csv,
)
from perseus.gnn import model as model_mod
from perseus.gnn.layers import Adam, bce_loss


def make_graph(weighted, x, y, graph_id="g"):
    w = np.asarray(weighted, dtype=float)
    return GraphData(
        graph_id=graph_id,
        nodes=tuple(f"n{i}" for i in range(len(w))),
        x=np.asarray(x, dtype=float),
        y=np.asarray(y, dtype=int),
        weighted=w,
    )


def path_graph(in_dim=3, seed=5):
    rng = np.random.default_rng(seed)
    w = np.zeros((3, 3))
    w[0, 1] = 1.0
    w[1, 2] = 0.5
    return make_graph(w, rng.normal(size=(3, in_dim)), [1, 0, 0])


def random_graph(rng, n=6, in_dim=4, graph_id="g"):
    w = rng.random((n, n)) * (rng.random((n, n)) < 0.5)
    np.fill_diagonal(w, 0.0)
    x = rng.normal(size=(n, in_dim))
    y = (rng.random(n) < 0.3).astype(int)
    return make_graph(w, x, y, graph_id=graph_id)


# ---------------------------------------------------------------------------
# edges and forward behavior


def test_weighted_variant_keeps_duel_losers():
    w = np.zeros((3, 3))
    w[0, 1] = 0.8
    w[1, 0] = 0.2  # loses the duel but still carries influence
    g = make_graph(w, np.zeros((3, 1)), [0, 0, 0])
    np.testing.assert_array_equal(
        g.inbound("weighted"), [[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    )
    np.testing.assert_array_equal(
        g.inbound("directed"), [[1.0, 0.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    )
    with pytest.raises(ValueError):
        g.inbound("mixed")


def test_inbound_mask_is_built_once_and_read_only():
    g = random_graph(np.random.default_rng(3), n=6, in_dim=2)
    for variant in ("weighted", "directed"):
        mask = g.inbound(variant)
        assert g.inbound(variant) is mask
        assert not mask.flags.writeable
        with pytest.raises(ValueError):
            mask[0, 0] = 0.0


def test_zero_parameters_predict_half():
    g = path_graph()
    for arch in (ARCH_GAT, ARCH_SAGE):
        config = ModelConfig(architecture=arch, epochs=1)
        params = init_params(config, g.x.shape[1])
        for layer in params:
            for name in layer:
                layer[name] = np.zeros_like(layer[name])
        probs = forward(params, config, g)
        np.testing.assert_array_equal(probs, np.full(3, 0.5))


def test_raising_the_output_bias_raises_every_probability():
    g = path_graph()
    config = ModelConfig()
    params = init_params(config, g.x.shape[1])
    base = forward(params, config, g)
    params[-1]["bias"] = params[-1]["bias"] + 2.0
    assert np.all(forward(params, config, g) > base)


def test_gat_attention_sums_to_one_per_node():
    g = path_graph()
    config = ModelConfig(architecture=ARCH_GAT)
    params = init_params(config, g.x.shape[1])
    _, _, caches = forward(params, config, g, keep_caches=True)
    for cache in caches:
        np.testing.assert_allclose(cache["alpha"].sum(axis=1), 1.0, atol=1e-12)


def random_graph_with_a_source(in_dim, seed, n=12):
    """A seeded random graph in which node 4 has no in-neighbour."""
    rng = np.random.default_rng(seed)
    g = random_graph(rng, n=n, in_dim=in_dim)
    g.weighted[:, 4] = 0.0
    return g


@pytest.mark.parametrize("arch", [ARCH_GAT, ARCH_SAGE])
def test_forward_matches_scalar_reference(arch):
    for make in (path_graph, random_graph_with_a_source):
        g = make(in_dim=2, seed=7)
        for variant in ("directed", "weighted"):
            config = ModelConfig(
                architecture=arch, graph_variant=variant, hidden_channels=4, num_layers=2
            )
            params = init_params(config, 2)
            layers = [{name: arr.tolist() for name, arr in layer.items()} for layer in params]
            neighbours = g.inbound(variant) - np.eye(g.n_nodes)
            dst, src = np.nonzero(neighbours)
            assert src.size > 0 and (neighbours.sum(axis=1) == 0).any()
            edges = list(zip(src.tolist(), dst.tolist()))
            oracle = (
                oracles.scalar_gat_forward if arch == ARCH_GAT else oracles.scalar_sage_forward
            )
            expected = oracle(g.x.tolist(), layers, edges)
            np.testing.assert_allclose(forward(params, config, g), expected, atol=1e-12)


@pytest.mark.parametrize("arch", [ARCH_GAT, ARCH_SAGE])
def test_forward_is_permutation_equivariant(arch):
    rng = np.random.default_rng(11)
    g = random_graph(rng)
    config = ModelConfig(architecture=arch)
    params = init_params(config, g.x.shape[1])
    perm = rng.permutation(g.n_nodes)
    shuffled = make_graph(
        g.weighted[np.ix_(perm, perm)], g.x[perm], g.y[perm], graph_id="perm"
    )
    np.testing.assert_allclose(
        forward(params, config, shuffled), forward(params, config, g)[perm], atol=1e-12
    )


def test_nan_output_fails_fast_naming_the_layer():
    g = path_graph()
    config = ModelConfig()
    params = init_params(config, g.x.shape[1])
    params[1]["weight"] = np.full_like(params[1]["weight"], np.nan)
    with pytest.raises(FloatingPointError) as err:
        forward(params, config, g)
    assert "layer 1" in str(err.value)
    assert g.graph_id in str(err.value)


# ---------------------------------------------------------------------------
# loss and gradients


def test_uninformative_probabilities_cost_ln2():
    assert bce_loss(np.full(5, 0.5), np.array([1.0, 0, 0, 1, 0])) == pytest.approx(
        math.log(2), abs=1e-12
    )


@pytest.mark.parametrize("arch", [ARCH_GAT, ARCH_SAGE])
@pytest.mark.parametrize("variant", ["directed", "weighted"])
def test_gradients_match_central_differences(arch, variant):
    rng = np.random.default_rng(3)
    g = random_graph(rng, n=5, in_dim=3)
    config = ModelConfig(architecture=arch, graph_variant=variant, hidden_channels=4)
    params = init_params(config, 3)
    _, grads = loss_and_grads(params, config, g)
    analytic = params_to_vector(grads)

    def f(vec):
        return graph_loss(vector_to_params(vec, params), config, g)

    numeric = oracles.central_difference(f, params_to_vector(params), h=1e-5)
    denom = np.maximum(np.abs(numeric), 1e-6)
    assert np.max(np.abs(analytic - numeric) / denom) < 1e-4


def test_adam_first_step_is_signed_learning_rate():
    lr = 0.01
    params = [{"weight": np.array([[1.0, -2.0]])}]
    grads = [{"weight": np.array([[0.3, -0.7]])}]
    opt = Adam(lr)
    opt.step(params, grads)
    g = np.array([[0.3, -0.7]])
    expected = np.array([[1.0, -2.0]]) - lr * g / (np.abs(g) + 1e-8)
    np.testing.assert_allclose(params[0]["weight"], expected, atol=1e-12)


@pytest.mark.parametrize("architecture", [ARCH_GAT, ARCH_SAGE])
def test_flat_adam_matches_the_per_array_reference(architecture):
    rng = np.random.default_rng(11)
    for _ in range(3):
        config = ModelConfig(
            architecture=architecture,
            hidden_channels=int(rng.integers(2, 9)),
            num_layers=int(rng.integers(1, 4)),
        )
        params = init_params(config, int(rng.integers(1, 7)))
        reference = [{name: a.copy() for name, a in layer.items()} for layer in params]
        flat, per_array = Adam(0.05), oracles.ReferenceAdam(0.05)
        for _ in range(50):
            grads = [{name: rng.normal(size=a.shape) for name, a in layer.items()} for layer in params]
            flat.step(params, grads)
            per_array.step(reference, grads)
            for got, want in zip(params, reference):
                assert sorted(got) == sorted(want)
                for name in want:
                    assert np.array_equal(got[name], want[name]), name


# ---------------------------------------------------------------------------
# training loop


def separable_graphs(n_graphs=2, seed=0):
    rng = np.random.default_rng(seed)
    graphs = []
    for k in range(n_graphs):
        n = 8
        y = (np.arange(n) < 2).astype(int)
        x = rng.normal(size=(n, 3)) * 0.1
        x[:, 0] += 3.0 * y  # one clean feature carries the label
        # edges only within a label class, so aggregation keeps the classes apart
        w = np.zeros((n, n))
        w[0, 1] = 1.0
        for a, b in [(2, 3), (3, 4), (4, 5), (5, 6), (6, 7)]:
            w[a, b] = 1.0
        graphs.append(make_graph(w, x, y, graph_id=f"g{k}"))
    return graphs


def test_training_reduces_loss_on_separable_data():
    graphs = separable_graphs()
    config = ModelConfig(learning_rate=0.05, epochs=120)
    params, history = train(config, graphs)
    assert len(history) == config.epochs
    assert [r.epoch for r in history[:3]] == [1, 2, 3]
    assert history[-1].train_loss < 0.1 * history[0].train_loss
    labels, _ = predict(params, config, graphs[0])
    np.testing.assert_array_equal(labels, graphs[0].y)


def test_train_returns_the_final_epoch(monkeypatch):
    """Training for e epochs, then one more Adam step per graph with the same
    optimizer, gives exactly the parameters of training for e + 1 epochs."""
    optimizers = []

    class KeptAdam(Adam):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            optimizers.append(self)

    monkeypatch.setattr(model_mod, "Adam", KeptAdam)
    graphs = separable_graphs(n_graphs=3, seed=4)
    epochs = 7
    config = ModelConfig(learning_rate=0.05, epochs=epochs)
    params, history = train(config, graphs)
    assert len(history) == epochs
    for graph in graphs:
        optimizers[0].step(params, loss_and_grads(params, config, graph)[1])
    longer, _ = train(replace(config, epochs=epochs + 1), graphs)
    np.testing.assert_array_equal(params_to_vector(params), params_to_vector(longer))


def test_zero_learning_rate_changes_nothing():
    graphs = separable_graphs()
    config = ModelConfig(epochs=3)
    # A config refuses learning_rate 0, so set it past the check to test Adam.
    object.__setattr__(config, "learning_rate", 0.0)
    params, history = train(config, graphs)
    init = init_params(config, graphs[0].x.shape[1])
    np.testing.assert_array_equal(params_to_vector(params), params_to_vector(init))
    losses = [r.train_loss for r in history]
    assert losses[0] == losses[1] == losses[2]


def test_training_is_deterministic():
    graphs = separable_graphs(seed=9)
    config = ModelConfig(epochs=5)
    first_params, first_history = train(config, graphs)
    second_params, second_history = train(config, graphs)
    np.testing.assert_array_equal(
        params_to_vector(first_params), params_to_vector(second_params)
    )
    assert [r.train_loss for r in first_history] == [r.train_loss for r in second_history]


def test_predict_applies_the_threshold_inclusively():
    g = path_graph()
    config = ModelConfig()
    params = init_params(config, g.x.shape[1])
    for layer in params:
        for name in layer:
            layer[name] = np.zeros_like(layer[name])
    labels, probs = predict(params, config, g)  # config cut 0.5, probs all 0.5
    assert labels.tolist() == [1, 1, 1]
    labels, _ = predict(params, config, g, threshold=0.51)
    assert labels.tolist() == [0, 0, 0]
    np.testing.assert_array_equal(probs, 0.5)


# ---------------------------------------------------------------------------
# persistence


def test_params_survive_a_save_and_load(tmp_path):
    config = ModelConfig(architecture=ARCH_GAT, hidden_channels=5, seed=3)
    params = init_params(config, 23)
    path = tmp_path / "model.json"
    save_params(path, params, config, in_dim=23)
    loaded, loaded_config, in_dim = load_params(path)
    assert loaded_config == config
    assert in_dim == 23
    np.testing.assert_array_equal(params_to_vector(loaded), params_to_vector(params))


# Edits to a saved model.json that load_params must reject.
MODEL_FILE_EDITS = {
    "format_version": lambda obj: {**obj, "format_version": 2},
    "architecture": lambda obj: {**obj, "config": {**obj["config"], "architecture": "mlp"}},
    "not_an_object": lambda obj: [obj],
    "dropped_layer": lambda obj: {**obj, "layers": obj["layers"][:1]},
    "weight_shape": lambda obj: {
        **obj,
        "layers": [{**obj["layers"][0], "weight": obj["layers"][0]["weight"][:-1]}] + obj["layers"][1:],
    },
    "out_of_range": lambda obj: {**obj, "config": {**obj["config"], "threshold": 1.5, "learning_rate": -1}},
    "bool_threshold": lambda obj: {**obj, "config": {**obj["config"], "threshold": True}},
}


@pytest.mark.parametrize(
    "edit",
    [*MODEL_FILE_EDITS.values(), lambda obj: {**obj, "config": {**obj["config"], "learning_rate": math.inf}}],
    ids=[*MODEL_FILE_EDITS, "infinite_learning_rate"],
)
def test_load_params_rejects_a_bad_model_file(tmp_path, edit):
    config = ModelConfig()
    path = tmp_path / "model.json"
    save_params(path, init_params(config, 23), config, in_dim=23)
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: "):
        load_params(path)


def test_load_rejects_unknown_format(tmp_path):
    path = tmp_path / "model.json"
    path.write_text('{"format_version": 99}')
    with pytest.raises(ValueError):
        load_params(path)


def test_vector_round_trip_and_size_check():
    config = ModelConfig()
    params = init_params(config, 23)
    vec = params_to_vector(params)
    rebuilt = vector_to_params(vec, params)
    np.testing.assert_array_equal(params_to_vector(rebuilt), vec)
    with pytest.raises(ValueError):
        vector_to_params(vec[:-1], params)


def test_history_csv_has_one_row_per_epoch(tmp_path):
    graphs = separable_graphs()
    config = ModelConfig(epochs=4)
    _, history = train(config, graphs)
    path = tmp_path / "history.csv"
    write_history_csv(path, history)
    lines = path.read_text().splitlines()
    assert lines[0] == "epoch,train_loss,epoch_seconds"
    assert len(lines) == 5
    assert float(lines[1].split(",")[1]) == history[0].train_loss


def test_history_csv_reads_back_what_was_written(tmp_path):
    _, history = train(ModelConfig(epochs=3), separable_graphs())
    path = tmp_path / "history.csv"
    write_history_csv(path, history)
    assert read_history_csv(path) == history
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("4,0.5\n")
    with pytest.raises(ValueError, match="history.csv:5: "):
        read_history_csv(path)


def test_config_rejects_bad_choices():
    with pytest.raises(ValueError):
        ModelConfig(architecture="transformer")
    with pytest.raises(ValueError):
        ModelConfig(graph_variant="mixed")
    with pytest.raises(ValueError):
        ModelConfig(num_layers=0)
    with pytest.raises(ModelConfigError) as broken:
        ModelConfig(threshold=1.5, learning_rate=-1.0)
    assert broken.value.problems == [
        "learning_rate: must be positive and finite", "threshold: must be in [0, 1]"
    ]
