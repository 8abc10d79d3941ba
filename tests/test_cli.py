"""End-to-end pipeline runs through the installed CLI entry point."""

import csv
import errno
import functools
import gc
import json
import math
import multiprocessing
import os
import re
import shutil
import subprocess
import sys
import warnings
import weakref
from pathlib import Path

import pytest

from perseus import cli, ingest, market
from perseus import synth as synth_mod
from perseus.cli import STAGE_ORDER as STAGES, _evaluate, build_config, main
from perseus.features import FEATURE_COLUMNS
from perseus.synth import SynthConfig, generate_corpus, generate_prices, write_labels, write_truth

sys.path.insert(0, str(Path(__file__).resolve().parent))
from test_gnn import MODEL_FILE_EDITS

FIXTURES = Path(__file__).resolve().parents[1] / "src" / "perseus" / "data" / "fixtures"
GOLDEN = Path(__file__).resolve().parent / "golden"


def run_cli(*args, env=None):
    return subprocess.run(
        [sys.executable, "-m", "perseus", *args], capture_output=True, text=True, env=env
    )


def stages_run(out, *args):
    """Run `perseus all` on out with INFO logging; the stages that ran
    rather than hit the cache, in order."""
    done = run_cli("all", "--out", str(out), *args, env=dict(os.environ, PERSEUS_LOG="INFO"))
    assert done.returncode == 0, done.stderr
    skipped = re.findall(r"perseus\.cli: (\w+): inputs unchanged, skipping", done.stderr)
    ran = re.findall(r"perseus\.cli: (\w+): wrote \d+ artifact", done.stderr)
    assert sorted(skipped + ran) == sorted(STAGES), done.stderr
    return ran


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    out = tmp_path_factory.mktemp("pipeline")
    done = run_cli("synth", "--out", str(out))
    assert done.returncode == 0, done.stderr
    done = run_cli("all", "--out", str(out))
    assert done.returncode == 0, done.stderr
    return out


def assert_close(got, want, where="report"):
    """Equal structure and exact ids and ints; floats within 1e-9."""
    if isinstance(want, float) or isinstance(got, float):
        assert isinstance(got, (int, float)) and isinstance(want, (int, float)), where
        assert (math.isnan(got) and math.isnan(want)) or math.isclose(
            got, want, rel_tol=0.0, abs_tol=1e-9
        ), f"{where}: {got!r} != {want!r}"
    elif isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), where
        for key in want:
            assert_close(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            assert_close(g, w, f"{where}[{i}]")
    else:
        assert got == want, f"{where}: {got!r} != {want!r}"


def read_feature_rows(path):
    """A features CSV as [header, [entity_id, label, graph_id, floats...], ...]."""
    with open(path, newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    return [header] + [[e, int(y), g, *map(float, xs)] for e, y, g, *xs in rows]


# The parse-to-events artifacts, compared byte for byte where pinned.
PINNED_BYTES = ("messages.jsonl", "skip_report.json", "split_plan.json", "events.jsonl")


def assert_matches_golden(out, name):
    """Compare out/predictions.jsonl, out/report.json (minus `timing`),
    every pinned out/features/*.csv and, where pinned, the PINNED_BYTES
    files (byte for byte), the market outcomes out/outcomes.jsonl, the
    Louvain output out/features/communities.json and the graph files
    out/graphs/ with the copies in tests/golden/<name>/.

    Regenerate a pinned copy only for an intended behaviour change, and say
    why in CHANGES.md. From the repo root, with OUT the test's out dir
    (`synth_default`: `perseus synth --out OUT && perseus all --out OUT`;
    `synth_default_gat`: the same, then
    `perseus all --out OUT --arch gat --variant directed`;
    `sui`: the commands of test_sui_fixture_recovers_its_masterminds):

        cp OUT/predictions.jsonl tests/golden/<name>/
        python -c "$STRIP" OUT/report.json > tests/golden/<name>/report.json
        cp OUT/features/{train,val,test}.csv tests/golden/synth_default/features/
        cp OUT/features/communities.json tests/golden/synth_default/features/
        cp OUT/outcomes.jsonl tests/golden/synth_default/
        cp OUT/{messages.jsonl,skip_report.json} tests/golden/synth_default/
        cp OUT/{split_plan.json,events.jsonl} tests/golden/synth_default/
        rm -r tests/golden/synth_default/graphs
        cp -r OUT/graphs tests/golden/synth_default/

    The quotient graphs (`synth_default_quotient`, graphs only) come from the
    `synth_default` OUT, then, with Q a config file holding
    {"aggregation": "paper_literal_quotient"}:

        perseus graphs --out OUT --config Q
        rm -r tests/golden/synth_default_quotient/graphs
        cp -r OUT/graphs tests/golden/synth_default_quotient/

    where STRIP is this Python, which drops the machine-dependent `timing`:

        import json, sys
        r = json.load(open(sys.argv[1]))
        r.pop("timing")
        print(json.dumps(r, indent=1, sort_keys=True))
    """
    golden = GOLDEN / name
    for pinned in PINNED_BYTES:
        if (golden / pinned).exists():
            assert (out / pinned).read_bytes() == (golden / pinned).read_bytes(), f"{name}/{pinned}"
    rows = [json.loads(line) for line in (out / "predictions.jsonl").read_text().splitlines()]
    want = [
        json.loads(line)
        for line in (golden / "predictions.jsonl").read_text().splitlines()
    ]
    assert_close(rows, want, f"{name}/predictions")
    pinned = golden / "outcomes.jsonl"
    if pinned.exists():
        got = [json.loads(line) for line in (out / "outcomes.jsonl").read_text().splitlines()]
        want = [json.loads(line) for line in pinned.read_text().splitlines()]
        assert_close(got, want, f"{name}/outcomes")
    report = json.loads((out / "report.json").read_text())
    report.pop("timing")
    assert_close(report, json.loads((golden / "report.json").read_text()), f"{name}/report")
    for pinned in sorted((golden / "features").glob("*.csv")):
        got = read_feature_rows(out / "features" / pinned.name)
        assert_close(got, read_feature_rows(pinned), f"{name}/features/{pinned.name}")
    pinned = golden / "features" / "communities.json"
    if pinned.exists():
        got = json.loads((out / "features" / "communities.json").read_text())
        assert_close(got, json.loads(pinned.read_text()), f"{name}/features/communities.json")
    if (golden / "graphs").exists():
        assert_graphs_match_golden(out, name)


def assert_graphs_match_golden(out, name):
    """Every file under out/graphs/ equals its copy in tests/golden/<name>/graphs/,
    byte for byte, and neither side has a file the other lacks."""
    golden = GOLDEN / name / "graphs"
    want = sorted(p.relative_to(golden) for p in golden.rglob("*") if p.is_file())
    got = sorted(p.relative_to(out / "graphs") for p in (out / "graphs").rglob("*") if p.is_file())
    assert got == want
    for rel in want:
        assert (out / "graphs" / rel).read_bytes() == (golden / rel).read_bytes(), str(rel)


def test_default_run_matches_golden(pipeline):
    assert_matches_golden(pipeline, "synth_default")


def test_quotient_graphs_match_golden(pipeline, tmp_path):
    out = tmp_path / "quotient"
    shutil.copytree(pipeline, out)
    config = write_config(tmp_path / "quotient.json", aggregation="paper_literal_quotient")
    done = run_cli("graphs", "--out", str(out), "--config", config)
    assert done.returncode == 0, done.stderr
    assert_graphs_match_golden(out, "synth_default_quotient")


def test_gat_directed_run_matches_golden(pipeline, tmp_path):
    out = tmp_path / "gat"
    shutil.copytree(pipeline, out)
    ran = stages_run(out, "--arch", "gat", "--variant", "directed")
    assert ran == ["train", "infer", "evaluate"]
    assert_matches_golden(out, "synth_default_gat")


@pytest.mark.parametrize("synth_seed", [0, 1, 2])
def test_shipped_model_ranks_its_training_masterminds_first(tmp_path, synth_seed):
    """A model that learned anything separates the graphs it was trained on;
    a checkpoint frozen near initialisation ranks masterminds below chance."""
    out = tmp_path / "out"
    for args in (
        ("synth", "--synth-seed", str(synth_seed)),
        ("all",),
        ("infer", "--split", "train"),
        ("evaluate", "--split", "train"),
    ):
        done = run_cli(*args, "--out", str(out))
        assert done.returncode == 0, f"{args}: {done.stderr}"
    report = json.loads((out / "report.json").read_text())
    assert report["auc"] >= 0.9, report["auc"]


def test_all_leaves_every_artifact(pipeline):
    for name in (
        "messages.jsonl",
        "skip_report.json",
        "split_plan.json",
        "events.jsonl",
        "flags.jsonl",
        "graphs/index.json",
        "outcomes.jsonl",
        "features/standardization.json",
        "features/communities.json",
        "features/train.csv",
        "features/val.csv",
        "features/test.csv",
        "model.json",
        "history.csv",
        "predictions.jsonl",
        "inference_timing.json",
        "report.json",
    ):
        assert (pipeline / name).exists(), name
    for stage in STAGES:
        assert (pipeline / "manifests" / f"{stage}.json").exists(), stage


def test_report_covers_the_required_keys(pipeline):
    report = json.loads((pipeline / "report.json").read_text())
    assert set(report) == {
        "split",
        "n_nodes",
        "n_masterminds",
        "zero_denominator_rule",
        "threshold_default",
        "metrics_at_default",
        "best_threshold",
        "metrics_at_best",
        "auc",
        "sweep",
        "t_tests",
        "flags",
        "epochs_trained",
        "timing",
    }
    assert report["split"] == "test"
    assert report["epochs_trained"] == 100
    assert set(report["metrics_at_default"]) == {
        "precision",
        "recall",
        "f1",
        "accuracy",
        "mcc",
    }
    assert len(report["sweep"]) == 21
    assert isinstance(report["best_threshold"], float)
    assert report["timing"]["epoch_cdf"]


def test_rerun_is_a_no_op(pipeline):
    tracked = ["model.json", "predictions.jsonl", "report.json", "events.jsonl"]
    before = {name: (pipeline / name).stat().st_mtime_ns for name in tracked}
    assert stages_run(pipeline) == []
    after = {name: (pipeline / name).stat().st_mtime_ns for name in tracked}
    assert after == before


GRAPH_FILES = [
    f"graphs/{graph}.{table}"
    for graph in ["test/COIN01", *(f"train/COIN0{i}" for i in range(6)), "val/COIN02"]
    for table in ["nodes.tsv", "weighted.tsv"]
]
PRICE_FILES = [f"data/prices/COIN0{i}USDT.csv" for i in range(6)]
# Per stage of the default synth run: the settings its manifest stores, as
# plain JSON, and the files in its cache key. The input hashes are left out,
# as history.csv and inference_timing.json hold timings.
MODEL = {"architecture": "graphsage", "epochs": 100, "graph_variant": "weighted", "hidden_channels": 8,
         "learning_rate": 0.0005, "num_layers": 2, "seed": 7, "threshold": 0.5}
CACHE_KEYS = {
    "parse": ({}, ["data/corpus.jsonl"]),
    "split": ({"split_fractions": [0.7, 0.15, 0.15]}, ["messages.jsonl"]),
    "events": ({"event_cap_hours": 72.0, "single_period": False}, ["messages.jsonl", "split_plan.json"]),
    "flag": ({}, ["events.jsonl", "messages.jsonl"]),
    "graphs": ({"aggregation": "dani_product"}, ["events.jsonl", "messages.jsonl"]),
    "featurize": ({"return_rule": "direction_aware"},
                  ["data/labels.json", *PRICE_FILES, "events.jsonl", "graphs/index.json",
                   *GRAPH_FILES, "messages.jsonl"]),
    "train": ({"model": MODEL},
              ["features/standardization.json", "features/train.csv", "graphs/index.json",
               *GRAPH_FILES]),
    "infer": ({"split": "test"},
              ["features/standardization.json", "features/test.csv", "graphs/index.json",
               *GRAPH_FILES, "model.json"]),
    "evaluate": ({"model.threshold": 0.5, "split": "test", "threshold_grid": [i / 20 for i in range(21)]},
                 ["features/test.csv", "flags.jsonl", "history.csv", "inference_timing.json",
                  "model.json", "predictions.jsonl"]),
}


def test_cache_keys_match_the_pinned_ones(pipeline):
    assert sorted(CACHE_KEYS) == sorted(STAGES)
    for stage, (settings, inputs) in CACHE_KEYS.items():
        manifest = json.loads((pipeline / "manifests" / f"{stage}.json").read_text())
        assert manifest["settings"] == settings, stage
        assert sorted(manifest["inputs"]) == inputs, stage


@pytest.fixture
def settled(pipeline, tmp_path):
    """A copy of the pipeline out dir; manifests name files relative to
    the out dir, so the copy skips every stage."""
    out = tmp_path / "settled"
    shutil.copytree(pipeline, out)
    assert stages_run(out) == []
    return out


def write_config(path, **fields):
    path.write_text(json.dumps(fields))
    return str(path)


def test_label_edit_reruns_featurize_onwards(settled):
    labels_path = settled / "data" / "labels.json"
    obj = json.loads(labels_path.read_text())
    obj["labels"] = {node: 1 - label for node, label in obj["labels"].items()}
    labels_path.write_text(json.dumps(obj))
    before = json.loads((settled / "report.json").read_text())
    assert stages_run(settled) == ["featurize", "train", "infer", "evaluate"]
    report = json.loads((settled / "report.json").read_text())
    assert report["n_masterminds"] == before["n_nodes"] - before["n_masterminds"]
    run = json.loads((settled / "manifests" / "featurize.json").read_text())
    assert run["reason"] == "inputs changed: data/labels.json"
    assert run["seconds"] >= 0 and run["peak_rss_kb"] > 0


def test_price_edit_reruns_featurize_onwards(settled):
    outcomes = (settled / "outcomes.jsonl").read_bytes()
    for path in sorted((settled / "data" / "prices").glob("*.csv")):
        header, *rows = path.read_text().splitlines()
        cells = [row.split(",") for row in rows]
        prices = [c[1] for c in cells][::-1]
        path.write_text(
            "\n".join([header] + [f"{c[0]},{p},{c[2]}" for c, p in zip(cells, prices)]) + "\n"
        )
    assert stages_run(settled) == ["featurize", "train", "infer", "evaluate"]
    assert (settled / "outcomes.jsonl").read_bytes() != outcomes


@pytest.mark.parametrize(
    "rows",
    [
        ["2000,1.5,3", "3000,1.6"],
        ["3000,1.5,3", "2000,1.6,4"],
        ["2000,nan,3", "3000,1.6,4"],
        ["2000,1.5,3", "inf,1.6,4"],
    ],
    ids=["short_row", "not_increasing", "nan_price", "inf_stamp"],
)
def test_bad_price_file_fails_with_exit_3(settled, capsys, rows):
    path = sorted((settled / "data" / "prices").glob("*.csv"))[0]
    path.write_text("\n".join(["timestamp,price,volume", *rows]) + "\n")
    assert main(["all", "--out", str(settled)]) == 3
    err = capsys.readouterr().err
    assert "data error: featurize:" in err and path.name in err


def read_rows(path, key):
    """The JSON lines of `path` by their `key` field."""
    return {row[key]: row for row in map(json.loads, path.read_text().splitlines())}


def test_featurize_holds_one_price_series_at_a_time(settled, monkeypatch):
    # PriceSeries compares by value, so it is unhashable: no WeakSet.
    loaded = []
    alive_at_load = []
    load = market.load_price_csv

    def recorded(*args, **kwargs):
        alive_at_load.append(sum(ref() is not None for ref in loaded))
        series = load(*args, **kwargs)
        loaded.append(weakref.ref(series))
        return series

    monkeypatch.setattr(market, "load_price_csv", recorded)
    (settled / "manifests" / "featurize.json").unlink()
    assert main(["featurize", "--out", str(settled)]) == 0
    assert len(alive_at_load) == len(market.price_files(settled / "data" / "prices")) >= 3
    assert alive_at_load == [0] * len(alive_at_load)


def test_the_last_price_file_of_a_coin_decides_its_outcomes(settled, capsys):
    """COIN00BUSD.csv and COIN00USDT.csv both price COIN00: the later one in
    price_files order decides its outcomes, and a malformed earlier one
    still stops featurize."""
    prices = settled / "data" / "prices"
    usdt, busd = prices / "COIN00USDT.csv", prices / "COIN00BUSD.csv"
    header, *rows = usdt.read_text().splitlines()
    busd.write_text(usdt.read_text())
    cells = [row.split(",") for row in rows]
    usdt.write_text("\n".join([header] + [f"{t},{2 * float(p)!r},{v}" for t, p, v in cells]) + "\n")
    assert market.price_files(prices)[:2] == [busd, usdt]
    before = read_rows(settled / "outcomes.jsonl", "pid")
    assert main(["featurize", "--out", str(settled)]) == 0
    after = read_rows(settled / "outcomes.jsonl", "pid")
    coin = {pid: m["cryptocurrency"] for pid, m in read_rows(settled / "messages.jsonl", "PID").items()}
    assert sorted(after) == sorted(before)
    assert "COIN00" in {coin[pid] for pid in after}
    for pid, row in after.items():
        scale = 2.0 if coin[pid] == "COIN00" else 1.0
        assert row["announcement_price"] == scale * before[pid]["announcement_price"], pid

    busd.write_text("\n".join(["timestamp,price,volume", "2000,1.5,3", "3000,1.6"]) + "\n")
    assert main(["featurize", "--out", str(settled)]) == 3
    err = capsys.readouterr().err
    assert "data error: featurize:" in err and busd.name in err


def test_a_bad_price_file_of_a_coin_no_message_names_fails_with_exit_3(settled, capsys):
    path = settled / "data" / "prices" / "NOBODYUSDT.csv"
    path.write_text("\n".join(["timestamp,price,volume", "2000,1.5,3", "3000,1.6"]) + "\n")
    assert main(["featurize", "--out", str(settled)]) == 3
    err = capsys.readouterr().err
    assert "data error: featurize:" in err and path.name in err


def not_current(writer, reason, stage="featurize"):
    """What `stage` prints when a file it reads needs `perseus <writer>` for `reason`."""
    return f"data error: {stage}: {writer} is not current ({reason}); run perseus {writer}\n"


def unlisted(path, stage):
    """What `stage` prints when no manifest lists `path` as written."""
    return f"data error: {stage}: {path}: no manifest lists it; run the stage that writes it\n"


def test_an_index_that_leaves_out_a_graph_fails_with_exit_3(settled, capsys):
    """Every (period, coin) of events.jsonl is a graph of the index or is
    dropped there with its spreader count, which is below the minimum; the
    index drops nothing else and lists its graphs in graph id order. Any
    edit to the index is one the graphs stage did not write. A coin is
    dropped here by adding one SUI message to the corpus and running events
    with --single-period, as the split plan keeps no such token."""
    path = settled / "graphs" / "index.json"
    index = json.loads(path.read_text())
    left_out = [g for g in index["graphs"] if g != {"period": "test", "coin": "COIN01"}]
    assert len(left_out) == len(index["graphs"]) - 1
    dropped = lambda period, coin, n: [{"period": period, "cryptocurrency": coin, "spreaders": n}]
    for edited in (
        dict(index, graphs=left_out),
        dict(index, graphs=left_out, dropped=dropped("test", "COIN01", 5)),
        dict(index, dropped=dropped("val", "COIN99", 2)),
        dict(index, graphs=index["graphs"][::-1]),
    ):
        path.write_text(json.dumps(edited))
        assert main(["featurize", "--out", str(settled)]) == 3
        assert capsys.readouterr().err == not_current("graphs", "outputs changed: graphs/index.json")

    with open(settled / "data" / "corpus.jsonl", "a", encoding="utf-8") as fh:
        fh.write((FIXTURES / "sui_case.jsonl").read_text().splitlines(keepends=True)[0])
    for args in (["parse"], ["events", "--single-period"], ["graphs"], ["featurize"]):
        assert main([*args, "--out", str(settled)]) == 0, args
    index = json.loads(path.read_text())
    assert index["dropped"] == [{"period": "all", "cryptocurrency": "SUI", "spreaders": 1}]
    assert {g["period"] for g in index["graphs"]} == {"all"}
    assert sorted(p.name for p in (settled / "graphs").iterdir()) == ["all", "index.json"]
    assert not list((settled / "graphs" / "all").glob("SUI.*"))
    assert sorted(p.name for p in (settled / "features").glob("*.csv")) == ["all.csv"]
    index["dropped"][0]["spreaders"] = 2
    path.write_text(json.dumps(index))
    assert main(["featurize", "--out", str(settled)]) == 3
    assert capsys.readouterr().err == not_current("graphs", "outputs changed: graphs/index.json")


def test_featurize_writes_no_features_for_a_period_left_without_a_graph(settled):
    """A (period, coin) cut to one spreader is dropped by graphs, which
    writes none of its tables, and featurize then writes no CSV for its
    period, which has no other graph. The stage functions are called
    directly, as the provenance check stops a hand-cut events.jsonl."""
    events = settled / "events.jsonl"
    rows = [json.loads(row) for row in events.read_text().splitlines()]
    pair = lambda e: (e["period"], e["cryptocurrency"])
    single = next(e for e in rows if pair(e) == ("test", "COIN01") and len(e["messages"]) == 1)
    kept = [e for e in rows if pair(e) != ("test", "COIN01") or e is single]
    events.write_text("".join(json.dumps(e) + "\n" for e in kept))
    cfg = build_config(None, out_override=str(settled))
    cli._graphs(cfg)
    index = json.loads((settled / "graphs" / "index.json").read_text())
    assert index["dropped"] == [{"period": "test", "cryptocurrency": "COIN01", "spreaders": 1}]
    assert "test" not in {g["period"] for g in index["graphs"]}
    assert not (settled / "graphs" / "test").exists()
    cli._featurize(cfg)
    assert (settled / "features" / "train.csv").exists()
    assert not (settled / "features" / "test.csv").exists()


def test_bad_graph_file_fails_with_exit_3(settled, tmp_path, capsys):
    """Featurize stops on a graph table or events.jsonl that its writer did
    not write (a ghost edge, an emptied or one-digit-off table; an emptied
    events.jsonl, or one without a graph's events), and on graphs that the
    graphs stage would re-run for, as they were built under the other
    aggregation. A malformed table line is named by load_graph's own test."""
    index = json.loads((settled / "graphs" / "index.json").read_text())["graphs"][0]
    graph_id = f"{index['period']}/{index['coin']}"
    events = [json.loads(row) for row in (settled / "events.jsonl").read_text().splitlines()]
    others = [e for e in events if f"{e['period']}/{e['cryptocurrency']}" != graph_id]
    assert 0 < len(others) < len(events)
    quotient = write_config(tmp_path / "quotient.json", aggregation="paper_literal_quotient")
    cases = ("ghost_edge", "no_events", "one_graph_without_events", "no_edges", "one_digit", "quotient")
    for case in cases:
        out = tmp_path / case
        shutil.copytree(settled, out)
        path = out / "graphs" / index["period"] / f"{index['coin']}.weighted.tsv"
        if case in ("no_events", "one_graph_without_events"):
            kept = [] if case == "no_events" else others
            (out / "events.jsonl").write_text("".join(json.dumps(e) + "\n" for e in kept))
            want = not_current("events", "outputs changed: events.jsonl")
        else:
            if case == "ghost_edge":
                with open(path, "a", encoding="utf-8") as fh:
                    fh.write("ghost\tnobody\t0.5\n")
            elif case == "no_edges":
                path.write_text("")
            elif case == "one_digit":
                first, *rest = path.read_text().splitlines(keepends=True)
                digit = str((int(first[-2]) + 1) % 10)
                path.write_text("".join([first[:-2] + digit + "\n", *rest]))
            else:
                assert main(["graphs", "--out", str(out), "--config", quotient]) == 0
            reason = "settings changed" if case == "quotient" else f"outputs changed: {path.relative_to(out)}"
            want = not_current("graphs", reason)
        assert main(["featurize", "--out", str(out)]) == 3, case
        assert capsys.readouterr().err == want, case
    assert main(["featurize", "--out", str(out), "--config", quotient]) == 0


@pytest.mark.parametrize("stage", ["featurize", "train", "infer"])
def test_a_stage_reads_graphs_only_while_the_graphs_stage_would_skip(settled, tmp_path, capsys, stage):
    """Featurize, train and infer stop on graph files the graphs stage did
    not write (an emptied table, an index rewritten with the same content)
    or that no manifest lists, and on what depends on a changed events.jsonl
    or on graphs rebuilt under the other aggregation: featurize reads those
    itself and names events or graphs; train and infer read the features
    built from them and name featurize. The stage's own manifest is removed,
    so it runs rather than skips."""
    table = Path("graphs/test/COIN01.weighted.tsv")
    quotient = write_config(tmp_path / "quotient.json", aggregation="paper_literal_quotient")

    def edit_index(out):
        path = out / "graphs" / "index.json"
        path.write_text(json.dumps(json.loads(path.read_text())))

    def edit_events(out):
        path = out / "events.jsonl"
        path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))

    def rebuilt(out):
        """The graph files whose bytes the quotient rebuild changed."""
        files = sorted(str(p.relative_to(out)) for p in (out / "graphs").rglob("*") if p.is_file())
        return ", ".join(f for f in files if (out / f).read_bytes() != (settled / f).read_bytes())

    direct = stage == "featurize"
    cases = {
        "emptied_table": (
            lambda out: (out / table).write_text(""),
            lambda out: not_current("graphs", f"outputs changed: {table}", stage),
        ),
        "edited_index": (
            edit_index, lambda out: not_current("graphs", "outputs changed: graphs/index.json", stage)
        ),
        "changed_events": (
            edit_events,
            lambda out: not_current("events", "outputs changed: events.jsonl", stage)
            if direct
            else not_current("featurize", "inputs changed: events.jsonl", stage),
        ),
        "other_aggregation": (
            lambda out: main(["graphs", "--out", str(out), "--config", quotient]),
            lambda out: not_current("graphs", "settings changed", stage)
            if direct
            else not_current("featurize", f"inputs changed: {rebuilt(out)}", stage),
        ),
        "no_manifest": (
            lambda out: (out / "manifests" / "graphs.json").unlink(),
            lambda out: unlisted(out / "graphs" / "index.json", stage),
        ),
    }
    for case, (edit, want) in cases.items():
        out = tmp_path / case
        shutil.copytree(settled, out)
        edit(out)
        (out / "manifests" / f"{stage}.json").unlink()
        capsys.readouterr()
        assert main([stage, "--out", str(out)]) == 3, case
        assert capsys.readouterr().err == want(out), case


@pytest.mark.parametrize("stage", ["flag", "graphs"])
def test_an_empty_event_file_fails_with_exit_3(settled, capsys, stage):
    """The events stage never writes an empty events.jsonl, so an emptied one
    is not current, not an empty flags.jsonl or a complaint about spreader
    counts (featurize's case is in test_bad_graph_file_fails_with_exit_3;
    read_events names an empty file in its own test)."""
    (settled / "events.jsonl").write_text("")
    assert main([stage, "--out", str(settled)]) == 3
    assert capsys.readouterr().err == not_current("events", "outputs changed: events.jsonl", stage)


def test_a_retune_draws_no_random_initialization(settled, tmp_path):
    """With threshold_grid the only edit, only evaluate re-runs. It checks
    model.json's layers against the config without drawing a random
    initialization, so the process leaves numpy.random unimported (unless
    importing numpy already imports it, as older numpy releases do)."""
    config = write_config(tmp_path / "retune.json", threshold_grid=[0.0, 0.25, 0.5, 0.75, 1.0])
    code = (
        "import sys, numpy\n"
        "eager = 'numpy.random' in sys.modules\n"
        "from perseus.cli import main\n"
        "assert main(['all', '--out', sys.argv[1], '--config', sys.argv[2]]) == 0\n"
        "print(eager, 'numpy.random' in sys.modules)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, str(settled), config],
        capture_output=True,
        text=True,
        env=dict(os.environ, PERSEUS_LOG="INFO"),
    )
    assert done.returncode == 0, done.stderr
    assert re.findall(r"perseus\.cli: (\w+): wrote \d+ artifact", done.stderr) == ["evaluate"]
    eager, loaded = done.stdout.splitlines()[-1].split()
    assert loaded == "False" or eager == "True"


def test_featurize_leaves_numpy_ma_unimported(settled, tmp_path):
    """Featurize (outcomes, features and Louvain) runs without importing
    numpy.ma, unless importing numpy already imports it, as numpy 1.x does."""
    config = write_config(tmp_path / "rule.json", return_rule="paper_literal")
    code = (
        "import sys, numpy\n"
        "eager = 'numpy.ma' in sys.modules\n"
        "from perseus.cli import main\n"
        "assert main(['featurize', '--out', sys.argv[1], '--config', sys.argv[2]]) == 0\n"
        "print(eager, 'numpy.ma' in sys.modules)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, str(settled), config],
        capture_output=True,
        text=True,
        env=dict(os.environ, PERSEUS_LOG="INFO"),
    )
    assert done.returncode == 0, done.stderr
    assert re.findall(r"perseus\.cli: (\w+): wrote \d+ artifact", done.stderr) == ["featurize"]
    eager, loaded = done.stdout.splitlines()[-1].split()
    if eager == "True":
        pytest.skip("importing numpy imports numpy.ma")
    assert loaded == "False"


@pytest.mark.parametrize(
    "stage, row",
    [
        ("infer", "x"),
        ("evaluate", "x"),
        ("train", "a,one,train/COIN00"),
        ("train", "a,0,train/COIN00" + ",heavy" * len(FEATURE_COLUMNS)),
        ("train", "a,2,train/COIN00" + ",0.5" * len(FEATURE_COLUMNS)),
    ],
    ids=[
        "infer_short_row", "evaluate_short_row", "train_short_row", "train_bad_cell", "train_bad_label"
    ],
)
def test_bad_features_file_fails_with_exit_3(settled, capsys, stage, row):
    """A row featurize did not write is not current; read_features_csv names
    each of these rows by line in its own test."""
    split = "train" if stage == "train" else "val"
    with open(settled / "features" / f"{split}.csv", "a", encoding="utf-8") as fh:
        fh.write(row + "\n")
    argv = [stage, "--out", str(settled)] + ([] if stage == "train" else ["--split", split])
    assert main(argv) == 3
    want = not_current("featurize", f"outputs changed: features/{split}.csv", stage)
    assert capsys.readouterr().err == want


@pytest.mark.parametrize("label", [2, 0.9, "1", True], ids=["two", "fraction", "string", "true"])
def test_a_label_other_than_0_or_1_fails_featurize_with_exit_3(settled, capsys, label):
    path = settled / "data" / "labels.json"
    obj = json.loads(path.read_text())
    entity = sorted(obj["labels"])[0]
    obj["labels"][entity] = label
    path.write_text(json.dumps(obj))
    assert main(["all", "--out", str(settled)]) == 3
    assert capsys.readouterr().err == (
        f"data error: featurize: {path}: label of {entity!r} is {label!r}, not 0 or 1\n"
    )


def test_threshold_grid_edit_reruns_only_evaluate(settled, tmp_path):
    predictions = (settled / "predictions.jsonl").read_bytes()
    config = write_config(tmp_path / "grid.json", threshold_grid=[0.0, 0.25, 0.5, 0.75, 1.0])
    assert stages_run(settled, "--config", config) == ["evaluate"]
    assert (settled / "predictions.jsonl").read_bytes() == predictions
    assert len(json.loads((settled / "report.json").read_text())["sweep"]) == 5


def test_epochs_edit_reruns_train_onwards(settled, tmp_path):
    config = write_config(tmp_path / "epochs.json", model={"epochs": 20})
    assert stages_run(settled, "--config", config) == ["train", "infer", "evaluate"]


def test_val_features_are_not_a_training_input(settled):
    model = (settled / "model.json").read_bytes()
    with open(settled / "features" / "val.csv", "ab") as fh:
        fh.write(b"x")
    done = run_cli("train", "--out", str(settled), env=dict(os.environ, PERSEUS_LOG="INFO"))
    assert done.returncode == 0, done.stderr
    assert "train: inputs unchanged, skipping" in done.stderr, done.stderr
    # val.csv is featurize's own output, so featurize restores it and nothing
    # downstream re-runs.
    assert stages_run(settled) == ["featurize"]
    assert (settled / "model.json").read_bytes() == model


def test_evaluate_closes_every_file_it_reads(settled):
    cfg = build_config(None, out_override=str(settled))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        _evaluate(cfg, "test")
        gc.collect()
    leaked = [str(w.message) for w in caught if issubclass(w.category, ResourceWarning)]
    assert leaked == []


def test_training_is_byte_reproducible(pipeline, tmp_path):
    clone = tmp_path / "clone"
    shutil.copytree(pipeline, clone)
    (clone / "model.json").unlink()
    (clone / "history.csv").unlink()
    (clone / "manifests" / "train.json").unlink()
    done = run_cli("train", "--out", str(clone))
    assert done.returncode == 0, done.stderr
    assert (clone / "model.json").read_bytes() == (pipeline / "model.json").read_bytes()


def test_infer_prints_the_detected_spreaders(pipeline):
    done = run_cli("infer", "--out", str(pipeline), "--split", "test")
    assert done.returncode == 0, done.stderr
    detected = json.loads(done.stdout)
    assert isinstance(detected, list)
    positive = [
        json.loads(line)
        for line in (pipeline / "predictions.jsonl").read_text().splitlines()
        if json.loads(line)["predicted"] == 1
    ]
    assert len(detected) == len(positive)
    for row in detected:
        assert set(row) == {"graph_id", "entity_id", "probability"}


def test_stage_composition_matches_all(pipeline, tmp_path):
    out = tmp_path / "staged"
    done = run_cli("synth", "--out", str(out))
    assert done.returncode == 0, done.stderr
    for stage in STAGES:
        done = run_cli(stage, "--out", str(out))
        assert done.returncode == 0, f"{stage}: {done.stderr}"
    stable = [
        "messages.jsonl",
        "skip_report.json",
        "split_plan.json",
        "events.jsonl",
        "flags.jsonl",
        "outcomes.jsonl",
        "features/standardization.json",
        "features/communities.json",
        "features/train.csv",
        "features/val.csv",
        "features/test.csv",
        "model.json",
        "predictions.jsonl",
    ]
    stable += sorted(
        str(p.relative_to(pipeline)) for p in (pipeline / "graphs").rglob("*") if p.is_file()
    )
    for name in stable:
        assert (out / name).read_bytes() == (pipeline / name).read_bytes(), name


def test_missing_artifacts_fail_with_exit_3(tmp_path):
    done = run_cli("graphs", "--out", str(tmp_path / "empty"))
    assert done.returncode == 3
    assert "missing required artifact" in done.stderr
    assert "messages.jsonl" in done.stderr
    assert "events.jsonl" in done.stderr


@pytest.mark.parametrize(
    "stage, rel",
    [("parse", "data/corpus.jsonl"), ("featurize", "data/labels.json"), ("featurize", "data/prices/DIRUSDT.csv")],
    ids=["corpus", "labels", "price_file"],
)
def test_a_directory_where_an_input_file_belongs_counts_as_missing(settled, tmp_path, capsys, stage, rel):
    """Parse requires the corpus, so it stops as it does without one;
    featurize reads the labels and each price file only where present, so
    it writes what it writes with the entry absent."""
    absent = tmp_path / "absent"
    shutil.copytree(settled, absent)
    (absent / rel).unlink(missing_ok=True)
    path = settled / rel
    path.unlink(missing_ok=True)
    path.mkdir()
    if stage == "parse":
        assert main([stage, "--out", str(settled)]) == 3
        assert capsys.readouterr().err == f"data error: parse: missing required artifact(s): {path}\n"
        return
    assert main([stage, "--out", str(absent)]) == main([stage, "--out", str(settled)]) == 0
    for name in ("outcomes.jsonl", "features/train.csv", "features/test.csv"):
        assert (settled / name).read_bytes() == (absent / name).read_bytes(), name


@pytest.mark.parametrize(
    "stage, rel, data",
    [("parse", "data/corpus.jsonl", b"\xff\n"), ("featurize", "data/prices/_.csv", None)],
    ids=["corpus_not_utf8", "price_file_without_a_coin"],
)
def test_a_data_error_names_its_file(settled, capsys, stage, rel, data):
    path = settled / rel
    path.write_bytes(data or (settled / "data" / "prices" / "COIN00USDT.csv").read_bytes())
    assert main([stage, "--out", str(settled)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {stage}: {path}: ") and len(err.splitlines()) == 1, err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_diverging_model_fails_train_with_exit_4(settled, tmp_path, capsys):
    """A learning rate the config accepts can still overflow the weights;
    train then stops on one line that names the stage."""
    config = write_config(tmp_path / "lr.json", model={"learning_rate": 1e300})
    assert main(["train", "--out", str(settled), "--config", config]) == 4
    err = capsys.readouterr().err
    assert err.splitlines()[-1].startswith("numerical failure: train: NaN in layer"), err


def test_an_empty_split_is_named(tmp_path):
    out = tmp_path / "thin"
    shape = ["--spreaders", "12", "--events", "150", "--coins", "4", "--forward-prob", "0.1"]
    done = run_cli("synth", "--out", str(out), *shape, "--synth-seed", "12")
    assert done.returncode == 0, done.stderr
    index = out / "graphs" / "index.json"
    for stage in ("infer", "evaluate"):
        done = run_cli("all" if stage == "infer" else stage, "--out", str(out))
        assert done.returncode == 3
        # The split plan keeps no token in test, so no test graph is listed.
        want = f"data error: {stage}: split 'test' is empty: {index} lists no graph in it\n"
        assert want in done.stderr
    done = run_cli("infer", "--out", str(out), "--split", "val")
    assert done.returncode == 0, done.stderr


def test_a_single_period_run_has_no_test_split(tmp_path, capsys):
    """After `events --single-period`, features/all.csv serves train only:
    infer and evaluate without --split name the empty test split."""
    out = tmp_path / "sui"
    config = write_config(
        tmp_path / "config.json",
        out_dir=str(out),
        corpus=str(FIXTURES / "sui_case.jsonl"),
        labels=str(FIXTURES / "sui_labels.json"),
        model={"epochs": 2},
    )
    for args in (["parse"], ["events", "--single-period"], ["graphs"], ["featurize"], ["train"]):
        assert main([*args, "--config", config]) == 0, args
    index = out / "graphs" / "index.json"
    for stage in ("infer", "evaluate"):
        assert main([stage, "--config", config]) == 3
        want = f"data error: {stage}: split 'test' is empty: {index} lists no graph in it\n"
        assert capsys.readouterr().err == want


def test_bad_config_reports_every_problem(tmp_path):
    config = tmp_path / "bad.json"
    config.write_text(
        json.dumps(
            {
                "mystery_field": 1,
                "split_fractions": [0.9, 0.2],
                "return_rule": "optimistic",
                "model": {"epochs": "many", "depth": 3},
            }
        )
    )
    done = run_cli("parse", "--config", str(config), "--out", str(tmp_path / "out"))
    assert done.returncode == 2
    for needle in (
        "mystery_field",
        "split_fractions",
        "return_rule",
        "model.epochs",
        "model.depth",
    ):
        assert needle in done.stderr, needle
    assert done.stderr.count("config error:") >= 5


def test_bad_synth_arguments_fail_with_exit_2(tmp_path):
    done = run_cli(
        "synth", "--out", str(tmp_path), "--spreaders", "2", "--masterminds", "3"
    )
    assert done.returncode == 2
    assert "config error: synth:" in done.stderr


SMALL_SYNTH = SynthConfig(n_spreaders=12, n_events=6, n_coins=3)
SMALL_SYNTH_ARGS = ("--spreaders", "12", "--events", "6", "--coins", "3")


@pytest.fixture(scope="module")
def small_synth_files(tmp_path_factory):
    """The files of SMALL_SYNTH written in process and in order, by name."""
    corpus = generate_corpus(SMALL_SYNTH)
    out = tmp_path_factory.mktemp("in_process")
    ingest.write_raw_messages(out / "corpus.jsonl", corpus.raw_messages)
    write_labels(out / "labels.json", corpus.truth.labels)
    write_truth(out / "truth.json", corpus.truth)
    for pair, series in generate_prices(corpus.messages, SMALL_SYNTH).items():
        market.write_price_csv(out / f"{pair}.csv", series)
    return {p.name: p.read_bytes() for p in out.iterdir()}


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_synth_files_do_not_depend_on_the_cpu_count(
    tmp_path, monkeypatch, small_synth_files, cpus
):
    monkeypatch.setattr(cli, "_cpus", lambda: cpus)
    made_here = []
    generate_prices = synth_mod.generate_prices

    def recorded(messages, config):
        series = generate_prices(messages, config)
        made_here.extend(series)
        return series

    monkeypatch.setattr(synth_mod, "generate_prices", recorded)
    assert main(["synth", "--out", str(tmp_path), *SMALL_SYNTH_ARGS]) == 0
    data = tmp_path / "data"
    files = [*data.glob("*.json*"), *(data / "prices").iterdir()]
    got = {p.name: p.read_bytes() for p in files}
    assert sorted(got) == sorted(small_synth_files)
    for name, want in small_synth_files.items():
        assert got[name] == want, name
    # This process wrote its own share of the pairs; the workers wrote the rest.
    pairs = sorted(name[: -len(".csv")] for name in got if name.endswith(".csv"))
    assert made_here == pairs[::cpus]
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("share", [0, 1], ids=["this_process", "worker"])
def test_a_failed_price_write_surfaces_and_leaves_no_process(
    tmp_path, monkeypatch, capsys, small_synth_files, share
):
    pairs = sorted(name for name in small_synth_files if name.endswith(".csv"))
    for cpus in (1, 2):
        monkeypatch.setattr(cli, "_cpus", lambda: cpus)
        out = tmp_path / f"cpus{cpus}"
        # With 2 CPUs, share 0 is this process's and share 1 the worker's.
        blocked = out / "data" / "prices" / pairs[share]
        blocked.mkdir(parents=True)
        assert main(["synth", "--out", str(out), *SMALL_SYNTH_ARGS]) == 3
        error = IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(blocked))
        assert capsys.readouterr().err == f"data error: synth: {error}\n"
        assert multiprocessing.active_children() == []


def test_cpu_count_falls_back_to_one(monkeypatch):
    assert cli._cpus() == len(os.sched_getaffinity(0))
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    assert cli._cpus() == 1
    monkeypatch.undo()
    monkeypatch.delattr(os, "sched_getaffinity")
    assert cli._cpus() == 1


@pytest.mark.parametrize(
    "argv",
    [("synth", "--synth-seed", "-1"), ("all", "--seed", "-1"), ("train", "--seed", "-1")],
)
def test_negative_seeds_are_config_errors(tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 2
    assert "config error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "fields, field",
    [
        pytest.param({"out_dir": 5}, "out_dir", id="out_dir_int"),
        pytest.param({"out_dir": ""}, "out_dir", id="out_dir_empty"),
        pytest.param({"corpus": ""}, "corpus", id="corpus"),
        pytest.param({"prices_dir": 5}, "prices_dir", id="prices_dir"),
        pytest.param({"labels": ["a"]}, "labels", id="labels"),
        pytest.param({"split_fractions": [0.5, 0.5, 0.5]}, "split_fractions", id="split_fractions"),
        pytest.param({"event_cap_hours": True}, "event_cap_hours", id="event_cap_hours_bool"),
        pytest.param({"event_cap_hours": 1e11}, "event_cap_hours", id="event_cap_hours_huge"),
        pytest.param({"return_rule": "optimistic"}, "return_rule", id="return_rule"),
        pytest.param({"aggregation": "mean"}, "aggregation", id="aggregation"),
        pytest.param({"threshold_grid": [False, True]}, "threshold_grid", id="threshold_grid_bools"),
        pytest.param({"model": {"hidden_channels": 0}}, "model.hidden_channels", id="hidden_channels"),
        pytest.param({"model": {"learning_rate": 0.0}}, "model.learning_rate", id="learning_rate"),
        pytest.param({"model": {"learning_rate": math.inf}}, "model.learning_rate", id="learning_rate_inf"),
        pytest.param({"model": {"epochs": 0}}, "model.epochs", id="epochs"),
        pytest.param({"model": {"threshold": 1.5}}, "model.threshold", id="threshold"),
        pytest.param({"model": {"seed": -1}}, "model.seed", id="seed"),
    ],
)
def test_one_bad_value_is_one_config_error(tmp_path, monkeypatch, capsys, fields, field):
    monkeypatch.chdir(tmp_path)
    config = write_config(tmp_path / "config.json", **fields)
    assert main(["all", "--config", config]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"config error: {field}: "), lines
    assert os.listdir(tmp_path) == ["config.json"]


def test_seed_is_a_flag_of_train_and_all_only(capsys):
    for command in [*STAGES, "synth"]:
        if command == "train":
            continue
        with pytest.raises(SystemExit) as exc:
            main([command, "--seed", "1"])
        assert exc.value.code == 2, command
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err, command


@pytest.mark.parametrize("edit", MODEL_FILE_EDITS.values(), ids=MODEL_FILE_EDITS)
def test_bad_model_file_fails_infer_with_exit_3(settled, capsys, edit):
    """Any model.json that train did not write is not current; load_params
    rejects each of these edits in its own test."""
    path = settled / "model.json"
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    assert main(["infer", "--out", str(settled)]) == 3
    assert capsys.readouterr().err == not_current("train", "outputs changed: model.json", "infer")


def test_a_history_that_lost_epochs_fails_evaluate_with_exit_3(settled, capsys):
    path = settled / "history.csv"
    header, *rows = path.read_text().splitlines(keepends=True)
    path.write_text("".join([header, *rows[: len(rows) // 2]]))
    assert main(["evaluate", "--out", str(settled)]) == 3
    assert capsys.readouterr().err == not_current("train", "outputs changed: history.csv", "evaluate")


def test_short_standardization_fails_train_with_exit_3(settled, capsys):
    path = settled / "features" / "standardization.json"
    obj = json.loads(path.read_text())
    path.write_text(json.dumps({key: values[:-1] for key, values in obj.items()}))
    assert main(["train", "--out", str(settled)]) == 3
    want = not_current("featurize", "outputs changed: features/standardization.json", "train")
    assert capsys.readouterr().err == want


@pytest.mark.parametrize(
    "text",
    ["[]", "{}", json.dumps({"config_hash": "0" * 64, "inputs": {}, "outputs": {}})],
    ids=["list", "empty_object", "config_hash"],
)
def test_a_manifest_without_settings_counts_as_none(settled, capsys, text):
    """A manifest that is not an object with `settings`, `inputs` and
    `outputs` objects, as one written before settings were stored is not,
    is no manifest: its stage re-runs, and no stage reads its outputs."""
    manifest = settled / "manifests" / "graphs.json"
    for stage, code in (("train", 3), ("graphs", 0)):
        manifest.write_text(text)
        assert main([stage, "--out", str(settled)]) == code, stage
    assert capsys.readouterr().err == unlisted(settled / "graphs" / "index.json", "train")
    assert json.loads(manifest.read_text())["reason"] == "no manifest"


@pytest.mark.parametrize(
    "fields, upstream, writer, reason",
    [
        ({"aggregation": "paper_literal_quotient"}, ["graphs"], "featurize", "inputs changed: graphs/"),
        ({"split_fractions": [0.6, 0.2, 0.2]}, [], "split", "settings changed"),
    ],
    ids=["quotient_graphs", "split_fractions"],
)
def test_train_and_infer_name_the_stale_stage_upstream(
    settled, tmp_path, capsys, fields, upstream, writer, reason
):
    """Under a config that changes an upstream stage, train and infer do not
    read features built before it: the check walks back from what they read
    to the first stage that would re-run. Graphs rebuilt under the quotient
    aggregation leave the features of the old graphs; a split_fractions edit
    leaves the split plan of the old fractions."""
    config = write_config(tmp_path / "config.json", **fields)
    for stage in upstream:
        assert main([stage, "--out", str(settled), "--config", config]) == 0, stage
    for stage in ("train", "infer"):
        assert main([stage, "--out", str(settled), "--config", config]) == 3, stage
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {stage}: {writer} is not current ({reason}"), err
        assert err.endswith(f"); run perseus {writer}\n") and len(err.splitlines()) == 1, err


def test_the_provenance_check_reads_each_manifest_and_file_once(settled, monkeypatch):
    manifests, hashed = [], []
    read, sha256 = cli._manifest, cli._sha256
    monkeypatch.setattr(cli, "_manifest", lambda path: manifests.append(path) or read(path))
    monkeypatch.setattr(cli, "_sha256", lambda path: hashed.append(path) or sha256(path))
    cfg = build_config(None, out_override=str(settled))
    reads = cli._paths(cfg, {"split": "test"}, cli.STAGES["evaluate"].reads)
    cli._require_current(cfg, reads, functools.cache(cli._sha256))
    assert len(manifests) == len(set(manifests)) == len(STAGES) - 1
    assert len(hashed) == len(set(hashed))
    assert set(hashed) >= set(reads)
    # A standalone stage's cache key reuses the check's hashes.
    hashed.clear()
    assert main(["infer", "--out", str(settled)]) == 0
    assert len(hashed) == len(set(hashed))
    assert set(hashed) >= set(cli._paths(cfg, {"split": "test"}, cli.STAGES["infer"].reads))


def test_a_model_override_or_threshold_edit_keeps_the_model_current(settled, tmp_path):
    """Readers of model.json take train's model config from its manifest,
    which only train's flags and config set: after `train --arch gat --seed
    3`, a standalone infer and evaluate run, and a config that changes only
    the threshold re-runs evaluate alone."""
    assert main(["train", "--out", str(settled), "--arch", "gat", "--seed", "3"]) == 0
    assert json.loads((settled / "manifests" / "train.json").read_text())["settings"]["model"]["seed"] == 3
    assert main(["infer", "--out", str(settled)]) == 0
    assert main(["evaluate", "--out", str(settled)]) == 0
    config = write_config(tmp_path / "threshold.json", model={"threshold": 0.25})
    assert main(["evaluate", "--out", str(settled), "--config", config]) == 0
    assert json.loads((settled / "report.json").read_text())["threshold_default"] == 0.25


def test_sui_fixture_recovers_its_masterminds(tmp_path):
    """The shipped SUI case, end to end through the CLI: parse the corpus,
    build its diffusion graph, train on the hand labels, and the two
    annotated masterminds come out with the two highest probabilities."""
    out = tmp_path / "sui"
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "out_dir": str(out),
                "corpus": str(FIXTURES / "sui_case.jsonl"),
                "labels": str(FIXTURES / "sui_labels.json"),
                "model": {"learning_rate": 0.01, "epochs": 200},
            }
        )
    )
    for args in (
        ("parse",),
        ("events", "--single-period"),
        ("flag",),
        ("graphs",),
        ("featurize",),
        ("train",),
        ("infer", "--split", "all"),
        ("evaluate", "--split", "all"),
    ):
        done = run_cli(*args, "--config", str(config))
        assert done.returncode == 0, f"{args}: {done.stderr}"
        if args[0] == "infer":
            detected = json.loads(done.stdout)
    rows = [
        json.loads(line)
        for line in (out / "predictions.jsonl").read_text().splitlines()
    ]
    assert len(rows) == 6
    rows.sort(key=lambda r: -r["probability"])
    assert {rows[0]["entity_id"], rows[1]["entity_id"]} == {
        "CQSScalpingFree",
        "cryptotipstrick",
    }
    assert {r["entity_id"] for r in detected} >= {"CQSScalpingFree", "cryptotipstrick"}
    assert_matches_golden(out, "sui")


CORRUPTIONS = {
    "append": lambda data: data + b"x\n",
    "truncate": lambda data: data[: len(data) // 2],
    "empty": lambda data: b"",
}


def _kind(rel):
    """Graph tables of one kind, and the price CSVs, stand in for each other."""
    if rel.parts[0] == "graphs" and rel.name != "index.json":
        return "graphs/*" + rel.name[rel.name.index("."):]
    return "data/prices/*.csv" if rel.parent == Path("data/prices") else str(rel)


def corruption_cases(out):
    """(stage, file, corruption) for every file a stage reads on `out`, one
    file per graph-table kind and one price CSV."""
    cfg = build_config(None, out_override=str(out))
    for name, stage in cli.STAGES.items():
        opts = {dest: default for dest, (default, _) in stage.options.items()}
        picked = {}
        for path in cli._paths(cfg, opts, stage.reads + stage.reads_if_present):
            rel = path.relative_to(out)
            picked.setdefault(_kind(rel), rel)
        for rel in picked.values():
            for how in CORRUPTIONS:
                yield name, rel, how


# The cases the sweep lets pass, so that a data check which stops firing is
# seen: a corpus line the parser skips (an appended `x`, a cut last line),
# and the default run's flags.jsonl, which is empty, so cutting or emptying
# it leaves it as the flag stage wrote it.
EXIT_0_CASES = [
    ("default", "parse", "data/corpus.jsonl", "append"),
    ("default", "parse", "data/corpus.jsonl", "truncate"),
    ("default", "evaluate", "flags.jsonl", "truncate"),
    ("default", "evaluate", "flags.jsonl", "empty"),
]


def writer_of(out, rel):
    """The stage whose manifest on `out` lists `rel` as written."""
    manifests = {s: json.loads((out / "manifests" / f"{s}.json").read_text()) for s in STAGES}
    return next(s for s, m in manifests.items() if str(rel) in m["outputs"])


def test_a_corrupted_artifact_is_a_data_error(pipeline, tmp_path, capsys):
    """Every file a stage reads, appended to, cut in half or emptied, gives
    exit 3 with one `data error: <stage>:` line and no traceback, or exit 0
    in exactly EXIT_0_CASES.
    A corpus, price or label file that fails to parse, as the appended `x`
    does, is named by file, and by line number in the corpus. Any other file
    is named as not current by the line that names its writer, except
    graphs/index.json: the stage parses it to list the graph files, so its
    parse error names it first."""
    bad, passed = [], []
    cases = [(pipeline, *case) for case in corruption_cases(pipeline)]
    assert len(cases) == 96
    # The default run flags no broadcast; evaluate's flags.jsonl cases also
    # run on a copy whose corpus adds the STORJ fixture, where six channels
    # post the same signal in the same second (its last line's), labelled 0.
    flagged = tmp_path / "flagged"
    shutil.copytree(pipeline, flagged)
    text = (FIXTURES / "storj_case.jsonl").read_text()
    with open(flagged / "data" / "corpus.jsonl", "a", encoding="utf-8") as fh:
        fh.write(text)
    storj = [json.loads(line) for line in text.splitlines()]
    labels = json.loads((flagged / "data" / "labels.json").read_text())
    same_second = [row["channel_id"] for row in storj if row["timestamp"] == storj[-1]["timestamp"]]
    assert len(same_second) == 6
    labels["labels"].update(dict.fromkeys(same_second, 0))
    (flagged / "data" / "labels.json").write_text(json.dumps(labels))
    assert main(["all", "--out", str(flagged)]) == 0
    assert json.loads((flagged / "report.json").read_text())["flags"] == {"events_flagged": 1}
    capsys.readouterr()
    cases += [(flagged, "evaluate", Path("flags.jsonl"), how) for how in CORRUPTIONS]
    for n, (source, stage, rel, how) in enumerate(cases):
        out = tmp_path / str(n)
        shutil.copytree(source, out)
        path, data = out / rel, (out / rel).read_bytes()
        path.write_bytes(CORRUPTIONS[how](data))
        try:
            code = main([stage, "--out", str(out)])
        except Exception as exc:  # what the console script shows as a traceback, exit 1
            code = f"{type(exc).__name__}: {exc}"
        err = capsys.readouterr().err
        if rel.parts[0] == "data":
            where = f"{path}:{len(data.splitlines()) + 1}: " if rel.suffix == ".jsonl" else f"{path}: "
            ok = err.startswith(f"data error: {stage}: ") and len(err.splitlines()) == 1
            ok = ok and (how != "append" or where in err)
        elif rel == Path("graphs/index.json"):
            ok = err.startswith(f"data error: {stage}: {path}: ") and len(err.splitlines()) == 1
        else:
            writer = writer_of(source, rel)
            ok = err == not_current(writer, f"outputs changed: {rel}", stage)
        if code == 0:
            passed.append(("flagged" if source == flagged else "default", stage, str(rel), how))
        elif not (code == 3 and ok):
            bad.append((stage, str(rel), how, code, err))
        shutil.rmtree(out)
    assert bad == []
    assert passed == EXIT_0_CASES
