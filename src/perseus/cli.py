"""Pipeline orchestration: stage subcommands over a JSON config.

Each stage reads the previous stage's artifacts from the output directory,
writes its own, and records a manifest with input/output hashes. The stage
table (`STAGES`) declares what each stage reads and which settings it uses;
re-running a stage whose files and settings are unchanged is a no-op. Exit
codes: 0 success, 2 config error, 3 data error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import logging
import math
import operator
import os
import resource
import shutil
import sys
import time
from dataclasses import asdict, dataclass, field, fields
from datetime import timedelta
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from . import diffusion, evaluation, market
from . import events as events_mod
from . import ingest
from . import synth as synth_mod
from .features import (
    FEATURE_COLUMNS,
    FeatureMatrix,
    Standardizer,
    assemble_matrix,
    compute_feature_rows,
    read_features_csv,
    write_features_csv,
)
from .features.community import louvain
from .gnn import (
    ARCHITECTURES,
    VARIANTS,
    GraphData,
    ModelConfig,
    ModelConfigError,
    load_params,
    predict,
    read_history_csv,
    save_params,
    train,
    write_history_csv,
)
from .jsonfile import read_json, read_jsonl, write_json, write_jsonl

logger = logging.getLogger("perseus.cli")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

class ConfigError(Exception):
    """Invalid pipeline config; carries one message per bad field."""

    def __init__(self, problems: Sequence[str]):
        super().__init__("; ".join(problems))
        self.problems = list(problems)


class DataError(Exception):
    """Missing or inconsistent input artifacts."""


class NumericalError(Exception):
    """Training or statistics produced non-finite numbers."""


@dataclass(frozen=True)
class PipelineConfig:
    out_dir: Path
    corpus: Path
    prices_dir: Path
    labels: Path
    split_fractions: tuple[float, float, float]
    event_cap_hours: float
    return_rule: str
    aggregation: str
    threshold_grid: tuple[float, ...]
    model: ModelConfig


def _is_number(value) -> bool:
    """An int or a finite float; a bool is never a number."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def _numbers(value, ok: Callable[[float], bool]) -> bool:
    """A list of numbers that each pass `ok`."""
    return isinstance(value, (list, tuple)) and all(_is_number(x) and ok(x) for x in value)


def _floats(values) -> tuple[float, ...]:
    return tuple(float(v) for v in values)


def _one_of(choices: tuple[str, ...]) -> tuple:
    return choices.__contains__, str, " or ".join(map(repr, choices))


_MAX_CAP_HOURS = timedelta.max // timedelta(hours=1)

_PATH = (lambda v: isinstance(v, str) and v != "", Path, "a path string")

# Each top-level field: (default, test a given value must pass, the type it is
# stored as, what an error says was expected). A callable default is a path
# under the out dir; `model` is checked field by field below.
_FIELDS: dict[str, tuple] = {
    "out_dir": ("out", *_PATH),
    "corpus": (lambda out: out / "data" / "corpus.jsonl", *_PATH),
    "prices_dir": (lambda out: out / "data" / "prices", *_PATH),
    "labels": (lambda out: out / "data" / "labels.json", *_PATH),
    "split_fractions": (
        evaluation.SPLIT_FRACTIONS,
        lambda v: _numbers(v, lambda f: 0 < f < 1) and len(v) == 3 and abs(sum(v) - 1.0) <= 1e-9,
        _floats,
        "three fractions in (0,1) summing to 1",
    ),
    "event_cap_hours": (
        events_mod.GAP_CAP / timedelta(hours=1),
        lambda v: _is_number(v) and 0 < v <= _MAX_CAP_HOURS,
        float,
        f"a positive number up to {_MAX_CAP_HOURS} (the largest timedelta)",
    ),
    "return_rule": (market.RETURN_DIRECTION_AWARE, *_one_of(market.RETURN_RULES)),
    "aggregation": (diffusion.AGG_PRODUCT, *_one_of(diffusion.AGGREGATIONS)),
    "threshold_grid": (
        evaluation.DEFAULT_GRID,
        lambda v: _numbers(v, lambda t: 0.0 <= t <= 1.0) and len(v) > 0 and list(v) == sorted(v),
        _floats,
        "a sorted list of values in [0,1]",
    ),
    "model": ({}, lambda v: isinstance(v, dict), dict, "an object"),
}

_MODEL_FIELDS = {f.name for f in fields(ModelConfig)}


def build_config(
    config_path: Optional[str],
    out_override: Optional[str] = None,
    model_overrides: Optional[dict] = None,
) -> PipelineConfig:
    """Load, default, validate; overrides are checked like file values. Reports every problem."""
    raw: dict = {}
    if config_path is not None:
        path = Path(config_path)
        if not path.exists():
            raise ConfigError([f"config file not found: {path}"])
        try:
            raw = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ConfigError([f"config is not valid JSON: {exc}"])
        if not isinstance(raw, dict):
            raise ConfigError(["config root must be a JSON object"])
    problems = [f"unknown config field {key!r}" for key in sorted(set(raw) - set(_FIELDS))]
    if out_override is not None:
        raw = {**raw, "out_dir": out_override}

    values: dict = {}
    for name, (default, test, kind, expected) in _FIELDS.items():
        if callable(default):
            default = default(values["out_dir"])
        value = raw.get(name, default)
        if name in raw and not test(value):
            problems.append(f"{name}: expected {expected}, got {value!r}")
            value = default
        values[name] = kind(value)

    model_raw = {**values.pop("model"), **(model_overrides or {})}
    problems += [f"model.{key}: unknown field" for key in sorted(set(model_raw) - _MODEL_FIELDS)]
    try:
        model = ModelConfig(**{key: value for key, value in model_raw.items() if key in _MODEL_FIELDS})
    except ModelConfigError as exc:
        problems += [f"model.{problem}" for problem in exc.problems]

    if problems:
        raise ConfigError(problems)
    return PipelineConfig(**values, model=model)


# ---------------------------------------------------------------------------
# Manifests


def _sha256(path: Path) -> str:
    """The hash of `path`, or "absent" where there is no such file."""
    if not path.is_file():
        return "absent"
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _name(cfg: PipelineConfig, path: Path) -> str:
    """`path` relative to the out dir when under it, which every output is,
    so a copied or moved out dir keeps its cache."""
    path = Path(path)
    return str(path.relative_to(cfg.out_dir) if path.is_relative_to(cfg.out_dir) else path)


def _input_hashes(cfg: PipelineConfig, paths: Sequence[Path], digest: Callable) -> dict[str, str]:
    """{name: digest(path)} of `paths`: the input half of a cache key."""
    return {_name(cfg, p): digest(p) for p in paths}


def run_stage(
    name: str,
    cfg: PipelineConfig,
    inputs: Sequence[Path],
    runner: Callable[[], Sequence[Path]],
    settings: dict,
    optional: Sequence[Path] = (),
    digest: Callable[[Path], str] = _sha256,
) -> None:
    """Run `runner` unless its cache key and its outputs are unchanged.

    The key is `settings` (the config values the stage uses) plus the hash
    of every file in `inputs`, which must exist, and of every file in
    `optional`, which enters as "absent" when missing, by `digest`: `_run`
    passes the cache its provenance check filled. A run's manifest also
    records the runner's wall `seconds`, the process's `peak_rss_kb` so far
    and the `reason` it ran.
    """
    missing = [str(p) for p in inputs if not p.is_file()]
    if missing:
        raise DataError(f"{name}: missing required artifact(s): {', '.join(missing)}")
    manifest_path = cfg.out_dir / "manifests" / f"{name}.json"
    input_hashes = _input_hashes(cfg, [*inputs, *optional], digest)
    reason = _rerun_reason(_manifest(manifest_path), settings, input_hashes, cfg.out_dir)
    if reason is None:
        logger.info("%s: inputs unchanged, skipping", name)
        return
    started = time.perf_counter()
    outputs = runner()
    manifest = {
        "stage": name,
        "settings": settings,
        "inputs": input_hashes,
        "outputs": {_name(cfg, p): _sha256(Path(p)) for p in sorted(set(outputs))},
        "seconds": time.perf_counter() - started,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "reason": reason,
    }
    write_json(manifest_path, manifest)
    logger.info("%s: wrote %d artifact(s)", name, len(outputs))


def _manifest(path: Path) -> Optional[dict]:
    """The manifest at `path`, or None where there is none: no file, not JSON,
    or no `settings` (as plain JSON), `inputs` and `outputs` objects."""
    try:
        stored = read_json(path)
    except (FileNotFoundError, ValueError):
        return None
    keys = ("settings", "inputs", "outputs")
    return stored if isinstance(stored, dict) and all(isinstance(stored.get(k), dict) for k in keys) else None


def _rerun_reason(
    stored: Optional[dict], settings: dict, input_hashes: dict[str, str], out_dir: Optional[Path] = None
) -> Optional[str]:
    """Why a stage must run: no manifest, changed settings, the keys of the
    changed inputs or, given `out_dir`, of the changed outputs. None when
    the stored manifest holds."""
    if stored is None:
        return "no manifest"
    if json.dumps(stored["settings"], sort_keys=True) != json.dumps(settings, sort_keys=True):
        return "settings changed"
    old = stored["inputs"]
    changed = sorted(k for k in old.keys() | input_hashes.keys() if old.get(k) != input_hashes.get(k))
    if changed:
        return f"inputs changed: {', '.join(changed)}"
    if out_dir is None:
        return None
    changed = sorted(p for p, h in stored["outputs"].items() if _sha256(out_dir / p) != h)
    return f"outputs changed: {', '.join(changed)}" if changed else None


# ---------------------------------------------------------------------------
# What the stages read: a path relative to the output directory, or a
# function of (config, options) that lists paths.

PathList = Callable[[PipelineConfig, dict], list[Path]]
STANDARDIZATION = "features/standardization.json"


def _features_path(cfg: PipelineConfig, split: str) -> Path:
    """features/<split>.csv; for train, features/all.csv where that is the
    one feature file, after `events --single-period`."""
    path = cfg.out_dir / "features" / f"{split}.csv"
    alt = cfg.out_dir / "features" / "all.csv"
    return alt if split == "train" and not path.exists() and alt.exists() else path


def _split_features(cfg: PipelineConfig, opts: dict) -> list[Path]:
    return [_features_path(cfg, opts["split"])]


def _graph_files(cfg: PipelineConfig, opts: dict) -> list[Path]:
    return diffusion.graph_files(cfg.out_dir / "graphs")


def _paths(cfg: PipelineConfig, opts: dict, reads: Sequence) -> list[Path]:
    paths: list[Path] = []
    for item in reads:
        paths.extend([cfg.out_dir / item] if isinstance(item, str) else item(cfg, opts))
    return paths


def _require_graphs_in(cfg: PipelineConfig, split: str) -> None:
    """A ValueError naming `split` when the graph index lists no graph in
    that period."""
    root = cfg.out_dir / "graphs"
    index = root / diffusion.INDEX
    if index.exists() and split not in {p for p, _ in diffusion.graph_index(root)}:
        raise ValueError(f"split {split!r} is empty: {index} lists no graph in it")


# ---------------------------------------------------------------------------
# What the stages do: each returns the artifacts it wrote. A ValueError
# (naming the bad file where there is one) or OSError is a data error of the
# stage and an ArithmeticError a numerical failure: `_run` adds its name.


def _parse(cfg: PipelineConfig) -> list[Path]:
    messages, report = ingest.read_corpus(cfg.corpus)
    if not messages:
        raise ValueError(f"no crowd-pump messages found in {cfg.corpus}")
    out = cfg.out_dir / "messages.jsonl"
    ingest.write_messages(out, messages)
    summary = dict(report.as_dict())
    summary["accepted"] = len(messages)
    return [out, write_json(cfg.out_dir / "skip_report.json", summary)]


def _split(cfg: PipelineConfig) -> list[Path]:
    messages = ingest.read_messages(cfg.out_dir / "messages.jsonl")
    plan = evaluation.chronological_split(messages, cfg.split_fractions)
    return [write_json(cfg.out_dir / "split_plan.json", plan.to_json())]


def _events(cfg: PipelineConfig, single_period: bool) -> list[Path]:
    messages = ingest.read_messages(cfg.out_dir / "messages.jsonl")
    if single_period:
        period_of = lambda m: "all"
    else:
        plan = read_json(cfg.out_dir / "split_plan.json", evaluation.SplitPlan.from_json)
        period_of = plan.split_of
    event_sets = events_mod.build_event_sets(messages, period_of, timedelta(hours=cfg.event_cap_hours))
    if not event_sets:
        raise ValueError("no events produced from the corpus")
    return [write_jsonl(cfg.out_dir / "events.jsonl", events_mod.event_rows(event_sets))]


def _read_event_sets(cfg: PipelineConfig):
    messages = ingest.read_messages(cfg.out_dir / "messages.jsonl")
    by_pid = {m.pid: m for m in messages}
    event_sets = events_mod.read_events(cfg.out_dir / "events.jsonl", by_pid)
    return messages, event_sets


def _flag(cfg: PipelineConfig) -> list[Path]:
    _, event_sets = _read_event_sets(cfg)
    all_events = [e for events in event_sets.values() for e in events]
    all_events.sort(key=lambda e: e.event_id)
    flags = events_mod.flag_concurrent_broadcasts(all_events)
    return [write_jsonl(cfg.out_dir / "flags.jsonl", map(vars, flags))]


def _graphs(cfg: PipelineConfig) -> list[Path]:
    _, event_sets = _read_event_sets(cfg)
    graphs, dropped = diffusion.build_graphs(event_sets, mode=cfg.aggregation)
    if not graphs:
        raise ValueError(
            f"every coin fell below the minimum spreader count ({diffusion.MIN_SPREADERS})"
        )
    return diffusion.save_graphs(cfg.out_dir / "graphs", graphs, dropped)


def _featurize(cfg: PipelineConfig) -> list[Path]:
    messages, event_sets = _read_event_sets(cfg)
    graphs = diffusion.load_graphs(cfg.out_dir / "graphs")
    prices = market.iter_price_dir(cfg.prices_dir)
    outcomes, missing = market.compute_outcomes(messages, prices, cfg.return_rule)
    labels = synth_mod.load_labels(cfg.labels) if cfg.labels.is_file() else {}

    if missing:
        logger.warning("featurize: %d message(s) had no usable price data", len(missing))
    by_graph_spreader: dict[str, dict[str, list]] = {}
    for (period, coin), events in event_sets.items():
        bucket = by_graph_spreader.setdefault(f"{period}/{coin}", {})
        for event in events:
            for message in event.messages:
                bucket.setdefault(message.entity_id, []).append(message)
    by_period: dict[str, list[FeatureMatrix]] = {}
    communities = {}
    for graph_id, graph in sorted(graphs.items()):
        rows = compute_feature_rows(graph, by_graph_spreader[graph_id], outcomes)
        graph_labels = {n: labels.get(n, -1) for n in graph.nodes}
        by_period.setdefault(graph.period, []).append(assemble_matrix(graph, rows, graph_labels))
        partition = louvain(graph.weighted)
        communities[graph_id] = {
            "assignment": {node: int(partition.assignment[i]) for i, node in enumerate(graph.nodes)},
            "modularity": float(partition.modularity),
            "n_communities": partition.n_communities,
        }
    fit_period = "train" if "train" in by_period else sorted(by_period)[0]
    standardizer = Standardizer.fit([m.x for m in by_period[fit_period]])

    # features/ holds only what featurize writes: a period left without a
    # graph keeps no CSV from an earlier run.
    features = cfg.out_dir / "features"
    if features.exists():
        shutil.rmtree(features)
    written = [
        write_jsonl(cfg.out_dir / "outcomes.jsonl", (vars(outcomes[pid]) for pid in sorted(outcomes))),
        write_json(features / "communities.json", communities),
        write_json(cfg.out_dir / STANDARDIZATION, standardizer.to_json(), indent=None),
    ]
    for period, mats in sorted(by_period.items()):
        written.append(features / f"{period}.csv")
        write_features_csv(written[-1], mats)
    return written


def _model_inputs(cfg: PipelineConfig, split: str) -> list[GraphData]:
    """The feature matrices of `split`, standardized and joined to their
    stored graphs, in graph id order."""
    standardizer = read_json(cfg.out_dir / STANDARDIZATION, Standardizer.from_json)
    graphs = diffusion.load_graphs(cfg.out_dir / "graphs")
    matrices = read_features_csv(_features_path(cfg, split))
    return [
        GraphData(
            graph_id=mat.graph_id,
            nodes=mat.entity_ids,
            x=standardizer.transform(mat.x),
            y=mat.y,
            weighted=graphs[mat.graph_id].weighted,
        )
        for mat in sorted(matrices, key=lambda m: m.graph_id)
    ]


def _train(cfg: PipelineConfig) -> list[Path]:
    train_graphs = [g for g in _model_inputs(cfg, "train") if np.all(g.y >= 0)]
    if not train_graphs:
        raise ValueError("no fully labeled training graphs")
    params, history = train(cfg.model, train_graphs)
    if not all(np.isfinite(r.train_loss) for r in history):
        raise FloatingPointError("loss diverged to a non-finite value")
    model_path = cfg.out_dir / "model.json"
    save_params(model_path, params, cfg.model, in_dim=train_graphs[0].x.shape[1])
    history_path = cfg.out_dir / "history.csv"
    write_history_csv(history_path, history)
    return [model_path, history_path]


def _infer(cfg: PipelineConfig, split: str) -> list[Path]:
    params, model_cfg, _ = load_params(cfg.out_dir / "model.json")
    rows, timings = [], []
    for g in _model_inputs(cfg, split):
        started = time.perf_counter()
        labels_pred, probs = predict(params, model_cfg, g)
        timings.append({"nodes": g.n_nodes, "seconds": time.perf_counter() - started})
        rows += (
            {"graph_id": g.graph_id, "entity_id": node, "probability": float(prob),
             "predicted": int(pred)}
            for node, pred, prob in zip(g.nodes, labels_pred, probs)
        )
    out = write_jsonl(cfg.out_dir / "predictions.jsonl", rows)
    return [out, write_json(cfg.out_dir / "inference_timing.json", timings)]


def _print_detected(cfg: PipelineConfig) -> None:
    detected = [
        {key: row[key] for key in ("graph_id", "entity_id", "probability")}
        for row in read_jsonl(cfg.out_dir / "predictions.jsonl")
        if row["predicted"] == 1
    ]
    detected.sort(key=lambda r: (r["graph_id"], -r["probability"], r["entity_id"]))
    print(json.dumps(detected, indent=1))


def _evaluate(cfg: PipelineConfig, split: str) -> list[Path]:
    by_node = {
        (mat.graph_id, node): (int(label), x)
        for mat in read_features_csv(_features_path(cfg, split))
        for node, label, x in zip(mat.entity_ids, mat.y, mat.x)
    }
    probs, labels, feature_rows = [], [], []
    for row in read_jsonl(cfg.out_dir / "predictions.jsonl"):
        label, x = by_node.get((row["graph_id"], row["entity_id"]), (-1, None))
        if label >= 0:
            probs.append(row["probability"])
            labels.append(label)
            feature_rows.append(x)
    if not probs:
        raise ValueError(f"no labeled nodes in split {split!r}")
    p = np.array(probs)
    y = np.array(labels)
    sweep = evaluation.threshold_sweep(p, y, cfg.threshold_grid)
    best = evaluation.best_threshold(sweep)
    at_default = evaluation.metrics(evaluation.confusion_from(y, p >= cfg.model.threshold))
    at_best = evaluation.metrics(evaluation.confusion_from(y, p >= best))
    try:
        auc = evaluation.roc_auc(p, y)
    except ValueError:
        auc = None
    tests = evaluation.feature_t_tests(np.array(feature_rows), y, FEATURE_COLUMNS)
    t_tests = {
        name: None if r is None else {"statistic": float(r[0]), "p_value": float(r[1])}
        for name, r in tests.items()
    }
    history_path = cfg.out_dir / "history.csv"
    history = read_history_csv(history_path) if history_path.exists() else None
    timing_path = cfg.out_dir / "inference_timing.json"
    samples = []
    if timing_path.exists():
        samples = read_json(timing_path, lambda ts: [(t["nodes"], t["seconds"]) for t in ts])
    timing = evaluation.timing_report([r.seconds for r in history], samples) if history else {}
    flags_summary = {}
    flags_path = cfg.out_dir / "flags.jsonl"
    if flags_path.exists():
        flags_summary = {"events_flagged": len(list(read_jsonl(flags_path)))}
    report = {
        "split": split,
        "n_nodes": int(len(y)),
        "n_masterminds": int(np.sum(y == 1)),
        "zero_denominator_rule": "metrics with zero denominators are reported as 0",
        "threshold_default": cfg.model.threshold,
        "metrics_at_default": at_default,
        "best_threshold": best,
        "metrics_at_best": at_best,
        "auc": auc,
        "sweep": sweep,
        "t_tests": t_tests,
        "flags": flags_summary,
        "epochs_trained": None if history is None else len(history),
        "timing": timing,
    }
    return [write_json(cfg.out_dir / "report.json", report)]


# ---------------------------------------------------------------------------
# The stage table


@dataclass(frozen=True)
class Stage:
    """One pipeline stage and its cache key.

    `run(cfg, **opts)` does the work. `reads` lists the files it needs and
    `reads_if_present` those it reads only when they exist; `keys` names the
    settings it uses: config fields (dotted into `model`) or its `options`,
    command-line flags given as {name: (default, help)}. A stage re-runs
    when one of these or one of its outputs changed.
    """

    help: str
    run: Callable[..., list[Path]]
    reads: tuple[str | PathList, ...]
    reads_if_present: tuple[str | PathList, ...] = ()
    keys: tuple[str, ...] = ()
    options: dict = field(default_factory=dict)


SPLIT_OPTION = {"split": ("test", "feature split to use (default test)")}

STAGES: dict[str, Stage] = {
    "parse": Stage(
        "extract crowd-pump messages from the raw corpus",
        _parse,
        reads=(lambda cfg, o: [cfg.corpus],),
    ),
    "split": Stage(
        "search chronological train/val/test cuts by token count",
        _split,
        reads=("messages.jsonl",),
        keys=("split_fractions",),
    ),
    "events": Stage(
        "segment messages into crowd-pump events",
        _events,
        reads=(
            "messages.jsonl",
            lambda cfg, o: [] if o["single_period"] else [cfg.out_dir / "split_plan.json"],
        ),
        keys=("event_cap_hours", "single_period"),
        options={
            "single_period": (False, "skip the split plan and treat the whole corpus as one period")
        },
    ),
    "flag": Stage(
        "flag scripted concurrent broadcasts",
        _flag,
        reads=("messages.jsonl", "events.jsonl"),
    ),
    "graphs": Stage(
        "infer diffusion graphs per (period, coin)",
        _graphs,
        reads=("messages.jsonl", "events.jsonl"),
        keys=("aggregation",),
    ),
    "featurize": Stage(
        "market outcomes, node features, communities",
        _featurize,
        reads=(
            "messages.jsonl",
            "events.jsonl",
            _graph_files,
            lambda cfg, o: market.price_files(cfg.prices_dir),
        ),
        reads_if_present=(lambda cfg, o: [cfg.labels],),
        keys=("return_rule",),
    ),
    "train": Stage(
        "train the spreader classifier",
        _train,
        reads=(lambda cfg, o: [_features_path(cfg, "train")], STANDARDIZATION, _graph_files),
        # The whole model config is saved into model.json.
        keys=("model",),
    ),
    "infer": Stage(
        "predict mastermind probabilities",
        _infer,
        reads=("model.json", _split_features, STANDARDIZATION, _graph_files),
        keys=("split",),
        options=SPLIT_OPTION,
    ),
    "evaluate": Stage(
        "metrics, sweeps, t-tests, timing report",
        _evaluate,
        reads=("predictions.jsonl", _split_features),
        reads_if_present=("history.csv", "model.json", "inference_timing.json", "flags.jsonl"),
        keys=("threshold_grid", "model.threshold", "split"),
        options=SPLIT_OPTION,
    ),
}

STAGE_ORDER = tuple(STAGES)


def _settings(cfg: PipelineConfig, opts: dict, keys: Sequence[str]) -> dict:
    """The values of `keys` in `opts` or else the config; a dotted key reads into `model`."""
    settings = {**asdict(cfg), **opts}
    return {key: functools.reduce(operator.getitem, key.split("."), settings) for key in keys}


def _require_current(cfg: PipelineConfig, files: Sequence[Path], digest: Callable) -> None:
    """A ValueError unless each of `files` but the corpus, labels and price
    files hashes to what a manifest records as written, and the stage that
    wrote it would not re-run for its settings or inputs, whose files are
    checked the same way. Settings that the reading command cannot give come
    from the writer's manifest: its options and train's model config, which
    model.json records for its readers. Each level's files, then their
    writers, go in sorted order; each manifest is read, each file hashed
    (by `digest`, a cache) and each writer checked at most once."""
    manifest = functools.cache(lambda name: _manifest(cfg.out_dir / "manifests" / f"{name}.json"))
    checked: set[str] = set()
    is_source = lambda p: p in (cfg.corpus, cfg.labels) or p.parent == cfg.prices_dir

    def stale(writer: str, reason: str) -> ValueError:
        return ValueError(f"{writer} is not current ({reason}); run perseus {writer}")

    def walk(paths: Sequence[Path]) -> None:
        writers = []
        # A missing file is left to run_stage.
        for path in sorted(p for p in paths if p.is_file() and not is_source(p)):
            name = _name(cfg, path)
            writer = next((w for w in STAGE_ORDER if name in (manifest(w) or {}).get("outputs", ())), None)
            if writer is None:
                raise ValueError(f"{path}: no manifest lists it; run the stage that writes it")
            if digest(path) != manifest(writer)["outputs"][name]:
                raise stale(writer, f"outputs changed: {name}")
            writers.append(writer)
        for writer in dict.fromkeys(writers):
            if writer in checked:
                continue
            checked.add(writer)
            stored, spec = manifest(writer), STAGES[writer]
            opts = {k: stored["settings"].get(k) for k in spec.keys if k in spec.options or k == "model"}
            # Listing the graph files parses graphs/index.json.
            reads = _paths(cfg, opts, spec.reads + spec.reads_if_present)
            reason = _rerun_reason(stored, _settings(cfg, opts, spec.keys), _input_hashes(cfg, reads, digest))
            if reason is not None:
                raise stale(writer, reason)
            walk(reads)

    walk(files)


def _run(name: str, cfg: PipelineConfig, verified: bool = False, **opts) -> None:
    """Run stage `name` through the cache, requiring what it reads to be
    current unless `verified`: an earlier stage of the same command verified
    (by skipping) or wrote every file this one reads. A ValueError or OSError
    raised on the way is a data error and an ArithmeticError a numerical
    failure, each naming the stage."""
    stage = STAGES[name]
    opts = {dest: default for dest, (default, _) in stage.options.items()} | opts
    settings = _settings(cfg, opts, stage.keys)
    # Each file is hashed once per command: run_stage reuses the check's hashes.
    digest = functools.cache(_sha256)
    try:
        # Listing the graph files parses graphs/index.json.
        reads, optional = (_paths(cfg, opts, r) for r in (stage.reads, stage.reads_if_present))
        if not verified:
            _require_current(cfg, [*reads, *optional], digest)
        if "split" in opts:
            _require_graphs_in(cfg, opts["split"])
        run_stage(name, cfg, reads, lambda: stage.run(cfg, **opts), settings, optional, digest=digest)
    except (ValueError, OSError) as exc:
        raise DataError(f"{name}: {exc}") from exc
    except ArithmeticError as exc:
        raise NumericalError(f"{name}: {exc}") from exc


stage_parse = functools.partial(_run, "parse")
stage_split = functools.partial(_run, "split")
stage_events = functools.partial(_run, "events")
stage_flag = functools.partial(_run, "flag")
stage_graphs = functools.partial(_run, "graphs")
stage_featurize = functools.partial(_run, "featurize")
stage_train = functools.partial(_run, "train")
stage_infer = functools.partial(_run, "infer")
stage_evaluate = functools.partial(_run, "evaluate")


def _cpus() -> int:
    """CPUs this process may run on, or 1 where that or fork is unknown."""
    # Imported where synth uses it: at module level it added 0.65 MB to the
    # peak RSS of every other command, none of which forks.
    import multiprocessing

    if not hasattr(os, "sched_getaffinity") or "fork" not in multiprocessing.get_all_start_methods():
        return 1
    return len(os.sched_getaffinity(0))


def _write_prices(
    messages: Sequence[ingest.CrowdPumpMessage],
    synth_config: synth_mod.SynthConfig,
    prices_dir: Path,
) -> None:
    """Generate and write the price file of every pair that `messages` name."""
    # Module attributes looked up at call time, so a wrapper set on them sees the call.
    for pair, series in synth_mod.generate_prices(messages, synth_config).items():
        market.write_price_csv(prices_dir / f"{pair}.csv", series)


def stage_synth(cfg: PipelineConfig, synth_config: synth_mod.SynthConfig) -> None:
    corpus = synth_mod.generate_corpus(synth_config)
    ingest.write_raw_messages(cfg.corpus, corpus.raw_messages)
    cfg.prices_dir.mkdir(parents=True, exist_ok=True)
    # Each pair's series has its own generator, so the coins can be dealt
    # round-robin to one process per CPU; the files come out the same.
    coins = sorted({m.cryptocurrency for m in corpus.messages})
    n = min(len(coins), _cpus())
    shares = [[m for m in corpus.messages if m.cryptocurrency in coins[i::n]] for i in range(n)]
    write = functools.partial(_write_prices, synth_config=synth_config, prices_dir=cfg.prices_dir)
    if n == 1:
        write(shares[0])
    else:
        import multiprocessing

        # fork, not spawn: a spawned worker spends about 0.47 s importing
        # numpy and perseus, the time it would save. The workers call no
        # BLAS, so the idle BLAS threads a fork leaves behind do not matter.
        # Leaving the block terminates and joins the workers, also on failure.
        with multiprocessing.get_context("fork").Pool(n - 1) as pool:
            rest = pool.map_async(write, shares[1:], chunksize=1)
            write(shares[0])
            rest.get()
    synth_mod.write_labels(cfg.labels, corpus.truth.labels)
    synth_mod.write_truth(cfg.labels.with_name("truth.json"), corpus.truth)
    logger.info(
        "synth: %d raw messages, %d events, %d spreaders",
        len(corpus.raw_messages),
        len(corpus.plans),
        synth_config.n_spreaders,
    )


# ---------------------------------------------------------------------------
# Argument parsing and dispatch


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="pipeline config JSON")
    parser.add_argument("--out", help="output directory (overrides config)")


def _add_model_overrides(parser: argparse.ArgumentParser) -> None:
    """Flags whose dest is a `model` field; `main` passes them as overrides."""
    parser.add_argument("--seed", type=int, help="model seed override")
    parser.add_argument(
        "--arch", dest="architecture", choices=ARCHITECTURES, help="architecture override"
    )
    parser.add_argument(
        "--variant", dest="graph_variant", choices=VARIANTS, help="graph variant override"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="perseus",
        description="Crowd-pump diffusion pipeline: parse, segment, infer, classify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, stage in STAGES.items():
        p = sub.add_parser(name, help=stage.help)
        _add_common(p)
        for dest, (default, helptext) in stage.options.items():
            flag = "--" + dest.replace("_", "-")
            if default is False:
                p.add_argument(flag, action="store_true", help=helptext)
            else:
                p.add_argument(flag, default=default, help=helptext)
        if name == "train":
            _add_model_overrides(p)

    p = sub.add_parser("synth", help="generate a synthetic corpus with ground truth")
    _add_common(p)
    p.add_argument("--spreaders", type=int, default=30)
    p.add_argument("--masterminds", type=int, default=3)
    p.add_argument("--events", type=int, default=40)
    p.add_argument("--coins", type=int, default=6)
    p.add_argument("--forward-prob", type=float, default=0.5)
    p.add_argument("--hit-rate", type=float, default=0.5)
    p.add_argument("--synth-seed", type=int, default=0)

    p = sub.add_parser("all", help="run parse through evaluate in order")
    _add_common(p)
    _add_model_overrides(p)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    logging.basicConfig(
        level=getattr(logging, os.environ.get("PERSEUS_LOG", "WARNING").upper(), logging.WARNING),
        format="%(levelname)s %(name)s: %(message)s",
    )
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        model = {k: v for k, v in vars(args).items() if k in _MODEL_FIELDS and v is not None}
        cfg = build_config(args.config, out_override=args.out, model_overrides=model)
    except ConfigError as exc:
        for problem in exc.problems:
            print(f"config error: {problem}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        if args.command == "synth":
            try:
                synth_config = synth_mod.SynthConfig(
                    n_spreaders=args.spreaders,
                    n_masterminds=args.masterminds,
                    n_events=args.events,
                    n_coins=args.coins,
                    forward_prob=args.forward_prob,
                    target_hit_rate=args.hit_rate,
                    seed=args.synth_seed,
                )
            except ValueError as exc:
                print(f"config error: synth: {exc}", file=sys.stderr)
                return EXIT_CONFIG
            try:
                # A module global looked up at call time, so a wrapper set on it sees the call.
                stage_synth(cfg, synth_config)
            except OSError as exc:
                raise DataError(f"synth: {exc}") from exc
            return EXIT_OK
        for i, name in enumerate(STAGE_ORDER if args.command == "all" else (args.command,)):
            opts = {dest: getattr(args, dest) for dest in STAGES[name].options if dest in args}
            # Looked up at call time, so a wrapper set on cli.stage_<name> sees the call.
            # Each later stage of `all` reads only what an earlier one verified or wrote.
            globals()[f"stage_{name}"](cfg, verified=i > 0, **opts)
            if name == "infer":
                _print_detected(cfg)
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (NumericalError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
