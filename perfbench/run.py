"""perseus benchmark: one workload and one seed, timed through the CLI.

    python3 perfbench/run.py --workload msg_dense --seed 0 --seconds 30 --trace 0

Run it from the root of a checkout; it uses the checkout's ``src/`` and
writes only under ``.perfbench/`` there, which it removes again.

``--seed`` picks the ``perseus synth --synth-seed`` of each of the run's
``CORPORA`` corpora; the pipeline sees only the generated corpus, prices,
labels and truth. Every run is a closed loop of one client: one ``perseus``
process at a time. Set-up synthesises the corpora. Then, until ``--seconds``
have passed and every corpus has had a turn, each cycle runs, on the next
corpus in turn,

  cold    ``perseus all --config`` into a fresh out dir,
  retune  the same command after ``threshold_grid`` is the only config edit,
  noop    the same command again, which must skip all nine stages,

and checks the outputs. ``--trace 1`` uses one corpus, and after the cycles
adds one traced cold run, then a traced retune, no-op, ``train --arch
<other>`` probe and set-up, all in-process through ``perfbench/trace.py``; it
reports per-layer metrics instead of the end-to-end ones.

The last line of stdout is the result: {"correct", "attempted", "failed",
"metrics"}. The line before it is the context: the bases the numbers rest
on, the behaviour digests, the environment and, when traced, the per-layer
shares of the traced cold run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
DEFAULT_SEED = 0
# Not used while the workloads were sized: re-check any claimed gain on it.
HELD_OUT_SEED = 9001
# Corpora per seed (synth seeds CORPORA*seed .. CORPORA*seed+CORPORA-1): set-up
# time is their median and cycles rotate over them, so one corpus's network
# does not decide a run's figures.
CORPORA = 3
STAGES = ("parse", "split", "events", "flag", "graphs", "featurize", "train", "infer", "evaluate")
GRID_COLD = [round(0.05 * i, 2) for i in range(21)]
GRID_RETUNE = [round(0.025 * i, 3) for i in range(41)]
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


@dataclass(frozen=True)
class Workload:
    synth: tuple[str, ...]
    model: dict


WORKLOADS = {
    # Many messages on small graphs: the cubic chronological split search dominates.
    "msg_dense": Workload(
        ("--spreaders", "60", "--masterminds", "3", "--events", "90", "--coins", "6"),
        {},
    ),
    # Long minute-bar price files and few messages: CSV price loading dominates.
    "price_long": Workload(
        ("--spreaders", "12", "--masterminds", "3", "--events", "150", "--coins", "6",
         "--forward-prob", "0.1"),
        {"graph_variant": "directed"},
    ),
    # Few large dense graphs: centrality, ego and Louvain kernels and GAT training dominate.
    "graph_wide": Workload(
        ("--spreaders", "90", "--masterminds", "3", "--events", "24", "--coins", "3"),
        {"architecture": "gat"},
    ),
}

# Per-layer self times taken from the traced cold run (synth.* and
# market.write_price_csv from the traced set-up).
SELF_TIMED = (
    "evaluation.chronological_split",
    "market.load_price_dir",
    "market.compute_outcomes",
    "features.closeness",
    "features.betweenness",
    "features.clustering",
    "features.pagerank",
    "features.ego_feature_matrix",
    "features.louvain",
    "features.compute_feature_rows",
    "diffusion.build_graphs",
    "gnn.train",
    "gnn.predict",
    "ingest.read_corpus",
    "ingest.read_messages",
    "diffusion.load_graph",
    "features.read_features_csv",
    "events.build_event_sets",
    "events.flag_concurrent_broadcasts",
    "evaluation.threshold_sweep",
    "evaluation.feature_t_tests",
)
SETUP_TIMED = ("synth.generate_corpus", "synth.generate_prices", "market.write_price_csv")
# Measured on the architecture the workload trains, and by the probe on the other.
GNN_LAYERS = ("gnn.gat_forward", "gnn.gat_backward", "gnn.sage_forward", "gnn.sage_backward")
COUNTED = (
    "evaluation.split_messages",
    "market.price_rows",
    "market.price_bytes",
    "market.outcomes_out",
    "market.outcomes_missing",
    "diffusion.graphs_out",
    "diffusion.graphs_dropped",
    "diffusion.nodes_total",
    "diffusion.edges_total",
    "ingest.messages_accepted",
    "ingest.messages_skipped",
    "events.events_out",
    "events.flags_out",
)
CALLS = {
    "gnn.forward_calls": "gnn.forward",
    "ingest.read_messages_calls": "ingest.read_messages",
    "diffusion.load_graph_calls": "diffusion.load_graph",
    "features.read_features_csv_calls": "features.read_features_csv",
}


class Bench:
    """One run: a work directory, the child environment and the op tally."""

    def __init__(self, root: Path, workload: Workload, seed: int):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.work = root / ".perfbench" / f"run-{os.getpid()}"
        self.attempted = 0
        self.failed = 0
        nproc = len(os.sched_getaffinity(0))
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"), PERSEUS_LOG="WARNING")
        for var in THREAD_VARS:
            current = self.env.get(var, "")
            cap = int(current) if current.isdigit() and 0 < int(current) < nproc else nproc
            self.env[var] = str(cap)

    # -- ops -----------------------------------------------------------------

    def op(self, ok: bool, what: str) -> bool:
        """Tally one operation; a failed one is reported on stderr."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED: {what}", file=sys.stderr)
        return ok

    def check(self, what: str, test) -> bool:
        """An op whose outcome is `test()`; unreadable outputs fail it."""
        try:
            ok = bool(test())
        except (OSError, ValueError, KeyError) as exc:
            ok, what = False, f"{what}: {exc!r}"
        return self.op(ok, what)

    def cli(self, argv: list[str], log: str = "WARNING") -> tuple[float, int, float, str]:
        """Run ``perseus <argv>``; (wall s, exit code, peak RSS MB, stderr)."""
        err_path = self.work / "stderr.log"
        env = dict(self.env, PERSEUS_LOG=log)
        with open(err_path, "wb") as err:
            started = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-m", "perseus", *argv],
                cwd=self.root, env=env, stdout=subprocess.DEVNULL, stderr=err,
            )
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, proc.returncode, usage.ru_maxrss / 1024.0, err_path.read_text(errors="replace")

    def config(self, name: str, corpus: Path, out: Path, grid: list[float]) -> str:
        path = self.work / name
        path.write_text(json.dumps({
            "corpus": str(corpus / "corpus.jsonl"),
            "prices_dir": str(corpus / "prices"),
            "labels": str(corpus / "labels.json"),
            "out_dir": str(out),
            "threshold_grid": grid,
            "model": self.workload.model,
        }))
        return str(path)

    def synth_argv(self, out: Path, synth_seed: int) -> list[str]:
        return ["synth", "--out", str(out), *self.workload.synth, "--synth-seed", str(synth_seed)]

    # -- set-up ----------------------------------------------------------------

    def setup(self, n: int) -> tuple[list[float], list[tuple[int, Path]]]:
        """Synthesise corpora 0..n-1 of this seed; (wall times, [(synth seed, data dir)])."""
        walls, corpora = [], []
        for k in range(n):
            out = self.work / f"data{k}"
            synth_seed = CORPORA * self.seed + k
            wall, rc, _, err = self.cli(self.synth_argv(out, synth_seed))
            walls.append(wall)
            if self.op(rc == 0, f"synth exited {rc}: {tail(err)}"):
                corpora.append((synth_seed, out / "data"))
        return walls, corpora

    # -- measured cycles -------------------------------------------------------------

    def cycle(self, corpus: Path, out: Path) -> dict:
        """Cold, retune and no-op `all` on one fresh out dir, with output checks."""
        predictions = out / "predictions.jsonl"
        cold_cfg = self.config("cold.json", corpus, out, GRID_COLD)
        retune_cfg = self.config("retune.json", corpus, out, GRID_RETUNE)
        sample: dict = {}

        sample["pipeline_s"], rc, sample["peak_rss_mb"], err = self.cli(["all", "--config", cold_cfg])

        def cold_outputs() -> bool:
            sample["digest"] = behaviour_digest(out)
            return check_predictions(out)

        cold_ok = self.check(f"cold all exited {rc} or wrote bad predictions: {tail(err)}",
                             lambda: rc == 0 and cold_outputs())
        before = predictions.read_bytes() if cold_ok else None

        sample["retune_s"], rc, _, err = self.cli(["all", "--config", retune_cfg])
        self.check(f"retune exited {rc} or changed predictions.jsonl: {tail(err)}",
                   lambda: rc == 0 and cold_ok and predictions.read_bytes() == before)

        sample["noop_s"], rc, _, err = self.cli(["all", "--config", retune_cfg], log="INFO")
        skipped = err.count(": inputs unchanged, skipping")
        self.op(rc == 0 and skipped == len(STAGES),
                f"no-op rerun exited {rc}, skipped {skipped} of {len(STAGES)} stages")
        return sample

    # -- traced run ------------------------------------------------------------------

    def traced(self, synth_seed: int, corpus: Path, digest: dict | None) -> dict:
        """Traced cold run in its own process, timed from outside, then the rest.

        The traced cold run must leave the untraced runs' behaviour digest.
        """
        out = self.work / "traced"
        cold_cfg = self.config("t_cold.json", corpus, out, GRID_COLD)
        retune_cfg = self.config("t_retune.json", corpus, out, GRID_RETUNE)
        other = "graphsage" if self.workload.model.get("architecture") == "gat" else "gat"
        plans = [
            [{"label": "cold", "argv": ["all", "--config", cold_cfg]}],
            [
                {"label": "retune", "argv": ["all", "--config", retune_cfg]},
                {"label": "noop", "argv": ["all", "--config", retune_cfg]},
                {"label": "probe", "argv": ["train", "--config", retune_cfg, "--arch", other]},
                {"label": "setup", "argv": self.synth_argv(self.work / "traced_synth", synth_seed)},
            ],
        ]
        result: dict = {}
        walls = []
        for n, plan in enumerate(plans):
            plan_path, result_path = self.work / f"plan{n}.json", self.work / f"trace{n}.json"
            plan_path.write_text(json.dumps(plan))
            started = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(HERE / "trace.py"), str(plan_path), str(result_path)],
                cwd=self.root, env=self.env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                text=True,
            )
            walls.append(time.perf_counter() - started)
            if self.op(proc.returncode == 0, f"trace.py exited {proc.returncode}: {tail(proc.stderr)}"):
                result.update(json.loads(result_path.read_text(encoding="utf-8")))
            if n == 0:
                self.check("traced cold run changed the behaviour digest",
                           lambda: behaviour_digest(out) == digest)
        for label in ("cold", "retune", "noop", "probe", "setup"):
            self.op(result.get(label, {}).get("rc") == 0, f"traced {label} did not exit 0")
        if "cold" in result:
            result["cold"]["process_wall_s"] = walls[0]
        return result


# ---------------------------------------------------------------------------
# Output checks and digests


def tail(text: str) -> str:
    return text.strip()[-500:]


def read_index(out: Path) -> list[dict]:
    return json.loads((out / "graphs" / "index.json").read_text(encoding="utf-8"))["graphs"]


def graph_nodes(out: Path, entry: dict) -> list[str]:
    path = out / "graphs" / entry["period"] / f"{entry['coin']}.nodes.tsv"
    return [line.split("\t")[1] for line in path.read_text(encoding="utf-8").splitlines()]


def check_predictions(out: Path) -> bool:
    """Exactly one row per node of every test graph, each a probability in [0, 1]."""
    expected = sorted(
        (f"test/{e['coin']}", node)
        for e in read_index(out) if e["period"] == "test"
        for node in graph_nodes(out, e)
    )
    rows = [json.loads(line) for line in (out / "predictions.jsonl").read_text(encoding="utf-8").splitlines()]
    got = sorted((r["graph_id"], r["entity_id"]) for r in rows)
    finite = all(
        isinstance(r["probability"], float) and math.isfinite(r["probability"])
        and 0.0 <= r["probability"] <= 1.0
        for r in rows
    )
    return bool(expected) and got == expected and finite


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def behaviour_digest(out: Path) -> dict:
    """sha256 of predictions, graph index and report minus its timing block."""
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    report.pop("timing", None)
    return {
        "predictions.jsonl": sha256((out / "predictions.jsonl").read_bytes()),
        "graphs/index.json": sha256((out / "graphs" / "index.json").read_bytes()),
        "report.json-timing": sha256(json.dumps(report, sort_keys=True).encode()),
        "auc": report["auc"],
        "n_nodes": report["n_nodes"],
        "n_masterminds": report["n_masterminds"],
    }


def edge_precision(out: Path, truth_path: Path) -> float:
    """Mean synth.score_edge_recovery over the graphs in graphs/index.json."""
    from perseus import diffusion, synth

    truth = synth.load_truth(truth_path)
    scores = []
    for entry in read_index(out):
        graph = diffusion.load_graph(out / "graphs" / entry["period"], entry["coin"], entry["period"])
        scores.append(synth.score_edge_recovery(graph.weighted, graph.nodes, truth, graph.directed))
    return statistics.fmean(scores)


def count_lines(path: Path) -> int:
    with open(path, "rb") as fh:
        return sum(1 for _ in fh)


def bases(data: Path, out: Path) -> dict:
    """The sizes every number rests on."""
    prices = sorted((data / "prices").glob("*.csv"))
    graphs = [out / "graphs" / e["period"] / e["coin"] for e in read_index(out)]
    return {
        "messages": count_lines(data / "corpus.jsonl"),
        "price_files": len(prices),
        "price_rows": sum(count_lines(p) - 1 for p in prices),
        "price_bytes": sum(p.stat().st_size for p in prices),
        "graphs": len(graphs),
        "nodes": sum(count_lines(g.with_name(f"{g.name}.nodes.tsv")) for g in graphs),
        "edges": sum(count_lines(g.with_name(f"{g.name}.weighted.tsv")) for g in graphs),
    }


def environment(env: dict) -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "threads": {var: env[var] for var in THREAD_VARS},
    }


# ---------------------------------------------------------------------------
# Metrics


def layer_metrics(traced: dict, untraced_pipeline_s: float, noop_s: float) -> dict:
    cold, retune, noop = traced["cold"], traced["retune"], traced["noop"]
    probe, setup = traced["probe"], traced["setup"]
    m: dict[str, tuple[float, str]] = {}
    for stage in STAGES:
        m[f"stage.{stage}_s"] = (cold["total_s"].get(f"stage.{stage}", 0.0), "s")
        m[f"stage.{stage}.unexplained_s"] = (cold["unexplained_s"].get(f"stage.{stage}", 0.0), "s")
    for name in SELF_TIMED:
        m[f"{name}_s"] = (cold["self_s"].get(name, 0.0), "s")
    for name in SETUP_TIMED:
        m[f"{name}_s"] = (setup["self_s"].get(name, 0.0), "s")
    for name in GNN_LAYERS:
        m[f"{name}_s"] = (cold["self_s"].get(name) or probe["self_s"].get(name, 0.0), "s")
    steps = cold["step_s"]
    p50, p99 = (statistics.quantiles(steps, n=100)[k] for k in (49, 98)) if len(steps) > 1 else (0.0, 0.0)
    m["gnn.step_s.p50"] = (p50, "s")
    m["gnn.step_s.p99"] = (p99, "s")
    m["gnn.step_count"] = (len(steps), "count")
    for name in COUNTED:
        m[name] = (cold["counts"].get(name, 0), "bytes" if name.endswith("_bytes") else "count")
    for metric, name in CALLS.items():
        m[metric] = (cold["calls"].get(name, 0), "count")
    m["cli.run_stage_self_s"] = (cold["self_s"].get("cli.run_stage", 0.0), "s")
    m["cli.noop_rerun_s"] = (noop_s, "s")
    m["cli.noop_stages_skipped"] = (len(STAGES) - len(noop["stages_run"]), "count")
    m["cli.retune_stages_rerun"] = (len(retune["stages_run"]), "count")
    m["trace.overhead_s"] = (cold["process_wall_s"] - untraced_pipeline_s, "s")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in m.items()}


def shares(cold: dict) -> list[tuple[str, float]]:
    """Self-time share of the traced cold run per layer, largest first."""
    wall = cold["wall_s"]
    return sorted(
        ((name, round(own / wall, 4)) for name, own in cold["self_s"].items()),
        key=lambda kv: -kv[1],
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (held-out seed for re-checking a claim: {HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    root = Path.cwd()
    if not (root / "src" / "perseus" / "cli.py").is_file():
        print(f"error: no perseus sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))

    bench = Bench(root, WORKLOADS[args.workload], args.seed)
    shutil.rmtree(bench.work, ignore_errors=True)
    bench.work.mkdir(parents=True)
    try:
        return measure(bench, args)
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
        try:
            bench.work.parent.rmdir()
        except OSError:
            pass


def measure(bench: Bench, args) -> int:
    setup_walls, corpora = bench.setup(1 if args.trace else CORPORA)
    samples: list[dict] = []
    started = time.perf_counter()
    while corpora and (len(samples) < len(corpora) or time.perf_counter() - started < args.seconds):
        k = len(samples)
        out = bench.work / f"out{k}"
        samples.append({"corpus": k % len(corpora), **bench.cycle(corpora[k % len(corpora)][1], out)})
        if k >= len(corpora):
            shutil.rmtree(out, ignore_errors=True)

    # The first cycle on each corpus keeps its out dir for the checks below.
    context: dict = {"workload": args.workload, "seed": args.seed, "cycles": len(samples), "corpora": []}
    precisions = []
    for k, (synth_seed, corpus) in enumerate(corpora):
        digests = [s.get("digest") for s in samples if s["corpus"] == k]
        bench.op(None not in digests and all(d == digests[0] for d in digests),
                 f"corpus {k}: behaviour digest differs between cycles")
        entry = {"synth_seed": synth_seed, "digest": digests[0]}
        try:
            entry["edge_precision"] = edge_precision(bench.work / f"out{k}", corpus / "truth.json")
            entry["bases"] = bases(corpus, bench.work / f"out{k}")
            precisions.append(entry["edge_precision"])
        except (OSError, ValueError, KeyError) as exc:
            bench.op(False, f"corpus {k}: reading the cold run's graphs: {exc!r}")
        context["corpora"].append(entry)
    context["environment"] = environment(bench.env)

    median = statistics.median
    metrics: dict = {}
    if samples and args.trace:
        traced = bench.traced(*corpora[0], context["corpora"][0]["digest"])
        if all(k in traced for k in ("cold", "retune", "noop", "probe", "setup")):
            metrics = layer_metrics(traced, median(s["pipeline_s"] for s in samples),
                                    median(s["noop_s"] for s in samples))
            context["shares"] = shares(traced["cold"])
    elif samples:
        metrics = {
            "setup_s": {"value": median(setup_walls), "unit": "s"},
            "pipeline_s": {"value": median(s["pipeline_s"] for s in samples), "unit": "s"},
            "retune_s": {"value": median(s["retune_s"] for s in samples), "unit": "s"},
            "peak_rss_mb": {"value": median(s["peak_rss_mb"] for s in samples), "unit": "MB"},
            "edge_precision": {"value": statistics.fmean(precisions) if precisions else 0.0, "unit": "ratio"},
        }
    context["samples"] = {
        key: [s[key] for s in samples]
        for key in ("corpus", "pipeline_s", "retune_s", "noop_s", "peak_rss_mb")
    }
    context["samples"]["setup_s"] = setup_walls
    print(json.dumps(context, sort_keys=True))
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
