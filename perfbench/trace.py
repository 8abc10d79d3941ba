"""Traced, in-process run of perseus CLI commands.

    PYTHONPATH=src python3 perfbench/trace.py PLAN.json RESULT.json

PLAN.json is a list of {"label": str, "argv": [str, ...]}. Each argv goes
to ``perseus.cli.main`` in this process, after the layer functions in
``LAYERS`` have been wrapped from outside, at the attribute where their
caller looks them up (``perseus.cli.louvain``, not
``perseus.features.community.louvain``). Nothing under ``src/`` changes.

Every wrapper records a span (name, parent, start, end). RESULT.json holds,
per label: the exit code, the wall time; per span name the self time
(duration minus the part its child spans cover), the inclusive time and the
call count; the item counts the layers returned; the durations of the
training steps; the stages that ran rather than hit the cache; and per stage
the time no named layer covers.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from perseus import cli, diffusion, evaluation, events, features, ingest, market, synth
from perseus.gnn import model


def _price_counts(result, args):
    return {
        "market.price_rows": sum(len(s) for s in result.values()),
        "market.price_bytes": sum(p.stat().st_size for p in Path(args[0]).glob("*.csv")),
    }


def _outcome_counts(result, args):
    outcomes, missing = result
    return {"market.outcomes_out": len(outcomes), "market.outcomes_missing": len(missing)}


def _graph_counts(result, args):
    graphs, dropped = result
    return {
        "diffusion.graphs_out": len(graphs),
        "diffusion.graphs_dropped": len(dropped),
        "diffusion.nodes_total": sum(g.n for g in graphs.values()),
        "diffusion.edges_total": sum(int(np.count_nonzero(g.weighted > 0)) for g in graphs.values()),
    }


def _corpus_counts(result, args):
    messages, report = result
    return {"ingest.messages_accepted": len(messages), "ingest.messages_skipped": report.total}


def _split_counts(result, args):
    return {"evaluation.split_messages": len(args[0])}


def _event_counts(result, args):
    return {"events.events_out": sum(len(v) for v in result.values())}


# (module, attribute, span name, counter). A counter maps (result, args)
# to item counts added to the label's totals.
LAYERS = [
    *[(cli, f"stage_{s}", f"stage.{s}", None) for s in cli.STAGE_ORDER + ("synth",)],
    (ingest, "read_corpus", "ingest.read_corpus", _corpus_counts),
    (ingest, "read_messages", "ingest.read_messages", None),
    (evaluation, "chronological_split", "evaluation.chronological_split", _split_counts),
    (events, "build_event_sets", "events.build_event_sets", _event_counts),
    (events, "flag_concurrent_broadcasts", "events.flag_concurrent_broadcasts",
     lambda result, args: {"events.flags_out": len(result)}),
    (diffusion, "build_graphs", "diffusion.build_graphs", _graph_counts),
    (diffusion, "load_graph", "diffusion.load_graph", None),
    (market, "load_price_dir", "market.load_price_dir", _price_counts),
    (market, "compute_outcomes", "market.compute_outcomes", _outcome_counts),
    (market, "write_price_csv", "market.write_price_csv", None),
    (cli, "compute_feature_rows", "features.compute_feature_rows", None),
    (features, "closeness", "features.closeness", None),
    (features, "betweenness", "features.betweenness", None),
    (features, "clustering", "features.clustering", None),
    (features, "pagerank", "features.pagerank", None),
    (features, "ego_feature_matrix", "features.ego_feature_matrix", None),
    (cli, "louvain", "features.louvain", None),
    (cli, "read_features_csv", "features.read_features_csv", None),
    (cli, "train", "gnn.train", None),
    (cli, "predict", "gnn.predict", None),
    (model, "loss_and_grads", "gnn.step", None),
    (model, "forward", "gnn.forward", None),
    (model, "gat_forward", "gnn.gat_forward", None),
    (model, "gat_backward", "gnn.gat_backward", None),
    (model, "sage_forward", "gnn.sage_forward", None),
    (model, "sage_backward", "gnn.sage_backward", None),
    (evaluation, "threshold_sweep", "evaluation.threshold_sweep", None),
    (evaluation, "feature_t_tests", "evaluation.feature_t_tests", None),
    (synth, "generate_corpus", "synth.generate_corpus", None),
    (synth, "generate_prices", "synth.generate_prices", None),
]


class Tracer:
    """Spans kept in memory as [name, parent index, start, end]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    def wrap(self, fn, name, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append([name, parent, time.perf_counter(), None])
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[index][3] = time.perf_counter()
            if counter is not None:
                for key, value in counter(result, args).items():
                    self.counts[key] += value
            return result

        return traced

    def install(self) -> None:
        for module, attr, name, counter in LAYERS:
            setattr(module, attr, self.wrap(getattr(module, attr), name, counter))
        run_stage = cli.run_stage

        # The runner closure is wrapped too, so cli.run_stage's self time is
        # only its hashing and manifest I/O.
        def run_stage_traced(name, cfg, inputs, runner, *rest, **kwargs):
            return run_stage(name, cfg, inputs, self.wrap(runner, "cli.runner"), *rest, **kwargs)

        cli.run_stage = self.wrap(run_stage_traced, "cli.run_stage")

    def summary(self, first: int) -> dict:
        """Per-name totals over the spans recorded from index `first` on."""
        spans = self.spans[first:]
        child = [0.0] * len(spans)
        for name, parent, start, end in spans:
            if parent >= first:
                child[parent - first] += end - start
        self_s: dict[str, float] = defaultdict(float)
        total_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        unexplained: dict[str, float] = defaultdict(float)
        steps, stages_run = [], []
        for k, (name, parent, start, end) in enumerate(spans):
            own = end - start - child[k]
            self_s[name] += own
            total_s[name] += end - start
            calls[name] += 1
            if name == "gnn.step":
                steps.append(end - start)
            # A stage's own code and its runner's are what no named layer explains.
            if name.startswith("stage.") or name == "cli.runner":
                stage = self._stage_of(first + k)
                unexplained[stage] += own
                if name == "cli.runner":
                    stages_run.append(stage)
        return {
            "self_s": self_s,
            "total_s": total_s,
            "calls": calls,
            "step_s": steps,
            "stages_run": stages_run,
            "unexplained_s": unexplained,
        }

    def _stage_of(self, index: int) -> str:
        """Name of the innermost stage span enclosing span `index`."""
        while not self.spans[index][0].startswith("stage."):
            index = self.spans[index][1]
        return self.spans[index][0]


def main(argv: list[str]) -> int:
    plan = json.loads(Path(argv[0]).read_text(encoding="utf-8"))
    tracer = Tracer()
    tracer.install()
    results = {}
    for step in plan:
        first = len(tracer.spans)
        tracer.counts.clear()
        started = time.perf_counter()
        # infer prints the detected masterminds; keep this process's stdout clean.
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(step["argv"])
        wall = time.perf_counter() - started
        results[step["label"]] = {
            "rc": rc,
            "wall_s": wall,
            "counts": dict(tracer.counts),
            **tracer.summary(first),
        }
    Path(argv[1]).write_text(json.dumps(results, indent=1, sort_keys=True), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
