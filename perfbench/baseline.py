"""Regenerate perfbench/baseline.json: every workload at the default seed and
BENCHMARK.json's run_seconds, once untraced and once traced.

    python3 perfbench/baseline.py

Run from the root of a checkout, like perfbench/run.py.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from run import DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent


def main() -> int:
    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]
    baseline: dict = {"seed": DEFAULT_SEED, "seconds": seconds, "workloads": {}}
    for name in WORKLOADS:
        entry = baseline["workloads"][name] = {}
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(DEFAULT_SEED),
                 "--seconds", str(seconds), "--trace", str(trace)],
                stdout=subprocess.PIPE, text=True, check=True,
            )
            context, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
            entry[key] = {"result": result, "context": context}
            print(f"{name} trace={trace}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", file=sys.stderr)
    (HERE / "baseline.json").write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
