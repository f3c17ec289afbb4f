"""Fast self-test of the benchmark (about a minute on 2 cores).

    python3 bench/selftest.py

Runs every workload at the tiny size and checks that
  * the last stdout line has exactly correct/attempted/failed/metrics, and
    the metric names and units are those of BENCHMARK.json (end_to_end
    with --trace 0, per_layer with --trace 1);
  * a perturbed reference value makes the correctness check fail;
  * an injected failing operation is counted in `failed` and the run still
    ends normally;
  * outside a checkout (only BENCHMARK.json and bench/) the benchmark exits
    non-zero without printing a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKLOADS = ("ho1d-fleet", "bounds-catalog", "cli-documents")


def run(*args: str, cwd: str = ROOT) -> tuple[int, dict | None]:
    proc = subprocess.run([sys.executable, os.path.join("bench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    try:
        last = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        last = None
    return proc.returncode, last


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    failures = []

    def check(what: str, cond: bool) -> None:
        print(("ok    " if cond else "FAIL  ") + what, flush=True)
        if not cond:
            failures.append(what)

    for w in WORKLOADS:
        base = ["--workload", w, "--seed", "1", "--seconds", "0", "--size", "tiny"]
        counts = None
        for trace in (0, 1):
            code, out = run(*base, "--trace", str(trace))
            check(f"{w} trace={trace}: exit 0 and a result line", code == 0 and out is not None)
            if out is None:
                continue
            check(f"{w} trace={trace}: result keys",
                  set(out) == {"correct", "attempted", "failed", "metrics"})
            units = {k: v.get("unit") for k, v in out["metrics"].items()}
            check(f"{w} trace={trace}: metric names and units match BENCHMARK.json",
                  units == expected[trace])
            check(f"{w} trace={trace}: correct", out["correct"] is True)
            if trace == 0:
                counts = (out["attempted"], out["failed"])
        code, out = run(*base, "--trace", "0", "--perturb-reference")
        check(f"{w}: a perturbed reference makes the run incorrect",
              code == 0 and out is not None and out["correct"] is False)
        code, out = run(*base, "--trace", "0", "--inject-failure")
        check(f"{w}: an injected failure is counted and the run ends",
              code == 0 and out is not None and counts is not None
              and (out["attempted"], out["failed"]) == (counts[0] + 1, counts[1] + 1)
              and out["correct"] is True)

    bare = os.path.join(ROOT, ".bench_out", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    code, out = run("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                    "--trace", "0", cwd=bare)
    check("outside a checkout: non-zero exit and no result", code != 0 and out is None)
    shutil.rmtree(bare, ignore_errors=True)

    print("selftest:", "FAILED " + str(len(failures)) if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
