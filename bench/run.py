"""Benchmark of uncrel: end-to-end metrics per workload, or a traced run
with per-layer metrics.

    python3 bench/run.py --workload ho1d-fleet --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; nothing needs installing, since every
child gets src/ on PYTHONPATH.  Load comes from one closed-loop caller:
this process starts one child at a time and waits for it, each child
runs with one BLAS thread, and each pass is a fresh interpreter, so every
pass starts from cold program caches.  Passes repeat while the next one is
expected to end within --seconds (at least MIN_PASSES); the last stdout
line is one JSON object.  Every untimed-by-trace child runs under the
host-speed sampler of bench/hostspeed.py, and times are reported scaled to
its nominal host speed.
See bench/README.md for the workloads, metrics and reference figures.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(ROOT, ".bench_out")
WORKER = os.path.join(BENCH, "worker.py")
CLIRUN = os.path.join(BENCH, "clirun.py")
SPEED_FILE = os.path.join(OUT, "cli.speed")
sys.path.insert(0, BENCH)

import checks  # noqa: E402
import clidocs  # noqa: E402
import hostspeed  # noqa: E402
from inputs import pass_seed  # noqa: E402
from layertrace import FUNCTIONAL_TIMES  # noqa: E402

WORKLOADS = ("ho1d-fleet", "bounds-catalog", "cli-documents")
MIN_PASSES = 2  # at the tiny size: 1
PROBE_COMMAND = {"ho1d-fleet": "sweep-cramer-rao", "bounds-catalog": "table1"}
IMPORT_SAMPLES = 3
CHILD_TIMEOUT_S = 170.0
CLI_PROBES = 4  # CLI calls timed after each pass of an in-process workload

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "cli_call_s": "s"}
_S, _N = "s", "count"
PER_LAYER = {
    "import.uncrel_s": _S, "import.scipy_s": _S, "import.modules": _N,
    "cli.parse_s": _S, "cli.build_state_s": _S, "cli.render_s": _S, "cli.io_s": _S,
    "cli.document_bytes": "bytes",
    "inequalities.checks": _N, "inequalities.holes": _N, "inequalities.self_s": _S,
    "constants.daubechies_calls": _N, "constants.daubechies_s": _S, "constants.self_s": _S,
    "varoracle.extremal_calls": _N, "varoracle.extremal_s": _S,
    "functionals.radial_moment_calls": _N, "functionals.entropic_moment_calls": _N,
    "functionals.fisher_information_calls": _N,
    "functionals.analytic_share": "fraction", "functionals.repeat_share": "fraction",
    **{f"functionals.{name}": _S for name in FUNCTIONAL_TIMES},
    "functionals.max_rel_err": "rel",
    "mathcore.quad_calls": _N, "mathcore.quad_s": _S, "mathcore.minimize_calls": _N,
    "mathcore.minimize_s": _S, "mathcore.objective_evals": _N,
    "densities.rho_calls": _N, "densities.drho_calls": _N, "densities.eval_points": _N,
    "densities.points_per_call": "points", "densities.eval_s": _S, "densities.build_s": _S,
}


class ChildError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["UNCREL_BENCH_SPEED"] = SPEED_FILE
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


ENV = child_env()


def _reap(proc: subprocess.Popen) -> float:
    """Wait for the child; return its peak resident set in MB."""
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage.ru_maxrss / 1024.0


def _stderr_tail(path: str) -> str:
    with open(path, encoding="utf-8", errors="replace") as fh:
        return fh.read()[-2000:]


def run_worker(workload: str, seed: int, *flags: str) -> dict:
    """One worker process: setup_s is the time from launch to READY, scaled
    by the worker's host-speed samples up to READY (raw when traced)."""
    err_path = os.path.join(OUT, "worker.stderr")
    with open(err_path, "w", encoding="utf-8") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, WORKER, "--workload", workload,
                                 "--seed", str(seed), *flags],
                                cwd=ROOT, env=ENV, stdout=subprocess.PIPE, stderr=err,
                                text=True)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            ready = proc.stdout.readline()
            setup = time.perf_counter() - t0
            rest = proc.stdout.read()
            proc.stdout.close()
            rss = _reap(proc)
        finally:
            timer.cancel()
    if ready.strip() != "READY" or proc.returncode != 0:
        raise ChildError(f"worker {workload} seed {seed} exited {proc.returncode}:\n"
                         f"{_stderr_tail(err_path)}")
    out = json.loads(rest.strip().splitlines()[-1])
    out.update(raw_setup_s=setup, peak_rss_mb=rss, setup_s=setup if out["setup_speed"] is None
               else hostspeed.scale(setup, out["setup_speed"]))
    return out


def run_cli(argv: list[str]) -> tuple[int, str, float, float, float]:
    """One uncrel.cli child under the host-speed sampler (bench/clirun.py):
    (exit code, stdout, scaled seconds, raw seconds, peak MB)."""
    out_path = os.path.join(OUT, "cli.stdout")
    err_path = os.path.join(OUT, "cli.stderr")
    with open(out_path, "w", encoding="utf-8") as out, \
            open(err_path, "w", encoding="utf-8") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, CLIRUN, *argv],
                                cwd=ROOT, env=ENV, stdout=out, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            rss = _reap(proc)
        finally:
            timer.cancel()
        elapsed = time.perf_counter() - t0
    with open(out_path, encoding="utf-8") as fh:
        text = fh.read()
    scaled = hostspeed.scale(elapsed, hostspeed.read(SPEED_FILE))
    os.remove(SPEED_FILE)
    return proc.returncode, text, scaled, elapsed, rss


def cli_pass(seed: int, size: str, inject_failure: bool, ref: dict) -> dict:
    outdir = os.path.join(OUT, "cli")
    os.makedirs(outdir, exist_ok=True)
    cmds = clidocs.commands(seed, outdir, size, inject_failure)
    results, calls, raw, failed, rss = {}, [], [], [], 0.0
    for cmd in cmds:
        code, text, elapsed, raw_elapsed, peak = run_cli(cmd.argv)
        results[cmd.name] = (code, text)
        calls.append(elapsed)
        raw.append(raw_elapsed)
        rss = max(rss, peak)
        if code != 0:
            failed.append(f"{cmd.name}: exit {code}")
    v = checks.Verdict()
    clidocs.check_pass(seed, outdir, results, ref, v)
    return {"wall_s": sum(calls), "raw_wall_s": sum(raw), "attempted": len(cmds), "failed": len(failed),
            "failures": failed, "correct": v.correct, "check_failures": v.failures[:8],
            "cli_calls": calls, "raw_cli_calls": raw, "peak_rss_mb": rss}


def cli_probes(workload: str, seed: int, probes: int,
               ref: dict) -> tuple[list[float], list[float], list[str]]:
    """Time the CLI command closest to an in-process workload."""
    outdir = os.path.join(OUT, "cli")
    os.makedirs(outdir, exist_ok=True)
    cmd = next(c for c in clidocs.commands(seed, outdir) if c.name == PROBE_COMMAND[workload])
    times, raw, problems = [], [], []
    for _ in range(probes):
        code, text, elapsed, raw_elapsed, _ = run_cli(cmd.argv)
        times.append(elapsed)
        raw.append(raw_elapsed)
        v = checks.Verdict()
        clidocs.check_pass(seed, outdir, {cmd.name: (code, text)}, ref, v)
        if code != 0:
            problems.append(f"probe {cmd.name}: exit {code}")
        problems += v.failures
    return times, raw, problems


def _importtime(stderr: str) -> dict:
    """Cumulative seconds of `-X importtime` entries: per top-level name, and
    "scipy" as the sum over scipy modules not imported by another one."""
    entries = []  # (depth, name, cumulative s), children listed before parents
    for line in stderr.splitlines():
        if line.startswith("import time:") and "|" in line:
            _, cumulative, name = line[len("import time:"):].split("|")
            if cumulative.strip().isdigit():
                depth = len(name) - len(name.lstrip(" "))
                entries.append((depth, name.strip(), int(cumulative) * 1e-6))
    out, stack = {"scipy": 0.0}, []
    for depth, name, cum in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        if name.startswith("scipy") and not any(n.startswith("scipy") for _, n in stack):
            out["scipy"] += cum
        if not stack:
            out.setdefault(name, cum)
        stack.append((depth, name))
    return out


def import_layer() -> dict:
    """import.* from `python -X importtime -c 'import uncrel'`."""
    uncrel_s, scipy_s, modules = [], [], 0
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                               "import sys, uncrel; print(len(sys.modules))"],
                              cwd=ROOT, env=ENV, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise ChildError(f"import of uncrel failed:\n{proc.stderr[-2000:]}")
        times = _importtime(proc.stderr)
        uncrel_s.append(times["uncrel"])
        scipy_s.append(times["scipy"])
        modules = int(proc.stdout.strip())
    return {"import.uncrel_s": statistics.median(uncrel_s),
            "import.scipy_s": statistics.median(scipy_s), "import.modules": modules}


def _metric(name: str, value, units: dict) -> tuple[str, dict]:
    return name, {"value": value, "unit": units[name]}


def measure(args, flags: list[str], ref: dict) -> tuple[dict, list[dict], list[str]]:
    """Whole iterations while the next one is expected to end within
    --seconds (at least MIN_PASSES), so the samples of every metric are
    spread over the whole run.  An iteration is a set-up-only worker, then
    a pass: on the in-process workloads a worker followed by CLI_PROBES
    timed CLI calls, on cli-documents the CLI calls of the pass.  Times are
    scaled to the nominal host speed (hostspeed.py); the raw medians are
    printed on a line of their own."""
    passes, problems, setups, calls = [], [], [], []
    raw_setups, raw_calls = [], []
    tiny = args.size == "tiny"
    t_start = time.perf_counter()
    i = 0
    while i < (1 if tiny else MIN_PASSES) or \
            (time.perf_counter() - t_start) * (i + 1) / i <= args.seconds:
        seed = pass_seed(args.seed, i)
        setup = run_worker(args.workload, seed, "--setup-only", *flags)
        setups.append(setup["setup_s"])
        raw_setups.append(setup["raw_setup_s"])
        if args.workload == "cli-documents":
            res = cli_pass(seed, args.size, args.inject_failure, ref)
            calls += res["cli_calls"]
            raw_calls += res["raw_cli_calls"]
        else:
            res = run_worker(args.workload, seed, *flags)
            setups.append(res["setup_s"])
            raw_setups.append(res["raw_setup_s"])
            times, raw, probe_problems = cli_probes(args.workload, seed,
                                                    1 if tiny else CLI_PROBES, ref)
            calls += times
            raw_calls += raw
            problems += probe_problems
        passes.append(res)
        problems += res["check_failures"]
        i += 1
    med = statistics.median
    print(f"raw medians over {i} passes: setup_s={med(raw_setups):.4f} "
          f"wall_s={med(res['raw_wall_s'] for res in passes):.4f} "
          f"cli_call_s={med(raw_calls):.4f}")
    metrics = dict(_metric(name, value, END_TO_END) for name, value in (
        ("setup_s", med(setups)),
        ("wall_s", med([res["wall_s"] for res in passes])),
        ("peak_rss_mb", med([res["peak_rss_mb"] for res in passes])),
        ("cli_call_s", med(calls))))
    return metrics, passes, problems


def traced(args, flags: list[str], ref: dict) -> tuple[dict, list[dict], list[str]]:
    passes, problems = [], []
    t_start = time.perf_counter()
    i = 0
    while i < 1 or time.perf_counter() - t_start < args.seconds:
        res = run_worker(args.workload, pass_seed(args.seed, i), "--trace", *flags)
        passes.append(res)
        problems += res["check_failures"]
        print(f"traced pass {i}: wall_s={res['wall_s']:.4f} spans={res['trace_file']}")
        i += 1
    layers = import_layer()
    for name in passes[0]["layers"]:
        layers[name] = statistics.median([res["layers"][name] for res in passes])
    return dict(_metric(name, value, PER_LAYER) for name, value in layers.items()), \
        passes, problems


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--size", choices=["full", "tiny"], default="full",
                    help="tiny: a few operations of each kind, for bench/selftest.py")
    ap.add_argument("--perturb-reference", action="store_true",
                    help="shift reference values so the correctness check must fail")
    ap.add_argument("--inject-failure", action="store_true",
                    help="add one operation that fails, to test the failure count")
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "uncrel", "__init__.py")):
        print(f"bench/run.py: {ROOT} holds no src/uncrel; run from the root of an "
              "uncrel checkout", file=sys.stderr)
        return 2
    if not os.path.isfile(checks.REFERENCE_PATH):
        print("bench/run.py: bench/reference.json is missing; "
              "recompute it with python3 bench/reference.py", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    flags = ["--size", args.size]
    flags += ["--perturb-reference"] if args.perturb_reference else []
    flags += ["--inject-failure"] if args.inject_failure else []
    ref = checks.load_reference(args.perturb_reference)
    try:
        # warm-up: writes bytecode caches and fills the file cache; not measured
        run_worker(args.workload, pass_seed(args.seed, 0), "--setup-only", *flags)
        run = traced if args.trace else measure
        metrics, passes, problems = run(args, flags, ref)
    except ChildError as exc:
        print(f"bench/run.py: {exc}", file=sys.stderr)
        return 1
    failures = [f for res in passes for f in res["failures"]]
    for line in sorted(set(failures)):
        print(f"failed operation: {line}")
    for line in problems[:20]:
        print(f"check failed: {line}")
    result = {"correct": not problems and all(res["correct"] for res in passes),
              "attempted": sum(res["attempted"] for res in passes),
              "failed": sum(res["failed"] for res in passes),
              "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
