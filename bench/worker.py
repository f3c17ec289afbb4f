"""One pass of a workload in a fresh interpreter.

    python3 bench/worker.py --workload ho1d-fleet --seed 7001 [--trace]

Prints READY once uncrel (and uncrel.cli) is imported and the pass's
inputs are built, then runs the pass, checks its outputs after the timed
region, and prints one JSON line.  run.py starts one of these per pass,
so every pass begins with cold program caches.  With --trace the pass runs
under bench/layertrace.py and cli-documents goes through uncrel.cli.main in
process; without it the worker runs under the host-speed sampler
(bench/hostspeed.py) and reports its set-up and pass scaled to the nominal
host speed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import clidocs  # noqa: E402
import hostspeed  # noqa: E402
import inputs  # noqa: E402

OUT = os.path.join(ROOT, ".bench_out")


class Pass:
    """Operations of one pass: each is attempted once; one that raises is
    counted as failed and the pass goes on."""

    def __init__(self):
        self.attempted = 0
        self.failed: list[str] = []

    def attempt(self, what, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # a failed operation must not end the pass
            self.failed.append(f"{what}: {type(exc).__name__}: {exc}")
            return None


# -- ho1d-fleet ---------------------------------------------------------------

def build_ho1d(rng, size):
    from uncrel import constants, densities

    ns = list(inputs.HO1D_NS if size == "full" else inputs.HO1D_NS[:3])
    rng.shuffle(ns)  # sweep orders the fleet by N
    fleet = [densities.harmonic_fermions_1d(n, inputs.HO1D_Q) for n in ns]
    return fleet, constants.SystemConfig(d=1, N=1.0, q=inputs.HO1D_Q)


def run_ho1d(p: Pass, built, inject_failure):
    from uncrel import inequalities

    fleet, cfg = built
    rows = {}
    for name in inputs.HO1D_SWEEP:
        rows[name] = inequalities.sweep(inequalities.InequalityId(name), fleet, cfg)
        p.attempted += len(rows[name])
        p.failed += [f"{name} {r.inputs.get('state')}: {r.note}" for r in rows[name]
                     if r.satisfied is None]
    if inject_failure:
        from uncrel import densities

        p.attempt("injected", densities.harmonic_fermions_1d, 0, inputs.HO1D_Q)
    return rows


def check_ho1d(rows, ref, v: checks.Verdict):
    q = inputs.HO1D_Q
    c1 = checks.zumbach_C(1)
    for name, table in rows.items():
        for r in table:
            if r.satisfied is None:
                continue
            n = int(r.inputs["N"])
            second = checks.ho1d_second(n, q)
            i_ref = ref["ho1d_fisher"][str(n)]
            if name == "fisher_product_heisenberg":
                # position and momentum densities coincide, so lhs = I^2
                v.close(f"fisher product N={n}", r.lhs, i_ref * i_ref, 2e-10, functional=True)
                v.close(f"fisher product rhs N={n}", r.rhs,
                        4.0 * second * second / (1.0 + c1 * (n / q) ** 2) ** 2, 1e-12)
            elif name == "cramer_rao":
                fisher = r.lhs * n / second
                v.close(f"cramer_rao I N={n}", fisher, i_ref, 1e-10, functional=True)
                v.true(f"cramer_rao N={n}: I <x^2>/N = {r.lhs!r} >= 1", r.lhs >= 1.0 - 1e-10)
                v.true(f"convexity N={n}: I <= 4 <p^2>", fisher <= 4.0 * second * (1 + 1e-10))
                if n <= q:
                    v.close(f"convexity equality N={n}", fisher, 4.0 * second, 1e-10)
            else:
                factor = 0.5 * (1.0 + c1 * (n / q) ** 2)
                v.close(f"zumbach I N={n}", r.rhs / factor, i_ref, 1e-10, functional=True)
                v.close(f"zumbach <p^2> N={n}", r.lhs, second, 1e-14, functional=True)


# -- bounds-catalog -----------------------------------------------------------

def build_bounds(rng, size):
    from uncrel import densities

    full = size == "full"
    b = {"table1": list(inputs.TABLE1_PUBLISHED),
         "daub_ref": list(inputs.DAUBECHIES_REFERENCE_POINTS),
         "daub_seeded": inputs.daubechies_seeded(rng)[: None if full else 8],
         "daub_overflow": list(inputs.DAUBECHIES_OVERFLOW_POINTS),
         "F": inputs.extremal_F_seeded(rng)[: None if full else 3],
         "G": inputs.extremal_G_seeded(rng)[: None if full else 3],
         "table2": list(inputs.TABLE2_ORDERS)}
    pairs = [(("hydrogenic", Z), densities.hydrogenic_pair(float(Z))) for Z in inputs.HYDROGENIC_ZS]
    pairs += [(("gaussian", d, a, n), densities.gaussian_pair(d, a, n))
              for d, a, n in inputs.GAUSSIAN_PAIRS]
    if not full:
        pairs = pairs[:1] + pairs[-1:]
    b["pairs"] = [(tag, pair, inputs.pair_orders(rng, pair.position.d)) for tag, pair in pairs]
    return b


def run_bounds(p: Pass, b, inject_failure):
    from uncrel import constants, inequalities, varoracle
    from uncrel.constants import SystemConfig

    out = {}
    for group in ("table1", "daub_ref", "daub_seeded", "daub_overflow"):
        out[group] = [p.attempt(f"daubechies_factor{dk}", constants.daubechies_factor,
                                dk[0], float(dk[1])) for dk in b[group]]
    out["F"] = [p.attempt(f"extremal_F{x}", varoracle.extremal_F, *x) for x in b["F"]]
    out["G"] = [p.attempt(f"extremal_G{x}", varoracle.extremal_G, *x) for x in b["G"]]
    out["table2"] = [p.attempt(f"heisenberg_rhs{ak}", constants.heisenberg_rhs, 3,
                               float(ak[0]), float(ak[1]), N=1.0, q=2) for ak in b["table2"]]
    ids = {"daubechies": inequalities.InequalityId.DAUBECHIES,
           "heisenberg": inequalities.InequalityId.HEISENBERG_GENERAL,
           "negative_order": inequalities.InequalityId.NEGATIVE_ORDER}
    reports = []
    for tag, pair, orders in b["pairs"]:
        cfg = SystemConfig(d=pair.position.d, N=pair.position.N, q=2)
        for name, alpha, k in orders:
            params = {"k": k, "constant": "rigorous"} if name == "daubechies" \
                else {"alpha": alpha, "k": k}
            reports.append((tag, name, alpha, k, p.attempt(
                f"{name}{tag}", inequalities.evaluate, ids[name], pair, cfg, params)))
    out["pairs"] = reports
    if inject_failure:
        p.attempt("injected", constants.daubechies_factor, 1, -1.0)
    return out


def _pair_moment(ref, tag, space, order):
    if tag[0] == "hydrogenic":
        return ref["hydrogenic"][inputs.key(tag[1], space, order)]
    return ref["gaussian"][inputs.key(tag[1], tag[2], tag[3], space, order)]


def check_bounds(b, out, ref, v: checks.Verdict):
    points = []
    for dk, val in zip(b["table1"], out["table1"]):
        if val is not None:
            v.true(f"table1 {dk}: {val!r} within 5e-7 of {inputs.TABLE1_PUBLISHED[dk]}",
                   abs(val - inputs.TABLE1_PUBLISHED[dk]) <= 5e-7)
    for group in ("table1", "daub_ref"):
        for (d, k), val in zip(b[group], out[group]):
            if val is not None:
                v.close(f"daubechies {(d, k)}", val, ref["daubechies"][inputs.key(d, float(k))], 1e-10)
                points.append((d / k, val))
    for group in ("daub_seeded", "daub_overflow"):
        for (d, k), val in zip(b[group], out[group]):
            if val is not None:
                v.close(f"daubechies {(d, k)}", val, checks.daubechies_B(d, k), 1e-9)
                points.append((d / k, val))
    points.sort()
    v.true("B(rho) increases with rho", all(
        b1 <= b2 * (1 + 1e-12) for (_, b1), (_, b2) in zip(points, points[1:])))
    for mode, closed in (("F", checks.extremal_F_closed), ("G", checks.extremal_G_closed)):
        for x, res in zip(b[mode], out[mode]):
            if res is not None:
                v.close(f"extremal_{mode}{x}", res.numeric_value, closed(*x), 1e-8)
                v.true(f"extremal_{mode}{x}: discrepancy {res.discrepancy!r} <= 1e-8",
                       res.discrepancy is not None and res.discrepancy <= 1e-8)
    for ak, val in zip(b["table2"], out["table2"]):
        if val is not None:
            v.close(f"table2 {ak}", val, ref["table2"][inputs.key(*ak)], 1e-12)
    for tag, name, alpha, k, rep in out["pairs"]:
        if rep is None:
            continue
        pk = _pair_moment(ref, tag, "p", k)
        expected = pk if name == "daubechies" else _pair_moment(ref, tag, "r", alpha) ** (k / alpha) * pk
        v.close(f"{name}{tag} alpha={alpha} k={k} lhs", rep.lhs, expected, 1e-9, functional=True)


# -- cli-documents (traced: in process) ----------------------------------------

def run_cli_in_process(p: Pass, cmds):
    import uncrel.cli

    results = {}
    for cmd in cmds:
        buf = io.StringIO()
        p.attempted += 1
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            code = uncrel.cli.main(cmd.argv)
        if code != 0:
            p.failed.append(f"{cmd.name}: exit {code}")
        results[cmd.name] = (code, buf.getvalue())
    return results


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=["ho1d-fleet", "bounds-catalog", "cli-documents"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", choices=["full", "tiny"], default="full")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--perturb-reference", action="store_true")
    ap.add_argument("--inject-failure", action="store_true")
    args = ap.parse_args()
    # the traced run's spans are left raw: sampling inside them would add to them
    sampler = None if args.trace else hostspeed.Sampler().start()

    import uncrel  # noqa: F401
    import uncrel.cli  # noqa: F401

    tracer = None
    if args.trace:
        from layertrace import Tracer

        tracer = Tracer()
        tracer.install()
    rng = random.Random(args.seed)
    outdir = os.path.join(OUT, "cli")
    if args.workload == "ho1d-fleet":
        built = build_ho1d(rng, args.size)
    elif args.workload == "bounds-catalog":
        built = build_bounds(rng, args.size)
    else:
        os.makedirs(outdir, exist_ok=True)
        built = clidocs.commands(args.seed, outdir, args.size, args.inject_failure)
    setup = sampler.mark() if sampler else None
    print("READY", flush=True)
    if args.setup_only:
        if sampler:
            sampler.stop()
        print(json.dumps({"setup_speed": setup}), flush=True)
        return 0

    p = Pass()
    t0 = time.perf_counter()
    m0 = sampler.mark() if sampler else None
    if args.workload == "ho1d-fleet":
        out = run_ho1d(p, built, args.inject_failure)
    elif args.workload == "bounds-catalog":
        out = run_bounds(p, built, args.inject_failure)
    else:
        out = run_cli_in_process(p, built)
    if sampler:
        m1 = sampler.stop()
        wall, raw = m1["scaled_s"] - m0["scaled_s"], m1["work_s"] - m0["work_s"]
    else:
        wall = raw = time.perf_counter() - t0

    ref = checks.load_reference(args.perturb_reference)
    v = checks.Verdict()
    if args.workload == "ho1d-fleet":
        check_ho1d(out, ref, v)
    elif args.workload == "bounds-catalog":
        check_bounds(built, out, ref, v)
    else:
        clidocs.check_pass(args.seed, outdir, out, ref, v)
    result = {"wall_s": wall, "raw_wall_s": raw, "setup_speed": setup, "attempted": p.attempted, "failed": len(p.failed),
              "correct": v.correct, "max_rel_err": v.max_rel_err,
              "failures": p.failed[:8], "check_failures": v.failures[:8]}
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        result["layers"]["functionals.max_rel_err"] = v.max_rel_err
        os.makedirs(os.path.join(OUT, "trace"), exist_ok=True)
        path = os.path.join(OUT, "trace", f"{args.workload}-{args.seed}.json")
        tracer.dump(path, {"workload": args.workload, "seed": args.seed, "wall_s": wall})
        result["trace_file"] = os.path.relpath(path, ROOT)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
