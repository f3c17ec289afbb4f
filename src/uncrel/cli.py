"""Command-line surface: reference-constant tables, functional evaluation,
inequality checks, fleet sweeps, the variational oracle, and tabulated
density file I/O.  The model states are the rows of `MODELS`: its keys are
the `--model` choices, and each row names the flag that `sweep --n` steps.

Exit codes: 0 success, 2 malformed input, 3 parameter outside a validity
window, 4 numerical non-convergence.  A `moments` order or a `sweep`
member that fails with one of the last two, and a `sweep` member whose
state cannot be built (exit 3), becomes a hole row of an exit-0 document
instead.  Documents are deterministic (field order fixed, numbers at 12
significant digits, no timestamps): identical invocations produce
byte-identical output.  `table1` and `table2`, closed forms, never load numpy.

Tabulated density file format (UTF-8 CSV): leading comment lines
``# d=<int>``, ``# N=<real>`` and optionally ``# space=position|momentum``,
an optional ``r,rho`` header line, then two columns r,rho with strictly
increasing r.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

from . import __version__, constants, varoracle
from .constants import SystemConfig
from .densities import (DensityPair, exponential_radial, gaussian_pair,
                        harmonic_fermions_1d, hydrogenic_pair, load_tabulated)
from .errors import (ConvergenceError, DomainError, FormatError, UncrelError, check_integer,
                     check_positive)
from .functionals import radial_moment
from .inequalities import CATALOG, BoundReport, _hole, evaluate, sweep
from .mathcore import QuadratureSpec, np

_G174 = math.gamma(17.0 / 4.0)
_G114 = math.gamma(11.0 / 4.0)
_G34 = math.gamma(3.0 / 4.0)
_PI = math.pi

# Published values of the Daubechies factor B(d, k), six significant digits.
TABLE1_REFERENCE = {
    (1, 1): 0.165728, (2, 1): 0.405724, (3, 1): 0.537513, (4, 1): 0.618094,
    (1, 2): 0.021331, (2, 2): 0.165728, (3, 2): 0.303977, (4, 2): 0.405724,
    (1, 3): 0.002056, (2, 3): 0.061935, (3, 3): 0.165728, (4, 3): 0.262190,
    (1, 4): 0.000158, (2, 4): 0.021331, (3, 4): 0.086812, (4, 4): 0.165728,
}

# Closed-form d = 3, q = 2 product-bound coefficients, coded independently
# of the constants module.  Two cells of the published table are known to
# be inconsistent with the general formula and carry corrections here:
# the (alpha=2, k=4) coefficient needs the Gamma-ratio raised to the 4/3
# power (published exponent 1), and the (alpha=4, k=2) N-exponent is 13/6
# (published as 13/16).  Both corrections are reported in the table output.
TABLE2_REFERENCE = {
    (1, 1): ((9 / 49) * (45 * _PI) ** (1 / 3), "7/3", ""),
    (1, 2): ((243 / 5324) * (35 * _PI) ** (2 / 3), "11/3", ""),
    (1, 3): ((243 / 625) * _PI, "5", ""),
    (1, 4): ((841995 / 39617584) * (3465 * _PI ** 4) ** (1 / 3), "19/3", ""),
    (2, 1): ((9 / 22) * math.sqrt(3 / 11) * (35 * _PI) ** (1 / 3), "11/6", ""),
    (2, 2): ((9 / 16) * 3 ** (2 / 3), "8/3", ""),
    (2, 3): ((135 / 196) * math.sqrt(3 / 7) * _PI, "7/2", ""),
    (2, 4): ((2268 / 28561) * ((21 / 13) * _PI ** 2) ** (1 / 3) * (_G174 / _G114) ** (4 / 3),
             "13/3", "published coefficient lacks the 4/3 power on the Gamma ratio"),
    (3, 1): ((3 / 5) * ((9 / 5) * _PI) ** (1 / 3), "5/3", ""),
    (3, 2): (3 * (45 * _PI / (196 * math.sqrt(7))) ** (2 / 3), "7/3", ""),
    (3, 3): (_PI / 2, "3", ""),
    (3, 4): ((189 / 484) * ((63 / 44) * _PI ** 4) ** (1 / 3), "11/3", ""),
    (4, 1): ((3 / 38) * (3 / 19) ** (1 / 4) * (3465 * _PI) ** (1 / 3), "19/12", ""),
    (4, 2): ((24 * math.sqrt(3) / 169) * (4 * _PI / math.sqrt(13)) ** (1 / 3)
             * (_G174 / _G34) ** (2 / 3),
             "13/6", "published N-exponent 13/16; the general formula gives 13/6"),
    (4, 3): ((21 / 4) * (3 / 11) ** (7 / 4) * _PI, "11/4", ""),
    (4, 4): ((567 / 3200) * (63 / 2) ** (1 / 3) * _PI ** 2 / (_G34 * _G114) ** (4 / 3),
             "10/3", ""),
}


def _fmt(x) -> str:
    if isinstance(x, float):
        if math.isnan(x):
            return "nan"
        return f"{x:.12g}"
    return str(x)


class ReportDocument:
    """Rows plus metadata, rendered as CSV or JSON with a fixed field order."""

    def __init__(self, metadata: dict, fieldnames: list[str], rows: list[dict]):
        self.metadata = metadata
        self.fieldnames = fieldnames
        self.rows = rows

    def render(self, fmt: str) -> str:
        if fmt == "json":
            doc = {"metadata": {k: _fmt(v) for k, v in self.metadata.items()},
                   "rows": [{k: _fmt(row.get(k, "")) for k in self.fieldnames}
                            for row in self.rows]}
            return json.dumps(doc, indent=2) + "\n"
        out = io.StringIO()
        for k, v in self.metadata.items():
            out.write(f"# {k}={_fmt(v)}\n")
        writer = csv.DictWriter(out, fieldnames=self.fieldnames, lineterminator="\n")
        writer.writeheader()
        for row in self.rows:
            writer.writerow({k: _fmt(row.get(k, "")) for k in self.fieldnames})
        return out.getvalue()


def _metadata(spec: QuadratureSpec, cfg: SystemConfig | None = None, **extra) -> dict:
    md = {"tool": "uncrel", "version": __version__,
          "rel_tol": spec.rel_tol, "abs_tol": spec.abs_tol}
    if cfg is not None:
        md.update({"d": cfg.d, "N": cfg.N, "q": cfg.q})
    md.update(extra)
    return md


# inequality params, the CLI flags of check and sweep, typed by their defaults
_PARAM_FLAGS = {key: type(value) for e in CATALOG.values() for key, value in e.params.items()}

_INEQ_NAMES = (", ".join(CATALOG) + "; aliases: "
               + ", ".join(f"{e.alias} = {e.id}" for e in CATALOG.values() if e.alias))


def _report_row(rep: BoundReport) -> dict:
    row = {"inequality": rep.ineq, "state": rep.inputs.get("state", ""),
           "d": rep.inputs.get("d", ""), "N": rep.inputs.get("N", ""),
           "q": rep.inputs.get("q", ""), "direction": rep.direction.value,
           "lhs": rep.lhs, "rhs": rep.rhs, "margin": rep.margin,
           "ratio": rep.ratio, "status": rep.status, "note": rep.note}
    for key, value in rep.inputs.items():
        if key in _PARAM_FLAGS:
            row["params"] = row.get("params", "") + f"{key}={_fmt(value)};"
    return row


_REPORT_FIELDS = ["inequality", "state", "d", "N", "q", "params", "direction",
                  "lhs", "rhs", "margin", "ratio", "status", "note"]


def cmd_table1(args, spec: QuadratureSpec) -> ReportDocument:
    rows = []
    for k in (1, 2, 3, 4):
        for d in (1, 2, 3, 4):
            val = constants.daubechies_factor(d, float(k))
            ref = TABLE1_REFERENCE[(d, k)]
            # B carries ~1e-16 absolute error: print the difference to the
            # 1e-12 it resolves, not to the ulps of B
            rows.append({"d": d, "k": k, "computed": val, "reference": ref,
                         "abs_diff": round(abs(val - ref), 12)})
    return ReportDocument(_metadata(spec, table="daubechies_factor"),
                          ["d", "k", "computed", "reference", "abs_diff"], rows)


def cmd_table2(args, spec: QuadratureSpec) -> ReportDocument:
    rows = []
    for alpha in (1, 2, 3, 4):
        for k in (1, 2, 3, 4):
            coeff = constants.heisenberg_rhs(3, float(alpha), float(k), N=1.0, q=2)
            ref, _, note = TABLE2_REFERENCE[(alpha, k)]
            exponent = constants.heisenberg_exponent(3, float(alpha), float(k))
            rows.append({"alpha": alpha, "k": k, "coefficient": coeff,
                         "closed_form": ref,
                         "rel_diff": abs(coeff - ref) / ref,
                         "N_exponent": exponent, "note": note})
    return ReportDocument(_metadata(spec, table="heisenberg_d3_q2"),
                          ["alpha", "k", "coefficient", "closed_form",
                           "rel_diff", "N_exponent", "note"], rows)


def read_table(path: str):
    """Parse a tabulated density file; returns (header dict, r, rho)."""
    header: dict[str, str] = {}
    rs, rhos = [], []
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                if line.startswith("#"):
                    body = line.lstrip("#").strip()
                    if "=" in body:
                        key, _, value = body.partition("=")
                        header[key.strip()] = value.strip()
                    continue
                parts = [p.strip() for p in line.split(",")]
                if parts[0].lower() in ("r", "radius"):
                    continue
                if len(parts) < 2:
                    raise FormatError(f"{path}: expected two columns, got {line!r}")
                try:
                    rs.append(float(parts[0]))
                    rhos.append(float(parts[1]))
                except ValueError as exc:
                    raise FormatError(f"{path}: non-numeric row {line!r}") from exc
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    return header, np.asarray(rs), np.asarray(rhos)


_SPACES = ("position", "momentum")


def _density_from_file(path: str, q: int):
    """Density of a table file and its space (header `# space=`, default position)."""
    header, r, rho = read_table(path)
    try:
        d = int(header.get("d", "3"))
        n_decl = float(header.get("N", "1"))
    except ValueError as exc:
        raise FormatError(f"{path}: bad header value: {exc}") from exc
    space = header.get("space", "position")
    if space not in _SPACES:
        raise FormatError(f"{path}: space must be position or momentum, got {space!r}")
    return load_tabulated(SystemConfig(d=d, N=n_decl, q=q), r, rho), space


# --model name -> (builder of its state from the parsed flags, the flag that
# `sweep --n` steps, None for a position-only model).  The builders name the
# constructors when called, so that wrappers installed after import see them.
MODELS = {
    "ho1d": (lambda a: harmonic_fermions_1d(a.n, a.q), "n"),
    "hydrogenic": (lambda a: hydrogenic_pair(float(a.Z)), "Z"),
    "gaussian": (lambda a: gaussian_pair(a.d, a.a, float(a.count)), "count"),
    "exponential": (lambda a: exponential_radial(a.d, a.lam, a.count), None),
}
_SWEPT = {name: flag for name, (_, flag) in MODELS.items() if flag is not None}


def build_state(args):
    """Build the requested density or pair plus its SystemConfig and, for a
    single density, the space it lives in (None for a pair)."""
    q = args.q
    if getattr(args, "position", None) or getattr(args, "momentum", None):
        if not (args.position and args.momentum):
            raise FormatError("conjugate-space checks need both --position and --momentum")
        pos, pos_space = _density_from_file(args.position, q)
        mom, mom_space = _density_from_file(args.momentum, q)
        if (pos_space, mom_space) != _SPACES:
            raise DomainError(f"the --position and --momentum files hold {pos_space}- "
                              f"and {mom_space}-space densities")
        pair = DensityPair(pos, mom, real_wavefunction=False, label="tabulated-pair")
        return pair, SystemConfig(d=pos.d, N=pos.N, q=q), None
    if getattr(args, "file", None):
        dens, space = _density_from_file(args.file, q)
        return dens, SystemConfig(d=dens.d, N=dens.N, q=q), space
    if args.model not in MODELS:
        raise FormatError(f"unknown model {args.model!r} and no input file given")
    state = MODELS[args.model][0](args)
    if isinstance(state, DensityPair):
        return state, SystemConfig(d=state.position.d, N=state.position.N, q=q), None
    return state, SystemConfig(d=state.d, N=state.N, q=q), "position"


def _select_space(state, held: str | None, wanted: str | None):
    """(density, space): the `wanted` side of a pair (default position), or
    the single density, whose space `held` a `wanted` space must match."""
    if isinstance(state, DensityPair):
        space = wanted or "position"
        return getattr(state, space), space
    if wanted not in (None, held):
        raise DomainError(f"this input has no {wanted}-space density")
    return state, held


def _parse_orders(text: str) -> list[float]:
    try:
        orders = [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise FormatError(f"bad orders list {text!r}") from exc
    if not orders:
        raise FormatError(f"empty orders list {text!r}")
    return orders


def cmd_moments(args, spec: QuadratureSpec) -> ReportDocument:
    state, cfg, held = build_state(args)
    dens, space = _select_space(state, held, args.space)
    rows = []
    for order in _parse_orders(args.orders):
        try:
            mv = radial_moment(dens, order, spec)
        except (DomainError, ConvergenceError) as exc:  # a hole row, as in sweeps
            rows.append({"space": space, "order": order,
                         "method": f"hole: {type(exc).__name__}: {exc}"})
            continue
        rows.append({"space": space, "order": mv.order, "value": mv.value,
                     "method": mv.method, "est_error": mv.est_error})
    return ReportDocument(_metadata(spec, cfg, state=dens.label),
                          ["space", "order", "value", "method", "est_error"], rows)


def _resolve_ineq(name: str) -> str:
    for entry in CATALOG.values():
        if name in (entry.id, entry.alias):
            return entry.id
    raise FormatError(f"unknown inequality {name!r}; known: {_INEQ_NAMES}")


def _ineq_params(args) -> dict:
    return {key: getattr(args, key) for key in _PARAM_FLAGS if getattr(args, key) is not None}


def cmd_check(args, spec: QuadratureSpec) -> ReportDocument:
    ineq = _resolve_ineq(args.ineq)
    state, cfg, _ = build_state(args)
    if not isinstance(state, DensityPair):
        raise DomainError("inequality checks need a conjugate density pair "
                          "(this input is position-only)")
    rep = evaluate(ineq, state, cfg, _ineq_params(args), spec=spec)
    return ReportDocument(_metadata(spec, cfg), _REPORT_FIELDS, [_report_row(rep)])


def _parse_range(text: str) -> list[int]:
    try:
        if ".." in text:
            lo, _, hi = text.partition("..")
            values = list(range(int(lo), int(hi) + 1))
        else:
            values = [int(tok) for tok in text.split(",")]
    except ValueError as exc:
        raise FormatError(f"bad range {text!r}") from exc
    if not values:
        raise FormatError(f"empty range {text!r}")
    return values


def cmd_sweep(args, spec: QuadratureSpec) -> ReportDocument:
    ineq = _resolve_ineq(args.ineq)
    if args.model not in _SWEPT:
        raise FormatError(f"sweeps support models {', '.join(_SWEPT)}; got {args.model!r}")
    flag = _SWEPT[args.model]
    # the sweep's flags, not a member's: a bad one fails the sweep whole
    check_integer("dimension", args.d)
    check_positive("length scale", args.a)
    check_integer("spin multiplicity", args.q)
    values = _parse_range(args.n_range)
    entry = CATALOG[ineq]
    params = entry.with_params(_ineq_params(args))
    # a member whose state cannot be built is a hole row, ahead of the swept rows
    holes, fleet, cfgs = [], [], []
    for n in values:
        try:
            state, cfg, _ = build_state(argparse.Namespace(**{**vars(args), flag: n}))
        except DomainError as exc:
            inputs = {"state": f"{args.model}({flag}={n})", "q": args.q, **params}
            holes.append(_hole(entry.id, entry.direction, inputs, str(exc)))
            continue
        fleet.append(state)
        cfgs.append(cfg)
    reports = holes + (sweep(ineq, fleet, cfgs[0], params, spec=spec) if fleet else [])
    rows = [_report_row(r) for r in reports]
    return ReportDocument(_metadata(spec, ineq=ineq, model=args.model),
                          _REPORT_FIELDS, rows)


def cmd_oracle(args, spec: QuadratureSpec) -> ReportDocument:
    res = getattr(varoracle, f"extremal_{args.mode}")(args.d, args.alpha, args.k, spec)
    rows = [{"mode": args.mode, "d": res.d, "alpha": res.alpha, "k": res.k,
             "numeric": res.numeric_value,
             "closed_form": res.closed_form_value, "discrepancy": res.discrepancy}]
    return ReportDocument(_metadata(spec, mode=args.mode),
                          ["mode", "d", "alpha", "k", "numeric", "closed_form",
                           "discrepancy"], rows)


def cmd_export(args, spec: QuadratureSpec) -> ReportDocument:
    check_integer("point count", args.points)
    if args.rmax is not None:
        check_positive("rmax", args.rmax)
    state, cfg, held = build_state(args)
    dens, space = _select_space(state, held, args.space)
    # without --rmax the grid ends at the last breakpoint of the first
    # quadrature sweep: a table's last radius, past a model's bulk
    grid = np.linspace(0.0, dens.cuts[-1] if args.rmax is None else args.rmax, args.points)
    vals = dens.rho(grid)
    rows = [{"r": float(r), "rho": float(v)} for r, v in zip(grid, vals)]
    return ReportDocument({"d": dens.d, "N": dens.N, "space": space},
                          ["r", "rho"], rows)


def _add_state_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", choices=MODELS, help="analytic model state")
    p.add_argument("--d", type=int, default=3, help="spatial dimension (model states)")
    p.add_argument("--a", type=float, default=1.0, help="gaussian length scale")
    p.add_argument("--Z", type=float, default=1.0, help="hydrogenic charge")
    p.add_argument("--lam", type=float, default=1.0, help="exponential decay rate")
    p.add_argument("--count", type=float, default=1.0, help="particle count N")
    p.add_argument("--n", type=int, default=1, help="fermion number for ho1d")
    p.add_argument("--q", type=int, default=2, help="spin multiplicity q = 2s + 1")
    p.add_argument("--file", help="tabulated density file")
    p.add_argument("--position", help="tabulated position-space density file")
    p.add_argument("--momentum", help="tabulated momentum-space density file")


def _add_space_argument(p: argparse.ArgumentParser) -> None:
    p.add_argument("--space", choices=_SPACES, default=None,
                   help="side of a conjugate pair (default position); a tabulated "
                        "file holds the space of its '# space=' header")


def _add_param_arguments(p: argparse.ArgumentParser) -> None:
    for key, kind in _PARAM_FLAGS.items():
        p.add_argument(f"--{key}", type=kind, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uncrel",
        description="Uncertainty-relation functionals and verified bounds for "
                    "d-dimensional radial densities.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=["csv", "json"], default="csv",
                        help="output document format")
    common.add_argument("--out", help="write the document to this path instead of stdout")
    common.add_argument("--tol", type=float, default=None,
                        help="quadrature relative tolerance (default 1e-10)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("table1", parents=[common],
                   help="Daubechies factor grid B(d,k), d,k in 1..4, "
                        "against the published values")
    sub.add_parser("table2", parents=[common],
                   help="d=3 electron-system product-bound coefficients "
                        "against independently coded closed forms")

    p = sub.add_parser("moments", parents=[common], help="radial moments of a density")
    _add_state_arguments(p)
    p.add_argument("--orders", default="0",
                   help="comma-separated moment orders; a list starting with a "
                        "negative order needs the = form, --orders=-0.5,1")
    _add_space_argument(p)

    p = sub.add_parser("check", parents=[common], help="evaluate one inequality on one state")
    p.add_argument("--ineq", required=True, help=f"inequality: {_INEQ_NAMES}")
    _add_state_arguments(p)
    _add_param_arguments(p)

    p = sub.add_parser("sweep", parents=[common], help="evaluate one inequality across a model fleet")
    p.add_argument("--ineq", required=True, help=f"inequality: {_INEQ_NAMES}")
    p.add_argument("--model", default="ho1d", help="model fleet: " + ", ".join(_SWEPT))
    p.add_argument("--n", dest="n_range", default="1..10",
                   help="range like 1..20 or comma list, stepping "
                        + ", ".join(f"--{flag} of {name}" for name, flag in _SWEPT.items()))
    p.add_argument("--d", type=int, default=3)
    p.add_argument("--a", type=float, default=1.0)
    p.add_argument("--q", type=int, default=2)
    _add_param_arguments(p)

    p = sub.add_parser("oracle", parents=[common], help="variational reconstruction of a bound constant")
    p.add_argument("--mode", required=True, choices=["F", "G"])
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--k", type=float, required=True)

    p = sub.add_parser("export", parents=[common], help="write a model density to the tabulated CSV format")
    _add_state_arguments(p)
    _add_space_argument(p)
    p.add_argument("--points", type=int, default=400)
    p.add_argument("--rmax", type=float, default=None,
                   help="end of the grid (default: the density's last quadrature breakpoint)")
    return parser


_COMMANDS = {"table1": cmd_table1, "table2": cmd_table2, "moments": cmd_moments,
             "check": cmd_check, "sweep": cmd_sweep, "oracle": cmd_oracle,
             "export": cmd_export}


def _quadrature_spec(args) -> QuadratureSpec:
    return QuadratureSpec() if args.tol is None else QuadratureSpec(rel_tol=args.tol)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        spec = _quadrature_spec(args)
        doc = _COMMANDS[args.command](args, spec)
        text = doc.render(args.format)
        if args.out:
            try:
                with open(args.out, "w", encoding="utf-8") as fh:
                    fh.write(text)
            except OSError as exc:
                raise FormatError(f"cannot write {args.out}: {exc}") from exc
    except UncrelError as exc:
        code = 2 if isinstance(exc, FormatError) else 4 if isinstance(exc, ConvergenceError) else 3
        if args.format == "json":
            payload = {"error": {"type": type(exc).__name__, "message": str(exc),
                                 "exit_code": code}}
            print(json.dumps(payload, indent=2))
        else:
            print(f"error[{type(exc).__name__}]: {exc}", file=sys.stderr)
        return code
    if not args.out:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
