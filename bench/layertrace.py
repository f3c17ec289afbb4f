"""Outside-in layer trace of uncrel.

Wraps the public functions of each module and puts the wrapper into every
uncrel namespace that holds the original, because the modules import
each other by name (``from .functionals import radial_moment``).  Each
wrapped call records a span (name, start, end, parent index); density
evaluations are only counted and timed, since there are ~10^5 of them a
pass.  Nothing under src/ changes; a process that installs the trace is
used for one traced pass and then exits.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

perf = time.perf_counter

# layer -> public functions recorded as spans
LAYER_FUNCTIONS = {
    "inequalities": ("evaluate", "sweep"),
    "constants": ("daubechies_factor", "rigorous_constant", "semiclassical_constant",
                  "thakkar_coefficient", "entropic_lower_coeff", "heisenberg_coeff",
                  "heisenberg_rhs", "negative_order_rhs", "entropic_upper_coeff_closed",
                  "zumbach_constant", "heisenberg_product_constant", "fisher_product_rhs"),
    "varoracle": ("extremal_F", "extremal_G"),
    "functionals": ("radial_moment", "entropic_moment", "fisher_information"),
    "mathcore": ("quad_halfline", "quad_finite", "gauss_cells", "minimize_scalar"),
    "cli": ("main", "build_parser", "build_state", "read_table"),
}
# public constructors whose densities get counted rho/drho
DENSITY_BUILDERS = {
    "densities": ("gaussian_pair", "hydrogenic_pair", "exponential_radial",
                  "harmonic_fermions_1d", "load_tabulated"),
    "varoracle": ("minimizer_density", "maximizer_density"),
}
FUNCTIONAL_KINDS = ("analytic", "halfline", "compact", "tabulated", "ho1d")
# functionals.<fn>_s.<kind>; Fisher information has no closed-form path
FUNCTIONAL_TIMES = tuple(f"{fn}_s.{kind}" for fn in LAYER_FUNCTIONS["functionals"]
                         for kind in FUNCTIONAL_KINDS
                         if (fn, kind) != ("fisher_information", "analytic"))


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent]
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.eval_s = 0.0
        self.kind_s: defaultdict = defaultdict(float)
        self._requests: set = set()
        self._alive: list = []  # keeps traced densities alive so id() stays unique
        self.document_bytes = 0

    # -- recording -----------------------------------------------------------
    def _spanned(self, name, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, perf(), 0.0, self._stack[-1] if self._stack else -1]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            out = None
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                rec[2] = perf()
                self._stack.pop()
                if after is not None:
                    after(rec, args, kwargs, out)

        return wrapper

    def _counted(self, kind, fn):
        def evaluate(x):
            t = perf()
            v = fn(x)
            self.eval_s += perf() - t
            self.counts[kind] += 1
            self.counts["eval_points"] += getattr(x, "size", 1)
            return v

        return evaluate

    def wrap_density(self, dens):
        return dataclasses.replace(dens, rho=self._counted("rho_calls", dens.rho),
                                   drho=self._counted("drho_calls", dens.drho))

    def _wrap_built(self, built):
        if hasattr(built, "position"):
            return dataclasses.replace(built, position=self.wrap_density(built.position),
                                       momentum=self.wrap_density(built.momentum))
        return self.wrap_density(built)

    # -- installation --------------------------------------------------------
    def install(self) -> None:
        import uncrel.cli  # noqa: F401  (the cli imports every layer)

        mods = {name: mod for name, mod in sys.modules.items()
                if name == "uncrel" or name.startswith("uncrel.")}
        replacements = {}  # id(original) -> wrapper
        for layer, names in LAYER_FUNCTIONS.items():
            mod = mods[f"uncrel.{layer}"]
            for name in names:
                orig = getattr(mod, name)
                replacements[id(orig)] = self._layer_wrapper(layer, name, orig)
        for layer, names in DENSITY_BUILDERS.items():
            mod = mods[f"uncrel.{layer}"]
            for name in names:
                orig = getattr(mod, name)
                replacements[id(orig)] = self._builder_wrapper(name, orig)
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                if id(value) in replacements:
                    setattr(mod, attr, replacements[id(value)])
        cli = mods["uncrel.cli"]
        cli._COMMANDS = {k: self._spanned("cli.command", v) for k, v in cli._COMMANDS.items()}
        render = cli.ReportDocument.render

        def after_render(rec, args, kwargs, out):
            if out is not None:
                self.document_bytes += len(out.encode("utf-8"))

        cli.ReportDocument.render = self._spanned("cli.render", render, after_render)

    def _layer_wrapper(self, layer, name, orig):
        span = f"{layer}.{name}"
        if layer == "functionals":
            return self._functional_wrapper(name, orig)
        if span == "mathcore.minimize_scalar":
            def minimize_scalar(f, *args, **kwargs):
                def objective(x):
                    self.counts["objective_evals"] += 1
                    return f(x)
                return orig(objective, *args, **kwargs)
            return self._spanned(span, functools.wraps(orig)(minimize_scalar))
        if span == "cli.build_parser":
            def build_parser(*args, **kwargs):
                parser = orig(*args, **kwargs)
                parser.parse_args = self._spanned("cli.parse_args", parser.parse_args)
                return parser
            return self._spanned(span, functools.wraps(orig)(build_parser))
        if span == "inequalities.evaluate":
            def after(rec, args, kwargs, out):
                if out is not None:
                    self.counts["checks"] += 1
            return self._spanned(span, orig, after)
        if span == "inequalities.sweep":
            def after(rec, args, kwargs, out):
                if out is not None:
                    self.counts["holes"] += sum(1 for r in out if r.satisfied is None)
            return self._spanned(span, orig, after)
        return self._spanned(span, orig)

    def _functional_wrapper(self, name, orig):
        from uncrel.mathcore import DEFAULT_QUADRATURE

        sig = inspect.signature(orig)

        def after(rec, args, kwargs, out):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            dens = a["dens"]
            order = a.get("alpha", a.get("m"))
            key = (id(dens), name, None if order is None else float(order),
                   a["spec"] or DEFAULT_QUADRATURE)
            self._alive.append(dens)
            self.counts[f"{name}_calls"] += 1
            self.counts["requests"] += 1
            if key in self._requests:
                self.counts["repeats"] += 1
            self._requests.add(key)
            if out is not None:
                self.counts["results"] += 1
                self.counts["analytic"] += out.method == "analytic"
            if out is not None and out.method == "analytic":
                kind = "analytic"
            elif dens.knots is not None:
                kind = "tabulated"
            elif dens.support is not None:
                kind = "compact"
            elif dens.label.startswith("ho1d"):
                kind = "ho1d"
            else:
                kind = "halfline"
            self.kind_s[f"{name}_s.{kind}"] += rec[2] - rec[1]

        return self._spanned(f"functionals.{name}", orig, after)

    def _builder_wrapper(self, name, orig):
        @functools.wraps(orig)
        def build(*args, **kwargs):
            return self._wrap_built(orig(*args, **kwargs))

        return self._spanned(f"densities.{name}", build)

    # -- reduction -----------------------------------------------------------
    def _self_times(self) -> list[float]:
        own = [rec[2] - rec[1] for rec in self.spans]
        for rec in self.spans:
            if rec[3] >= 0:
                own[rec[3]] -= rec[2] - rec[1]
        return own

    def _outer_time(self, names) -> float:
        """Inclusive time of spans in `names` not nested inside another of them."""
        total = 0.0
        for rec in self.spans:
            p = rec[3]
            while p >= 0 and self.spans[p][0] not in names:
                p = self.spans[p][3]
            if rec[0] in names and p < 0:
                total += rec[2] - rec[1]
        return total

    def _count(self, names) -> int:
        return sum(1 for rec in self.spans if rec[0] in names)

    def layer_metrics(self) -> dict:
        own = self._self_times()

        def self_of(prefix):
            return sum(t for rec, t in zip(self.spans, own) if rec[0].startswith(prefix))

        c = self.counts
        quad = {"mathcore.quad_halfline", "mathcore.quad_finite", "mathcore.gauss_cells"}
        builders = {f"densities.{n}" for names in DENSITY_BUILDERS.values() for n in names}
        evals = c["rho_calls"] + c["drho_calls"]
        m = {
            "cli.parse_s": self._outer_time({"cli.build_parser", "cli.parse_args"}),
            # read_table is reached only through build_state; io_s counts it
            "cli.build_state_s": self._outer_time({"cli.build_state"})
            - self._outer_time({"cli.read_table"}),
            "cli.render_s": self._outer_time({"cli.render"}),
            "cli.io_s": self._outer_time({"cli.read_table"})
            + sum(t for rec, t in zip(self.spans, own) if rec[0] == "cli.main"),
            "cli.document_bytes": self.document_bytes,
            "inequalities.checks": c["checks"],
            "inequalities.holes": c["holes"],
            "inequalities.self_s": self_of("inequalities."),
            "constants.daubechies_calls": self._count({"constants.daubechies_factor"}),
            "constants.daubechies_s": self._outer_time({"constants.daubechies_factor"}),
            "constants.self_s": self_of("constants."),
            "varoracle.extremal_calls": self._count({"varoracle.extremal_F",
                                                     "varoracle.extremal_G"}),
            "varoracle.extremal_s": self._outer_time({"varoracle.extremal_F",
                                                      "varoracle.extremal_G"}),
            "functionals.radial_moment_calls": c["radial_moment_calls"],
            "functionals.entropic_moment_calls": c["entropic_moment_calls"],
            "functionals.fisher_information_calls": c["fisher_information_calls"],
            "functionals.analytic_share": c["analytic"] / c["results"] if c["results"] else 0.0,
            "functionals.repeat_share": c["repeats"] / c["requests"] if c["requests"] else 0.0,
            "mathcore.quad_calls": self._count(quad),
            "mathcore.quad_s": self._outer_time(quad),
            "mathcore.minimize_calls": self._count({"mathcore.minimize_scalar"}),
            "mathcore.minimize_s": self._outer_time({"mathcore.minimize_scalar"}),
            "mathcore.objective_evals": c["objective_evals"],
            "densities.rho_calls": c["rho_calls"],
            "densities.drho_calls": c["drho_calls"],
            "densities.eval_points": c["eval_points"],
            "densities.points_per_call": c["eval_points"] / evals if evals else 0.0,
            "densities.eval_s": self.eval_s,
            "densities.build_s": self._outer_time(builders),
        }
        for name in FUNCTIONAL_TIMES:
            m[f"functionals.{name}"] = self.kind_s[name]
        return m

    def dump(self, path: str, meta: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"meta": meta, "fields": ["name", "start", "end", "parent"],
                       "spans": self.spans}, fh)
