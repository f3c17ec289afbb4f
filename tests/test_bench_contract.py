"""The names the benchmark's layer trace and worker reach into uncrel by.

bench/layertrace.py wraps uncrel functions by name from outside, so a
rename under src/ would silently drop them from a traced run; these
tests fail instead.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from uncrel import cli, functionals, inequalities, mathcore
from uncrel.constants import SystemConfig
from uncrel.densities import (DensityPair, RadialDensity, exponential_radial, gaussian_pair,
                              harmonic_fermions_1d, hydrogenic_pair)
from uncrel.varoracle import maximizer_density, minimizer_density

from helpers import gaussian_table, quadrature_only

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


layertrace = _load("layertrace")


def _traced_names():
    for table in (layertrace.LAYER_FUNCTIONS, layertrace.DENSITY_BUILDERS):
        for layer, names in table.items():
            for name in names:
                yield layer, name


@pytest.mark.parametrize("layer,name", list(_traced_names()))
def test_traced_function_resolves(layer, name):
    assert callable(getattr(importlib.import_module(f"uncrel.{layer}"), name))


def test_cli_hooks_resolve():
    assert set(cli._COMMANDS) == {"table1", "table2", "moments", "check", "sweep",
                                  "oracle", "export"}
    assert all(callable(cmd) for cmd in cli._COMMANDS.values())
    assert callable(cli.ReportDocument.render)


def test_functional_parameters():
    # the trace binds the functionals' arguments by these names
    for name in layertrace.LAYER_FUNCTIONS["functionals"]:
        params = inspect.signature(getattr(functionals, name)).parameters
        assert {"dens", "spec"} <= set(params)
    assert "alpha" in inspect.signature(functionals.radial_moment).parameters
    assert "m" in inspect.signature(functionals.entropic_moment).parameters


def test_traced_density_fields():
    # the trace swaps rho/drho with dataclasses.replace and reads the other
    # fields to tell a functional's density kind
    fields = set(RadialDensity.__dataclass_fields__)
    assert {"rho", "drho", "knots", "support", "label"} <= fields
    assert {"position", "momentum"} <= set(DensityPair.__dataclass_fields__)


@pytest.mark.parametrize("build", [lambda: harmonic_fermions_1d(12, 2).position, gaussian_table],
                         ids=["ho1d", "tabulated"])
def test_traced_density_keeps_fisher_bits(build, monkeypatch):
    # the trace's counted drho hands on the (rho, rho') pair, and the Fisher
    # integrand makes that one call a sweep and no rho call; rho is read
    # once, at a table's knots, for its floor and its left-out mass, and
    # no quadrature but the integrand's runs
    gk21, sweeps = mathcore._gk21, []

    def counted(f, lo, hi):
        sweeps.append(f.__name__)
        return gk21(f, lo, hi)

    plain, tracer = build(), layertrace.Tracer()
    traced = tracer.wrap_density(build())
    want = functionals.fisher_information(plain)
    monkeypatch.setattr(mathcore, "_gk21", counted)
    got = functionals.fisher_information(traced)
    assert (got.value.hex(), got.est_error.hex()) == (want.value.hex(), want.est_error.hex())
    assert tracer.counts["drho_calls"] == len(sweeps) > 0
    assert set(sweeps) == {"integrand"}
    assert tracer.counts["rho_calls"] == (plain.knots is not None)


# the kind the trace files each constructor's integrated functionals under;
# the per-kind times of traced runs compare across commits only while these hold
_FUNCTIONAL_KINDS = {
    "gaussian": (lambda: quadrature_only(gaussian_pair(3, 1.0).position), "halfline"),
    "gaussian-mom": (lambda: quadrature_only(gaussian_pair(3, 1.0).momentum), "halfline"),
    "hydrogenic": (lambda: quadrature_only(hydrogenic_pair(1.0).position), "halfline"),
    "hydrogenic-mom": (lambda: quadrature_only(hydrogenic_pair(1.0).momentum), "halfline"),
    "exponential": (lambda: quadrature_only(exponential_radial(3, 1.0)), "halfline"),
    "maximizer": (lambda: maximizer_density(3, 2.0, -1.0), "halfline"),
    "ho1d": (lambda: harmonic_fermions_1d(4, 2).position, "ho1d"),
    "ho1d-mom": (lambda: harmonic_fermions_1d(4, 2).momentum, "ho1d"),
    "minimizer": (lambda: minimizer_density(3, 2.0, 1.0), "compact"),
    "tabulated": (gaussian_table, "tabulated"),
}


@pytest.mark.parametrize("name", list(_FUNCTIONAL_KINDS))
def test_functional_kinds(name):
    build, kind = _FUNCTIONAL_KINDS[name]
    tracer = layertrace.Tracer()
    for fn, args in (("radial_moment", (0.5,)), ("entropic_moment", (2.0,)),
                     ("fisher_information", ())):
        traced = tracer._functional_wrapper(fn, getattr(functionals, fn))
        assert traced(build(), *args).method == "quadrature"
    assert sorted(tracer.kind_s) == [f"{fn}_s.{kind}" for fn in
                                     ("entropic_moment", "fisher_information", "radial_moment")]


def test_worker_inequality_ids():
    ids = inequalities.InequalityId
    assert ids.DAUBECHIES == "daubechies"
    assert ids.HEISENBERG_GENERAL == "heisenberg_general"
    assert ids.NEGATIVE_ORDER == "negative_order"
    for name in _load("inputs").HO1D_SWEEP:
        assert ids(name).value == name


def test_sweep_evaluates_through_the_module_global(monkeypatch):
    # inequalities.checks counts the calls of the wrapped module-level evaluate
    calls = []
    original = inequalities.evaluate

    def counted(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(inequalities, "evaluate", counted)
    fleet = [harmonic_fermions_1d(n, 1) for n in (1, 2, 3)]
    rows = inequalities.sweep(inequalities.InequalityId.CRAMER_RAO, fleet,
                              SystemConfig(d=1, N=1.0, q=1))
    assert len(rows) == len(calls) == 3
