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
from uncrel.densities import DensityPair, RadialDensity, harmonic_fermions_1d

from helpers import gaussian_table

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
    # only for a table's floor and its left-out mass
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
    assert tracer.counts["drho_calls"] == sweeps.count("integrand") > 0
    assert tracer.counts["rho_calls"] == (plain.knots is not None) + sweeps.count("excluded")
    assert len(sweeps) == tracer.counts["drho_calls"] + sweeps.count("excluded")


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
