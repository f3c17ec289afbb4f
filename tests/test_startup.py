"""Start-up: importing uncrel and running the CLI never loads scipy,
numpy.polynomial or numpy.ma, and numpy runs only at its first use.

scipy costs more import time than numpy and uncrel together, and no
command needs it; numpy.polynomial is nine more modules no command needs,
and numpy.ma, which np.median would import on a tabulated load, costs
about 10 ms.
The closed-form coefficients need only math: the package and its
constants import no numpy, every module imports without running it, and
`table1` and `table2` never load it.  A command that integrates does, into
the module the package binds; a numpy imported before uncrel is the one it
binds, a blocked numpy fails the import, and threads that read numpy first
all at once wait for its whole body.  Each check runs in a fresh
interpreter, since the test process itself imports numpy and scipy.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import uncrel
from uncrel import constants as C

SRC = str(Path(uncrel.__file__).resolve().parent.parent)
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    [SRC, *filter(None, [os.environ.get("PYTHONPATH")])]))

PROBE = r"""
import contextlib, io, json, runpy, sys

FORBIDDEN = ("scipy", "numpy.polynomial", "numpy.ma")

def forbidden_modules():
    return sorted(m for m in sys.modules
                  if any(m == p or m.startswith(p + ".") for p in FORBIDDEN))

def numpy_ran():
    return "numpy._core" in sys.modules

import uncrel, uncrel.cli
report = {"import": forbidden_modules(), "import.numpy": numpy_ran()}
del sys.modules["uncrel.cli"]  # runpy runs it afresh as __main__
for name, argv in json.loads(sys.argv[1]):
    sys.argv = ["uncrel.cli", *argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            runpy.run_module("uncrel.cli", run_name="__main__", alter_sys=True)
            code = 0
        except SystemExit as exc:
            code = exc.code
    report[name] = forbidden_modules()
    report[name + ".exit"] = code
    report[name + ".bytes"] = len(out.getvalue())
    report[name + ".numpy"] = numpy_ran()
import uncrel.mathcore as M
report["np"] = M.np is sys.modules["numpy"]
report["quad"] = M.quad_halfline(lambda r: M.np.exp(-r))[0]
print(json.dumps(report))
"""


def test_import_and_cli_leave_scipy_unloaded(tmp_path):
    table = tmp_path / "pos.csv"
    commands = [
        ("table1", ["table1"]),
        ("table2", ["table2"]),
        ("sweep", ["sweep", "--ineq", "cramer_rao", "--model", "ho1d", "--n", "1..3"]),
        ("export", ["export", "--model", "hydrogenic", "--points", "400", "--rmax", "12",
                    "--out", str(table)]),
        ("oracle", ["oracle", "--mode", "G", "--d", "3", "--alpha", "3", "--k", "-1"]),
        ("moments-file", ["moments", "--file", str(table), "--orders", "0,1"]),
    ]
    proc = subprocess.run([sys.executable, "-c", PROBE, json.dumps(commands)],
                          env=ENV, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["import"] == []
    for name, _ in commands:
        assert report[name + ".exit"] == 0, name
        assert report[name] == [], name
    for name in ("table1", "table2", "sweep", "oracle", "moments-file"):
        assert report[name + ".bytes"] > 0, name
    assert [report[k + ".numpy"] for k in ("import", "table1", "table2", "sweep")] == \
        [False, False, False, True]
    assert report["np"]
    assert abs(report["quad"] - 1.0) < 1e-12


CONSTANTS_PROBE = r"""
import json, sys

before = set(sys.modules)
import uncrel
package = sorted(set(sys.modules) - before)
import uncrel.constants as C
loaded = sorted(set(sys.modules) - before)
values = [C.daubechies_factor(3, 2.0), C.heisenberg_rhs(3, 2.0, 2.0, N=1.0, q=2),
          C.fisher_product_rhs("general", C.SystemConfig(d=3, N=2.0, q=2))]
print(json.dumps({"package": package, "constants": loaded,
                  "numpy": "numpy" in sys.modules, "values": [v.hex() for v in values]}))
"""


def test_package_and_constants_load_no_numpy():
    proc = subprocess.run([sys.executable, "-c", CONSTANTS_PROBE], env=ENV,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["package"] == ["uncrel"]
    assert not report["numpy"], report["constants"]
    assert [m for m in report["constants"] if m.startswith("uncrel")] == \
        ["uncrel", "uncrel.constants", "uncrel.errors"]
    assert report["values"] == [
        C.daubechies_factor(3, 2.0).hex(), C.heisenberg_rhs(3, 2.0, 2.0, N=1.0, q=2).hex(),
        C.fisher_product_rhs("general", C.SystemConfig(d=3, N=2.0, q=2)).hex()]


BOUND_PROBE = r"""
import sys
{before}
try:
    import uncrel.mathcore as M
    print(M.np is sys.modules["numpy"] is numpy)
except ImportError as exc:
    print(type(exc).__name__)
"""


@pytest.mark.parametrize("before, expected", [
    ("import numpy", "True"),
    ("numpy = sys.modules['numpy'] = None", "ModuleNotFoundError"),
], ids=["numpy-imported-first", "numpy-blocked"])
def test_mathcore_binds_the_numpy_of_sys_modules(before, expected):
    proc = subprocess.run([sys.executable, "-c", BOUND_PROBE.format(before=before)], env=ENV,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == expected


THREADS_PROBE = r"""
import json, sys, threading
import uncrel.mathcore as M

sys.setswitchinterval(1e-6)  # switch threads often while numpy's body runs
results, errors = [], []

def integrate():
    try:
        results.append(M.quad_halfline(lambda r: M.np.exp(-r))[0])
    except Exception as exc:
        errors.append(repr(exc))

threads = [threading.Thread(target=integrate) for _ in range(6)]
for t in threads:
    t.start()
for t in threads:
    t.join(60)
print(json.dumps({"alive": sum(t.is_alive() for t in threads), "errors": errors,
                  "results": results}))
"""


def test_threads_reading_numpy_first_wait_for_its_body():
    proc = subprocess.run([sys.executable, "-c", THREADS_PROBE], env=ENV,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["alive"] == 0 and report["errors"] == []
    assert len(report["results"]) == 6
    assert all(abs(v - 1.0) < 1e-12 for v in report["results"])
