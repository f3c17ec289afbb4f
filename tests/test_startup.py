"""Start-up: importing uncrel and running the CLI never loads scipy or
numpy.polynomial.

scipy costs more import time than numpy and uncrel together, and no
command needs it; numpy.polynomial is nine more modules no command needs.
Each check runs in a fresh interpreter, since the test process itself
imports scipy for its reference comparisons.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import uncrel

SRC = str(Path(uncrel.__file__).resolve().parent.parent)

PROBE = r"""
import contextlib, io, json, runpy, sys

FORBIDDEN = ("scipy", "numpy.polynomial")

def forbidden_modules():
    return sorted(m for m in sys.modules
                  if any(m == p or m.startswith(p + ".") for p in FORBIDDEN))

import uncrel, uncrel.cli
report = {"import": forbidden_modules()}
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
print(json.dumps(report))
"""


def test_import_and_cli_leave_scipy_unloaded(tmp_path):
    table = tmp_path / "pos.csv"
    commands = [
        ("export", ["export", "--model", "hydrogenic", "--points", "400", "--rmax", "12",
                    "--out", str(table)]),
        ("table1", ["table1"]),
        ("oracle", ["oracle", "--mode", "G", "--d", "3", "--alpha", "3", "--k", "-1"]),
        ("moments-file", ["moments", "--file", str(table), "--orders", "0,1"]),
    ]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC, *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run([sys.executable, "-c", PROBE, json.dumps(commands)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["import"] == []
    for name, _ in commands:
        assert report[name + ".exit"] == 0, name
        assert report[name] == [], name
    for name in ("table1", "oracle", "moments-file"):
        assert report[name + ".bytes"] > 0, name
