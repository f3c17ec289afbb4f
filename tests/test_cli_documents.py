"""Golden CLI documents: (exit code, stdout, stderr) of in-process
`uncrel.cli.main` calls, compared byte for byte with tests/data/cli_documents.json.

The CLI promises byte-identical documents for identical invocations; this
holds that promise across changes to the code, not only between two runs
of the same code.  A change that moves a document on purpose regenerates
the file and names the moved cells in CHANGES.md; before it writes, the
script prints the argv and the changed lines of each document that moved:

    PYTHONPATH=src python tests/test_cli_documents.py
"""

import contextlib
import difflib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from uncrel.cli import main

DATA = Path(__file__).resolve().parent / "data" / "cli_documents.json"
# table files of the tabulated commands live here; recorded argv say {tmp}
TMP = "{tmp}"

IDS = ("thakkar_upper", "thakkar_lower", "daubechies", "heisenberg_general",
       "heisenberg_d3", "negative_order", "zumbach", "zumbach_conjugate",
       "fisher_product_heisenberg", "fisher_product_N", "fisher_product_largeN",
       "fisher_d3", "cramer_rao", "fisher_real_4d2")
ALIASES = ("thakkar", "heisenberg")

CHECK_STATES = (
    ("--model", "hydrogenic", "--Z", "1"),
    ("--model", "gaussian", "--d", "1"),
    ("--model", "gaussian", "--d", "3", "--a", "0.7"),
    ("--model", "ho1d", "--n", "3"),
    ("--model", "exponential", "--d", "3"),
)

SWEEP_FLEETS = (
    ("--model", "ho1d", "--n", "1..3"),
    ("--model", "ho1d", "--n", "1..3", "--q", "1"),
    ("--model", "gaussian", "--d", "3", "--n", "1..2"),
)

H = ("--model", "hydrogenic", "--Z", "1")
G3 = ("--model", "gaussian", "--d", "3")

# selector forms, k signs and params a relation does not take
PARAM_COMMANDS = (
    ("check", "--ineq", "thakkar_upper", *H, "--constant", "semiclassical"),
    ("check", "--ineq", "thakkar_upper", *H, "--constant", "thakkar", "--k", "-2"),
    ("check", "--ineq", "thakkar_upper", *H, "--constant", "rigorous"),
    ("check", "--ineq", "thakkar_upper", *H, "--k", "1"),
    ("check", "--ineq", "thakkar_upper", *H, "--k", "-3"),
    ("check", "--ineq", "thakkar_lower", *H, "--constant", "semiclassical", "--k", "3"),
    ("check", "--ineq", "thakkar_lower", *G3, "--constant", "semiclassical", "--q", "1"),
    ("check", "--ineq", "thakkar_lower", *H, "--constant", "rigorous"),
    ("check", "--ineq", "thakkar_lower", *H, "--k", "-1"),
    ("check", "--ineq", "thakkar", *H, "--k", "4"),
    ("check", "--ineq", "daubechies", *H, "--constant", "thakkar"),
    ("check", "--ineq", "daubechies", *H, "--constant", "semiclassical"),
    ("check", "--ineq", "daubechies", *H, "--k", "-1"),
    ("check", "--ineq", "daubechies", *H, "--k", "3", "--q", "1"),
    ("check", "--ineq", "daubechies", *H, "--constant", "bogus"),
    ("check", "--ineq", "heisenberg_general", *H, "--alpha", "1", "--k", "1"),
    ("check", "--ineq", "heisenberg_general", *H, "--q", "1"),
    ("check", "--ineq", "heisenberg", *H, "--alpha", "-1"),
    ("check", "--ineq", "heisenberg", *H, "--k", "-1"),
    ("check", "--ineq", "heisenberg_d3", *G3, "--q", "1"),
    ("check", "--ineq", "heisenberg_d3", *H, "--alpha", "3", "--k", "4"),
    ("check", "--ineq", "heisenberg_d3", *H, "--orientation", "momentum"),
    ("check", "--ineq", "negative_order", *H, "--alpha", "3", "--k", "-1"),
    ("check", "--ineq", "negative_order", *H, "--alpha", "1", "--k", "-1"),
    ("check", "--ineq", "negative_order", *H, "--k", "1"),
    ("check", "--ineq", "negative_order", *H, "--k", "-3.5"),
    ("check", "--ineq", "zumbach", *H, "--orientation", "momentum"),
    ("check", "--ineq", "zumbach", *H, "--orientation", "position"),
    ("check", "--ineq", "zumbach", *H, "--orientation", "bogus"),
    ("check", "--ineq", "zumbach", *H, "--k", "1"),
    ("check", "--ineq", "zumbach_conjugate", *H, "--orientation", "momentum"),
    ("check", "--ineq", "zumbach", "--model", "gaussian", "--d", "6"),
    ("check", "--ineq", "fisher_product_heisenberg", *H, "--variant", "real_4d2"),
    ("check", "--ineq", "fisher_product_N", *H, "--variant", "general"),
    ("check", "--ineq", "fisher_product_N", *H, "--variant", "electronic"),
    ("check", "--ineq", "fisher_product_N", *H, "--variant", "d3_electron"),
    ("check", "--ineq", "fisher_product_largeN", *H, "--variant", "large_N_electron"),
    ("check", "--ineq", "fisher_product_largeN", *G3, "--variant", "large_N_fermion"),
    ("check", "--ineq", "fisher_d3", *H, "--variant", "d3_large_N"),
    ("check", "--ineq", "fisher_d3", *H, "--variant", "bogus"),
    ("check", "--ineq", "fisher_real_4d2", *H, "--variant", "general"),
    ("check", "--ineq", "cramer_rao", *H, "--alpha", "2", "--variant", "bogus"),
    ("check", "--ineq", "bogus", *H),
    ("sweep", "--ineq", "zumbach", "--model", "ho1d", "--n", "1..2", "--k", "1"),
    ("sweep", "--ineq", "thakkar_lower", "--model", "gaussian", "--d", "3", "--n", "1,2",
     "--k", "-1"),
    ("sweep", "--ineq", "negative_order", "--model", "hydrogenic", "--n", "1..2",
     "--alpha", "1"),
    ("sweep", "--ineq", "heisenberg", "--model", "hydrogenic", "--n", "1..3",
     "--alpha", "3", "--k", "1", "--format", "json"),
    ("sweep", "--ineq", "fisher_real_4d2", "--model", "gaussian", "--d", "2", "--n", "1..2",
     "--variant", "general"),
    ("sweep", "--ineq", "zumbach", "--n", "3..2"),
    ("sweep", "--ineq", "zumbach", "--model", "exponential"),
)

MOMENT_STATES = (
    (*H,),
    (*H, "--space", "momentum"),
    (*G3,),
    (*G3, "--space", "momentum"),
    ("--model", "gaussian", "--d", "1", "--a", "2", "--count", "3"),
    ("--model", "exponential", "--d", "2", "--lam", "1.5"),
    ("--model", "exponential", "--d", "3", "--space", "momentum"),
    ("--model", "ho1d", "--n", "4"),
    ("--model", "ho1d", "--n", "5", "--q", "1", "--space", "momentum"),
)

MOMENT_COMMANDS = tuple(
    ("moments", *state, "--orders=-0.5,0.5,1.5,2.5") for state in MOMENT_STATES) + (
    ("moments", *H, "--orders=-2.5,3.5", "--format", "json"),
    ("moments", *H, "--orders", "43.5"),
    ("moments", "--model", "exponential", "--d", "3", "--orders", "89.5"),
    ("moments", *H, "--space", "momentum", "--orders", "4.5"),
    ("moments", *H, "--orders=-3"),
    ("moments", *H, "--orders", "1,x"),
)

POS, MOM = f"{TMP}/pos.csv", f"{TMP}/mom.csv"
PAIR = ("--position", POS, "--momentum", MOM)
EXPORTS = (
    ("export", *H, "--points", "400", "--rmax", "12", "--out", POS),
    ("export", *H, "--space", "momentum", "--points", "400", "--rmax", "30", "--out", MOM),
)
TABLE_COMMANDS = EXPORTS + (
    ("export", *G3, "--points", "12", "--rmax", "3"),
    ("moments", "--file", POS, "--orders=-0.5,0,1.5"),
    ("moments", "--file", MOM, "--orders", "0,2", "--format", "json"),
    *(("check", "--ineq", name, *PAIR)
      for name in ("daubechies", "heisenberg", "thakkar_upper", "zumbach",
                   "zumbach_conjugate", "fisher_product_heisenberg", "cramer_rao",
                   "fisher_real_4d2")),
    ("check", "--ineq", "cramer_rao", *PAIR, "--format", "json"),
    ("check", "--ineq", "cramer_rao", "--file", POS),
    ("check", "--ineq", "cramer_rao", "--position", POS, "--momentum", POS),
)

# the stateless subcommands: both reference tables, and the oracle at a point
# of each mode and outside each mode's window; then the `check` twin of a
# one-member Gaussian sweep; a large-alpha oracle point and check, where
# (m alpha + k)^(m alpha + k) once overflowed; last, a check and an oracle
# point on the negative-order window itself, alpha = 1.5 at d = 3, k = -1
REFERENCE_COMMANDS = (
    ("table1",),
    ("table1", "--format", "json"),
    ("table2",),
    ("table2", "--format", "json"),
    ("oracle", "--mode", "F", "--d", "3", "--alpha", "2", "--k", "2"),
    ("oracle", "--mode", "G", "--d", "3", "--alpha", "3", "--k=-1"),
    ("oracle", "--mode", "F", "--d", "3", "--alpha", "2", "--k=-1"),
    ("oracle", "--mode", "G", "--d", "3", "--alpha", "1", "--k=-1"),
    ("check", "--ineq", "cramer_rao", "--model", "gaussian", "--d", "3", "--count", "2"),
    ("oracle", "--mode", "F", "--d", "3", "--alpha", "150", "--k", "1"),
    ("check", "--ineq", "heisenberg", "--model", "gaussian", "--a", "0.1", "--alpha", "200",
     "--k", "1"),
    ("check", "--ineq", "negative_order", *H, "--alpha", "1.5", "--k", "-1"),
    ("oracle", "--mode", "G", "--d", "3", "--alpha", "1.5", "--k=-1"),
)


def commands() -> list[tuple[str, ...]]:
    cmds = [("check", "--ineq", name, *state) for state in CHECK_STATES
            for name in IDS + ALIASES]
    cmds += [("sweep", "--ineq", name, *fleet) for fleet in SWEEP_FLEETS for name in IDS]
    return (cmds + list(PARAM_COMMANDS) + list(MOMENT_COMMANDS) + list(TABLE_COMMANDS)
            + list(REFERENCE_COMMANDS))


def run(argv: tuple[str, ...], tmp: str) -> dict:
    """One in-process CLI call; table paths in the output read {tmp} again."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([a.replace(TMP, tmp) for a in argv])
    return {"argv": list(argv), "code": code,
            "stdout": out.getvalue().replace(tmp, TMP),
            "stderr": err.getvalue().replace(tmp, TMP)}


def record() -> list[dict]:
    with tempfile.TemporaryDirectory() as tmp:
        return [run(argv, tmp) for argv in commands()]


RECORDED = json.loads(DATA.read_text()) if DATA.exists() else []


def test_recorded_commands_are_the_current_list():
    assert [tuple(doc["argv"]) for doc in RECORDED] == commands()


@pytest.fixture(scope="module")
def table_dir(tmp_path_factory):
    tmp = str(tmp_path_factory.mktemp("tables"))
    for argv in EXPORTS:
        run(argv, tmp)
    return tmp


@pytest.mark.parametrize("doc", RECORDED, ids=[" ".join(d["argv"]) for d in RECORDED])
def test_document_is_byte_identical(doc, table_dir):
    assert run(tuple(doc["argv"]), table_dir) == doc


def moved_lines(old: dict | None, new: dict) -> list[str]:
    """The lines of `new` that differ from the recorded `old` document, as
    -/+ diff lines with the field they sit in; every line if it is new."""
    out = []
    for field in ("code", "stdout", "stderr"):
        before = "" if old is None else str(old[field])
        after = str(new[field])
        out += [f"{field}: {line}" for line in difflib.unified_diff(
                    before.splitlines(), after.splitlines(), lineterm="", n=0)
                if line[:1] in "+-" and line[:3] not in ("---", "+++")]
    return out


if __name__ == "__main__":
    DATA.parent.mkdir(exist_ok=True)
    docs = record()
    before = {tuple(doc["argv"]): doc for doc in RECORDED}
    moved = 0
    for doc in docs:
        lines = moved_lines(before.get(tuple(doc["argv"])), doc)
        if lines:
            moved += 1
            print(" ".join(doc["argv"]), *(f"    {line}" for line in lines), sep="\n")
    DATA.write_text(json.dumps(docs, indent=1) + "\n")
    print(f"{moved} of {len(docs)} documents moved; wrote {DATA}", file=sys.stderr)
