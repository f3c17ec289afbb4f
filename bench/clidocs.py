"""The cli-documents workload: one pass of `python -m uncrel.cli` commands
and the checks of their documents.

Imports nothing from uncrel: the launcher runs these commands as child
processes, and the traced worker runs them through uncrel.cli.main in
process, both checking the documents here.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import random

import checks
import inputs

# Relative error allowed between moments of the exported 4000-point hydrogenic
# table and the closed forms; over Z = 1..10 the largest measured is 4.2e-9
# (order -2) and 6.7e-10 at the other orders.
TABLE_MOMENT_TOL = 1e-7
# Fisher information of the exported table against the closed form
TABLE_FISHER_TOL = 1e-5


class Command:
    def __init__(self, name: str, argv: list[str]):
        self.name = name
        self.argv = argv


def export_paths(outdir: str) -> tuple[str, str]:
    return (os.path.join(outdir, "hydrogenic-position.csv"),
            os.path.join(outdir, "hydrogenic-momentum.csv"))


def commands(seed: int, outdir: str, size: str = "full",
             inject_failure: bool = False) -> list[Command]:
    c = inputs.cli_choices(random.Random(seed))
    z = repr(c["Z"])
    orders = "--orders=" + ",".join(repr(o) for o in c["orders"])
    d, alpha, k = c["oracle"]
    pos, mom = export_paths(outdir)
    hyd = ["--model", "hydrogenic", "--Z", z]
    fisher = ["check", "--ineq", "fisher_product_heisenberg", *hyd]
    export = ["export", *hyd, "--points", str(inputs.EXPORT_POINTS)]
    cmds = [
        Command("table1", ["table1"]),
        Command("table2", ["table2", "--format", "json"]),
        Command("moments-position", ["moments", *hyd, orders, "--format", "json"]),
        Command("moments-momentum", ["moments", *hyd, orders, "--space", "momentum"]),
        Command("check-heisenberg", ["check", "--ineq", "heisenberg", *hyd,
                                     "--alpha", "2", "--k", "2", "--format", "json"]),
        Command("check-fisher-product", fisher),
        Command("sweep-cramer-rao", ["sweep", "--ineq", "cramer_rao", "--model", "ho1d",
                                     "--n", "1..8", "--format", "json"]),
        Command("oracle-G", ["oracle", "--mode", "G", "--d", str(d), f"--alpha={alpha!r}",
                             f"--k={k!r}"]),
        Command("export-position", [*export, f"--rmax={40.0 / c['Z']!r}", "--out", pos]),
        Command("export-momentum", [*export, "--space", "momentum",
                                    f"--rmax={60.0 * c['Z']!r}", "--out", mom]),
        Command("moments-file", ["moments", "--file", pos, orders, "--format", "json"]),
        # exits 3 today: load_tabulated stores the measured normalization as N
        # and DensityPair wants both to agree to 1e-12 (counted in `failed`)
        Command("check-tabulated-pair", ["check", "--ineq", "cramer_rao", "--position", pos,
                                         "--momentum", mom, "--format", "json"]),
        Command("check-fisher-product-repeat", fisher),
    ]
    if size == "tiny":
        keep = {"table2", "moments-position", "check-fisher-product", "export-position",
                "export-momentum", "check-tabulated-pair", "check-fisher-product-repeat"}
        cmds = [cmd for cmd in cmds if cmd.name in keep]
    if inject_failure:
        cmds.append(Command("injected", ["check", "--ineq", "no_such_inequality", *hyd]))
    return cmds


def parse_document(text: str) -> tuple[dict, list[dict]]:
    """(metadata, rows) of a CSV or JSON document, values as strings."""
    if text.lstrip().startswith("{"):
        doc = json.loads(text)
        return doc["metadata"], doc["rows"]
    meta, body = {}, []
    for line in text.splitlines():
        if line.startswith("#"):
            k, _, v = line[1:].strip().partition("=")
            meta[k] = v
        else:
            body.append(line)
    return meta, list(csv.DictReader(io.StringIO("\n".join(body))))


def check_pass(seed: int, outdir: str, results: dict, ref: dict,
               verdict: checks.Verdict) -> None:
    """Check the documents of one pass.

    results maps a command name to (exit code, stdout text); commands that
    exited non-zero are failed operations and are not checked further.
    """
    c = inputs.cli_choices(random.Random(seed))
    Z = c["Z"]
    ok = {name: out for name, (code, out) in results.items() if code == 0}
    v = verdict
    for name, text in ok.items():
        if name.startswith("export"):
            v.true(f"{name}: document written to stdout", text == "")
    if "table1" in ok:
        rows = parse_document(ok["table1"])[1]
        v.true("table1: 16 rows", len(rows) == 16)
        for row in rows:
            dk = (int(row["d"]), int(row["k"]))
            val = float(row["computed"])
            v.true(f"table1 {dk}: within 5e-7 of the published value",
                   abs(val - inputs.TABLE1_PUBLISHED[dk]) <= 5e-7)
            v.close(f"table1 {dk}", val, ref["daubechies"][inputs.key(dk[0], float(dk[1]))], 1e-10)
    if "table2" in ok:
        rows = parse_document(ok["table2"])[1]
        v.true("table2: 16 rows", len(rows) == 16)
        for row in rows:
            ak = inputs.key(int(row["alpha"]), int(row["k"]))
            v.close(f"table2 {ak}", float(row["coefficient"]), ref["table2"][ak], 1e-10)
    for name, space in (("moments-position", "r"), ("moments-momentum", "p")):
        if name in ok:
            rows = parse_document(ok[name])[1]
            v.true(f"{name}: one row per order", len(rows) == len(c["orders"]))
            for row in rows:
                order = float(row["order"])
                v.close(f"{name} {order}", float(row["value"]),
                        checks.hydrogenic_moment(ref, Z, space, order), 1e-9, functional=True)
    if "check-heisenberg" in ok:
        row = parse_document(ok["check-heisenberg"])[1][0]
        v.close("check-heisenberg lhs", float(row["lhs"]),
                checks.hydrogenic_moment(ref, Z, "r", 2.0)
                * checks.hydrogenic_moment(ref, Z, "p", 2.0), 1e-9, functional=True)
        v.close("check-heisenberg rhs", float(row["rhs"]), ref["table2"][inputs.key(2, 2)], 1e-10)
        v.true("check-heisenberg: lhs >= rhs", float(row["lhs"]) >= float(row["rhs"]))
    if "check-fisher-product" in ok:
        row = parse_document(ok["check-fisher-product"])[1][0]
        i_pos, i_mom = checks.hydrogenic_fisher(Z)
        v.close("check-fisher-product lhs", float(row["lhs"]), i_pos * i_mom, 1e-9,
                functional=True)
        r2p2 = checks.hydrogenic_moment(ref, Z, "r", 2.0) * checks.hydrogenic_moment(ref, Z, "p", 2.0)
        denom = (1.0 + checks.zumbach_C(3) * 0.5 ** (2.0 / 3.0)) ** 2
        v.close("check-fisher-product rhs", float(row["rhs"]), 4.0 * r2p2 / denom, 1e-10)
    if "check-fisher-product-repeat" in ok and "check-fisher-product" in ok:
        v.true("repeated command is byte-identical",
               ok["check-fisher-product-repeat"] == ok["check-fisher-product"])
    if "sweep-cramer-rao" in ok:
        rows = parse_document(ok["sweep-cramer-rao"])[1]
        v.true("sweep-cramer-rao: 8 rows", len(rows) == 8)
        for row in rows:
            n = int(float(row["N"]))
            second = checks.ho1d_second(n, inputs.HO1D_Q)
            lhs = float(row["lhs"])
            v.close(f"sweep-cramer-rao N={n}", lhs,
                    ref["ho1d_fisher"][str(n)] * second / n, 1e-9, functional=True)
            v.true(f"sweep-cramer-rao N={n}: I <x^2>/N >= 1", lhs >= 1.0 - 1e-10)
    if "oracle-G" in ok:
        row = parse_document(ok["oracle-G"])[1][0]
        d, alpha, k = c["oracle"]
        v.close("oracle-G numeric", float(row["numeric"]),
                checks.extremal_G_closed(d, alpha, k), 1e-8)
        v.true("oracle-G discrepancy <= 1e-8", float(row["discrepancy"]) <= 1e-8)
    for name, space, path in zip(("export-position", "export-momentum"),
                                 ("position", "momentum"), export_paths(outdir)):
        if name not in ok:
            continue
        with open(path, encoding="utf-8") as fh:
            meta, rows = parse_document(fh.read())
        v.true(f"{name}: header", meta.get("d") == "3" and meta.get("space") == space
               and float(meta.get("N", "nan")) == 1.0)
        v.true(f"{name}: {inputs.EXPORT_POINTS} rows", len(rows) == inputs.EXPORT_POINTS)
        worst = 0.0
        for row in rows:
            r, val = float(row["r"]), float(row["rho"])
            if space == "position":
                exact = Z ** 3 / math.pi * math.exp(-2.0 * Z * r)
            else:
                exact = 8.0 * Z ** 5 / math.pi ** 2 / (Z * Z + r * r) ** 4
            if exact > 1e-290:
                worst = max(worst, checks.rel_err(val, exact))
        # 12 printed digits of r and rho: e^(-2Zr) at 2Zr = 80 carries 4e-11
        v.true(f"{name}: samples match the closed-form density (worst {worst:.3g})",
               worst <= 1e-9)
    if "moments-file" in ok:
        rows = parse_document(ok["moments-file"])[1]
        v.true("moments-file: one row per order", len(rows) == len(c["orders"]))
        for row in rows:
            order = float(row["order"])
            v.close(f"moments-file {order}", float(row["value"]),
                    checks.hydrogenic_moment(ref, Z, "r", order), TABLE_MOMENT_TOL)
    if "check-tabulated-pair" in ok:
        row = parse_document(ok["check-tabulated-pair"])[1][0]
        # I[rho] V[rho] = 4 Z^2 * 3 / Z^2 for the hydrogenic position density
        v.close("check-tabulated-pair lhs", float(row["lhs"]), 12.0, TABLE_FISHER_TOL)
