import csv
import io
import json
import math
import re
from fractions import Fraction

import pytest

from uncrel import cli, varoracle
from uncrel.cli import main
from uncrel.densities import MAX_OSCILLATOR_LEVELS, DensityPair
from uncrel.inequalities import InequalityId
from uncrel.mathcore import QuadratureSpec

PI = math.pi


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = [line for line in text.splitlines() if not line.startswith("#")]
    return list(csv.DictReader(io.StringIO("\n".join(rows))))


class TestTable1:
    def test_grid(self, capsys):
        code, out, _ = run_cli(capsys, "table1")
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 16
        cells = {(int(r["d"]), int(r["k"])): r for r in rows}
        assert float(cells[(1, 1)]["computed"]) == pytest.approx(0.165728, abs=1e-5)
        assert float(cells[(4, 2)]["computed"]) == pytest.approx(0.405724, abs=1e-5)
        assert all(float(r["abs_diff"]) < 1e-5 for r in rows)
        diag = [float(cells[(d, d)]["computed"]) for d in (1, 2, 3, 4)]
        assert max(diag) - min(diag) <= 1e-8

    @pytest.mark.parametrize("ulps", [-32, 32])
    def test_abs_diff_does_not_follow_the_ulps_of_b(self, capsys, monkeypatch, ulps):
        _, out, _ = run_cli(capsys, "table1")
        factor, shifts = cli.constants.daubechies_factor, []

        def shifted(d, k):
            b = factor(d, k)
            shifts.append(ulps * math.ulp(b))
            return b + shifts[-1]

        monkeypatch.setattr(cli.constants, "daubechies_factor", shifted)
        _, moved, _ = run_cli(capsys, "table1")
        assert len(shifts) == 16
        assert [r["abs_diff"] for r in parse_csv(moved)] == [r["abs_diff"] for r in parse_csv(out)]


class TestTable2:
    def test_grid(self, capsys):
        code, out, _ = run_cli(capsys, "table2")
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 16
        cells = {(int(r["alpha"]), int(r["k"])): r for r in rows}
        # documents round to 12 significant digits
        assert float(cells[(3, 3)]["coefficient"]) == pytest.approx(PI / 2.0, rel=1e-11)
        assert cells[(3, 3)]["N_exponent"] == "3"
        assert float(cells[(2, 2)]["coefficient"]) == pytest.approx(
            (9.0 / 16.0) * 3.0 ** (2.0 / 3.0), rel=1e-11)
        assert float(cells[(2, 2)]["N_exponent"]) == pytest.approx(8.0 / 3.0)
        # the published 13/16 exponent is replaced by the formula value 13/6
        assert float(cells[(4, 2)]["N_exponent"]) == pytest.approx(13.0 / 6.0)
        assert "13/16" in cells[(4, 2)]["note"]
        assert all(float(r["rel_diff"]) < 1e-10 for r in rows)

    def test_exponents_match_the_reference_fractions(self):
        # the reference strings are coded independently of constants, one
        # of them (13/6) a correction of the published table
        rows = cli.cmd_table2(None, QuadratureSpec()).rows
        assert len(rows) == len(cli.TABLE2_REFERENCE) == 16
        for row in rows:
            expected = float(Fraction(cli.TABLE2_REFERENCE[(row["alpha"], row["k"])][1]))
            assert abs(row["N_exponent"] - expected) <= 4 * math.ulp(expected)


class TestCheck:
    def test_hydrogenic_heisenberg_json(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--ineq", "heisenberg",
                               "--model", "hydrogenic", "--Z", "1",
                               "--alpha", "1", "--k", "1", "--q", "2",
                               "--format", "json")
        assert code == 0
        doc = json.loads(out)
        row = doc["rows"][0]
        assert row["status"] == "satisfied"
        assert float(row["lhs"]) == pytest.approx(4.0 / PI, rel=1e-10)
        assert float(row["lhs"]) == pytest.approx(1.27324, abs=1e-5)

    def test_exponential_has_no_momentum_space(self, capsys):
        code, _, err = run_cli(capsys, "check", "--ineq", "cramer_rao",
                               "--model", "exponential", "--d", "3")
        assert code == 3
        assert "position-only" in err


SWEPT = [name for name, (_, flag) in cli.MODELS.items() if flag is not None]
# the value of a one-member sweep per swept model; a new row needs none
SWEEP_VALUE = {"ho1d": "3", "hydrogenic": "2", "gaussian": "2"}


class TestModels:
    """The model table behind --model, build_state and sweep --n."""

    @pytest.mark.parametrize("name", list(cli.MODELS))
    def test_every_model_builds(self, capsys, name):
        args = cli.build_parser().parse_args(["moments", "--model", name])
        if isinstance(cli.build_state(args)[0], DensityPair):
            code, out, _ = run_cli(capsys, "check", "--ineq", "cramer_rao", "--model", name)
        else:
            code, out, _ = run_cli(capsys, "moments", "--model", name)
        assert code == 0
        assert parse_csv(out)

    @pytest.mark.parametrize("name", SWEPT)
    def test_one_member_sweep_is_its_check_row(self, capsys, name):
        value = SWEEP_VALUE.get(name, "2")
        flag = cli.MODELS[name][1]
        _, checked, _ = run_cli(capsys, "check", "--ineq", "cramer_rao", "--model", name,
                                f"--{flag}", value)
        code, swept, _ = run_cli(capsys, "sweep", "--ineq", "cramer_rao", "--model", name,
                                 "--n", value)
        assert code == 0
        rows = [[line for line in doc.splitlines() if not line.startswith("#")]
                for doc in (checked, swept)]
        assert len(rows[1]) == 2
        assert rows[1] == rows[0]

    @pytest.mark.parametrize("command", ["moments", "check", "export"])
    def test_choices_are_the_table(self, capsys, command):
        parser = cli.build_parser()
        head = [command, "--ineq", "cramer_rao"] if command == "check" else [command]
        for name in cli.MODELS:
            assert parser.parse_args([*head, "--model", name]).model == name
        with pytest.raises(SystemExit) as exc:
            parser.parse_args([*head, "--model", "bogus"])
        assert exc.value.code == 2
        listed = capsys.readouterr().err.split("choose from", 1)[1]
        assert re.findall(r"\w+", listed) == list(cli.MODELS)

    @pytest.mark.parametrize("name", [n for n in cli.MODELS if n not in SWEPT] + ["bogus"])
    def test_unswept_model_names_the_swept_ones(self, capsys, name):
        code, _, err = run_cli(capsys, "sweep", "--ineq", "cramer_rao", "--model", name)
        assert code == 2
        assert f"sweeps support models {', '.join(SWEPT)}; got {name!r}" in err


class TestSweep:
    def test_harmonic_sweep(self, capsys, tmp_path):
        out_path = tmp_path / "sweep.csv"
        code, _, _ = run_cli(capsys, "sweep", "--ineq", "heisenberg",
                             "--model", "ho1d", "--q", "1", "--n", "1..20",
                             "--alpha", "2", "--k", "2", "--out", str(out_path))
        assert code == 0
        rows = parse_csv(out_path.read_text())
        assert len(rows) == 20
        assert all(r["status"] == "satisfied" for r in rows)
        rhs = [float(r["rhs"]) for r in rows]
        assert all(b > a for a, b in zip(rhs, rhs[1:]))

    @pytest.mark.parametrize("name,reason", [
        ("ho1d", "particle number must be an integer >= 1, got 0"),
        ("hydrogenic", "charge must be positive, got 0.0"),
        ("gaussian", "particle count must be positive, got 0.0"),
    ])
    def test_member_that_cannot_be_built_is_a_leading_hole(self, capsys, name, reason):
        code, swept, _ = run_cli(capsys, "sweep", "--ineq", "cramer_rao", "--model", name,
                                 "--n", "0..2")
        _, valid, _ = run_cli(capsys, "sweep", "--ineq", "cramer_rao", "--model", name,
                              "--n", "1..2")
        assert code == 0
        hole = parse_csv(swept)[0]
        assert hole["state"] == f"{name}({cli.MODELS[name][1]}=0)"
        assert (hole["d"], hole["N"], hole["q"]) == ("", "", "2")
        assert (hole["lhs"], hole["status"], hole["note"]) == ("nan", "hole", f"hole: {reason}")
        # the hole sits right below the header; every other line is the
        # sweep of the members that build
        lines = swept.splitlines()
        header = next(i for i, line in enumerate(lines) if line.startswith("inequality,"))
        assert lines[:header + 1] + lines[header + 2:] == valid.splitlines()

    def test_every_member_a_hole(self, capsys):
        top = MAX_OSCILLATOR_LEVELS
        code, out, _ = run_cli(capsys, "sweep", "--ineq", "heisenberg", "--model", "ho1d",
                               "--n", f"{top + 1}..{top + 2}", "--q", "1")
        assert code == 0
        rows = parse_csv(out)
        assert [r["state"] for r in rows] == [f"ho1d(n={top + 1})", f"ho1d(n={top + 2})"]
        assert all(r["params"] == "alpha=2;k=2;" for r in rows)
        assert [r["note"].split(" fills ")[0] for r in rows] == [
            f"hole: ho1d(N={top + 1},q=1)", f"hole: ho1d(N={top + 2},q=1)"]

    @pytest.mark.parametrize("model", ["ho1d", "gaussian"])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_bad_spin_multiplicity_fails_the_sweep(self, capsys, model, fmt):
        # --q belongs to the sweep, not to a member: it is checked once,
        # before any member is built, as check checks it
        code, out, err = run_cli(capsys, "sweep", "--ineq", "cramer_rao", "--model", model,
                                 "--n", "1..3", "--q", "0", "--format", fmt)
        assert code == 3
        message = "spin multiplicity must be an integer >= 1, got 0"
        if fmt == "json":
            assert json.loads(out)["error"] == {"type": "DomainError", "message": message,
                                                "exit_code": 3}
        else:
            assert (out, err) == ("", f"error[DomainError]: {message}\n")
        check = run_cli(capsys, "check", "--ineq", "cramer_rao", "--model", model, "--q", "0",
                        "--format", fmt)
        assert check == (code, out, err)

    @pytest.mark.parametrize("flag,value,message", [
        ("--d", "0", "dimension must be an integer >= 1, got 0"),
        ("--a", "0", "length scale must be positive, got 0.0"),
        ("--a", "nan", "length scale must be a finite number, got nan"),
    ])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_bad_template_flag_fails_the_sweep(self, capsys, flag, value, message, fmt):
        # --d and --a, like --q, are the sweep's: checked once, before any
        # member is built, as check checks them
        code, out, err = run_cli(capsys, "sweep", "--ineq", "heisenberg", "--model", "gaussian",
                                 "--n", "1..2", flag, value, "--format", fmt)
        assert code == 3
        if fmt == "json":
            assert json.loads(out)["error"] == {"type": "DomainError", "message": message,
                                                "exit_code": 3}
        else:
            assert (out, err) == ("", f"error[DomainError]: {message}\n")
        check = run_cli(capsys, "check", "--ineq", "heisenberg", "--model", "gaussian",
                        flag, value, "--format", fmt)
        assert check == (code, out, err)

    def test_member_past_the_level_limit_is_a_hole(self, capsys):
        top = MAX_OSCILLATOR_LEVELS
        code, out, _ = run_cli(capsys, "sweep", "--ineq", "heisenberg", "--model", "ho1d",
                               "--q", "1", "--n", f"1,{top + 1}")
        assert code == 0
        hole, row = parse_csv(out)
        assert hole["state"] == f"ho1d(n={top + 1})"
        assert hole["note"] == (f"hole: ho1d(N={top + 1},q=1) fills {top + 1} oscillator "
                                f"levels; at most {top} are supported, as the recurrence's "
                                f"start underflows where higher levels still hold particles")
        assert row["status"] == "satisfied"

    @pytest.mark.parametrize("n_range", ["5..1", "3..2"])
    def test_empty_range_is_a_format_error(self, capsys, n_range):
        code, out, err = run_cli(capsys, "sweep", "--ineq", "zumbach", "--n", n_range)
        assert code == 2
        assert out == ""
        assert err == f"error[FormatError]: empty range {n_range!r}\n"


class TestErrors:
    def test_unknown_inequality(self, capsys):
        code, _, err = run_cli(capsys, "check", "--ineq", "bogus",
                               "--model", "hydrogenic")
        assert code == 2

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "moments", "--file", "/nonexistent.csv")
        assert code == 2

    def test_zumbach_dimension_error(self, capsys):
        code, _, err = run_cli(capsys, "check", "--ineq", "zumbach",
                               "--model", "gaussian", "--d", "6")
        assert code == 3

    def test_json_error_object(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--ineq", "zumbach",
                               "--model", "gaussian", "--d", "6",
                               "--format", "json")
        assert code == 3
        doc = json.loads(out)
        assert doc["error"]["type"] == "DomainError"
        assert doc["error"]["exit_code"] == 3

    def test_negative_order_window_exit(self, capsys):
        code, _, _ = run_cli(capsys, "check", "--ineq", "negative_order",
                             "--model", "hydrogenic", "--alpha", "1", "--k", "-1")
        assert code == 3

    def test_infinite_tol_exit(self, capsys):
        code, _, err = run_cli(capsys, "table1", "--tol", "inf")
        assert code == 3
        assert "rel_tol" in err

    def test_unrepresentable_model_exit(self, capsys):
        # its normalization underflows: a typed error, not a traceback
        code, _, err = run_cli(capsys, "moments", "--model", "exponential", "--d", "230")
        assert code == 3
        assert err.startswith("error[DomainError]")

    def test_dimension_beyond_double_exit(self, capsys):
        # int() reads the 401 digits; the check rejects them as a typed error
        code, out, err = run_cli(capsys, "check", "--ineq", "heisenberg", "--model", "gaussian",
                                 "--d", "1" + "0" * 400)
        assert (code, out) == (3, "")
        assert err == ("error[DomainError]: dimension must be an integer >= 1, got a number "
                       "beyond the double-precision range\n")

    @pytest.mark.parametrize("mode,d,alpha,k", [
        ("F", "3", "1e300", "1"),      # entropic_lower_coeff's intermediates overflow
        ("F", "3", "2", "1e-300"),     # the minimizer's a^(d + alpha d/k) overflows
        ("F", "3", "1e-200", "1"),     # the closed form rounds to 0
        ("G", "3", "2", "-1e-300"),    # the maximizer's normalization divides by 0
        # the maximizer's normalization overflows to inf, and its rho read nan
        ("G", "40", "49.87065566013143", "-0.29346814704191976"),
    ])
    def test_unformable_oracle_exit(self, capsys, mode, d, alpha, k):
        code, out, err = run_cli(capsys, "oracle", "--mode", mode, "--d", d,
                                 "--alpha", alpha, f"--k={k}")
        assert (code, out) == (3, "")
        assert re.fullmatch(r"error\[DomainError\]: [^\n]* cannot be formed in double "
                            r"precision\n", err)

    def test_sphere_measure_out_of_range_exit(self, capsys, tmp_path):
        # Gamma(d/2) of Omega_d overflows from d = 344: a typed error, not a traceback
        table = tmp_path / "wide.csv"
        table.write_text("# d=400\n" + "".join(f"{r},{math.exp(-r)}\n" for r in range(10)))
        code, _, err = run_cli(capsys, "moments", "--file", str(table), "--orders", "1")
        assert code == 3
        assert err.startswith("error[DomainError]: Omega_d for d = 400")

    def test_unrepresentable_bound_exit(self, capsys):
        # N^4 of the d = 1 Heisenberg-like rhs leaves the double range
        code, out, err = run_cli(capsys, "check", "--ineq", "heisenberg", "--model", "gaussian",
                                 "--d", "1", "--count", "1e100")
        assert (code, out) == (3, "")
        assert err == ("error[DomainError]: heisenberg_general: a side of the bound "
                       "leaves the double-precision range\n")

    @pytest.mark.parametrize("rows,message", [
        ("0.0\n", "expected two columns, got '0.0'"),
        ("0.0,x\n", "non-numeric row '0.0,x'"),
    ])
    def test_malformed_table_row(self, capsys, tmp_path, rows, message):
        table = tmp_path / "bad.csv"
        table.write_text("# d=3\n" + rows)
        code, _, err = run_cli(capsys, "moments", "--file", str(table))
        assert code == 2
        assert err == f"error[FormatError]: {table}: {message}\n"

    def test_malformed_table_header(self, capsys, tmp_path):
        table = tmp_path / "bad.csv"
        table.write_text("# d=three\n" + "".join(f"{r},{math.exp(-r)}\n" for r in range(10)))
        code, _, err = run_cli(capsys, "moments", "--file", str(table))
        assert code == 2
        assert err.startswith(f"error[FormatError]: {table}: bad header value: ")

    def test_position_needs_momentum(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "check", "--ineq", "cramer_rao",
                               "--position", str(tmp_path / "pos.csv"))
        assert code == 2
        assert err == ("error[FormatError]: conjugate-space checks need both "
                       "--position and --momentum\n")

    def test_no_state_given(self, capsys):
        code, _, err = run_cli(capsys, "moments")
        assert code == 2
        assert err == "error[FormatError]: unknown model None and no input file given\n"

    def test_bad_sweep_range(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--ineq", "zumbach", "--n", "1..x")
        assert code == 2
        assert err == "error[FormatError]: bad range '1..x'\n"

    @pytest.mark.parametrize("flags,message", [
        (("--points", "-3"), "point count must be an integer >= 1, got -3"),
        (("--points", "0"), "point count must be an integer >= 1, got 0"),
        (("--rmax", "-1"), "rmax must be positive, got -1.0"),
        (("--rmax", "0"), "rmax must be positive, got 0.0"),
        (("--rmax", "nan"), "rmax must be a finite number, got nan"),
    ])
    def test_bad_export_grid(self, capsys, tmp_path, flags, message):
        out_path = tmp_path / "grid.csv"
        code, out, err = run_cli(capsys, "export", "--model", "gaussian", *flags,
                                 "--out", str(out_path))
        assert (code, out) == (3, "")
        assert err == f"error[DomainError]: {message}\n"
        assert not out_path.exists()


class TestExtremeScale:
    def test_wide_gaussian_cramer_rao_is_saturated(self, capsys):
        # I <r^2>/N = d^2 exactly; I used to underflow to 0 and read "violated"
        code, out, _ = run_cli(capsys, "check", "--ineq", "cramer_rao", "--model", "gaussian",
                               "--d", "30", "--a", "1e6", "--format", "json")
        assert code == 0
        row = json.loads(out)["rows"][0]
        assert row["status"] == "satisfied"
        assert row["ratio"] == "1"


class TestDeterminism:
    def test_byte_identical_documents(self, capsys):
        _, out1, _ = run_cli(capsys, "table2", "--format", "json")
        _, out2, _ = run_cli(capsys, "table2", "--format", "json")
        assert out1 == out2
        _, out3, _ = run_cli(capsys, "check", "--ineq", "fisher_real_4d2",
                             "--model", "gaussian", "--d", "2")
        _, out4, _ = run_cli(capsys, "check", "--ineq", "fisher_real_4d2",
                             "--model", "gaussian", "--d", "2")
        assert out3 == out4

    def test_twelve_significant_digits(self, capsys):
        _, out, _ = run_cli(capsys, "oracle", "--mode", "F", "--d", "3",
                            "--alpha", "2", "--k", "2")
        rows = parse_csv(out)
        assert rows[0]["numeric"] == "0.203753360121"


class TestRoundTrip:
    @pytest.mark.parametrize("flags,end", [
        (("--model", "gaussian", "--d", "3", "--a", "2"), 3.0 * 4.0 * 2.0),
        (("--model", "gaussian", "--d", "3", "--space", "momentum"), 3.0 * 4.0 * 0.5),
        (("--model", "hydrogenic", "--Z", "2"), 3.0 * 4.0 / 4.0),
        (("--model", "hydrogenic", "--Z", "2", "--space", "momentum"), 3.0 * 3.0 * 2.0),
        (("--model", "exponential", "--d", "3", "--lam", "2"), 3.0 * 8.0 / 2.0),
        (("--model", "ho1d", "--n", "40"), 3.0 * (math.sqrt(39.0) + 4.0)),
    ], ids=["gaussian", "gaussian_momentum", "hydrogenic", "hydrogenic_momentum",
            "exponential", "ho1d"])
    def test_default_export_grid_spans_three_lengths(self, capsys, flags, end):
        # three decay lengths of the model, whatever its quadrature layout
        code, out, _ = run_cli(capsys, "export", *flags, "--points", "5")
        assert code == 0
        assert float(parse_csv(out)[-1]["r"]) == pytest.approx(end, rel=1e-11)

    def test_export_then_reingest(self, capsys, tmp_path):
        table = tmp_path / "dens.csv"
        code, _, _ = run_cli(capsys, "export", "--model", "hydrogenic", "--Z", "1",
                             "--space", "position", "--points", "400",
                             "--rmax", "12", "--out", str(table))
        assert code == 0
        code, out, _ = run_cli(capsys, "moments", "--file", str(table),
                               "--orders", "0,1", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        values = {row["order"]: float(row["value"]) for row in doc["rows"]}
        assert values["0"] == pytest.approx(1.0, abs=1e-5)
        assert values["1"] == pytest.approx(1.5, abs=1e-5)

    def test_table_saved_with_a_byte_order_mark(self, capsys, tmp_path):
        # an editor may save an exported table as UTF-8 with a byte-order
        # mark; the table reads as it did without one
        table, marked = tmp_path / "dens.csv", tmp_path / "marked.csv"
        code, _, _ = run_cli(capsys, "export", "--model", "hydrogenic", "--Z", "1",
                             "--space", "momentum", "--points", "400", "--out", str(table))
        assert code == 0
        marked.write_bytes(b"\xef\xbb\xbf" + table.read_bytes())
        assert cli.read_table(str(marked))[0]["d"] == "3"
        docs = [run_cli(capsys, "moments", "--file", str(path), "--orders", "0,2")
                for path in (table, marked)]
        assert docs[0][0] == 0
        assert docs[1] == docs[0]
        assert {row["space"] for row in parse_csv(docs[1][1])} == {"momentum"}

    def test_tabulated_conjugate_pair(self, capsys, tmp_path):
        # each table's measured normalization differs slightly from N = 1
        pos, mom = tmp_path / "pos.csv", tmp_path / "mom.csv"
        for space, rmax, path in (("position", "40", pos), ("momentum", "60", mom)):
            code, _, _ = run_cli(capsys, "export", "--model", "hydrogenic", "--Z", "1",
                                 "--space", space, "--points", "4000",
                                 "--rmax", rmax, "--out", str(path))
            assert code == 0
        code, out, _ = run_cli(capsys, "check", "--ineq", "cramer_rao",
                               "--position", str(pos), "--momentum", str(mom),
                               "--format", "json")
        assert code == 0
        row = json.loads(out)["rows"][0]
        # I V = 4 Z^2 * 3 / Z^2 for the hydrogenic ground state
        assert float(row["lhs"]) == pytest.approx(12.0, abs=1e-5)

    def test_blank_table_lines_are_skipped(self, tmp_path):
        rows = [f"{i / 4},{math.exp(-i / 4)}" for i in range(40)]
        plain, spaced = tmp_path / "plain.csv", tmp_path / "spaced.csv"
        plain.write_text("# d=3\n" + "".join(row + "\n" for row in rows))
        spaced.write_text("# d=3\n\n" + "".join(row + "\n  \n" for row in rows))
        header, r, rho = cli.read_table(str(spaced))
        assert header == {"d": "3"}
        assert r.tolist() == [i / 4 for i in range(40)]
        assert rho.tolist() == cli.read_table(str(plain))[2].tolist()

    def test_momentum_table_keeps_its_space(self, capsys, tmp_path):
        table = tmp_path / "mom.csv"
        code, _, _ = run_cli(capsys, "export", "--model", "hydrogenic", "--Z", "1",
                             "--space", "momentum", "--points", "4000",
                             "--rmax", "60", "--out", str(table))
        assert code == 0
        assert "# space=momentum\n" in table.read_text()
        # rows carry the header's space, whether --space names it or not
        for extra in ((), ("--space", "momentum")):
            code, out, _ = run_cli(capsys, "moments", "--file", str(table),
                                   "--orders", "0,2", *extra, "--format", "json")
            assert code == 0
            rows = json.loads(out)["rows"]
            assert [row["space"] for row in rows] == ["momentum", "momentum"]
            # <p^2> = Z^2 for the hydrogenic ground state
            assert float(rows[1]["value"]) == pytest.approx(1.0, rel=1e-4)
        code, _, err = run_cli(capsys, "moments", "--file", str(table), "--space", "position")
        assert code == 3
        assert err == "error[DomainError]: this input has no position-space density\n"
        code, _, err = run_cli(capsys, "check", "--ineq", "cramer_rao",
                               "--position", str(table), "--momentum", str(table))
        assert code == 3
        assert "hold momentum- and momentum-space densities" in err

    def test_position_table_rejects_momentum(self, capsys, tmp_path):
        table = tmp_path / "pos.csv"
        run_cli(capsys, "export", "--model", "hydrogenic", "--Z", "1", "--points", "400",
                "--rmax", "12", "--out", str(table))
        code, _, err = run_cli(capsys, "moments", "--file", str(table), "--space", "momentum")
        assert code == 3
        assert err == "error[DomainError]: this input has no momentum-space density\n"

    def test_unknown_table_space(self, capsys, tmp_path):
        table = tmp_path / "odd.csv"
        table.write_text("# d=3\n# space=spin\n"
                         + "".join(f"{r},{math.exp(-r)}\n" for r in range(10)))
        code, _, err = run_cli(capsys, "moments", "--file", str(table))
        assert code == 2
        assert "space must be position or momentum, got 'spin'" in err

    def test_export_of_a_table_reaches_its_last_row(self, capsys, tmp_path):
        table, again = tmp_path / "pos.csv", tmp_path / "again.csv"
        code, _, _ = run_cli(capsys, "export", "--model", "hydrogenic", "--Z", "1",
                             "--points", "400", "--rmax", "12", "--out", str(table))
        assert code == 0
        code, _, _ = run_cli(capsys, "export", "--file", str(table), "--out", str(again))
        assert code == 0
        last = [parse_csv(path.read_text())[-1]["r"] for path in (table, again)]
        assert float(last[1]) == float(last[0]) == 12.0

    def test_oracle_tol_reaches_the_quadrature(self, capsys, monkeypatch):
        seen, entropic_moment = [], varoracle.entropic_moment

        def spy(dens, m, spec=None):
            seen.append(spec)
            return entropic_moment(dens, m, spec)

        monkeypatch.setattr(varoracle, "entropic_moment", spy)
        for mode, alpha, k in (("F", "2", "2"), ("G", "3", "-1")):
            code, out, _ = run_cli(capsys, "oracle", "--mode", mode, "--d", "3",
                                   "--alpha", alpha, f"--k={k}", "--tol", "1e-6")
            assert code == 0
            assert "# rel_tol=1e-06" in out
        assert [spec.rel_tol for spec in seen] == [1e-6, 1e-6]

    def test_oracle_g_mode(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "--mode", "G", "--d", "3",
                               "--alpha", "3", "--k", "-1")
        assert code == 0
        rows = parse_csv(out)
        assert float(rows[0]["discrepancy"]) < 1e-10


class TestMomentHoles:
    """A failed order becomes a hole row; the other orders keep their rows."""

    def test_failed_order_keeps_the_document(self, capsys, tmp_path):
        table = tmp_path / "gauss1.csv"
        code, _, _ = run_cli(capsys, "export", "--model", "gaussian", "--d", "1",
                             "--points", "4000", "--out", str(table))
        assert code == 0
        code, out, err = run_cli(capsys, "moments", "--file", str(table),
                                 "--orders=-0.9,-0.25,1.5")
        assert (code, err) == (0, "")
        rows = parse_csv(out)
        assert [row["order"] for row in rows] == ["-0.9", "-0.25", "1.5"]
        hole = rows[0]
        assert hole["method"].startswith("hole: ConvergenceError: ")
        assert hole["value"] == hole["est_error"] == ""
        # <r^alpha> = 2^(alpha/2) Gamma((alpha + 1)/2) / sqrt(pi) in d = 1
        for row in rows[1:]:
            alpha = float(row["order"])
            exact = 2.0 ** (alpha / 2.0) * math.gamma((alpha + 1.0) / 2.0) / math.sqrt(PI)
            assert row["method"] == "quadrature"
            assert float(row["value"]) == pytest.approx(exact, rel=1e-8)

    def test_non_finite_orders_are_holes(self, capsys):
        code, out, err = run_cli(capsys, "moments", "--model", "gaussian",
                                 "--orders", "nan,inf,1.5")
        _, alone, _ = run_cli(capsys, "moments", "--model", "gaussian", "--orders", "1.5")
        assert (code, err) == (0, "")
        nan_row, inf_row, row = parse_csv(out)
        for hole, order in ((nan_row, "nan"), (inf_row, "inf")):
            assert hole["order"] == order
            assert hole["method"] == ("hole: DomainError: moment order must be a finite "
                                      f"number, got {order}")
            assert hole["value"] == hole["est_error"] == ""
        assert row == parse_csv(alone)[0]

    def test_divergent_order_is_a_hole(self, capsys):
        code, out, _ = run_cli(capsys, "moments", "--model", "hydrogenic",
                               "--orders=-3,2", "--format", "json")
        assert code == 0
        hole, row = json.loads(out)["rows"]
        assert hole["method"].startswith("hole: DivergenceError: <r^-3.0> diverges")
        assert hole["value"] == hole["est_error"] == ""
        assert float(row["value"]) == pytest.approx(3.0, rel=1e-12)  # <r^2> = 3 / Z^2


    @pytest.mark.parametrize("model", ["hydrogenic", "gaussian", "exponential"])
    def test_huge_orders_are_holes(self, capsys, deadline, model):
        deadline(10.0)
        code, out, err = run_cli(capsys, "moments", "--model", model,
                                 "--orders", "1e12,1e300,2.5")
        assert (code, err) == (0, "")
        *holes, row = parse_csv(out)
        state = re.search(r"^# state=(.*)$", out, re.M)[1]
        for hole in holes:
            assert hole["method"].endswith("leaves the double-precision range")
            assert hole["method"].startswith(f"hole: DomainError: {state}: ")
            assert hole["value"] == hole["est_error"] == ""
        assert (row["order"], row["method"]) == ("2.5", "analytic")


class TestInequalityNames:
    def test_unknown_inequality_lists_ids_and_aliases(self, capsys):
        code, _, err = run_cli(capsys, "check", "--ineq", "bogus", "--model", "hydrogenic")
        assert code == 2
        for ineq in InequalityId:
            assert ineq.value in err
        assert "aliases: thakkar = thakkar_lower, heisenberg = heisenberg_general" in err

    def test_alias_resolves(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--ineq", "thakkar",
                               "--model", "hydrogenic", "--format", "json")
        assert code == 0
        assert json.loads(out)["rows"][0]["inequality"] == "thakkar_lower"

    def test_param_not_taken(self, capsys):
        code, _, err = run_cli(capsys, "check", "--ineq", "cramer_rao",
                               "--model", "hydrogenic", "--alpha", "2", "--variant", "bogus")
        assert code == 2
        assert "cramer_rao does not take alpha, variant; it takes no params" in err
        code, _, err = run_cli(capsys, "sweep", "--ineq", "zumbach", "--model", "ho1d",
                               "--n", "1..2", "--k", "1")
        assert code == 2
        assert "zumbach does not take k; it takes orientation" in err
