import csv
import io
import json
import math

import pytest

from uncrel.cli import main
from uncrel.inequalities import InequalityId

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


class TestTolOverride:
    def test_env_variable(self, capsys, monkeypatch):
        monkeypatch.setenv("UNCREL_TOL", "1e-8")
        _, out, _ = run_cli(capsys, "table1")
        assert "# rel_tol=1e-08" in out

    def test_flag_overrides_env(self, capsys, monkeypatch):
        monkeypatch.setenv("UNCREL_TOL", "1e-8")
        _, out, _ = run_cli(capsys, "table1", "--tol", "1e-9")
        assert "# rel_tol=1e-09" in out

    def test_bad_env_value(self, capsys, monkeypatch):
        monkeypatch.setenv("UNCREL_TOL", "banana")
        code, _, _ = run_cli(capsys, "table1")
        assert code == 2


class TestRoundTrip:
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

    def test_divergent_order_is_a_hole(self, capsys):
        code, out, _ = run_cli(capsys, "moments", "--model", "hydrogenic",
                               "--orders=-3,2", "--format", "json")
        assert code == 0
        hole, row = json.loads(out)["rows"]
        assert hole["method"].startswith("hole: DivergenceError: <r^-3.0> diverges")
        assert hole["value"] == hole["est_error"] == ""
        assert float(row["value"]) == pytest.approx(3.0, rel=1e-12)  # <r^2> = 3 / Z^2


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
