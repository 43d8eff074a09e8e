"""Command-line interface behaviour, including output determinism."""

from __future__ import annotations

import json
import math
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import pytest
from click.testing import CliRunner

import contangle
from contangle.cli import main, parse_float_range, parse_int_range

CSV_HEADER = "N,M,r_bar,r_db,residual,fidelity"


def run(*args):
    return CliRunner().invoke(main, args)


def test_residual_text_output():
    result = run("residual", "--n", "3", "--rbar", "0.5")
    assert result.exit_code == 0
    assert "0.544385246942" in result.output
    assert "fidelity" in result.output


def test_residual_db_equivalence():
    by_rbar = run("residual", "--n", "5", "--rbar", "0.75")
    db = 20.0 * 0.75 / 2.302585092994046  # ln 10
    by_db = run("residual", "--n", "5", "--db", str(db))
    assert by_rbar.exit_code == 0 and by_db.exit_code == 0
    # same residual line either way
    line = [l for l in by_rbar.output.splitlines() if l.startswith("residual")][0]
    assert line in by_db.output


def test_residual_json_fields():
    result = run("residual", "--n", "4", "--m", "1", "--rbar", "0.8", "--format", "json")
    assert result.exit_code == 0
    records = json.loads(result.output)
    assert len(records) == 1
    rec = records[0]
    assert rec["n_kept"] == 4
    assert rec["n_traced"] == 1
    assert rec["r_bar"] == 0.8
    assert rec["residual"] > 0
    assert "fidelity" not in rec  # traced modes: no pure-resource fidelity


def test_residual_verbose_term_table():
    result = run("residual", "--n", "6", "--rbar", "0.7", "-v")
    assert result.exit_code == 0
    rows = [l for l in result.output.splitlines() if l.strip().startswith(tuple("0123456789"))]
    assert len(rows) == 5  # one row per term, N-1 of them
    assert rows[0].split()[1] == "+"
    assert rows[1].split()[1] == "-"


def test_residual_molecule_size_does_not_change_value():
    plain = run("residual", "--n", "4", "--rbar", "0.9")
    grouped = run("residual", "--n", "4", "--rbar", "0.9", "--molecule-size", "3")
    assert grouped.exit_code == 0
    assert grouped.output == plain.output


def test_residual_molecule_query_evaluates_once(monkeypatch):
    from contangle import cli, monogamy

    calls = []
    evaluate = cli.residual_sum

    def counting(*args, **kwargs):
        calls.append(args)
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(cli, "residual_sum", counting)
    monkeypatch.setattr(monogamy, "residual_sum", counting)
    grouped = run("residual", "--n", "4", "--m", "1", "--rbar", "0.9", "--molecule-size", "3")
    assert grouped.exit_code == 0
    assert calls == [(4, 1, 0.9)]


def test_residual_huge_squeezing_does_not_overflow():
    result = run("residual", "--n", "3", "--rbar", "300", "--format", "json")
    assert result.exit_code == 0
    rec = json.loads(result.output)[0]
    assert rec["fidelity"] == 1.0
    assert rec["residual"] > 0


def test_residual_verbose_huge_squeezing_lists_finite_terms():
    # e**(-4 r) underflows here; the j=0, M=0 term still evaluates
    result = run("residual", "--n", "3", "--rbar", "190", "-v", "--format", "json")
    assert result.exit_code == 0
    terms = json.loads(result.output)[0]["terms"]
    assert len(terms) == 2
    assert all(math.isfinite(t["value"]) and t["value"] > 0 for t in terms)


def test_precision_bits_are_validated():
    for bits in ("1", "0", "-5"):
        result = run("residual", "--n", "3", "--rbar", "0.5", "--precision-bits", bits)
        assert result.exit_code == 2
        assert "min_precision must be >= 2" in result.output
    plain = run("residual", "--n", "3", "--rbar", "0.5")
    raised = run("residual", "--n", "3", "--rbar", "0.5", "--precision-bits", "512")
    assert raised.exit_code == 0 and raised.output == plain.output


def test_residual_above_the_cost_budget_is_a_usage_error():
    result = run("residual", "--n", "1000", "--rbar", "5e-324")
    assert result.exit_code == 2
    assert "budget" in result.output
    assert isinstance(result.exception, SystemExit)  # no traceback


def test_residual_usage_errors():
    assert run("residual", "--n", "3").exit_code == 2  # no squeezing given
    assert (
        run("residual", "--n", "3", "--rbar", "0.5", "--db", "4.0").exit_code == 2
    )
    assert run("residual", "--n", "0", "--rbar", "0.5").exit_code == 2
    assert (
        run("residual", "--n", "1", "--rbar", "0.5", "--molecule-size", "2").exit_code
        == 2
    )
    assert (
        run("residual", "--n", "3", "--rbar", "0.5", "--molecule-size", "0").exit_code
        == 2
    )


def test_fidelity_forward_and_inverse():
    forward = run("fidelity", "--n", "3", "--rbar", "0.5")
    assert forward.exit_code == 0
    assert "0.696356133684" in forward.output

    inverse = run("fidelity", "--n", "3", "--fidelity", "0.69635613368432983")
    assert inverse.exit_code == 0
    assert "r_bar     0.5\n" in inverse.output
    assert "0.544385246942" in inverse.output


def test_fidelity_wants_exactly_one_input():
    assert run("fidelity", "--n", "3").exit_code == 2
    assert (
        run("fidelity", "--n", "3", "--rbar", "0.5", "--fidelity", "0.7").exit_code
        == 2
    )
    assert run("fidelity", "--n", "3", "--fidelity", "1.0").exit_code == 2


def test_sweep_csv_shape_and_values():
    result = run("sweep", "--n", "2:4", "--rbar", "0.5:1.0:2")
    assert result.exit_code == 0
    lines = result.output.splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 7  # header + 3 N values x 2 squeezings
    first = lines[1].split(",")
    assert first[0] == "2" and first[1] == "0"
    # two-mode residual is exactly the squared total squeezing
    assert float(first[4]) == pytest.approx(1.0, rel=1e-11)
    row_4_1 = [l for l in lines if l.startswith("4,0,1,")][0]
    assert float(row_4_1.split(",")[4]) == pytest.approx(2.60798855053, rel=1e-11)
    # pure states: fidelity column populated
    assert all(line.split(",")[5] != "" for line in lines[1:])


def test_sweep_traced_modes_leave_fidelity_blank():
    result = run("sweep", "--n", "3:5", "--m", "2", "--rbar", "0.5")
    assert result.exit_code == 0
    for line in result.output.splitlines()[1:]:
        assert line.endswith(",")


def test_sweep_is_byte_deterministic():
    args = ("sweep", "--n", "2:6:3:log", "--rbar", "0.25:1.25:3")
    assert run(*args).output == run(*args).output


def test_sweep_empty_range_prints_header_only():
    result = run("sweep", "--n", "8:4", "--rbar", "0.5")
    assert result.exit_code == 0
    assert result.output == CSV_HEADER + "\n"


def test_sweep_csv_and_json_agree():
    args = ("--n", "3:5", "--rbar", "0.3:0.9:3")
    csv_out = run("sweep", *args, "--format", "csv")
    json_out = run("sweep", *args, "--format", "json")
    rows = [l.split(",") for l in csv_out.output.splitlines()[1:]]
    records = json.loads(json_out.output)
    assert len(rows) == len(records) == 9
    for row, rec in zip(rows, records):
        assert int(row[0]) == rec["n_kept"]
        assert float(row[4]) == pytest.approx(rec["residual"], rel=1e-11)
        assert float(row[5]) == pytest.approx(rec["fidelity"], rel=1e-11)


def test_sweep_sub_double_residual_survives_rendering():
    result = run("sweep", "--n", "500", "--rbar", "0.05")
    assert result.exit_code == 0
    token = result.output.splitlines()[1].split(",")[4]
    value = Decimal(token)  # too small for float, fine for Decimal
    assert Decimal("1e-600") < value < Decimal("1e-150")
    assert token == "1.17728449104e-568"


def test_out_writes_file(tmp_path):
    target = tmp_path / "table.csv"
    result = run("sweep", "--n", "2:3", "--rbar", "0.5", "--out", str(target))
    assert result.exit_code == 0
    assert result.output == ""
    content = target.read_text()
    assert content.startswith(CSV_HEADER)
    assert len(content.splitlines()) == 3


def test_verify_suite_passes():
    result = run("verify", "gamma")
    assert result.exit_code == 0
    assert result.output.startswith("backend: ")
    assert "PASS" in result.output
    assert "gamma" in result.output


def test_verify_rejects_unknown_suite():
    assert run("verify", "nonsense").exit_code == 2


_NUMPY_PROBE = """
import contextlib, io, sys
sys.path.insert(0, {src!r})
from contangle import cli
with contextlib.redirect_stdout(io.StringIO()):
    for argv in (
        ["residual", "--n", "5", "--m", "1", "--rbar", "0.5", "-v"],
        ["fidelity", "--n", "4", "--fidelity", "0.7"],
        ["sweep", "--n", "2:6", "--rbar", "0.1:1.0:3", "--format", "json"],
    ):
        cli.main.main(argv, standalone_mode=False)
print("numpy" in sys.modules)
import contangle
contangle.build_pure_symmetric_cm(3, contangle.solve_standard_form(0.5, 3))
print("numpy" in sys.modules)
"""


def test_cli_commands_do_not_import_numpy():
    # numpy serves only the covariance matrices of contangle.gaussian and
    # the oracle suite; importing it is a third of a command's start-up.
    # A fresh interpreter, since this one has loaded numpy long ago
    src = str(Path(contangle.__file__).resolve().parents[1])
    probe = subprocess.run(
        [sys.executable, "-c", _NUMPY_PROBE.format(src=src)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert probe.returncode == 0, probe.stderr
    assert probe.stdout.split() == ["False", "True"]


def test_parse_int_range():
    assert parse_int_range("5") == [5]
    assert parse_int_range("2:6") == [2, 3, 4, 5, 6]
    assert parse_int_range("2:10:3") == [2, 6, 10]
    assert parse_int_range("2:32:5:log") == [2, 4, 8, 16, 32]
    assert parse_int_range("2:3:8:log") == [2, 3]  # rounding deduplicates
    assert parse_int_range("7:2") == []
    assert parse_int_range("4:4") == [4]
    with pytest.raises(ValueError):
        parse_int_range("a:b")
    with pytest.raises(ValueError):
        parse_int_range("1:2:3:quadratic")
    with pytest.raises(ValueError):
        parse_int_range("1:2:3:lin:extra")
    with pytest.raises(ValueError):
        parse_int_range("1:10:0")
    with pytest.raises(ValueError):
        parse_int_range("0:8:4:log")


def test_parse_float_range():
    assert parse_float_range("0.5") == [0.5]
    assert parse_float_range("0.0:1.0:5") == [0.0, 0.25, 0.5, 0.75, 1.0]
    assert parse_float_range("2.0:1.0:5") == []
    assert parse_float_range("1.5:9.0:1") == [1.5]
    with pytest.raises(ValueError):
        parse_float_range("0.1:0.9")  # needs the count
    with pytest.raises(ValueError):
        parse_float_range("x")
    with pytest.raises(ValueError):
        parse_float_range("0.1:0.9:0")
