"""The benchmark's checkers accept the program's real output and reject
corrupted copies of it.

Run from the repository root::

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import mpmath
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from click.testing import CliRunner  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from contangle import monogamy  # noqa: E402
from contangle.cli import main  # noqa: E402
from checks import Query  # noqa: E402

TABLE = json.loads(workloads.REFERENCE_TABLE.read_text())["residual"]


def cli(argv: list[str]) -> str:
    result = CliRunner().invoke(main, argv)
    assert result.exit_code == 0, result.output
    return result.output


def scaled(token: str, factor: float, digits: int = 12) -> str:
    with mpmath.mp.workprec(100):
        return mpmath.nstr(checks.mpf(token) * factor, digits)


def replace_line(text: str, key: str, new_value: str) -> str:
    lines = [
        f"{key:<10s}{new_value}" if line.split(None, 1)[0:1] == [key] else line
        for line in text.splitlines()
    ]
    return "\n".join(lines) + "\n"


QUERIES = [
    Query("rbar", 7, r=0.8),
    Query("rbar", 33, r=0.2345, fmt="json"),
    Query("rbar", 2, r=0.7, fmt="json"),
    Query("verbose", 9, r=1.1),
    Query("db", 12, db=6.5),
    Query("m", 10, m=4, r=0.9, fmt="json"),
    Query("molecule", 6, m=1, r=0.5, size=3),
    Query("fid-rbar", 20, r=0.4),
    Query("fid-inverse", 15, fid=0.8125, fmt="json"),
]


@pytest.mark.parametrize("query", QUERIES, ids=lambda q: " ".join(q.argv()))
def test_real_query_output_passes(query):
    assert checks.check_query(query, cli(query.argv())) == []


def test_residual_off_by_1e8_relative_is_rejected_in_text():
    q = Query("rbar", 7, r=0.8)
    text = cli(q.argv())
    rec = checks.parse_record(text, "text")
    bad = replace_line(text, "residual", scaled(rec["residual"], 1 + 1e-8))
    errors = checks.check_query(q, bad)
    assert any("differs from the reference" in e for e in errors)


def test_residual_off_by_1e8_relative_is_rejected_in_json():
    q = Query("m", 10, m=4, r=0.9, fmt="json")
    text = cli(q.argv())
    rec = json.loads(text)[0]
    rec["residual"] *= 1 + 1e-8
    errors = checks.check_query(q, json.dumps([rec]))
    assert any("differs from the reference" in e for e in errors)


def test_two_mode_residual_one_ulp_off_is_rejected():
    q = Query("rbar", 2, r=0.7, fmt="json")
    rec = json.loads(cli(q.argv()))[0]
    rec["residual"] = float(mpmath.mpf(rec["residual"]) * (1 + 2.0**-52))
    errors = checks.check_query(q, json.dumps([rec]))
    assert any("4 r_bar^2" in e for e in errors)


def test_fidelity_that_does_not_map_back_is_rejected():
    q = Query("fid-inverse", 15, fid=0.8125, fmt="json")
    rec = json.loads(cli(q.argv()))[0]
    rec["fidelity"] += 1e-9
    errors = checks.check_query(q, json.dumps([rec]))
    assert any("does not map back" in e for e in errors)


def test_wrong_decibel_conversion_is_rejected():
    q = Query("db", 12, db=6.5)
    text = cli(q.argv())
    rec = checks.parse_record(text, "text")
    errors = checks.check_query(q, replace_line(text, "r_db", scaled(rec["r_db"], 1 + 1e-9)))
    assert any("r_db" in e for e in errors)


def test_wrong_term_row_is_rejected():
    q = Query("verbose", 9, r=1.1)
    text = cli(q.argv())
    head, table = text.split("\n\n")
    rows = table.splitlines()
    j, sign, binomial, value = rows[3].split()
    rows[3] = rows[3].replace(value, scaled(value, 1 + 1e-8))
    errors = checks.check_query(q, head + "\n\n" + "\n".join(rows) + "\n")
    assert any("term 2 value" in e for e in errors)


def test_mismatched_molecule_value_is_rejected():
    q = Query("molecule", 6, m=1, r=0.5, size=3)
    value = monogamy.molecular_residual(monogamy.MoleculePartition(q.size, q.n), q.m, q.r)
    text = cli(q.argv())
    unit = cli(q.unit_molecule().argv())
    assert checks.check_molecule(q, value, text, unit) == []
    errors = checks.check_molecule(q, value * (1 + 1e-8), text, unit)
    assert any("molecular residual" in e for e in errors)
    rec = checks.parse_record(text, "text")
    bad = replace_line(text, "residual", scaled(rec["residual"], 1 + 1e-8))
    assert checks.check_molecule(q, value, bad, unit)


SWEEP_R = 0.1
SWEEP_NS = checks.expected_log_range(100, 215, 2)


@pytest.fixture(scope="module")
def sweep_csv():
    return cli(["sweep", "--n", "100:215:2:log", "--rbar", repr(SWEEP_R)])


def test_real_sweep_column_passes(sweep_csv):
    errors, values = checks.check_sweep_csv(sweep_csv, SWEEP_R, SWEEP_NS, TABLE)
    assert errors == []
    assert checks.check_shape(values) == []


def test_sweep_row_out_of_order_is_rejected(sweep_csv):
    header, first, second = sweep_csv.splitlines()
    errors, _ = checks.check_sweep_csv(
        "\n".join([header, second, first]) + "\n", SWEEP_R, SWEEP_NS, TABLE
    )
    assert errors


def test_sweep_residual_off_by_1e8_relative_is_rejected(sweep_csv):
    lines = sweep_csv.splitlines()
    cells = lines[2].split(",")
    cells[4] = scaled(cells[4], 1 + 1e-8)
    lines[2] = ",".join(cells)
    errors, _ = checks.check_sweep_csv("\n".join(lines) + "\n", SWEEP_R, SWEEP_NS, TABLE)
    assert any("differs from the reference" in e for e in errors)


def test_shape_rejects_each_broken_property():
    good = {(n, m, r): mpmath.mpf(r) ** n / (1 + m) for n in (2, 3) for m in (0, 1) for r in (0.5, 0.7)}
    assert checks.check_shape(good) == []
    for key, value, rule in (
        ((3, 0, 0.7), good[3, 0, 0.5], "along r_bar"),  # flat in r_bar
        ((3, 0, 0.5), good[2, 0, 0.5] * 2, "along N"),
        ((2, 1, 0.5), good[2, 0, 0.5] * 2, "along M"),
        ((2, 0, 0.5), mpmath.mpf(-1), "not positive"),
    ):
        errors = checks.check_shape({**good, key: value})
        assert any(rule in e for e in errors), (key, errors)


def test_reference_table_covers_the_deep_sweep_grid():
    assert {f"{n},{r!r}" for n, r in workloads.deep_points()} == set(TABLE)
