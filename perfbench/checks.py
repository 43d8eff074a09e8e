"""Checks of the program's outputs against independent values and properties.

Every checker returns a list of error strings (empty when the output is
right), so one run can report all problems at once.  Reference values come
from :mod:`reference` or from the shipped deep-sweep table, never from a
saved copy of the program's own output.

Printed numbers carry 12 significant digits (text and CSV) or a full
``repr`` (JSON), so a relative tolerance of 1e-10 separates rounding from
a wrong value by two orders of magnitude either way.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath
from mpmath import mp

import reference

REL_TOL = 1e-10
FIDELITY_ROUNDTRIP = 1e-10
CSV_HEADER = "N,M,r_bar,r_db,residual,fidelity"
LN10 = mpmath.log(10)


def mpf(token) -> mpmath.mpf:
    """Parse a printed number exactly enough (100 bits) for the checks."""
    with mp.workprec(100):
        return mpmath.mpf(token)


def rel_err(value, ref) -> float:
    with mp.workprec(100):
        return float(abs(mpf(value) - ref) / abs(ref))


@dataclass(frozen=True)
class Query:
    """One single-point CLI query of the interactive stream."""

    kind: str  # "rbar", "db", "m", "verbose", "molecule", "fid-rbar", "fid-inverse"
    n: int
    m: int = 0
    r: float | None = None
    db: float | None = None
    fid: float | None = None
    size: int = 1
    fmt: str = "text"

    def argv(self) -> list[str]:
        command = "fidelity" if self.kind.startswith("fid") else "residual"
        args = [command, "--n", str(self.n)]
        if self.m:
            args += ["--m", str(self.m)]
        if self.r is not None:
            args += ["--rbar", repr(self.r)]
        if self.db is not None:
            args += ["--db", repr(self.db)]
        if self.fid is not None:
            args += ["--fidelity", repr(self.fid)]
        if self.size > 1:
            args += ["--molecule-size", str(self.size)]
        if self.kind == "verbose":
            args.append("-v")
        if self.fmt != "text":
            args += ["--format", self.fmt]
        return args

    def unit_molecule(self) -> "Query":
        return Query("rbar", self.n, self.m, r=self.r, fmt=self.fmt)


def parse_record(text: str, fmt: str) -> dict:
    """Fields of one rendered record; numbers stay as their printed tokens."""
    if fmt == "json":
        records = json.loads(text, parse_float=str, parse_int=int)
        if len(records) != 1:
            raise ValueError(f"expected one JSON record, got {len(records)}")
        rec = records[0]
        terms = rec.get("terms")
        return {
            "n": rec["n_kept"],
            "m": rec["n_traced"],
            "r_bar": rec["r_bar"],
            "r_db": rec["r_db"],
            "residual": rec["residual"],
            "fidelity": rec.get("fidelity"),
            "terms": None
            if terms is None
            else [(t["j"], t["sign"], t["binomial"], t["value"]) for t in terms],
        }
    head, _, table = text.partition("\n\n")
    fields = dict(line.split(None, 1) for line in head.splitlines())
    terms = None
    if table:
        terms = []
        for row in table.splitlines()[1:]:
            j, sign, binomial, value = row.split()
            terms.append((int(j), -1 if sign == "-" else 1, int(binomial), value))
    return {
        "n": int(fields["N"]),
        "m": int(fields["M"]),
        "r_bar": fields["r_bar"],
        "r_db": fields["r_db"],
        "residual": fields["residual"],
        "fidelity": fields.get("fidelity"),
        "terms": terms,
    }


def _squeezing_reference(q: Query):
    """The squeezing the program should have used, independently derived."""
    if q.r is not None:
        return mpf(q.r)
    if q.db is not None:
        with mp.workprec(100):
            return mpf(q.db) * LN10 / 20
    return reference.squeezing(q.n, q.fid)


def check_query(q: Query, text: str) -> list[str]:
    """All checks that apply to one interactive query's output."""
    tag = " ".join(q.argv())
    try:
        rec = parse_record(text, q.fmt)
    except (ValueError, KeyError) as exc:
        return [f"{tag}: unparsable output ({exc})"]
    errors = []
    if (rec["n"], rec["m"]) != (q.n, q.m):
        errors.append(f"{tag}: printed N, M = {rec['n']}, {rec['m']}")
    r_ref = _squeezing_reference(q)
    if rel_err(rec["r_bar"], r_ref) > REL_TOL:
        errors.append(f"{tag}: r_bar {rec['r_bar']} is not {mpmath.nstr(r_ref, 15)}")
    with mp.workprec(100):
        db_ref = 20 * mpf(rec["r_bar"]) / LN10
    if rel_err(rec["r_db"], db_ref) > REL_TOL:
        errors.append(f"{tag}: r_db {rec['r_db']} is not 20 r_bar / ln 10")
    # the residual at the program's own double, so 12-digit rounding of
    # the printed r_bar cannot leak into the comparison
    r_used = float(rec["r_bar"]) if q.fmt == "json" else float(r_ref)
    res_ref = reference.residual(q.n, q.m, r_used)
    if not mpf(rec["residual"]) > 0:
        errors.append(f"{tag}: residual {rec['residual']} is not positive")
    if rel_err(rec["residual"], res_ref) > REL_TOL:
        errors.append(
            f"{tag}: residual {rec['residual']} differs from the reference "
            f"{mpmath.nstr(res_ref, 15)}"
        )
    if q.n == 2 and q.m == 0 and q.fmt == "json":
        exact = float(4 * Fraction(float(rec["r_bar"])) ** 2)
        if float(rec["residual"]) != exact:
            errors.append(f"{tag}: N=2 residual {rec['residual']} is not 4 r_bar^2 = {exact!r}")
    if q.m == 0:
        if rec["fidelity"] is None:
            errors.append(f"{tag}: fidelity missing for a pure resource")
        else:
            if rel_err(rec["fidelity"], reference.fidelity(q.n, r_used)) > REL_TOL:
                errors.append(f"{tag}: fidelity {rec['fidelity']} differs from the reference")
            if q.fid is not None and abs(float(rec["fidelity"]) - q.fid) > FIDELITY_ROUNDTRIP:
                errors.append(f"{tag}: fidelity {rec['fidelity']} does not map back to {q.fid}")
    elif rec["fidelity"] is not None:
        errors.append(f"{tag}: fidelity printed although modes were traced out")
    if (q.kind == "verbose") != (rec["terms"] is not None):
        errors.append(f"{tag}: term table present={rec['terms'] is not None}")
    elif rec["terms"] is not None:
        errors.extend(_check_terms(tag, q, rec["terms"], r_used))
    return errors


def _check_terms(tag: str, q: Query, terms, r_used: float) -> list[str]:
    if [t[0] for t in terms] != list(range(q.n - 1)):
        return [f"{tag}: term indices are not 0..{q.n - 2}"]
    errors = []
    for j, sign, binomial, value in terms:
        if sign != (-1) ** j or binomial != math.comb(q.n - 1, j):
            errors.append(f"{tag}: term {j} has sign {sign}, binomial {binomial}")
        if rel_err(value, reference.block_contangle(q.n - 1 - j, q.n + q.m, r_used)) > REL_TOL:
            errors.append(f"{tag}: term {j} value {value} differs from the reference")
    return errors


def check_molecule(q: Query, value: float, text: str, unit_text: str) -> list[str]:
    """Scale invariance and the CLI's molecule record.

    ``value`` is the program's ``molecular_residual`` for ``q.size`` modes
    per party; it must equal the independent residual of the unit molecule
    with as many parties.  Apart from that, the CLI must print for a
    molecule query exactly the record of the unit-molecule query.
    """
    tag = " ".join(q.argv())
    errors = []
    ref = reference.residual(q.n, q.m, q.r)
    if rel_err(repr(value), ref) > REL_TOL:
        errors.append(
            f"{tag}: molecular residual {value!r} differs from the unit-molecule "
            f"reference {mpmath.nstr(ref, 15)}"
        )
    if text != unit_text:
        errors.append(f"{tag}: output differs from the unit-molecule query")
    return errors


def expected_log_range(start: int, stop: int, count: int) -> list[int]:
    """Kept-mode values of ``--n start:stop:count:log`` as the CLI documents them:
    geometrically spaced, rounded to integers, duplicates dropped."""
    ratio = (stop / start) ** (1.0 / (count - 1))
    values: list[int] = []
    for i in range(count):
        v = round(start * ratio**i)
        if not values or v > values[-1]:
            values.append(v)
    return values


def check_sweep_csv(
    text: str, r_bar: float, n_values: list[int], table: dict[str, str]
) -> tuple[list[str], dict[tuple[int, int, float], mpmath.mpf]]:
    """Check one ``sweep`` CSV column (one squeezing, N ascending).

    Returns the errors and the parsed residuals keyed by (N, 0, r_bar), for
    the cross-column shape checks.
    """
    tag = f"sweep r_bar={r_bar!r}"
    lines = text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        return [f"{tag}: bad CSV header"], {}
    rows = [line.split(",") for line in lines[1:]]
    if [int(row[0]) for row in rows] != n_values:
        return [f"{tag}: rows are for N={[row[0] for row in rows]}, expected {n_values}"], {}
    errors = []
    values = {}
    for row, n in zip(rows, n_values):
        _, m, r_text, db_text, res_text, fid_text = row
        if m != "0" or rel_err(r_text, mpf(r_bar)) > REL_TOL:
            errors.append(f"{tag}: row N={n} prints M={m}, r_bar={r_text}")
        with mp.workprec(100):
            if rel_err(db_text, 20 * mpf(r_bar) / LN10) > REL_TOL:
                errors.append(f"{tag}: row N={n} r_db {db_text} is not 20 r_bar / ln 10")
        ref = mpf(table[f"{n},{r_bar!r}"])
        if rel_err(res_text, ref) > REL_TOL:
            errors.append(f"{tag}: row N={n} residual {res_text} differs from the reference {table[f'{n},{r_bar!r}']}")
        if rel_err(fid_text, reference.fidelity(n, r_bar)) > REL_TOL:
            errors.append(f"{tag}: row N={n} fidelity {fid_text} differs from the reference")
        values[n, 0, r_bar] = mpf(res_text)
    return errors, values


def check_shape(values: dict[tuple[int, int, float], object]) -> list[str]:
    """Positive; strictly rising in r_bar; non-increasing in N and in M.

    ``values`` maps (N, M, r_bar) to an exact number (mpf or Fraction), so
    magnitudes below the double range still order correctly.
    """
    errors = [f"residual {v} at {k} is not positive" for k, v in values.items() if not v > 0]
    for axis, strict in ((2, True), (0, False), (1, False)):
        lines: dict[tuple, list] = {}
        for key in sorted(values, key=lambda k: (k[:axis] + k[axis + 1:], k[axis])):
            lines.setdefault(key[:axis] + key[axis + 1:], []).append(values[key])
        name = ("N", "M", "r_bar")[axis]
        for fixed, line in lines.items():
            pairs = list(zip(line, line[1:]))
            if any(b <= a for a, b in pairs) if strict else any(b > a for a, b in pairs):
                rule = "rise strictly" if strict else "stay non-increasing"
                errors.append(f"residual does not {rule} along {name} at {fixed}")
    return errors
