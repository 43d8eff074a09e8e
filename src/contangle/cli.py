"""Command-line interface.

Four subcommands: ``residual`` and ``fidelity`` evaluate single points,
``sweep`` produces CSV/JSON tables over parameter ranges, and ``verify``
runs the built-in verification suites.  Output for identical flags is
byte-identical: no timestamps, no environment-dependent formatting, and
residual columns are printed from the exponent-exact result so values far
below the double range survive the trip through text.

Squeezing can be given directly (``--rbar``) or in decibels (``--db``),
with ``r_db = (20 / ln 10) * r_bar``.  The environment variables
``CONTANGLE_PRECISION_BITS`` (minimum working precision) and
``CONTANGLE_BACKEND`` (``native`` or ``python``) tune the kernels.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import click

from . import formulas, monogamy, teleportation, verification
from .kernels import SumResult, backend_name, residual_sum

__all__ = ["OutputRecord", "TermRow", "main"]

CSV_HEADER = "N,M,r_bar,r_db,residual,fidelity"
SIGNIFICANT_DIGITS = 12


class TermRow(NamedTuple):
    """One term of the alternating sum, as shown by ``residual -v``."""

    j: int
    binomial: int
    sign: int
    value: float


@dataclass(frozen=True)
class OutputRecord:
    """One evaluated grid point, ready for rendering.

    ``fidelity`` is absent (None) when modes were traced out: the fidelity
    map applies to the pure resource only.  ``r_db`` always equals
    ``(20 / ln 10) * r_bar``.
    """

    n_kept: int
    n_traced: int
    r_bar: float
    r_db: float
    residual: SumResult
    fidelity: float | None
    terms: tuple[TermRow, ...] | None = None


def _fmt(value: float) -> str:
    return format(value, f".{SIGNIFICANT_DIGITS}g")


def _residual_json_token(res: SumResult) -> str:
    if res.is_zero:
        return "0.0"
    if res.value != 0.0:
        return repr(res.value)
    # magnitude below the double range: decimal form of the exact exponent view
    return res.decimal(17)


def build_record(
    n_kept: int,
    n_traced: int,
    r_bar: float,
    *,
    molecule_size: int = 1,
    min_precision: int | None = None,
    with_terms: bool = False,
) -> OutputRecord:
    """Evaluate one grid point into an :class:`OutputRecord`."""
    if molecule_size != 1:
        # molecules of any size leave the residual of as many unit modes
        # unchanged (the ``scale`` suite checks it); only validate the grouping
        monogamy.MoleculePartition(molecule_size, n_kept)
    residual = residual_sum(n_kept, n_traced, r_bar, min_precision=min_precision)
    fidelity = (
        teleportation.fidelity_from_squeezing(n_kept, r_bar)
        if n_traced == 0
        else None
    )
    terms = None
    if with_terms:
        terms = tuple(
            TermRow(
                j=j,
                binomial=math.comb(n_kept - 1, j),
                sign=-1 if j % 2 else 1,
                value=formulas.decomposition_term(j, n_kept, n_traced, r_bar),
            )
            for j in range(n_kept - 1)
        )
    return OutputRecord(
        n_kept=n_kept,
        n_traced=n_traced,
        r_bar=r_bar,
        r_db=formulas.db_from_r_bar(r_bar),
        residual=residual,
        fidelity=fidelity,
        terms=terms,
    )


def render_csv(records: Sequence[OutputRecord]) -> str:
    lines = [CSV_HEADER]
    for rec in records:
        fidelity = "" if rec.fidelity is None else _fmt(rec.fidelity)
        lines.append(
            ",".join(
                (
                    str(rec.n_kept),
                    str(rec.n_traced),
                    _fmt(rec.r_bar),
                    _fmt(rec.r_db),
                    rec.residual.decimal(SIGNIFICANT_DIGITS),
                    fidelity,
                )
            )
        )
    return "\n".join(lines) + "\n"


def _record_json(rec: OutputRecord) -> str:
    parts = [
        f'"n_kept": {rec.n_kept}',
        f'"n_traced": {rec.n_traced}',
        f'"r_bar": {rec.r_bar!r}',
        f'"r_db": {rec.r_db!r}',
        f'"residual": {_residual_json_token(rec.residual)}',
    ]
    if rec.fidelity is not None:
        parts.append(f'"fidelity": {rec.fidelity!r}')
    if rec.terms is not None:
        rows = ", ".join(
            f'{{"j": {t.j}, "binomial": {t.binomial}, "sign": {t.sign}, '
            f'"value": {t.value!r}}}'
            for t in rec.terms
        )
        parts.append(f'"terms": [{rows}]')
    return "{" + ", ".join(parts) + "}"


def render_json(records: Sequence[OutputRecord]) -> str:
    body = ",\n".join("  " + _record_json(rec) for rec in records)
    if body:
        return "[\n" + body + "\n]\n"
    return "[]\n"


def render_text(rec: OutputRecord) -> str:
    lines = [
        f"N         {rec.n_kept}",
        f"M         {rec.n_traced}",
        f"r_bar     {_fmt(rec.r_bar)}",
        f"r_db      {_fmt(rec.r_db)}",
        f"residual  {rec.residual.decimal(SIGNIFICANT_DIGITS)}",
    ]
    if rec.fidelity is not None:
        lines.append(f"fidelity  {_fmt(rec.fidelity)}")
    if rec.terms is not None:
        lines.append("")
        lines.append("   j  sign  binomial      term")
        for t in rec.terms:
            sign = "-" if t.sign < 0 else "+"
            lines.append(f"{t.j:4d}  {sign}     {t.binomial:<12d}  {_fmt(t.value)}")
    return "\n".join(lines) + "\n"


def parse_int_range(text: str) -> list[int]:
    """Parse ``start[:stop[:count[:lin|log]]]`` into ascending integers.

    A bare value is a single point; ``start:stop`` walks in steps of one;
    with a count the values are evenly spaced (linearly or, with ``log``,
    geometrically) and deduplicated after rounding.  ``start > stop``
    yields an empty range.
    """
    parts = text.split(":")
    if len(parts) > 4:
        raise ValueError(f"too many ':' in range {text!r}")
    try:
        start = int(parts[0])
        stop = int(parts[1]) if len(parts) > 1 else start
        count = int(parts[2]) if len(parts) > 2 else None
    except ValueError as exc:
        raise ValueError(f"malformed integer range {text!r}") from exc
    scale = parts[3] if len(parts) > 3 else "lin"
    if scale not in ("lin", "log"):
        raise ValueError(f"range scale must be 'lin' or 'log', got {scale!r}")
    if start > stop:
        return []
    if count is None:
        return list(range(start, stop + 1))
    if count < 1:
        raise ValueError(f"range count must be >= 1, got {count}")
    if count == 1:
        return [start]
    if scale == "log":
        if start < 1:
            raise ValueError("log-spaced ranges need start >= 1")
        ratio = (stop / start) ** (1.0 / (count - 1))
        raw = [start * ratio**i for i in range(count)]
    else:
        step = (stop - start) / (count - 1)
        raw = [start + step * i for i in range(count)]
    values = []
    for x in raw:
        v = round(x)
        if not values or v > values[-1]:
            values.append(v)
    return values


def parse_float_range(text: str) -> list[float]:
    """Parse ``value`` or ``start:stop:count`` into ascending floats."""
    parts = text.split(":")
    try:
        if len(parts) == 1:
            return [float(parts[0])]
        if len(parts) == 3:
            start, stop = float(parts[0]), float(parts[1])
            count = int(parts[2])
        else:
            raise ValueError
    except ValueError:
        raise ValueError(
            f"malformed range {text!r}; use 'value' or 'start:stop:count'"
        ) from None
    if count < 1:
        raise ValueError(f"range count must be >= 1, got {count}")
    if start > stop:
        return []
    if count == 1:
        return [start]
    step = (stop - start) / (count - 1)
    return [start + step * i for i in range(count)]


def _emit(text: str, out: str | None):
    if out is None:
        click.echo(text, nl=False)
    else:
        with open(out, "w") as handle:
            handle.write(text)


def _squeezing_option(rbar: float | None, db: float | None) -> float:
    if (rbar is None) == (db is None):
        raise click.UsageError("give exactly one of --rbar or --db")
    return rbar if rbar is not None else formulas.r_bar_from_db(db)


@click.group()
def main():
    """Residual contangle and teleportation fidelity of symmetric
    Gaussian resource states."""


@main.command()
@click.option("--n", required=True, type=int, help="Number of kept modes.")
@click.option("--m", default=0, type=int, show_default=True, help="Traced modes.")
@click.option("--rbar", type=float, default=None, help="Mean squeezing degree.")
@click.option("--db", type=float, default=None, help="Mean squeezing in decibels.")
@click.option(
    "--molecule-size",
    default=1,
    type=int,
    show_default=True,
    help="Group this many modes into each party.",
)
@click.option("--precision-bits", type=int, default=None, help="Minimum working precision.")
@click.option(
    "--format",
    "fmt",
    type=click.Choice(["text", "json"]),
    default="text",
    show_default=True,
)
@click.option("--out", type=click.Path(dir_okay=False), default=None, help="Write to file.")
@click.option("-v", "--verbose", is_flag=True, help="Show every term of the sum.")
def residual(n, m, rbar, db, molecule_size, precision_bits, fmt, out, verbose):
    """Residual contangle of one symmetric state."""
    r_bar = _squeezing_option(rbar, db)
    try:
        rec = build_record(
            n,
            m,
            r_bar,
            molecule_size=molecule_size,
            min_precision=precision_bits,
            with_terms=verbose,
        )
    except (ValueError, TypeError) as exc:
        raise click.UsageError(str(exc)) from exc
    text = render_text(rec) if fmt == "text" else render_json([rec])
    _emit(text, out)


@main.command()
@click.option("--n", required=True, type=int, help="Number of parties.")
@click.option("--rbar", type=float, default=None, help="Mean squeezing degree.")
@click.option("--db", type=float, default=None, help="Mean squeezing in decibels.")
@click.option("--fidelity", "fid", type=float, default=None, help="Known fidelity.")
@click.option("--precision-bits", type=int, default=None, help="Minimum working precision.")
@click.option(
    "--format",
    "fmt",
    type=click.Choice(["text", "json"]),
    default="text",
    show_default=True,
)
@click.option("--out", type=click.Path(dir_okay=False), default=None, help="Write to file.")
def fidelity(n, rbar, db, fid, precision_bits, fmt, out):
    """Teleportation fidelity of the n-party resource, or the squeezing
    and residual behind a measured fidelity."""
    given = [x for x in (rbar, db, fid) if x is not None]
    if len(given) != 1:
        raise click.UsageError("give exactly one of --rbar, --db or --fidelity")
    try:
        if fid is not None:
            r_bar = teleportation.squeezing_from_fidelity(n, fid)
        else:
            r_bar = rbar if rbar is not None else formulas.r_bar_from_db(db)
        rec = build_record(n, 0, r_bar, min_precision=precision_bits)
    except (ValueError, TypeError) as exc:
        raise click.UsageError(str(exc)) from exc
    text = render_text(rec) if fmt == "text" else render_json([rec])
    _emit(text, out)


@main.command()
@click.option(
    "--n",
    "n_range",
    required=True,
    help="Kept-mode range: 'start[:stop[:count[:lin|log]]]'.",
)
@click.option("--m", default=0, type=int, show_default=True, help="Traced modes.")
@click.option("--rbar", "rbar_range", default=None, help="Squeezing range 'start:stop:count'.")
@click.option("--db", "db_range", default=None, help="Squeezing range in decibels.")
@click.option("--precision-bits", type=int, default=None, help="Minimum working precision.")
@click.option(
    "--format",
    "fmt",
    type=click.Choice(["csv", "json"]),
    default="csv",
    show_default=True,
)
@click.option("--out", type=click.Path(dir_okay=False), default=None, help="Write to file.")
def sweep(n_range, m, rbar_range, db_range, precision_bits, fmt, out):
    """Tabulate the residual over a grid (kept modes major, squeezing minor)."""
    if (rbar_range is None) == (db_range is None):
        raise click.UsageError("give exactly one of --rbar or --db")
    try:
        n_values = parse_int_range(n_range)
        if rbar_range is not None:
            r_values = parse_float_range(rbar_range)
        else:
            r_values = [
                formulas.r_bar_from_db(x) for x in parse_float_range(db_range)
            ]
        records = [
            build_record(n, m, r, min_precision=precision_bits)
            for n in n_values
            for r in r_values
        ]
    except (ValueError, TypeError) as exc:
        raise click.UsageError(str(exc)) from exc
    text = render_csv(records) if fmt == "csv" else render_json(records)
    _emit(text, out)


@main.command()
@click.argument(
    "suite", type=click.Choice(list(verification.SUITE_NAMES) + ["all"])
)
def verify(suite):
    """Run a built-in verification suite (or all of them)."""
    click.echo(f"backend: {backend_name()}")
    reports = (
        verification.run_all()
        if suite == "all"
        else [verification.run_suite(suite)]
    )
    for report in reports:
        click.echo(report.summary())
    if not all(report.passed for report in reports):
        sys.exit(1)


if __name__ == "__main__":
    main()
