"""Rebuild ``reference/deep_sweep.json`` with the independent evaluator.

Usage (from the repository root)::

    python3 perfbench/make_reference.py

Evaluates the residual at every deep-sweep grid point with
:func:`reference.residual` (two mpmath precisions must agree to 2**-80)
and writes it with 30 significant digits.  Takes a few minutes on one
core; the program under test is not imported.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import mpmath  # noqa: E402

import reference  # noqa: E402
from workloads import REFERENCE_TABLE, deep_points  # noqa: E402


def main() -> None:
    table = {}
    for n, r in deep_points():
        table[f"{n},{r!r}"] = mpmath.nstr(reference.residual(n, 0, r), 30)
        print(f"N={n} r_bar={r!r}: {table[f'{n},{r!r}']}", flush=True)
    REFERENCE_TABLE.parent.mkdir(exist_ok=True)
    document = {
        "about": "residual contangle of the pure symmetric N-mode state (M=0), "
        "from perfbench/reference.py; key 'N,r_bar'",
        "mpmath": mpmath.__version__,
        "residual": table,
    }
    REFERENCE_TABLE.write_text(json.dumps(document, indent=1) + "\n")


if __name__ == "__main__":
    main()
