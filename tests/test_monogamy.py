"""Residual contangle, decompositions, scans and comparison laws."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

from contangle import formulas, monogamy
from contangle.monogamy import (
    ComparisonSequence,
    MoleculePartition,
    SymmetricState,
    comparison_alternating_sum,
    comparison_gamma_value,
    comparison_value,
    decompose_state,
    molecular_residual,
    monotonicity_scan,
    positivity_scan,
    recursive_decomposition,
    residual_contangle,
    residual_contangle_extended,
    sandwich_constants,
    symmetric_closed_form,
    weak_ckw_residual,
)


def state(n, m, r):
    return SymmetricState.from_r_bar(n, m, r)


def test_state_validation():
    with pytest.raises(ValueError):
        state(0, 0, 0.5)
    with pytest.raises(ValueError):
        state(3, -1, 0.5)
    with pytest.raises(ValueError):
        SymmetricState(3, 0, "not squeezing")
    with pytest.raises(ValueError):
        residual_contangle(state(1, 4, 0.5))


def test_residual_frozen_value():
    assert residual_contangle(state(3, 0, 0.5)) == pytest.approx(
        0.54438524694163870471, rel=1e-13
    )


def test_three_party_strong_equals_weak():
    for m in (0, 1, 5):
        for r in (0.1, 0.5, 1.3, 2.8):
            strong = residual_contangle(state(3, m, r))
            weak = weak_ckw_residual(state(3, m, r))
            assert strong == pytest.approx(weak, rel=1e-12)


def test_two_party_weak_residual_is_exactly_zero():
    assert weak_ckw_residual(state(2, 0, 0.9)) == 0.0
    assert weak_ckw_residual(state(2, 3, 0.9)) == 0.0


def test_weak_dominates_strong():
    for n in (4, 6, 9):
        for m in (0, 2):
            strong = residual_contangle(state(n, m, 0.8))
            weak = weak_ckw_residual(state(n, m, 0.8))
            assert weak >= strong - 1e-14


def test_decomposition_layers_are_reduced_residuals():
    # each K-party layer of the 5-of-6 decomposition equals the residual
    # of the K-mode reduction of the same pure state; frozen values from
    # the 60-digit evaluation
    decomp = decompose_state(state(5, 1, 0.8))
    frozen = {
        2: 0.0371118881984988,
        3: 0.0209514602829553,
        4: 0.0249319917626411,
        5: 0.0669701496815508,
    }
    for k, expected in frozen.items():
        assert decomp.terms[k].value == pytest.approx(expected, rel=1e-10)
        reduced = residual_contangle(state(k, 6 - k, 0.8))
        assert decomp.terms[k].value == pytest.approx(reduced, rel=1e-10)
    assert decomp.terms[2].multiplicity == 4
    assert decomp.terms[3].multiplicity == 6
    assert decomp.terms[5].multiplicity == 1
    assert decomp.strong_residual == decomp.genuine_term


def test_decomposition_bookkeeping_identity():
    decomp = decompose_state(state(6, 0, 1.1))
    assert abs(decomp.identity_gap()) <= 1e-12 * abs(decomp.bipartite_total)
    # hierarchy gap: what weak counting misses is exactly the middle layers
    middle = sum(
        decomp.terms[k].multiplicity * decomp.terms[k].value for k in range(3, 6)
    )
    assert decomp.weak_residual - decomp.strong_residual == pytest.approx(
        middle, rel=1e-10
    )


def test_recursion_matches_closed_form_and_direct_sum():
    for n in (2, 4, 7):
        for r in (0.6, 1.7):
            decomp = decompose_state(state(n, 0, r))
            closed = symmetric_closed_form(
                [formulas.bipartite_contangle(k, n, r) for k in range(1, n)], n
            )
            direct = residual_contangle(state(n, 0, r))
            assert decomp.genuine_term == pytest.approx(closed, rel=1e-12)
            assert decomp.genuine_term == pytest.approx(direct, rel=1e-12)


def test_two_party_degenerate_decomposition():
    decomp = decompose_state(state(2, 0, 0.5))
    assert decomp.strong_residual == 0.0
    assert decomp.genuine_term == decomp.bipartite_total
    assert decomp.weak_residual == 0.0


def test_recursive_decomposition_exact_rationals():
    # worked example, small enough to follow by hand: oracle(k) = 1/(k+1)
    #   e_2 = 1/2
    #   e_3 = oracle(2) - 2 e_2           = 1/3 - 1   = -2/3
    #   closed form: -2 E(1) + E(2)       = -1 + 1/3  = -2/3
    def oracle(probe, k):
        return Fraction(1, k + 1)

    decomp = recursive_decomposition(oracle, 3)
    assert decomp.terms[2].value == Fraction(1, 2)
    assert decomp.genuine_term == Fraction(-2, 3)
    assert decomp.genuine_term == symmetric_closed_form(
        [Fraction(1, 2), Fraction(1, 3)], 3
    )
    assert decomp.identity_gap() == 0

    # and a non-trivial size with a second rational family
    def other(probe, k):
        return Fraction(2 * k + 1, (k + 2) ** 2)

    for n in (2, 5, 7):
        decomp = recursive_decomposition(other, n)
        closed = symmetric_closed_form([other(0, k) for k in range(1, n)], n)
        assert decomp.genuine_term == closed
        assert decomp.identity_gap() == 0
        assert isinstance(decomp.genuine_term, Fraction)


def test_recursive_decomposition_rejects_probe_dependence():
    def fickle(probe, k):
        return Fraction(k + probe, 2)

    with pytest.raises(RuntimeError):
        recursive_decomposition(fickle, 4)


def test_symmetric_closed_form_validation():
    with pytest.raises(ValueError):
        symmetric_closed_form([1.0, 2.0], 4)  # needs n-1 = 3 values
    with pytest.raises(ValueError):
        recursive_decomposition(lambda p, k: 1.0, 1)


def test_comparison_sequence_values_and_gamma_form():
    seq = ComparisonSequence(a=1.0, b=1.0, c=1.0, n_parties=4)
    assert comparison_value(seq, 0) == pytest.approx(1.0, rel=1e-15)
    assert comparison_value(seq, 3) == 0.0
    assert comparison_alternating_sum(seq) == pytest.approx(1 / 3, rel=1e-13)
    assert comparison_gamma_value(seq) == pytest.approx(1 / 3, rel=1e-13)
    wide = ComparisonSequence(a=1.0, b=0.5, c=2.0, n_parties=30)
    assert comparison_alternating_sum(wide) == pytest.approx(
        comparison_gamma_value(wide), rel=1e-10
    )


def test_comparison_gamma_needs_linear_law():
    seq = ComparisonSequence(a=2.0, b=1.0, c=1.0, n_parties=5)
    with pytest.raises(ValueError):
        comparison_gamma_value(seq)


def test_comparison_sequence_validation():
    with pytest.raises(ValueError):
        ComparisonSequence(a=1.0, b=0.0, c=1.0, n_parties=4)
    with pytest.raises(ValueError):
        ComparisonSequence(a=1.0, b=1.0, c=-1.0, n_parties=4)
    with pytest.raises(ValueError):
        ComparisonSequence(a=1.0, b=1.0, c=1.0, n_parties=1)
    with pytest.raises(ValueError):
        comparison_value(ComparisonSequence(1.0, 1.0, 1.0, 4), 4)


def test_sandwich_bounds_pinch_the_sequence():
    # frozen slopes for the 6-mode pure state at r_bar = 0.7
    bounds = sandwich_constants(6, 0, 0.7)
    assert bounds.lower.b == pytest.approx(1.6688701, abs=1e-6)
    assert bounds.upper.b == pytest.approx(1.6231316, abs=1e-6)
    assert bounds.lower.b >= bounds.upper.b
    assert bounds.margin >= -1e-12

    for n in (3, 5, 8):
        for m in (0, 2):
            for r in (0.3, 1.5):
                bounds = sandwich_constants(n, m, r)
                assert bounds.margin >= -1e-12
                terms = [
                    formulas.decomposition_term(j, n, m, r) for j in range(n - 1)
                ]
                for j, term in enumerate(terms):
                    normalized = term / terms[0]
                    assert normalized >= comparison_value(bounds.lower, j) - 1e-12
                    assert normalized <= comparison_value(bounds.upper, j) + 1e-12


def test_sandwich_validation():
    with pytest.raises(ValueError):
        sandwich_constants(2, 0, 0.5)
    with pytest.raises(ValueError):
        sandwich_constants(5, 0, 0.0)


def test_positivity_scan_small_grid():
    report = positivity_scan(range(2, 12), range(0, 3), [0.25, 0.75, 1.5])
    assert report.passed
    assert report.points == 90
    assert report.min_value > 0
    # the weakest entanglement sits at the largest ensemble, most traced
    # modes, least squeezing
    assert report.min_point == (11, 2, 0.25)


def test_monotonicity_scan_axes():
    rising = monotonicity_scan(
        "r_bar", [2, 5, 9], [0, 2], [0.2, 0.5, 0.9, 1.4], check_terms=True
    )
    assert rising.passed
    falling_n = monotonicity_scan("n_kept", list(range(2, 15)), [0, 1], [0.5, 1.0])
    assert falling_n.passed
    falling_m = monotonicity_scan(
        "n_traced", [3, 6], list(range(0, 8)), [0.5, 1.0]
    )
    assert falling_m.passed


def test_monotonicity_scan_validation():
    with pytest.raises(ValueError):
        monotonicity_scan("bogus", [2], [0], [0.5])
    with pytest.raises(ValueError):
        monotonicity_scan("r_bar", [3], [0], [0.9, 0.5])
    with pytest.raises(ValueError):
        monotonicity_scan("n_kept", [3], [0], [0.5], check_terms=True)


def test_traced_modes_frozen_sequence():
    # residuals for 4 kept modes at r_bar = 1 while tracing 0..5
    expected = [
        2.6079886,
        0.11860248,
        0.029190929,
        0.010774409,
        0.0049191264,
        0.0025695132,
    ]
    got = [residual_contangle(state(4, m, 1.0)) for m in range(6)]
    assert got == pytest.approx(expected, rel=1e-7)
    assert all(a > b for a, b in zip(got, got[1:]))


def test_molecular_residual_equals_unit_molecule_value():
    for n in (1, 2, 5):
        for parties in (2, 3, 7):
            mol = molecular_residual(MoleculePartition(n, parties), 0, 0.9)
            unit = residual_contangle(state(parties, 0, 0.9))
            assert mol == unit
    # tracing whole molecules behaves like tracing modes of the unit case
    assert molecular_residual(MoleculePartition(3, 4), 2, 0.9) == residual_contangle(
        state(4, 2, 0.9)
    )


def test_molecular_residual_at_huge_squeezing():
    # cosh(4 r) overflows a double here; the molecular residual does not
    value = molecular_residual(MoleculePartition(2, 3), 0, 300.0)
    assert value == residual_contangle(state(3, 0, 300.0))
    assert math.isfinite(value) and value > 0


def test_fewer_larger_molecules_hold_more():
    # twelve modes total, grouped four ways
    values = [
        molecular_residual(MoleculePartition(n, 12 // n), 0, 0.5)
        for n in (1, 2, 3, 4)
    ]
    assert values[0] < values[1] < values[2] < values[3]


def test_molecule_partition_validation():
    with pytest.raises(ValueError):
        MoleculePartition(0, 4)
    with pytest.raises(ValueError):
        MoleculePartition(2, 1)
    with pytest.raises(ValueError):
        molecular_residual(MoleculePartition(2, 3), -1, 0.5)
    with pytest.raises(ValueError):
        molecular_residual("not a partition", 0, 0.5)


def test_extended_residual_exposes_precision():
    res = residual_contangle_extended(state(3, 0, 0.5))
    assert res.precision >= 64
    assert res.value == pytest.approx(0.54438524694163870471, rel=1e-13)
