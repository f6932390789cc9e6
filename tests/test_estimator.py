"""Cylinder counting, premeasure behavior, and the count-slope estimator."""

import random
from fractions import Fraction

import pytest
from mpmath import mp, mpf

from cantordim import (
    DigitSetSpec,
    DigitString,
    EstimatorError,
    SymbolModel,
    box_dimension_estimate,
    count_cylinders,
    dim_spectrum_series,
    eps_for,
    make_row_rule,
    make_sequence,
    premeasure,
    v_digit_set,
    working_dps,
)

CONSTANT3 = make_sequence({"kind": "constant", "s": 3})
ARITH = make_sequence({"kind": "arithmetic", "a1": 2, "d": 1})

CANTOR = DigitSetSpec.constant_digits(CONSTANT3, (0, 2))
FULL3 = DigitSetSpec.full(CONSTANT3)


# ---------------------------------------------------------------------------
# counting
# ---------------------------------------------------------------------------


def test_count_cantor_powers_of_two():
    assert [count_cylinders(CANTOR, k) for k in (1, 5, 12)] == [2, 2**5, 2**12]


def test_count_constrained_set_at_first_spike():
    V = v_digit_set(ARITH)
    assert count_cylinders(V, 10) == 3628800  # 10! free choices, forced 0 at rank 10
    assert count_cylinders(V, 9) == 3628800


def test_count_full_set_is_prefix_product():
    prod = 1
    for k in range(1, 8):
        prod *= ARITH.term(k)
        assert count_cylinders(DigitSetSpec.full(ARITH), k) == prod


def test_counts_monotone_under_containment():
    rng = random.Random(5)
    for _ in range(50):
        small = sorted(rng.sample(range(3), rng.randrange(1, 3)))
        extra = [d for d in range(3) if d not in small]
        big = sorted(small + rng.sample(extra, rng.randrange(0, len(extra) + 1)))
        e_small = DigitSetSpec.constant_digits(CONSTANT3, small)
        e_big = DigitSetSpec.constant_digits(CONSTANT3, big)
        for k in (1, 4, 9):
            assert count_cylinders(e_small, k) <= count_cylinders(e_big, k)


def test_admissible_validation():
    with pytest.raises(EstimatorError):
        DigitSetSpec.constant_digits(CONSTANT3, ()).admissible_count(1)
    with pytest.raises(EstimatorError):
        DigitSetSpec.constant_digits(CONSTANT3, (0, 3)).admissible_count(1)
    table = DigitSetSpec.from_table(CONSTANT3, [(0,), (0, 1)])
    assert count_cylinders(table, 2) == 2
    with pytest.raises(EstimatorError):
        count_cylinders(table, 3)


def test_contains_and_membership():
    V = v_digit_set(ARITH)
    inside = DigitString(ARITH, tuple(0 if k == 10 else k - 1 for k in range(1, 12)))
    outside = DigitString(ARITH, (0,) * 9 + (1,))
    assert V.contains(inside)
    assert not V.contains(outside)


def test_descriptor_round_trip():
    for spec in (CANTOR, FULL3, v_digit_set(ARITH),
                 DigitSetSpec.from_table(CONSTANT3, [(0, 1), (2,)])):
        desc = spec.descriptor()
        again = DigitSetSpec.from_descriptor(CONSTANT3 if desc["sequence"]["kind"] == "constant" else ARITH,
                                             desc["admissible"])
        assert again.descriptor() == desc


def test_from_descriptor_rejects_unknown():
    with pytest.raises(EstimatorError):
        DigitSetSpec.from_descriptor(CONSTANT3, {"bogus": 1})
    with pytest.raises(EstimatorError):
        DigitSetSpec.from_descriptor(CONSTANT3, {"except_ranks": "fibonacci", "digits_at_exception": [0]})


@pytest.mark.parametrize(
    "spec, field",
    [
        ({"every_rank": [0.9, 2]}, "every_rank"),
        ({"per_rank": [[0], [1.5]]}, "per_rank"),
        ({"except_ranks": "powers_of_10", "digits_at_exception": [0.5]}, "digits_at_exception"),
        ({"except_ranks": [2.5], "digits_at_exception": [0]}, "except_ranks"),
        ({"every_rank": [True]}, "every_rank"),
        ({"except_ranks": [True], "digits_at_exception": [0]}, "except_ranks"),
    ],
)
def test_digit_set_integers_are_not_truncated(spec, field):
    with pytest.raises(EstimatorError, match=f"^{field} entry must be an integer, got "):
        DigitSetSpec.from_descriptor(CONSTANT3, spec)


def test_negative_digits_and_exception_ranks_are_rejected():
    with pytest.raises(EstimatorError, match="^negative every_rank entry -1$"):
        DigitSetSpec.from_descriptor(CONSTANT3, {"every_rank": [0, -1]})
    with pytest.raises(EstimatorError, match="^negative except_ranks entry -2$"):
        DigitSetSpec.from_descriptor(CONSTANT3, {"except_ranks": [-2, 3], "digits_at_exception": [0]})
    with pytest.raises(EstimatorError, match="^except_ranks entry 0 is not a rank; ranks start at 1$"):
        DigitSetSpec.from_descriptor(CONSTANT3, {"except_ranks": [0], "digits_at_exception": [0]})


def test_empty_exception_rank_list_is_the_full_set():
    spec = DigitSetSpec.from_descriptor(CONSTANT3, {"except_ranks": [], "digits_at_exception": [0]})
    assert [count_cylinders(spec, k) for k in (1, 10)] == [3, 3**10]
    assert spec.descriptor()["admissible"]["except_ranks"] == []


def test_explicit_exception_ranks():
    spec = DigitSetSpec.from_descriptor(
        CONSTANT3, {"except_ranks": [2, 5], "digits_at_exception": [0, 1]}
    )
    assert [spec.admissible_count(k) for k in range(1, 6)] == [3, 2, 3, 3, 2]
    assert count_cylinders(spec, 5) == 3 * 2 * 3 * 3 * 2


def test_from_descriptor_accepts_wrapped_form():
    wrapped = DigitSetSpec.from_descriptor(CONSTANT3, {"admissible": {"every_rank": [0, 2]}})
    assert wrapped.descriptor() == CANTOR.descriptor()
    assert DigitSetSpec.from_descriptor(CONSTANT3, {"admissible": "all"}).mode == "all"


# ---------------------------------------------------------------------------
# premeasure
# ---------------------------------------------------------------------------


def test_premeasure_at_critical_exponent_is_one():
    with working_dps(50):
        alpha = mp.ln(2) / mp.ln(3)
        for k in (1, 6, 20):
            assert abs(premeasure(CANTOR, alpha, k) - 1) <= eps_for(50)


def test_premeasure_above_critical_decays():
    with working_dps(50):
        values = [premeasure(CANTOR, mpf("0.7"), k) for k in range(1, 25)]
        assert all(b < a for a, b in zip(values, values[1:]))
        assert values[-1] < mpf("0.2")


def test_premeasure_full_set_at_one_is_total_length():
    with working_dps(50):
        for k in (1, 5, 12):
            assert abs(premeasure(FULL3, 1, k) - 1) <= eps_for(50)


def test_premeasure_monotone_away_from_slope():
    # checked on the example sets with rank-constant branching: above the
    # critical exponent the premeasure is non-increasing in k, below it
    # non-decreasing
    with working_dps(50):
        slope = mp.ln(2) / mp.ln(3)
        hi = [premeasure(CANTOR, slope + mpf("0.06"), k) for k in range(1, 16)]
        lo = [premeasure(CANTOR, slope - mpf("0.06"), k) for k in range(1, 16)]
        assert all(b <= a for a, b in zip(hi, hi[1:]))
        assert all(b >= a for a, b in zip(lo, lo[1:]))
        full_hi = [premeasure(FULL3, 1, k) for k in range(1, 16)]
        assert all(abs(b - a) <= eps_for(50) for a, b in zip(full_hi, full_hi[1:]))


def test_premeasure_domain():
    with pytest.raises(EstimatorError):
        premeasure(CANTOR, mpf("1.2"), 3)
    with pytest.raises(EstimatorError):
        premeasure(CANTOR, mpf("0.5"), 0)


# ---------------------------------------------------------------------------
# slope estimation
# ---------------------------------------------------------------------------


def test_box_dimension_cantor_exact():
    with working_dps(50):
        est = box_dimension_estimate(CANTOR, 12)
        assert abs(est.slope - mp.ln(2) / mp.ln(3)) <= mpf("1e-12")
        assert est.residual <= mpf("1e-30")


def test_box_dimension_constrained_set_near_one():
    with working_dps(50):
        est = box_dimension_estimate(v_digit_set(ARITH), 150)
        assert abs(est.slope - 1) < mpf("0.05")
        ratios = dict(est.ratios())
        assert ratios[9] == 1  # unconstrained through rank 9
        assert ratios[10] < 1  # forced digit bites at the spike


def test_box_dimension_single_digit_is_zero():
    with working_dps(50):
        single = DigitSetSpec.constant_digits(CONSTANT3, (1,))
        est = box_dimension_estimate(single, 12)
        assert abs(est.slope) <= eps_for(50)


def test_box_dimension_needs_k_max():
    with pytest.raises(EstimatorError):
        box_dimension_estimate(CANTOR, 3)


def test_slope_matches_spectrum_series_for_rank_constant_counts():
    # For sets whose admissible count is the same at every rank on a
    # constant base, ln N_k is exactly linear in ln(n_1...n_k), so the
    # regression and the support-count series agree to rounding.
    cases = [
        (3, (0, 2)),
        (4, (1, 2)),
        (5, (0, 2, 4)),
    ]
    with working_dps(50):
        for base, digits in cases:
            seq = make_sequence({"kind": "constant", "s": base})
            spec = DigitSetSpec.constant_digits(seq, digits)
            est = box_dimension_estimate(spec, 64)
            row = [
                Fraction(1, len(digits)) if d in digits else 0 for d in range(base)
            ]
            model = SymbolModel(seq, make_row_rule({"custom": [row]}), depth_cap=64)
            series = dim_spectrum_series(model, 64)
            assert abs(est.slope - series.points[-1][1]) <= mpf("1e-9")
