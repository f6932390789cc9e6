"""Cylinder counting and the count-slope estimator."""

import random
import re
from fractions import Fraction

import pytest
from mpmath import mp, mpf

from cantordim import (
    DigitSetSpec,
    EstimatorError,
    SequenceError,
    SymbolModel,
    box_dimension_estimate,
    count_cylinders,
    dim_spectrum_series,
    eps_for,
    make_row_rule,
    make_sequence,
    working_dps,
)

CONSTANT3 = make_sequence({"kind": "constant", "s": 3})
ARITH = make_sequence({"kind": "arithmetic", "a1": 2, "d": 1})

V = DigitSetSpec.with_exceptions(ARITH, (0,))  # digit 0 forced at power-of-ten ranks
CANTOR = DigitSetSpec.constant_digits(CONSTANT3, (0, 2))
FULL3 = DigitSetSpec.full(CONSTANT3)


# ---------------------------------------------------------------------------
# counting
# ---------------------------------------------------------------------------


def test_count_cantor_powers_of_two():
    assert [count_cylinders(CANTOR, k) for k in (1, 5, 12)] == [2, 2**5, 2**12]


def test_count_constrained_set_at_first_spike():
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
        DigitSetSpec.constant_digits(CONSTANT3, ()).admissible_count(1, 3)
    with pytest.raises(EstimatorError):
        DigitSetSpec.constant_digits(CONSTANT3, (0, 3)).admissible_count(1, 3)
    table = DigitSetSpec.from_table(CONSTANT3, [(0,), (0, 1)])
    assert count_cylinders(table, 2) == 2
    with pytest.raises(EstimatorError):
        count_cylinders(table, 3)


def test_v_admissible_digits_decide_membership():
    # membership in V is every digit lying in its rank's admissible set
    inside = tuple(0 if k == 10 else k - 1 for k in range(1, 12))
    outside = (0,) * 9 + (1,)
    assert all(a in V.admissible_digits(k) for k, a in enumerate(inside, 1))
    assert not all(a in V.admissible_digits(k) for k, a in enumerate(outside, 1))
    assert V.admissible_digits(10) == (0,)
    assert V.admissible_digits(9) == tuple(range(10))


SPECS_BY_MODE = {
    "all": FULL3,
    "every_rank": CANTOR,
    "exceptions": DigitSetSpec.with_exceptions(ARITH, (0, 2), exception_ranks=(2, 5)),
    "per_rank": DigitSetSpec.from_table(CONSTANT3, [(0,), (1, 2), (0, 1, 2), (2,)]),
}
# The descriptor each spec keeps, in the form it was read from.
ADMISSIBLE_BY_MODE = {
    "all": "all",
    "every_rank": {"every_rank": [0, 2]},
    "exceptions": {"except_ranks": [2, 5], "digits_at_exception": [0, 2]},
    "per_rank": {"per_rank": [[0], [1, 2], [0, 1, 2], [2]]},
}


@pytest.mark.parametrize("mode", sorted(SPECS_BY_MODE))
def test_admissible_count_is_the_size_of_admissible_digits(mode):
    spec = SPECS_BY_MODE[mode]
    assert spec.descriptor()["admissible"] == ADMISSIBLE_BY_MODE[mode]
    for k in range(1, 7):
        try:
            digits = spec.admissible_digits(k)
        except EstimatorError as exc:
            with pytest.raises(EstimatorError, match=f"^{re.escape(str(exc))}$"):
                spec.admissible_count(k, spec.seq.term(k))
            assert spec.max_rank() is not None and k > spec.max_rank()
            continue
        assert spec.admissible_count(k, spec.seq.term(k)) == len(digits)
        assert list(digits) == sorted(set(digits))
        assert all(0 <= a < spec.seq.term(k) for a in digits)


@pytest.mark.parametrize("query", [DigitSetSpec.admissible_digits, count_cylinders], ids=lambda f: f.__name__)
def test_term_is_read_before_the_table_cap(query):
    short = make_sequence({"kind": "custom", "table": [2, 3]})
    spec = DigitSetSpec.from_table(short, [(0,), (1,)])
    assert query(spec, 2) in (1, (1,))
    with pytest.raises(SequenceError, match=r"^rank 3 exceeds the 2-term custom table"):
        query(spec, 3)  # both rank 3 and the table cap fail; the term is read first


def test_descriptor_round_trip():
    for spec in (CANTOR, FULL3, V,
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
    assert [spec.admissible_count(k, 3) for k in range(1, 6)] == [3, 2, 3, 3, 2]
    assert count_cylinders(spec, 5) == 3 * 2 * 3 * 3 * 2


def test_from_descriptor_accepts_wrapped_form():
    wrapped = DigitSetSpec.from_descriptor(CONSTANT3, {"admissible": {"every_rank": [0, 2]}})
    assert wrapped.descriptor() == CANTOR.descriptor()
    assert wrapped == CANTOR and hash(wrapped) == hash(CANTOR)  # the dict descriptor is not hashed
    assert DigitSetSpec.from_descriptor(CONSTANT3, {"admissible": "all"}).descriptor()["admissible"] == "all"


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
        est = box_dimension_estimate(V, 150)
        assert abs(est.slope - 1) < mpf("0.05")
        ratios = dict(est.series)
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
            assert abs(est.slope - mpf(series.points[-1][1])) <= mpf("1e-9")
