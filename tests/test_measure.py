"""Digit-product measures: row rules, measures, CDF, entropies, dimension
series, and the dimension-preservation condition report.

The CDF oracle used here is an independent brute force: enumerate all
rank-k cylinders in exact Fraction arithmetic and sum the products of
Fraction probabilities for those lying left of x.
"""

import hashlib
import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from cantordim.cli import run

from cantordim import (
    DigitString,
    ModelError,
    SymbolModel,
    cdf,
    cylinder,
    cylinder_measure_log,
    SequenceError,
    dim_measure_series,
    dim_spectrum_series,
    dp_necessary_conditions,
    encode,
    eps_for,
    example1_model,
    example1_psi_model,
    iter_digit_strings,
    liminf_estimate,
    log_sum,
    make_row_rule,
    make_sequence,
    working_dps,
)
from cantordim import logreal as logreal_module
from cantordim import measure as measure_module
from cantordim.logreal import LOG_ZERO, LogReal
from cantordim.measure import (
    MEASURE_ENTROPY, SPECTRUM_COUNT, CustomRow, CustomRule, UniformRow, dimension_series,
)
from cantordim.precision import ln_int, mpf_text

CONSTANT2 = make_sequence({"kind": "constant", "s": 2})
CONSTANT3 = make_sequence({"kind": "constant", "s": 3})
ARITH = make_sequence({"kind": "arithmetic", "a1": 2, "d": 1})
GEO = make_sequence({"kind": "geometric", "b1": 2, "q": 2})
COUNTER = make_sequence({"kind": "counterexample"})

CANTOR_ROWS = {"custom": [["1/2", 0, "1/2"]]}


def uniform_model(seq, depth=300):
    return SymbolModel(seq, make_row_rule("uniform"), depth_cap=depth)


def cantor_model(depth=50):
    return SymbolModel(CONSTANT3, make_row_rule(CANTOR_ROWS), depth_cap=depth)


# ---------------------------------------------------------------------------
# rows and normalization
# ---------------------------------------------------------------------------


def test_row_normalization_structured_and_custom():
    with working_dps(50):
        tol = eps_for(50)
        rows = [
            uniform_model(ARITH).row(7),
            SymbolModel(CONSTANT3, make_row_rule("point_mass:1"), 10).row(3),
            cantor_model().row(2),
            example1_model(depth_cap=15).row(10),
        ]
        for row in rows:
            total = log_sum(row.logp(d) for d in range(min(row.n, 1000)))
            assert abs(total) <= tol


def test_custom_rows_must_normalize():
    with pytest.raises(ModelError):
        SymbolModel(CONSTANT3, make_row_rule({"custom": [["1/2", 0, "1/3"]]}), 10).row(1)
    # Every entry is a probability: 1 + 10**-20 is refused although the row
    # sums to 1 within the 10**-10 tolerance of 15 digits.
    for entries in (["100000000000000000001/100000000000000000000", 0], ["3/2", "-1/2"]):
        with working_dps(15), pytest.raises(ModelError, match=r"must be in \[0, 1\]"):
            SymbolModel(CONSTANT2, make_row_rule({"custom": [entries]}), 10).row(1)


def test_custom_row_length_must_match():
    with pytest.raises(ModelError):
        SymbolModel(CONSTANT2, make_row_rule(CANTOR_ROWS), 10).row(1)


def test_custom_rows_repeat_last():
    model = SymbolModel(
        CONSTANT2, make_row_rule({"custom": [["1/4", "3/4"], ["1/2", "1/2"]]}), 10
    )
    with working_dps(50):
        assert abs(model.row(5).logp(0) - mp.ln(mpf(1) / 2)) <= eps_for(50)


def test_point_mass_needs_digit_in_range():
    with pytest.raises(ModelError, match=r"^point mass digit 5 outside 0\.\.1 at rank 1$"):
        SymbolModel(CONSTANT2, make_row_rule("point_mass:5"), 10).row(1)


@pytest.mark.parametrize("text", ["1.5", "x", ""])
def test_point_mass_digit_must_be_an_integer(text):
    with pytest.raises(ModelError, match=f"^point_mass digit must be an integer, got '{text}'$"):
        make_row_rule(f"point_mass:{text}")


# ---------------------------------------------------------------------------
# cylinder measures
# ---------------------------------------------------------------------------


def test_measure_uniform_binary():
    with working_dps(50):
        m = uniform_model(CONSTANT2)
        got = cylinder_measure_log(m, DigitString(CONSTANT2, (1, 0, 1)))
        assert abs(got.log() - mp.ln(mpf(1) / 8)) <= eps_for(50)


def test_measure_point_mass_is_one():
    m = SymbolModel(CONSTANT3, make_row_rule("point_mass:1"), 10)
    got = cylinder_measure_log(m, DigitString(CONSTANT3, (1, 1, 1)))
    assert got.log() == 0


def test_measure_zero_on_excluded_digit():
    got = cylinder_measure_log(cantor_model(), DigitString(CONSTANT3, (0, 1)))
    assert got.is_zero()


def test_measure_spike_row_matches_direct_expression():
    # digits (1,...,1,0): uniform factors through rank 9, then the
    # vanishing digit-0 mass at rank 10
    with working_dps(50):
        m = example1_model(depth_cap=12)
        d = DigitString(ARITH, (1,) * 9 + (0,))
        got = cylinder_measure_log(m, d)
        want = -(mp.ln(mpf(math.factorial(10))) + (10**10) * mp.ln(10))
        assert abs(got.log() - want) <= abs(want) * eps_for(50)


def test_measure_rejects_foreign_digit_string():
    with pytest.raises(ModelError):
        cylinder_measure_log(uniform_model(CONSTANT2), DigitString(CONSTANT3, (1,)))


def test_additivity_parent_equals_sum_of_children():
    with working_dps(50):
        tol = eps_for(50)
        models = [uniform_model(CONSTANT3, 12), cantor_model(12), uniform_model(ARITH, 12)]
        rng = random.Random(7)
        for m in models:
            for _ in range(40):
                rank = rng.randrange(0, 6)
                digits = tuple(rng.randrange(m.seq.term(i)) for i in range(1, rank + 1))
                parent = DigitString(m.seq, digits)
                total = log_sum(
                    cylinder_measure_log(m, DigitString(m.seq, digits + (a,))).log()
                    for a in range(m.seq.term(rank + 1))
                )
                want = cylinder_measure_log(m, parent)
                if want.is_zero():
                    assert total == LOG_ZERO
                else:
                    assert abs(total - want.log()) <= tol


# ---------------------------------------------------------------------------
# CDF (brute-force Fraction oracle)
# ---------------------------------------------------------------------------


def brute_cdf(seq, prob_rows, x: Fraction, k: int) -> Fraction:
    """Exact mass of [0, x) restricted to whole rank-k cylinders left of the
    one containing x (the same truncation cdf() implements)."""
    total = Fraction(0)
    for d in iter_digit_strings(seq, k):
        c = cylinder(d)
        if c.right > x:
            break
        p = Fraction(1)
        for i, a in enumerate(d.digits):
            p *= prob_rows[i][a]
        total += p
    return total


def test_cdf_uniform_is_identity():
    with working_dps(50):
        m = uniform_model(CONSTANT2)
        for x in (Fraction(1, 3), Fraction(7, 11), Fraction(1, 2)):
            for k in (4, 8, 16):
                assert abs(cdf(m, x, k) - x) <= mpf(2) ** (-k)


def test_cdf_endpoints():
    for m in (uniform_model(CONSTANT2), cantor_model(), example1_model(depth_cap=12)):
        with working_dps(50):
            assert cdf(m, 0, 5) == 0
            assert cdf(m, 1, 5) == 1


def test_cdf_cantor_model_at_one_third():
    with working_dps(50):
        got = cdf(cantor_model(), Fraction(1, 3), 8)
        assert abs(got - Fraction(1, 2)) <= mpf(2) ** (-8)


def test_cdf_matches_brute_force_oracle():
    rows_c3 = [[Fraction(1, 2), Fraction(0), Fraction(1, 2)]] * 5
    rows_u2 = [[Fraction(1, 2), Fraction(1, 2)]] * 5
    rows_arith = [[Fraction(1, i + 2)] * (i + 2) for i in range(5)]
    cases = [
        (CONSTANT3, cantor_model(8), rows_c3),
        (CONSTANT2, uniform_model(CONSTANT2, 8), rows_u2),
        (ARITH, uniform_model(ARITH, 8), rows_arith),
    ]
    rng = random.Random(99)
    with working_dps(50):
        tol = eps_for(50)
        for seq, model, rows in cases:
            for _ in range(12):
                x = Fraction(rng.randrange(0, 720), 720)
                want = brute_cdf(seq, rows, x, 5)
                got = cdf(model, x, 5)
                assert abs(got - mpf(want.numerator) / want.denominator) <= tol


def test_image_length_identity():
    # the cdf increment across a cylinder equals the cylinder's measure
    rng = random.Random(4242)
    with working_dps(50):
        tol = mpf(10) ** (-(50 - 10))
        for m in (cantor_model(10), uniform_model(ARITH, 10)):
            for _ in range(60):
                rank = rng.randrange(1, 6)
                digits = tuple(rng.randrange(m.seq.term(i)) for i in range(1, rank + 1))
                d = DigitString(m.seq, digits)
                c = cylinder(d)
                increment = cdf(m, c.right, rank) - cdf(m, c.left, rank)
                mu = cylinder_measure_log(m, d)
                want = mpf(0) if mu.is_zero() else mu.to_mpf()
                assert abs(increment - want) <= tol


def test_cdf_monotone_on_grid():
    with working_dps(50):
        for m in (cantor_model(10), uniform_model(ARITH, 10), example1_model(depth_cap=10)):
            grid = sorted(
                {cylinder(d).left for d in iter_digit_strings(m.seq, 3)} | {Fraction(1)}
            )
            values = [cdf(m, x, 3) for x in grid]
            for a, b in zip(values, values[1:]):
                assert a <= b


def test_cdf_across_spike_rank_stabilizes_on_terminating_point():
    # 7/13 terminates at rank 12 in this expansion, so refining past it
    # changes nothing; the spike row's cumulative path is exercised at
    # rank 10 on the way
    with working_dps(50):
        m = example1_model(depth_cap=16)
        x = Fraction(7, 13)
        v12 = cdf(m, x, 12)
        v16 = cdf(m, x, 16)
        assert v12 == v16
        assert cdf(m, x, 10) < v12  # still refining before termination


def test_cdf_with_huge_branching_rank():
    # uniform rows on the counterexample sequence are never materialized,
    # so the 10**10-way rank is queryable
    with working_dps(50):
        m = uniform_model(COUNTER, 12)
        x = Fraction(7, 13)
        got = cdf(m, x, 12)
        assert abs(got - mpf(7) / 13) <= mpf(2) ** (-9)


def full_walk_cdf(model, x, k, dps):
    """cdf's rank walk without the early stop: it only ends at rank k or at
    a zero prefix."""
    with working_dps(dps):
        if x == 1:
            return mpf(1)
        floor_log = -(mp.dps + 2) * mp.ln(10)
        acc = mpf(0)
        prefix = mpf(0)
        for i, a in enumerate(encode(x, model.seq, k).digits, 1):
            term = prefix + model.row(i).cum(a)
            if term > floor_log:
                acc += mp.exp(term)
            prefix += model.row(i).logp(a)
            if prefix == LOG_ZERO:
                break
        return acc


X40 = Fraction(3141592653589793238462643383279502884197, 10**40 + 39)


def _custom_cases(dps):
    # Rows summing to 1 + 10**(3 - dps), inside the tolerance 10**(5 - dps)
    # that CustomRule grants at this precision.
    over = Fraction(1, 10 ** (dps - 3))
    return [
        (CONSTANT3, {"custom": [["1/2", "1/4", "1/4"], ["1/2", 0, "1/2"]]}, Fraction(1, 4), 3000),
        (CONSTANT3, {"custom": [["1/2", "1/4", "1/4"], ["1/2", 0, "1/2"]]}, Fraction(5, 12), 3000),
        (CONSTANT3, {"custom": [[str(Fraction(1, 2) + over), "1/4", "1/4"]]}, X40, 3000),
        (CONSTANT2, {"custom": [[str(Fraction(999, 1000) + over), "1/1000"]]}, Fraction(1, 7), 3000),
    ]


CDF_CASES = [
    (ARITH, "uniform", X40, 3000),
    (COUNTER, "uniform", X40, 3000),
    (CONSTANT3, "uniform", X40, 3000),
    (ARITH, "example1", X40, 1000),
    (ARITH, "example1", Fraction(1, 2) + Fraction(1, 2 * math.factorial(10)), 1000),  # digit 1 at rank 10
    (ARITH, "example1", Fraction(1, 2), 1000),  # digit 0 from rank 2 on: the spike at rank 10
    (CONSTANT3, "point_mass:1", Fraction(1, 2), 3000),  # prefix 1 at every rank
    (CONSTANT3, "point_mass:0", Fraction(1, 2), 3000),  # zero prefix at rank 1
    (ARITH, "uniform", Fraction(0), 3000),
    (ARITH, "uniform", Fraction(1), 3000),
]


@pytest.mark.parametrize("dps", [15, 50, 100])
def test_cdf_early_stop_equals_full_walk(dps):
    for seq, rows, x, k in CDF_CASES + _custom_cases(dps):
        model = SymbolModel(seq, make_row_rule(rows), depth_cap=k)
        got = cdf(model, x, k, dps=dps)
        assert got == full_walk_cdf(model, x, k, dps), (seq, rows, x, k)


def test_cdf_keeps_logreals_overflow_text(monkeypatch):
    # The limit is ln 10**-(10**6 / ln 10), below the skip floor at any
    # precision short of 434,000 digits; lowered here, a short walk over
    # uniform rows passes it.
    monkeypatch.setattr(measure_module, "LINEAR_LOG_LIMIT", mpf(20))
    with pytest.raises(OverflowError) as info:
        cdf(uniform_model(CONSTANT3, 100), X40, 100, dps=15)
    with working_dps(15):
        term = mpf(str(info.value).split()[2])
        assert -30 < term < -20
        monkeypatch.setattr(logreal_module, "LINEAR_LOG_LIMIT", mpf(20))
        with pytest.raises(OverflowError, match=f"^{re.escape(str(info.value))}$"):
            LogReal(term).to_mpf()


# ---------------------------------------------------------------------------
# entropy
# ---------------------------------------------------------------------------


def test_entropy_uniform_is_log_n():
    with working_dps(50):
        m = uniform_model(ARITH)
        for k in (1, 9, 41):
            assert m.row(k).entropy() == mp.ln(k + 1)


def test_entropy_point_mass_is_zero():
    m = SymbolModel(CONSTANT3, make_row_rule("point_mass:0"), 10)
    with working_dps(50):
        assert m.row(4).entropy() == 0


def test_entropy_spike_row_vs_direct_oracle():
    # independent path: evaluate -(p0 ln p0 + (1-p0) ln((1-p0)/10)) in raw mpf
    with working_dps(50):
        m = example1_model(depth_cap=12)
        got = m.row(10).entropy()
        p0 = mp.power(10, -(10**10))
        want = -(p0 * mp.ln(p0) + (1 - p0) * mp.ln((1 - p0) / 10))
        assert abs(got - want) <= eps_for(50)
        assert abs(got - mp.ln(10)) < mpf("1e-40")  # asymptotically ln k at k = 10


def test_entropy_bounded_by_log_n_with_equality_iff_uniform():
    with working_dps(50):
        skew = SymbolModel(
            CONSTANT3, make_row_rule({"custom": [["2/3", "1/6", "1/6"]]}), 10
        )
        h = skew.row(2).entropy()
        assert 0 <= h < mp.ln(3)
        assert uniform_model(CONSTANT3, 10).row(2).entropy() == mp.ln(3)


# ---------------------------------------------------------------------------
# dimension series
# ---------------------------------------------------------------------------


def test_dim_measure_uniform_is_one_everywhere():
    with working_dps(50):
        tol = eps_for(50)
        for seq in (CONSTANT2, CONSTANT3, ARITH, GEO, COUNTER):
            series = dim_measure_series(uniform_model(seq, 60), 60)
            assert all(abs(mpf(v) - 1) <= tol for _, v in series.points)


def test_dim_measure_point_mass_is_zero():
    m = SymbolModel(CONSTANT3, make_row_rule("point_mass:2"), 40)
    series = dim_measure_series(m, 40)
    assert all(text == "0.0" for _, text in series.points)  # exactly 0


def test_dim_measure_example1_rises_toward_one():
    with working_dps(50):
        series = dim_measure_series(example1_model(depth_cap=100), 100)
        values = {k: mpf(text) for k, text in series.points}
        assert abs(values[100] - 1) < mpf("0.05")
        for k in range(11, 100):
            assert values[k + 1] > values[k] or k + 1 == 100
        assert values[100] < values[99]  # small drop at the spike rank


def test_dim_series_bounds_and_precondition():
    with working_dps(50):
        tol = eps_for(50)
        for series in (
            dim_measure_series(cantor_model(40), 40),
            dim_spectrum_series(example1_psi_model(depth_cap=40), 40),
        ):
            assert all(-tol <= mpf(v) <= 1 + tol for _, v in series.points)
            assert series.precondition_partial > 0


def test_dim_spectrum_cantor_constant():
    with working_dps(50):
        series = dim_spectrum_series(cantor_model(30), 30)
        want = mp.ln(2) / mp.ln(3)
        assert all(abs(mpf(v) - want) <= mpf("1e-12") for _, v in series.points)


def test_dim_spectrum_fully_positive_is_one():
    with working_dps(50):
        series = dim_spectrum_series(uniform_model(ARITH, 30), 30)
        assert all(abs(mpf(v) - 1) <= eps_for(50) for _, v in series.points)


def test_dim_spectrum_companion_model_rises_between_spikes():
    with working_dps(50):
        series = dim_spectrum_series(example1_psi_model(depth_cap=100), 100)
        values = {k: mpf(text) for k, text in series.points}
        assert values[100] < 1
        assert abs(values[100] - 1) < mpf("0.05")
        for k in range(11, 99):
            assert values[k + 1] > values[k]
        assert values[10] < values[9] and values[100] < values[99]


# ---------------------------------------------------------------------------
# liminf estimate
# ---------------------------------------------------------------------------


def test_liminf_constant_series():
    with working_dps(50):
        (series,) = dimension_series([(cantor_model(30), SPECTRUM_COUNT)], 30, liminf=True)
        est = liminf_estimate(series, 10)
        assert abs(est.estimate - mp.ln(2) / mp.ln(3)) <= mpf("1e-12")


def test_liminf_monotone_series_takes_window_start():
    (series,) = dimension_series([(example1_model(depth_cap=60), MEASURE_ENTROPY)], 60, liminf=True)
    est = liminf_estimate(series, 5)
    # rising between spikes: minimum of the last 5 points is the first
    assert mpf_text(est.estimate, series.dps) == series.points[-5][1]
    # the lower envelope is the suffix minimum, kept as runs of strictly
    # rising values that end at the last rank; its JSON has every rank
    ends = [k for k, _ in est.lower_envelope]
    env = [v for _, v in est.lower_envelope]
    assert all(a < b for a, b in zip(env, env[1:]))
    assert all(a < b for a, b in zip(ends, ends[1:])) and ends[-1] == 60
    assert [k for k, _ in est.to_jsonable()["lower_envelope"]] == list(range(1, 61))


def test_liminf_window_domain():
    (series,) = dimension_series([(cantor_model(10), MEASURE_ENTROPY)], 10, liminf=True)
    with pytest.raises(ModelError, match="window 11 larger than series of length 10"):
        liminf_estimate(series, 11)
    with pytest.raises(ModelError, match="window must be >= 1"):
        liminf_estimate(series, 0)
    # a series built without the envelope rider holds no value to take it from
    with pytest.raises(ModelError, match="was built without its envelope"):
        liminf_estimate(dim_measure_series(cantor_model(10), 10), 5)


# ---------------------------------------------------------------------------
# dimension-preservation necessary conditions
# ---------------------------------------------------------------------------


def test_dp_uniform_bounded_hypotheses_met():
    rep = dp_necessary_conditions(uniform_model(CONSTANT2, 120), 100)
    assert rep.verdict == "hypotheses_met_dp_iff_dim1"
    assert rep.all_positive and rep.dim_ok
    assert rep.sequence_bounded is True
    with working_dps(50):
        assert abs(rep.dim_estimate - 1) <= eps_for(50)


def test_dp_example1_necessary_only():
    rep = dp_necessary_conditions(example1_model(depth_cap=100), 100)
    assert rep.verdict == "necessary_conditions_met_only"
    assert rep.all_positive and rep.dim_ok
    assert rep.sequence_bounded is False


def test_dp_zero_probability_violates():
    rep = dp_necessary_conditions(cantor_model(60), 50)
    assert rep.verdict == "necessary_conditions_violated"
    assert rep.all_positive is False
    assert rep.first_zero == (1, 1)


# ---------------------------------------------------------------------------
# the shared rank walk
# ---------------------------------------------------------------------------

TAILLESS = make_sequence({"kind": "custom", "table": [2, 3, 5]})
THIRDS = ["1/3", "1/3", "1/3"]
# (sequence, rows, exception type, message); the messages are the ones the
# cached-row path gave, so walking rows changes no error a user sees
WALK_ERRORS = [
    (TAILLESS, "uniform", SequenceError, "rank 4 exceeds the 3-term custom table (no tail rule)"),
    (CONSTANT3, "point_mass:5", ModelError, "point mass digit 5 outside 0..2 at rank 1"),
    (CONSTANT3, {"custom": [THIRDS, ["1/2", "1/2"]]}, ModelError,
     "custom row for rank 2 has 2 entries, expected 3"),
    # the missing term is reported before the row of the wrong length
    (make_sequence({"kind": "custom", "table": [3, 3]}), {"custom": [THIRDS, THIRDS, ["1/2", "1/2"]]},
     SequenceError, "rank 3 exceeds the 2-term custom table (no tail rule)"),
    # a zero entry ahead of the bad row does not stop the walk early
    (CONSTANT3, {"custom": [[0, "1/2", "1/2"], THIRDS, ["1/2", "1/2"]]}, ModelError,
     "custom row for rank 3 has 2 entries, expected 3"),
]


@pytest.mark.parametrize("fn", [dim_measure_series, dim_spectrum_series, dp_necessary_conditions])
@pytest.mark.parametrize("seq, rows, exc, message", WALK_ERRORS)
def test_walk_errors_keep_type_and_text(fn, seq, rows, exc, message):
    model = SymbolModel(seq, make_row_rule(rows), depth_cap=10)
    with pytest.raises(exc) as info:
        fn(model, 5)
    assert type(info.value) is exc
    assert str(info.value) == message


def test_dp_report_text_does_not_depend_on_the_callers_precision():
    rep = dp_necessary_conditions(example1_model(depth_cap=200), 200, dps=50)
    outside = rep.to_jsonable()
    assert outside["min_log10_probability"] == "-1.0e+100"  # -10**100 exactly
    for dps in (15, 50, 100):
        with working_dps(dps):
            assert rep.to_jsonable() == outside


@pytest.mark.parametrize("rows", [
    "uniform", "example1", "point_mass:0", CANTOR_ROWS,
    {"custom": [["1/4", "1/4", "1/2"], ["1/8", "3/8", "1/2"], [0, "1/2", "1/2"], ["1/100", "49/100", "1/2"]]},
])
def test_dp_scan_matches_a_row_by_row_oracle(rows):
    model = SymbolModel(CONSTANT3 if isinstance(rows, dict) else ARITH, make_row_rule(rows), depth_cap=120)
    rep = dp_necessary_conditions(model, 110, dps=30)
    with working_dps(30):
        first_zero = min_log = None
        for k in range(1, 111):  # condition (a): stop at the first zero entry
            row = model.row(k)
            if row.support_count() < row.n:
                first_zero = (k, row.first_zero_digit())
                break
            m = row.min_positive_log()
            min_log = m if min_log is None else min(min_log, m)
    assert rep.first_zero == first_zero
    assert rep.all_positive is (first_zero is None)
    assert rep.min_log_probability == min_log


@pytest.mark.parametrize("rows", ["uniform", "point_mass:0", "example1", "example1_psi", CANTOR_ROWS])
def test_row_and_walk_build_the_same_rows_and_keep_none(rows):
    model = SymbolModel(CONSTANT3 if rows == CANTOR_ROWS else ARITH, make_row_rule(rows), depth_cap=120)
    with working_dps(30):
        for k, _, _, _, walked in model.walk(110):
            row = model.row(k)
            assert type(row) is type(walked) and row.n == walked.n
            assert row.entropy() == walked.entropy()
            assert row.support_count() == walked.support_count()
            assert row.first_zero_digit() == walked.first_zero_digit()
            for digit in {0, 1, row.n - 1}:
                assert row.logp(digit) == walked.logp(digit)
                assert row.cum(digit) == walked.cum(digit)
            assert model.row(k) is not model.row(k)


def test_one_walk_for_two_models_equals_two_walks():
    for dps in (15, 50):
        e1, psi = example1_model(depth_cap=150), example1_psi_model(depth_cap=150)
        scanned = []
        both = dimension_series(
            [(e1, MEASURE_ENTROPY), (psi, SPECTRUM_COUNT)], 150, dps,
            lambda k, log_prefix, row: scanned.append((k, row.n)),
        )
        assert both == [dim_measure_series(e1, 150, dps), dim_spectrum_series(psi, 150, dps)]
        assert scanned == [(k, k + 1) for k in range(1, 151)]
    with pytest.raises(ModelError, match="need one sequence"):
        dimension_series([(e1, MEASURE_ENTROPY), (uniform_model(CONSTANT3), SPECTRUM_COUNT)], 10)
    with pytest.raises(ModelError, match=r"k_max 151 outside 1\.\.depth_cap=150"):
        dimension_series([(uniform_model(ARITH), MEASURE_ENTROPY), (psi, SPECTRUM_COUNT)], 151)


def test_walk_checks_the_depth_cap_after_the_rank_log():
    with pytest.raises(ModelError, match=r"^rank 5 outside 1\.\.depth_cap=4$"):
        list(uniform_model(CONSTANT3, depth=4).walk(6))
    # the missing term of a tail-less table is reported first
    with pytest.raises(SequenceError, match="rank 4 exceeds"):
        list(uniform_model(TAILLESS, depth=3).walk(6))
    # the term 9/2 of geometric(2, 3/2) is read before its log and the cap
    halves = make_sequence({"kind": "geometric", "b1": 2, "q": "3/2"})
    with pytest.raises(SequenceError, match=r"^term\(3\) = 9/2 is not an integer$"):
        list(uniform_model(halves, depth=2).walk(3))
    with pytest.raises(SequenceError, match=r"^term\(3\) = 9/2 is not an integer$"):
        list(uniform_model(halves, depth=3).walk(3))


def test_uniform_row_builds_its_log_probability_once_on_demand():
    with working_dps(50):
        row = UniformRow(7)
        assert row._logp is None
        p = row.logp(3)
        assert p == -ln_int(7)
        assert row.logp(6) is p
        assert row.entropy() == ln_int(7)


# ---------------------------------------------------------------------------
# descriptors
# ---------------------------------------------------------------------------


def test_make_row_rule_rejects_unknown():
    with pytest.raises(ModelError):
        make_row_rule("bogus")
    with pytest.raises(ModelError):
        make_row_rule({"something": 1})


@pytest.mark.parametrize("name", ["example1", "example1:tower", "example1_psi"])
def test_spiked_rule_names_round_trip(name):
    rule = make_row_rule(name)
    assert rule.descriptor() == name
    assert rule.separated_from_zero(ARITH) is False
    # uniform off the power-of-ten ranks
    assert type(rule.row(9, 10)) is type(rule.row(11, 12)) is UniformRow


def test_uniform_rule_is_separated_from_zero_on_bounded_sequences_only():
    rule = make_row_rule("uniform")
    assert rule.separated_from_zero(CONSTANT3) is True
    assert rule.separated_from_zero(ARITH) is False


def test_point_mass_digit_must_not_be_negative():
    with pytest.raises(ModelError, match=r"^point mass digit must be >= 0, got -1$"):
        make_row_rule("point_mass:-1")


def test_point_mass_descriptor_is_normalized():
    rule = make_row_rule("point_mass: 1")
    assert rule.descriptor() == "point_mass:1"
    assert rule.separated_from_zero(CONSTANT3) is False


@pytest.mark.parametrize("name", ["uniform", "example1", "example1:tower", "example1_psi", "point_mass:0",
                                  "point_mass:2"])
def test_built_in_rules_round_trip_through_their_descriptors(name):
    rule = make_row_rule(name)
    again = make_row_rule(rule.descriptor())
    assert again.descriptor() == rule.descriptor() == name
    for seq in (CONSTANT3, ARITH):
        assert again.separated_from_zero(seq) is rule.separated_from_zero(seq)
    with working_dps(30):
        for k in (1, 10):
            assert again.row(k, 3).logp(0) == rule.row(k, 3).logp(0)


@pytest.mark.parametrize("rows, rows_json, message", [
    ([[True, 0, 0]], "[[true,0,0]]", "custom row 1 entry 1 must be a rational number, got True"),
    ([[float("inf"), 0, 0]], "[[Infinity,0,0]]", "custom row 1 entry 1 must be a rational number, got inf"),
    ([["1/3"] * 3, ["1/2", None, "1/2"]], '[["1/3","1/3","1/3"],["1/2",null,"1/2"]]',
     "custom row 2 entry 2 must be a rational number, got None"),
    ([5], "[5]", "custom row 1 must be an array of entries, got 5"),
    ([], "[]", "custom rows need at least one row"),
    # a string row or a mapping of rows is not read one character or key at a time
    (["01"], '["01"]', "custom row 1 must be an array of entries, got '01'"),
    ({"a": 1}, '{"a":1}', "custom rows must be an array of rows, got {'a': 1}"),
])
def test_custom_rule_reads_every_entry_when_built(capsys, rows, rows_json, message):
    # The library and the CLI share the one check in CustomRule.__init__,
    # which refuses a boolean or an infinity as a probability and names the
    # entry.
    with pytest.raises(ModelError) as info:
        CustomRule(rows)
    assert str(info.value) == message
    argv = ["dim-measure", "--seq", '{"kind":"constant","s":3}', "--rows", '{"custom":%s}' % rows_json,
            "--k-max", "3"]
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"


def test_custom_rule_descriptor_is_a_copy():
    rule = make_row_rule({"custom": [["1/2", "1/2"]]})
    rule.descriptor()["custom"][0].append(9)
    assert rule.descriptor() == {"custom": [["1/2", "1/2"]]}


def test_custom_rule_keeps_its_entries_as_exact_rationals():
    rule = CustomRule([[0.5, "1/4", Fraction(1, 4)], [1, 0, "0"]])
    assert rule.rows == [[Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)], [1, 0, 0]]
    assert rule.descriptor() == {"custom": [["1/2", "1/4", "1/4"], [1, 0, 0]]}
    assert rule.separated_from_zero(CONSTANT3) is False
    assert CustomRule([["1/2", "1/4", "1/4"]]).separated_from_zero(CONSTANT3) is True
    with working_dps(30):
        row = SymbolModel(CONSTANT3, rule, 5).row(2)
        assert row.logp(0) == 0 and row.logp(1) == LOG_ZERO


# ---------------------------------------------------------------------------
# rows pinned bit for bit, and custom rows against exact arithmetic
# ---------------------------------------------------------------------------

PINNED_ROW_CASES = [
    (ARITH, "uniform"),
    (ARITH, "point_mass:1"),
    (ARITH, "example1"),  # spike rows at ranks 10 and 100
    (ARITH, "example1:tower"),
    (ARITH, "example1_psi"),
    (CONSTANT3, {"custom": [["1/2", 0, "1/2"], ["1/6", "1/3", "1/2"]]}),
]


def test_rows_keep_their_bits():
    # One sha256 over the raw bits of every row query of each built-in rule
    # and a custom table with a zero entry, at ranks 1..120 and 15, 50 and
    # 80 digits, as recorded before the rows moved from LogReal to plain logs.
    digest = hashlib.sha256()
    for dps in (15, 50, 80):
        for seq, rows in PINNED_ROW_CASES:
            rule = make_row_rule(rows)
            with working_dps(dps):
                for k, n in enumerate(seq.iter_terms(120), 1):
                    row = rule.row(k, n)
                    values = [v for d in range(n) for v in (row.logp(d), row.cum(d))]
                    values += [row.entropy(), row.min_positive_log()]
                    for value in values:
                        digest.update(repr(value._mpf_).encode())
    assert digest.hexdigest() == "14f269d260514445503b6ab1e38888dbe8355dbd3a69602e7b2cb25044d08a14"


@settings(max_examples=100, deadline=None)
@given(
    weights=st.lists(st.integers(0, 10**30), min_size=1, max_size=8).filter(any),
    dps=st.sampled_from([15, 50, 80]),
)
def test_custom_row_entropy_and_cum_match_exact_arithmetic(weights, dps):
    total = sum(weights)
    probs = [Fraction(w, total) for w in weights]
    with working_dps(dps):
        row = CustomRow(probs, eps_for(dps))
        entropy = row.entropy()
        cums = [row.cum(d) for d in range(len(probs))]
    with working_dps(100):
        want = -sum(mpf(p.numerator) / p.denominator * mp.ln(mpf(p.numerator) / p.denominator)
                    for p in probs if p)
        assert abs(entropy - want) <= eps_for(dps)
        for d, got in enumerate(cums):
            below = sum(probs[:d], Fraction(0))
            if below == 0:
                assert got == LOG_ZERO
            else:
                assert abs(got - mp.ln(mpf(below.numerator) / below.denominator)) <= eps_for(dps)
