"""Log-domain helpers for non-negative reals against exact Fraction arithmetic."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from cantordim import LogReal, eps_for, log_sum, working_dps
from cantordim.logreal import LOG_ZERO, log_add, log_fraction, log_sub, log_xlog

fractions = st.fractions(min_value=Fraction(0), max_value=Fraction(1000), max_denominator=999)
positive_fractions = fractions.filter(lambda q: q != 0)
probabilities = st.fractions(min_value=Fraction(1, 999), max_value=Fraction(1), max_denominator=999)


def close_logs(a, b, tol) -> bool:
    if a == LOG_ZERO or b == LOG_ZERO:
        return a == b
    return abs(a - b) <= tol


@settings(max_examples=200, deadline=None)
@given(fractions, fractions)
def test_add_matches_fraction_arithmetic(a, b):
    with working_dps(50):
        got = log_add(log_fraction(a), log_fraction(b))
        assert close_logs(got, log_fraction(a + b), eps_for(50))


@settings(max_examples=200, deadline=None)
@given(fractions, fractions)
def test_sub_matches_fraction_arithmetic(a, b):
    a, b = max(a, b), min(a, b)
    with working_dps(50):
        got = log_sub(log_fraction(a), log_fraction(b))
        want = log_fraction(a - b)
        # ln(a - b) loses the digits that cancel: about ln(a / (a - b)) of them
        tol = eps_for(50) if a == b else eps_for(50) * a / (a - b)
        assert close_logs(got, want, tol)


@settings(max_examples=200, deadline=None)
@given(positive_fractions, positive_fractions)
def test_mul_div_match_fraction_arithmetic(a, b):
    # a product is a sum of logs, a quotient a difference
    with working_dps(50):
        tol = eps_for(50)
        assert close_logs(log_fraction(a) + log_fraction(b), log_fraction(a * b), tol)
        assert close_logs(log_fraction(a) - log_fraction(b), log_fraction(a / b), tol)


@settings(max_examples=200, deadline=None)
@given(probabilities, probabilities)
def test_xlog_matches_the_entropy_term(x, y):
    with working_dps(50):
        got = log_xlog(log_fraction(x), log_fraction(y))
    with working_dps(80):
        ln_y = mp.ln(mpf(y.numerator) / y.denominator)
        want = LOG_ZERO if y == 1 else mp.ln(-mpf(x.numerator) / x.denominator * ln_y)
    # ln(-ln y) turns an error e in ln y into a relative one, e / |ln y|
    tol = eps_for(50) * (1 + 1 / abs(ln_y)) if y != 1 else 0
    assert close_logs(got, want, tol)


def test_exact_cancellation_and_zero():
    with working_dps(50):
        x = log_fraction(Fraction(3, 7))
        assert log_sub(x, x) == LOG_ZERO
        assert log_sub(x, LOG_ZERO) == x
        assert log_add(x, LOG_ZERO) == x and log_add(LOG_ZERO, x) == x
        assert log_fraction(0) == LOG_ZERO == mpf("-inf")
        assert log_fraction(1) == 0
        assert log_xlog(LOG_ZERO, x) == LOG_ZERO and log_xlog(x, mpf(0)) == LOG_ZERO
        with pytest.raises(ValueError, match="b <= a"):
            log_sub(log_fraction(Fraction(1, 7)), x)
        with pytest.raises(ValueError, match="positive integer"):
            log_fraction(Fraction(-1, 2))


def test_absorb_keeps_dominant_term():
    with working_dps(50):
        one = mpf(0)
        for log_tiny in (
            mpf("-1e20"),
            -mp.ln(10) * (10**10),  # 10**-(10**10)
            -mp.ln(10) * mpf(10) ** 25,  # 10**-(10**25): its exp() could never be formed
        ):
            assert log_add(one, log_tiny) == one
            assert log_add(log_tiny, one) == one
            assert log_sub(one, log_tiny) == one
            assert log_sum([log_tiny, one, log_tiny]) == one


def test_to_mpf_guard():
    with working_dps(50):
        assert LogReal(mpf(200)).to_mpf() == mp.exp(200)
        assert LogReal(LOG_ZERO).to_mpf() == 0 and LogReal(LOG_ZERO).is_zero()
        assert not LogReal(mpf(-200)).is_zero()
        for log_mag in (mpf("1e7"), mpf("-1e7")):
            with pytest.raises(OverflowError):
                LogReal(log_mag).to_mpf()


def test_log_sum_is_left_fold():
    with working_dps(50):
        parts = [log_fraction(Fraction(1, 4)) for _ in range(4)]
        assert abs(log_sum(parts)) <= eps_for(50)
        assert log_sum(parts) == log_add(log_add(log_add(parts[0], parts[1]), parts[2]), parts[3])
        assert log_sum([]) == LOG_ZERO
