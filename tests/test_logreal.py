"""Log-domain scalar arithmetic against exact Fraction arithmetic."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from cantordim import LogReal, eps_for, log_sum, working_dps

nonzero_fractions = st.fractions(
    min_value=Fraction(-1000), max_value=Fraction(1000), max_denominator=999
).filter(lambda q: q != 0)


def close_logs(a: LogReal, b: LogReal, tol) -> bool:
    if a.sign != b.sign:
        return False
    if a.sign == 0:
        return True
    return abs(a.log() - b.log()) <= tol


@settings(max_examples=200, deadline=None)
@given(nonzero_fractions, nonzero_fractions)
def test_add_matches_fraction_arithmetic(a, b):
    with working_dps(50):
        got = LogReal.from_fraction(a) + LogReal.from_fraction(b)
        want = LogReal.from_fraction(a + b)
        assert close_logs(got, want, eps_for(50))


@settings(max_examples=200, deadline=None)
@given(nonzero_fractions, nonzero_fractions)
def test_mul_div_match_fraction_arithmetic(a, b):
    with working_dps(50):
        tol = eps_for(50)
        assert close_logs(
            LogReal.from_fraction(a) * LogReal.from_fraction(b),
            LogReal.from_fraction(a * b),
            tol,
        )
        assert close_logs(
            LogReal.from_fraction(a) / LogReal.from_fraction(b),
            LogReal.from_fraction(Fraction(a, b)),
            tol,
        )


def test_exact_cancellation_and_zero():
    with working_dps(50):
        x = LogReal.from_fraction(Fraction(3, 7))
        assert (x - x).is_zero()
        assert (x + LogReal.zero()) == x
        assert LogReal.zero().log() == mpf("-inf")


def test_absorb_keeps_dominant_term():
    with working_dps(50):
        one = LogReal.one()
        tiny = LogReal.from_log(mpf("-1e20"))
        assert (one + tiny) == one
        assert (one - tiny) == one
        # the same holds for magnitudes whose exp() could never be formed
        astronomical = LogReal.from_log(-mp.ln(10) * mpf(10) ** 25)
        assert (one + astronomical) == one


def test_huge_magnitude_products():
    with working_dps(50):
        down = LogReal.from_log(-mp.ln(10) * (10**10))  # 10**-(10**10)
        up = LogReal.from_log(mp.ln(10) * (10**10))
        assert abs((down * up).log()) < eps_for(50)
        assert (down * down).log() == -2 * mp.ln(10) * (10**10)


def test_to_mpf_guard():
    with working_dps(50):
        ok = LogReal.from_log(mpf(200))
        assert ok.to_mpf() == mp.exp(200)
        too_big = LogReal.from_log(mpf("1e7"))
        with pytest.raises(OverflowError):
            too_big.to_mpf()


def test_sign_rules():
    with working_dps(50):
        half = LogReal.from_fraction(Fraction(1, 2))
        assert (-half) * (-half) == half * half
        assert (-half) / half == -LogReal.one()
        with pytest.raises(ZeroDivisionError):
            half / LogReal.zero()
        assert repr(LogReal.zero()) == "LogReal(sign=0, log_mag=-inf)"


def test_equality_and_hash_follow_sign_and_log():
    with working_dps(50):
        x = LogReal.from_fraction(Fraction(3, 7))
        same = LogReal.from_log(x.log())
        assert x == same and hash(x) == hash(same)
        assert -x != x and -(-x) == x
        assert LogReal.zero() == LogReal.from_fraction(Fraction(0))
        assert LogReal.one() == LogReal.from_int(1)
        assert x != Fraction(3, 7)  # only another LogReal compares equal
        assert len({x, same, -x, LogReal.zero()}) == 3


def test_log_sum_is_left_fold():
    with working_dps(50):
        parts = [LogReal.from_fraction(Fraction(1, 4)) for _ in range(4)]
        assert abs(log_sum(parts).log()) <= eps_for(50)
