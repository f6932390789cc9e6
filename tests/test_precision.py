"""The cached integer logarithm behind every ln n_k and row entropy, and
the formatter behind every reported number."""

import tracemalloc

from hypothesis import example, given, settings
from hypothesis import strategies as st
import pytest
from mpmath import mp, mpf
from mpmath.libmp import finf, fnan, fninf, from_man_exp, fzero, to_str

from cantordim import SymbolModel, dim_measure_series, make_row_rule, make_sequence, working_dps
from cantordim import logfeed, precision
from cantordim.precision import _ln_int_cached, ln_int, ln_int_raw, ln_int_uncached, mpf_text, remember_ln_int
from cantordim.sequences import rank_logs


@settings(max_examples=300, deadline=None)
@given(n=st.integers(min_value=1, max_value=10**80), dps=st.integers(min_value=15, max_value=120))
# integers wider than the working precision (53 bits at dps 15, 169 at
# dps 50) are rounded on entry, exactly as mpf(n) rounds them
@example(n=2**53 - 1, dps=15)
@example(n=2**53 + 1, dps=15)
@example(n=2**60 - 3, dps=15)
@example(n=2**169 + 1, dps=50)
@example(n=3**100, dps=50)
def test_ln_int_is_bit_identical_to_mp_ln(n, dps):
    with mp.workdps(dps):
        assert ln_int(n)._mpf_ == mp.ln(mpf(n))._mpf_


def test_cache_memory_stays_bounded_on_a_long_walk():
    # n_k = k + 1 never repeats, so an unbounded cache would keep one log
    # per rank; a bounded one keeps at most maxsize of them.
    seq = make_sequence({"kind": "arithmetic", "a1": 2, "d": 1})
    _ln_int_cached.cache_clear()
    tracemalloc.start()
    try:
        with working_dps(None):
            for _ in rank_logs(seq, 2 * 10**4):
                pass
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        _ln_int_cached.cache_clear()
    assert kept < 4 * 2**20


def test_evicted_logs_come_back_bit_for_bit():
    with working_dps(None):
        first = ln_int(10**30 + 7)
        for n in range(2, _ln_int_cached.cache_info().maxsize + 2):
            ln_int(n)
        misses = _ln_int_cached.cache_info().misses
        again = ln_int(10**30 + 7)
        assert _ln_int_cached.cache_info().misses == misses + 1  # it was evicted
    assert again._mpf_ == first._mpf_


def test_each_rank_reads_its_log_from_the_cache_once_more(monkeypatch):
    # rank_logs computes ln n_k; the uniform row's entropy asks for it again
    # within the same rank, which hits at any cache size.  (A walk with a
    # log helper reads a fed log from remember_ln_int instead: tests/test_logfeed.py.)
    ranks = 2 * 10**4
    monkeypatch.setattr(logfeed, "HELPER_MIN_RANKS", ranks + 1)
    model = SymbolModel(make_sequence({"kind": "arithmetic", "a1": 2, "d": 1}), make_row_rule("uniform"), ranks)
    _ln_int_cached.cache_clear()
    try:
        dim_measure_series(model, ranks)
        info = _ln_int_cached.cache_info()
    finally:
        _ln_int_cached.cache_clear()
    assert (info.misses, info.hits) == (ranks, ranks)


@pytest.mark.parametrize("dps", [None, 15, 80])
def test_working_dps_yields_the_report_digits_and_the_kernel_precision(monkeypatch, dps):
    monkeypatch.setenv(precision.ENV_PRECISION, "23")
    with working_dps(dps) as (used, prec, rnd):
        assert used == precision.resolve_dps(dps) == (23 if dps is None else dps)
        assert (prec, rnd) == precision.walk_precision()
        assert mp.dps == used + precision.GUARD_DPS


def test_working_dps_rejects_a_low_precision_before_its_block_runs():
    ran = []
    with pytest.raises(ValueError, match="^precision must be >= 15 significant digits, got 14$"):
        with working_dps(14):
            ran.append(True)
    assert ran == []


def test_a_remembered_log_is_read_under_its_own_key_only(monkeypatch):
    # A lookup of any other key while a log is held (say, in another
    # thread) goes to the cache, and the held log never enters it.
    prec, rnd = 200, "n"
    log3 = ln_int_uncached(3, prec, rnd)
    monkeypatch.setattr(precision, "_last", precision._last)  # restored after the test
    _ln_int_cached.cache_clear()
    try:
        assert remember_ln_int(3, prec, rnd, log3) is log3
        assert ln_int_raw(3, prec, rnd) is log3
        assert _ln_int_cached.cache_info().misses == 0
        for key in [(5, prec, rnd), (3, prec + 1, rnd), (3, prec, "f")]:
            assert ln_int_raw(*key) == ln_int_uncached(*key)
        assert _ln_int_cached.cache_info().misses == 3 and _ln_int_cached.cache_info().currsize == 3
        remember_ln_int(5, prec, rnd, ln_int_uncached(5, prec, rnd))  # replaces the log of 3
        assert ln_int_raw(3, prec, rnd) == log3 and _ln_int_cached.cache_info().misses == 4
    finally:
        _ln_int_cached.cache_clear()


# Raw values with both signs, 1 to 400 mantissa bits and binary exponents
# on both sides of libmp's +-3500 fixed-point range.
RAW_VALUES = st.builds(
    lambda sign, man, exp: from_man_exp(sign * man, exp),
    st.sampled_from([1, -1]),
    st.integers(min_value=1, max_value=400).flatmap(
        lambda bits: st.integers(min_value=2 ** (bits - 1), max_value=2**bits - 1)
    ),
    st.integers(min_value=-4000, max_value=3700),
)


def assert_formats_as_libmp(raw, n):
    x = mp.make_mpf(raw)
    assert mpf_text(x, n) == to_str(raw, n) == mp.nstr(x, n)


@settings(max_examples=2000, deadline=None)
@given(raw=RAW_VALUES, n=st.integers(min_value=15, max_value=120))
@example(raw=from_man_exp(1, 3500 - 1), n=50)  # the last exponent formatted inline
@example(raw=from_man_exp(1, 3500), n=50)  # the first one handed to to_str
@example(raw=from_man_exp(-1, -3500 - 1), n=50)
@example(raw=from_man_exp(1, -3500 - 2), n=50)
def test_mpf_text_is_byte_identical_to_to_str(raw, n):
    assert_formats_as_libmp(raw, n)


def near_one_below(n_nines):
    """(10**k - 1) / 10**k, rounded to 400 bits."""
    with mp.workprec(400):
        return (mpf(10**n_nines - 1) / 10**n_nines)._mpf_


@pytest.mark.parametrize("n", [15, 16, 17, 50, 51, 120])
@pytest.mark.parametrize(
    "raw",
    [
        from_man_exp(2**200 - 1, -200),  # 0.999... below 1
        from_man_exp(2**200 - 1, -190),  # 1023.999...
        from_man_exp(-(2**300 - 1), -300 - 40),  # -0.999... * 2**-40
        from_man_exp(2**400 - 1, 3000),  # 9s near the top of the inline range
        *(near_one_below(k) for k in (14, 15, 16, 17, 20, 49, 50, 51, 52, 60, 119, 120, 121)),
    ],
)
def test_mpf_text_rounds_up_through_a_run_of_nines(raw, n):
    assert_formats_as_libmp(raw, n)


@pytest.mark.parametrize("n", [15, 16, 17, 18, 30, 50, 120])
@pytest.mark.parametrize("lead", ["1", "1.5", "9.5", "9.99999999999999999999999999999", "-4"])
def test_mpf_text_at_the_fixed_and_scientific_boundaries(n, lead):
    # fixed notation only for a leading-digit exponent strictly between
    # min(-(n // 3), -5) and n
    low = min(-(n // 3), -5)
    with mp.workdps(n + 20):
        for e in (low - 1, low, low + 1, -1, 0, 1, n - 1, n, n + 1):
            assert_formats_as_libmp(mpf(f"{lead}e{e}")._mpf_, n)


@pytest.mark.parametrize("raw", [fzero, finf, fninf, fnan])
@pytest.mark.parametrize("n", [0, 1, 15, 50])
def test_mpf_text_of_zero_infinities_and_nan(raw, n):
    assert_formats_as_libmp(raw, n)


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_mpf_text_at_tiny_digit_counts(n):
    for raw in (from_man_exp(3, -1), from_man_exp(-19, -1), near_one_below(5), from_man_exp(7, 50)):
        assert_formats_as_libmp(raw, n)
