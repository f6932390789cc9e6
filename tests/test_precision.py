"""The cached integer logarithm behind every ln n_k and row entropy."""

import tracemalloc

from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from cantordim import SymbolModel, dim_measure_series, make_row_rule, make_sequence, working_dps
from cantordim.precision import _ln_int_cached, ln_int
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


def test_each_rank_reads_its_log_from_the_cache_once_more():
    # rank_logs computes ln n_k; the uniform row's entropy asks for it again
    # within the same rank, which hits at any cache size.
    ranks = 2 * 10**4
    model = SymbolModel(make_sequence({"kind": "arithmetic", "a1": 2, "d": 1}), make_row_rule("uniform"), ranks)
    _ln_int_cached.cache_clear()
    try:
        dim_measure_series(model, ranks)
        info = _ln_int_cached.cache_info()
    finally:
        _ln_int_cached.cache_clear()
    assert (info.misses, info.hits) == (ranks, ranks)
