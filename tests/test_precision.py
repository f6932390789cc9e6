"""The cached integer logarithm behind every ln n_k and row entropy."""

from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from cantordim.precision import ln_int


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
