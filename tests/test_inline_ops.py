"""The kernel's inline round-to-nearest add, sub, mul and div
(``precision``) against libmp's own functions: the same raw tuple on every
operand pair, and libmp's own result on every case handed to it."""

import operator

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import libmp
from mpmath.libmp import finf, fnan, fninf, fone, fzero, from_man_exp

from cantordim import precision

OPS = ["mpf_add", "mpf_sub", "mpf_mul", "mpf_div"]
PRECS = st.sampled_from([53, 203, 236])


def raw(sign, man, exp):
    return from_man_exp(-man if sign else man, exp)


@st.composite
def values(draw, prec):
    """A raw value with 1 to 3*prec mantissa bits, some of them 2**b - 1,
    an exponent within +-700 and either sign."""
    bits = draw(st.integers(min_value=1, max_value=3 * prec))
    man = draw(st.one_of(st.just(2**bits - 1), st.integers(min_value=2 ** (bits - 1), max_value=2**bits - 1)))
    return raw(draw(st.integers(0, 1)), man | 1, draw(st.integers(min_value=-700, max_value=700)))


@st.composite
def pairs(draw):
    """(s, t, prec): independent values, values with equal exponents and
    mantissas a few units apart (cancellation, and carries when one is
    2**b - 1), or values whose exponents lie over 100 bits apart."""
    prec = draw(PRECS)
    s = draw(values(prec))
    kind = draw(st.sampled_from(["independent", "near", "gap"]))
    if kind == "independent":
        t = draw(values(prec))
    elif kind == "near":
        man = s[1] + draw(st.integers(min_value=-3, max_value=3))
        t = raw(draw(st.integers(0, 1)), max(man, 1), s[2])
    else:
        gap = draw(st.integers(min_value=95, max_value=400)) * draw(st.sampled_from([1, -1]))
        t = raw(draw(st.integers(0, 1)), draw(st.integers(min_value=1, max_value=2**80)) | 1, s[2] + gap)
    return (t, s, prec) if draw(st.booleans()) else (s, t, prec)


def assert_as_libmp(op, *args):
    """``op`` of ``precision`` returns what libmp's returns, or raises as it does."""
    try:
        expected = getattr(libmp, op)(*args)
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            getattr(precision, op)(*args)
        return
    assert getattr(precision, op)(*args) == expected


@settings(max_examples=1500, deadline=None)
@given(pair=pairs())
# Ties at the rounding bit, which half-even and half-up round apart: a sum
# and two products of 54 bits ending in binary 01; a product ending in
# binary 11, which half-even and half-down round apart; and a carry to a
# power of two.
@example(pair=(raw(0, 2**53 - 1, 0), raw(0, 1, 1), 53))
@example(pair=(raw(0, 2**53 - 1, 1), raw(0, 1, 0), 53))
@example(pair=(raw(0, 5, 0), raw(0, 2**51 + 1, 0), 53))
@example(pair=(raw(0, 3, 0), raw(0, 2**52 + 1, 0), 53))
@example(pair=(raw(1, 2**27 - 1, -5), raw(0, 2**27 - 1, 9), 53))
@example(pair=(raw(0, 2**203 - 1, 700), raw(1, 2**203 - 1, 700), 203))  # cancels to zero
def test_inline_ops_return_libmps_tuple(pair):
    s, t, prec = pair
    for op in OPS:
        assert_as_libmp(op, s, t, prec, "n")


@settings(max_examples=300, deadline=None)
@given(pair=pairs(), rnd=st.sampled_from(["f", "c", "d", "u"]))
def test_other_rounding_modes_are_libmps(pair, rnd):
    s, t, prec = pair
    for op in OPS:
        assert_as_libmp(op, s, t, prec, rnd)


@settings(max_examples=200, deadline=None)
@given(pair=pairs())
def test_prec_zero_is_libmps(pair):
    # prec 0 asks for the exact result.  (libmp's mpf_div needs a
    # precision: at 0 it may loop for ever, so ours refuses it.)
    s, t, _ = pair
    for op in ["mpf_add", "mpf_sub", "mpf_mul"]:
        assert_as_libmp(op, s, t, 0, "n")


@pytest.mark.parametrize("prec", [0, -1])
def test_div_square_and_round_fixed_refuse_prec_below_one(prec):
    x = raw(0, 2**60 + 1, 0)  # a quotient that rounds to no bits at prec 0
    for call in [lambda: precision.mpf_div(x, raw(0, 3, 0), prec, "n"),
                 lambda: precision.round_fixed(2**61 + 3, prec)]:
        with pytest.raises(ValueError, match="prec >= 1"):
            call()


SPECIALS = [fzero, finf, fninf, fnan]


@pytest.mark.parametrize("special", SPECIALS, ids=["zero", "+inf", "-inf", "nan"])
@pytest.mark.parametrize("other", SPECIALS + [fone, raw(1, 12345, -40)], ids=str)
def test_zero_inf_and_nan_operands_are_libmps(special, other):
    for s, t in [(special, other), (other, special)]:
        for op in OPS:
            assert_as_libmp(op, s, t, 53, "n")


@pytest.mark.parametrize("q, t", [
    (raw(0, 5, 3), raw(1, 3, -2)),
    (raw(1, 2**300 + 1, 0), raw(0, 7, 9)),  # a quotient wider than prec, rounded
    (raw(0, 2**52 + 1, 0), raw(0, 2**52 - 1, 4)),
    (raw(0, 3, 0), fone),  # a power-of-two divisor
    (raw(0, 2**60 - 1, -3), raw(0, 1, 77)),
])
@pytest.mark.parametrize("prec", [53, 203, 236])
def test_exact_quotients_are_libmps(q, t, prec):
    s = libmp.mpf_mul(q, t)  # exact: no prec
    assert_as_libmp("mpf_div", s, t, prec, "n")
    assert precision.mpf_div(s, t, 400, "n") == q


def test_the_kernel_ops_are_the_mpf_operators():
    # The oracle the walks are tested against: mpf arithmetic itself.
    from mpmath import mp, mpf

    with mp.workdps(50):
        x, y = mpf(2) / 3, -mpf(10) ** 20 / 7
        prec, rnd = precision.walk_precision()
        for op, fn in [(operator.add, "mpf_add"), (operator.sub, "mpf_sub"),
                       (operator.mul, "mpf_mul"), (operator.truediv, "mpf_div")]:
            assert op(x, y)._mpf_ == getattr(precision, fn)(x._mpf_, y._mpf_, prec, rnd)
        assert (x**2)._mpf_ == precision.mpf_mul(x._mpf_, x._mpf_, prec, rnd)


def fixed_as_nearest(v, prec):
    """The value of ``_nearest`` and of libmp's normalize at rnd 'n' on the integer v, as an integer."""
    if not v:
        return 0
    sign, man = int(v < 0), abs(v)
    ours = precision._nearest(sign, man, 0, prec)
    assert ours == libmp.normalize(sign, man, 0, man.bit_length(), prec, "n")
    return precision.to_fixed(ours, 0)


@st.composite
def fixed_ints(draw):
    """An integer of either sign and 1 to 2,000 bits, some of them 2**b - 1 or with a run of zeros below the top."""
    bits = draw(st.integers(min_value=1, max_value=2000))
    man = draw(st.one_of(st.just(2**bits - 1), st.integers(min_value=2 ** (bits - 1), max_value=2**bits - 1),
                         st.integers(min_value=0, max_value=bits - 1).map(lambda low: 2 ** (bits - 1) + 2**low)))
    return -man if draw(st.booleans()) else man


@settings(max_examples=1500, deadline=None)
@given(v=fixed_ints(), prec=st.integers(min_value=1, max_value=400))
@example(v=0, prec=1)
@example(v=5, prec=2)  # 101: a tie, to the even 100
@example(v=7, prec=2)  # 111: a tie, to the even 1000, a carry to the next power of two
@example(v=-11, prec=3)  # 1011: a tie, to the even 1100
@example(v=2**400 - 1, prec=400)  # fits: unchanged
@example(v=-(2**401 - 1), prec=400)  # a carry to -2**401
@example(v=2**1999 + 2**1599, prec=400)  # a tie at the last kept bit
@example(v=2**1999 + 2**1599 + 1, prec=400)  # just past the tie: the sticky bits round up
def test_round_fixed_is_nearest_at_a_fixed_scale(v, prec):
    assert precision.round_fixed(v, prec) == fixed_as_nearest(v, prec)


@given(x=pairs().map(lambda p: p[0]), shift=st.integers(min_value=0, max_value=64))
def test_to_fixed_is_exact(x, shift):
    scale = max(0, -x[2]) + shift
    v = precision.to_fixed(x, scale)
    assert precision.from_man_exp(v, -scale) == x


@st.composite
def ordered_pairs(draw):
    """(s, t, prec): values of either sign with 1 to 400 mantissa bits whose
    top bits (exp + bc) lie 0 to 400 bits apart, often at one top bit, now
    and then with zero, +-inf or nan in place of one, and a prec of 1 to 400."""

    def value(top):
        bits = draw(st.integers(min_value=1, max_value=400))
        man = draw(st.one_of(st.just(2**bits - 1), st.integers(min_value=2 ** (bits - 1), max_value=2**bits - 1)))
        return raw(draw(st.integers(0, 1)), man, top - bits)

    top = draw(st.integers(min_value=-700, max_value=700))
    gap = draw(st.one_of(st.just(0), st.integers(min_value=-400, max_value=400)))
    s, t = value(top), value(top + gap)
    if draw(st.integers(0, 9)) == 0:
        special = draw(st.sampled_from(SPECIALS))
        s, t = (special, t) if draw(st.booleans()) else (s, special)
    return s, t, draw(st.integers(min_value=1, max_value=400))


@settings(max_examples=2000, deadline=None)
@given(pair=ordered_pairs())
@example(pair=(raw(0, 3, 0), raw(0, 7, -1), 53))  # one top bit: 3 < 3.5
@example(pair=(raw(1, 3, 0), raw(1, 7, -1), 53))  # and its negation: -3 > -3.5
@example(pair=(raw(0, 5, 10), raw(0, 5, 10), 53))  # equal
@example(pair=(raw(0, 2**200 - 1, 0), raw(1, 1, -250), 53))  # far gap: 2**200 - 1 less a hair
@example(pair=(raw(0, 1, -250), raw(0, 2**53 - 1, 0), 53))  # the far-gap addend first
@example(pair=(raw(0, 1, 0), raw(0, 1, -110), 1))  # prec 1
@example(pair=(raw(0, 2**120 - 1, 0), raw(0, 1, -101), 53))  # 101 bits apart, just past the gap rule
@example(pair=(raw(0, 2**120 - 1, 0), raw(0, 2**60 - 1, -130), 53))  # exponents far, magnitudes not
def test_inline_compare_and_far_gap_add_are_libmps(pair):
    s, t, prec = pair
    for a, b in [(s, t), (t, s)]:
        assert precision.mpf_cmp(a, b) == libmp.mpf_cmp(a, b)
        assert precision.mpf_lt(a, b) == libmp.mpf_lt(a, b)
        for op in ["mpf_add", "mpf_sub"]:
            assert_as_libmp(op, a, b, prec, "n")


COUNTED = ["mpf_add", "mpf_sub", "mpf_cmp", "mpf_lt"]


def test_example1_keeps_its_walks_on_the_kernel(monkeypatch):
    # Every libmp add, sub and compare the example1 walks make, called
    # through precision.libmp or through a name a cantordim module holds.
    # The far-gap adds of the ratio walk (its log-measure sits near
    # -10**10 * ln 10 after the first spike) and the compares of the
    # dimension and ratio series all run inline; what is left comes from
    # the few spike ranks.
    import io
    import sys
    from contextlib import redirect_stdout

    from cantordim.cli import run

    calls = {name: 0 for name in COUNTED}
    modules = [m for name, m in sys.modules.items() if name.startswith("cantordim")]
    for name in COUNTED:
        original = getattr(libmp, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(libmp, name, counted)
        for module in modules:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    with redirect_stdout(io.StringIO()):
        assert run(["example1", "--k-max", "3000", "--samples", "1"]) == 0
    assert sum(calls.values()) <= 50, calls
