"""Exact codec roundtrips, cylinder geometry, tiling."""

import random
import re
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cantordim import codec
from cantordim import (
    CodecError,
    DigitString,
    SequenceError,
    cylinder,
    decode,
    encode,
    iter_digit_strings,
    make_sequence,
)

CONSTANT2 = make_sequence({"kind": "constant", "s": 2})
CONSTANT3 = make_sequence({"kind": "constant", "s": 3})
ARITH = make_sequence({"kind": "arithmetic", "a1": 2, "d": 1})
GEO = make_sequence({"kind": "geometric", "b1": 2, "q": 2})


# ---------------------------------------------------------------------------
# encode / decode
# ---------------------------------------------------------------------------


def test_encode_binary_half():
    assert encode(Fraction(1, 2), CONSTANT2, 3).digits == (1, 0, 0)


def test_encode_factorial_base_half():
    assert encode(Fraction(1, 2), ARITH, 3).digits == (1, 0, 0)


def test_encode_five_sixths_exact():
    d = encode(Fraction(5, 6), ARITH, 2)
    assert d.digits == (1, 2)
    # oracle: 1/2 + 2/(2*3) = 5/6 exactly
    assert Fraction(1, 2) + Fraction(2, 6) == Fraction(5, 6)
    assert decode(d) == Fraction(5, 6)


def test_encode_domain():
    with pytest.raises(CodecError):
        encode(Fraction(1), CONSTANT2, 3)
    with pytest.raises(CodecError):
        encode(Fraction(-1, 2), CONSTANT2, 3)
    with pytest.raises(CodecError):
        encode(Fraction(3, 2), CONSTANT2, 3)


def test_decode_trivials():
    assert decode(DigitString(CONSTANT2, (1, 0, 0))) == Fraction(1, 2)
    assert decode(DigitString(CONSTANT2, ())) == 0


def test_digit_bounds_enforced():
    with pytest.raises(CodecError):
        DigitString(ARITH, (2,))  # rank-1 digits are 0..1
    with pytest.raises(CodecError):
        DigitString(CONSTANT2, (0, 2))


def test_digit_and_rank_errors_name_the_failing_rank():
    with pytest.raises(CodecError, match=r"^digit 4 at rank 2 outside 0\.\.2$"):
        DigitString(ARITH, (1, 4))
    table = make_sequence({"kind": "custom", "table": [2, 3, 5]})
    no_tail = r"^rank 4 exceeds the 3-term custom table \(no tail rule\)$"
    with pytest.raises(SequenceError, match=no_tail):
        DigitString(table, (0, 0, 0, 0))
    with pytest.raises(SequenceError, match=no_tail):
        encode(Fraction(1, 7), table, 4)
    # a bad digit ahead of the missing rank is reported first
    with pytest.raises(CodecError, match="digit 3 at rank 2"):
        DigitString(table, (0, 3, 0, 0))
    # digits are read exactly: 1.9, 1.0, "1" and True are refused, not truncated
    for bad in (1.9, 1.0, "1", True, None):
        with pytest.raises(CodecError, match=rf"^digit at rank 2 must be an integer, got {re.escape(repr(bad))}$"):
            DigitString(ARITH, (1, bad))
    with pytest.raises(CodecError, match=r"^digit at rank 1 must be an integer, got True$"):
        DigitString(ARITH, [True, 2.5])  # the first offending rank is named


class _Index:
    def __index__(self):
        return 1


@pytest.mark.parametrize(
    "bad", [Fraction(1), Decimal("1"), 1 + 0j, [1], b"1"], ids=["fraction", "decimal", "complex", "list", "bytes"]
)
def test_digit_string_refuses_values_without_index(bad):
    with pytest.raises(CodecError, match=rf"^digit at rank 3 must be an integer, got {re.escape(repr(bad))}$"):
        DigitString(ARITH, (0, 2, bad))


def test_digit_string_stores_index_types_as_int():
    d = DigitString(ARITH, (1, _Index(), 3))
    assert d.digits == (1, 1, 3)
    assert all(type(a) is int for a in d.digits)
    assert d == DigitString(ARITH, (1, 1, 3))


def test_digit_string_stores_numpy_ints_as_int():
    numpy = pytest.importorskip("numpy")
    d = DigitString(ARITH, (numpy.int64(1), numpy.uint8(2), numpy.int32(3)))
    assert d.digits == (1, 2, 3)
    assert all(type(a) is int for a in d.digits)


def test_encode_brackets_the_point():
    x = Fraction(7, 13)
    for seq in (CONSTANT2, CONSTANT3, ARITH, GEO):
        for k in (1, 3, 6):
            d = encode(x, seq, k)
            c = cylinder(d)
            assert c.left <= x < c.right


# ---------------------------------------------------------------------------
# cylinders
# ---------------------------------------------------------------------------


def test_cylinder_examples():
    c = cylinder(DigitString(CONSTANT2, (0,)))
    assert (c.left, c.right, c.length) == (0, Fraction(1, 2), Fraction(1, 2))
    c2 = cylinder(DigitString(ARITH, (1, 2)))
    assert (c2.left, c2.right, c2.length) == (Fraction(5, 6), 1, Fraction(1, 6))


def _children(c):
    """The rank-(k+1) cylinders inside the rank-k cylinder c, in digit order."""
    d = c.digits
    return [cylinder(DigitString(d.seq, d.digits + (j,))) for j in range(d.seq.term(d.rank + 1))]


def test_children_tile_parent():
    kids = _children(cylinder(DigitString(CONSTANT3, ())))
    assert len(kids) == 3
    assert all(k.length == Fraction(1, 3) for k in kids)
    kids2 = _children(cylinder(DigitString(ARITH, (1,))))
    assert [k.digits.digits for k in kids2] == [(1, 0), (1, 1), (1, 2)]
    assert all(k.length == Fraction(1, 6) for k in kids2)


def test_children_lengths_sum_to_parent_on_random_cylinders():
    rng = random.Random(12345)
    seqs = [CONSTANT2, CONSTANT3, ARITH, GEO]
    for _ in range(1000):
        seq = rng.choice(seqs)
        rank = rng.randrange(0, 6)
        digits = tuple(rng.randrange(seq.term(i)) for i in range(1, rank + 1))
        parent = cylinder(DigitString(seq, digits))
        kids = _children(parent)
        assert sum(k.length for k in kids) == parent.length
        assert kids[0].left == parent.left
        assert kids[-1].right == parent.right
        assert all(a.right == b.left for a, b in zip(kids, kids[1:]))


@pytest.mark.parametrize("seq,rank", [(CONSTANT2, 8), (CONSTANT3, 7), (ARITH, 6)])
def test_tiling_nesting_and_order(seq, rank):
    cyls = [cylinder(d) for d in iter_digit_strings(seq, rank)]
    assert sum(c.length for c in cyls) == 1
    assert cyls[0].left == 0 and cyls[-1].right == 1
    for a, b in zip(cyls, cyls[1:]):
        assert a.right == b.left  # tiling, no gaps or overlaps
        assert a.left < b.left  # lexicographic order is spatial order
    # nesting: extending one digit stays inside
    for c in cyls[:50]:
        kid = cylinder(DigitString(seq, c.digits.digits + (0,)))
        assert c.left <= kid.left and kid.right <= c.right


# ---------------------------------------------------------------------------
# roundtrip properties
# ---------------------------------------------------------------------------

seq_strategy = st.sampled_from(
    [CONSTANT2, CONSTANT3, ARITH, GEO, make_sequence({"kind": "constant", "s": 5})]
)


@settings(max_examples=300, deadline=None)
@given(seq_strategy, st.integers(min_value=0, max_value=9), st.randoms())
def test_terminating_rational_roundtrip(seq, rank, rnd):
    digits = tuple(rnd.randrange(seq.term(i)) for i in range(1, rank + 1))
    d = DigitString(seq, digits)
    x = decode(d)
    assert encode(x, seq, rank).digits == digits


@settings(max_examples=200, deadline=None)
@given(seq_strategy, st.fractions(min_value=0, max_value=Fraction(996, 997), max_denominator=997))
def test_decode_encode_error_bound(seq, x):
    k = 6
    d = encode(x, seq, k)
    approx = decode(d)
    assert approx <= x < approx + cylinder(d).length


def _geo23_term(i):
    return 2 * 3 ** (i - 1)


def test_geometric_codec_at_high_rank_matches_term_oracle():
    # One iter_terms walk per call must give what term(i) gives rank by rank.
    # decode/cylinder stop at rank 600: at rank 1500 the denominator
    # 2**1500 * 3**1124250 has 536,000 digits and one exact decode alone
    # costs seconds of big-integer work.
    seq = make_sequence({"kind": "geometric", "b1": 2, "q": 3})
    rng = random.Random(1500)
    x = Fraction(rng.randrange(10**40), 10**40 + 7)
    want, rest = [], x
    for i in range(1, 1501):
        rest *= _geo23_term(i)
        want.append(rest.numerator // rest.denominator)
        rest -= want[-1]
    assert encode(x, seq, 1500).digits == tuple(want)
    top = tuple(want[:-1])
    assert DigitString(seq, top + (_geo23_term(1500) - 1,)).rank == 1500
    with pytest.raises(CodecError, match=f"at rank 1500 outside 0..{_geo23_term(1500) - 1}$"):
        DigitString(seq, top + (_geo23_term(1500),))

    digits = tuple(rng.randrange(_geo23_term(i)) for i in range(1, 601))
    num, den = 0, 1
    for i, a in enumerate(digits, 1):
        num = num * _geo23_term(i) + a
        den *= _geo23_term(i)
    d = DigitString(seq, digits)
    assert decode(d) == Fraction(num, den)
    c = cylinder(d)
    assert (c.left, c.length, c.right) == (Fraction(num, den), Fraction(1, den), Fraction(num + 1, den))


def _horner(d):
    """(num, den) of a digit string by Horner's rule over all its ranks:
    num = num * n_i + a_i, den = den * n_i."""
    num, den = 0, 1
    for a, n in zip(d.digits, d.seq.iter_terms(d.rank)):
        num = num * n + a
        den *= n
    return num, den


MIXED_RADIX_SEQS = [
    CONSTANT3,
    ARITH,
    make_sequence({"kind": "geometric", "b1": 2, "q": 3}),
    make_sequence({"kind": "counterexample"}),
    make_sequence({"kind": "custom", "table": [2, 3, 5], "tail": {"kind": "arithmetic", "a1": 3, "d": 2}}),
]


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(MIXED_RADIX_SEQS),
    st.one_of(st.integers(min_value=0, max_value=700), st.sampled_from([255, 256, 257, 511, 512, 513])),
    st.sampled_from(["random", "max", "zero"]),
    st.randoms(use_true_random=False),
)
def test_mixed_radix_is_horners_rule(seq, rank, digits, rnd):
    # The product tree splits at 256 ranks and again at 512.
    pick = {"random": rnd.randrange, "max": lambda n: n - 1, "zero": lambda n: 0}[digits]
    d = DigitString.unchecked(seq, tuple(pick(n) for n in seq.iter_terms(rank)))
    num, den = _horner(d)
    assert codec._mixed_radix(d) == (num, den)
    assert decode(d) == Fraction(num, den)


def _greedy_digits(x, seq, k):
    """a_i = floor(x_i n_i), x_{i+1} = x_i n_i - a_i in Fraction arithmetic."""
    digits = []
    for i in range(1, k + 1):
        x *= seq.term(i)
        digits.append(x.numerator // x.denominator)
        x -= digits[-1]
    return tuple(digits)


ENCODE_SEQS = [
    CONSTANT3,
    ARITH,
    GEO,
    make_sequence({"kind": "arithmetic", "a1": 3, "d": "4/2"}),  # rational d, integer terms
    make_sequence({"kind": "arithmetic", "a1": 2, "d": "3/2"}),  # n_2 = 7/2 is no integer
    make_sequence({"kind": "geometric", "b1": 8, "q": "3/2"}),  # integer up to n_4 = 27
    make_sequence({"kind": "counterexample"}),
    make_sequence({"kind": "custom", "table": [2, 3, 5], "tail": {"kind": "arithmetic", "a1": 3, "d": 2}}),
]


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(ENCODE_SEQS),
    st.fractions(min_value=0, max_value=1, max_denominator=10**30).filter(lambda x: x < 1),
    st.integers(min_value=0, max_value=40),
)
def test_encode_matches_fraction_greedy_oracle(seq, x, k):
    try:
        want = _greedy_digits(x, seq, k)
    except SequenceError as exc:
        with pytest.raises(SequenceError, match=f"^{re.escape(str(exc))}$"):
            encode(x, seq, k)
        return
    assert encode(x, seq, k).digits == want


def test_truncate():
    d = DigitString(ARITH, (1, 2, 3))
    assert d.truncate(2).digits == (1, 2)
    assert d.truncate(0) == DigitString(ARITH, ())
    with pytest.raises(CodecError):
        d.truncate(7)


class _CountingSequence(type(CONSTANT3)):
    """constant(3) that counts the terms it hands out, through ``term`` or
    ``iter_terms`` (which ``term`` reads)."""

    calls = 0

    def iter_terms(self, k_max, start=1):
        for n in super().iter_terms(k_max, start):
            type(self).calls += 1
            yield n


def test_last_digit_errors_keep_their_messages():
    with pytest.raises(CodecError, match=r"^digit 5 at rank 4 outside 0\.\.4$"):
        DigitString(ARITH, (1, 2, 3, 5))
    with pytest.raises(CodecError, match=r"^digit -1 at rank 4 outside 0\.\.4$"):
        DigitString(ARITH, (1, 2, 3, -1))
    table = make_sequence({"kind": "custom", "table": [2, 3, 5]})
    with pytest.raises(SequenceError, match=r"^rank 4 exceeds the 3-term custom table"):
        DigitString(table, (1, 2, 4, 0))


def test_truncate_reads_no_term():
    seq = _CountingSequence(3)
    d = DigitString(seq, tuple(k % 3 for k in range(1, 201)))
    _CountingSequence.calls = 0
    assert d.truncate(150).digits == d.digits[:150]
    assert _CountingSequence.calls == 0  # a prefix of a valid string is not re-validated


def test_enumeration_refuses_oversize_ranks():
    with pytest.raises(CodecError):
        next(iter_digit_strings(make_sequence({"kind": "constant", "s": 10}), 9))
