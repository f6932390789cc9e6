"""Exact conversions between points of [0,1], digit strings, and cylinder
intervals of a Cantor series expansion.

Everything here is integer/rational arithmetic; no floats are produced.
The greedy digit extraction picks the terminating expansion at points with
two representations, and the right endpoint 1 has no expansion at all.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .sequences import BasicSequence, as_integer

# Rank cap keeps denominators (factorial-like products) from growing
# without bound by accident.
MAX_RANK = 10**6

# iter_digit_strings() refuses ranks with more strings than this (the
# counterexample sequence branches 10**10 ways at rank 10).
MAX_CHILDREN = 10**7


class CodecError(ValueError):
    """Digit out of range, point without an expansion, or oversize request."""


@dataclass(frozen=True)
class DigitString:
    """A finite digit prefix (a_1, ..., a_k) bound to its sequence."""

    seq: BasicSequence
    digits: tuple[int, ...]

    def __post_init__(self):
        raw = tuple(self.digits)
        try:  # operator.index, unlike int(), refuses 1.9 and "1"
            if bool in map(type, raw):
                raise TypeError
            object.__setattr__(self, "digits", tuple(map(operator.index, raw)))
        except TypeError:
            for i, d in enumerate(raw, 1):  # name the first digit that is no integer
                as_integer(d, f"digit at rank {i}", CodecError)
            raise CodecError(f"digits must be integers, got {raw!r}") from None
        check_max_rank(len(self.digits))
        for i, (d, n) in enumerate(zip(self.digits, self.seq.iter_terms(self.rank)), 1):
            if not 0 <= d <= n - 1:
                raise CodecError(f"digit {d} at rank {i} outside 0..{n - 1}")

    @property
    def rank(self) -> int:
        return len(self.digits)

    def truncate(self, k: int) -> "DigitString":
        if not 0 <= k <= self.rank:
            raise CodecError(f"cannot truncate rank-{self.rank} string to {k}")
        return DigitString.unchecked(self.seq, self.digits[:k])  # a prefix of a valid string is valid

    @classmethod
    def unchecked(cls, seq: BasicSequence, digits: tuple[int, ...]) -> "DigitString":
        """A string whose digits are already known valid: a tuple of ints,
        at most MAX_RANK of them, each in 0..n_i-1.  Skips the validation
        walk, which would read every term again."""
        out = object.__new__(cls)
        object.__setattr__(out, "seq", seq)
        object.__setattr__(out, "digits", digits)
        return out

    def to_jsonable(self) -> dict:
        return {"sequence": self.seq.descriptor(), "digits": list(self.digits)}


@dataclass(frozen=True)
class Cylinder:
    """Closed interval of all points whose expansion starts with ``digits``.

    left = sum a_i / (n_1...n_i), length = 1 / (n_1...n_k), exact rationals.
    """

    digits: DigitString
    left: Fraction
    right: Fraction
    length: Fraction

    def to_jsonable(self) -> dict:
        return {
            "digits": self.digits.to_jsonable(),
            "left": f"{self.left.numerator}/{self.left.denominator}",
            "right": f"{self.right.numerator}/{self.right.denominator}",
            "length": f"{self.length.numerator}/{self.length.denominator}",
        }


def check_max_rank(k: int) -> None:
    if k > MAX_RANK:
        raise CodecError(f"rank {k} exceeds MAX_RANK = {MAX_RANK}")


def greedy_digits(x: Fraction, terms) -> Iterator[tuple[int, int]]:
    """Yield (n_i, a_i) per term: a_i = floor(x_i * n_i), x_{i+1} = x_i * n_i - a_i
    from x_1 = x in [0,1), kept as num / den over x's denominator (one integer
    divmod a rank).  A caller that stops early may read ``terms`` on."""
    num, den = x.numerator, x.denominator
    for n in terms:
        a, num = divmod(num * n, den)
        yield n, a


def encode(x, seq: BasicSequence, k: int) -> DigitString:
    """Greedy digit extraction of x in [0,1) to rank k.

    The result is the rank-k cylinder whose half-open interval
    [left, left + length) contains x.  Each term is read once: a greedy
    digit a_i = floor(x_i * n_i) with 0 <= x_i < 1 is in 0..n_i-1, so the
    string needs no second validation walk.
    """
    x = Fraction(x)
    if not 0 <= x < 1:
        raise CodecError(f"encode needs 0 <= x < 1, got {x}")
    if k < 0:
        raise CodecError(f"rank must be >= 0, got {k}")
    check_max_rank(k)
    return DigitString.unchecked(seq, tuple(a for _, a in greedy_digits(x, seq.iter_terms(k))))


def _mixed_radix(d: DigitString) -> tuple[int, int]:
    """(num, den) with num / den = sum a_i / (n_1 ... n_i) and den = n_1 ... n_k.

    By binary splitting over the terms, read once in rank order: two
    halves (num_l, den_l), (num_r, den_r) join as (num_l * den_r + num_r,
    den_l * den_r), so products pair operands of like size, and a leaf of
    128 to 255 ranks is Horner's rule, num = num * n_i + a_i, which over
    all k ranks would take time quadratic in k.
    """
    pairs = zip(d.digits, d.seq.iter_terms(d.rank))

    def run(size: int) -> tuple[int, int]:
        if size < 256:
            num, den = 0, 1
            for a, n in itertools.islice(pairs, size):
                num = num * n + a
                den *= n
            return num, den
        num, den = run(size // 2)
        num_r, den_r = run(size - size // 2)
        return num * den_r + num_r, den * den_r

    return run(d.rank)


def decode(d: DigitString) -> Fraction:
    """Exact value sum a_i / (n_1 ... n_i) of a digit string (its cylinder's
    left endpoint); the empty string decodes to 0."""
    return Fraction(*_mixed_radix(d))


def cylinder(d: DigitString) -> Cylinder:
    """The cylinder interval of a digit string, with exact endpoints."""
    num, den = _mixed_radix(d)
    left = Fraction(num, den)
    length = Fraction(1, den)
    return Cylinder(digits=d, left=left, right=left + length, length=length)


def iter_digit_strings(seq: BasicSequence, k: int) -> Iterator[DigitString]:
    """All rank-k digit strings in lexicographic order (small ranks only)."""
    ranges = [range(n) for n in seq.iter_terms(k)]
    total = 1
    for r in ranges:
        total *= len(r)
        if total > MAX_CHILDREN:
            raise CodecError(f"rank-{k} enumeration would exceed {MAX_CHILDREN} strings")
    for combo in itertools.product(*ranges):
        yield DigitString(seq, combo)
