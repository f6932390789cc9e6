"""Covering-based dimension estimation over cylinder families.

For sets defined by per-rank digit constraints the count of rank-k
cylinders meeting the set is an exact product, so no interval geometry is
involved.  The slope of ln(count) against ln(n_1...n_k) estimates the
dimension with respect to the cylinder family; that equals the
Hausdorff-Besicovitch dimension only when the family is faithful, which
the sequence diagnostic assesses separately.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Sequence, Union

from mpmath import mpf

from .precision import (
    as_mpf, from_int, from_man_exp, fzero, ln_int_raw, mpf_add, mpf_div, mpf_mul, mpf_sqrt, mpf_sub,
    mpf_text, round_fixed, to_fixed, working_dps,
)
from .sequences import BasicSequence, Series, as_integer, is_power_of_ten, rank_logs, reject_unknown_keys

FAMILY_NOTE = (
    "slope is the dimension w.r.t. the cylinder family; it equals the "
    "Hausdorff-Besicovitch dimension only when the family is faithful"
)


class EstimatorError(ValueError):
    """Invalid digit-set descriptors or degenerate regressions."""


@dataclass(frozen=True)
class DigitSetSpec:
    """Per-rank admissible digit sets describing the compact set of points
    whose digit at every rank k lies in admissible(k).

    A set keeps the form it was read from, once: ``admissible`` is its
    normalized descriptor ("all" or one JSON mapping), which
    ``descriptor()`` returns a copy of.  The counts read one listing
    rule: ``per_rank`` lists the digits of each rank up to its length;
    otherwise ``digits`` are listed at the ranks where ``listed_at`` holds
    (every rank, none, the powers of ten or a given list), and every digit
    is admissible elsewhere.  Two sets built from the same descriptor are
    equal and hash alike.
    """

    seq: BasicSequence
    admissible: Union[str, dict] = field(hash=False)
    digits: tuple[int, ...] = ()
    listed_at: Callable[[int], bool] = field(default=lambda k: False, compare=False)
    per_rank: tuple[tuple[int, ...], ...] = ()

    # -- constructors ----------------------------------------------------

    @classmethod
    def full(cls, seq: BasicSequence) -> "DigitSetSpec":
        return cls(seq, "all")

    @classmethod
    def constant_digits(cls, seq: BasicSequence, digits: Sequence[int]) -> "DigitSetSpec":
        digits = _sorted_entries(digits, "every_rank")
        return cls(seq, {"every_rank": list(digits)}, digits, lambda k: True)

    @classmethod
    def with_exceptions(
        cls,
        seq: BasicSequence,
        digits_at_exception: Sequence[int],
        exception_ranks: Optional[Sequence[int]] = None,
    ) -> "DigitSetSpec":
        """All digits admissible except at the exception ranks (default:
        the powers of ten), where only ``digits_at_exception`` are."""
        ranks = None if exception_ranks is None else _sorted_entries(exception_ranks, "except_ranks")
        if ranks and ranks[0] < 1:
            raise EstimatorError(f"except_ranks entry {ranks[0]} is not a rank; ranks start at 1")
        digits = _sorted_entries(digits_at_exception, "digits_at_exception")
        rule = "powers_of_10" if ranks is None else list(ranks)
        listed_at = is_power_of_ten if ranks is None else frozenset(ranks).__contains__
        return cls(seq, {"except_ranks": rule, "digits_at_exception": list(digits)}, digits, listed_at)

    @classmethod
    def from_table(cls, seq: BasicSequence, per_rank: Sequence[Sequence[int]]) -> "DigitSetSpec":
        if not isinstance(per_rank, (list, tuple)):
            raise EstimatorError(f"per_rank must be an array of digit arrays, got {per_rank!r}")
        table = tuple(_sorted_entries(r, "per_rank") for r in per_rank)
        if not table:
            raise EstimatorError("per-rank table must not be empty")
        return cls(seq, {"per_rank": [list(r) for r in table]}, per_rank=table)

    @classmethod
    def from_descriptor(cls, seq: BasicSequence, spec) -> "DigitSetSpec":
        """JSON forms: "all" | {"every_rank": [...]} |
        {"except_ranks": "powers_of_10" | [ranks...], "digits_at_exception": [...]} |
        {"per_rank": [[...], ...]}, optionally wrapped as {"admissible": ...}.
        A key outside its form's keys is refused."""
        if isinstance(spec, Mapping) and set(spec) == {"admissible"}:
            spec = spec["admissible"]
        if spec == "all":
            return cls.full(seq)
        try:
            if isinstance(spec, Mapping):
                if "every_rank" in spec:
                    reject_unknown_keys(spec, {"every_rank"}, "digit-set", EstimatorError)
                    return cls.constant_digits(seq, spec["every_rank"])
                if "except_ranks" in spec:
                    reject_unknown_keys(spec, {"except_ranks", "digits_at_exception"}, "digit-set", EstimatorError)
                    rule = spec["except_ranks"]
                    digits = spec.get("digits_at_exception", [0])
                    if rule == "powers_of_10":
                        return cls.with_exceptions(seq, digits)
                    if isinstance(rule, Sequence) and not isinstance(rule, str):
                        return cls.with_exceptions(seq, digits, exception_ranks=rule)
                    raise EstimatorError(f"unknown except_ranks rule {rule!r}")
                if "per_rank" in spec:
                    reject_unknown_keys(spec, {"per_rank"}, "digit-set", EstimatorError)
                    return cls.from_table(seq, spec["per_rank"])
        except TypeError as exc:
            raise EstimatorError(f"malformed digit-set descriptor: {exc}") from exc
        raise EstimatorError(f"unknown digit-set descriptor {spec!r}")

    # -- queries -----------------------------------------------------------

    def max_rank(self) -> Optional[int]:
        return len(self.per_rank) or None

    def _listed(self, k: int, n: int) -> Optional[tuple[int, ...]]:
        """The explicit admissible digits at rank k (where n_k = n),
        validated against 0..n-1, or None when every digit is admissible."""
        if self.per_rank:
            if k > len(self.per_rank):
                raise EstimatorError(f"rank {k} exceeds the {len(self.per_rank)}-rank digit table")
            digits = self.per_rank[k - 1]
        elif self.listed_at(k):
            digits = self.digits
        else:
            return None
        if not digits:
            raise EstimatorError(f"admissible set at rank {k} is empty")
        if digits[-1] > n - 1:
            raise EstimatorError(f"admissible digit {digits[-1]} at rank {k} outside 0..{n - 1}")
        return digits

    def admissible_count(self, k: int, n: int) -> int:
        """|admissible(k)| given the term n = n_k already read, validated
        against 0..n-1 without materializing the full digit range."""
        listed = self._listed(k, n)
        return n if listed is None else len(listed)

    def admissible_digits(self, k: int) -> tuple[int, ...]:
        n = self.seq.term(k)
        listed = self._listed(k, n)
        return tuple(range(n)) if listed is None else listed

    def descriptor(self) -> dict:
        """The set's JSON descriptor, a copy: editing it leaves the set as it is."""
        return {"sequence": self.seq.descriptor(), "admissible": copy.deepcopy(self.admissible)}


def _sorted_entries(values: Sequence[int], what: str) -> tuple[int, ...]:
    # A string or a mapping would be read one character or key at a time.
    if not isinstance(values, (list, tuple)):
        raise EstimatorError(f"{what} must be an array of integers, got {values!r}")
    out = tuple(sorted({as_integer(v, f"{what} entry", EstimatorError) for v in values}))
    if out and out[0] < 0:
        raise EstimatorError(f"negative {what} entry {out[0]}")
    return out


# ---------------------------------------------------------------------------
# counting, slope
# ---------------------------------------------------------------------------


def count_cylinders(E: DigitSetSpec, k: int) -> int:
    """Number of rank-k cylinders meeting the set: the exact product of the
    per-rank admissible counts."""
    if k < 1:
        raise EstimatorError(f"rank must be >= 1, got {k}")
    out = 1
    for i, n in enumerate(E.seq.iter_terms(k), 1):
        out *= E.admissible_count(i, n)
    return out


def _log_counts(E: DigitSetSpec, k_max: int, prec: int, rnd: str):
    """Yield (k, ln(n_1...n_k), ln N_k) for k = 1..k_max as raw kernel values."""
    log_count = fzero
    for k, n, _, _, log_prefix in rank_logs(E.seq, k_max):
        log_count = mpf_add(log_count, ln_int_raw(E.admissible_count(k, n), prec, rnd), prec, rnd)
        yield k, log_prefix, log_count


@dataclass
class BoxCountEstimate:
    """Least-squares slope of ln N_k against ln(n_1...n_k), with the RMS
    regression residual and the per-rank ratios ln N_k / ln(n_1...n_k)
    (whose liminf structure a single slope can hide)."""

    slope: mpf
    residual: mpf
    series: list[tuple[int, mpf]]  # (k, ln N_k / ln(n_1...n_k))
    dps: int
    set_descriptor: dict

    def to_jsonable(self) -> dict:
        n = self.dps
        return {
            "set": self.set_descriptor,
            "precision_dps": self.dps,
            "slope": mpf_text(self.slope, n),
            "residual": mpf_text(self.residual, n),
            "note": FAMILY_NOTE,
            "series": Series.of_values(self.series, n),
        }


def box_dimension_estimate(E: DigitSetSpec, k_max: int, dps: int | None = None) -> BoxCountEstimate:
    """Regress ln N_k on ln(n_1...n_k) over ranks 2..k_max.

    Every value has the bits of the mpf operator form, sums from zero in
    rank order.  The per-point passes run on ints: x, y, their sums and
    differences at scale 2**-F, F the largest of 0 and -exp over the points
    and the means; products, sxx and sxy at 2F; the fit ic + sl*x at F + G,
    G = max(0, -exp(sl)); squared residuals and their sum at 2(F + G).
    Each exact result is an int there, which ``round_fixed`` rounds as the
    kernel op would; the six scalar steps run on the tuples.
    """
    if k_max < 4:
        raise EstimatorError(f"box dimension estimate needs k_max >= 4, got {k_max}")
    cap = E.max_rank()
    if cap is not None and k_max > cap:
        raise EstimatorError(f"k_max {k_max} exceeds the {cap}-rank digit table")
    with working_dps(dps) as (used, prec, rnd):
        points = [p for p in _log_counts(E, k_max, prec, rnd) if p[0] >= 2]
        m = from_int(len(points))
        f = max(0, *(-v[2] for _, x, y in points for v in (x, y)))
        xs, ys = [to_fixed(x, f) for _, x, _ in points], [to_fixed(y, f) for _, _, y in points]
        sum_x = sum_y = 0
        for x, y in zip(xs, ys):
            sum_x, sum_y = round_fixed(sum_x + x, prec), round_fixed(sum_y + y, prec)
        mean_x, mean_y = (mpf_div(from_man_exp(t, -f), m, prec, rnd) for t in (sum_x, sum_y))
        lift = max(0, -mean_x[2] - f, -mean_y[2] - f)  # a mean finer than every point
        xs, ys, f = [x << lift for x in xs], [y << lift for y in ys], f + lift
        mx, my = to_fixed(mean_x, f), to_fixed(mean_y, f)
        sxx = sxy = 0
        for x, y in zip(xs, ys):
            dx = round_fixed(x - mx, prec)
            sxx = round_fixed(sxx + round_fixed(dx * dx, prec), prec)
            sxy = round_fixed(sxy + round_fixed(dx * round_fixed(y - my, prec), prec), prec)
        if not sxx:
            raise EstimatorError("degenerate regression: all abscissae equal")
        slope = mpf_div(from_man_exp(sxy, -2 * f), from_man_exp(sxx, -2 * f), prec, rnd)
        intercept = mpf_sub(mean_y, mpf_mul(slope, mean_x, prec, rnd), prec, rnd)
        g = max(0, -slope[2])  # the intercept, mean_y - sl*mean_x rounded, is then an int at F + G
        sl, ic = to_fixed(slope, g), to_fixed(intercept, f + g)
        ss_res = 0
        for x, y in zip(xs, ys):
            r = round_fixed((y << g) - round_fixed(ic + round_fixed(sl * x, prec), prec), prec)
            ss_res = round_fixed(ss_res + round_fixed(r * r, prec), prec)
        residual = mpf_sqrt(mpf_div(from_man_exp(ss_res, -2 * (f + g)), m, prec, rnd), prec, rnd)
        return BoxCountEstimate(
            slope=as_mpf(slope),
            residual=as_mpf(residual),
            series=[(k, as_mpf(mpf_div(y, x, prec, rnd))) for k, x, y in points],
            dps=used,
            set_descriptor=E.descriptor(),
        )
