"""Covering-based dimension estimation over cylinder families.

For sets defined by per-rank digit constraints the count of rank-k
cylinders meeting the set is an exact product, so no interval geometry is
involved.  The slope of ln(count) against ln(n_1...n_k) estimates the
dimension with respect to the cylinder family; that equals the
Hausdorff-Besicovitch dimension only when the family is faithful, which
the sequence diagnostic assesses separately.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from mpmath import mp, mpf

from .precision import ln_int, resolve_dps, working_dps
from .sequences import BasicSequence, as_integer, is_power_of_ten, rank_logs

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

    ``mode`` is one of:
      "all"        -- every digit admissible at every rank
      "every_rank" -- the same explicit digit set at every rank
      "exceptions" -- all digits except at exception ranks, where an
                      explicit set applies (exception ranks are either the
                      powers of ten or an explicit list)
      "per_rank"   -- explicit digit lists up to a capped rank
    """

    seq: BasicSequence
    mode: str
    digits: tuple[int, ...] = ()
    exception_ranks: Optional[tuple[int, ...]] = None  # None => powers of ten
    per_rank: tuple[tuple[int, ...], ...] = ()

    # -- constructors ----------------------------------------------------

    @classmethod
    def full(cls, seq: BasicSequence) -> "DigitSetSpec":
        return cls(seq, "all")

    @classmethod
    def constant_digits(cls, seq: BasicSequence, digits: Sequence[int]) -> "DigitSetSpec":
        return cls(seq, "every_rank", digits=_sorted_entries(digits, "every_rank"))

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
        return cls(
            seq,
            "exceptions",
            digits=_sorted_entries(digits_at_exception, "digits_at_exception"),
            exception_ranks=ranks,
        )

    @classmethod
    def from_table(cls, seq: BasicSequence, per_rank: Sequence[Sequence[int]]) -> "DigitSetSpec":
        table = tuple(_sorted_entries(r, "per_rank") for r in per_rank)
        if not table:
            raise EstimatorError("per-rank table must not be empty")
        return cls(seq, "per_rank", per_rank=table)

    @classmethod
    def from_descriptor(cls, seq: BasicSequence, spec) -> "DigitSetSpec":
        """JSON forms: "all" | {"every_rank": [...]} |
        {"except_ranks": "powers_of_10" | [ranks...], "digits_at_exception": [...]} |
        {"per_rank": [[...], ...]}, optionally wrapped as {"admissible": ...}."""
        if isinstance(spec, Mapping) and set(spec) == {"admissible"}:
            spec = spec["admissible"]
        if spec == "all":
            return cls.full(seq)
        try:
            if isinstance(spec, Mapping):
                if "every_rank" in spec:
                    return cls.constant_digits(seq, spec["every_rank"])
                if "except_ranks" in spec:
                    rule = spec["except_ranks"]
                    digits = spec.get("digits_at_exception", [0])
                    if rule == "powers_of_10":
                        return cls.with_exceptions(seq, digits)
                    if isinstance(rule, Sequence) and not isinstance(rule, str):
                        return cls.with_exceptions(seq, digits, exception_ranks=rule)
                    raise EstimatorError(f"unknown except_ranks rule {rule!r}")
                if "per_rank" in spec:
                    return cls.from_table(seq, spec["per_rank"])
        except TypeError as exc:
            raise EstimatorError(f"malformed digit-set descriptor: {exc}") from exc
        raise EstimatorError(f"unknown digit-set descriptor {spec!r}")

    # -- queries -----------------------------------------------------------

    def _is_exception(self, k: int) -> bool:
        if self.exception_ranks is None:
            return is_power_of_ten(k)
        return k in self.exception_ranks

    def max_rank(self) -> Optional[int]:
        return len(self.per_rank) if self.mode == "per_rank" else None

    def _listed(self, k: int, n: int) -> Optional[tuple[int, ...]]:
        """The explicit admissible digits at rank k (where n_k = n),
        validated against 0..n-1, or None when every digit is admissible."""
        if self.mode == "all" or (self.mode == "exceptions" and not self._is_exception(k)):
            return None
        if self.mode == "per_rank":
            cap = len(self.per_rank)
            if k > cap:
                raise EstimatorError(f"rank {k} exceeds the {cap}-rank digit table")
            digits = self.per_rank[k - 1]
        else:
            digits = self.digits
        if not digits:
            raise EstimatorError(f"admissible set at rank {k} is empty")
        if digits[-1] > n - 1:
            raise EstimatorError(
                f"admissible digit {digits[-1]} at rank {k} outside 0..{n - 1}"
            )
        return digits

    def admissible_count(self, k: int) -> int:
        """|admissible(k)|, validated against 0..n_k-1 without materializing
        the full digit range."""
        n = self.seq.term(k)
        listed = self._listed(k, n)
        return n if listed is None else len(listed)

    def admissible_digits(self, k: int) -> tuple[int, ...]:
        n = self.seq.term(k)
        listed = self._listed(k, n)
        return tuple(range(n)) if listed is None else listed

    def descriptor(self) -> dict:
        if self.mode == "all":
            admissible = "all"
        elif self.mode == "every_rank":
            admissible = {"every_rank": list(self.digits)}
        elif self.mode == "exceptions":
            admissible = {
                "except_ranks": (
                    "powers_of_10" if self.exception_ranks is None else list(self.exception_ranks)
                ),
                "digits_at_exception": list(self.digits),
            }
        else:
            admissible = {"per_rank": [list(r) for r in self.per_rank]}
        return {"sequence": self.seq.descriptor(), "admissible": admissible}


def _sorted_entries(values: Sequence[int], what: str) -> tuple[int, ...]:
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
    for i in range(1, k + 1):
        out *= E.admissible_count(i)
    return out


def _log_counts(E: DigitSetSpec, k_max: int):
    """Yield (k, ln(n_1...n_k), ln N_k) for k = 1..k_max."""
    log_count = mpf(0)
    for k, _, _, log_prefix in rank_logs(E.seq, k_max):
        log_count += ln_int(E.admissible_count(k))
        yield k, log_prefix, log_count


@dataclass
class BoxCountEstimate:
    """Least-squares slope of ln N_k against ln(n_1...n_k), with the RMS
    regression residual and the raw per-rank ratios (whose liminf structure
    a single slope can hide)."""

    slope: mpf
    residual: mpf
    points: list[tuple[int, mpf, mpf]]  # (k, x=ln prefix, y=ln count)
    dps: int
    set_descriptor: dict

    def __post_init__(self):
        # One division per rank, at the precision the estimate is built at;
        # the JSON series and the CSV/plot-data series both read this list.
        self._ratios = [(k, y / x) for k, x, y in self.points]

    def ratios(self) -> list[tuple[int, mpf]]:
        return self._ratios

    def to_jsonable(self) -> dict:
        from mpmath import nstr

        n = self.dps
        return {
            "set": self.set_descriptor,
            "precision_dps": self.dps,
            "slope": nstr(self.slope, n),
            "residual": nstr(self.residual, n),
            "note": FAMILY_NOTE,
            "series": [[k, nstr(r, n)] for k, r in self._ratios],
        }


def box_dimension_estimate(E: DigitSetSpec, k_max: int, dps: int | None = None) -> BoxCountEstimate:
    """Regress ln N_k on ln(n_1...n_k) over ranks 2..k_max."""
    if k_max < 4:
        raise EstimatorError(f"box dimension estimate needs k_max >= 4, got {k_max}")
    cap = E.max_rank()
    if cap is not None and k_max > cap:
        raise EstimatorError(f"k_max {k_max} exceeds the {cap}-rank digit table")
    used = resolve_dps(dps)
    with working_dps(dps):
        points = [p for p in _log_counts(E, k_max) if p[0] >= 2]
        m = len(points)
        mean_x = sum(x for _, x, _ in points) / m
        mean_y = sum(y for _, _, y in points) / m
        sxx = sum((x - mean_x) ** 2 for _, x, _ in points)
        if sxx == 0:
            raise EstimatorError("degenerate regression: all abscissae equal")
        sxy = sum((x - mean_x) * (y - mean_y) for _, x, y in points)
        slope = sxy / sxx
        intercept = mean_y - slope * mean_x
        ss_res = sum((y - (intercept + slope * x)) ** 2 for _, x, y in points)
        residual = mp.sqrt(ss_res / m)
        return BoxCountEstimate(
            slope=slope,
            residual=residual,
            points=points,
            dps=used,
            set_descriptor=E.descriptor(),
        )
