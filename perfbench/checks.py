"""Output checks for every benchmark job.

Each job's output is judged twice over: against the sha256 recorded for
its argv in digests.json, when there is one, and against an independent
oracle for any seed:

* faithfulness / dim-measure / example1 -- values at sampled ranks are
  recomputed from ``faithfulness_ratio`` / ``log_prefix_product`` and the
  closed forms of the example1 rows;
* encode / decode / cylinder / cdf / boxcount -- exact rational arithmetic
  on integers (and a plain mpmath regression for boxcount), with sequence
  terms from ``workloads.term`` rather than from cantordim.

``judge`` returns None for a good output, or a failure with a reason and
whether it is the known int-to-str failure described in NOTES.md.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp, mpf

from workloads import term

DPS = 50  # the CLI's default output precision
REL_TOL = mpf(10) ** -40
INT_STR_LIMIT = 10**4300  # Python's default limit on int <-> str digits

# example1 sections that do not depend on --seed: their digest must match
# the recorded one at every seed.
EXAMPLE1_INVARIANT = ("measure_dimension", "spectrum_dimension", "ratio_series_extreme",
                      "dp_necessary_conditions", "headline", "k_max", "precision_dps")


class CheckFailed(Exception):
    pass


@dataclass
class Failure:
    reason: str
    known: bool = False


def argv_key(argv: list) -> str:
    return hashlib.sha256(json.dumps(argv).encode()).hexdigest()


def example1_invariant_digest(report: dict) -> str:
    part = {key: report[key] for key in EXAMPLE1_INVARIANT}
    return hashlib.sha256(json.dumps(part, sort_keys=True).encode()).hexdigest()


def _expect(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def _close(emitted: str, oracle, what: str) -> None:
    value = mpf(emitted)
    _expect(abs(value - oracle) <= REL_TOL * max(1, abs(oracle)),
            f"{what}: emitted {emitted[:30]}, oracle {mp.nstr(oracle, 30)}")


def _fraction(text: str) -> Fraction:
    num, den = text.split("/")
    return Fraction(int(num), int(den))


def _is_power_of_ten(k: int) -> bool:
    return k >= 10 and 10 ** (len(str(k)) - 1) == k


def _sample_ranks(rng: random.Random, lo: int, hi: int, count: int = 2) -> list[int]:
    return sorted({lo, hi, *(rng.randint(lo, hi) for _ in range(count))})


def _mixed_radix(seq: dict, digits: list) -> tuple[int, int]:
    """(num, den) with num/den = sum a_i / (n_1...n_i) and den = n_1...n_k."""
    num, den = 0, 1
    for k, a in enumerate(digits, 1):
        n = term(seq, k)
        _expect(0 <= a < n, f"digit {a} at rank {k} outside 0..{n - 1}")
        num, den = num * n + a, den * n
    return num, den


# ---- series oracles ---------------------------------------------------------


def _check_faithfulness(cd, job, out, rng):
    p = job["params"]
    seq = cd.make_sequence(p["seq"])
    ratios = out["ratios"]
    _expect(out["k_max"] == p["k_max"] and out["sequence"] == p["seq"], "echoed parameters")
    _expect([k for k, _ in ratios] == list(range(2, p["k_max"] + 1)), "ratio ranks")
    for k in _sample_ranks(rng, 2, p["k_max"]):
        _close(ratios[k - 2][1], cd.faithfulness_ratio(seq, k, dps=DPS), f"r_{k}")


def _spike_ranks(k: int) -> list[int]:
    return [10**e for e in range(1, len(str(k))) if 10**e <= k]


def _check_dim_measure(cd, job, out, rng):
    # example1 rows: h_i = ln(i+1), except ln(i) at power-of-ten ranks (the
    # vanishing digit-0 mass contributes far below the working precision).
    p = job["params"]
    seq = cd.make_sequence(p["seq"])
    points = out["points"]
    _expect([k for k, _ in points] == list(range(1, p["k_max"] + 1)), "point ranks")
    for k in _sample_ranks(rng, 1, p["k_max"]):
        with mp.workdps(DPS + 10):
            log_len = cd.log_prefix_product(seq, k, dps=DPS).log()
            loss = sum((mp.log(i + 1) - mp.log(i) for i in _spike_ranks(k)), mpf(0))
            _close(points[k - 1][1], (log_len - loss) / log_len, f"d_{k}")


def _check_example1(cd, job, out, rng, digests):
    p = job["params"]
    recorded = digests.get("example1_invariant")
    _expect(recorded is None or example1_invariant_digest(out) == recorded,
            "seed-independent example1 sections differ from the recorded digest")
    _expect(out["seed"] == p["seed"] and len(out["ratio_series_samples"]) == p["samples"],
            "echoed seed / sample count")
    seq = cd.make_sequence({"kind": "arithmetic", "a1": 2, "d": 1})
    k_max = p["k_max"]
    ranks = _sample_ranks(rng, 1, k_max)
    expected = {}
    for k in ranks:
        # Along any element of V: -ln mu_k = ln((k+1)!) - sum_spikes ln(i+1)
        # + sum_spikes 10**i ln 10, whatever the free digits are.
        with mp.workdps(DPS + 10):
            log_len = cd.log_prefix_product(seq, k, dps=DPS).log()
            spikes = _spike_ranks(k)
            neg_log_mu = (log_len - sum((mp.log(i + 1) for i in spikes), mpf(0))
                          + sum(10**i for i in spikes) * mp.log(10))
            expected[k] = log_len / neg_log_mu
    for series in [out["ratio_series_extreme"], *out["ratio_series_samples"]]:
        digits = series["digits"]["digits"]
        _expect(len(digits) == k_max, "sample rank")
        _expect(all(0 <= a <= k for k, a in enumerate(digits, 1)), "digit range")
        _expect(all(digits[k - 1] == 0 for k in _spike_ranks(k_max)), "element of V")
        for k in ranks:
            _close(series["points"][k - 1][1], expected[k], f"b_{k}")


# ---- exact oracles ----------------------------------------------------------


def _check_encode(job, out):
    p = job["params"]
    x = Fraction(p["x"])
    _expect(_fraction(out["x"]) == x, "echoed x")
    digits = out["digits"]["digits"]
    _expect(len(digits) == p["rank"], "rank")
    num, den = _mixed_radix(p["seq"], digits)
    # decode(encode(x)) <= x < decode + length
    _expect(num * x.denominator <= x.numerator * den < (num + 1) * x.denominator,
            "x outside the cylinder of its digits")


def _check_decode(job, out):
    num, den = _mixed_radix(job["params"]["seq"], job["params"]["digits"])
    _expect(_fraction(out["value"]) == Fraction(num, den), "decoded value")


def _check_cylinder(job, out):
    num, den = _mixed_radix(job["params"]["seq"], job["params"]["digits"])
    c = out["cylinder"]
    left, length = _fraction(c["left"]), _fraction(c["length"])
    _expect(left == Fraction(num, den), "cylinder.left != decode")
    _expect(length == Fraction(1, den), "cylinder length")
    _expect(_fraction(c["right"]) == left + length, "cylinder right")


def _check_cdf(job, out):
    # Uniform rows make the digit measure Lebesgue measure, so the rank-k cdf
    # is the left end of the rank-k cylinder holding x: floor(x P) / P.
    p = job["params"]
    x = Fraction(p["x"])
    den = 1
    for k in range(1, p["rank"] + 1):
        den *= term(p["seq"], k)
    _expect(out["rank"] == p["rank"] and _fraction(out["x"]) == x, "echoed parameters")
    with mp.workdps(DPS + 10):
        left = mpf(x.numerator * den // x.denominator) / mpf(den)
        _close(out["cdf"], left, "cdf")


def _check_boxcount(job, out):
    # Powers of ten admit one digit; every other rank admits all n_k digits.
    p = job["params"]
    with mp.workdps(DPS + 10):
        xs, ys = [], []
        log_len = log_count = mpf(0)
        for k in range(1, p["k_max"] + 1):
            n = term(p["seq"], k)
            log_len += mp.log(n)
            if not _is_power_of_ten(k):
                log_count += mp.log(n)
            if k >= 2:
                xs.append(log_len)
                ys.append(log_count)
        m = len(xs)
        mean_x, mean_y = sum(xs) / m, sum(ys) / m
        sxx = sum((x - mean_x) ** 2 for x in xs)
        slope = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)) / sxx
        intercept = mean_y - slope * mean_x
        residual = mp.sqrt(sum((y - intercept - slope * x) ** 2 for x, y in zip(xs, ys)) / m)
        _close(out["slope"], slope, "slope")
        _close(out["residual"], residual, "residual")
        series = out["series"]
        _expect([k for k, _ in series] == list(range(2, p["k_max"] + 1)), "series ranks")
        for (k, value), x, y in zip(series, xs, ys):
            _close(value, y / x, f"ratio_{k}")


EXACT_CHECKS = {"encode": _check_encode, "decode": _check_decode, "cylinder": _check_cylinder,
                "cdf": _check_cdf, "boxcount": _check_boxcount}


def _needs_long_ints(job) -> bool:
    """Whether a decode/cylinder answer holds an integer past the int-to-str limit."""
    num, den = _mixed_radix(job["params"]["seq"], job["params"]["digits"])
    value = Fraction(num, den)
    return max(value.numerator, value.denominator, den) >= INT_STR_LIMIT


def judge(cd, job: dict, rc: int, stderr: str, text: str, output_sha: str,
          digests: dict, rng: random.Random) -> Failure | None:
    """Check one job's exit code and output; None when it is correct."""
    op = job["op"]
    try:
        if rc != 0:
            known = (rc == 1 and op in ("decode", "cylinder")
                     and "integer string conversion" in stderr and _needs_long_ints(job))
            return Failure(f"exit {rc}: {stderr.strip()[-300:]}", known=known)
        recorded = digests.get("jobs", {}).get(argv_key(job["argv"]))
        _expect(recorded is None or recorded == output_sha, "output differs from recorded digest")
        out = json.loads(text)
        _expect(out.get("precision_dps") == DPS, "precision_dps")
        with mp.workdps(DPS + 10):
            if op == "faithfulness":
                _check_faithfulness(cd, job, out, rng)
            elif op == "dim-measure":
                _check_dim_measure(cd, job, out, rng)
            elif op == "example1":
                _check_example1(cd, job, out, rng, digests)
            else:
                EXACT_CHECKS[op](job, out)
    except CheckFailed as exc:
        return Failure(f"check failed: {exc}")
    except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
        return Failure(f"malformed output: {type(exc).__name__}: {exc}")
    return None
