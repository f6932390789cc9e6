"""The fixed-precision kernel loops against plain mpf-operator reference loops.

Each pipeline below runs its per-rank loop on raw libmp values (see the
``precision`` module).  The reference loops here are the same formulas
written with mpf operators on plain logs, at the same precision and in the
same order, so every value a report keeps must agree bit for bit (``_mpf_``
equality), and every value it keeps only as text must be byte for byte
``mpf_text`` of the reference value, on all five sequence kinds and at 15,
30 and 50 digits.
"""

import random
from itertools import groupby

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from cantordim import (
    DigitSetSpec,
    DigitString,
    SymbolModel,
    box_dimension_estimate,
    faithfulness_diagnostic,
    is_power_of_ten,
    make_row_rule,
    make_sequence,
    ratio_series,
    working_dps,
)
from cantordim.billingsley import FLAG_UNIT_MEASURE, FLAG_ZERO_MEASURE
from cantordim.logreal import LOG_ZERO
from cantordim.measure import MEASURE_ENTROPY, SPECTRUM_COUNT, dimension_series, final_decade_liminf
from cantordim.precision import ln_int, mpf_text
from cantordim.sequences import trailing_decade_start

DPS = st.sampled_from([15, 30, 50])
K_MAX = st.integers(min_value=4, max_value=120)

SEQUENCES = st.one_of(
    st.builds(lambda s: {"kind": "constant", "s": s}, st.integers(2, 10**6)),
    st.builds(
        lambda a1, d: {"kind": "arithmetic", "a1": a1, "d": d},
        st.integers(2, 10**4),
        st.integers(1, 50),
    ),
    st.builds(
        lambda b1, q: {"kind": "geometric", "b1": b1, "q": q},
        st.sampled_from([2, 5, 2**120]),
        st.sampled_from([1, 2, 3]),
    ),
    st.just({"kind": "geometric", "b1": 2**120, "q": "3/2"}),  # integer terms to rank 121
    st.just({"kind": "counterexample"}),
    st.builds(
        lambda table, tail: {"kind": "custom", "table": table, "tail": tail},
        st.lists(st.integers(2, 10**9), min_size=1, max_size=8),
        st.sampled_from([{"kind": "arithmetic", "a1": 3, "d": 2}, {"kind": "counterexample"}]),
    ),
)


def ref_log_term(spec: dict, k: int, n: int) -> mpf:
    """ln n_k in mpf operators: the closed forms for geometric and
    counterexample terms, ln n otherwise."""
    kind = spec["kind"]
    if kind == "geometric":
        q = make_sequence(spec).q
        return ln_int(spec["b1"]) + (k - 1) * (ln_int(q.numerator) - ln_int(q.denominator))
    if kind == "counterexample":
        return k * ln_int(10) if is_power_of_ten(k) else ln_int(2)
    if kind == "custom" and k > len(spec["table"]):
        return ref_log_term(spec["tail"], k, n)
    return ln_int(n)


def ref_walk(spec: dict, k_max: int):
    """(k, n_k, ln n_k, ln prefix before k, ln prefix through k) in mpf operators."""
    seq = make_sequence(spec)
    prefix = mpf(0)
    for k in range(1, k_max + 1):
        n = seq.term(k)
        log_n = ref_log_term(spec, k, n)
        before = prefix
        prefix += log_n
        yield k, n, log_n, before, prefix


def bits(values):
    return [v._mpf_ for v in values]


def suffix_minimum_runs(values) -> list:
    """The suffix minima min(values[j:]) as (last rank, bits) runs, ranks from 1."""
    envelope, running = [], None
    for v in reversed(values):
        running = v if running is None or v < running else running
        envelope.append(running)
    envelope.reverse()
    return [(k, v._mpf_) for k, v in enumerate(envelope, 1) if k == len(envelope) or envelope[k] != v]


@settings(max_examples=60, deadline=None)
@given(spec=SEQUENCES, k_max=K_MAX, dps=DPS)
@example(spec={"kind": "counterexample"}, k_max=120, dps=15)
def test_faithfulness_ratios_and_square_sum(spec, k_max, dps):
    report = faithfulness_diagnostic(make_sequence(spec), k_max, dps=dps)
    with working_dps(dps):
        ratios, square = [], mpf(0)
        for k, _, log_n, before, _ in ref_walk(spec, k_max):
            if k > 1:
                r = log_n / before
                ratios.append((k, r))
                square += r * r
        maxima = [(d, max(r for _, r in group))
                  for d, group in groupby(ratios, key=lambda p: trailing_decade_start(p[0]))]
    # The report keeps each ratio as its text only; the bits of every ratio
    # still reach the square sum and the decade maxima.
    assert report.ratios == [mpf_text(r, dps) for _, r in ratios]
    assert report.square_summable_partial._mpf_ == square._mpf_
    assert [(d, v._mpf_) for d, v in report.decade_maxima] == [(d, v._mpf_) for d, v in maxima]


ROW_RULES = ["uniform", "example1", "example1_psi", "point_mass:0"]


@settings(max_examples=60, deadline=None)
@given(spec=SEQUENCES, k_max=K_MAX, dps=DPS, rules=st.tuples(*[st.sampled_from(ROW_RULES)] * 2))
@example(spec={"kind": "arithmetic", "a1": 2, "d": 1}, k_max=120, dps=50, rules=("example1", "example1_psi"))
# spike rows over two digits, at ranks 10 and 100
@example(spec={"kind": "constant", "s": 2}, k_max=100, dps=15, rules=("example1", "example1_psi"))
def test_dimension_series_both_formulas(spec, k_max, dps, rules):
    seq = make_sequence(spec)
    first, second = (SymbolModel(seq, make_row_rule(r), k_max) for r in rules)
    specs = [(first, MEASURE_ENTROPY), (second, SPECTRUM_COUNT)]
    measure, spectrum = dimension_series(specs, k_max, dps, liminf=True)
    with working_dps(dps):
        h = m = square = mpf(0)
        want_measure, want_spectrum = [], []
        for k, n, log_n, before, prefix in ref_walk(spec, k_max):
            h += first.row(k, n).entropy()
            m += ln_int(second.row(k, n).support_count())
            want_measure.append(h / prefix)
            want_spectrum.append(m / prefix)
            if k > 1:
                r = log_n / before
                square += r * r
    window = k_max - trailing_decade_start(k_max) + 1
    for series, want in [(measure, want_measure), (spectrum, want_spectrum)]:
        # each d_k is kept as its text alone; the values that stay raw (the
        # square sum, the suffix-minimum runs, the liminf) keep their bits
        assert [k for k, _ in series.points] == list(range(1, k_max + 1))
        assert series.texts == [mpf_text(v, dps) for v in want]
        assert series.precondition_partial._mpf_ == square._mpf_
        assert [(k, v._mpf_) for k, v in series.envelope] == suffix_minimum_runs(want)
        assert final_decade_liminf(series).estimate._mpf_ == min(want[-window:])._mpf_
    # the same walk without the rider keeps the same texts and no envelope
    for plain, series in zip(dimension_series(specs, k_max, dps), (measure, spectrum)):
        assert plain.texts == series.texts and plain.envelope is None


# (sequence, row rule) pairs for the ratio series, with zero-mass digits:
# point-mass rows and custom rows on a constant base
RATIO_CASES = st.one_of(
    st.tuples(SEQUENCES, st.sampled_from(ROW_RULES)),
    st.tuples(
        st.just({"kind": "constant", "s": 3}),
        st.sampled_from([
            {"custom": [[0, "1/2", "1/2"], ["1/3", "1/3", "1/3"]]},
            {"custom": [["1/4", "3/4", 0]]},
            {"custom": [[1, 0, 0], ["1/2", 0, "1/2"]]},
        ]),
    ),
)


@settings(max_examples=60, deadline=None)
@given(case=RATIO_CASES, k_max=K_MAX, dps=DPS, seed=st.integers(0, 2**32), zero_bias=st.floats(0, 1))
@example(case=({"kind": "arithmetic", "a1": 2, "d": 1}, "example1"), k_max=120, dps=30, seed=0, zero_bias=0.0)
def test_ratio_series_values_and_flags(case, k_max, dps, seed, zero_bias):
    spec, rule = case
    seq = make_sequence(spec)
    model = SymbolModel(seq, make_row_rule(rule), k_max)
    rng = random.Random(seed)
    digits = DigitString(seq, tuple(
        0 if rng.random() < zero_bias else rng.randrange(n) for n in seq.iter_terms(k_max)
    ))
    got = ratio_series(model, digits, k_max, dps)
    with working_dps(dps):
        want = []
        log_mu = mpf(0)
        for k, n, _, _, prefix in ref_walk(spec, k_max):
            log_mu += model.row(k, n).logp(digits.digits[k - 1])
            if log_mu == LOG_ZERO:
                want.append((mpf(0), FLAG_ZERO_MEASURE))
            elif log_mu == 0:
                want.append((mpf(0), FLAG_UNIT_MEASURE))
            else:
                want.append((prefix / (-log_mu), None))
    assert [p.k for p in got.points] == list(range(1, k_max + 1))
    assert [p.flag for p in got.points] == [flag for _, flag in want]
    assert bits(p.value for p in got.points) == bits(v for v, _ in want)
    # the written rows: flagged points carry the flag as a third element
    assert list(got.rows()) == [
        (k, mpf_text(v, dps), flag) if flag else (k, mpf_text(v, dps)) for k, (v, flag) in enumerate(want, 1)
    ]


DIGIT_SETS = [
    lambda seq: DigitSetSpec.full(seq),
    lambda seq: DigitSetSpec.with_exceptions(seq, (0,)),
    lambda seq: DigitSetSpec.with_exceptions(seq, (0, 1), exception_ranks=(2, 3, 7)),
    lambda seq: DigitSetSpec.constant_digits(seq, (0, 1)),
]


@settings(max_examples=60, deadline=None)
@given(spec=SEQUENCES, k_max=K_MAX, dps=DPS, make_set=st.sampled_from(DIGIT_SETS))
@example(spec={"kind": "counterexample"}, k_max=120, dps=50, make_set=DIGIT_SETS[1])
def test_box_dimension_slope_residual_and_series(spec, k_max, dps, make_set):
    E = make_set(make_sequence(spec))
    got = box_dimension_estimate(E, k_max, dps)
    with working_dps(dps):
        points, log_count = [], mpf(0)
        for k, n, _, _, prefix in ref_walk(spec, k_max):
            log_count += ln_int(E.admissible_count(k, n))
            if k >= 2:
                points.append((k, prefix, log_count))
        m = len(points)
        mean_x = sum(x for _, x, _ in points) / m
        mean_y = sum(y for _, _, y in points) / m
        sxx = sum((x - mean_x) ** 2 for _, x, _ in points)
        sxy = sum((x - mean_x) * (y - mean_y) for _, x, y in points)
        slope = sxy / sxx
        intercept = mean_y - slope * mean_x
        ss_res = sum((y - (intercept + slope * x)) ** 2 for _, x, y in points)
        residual = mp.sqrt(ss_res / m)
        series = [y / x for _, x, y in points]
    assert got.slope._mpf_ == slope._mpf_
    assert got.residual._mpf_ == residual._mpf_
    assert [k for k, _ in got.series] == [k for k, _, _ in points]
    assert bits(r for _, r in got.series) == bits(series)
    assert list(got.to_jsonable()["series"]) == [(k, mpf_text(r, dps)) for (k, _, _), r in zip(points, series)]


EXCEPTIONS = DIGIT_SETS[1]  # digit 0 alone at the powers of ten


@pytest.mark.parametrize("dps", [15, 50, 120])
@pytest.mark.parametrize("spec, k_max, make_set", [
    ({"kind": "constant", "s": 3}, 471, EXCEPTIONS),
    ({"kind": "constant", "s": 3}, 2601, EXCEPTIONS),
    # ln P_k = k ln 3 and k_max even: mean_x is within an ulp of the middle
    # sample, so one dx**2 is near 2**-377 at 50 digits
    ({"kind": "constant", "s": 3}, 1956, EXCEPTIONS),
    ({"kind": "counterexample"}, 1956, EXCEPTIONS),
    # exactly linear data: the residual is pure rounding noise
    ({"kind": "constant", "s": 3}, 3000, lambda seq: DigitSetSpec.constant_digits(seq, (0, 2))),
    # one admissible digit: every ln N_k is 0
    ({"kind": "constant", "s": 3}, 1000, lambda seq: DigitSetSpec.constant_digits(seq, (1,))),
    # two digits at the last rank alone: the mean of ln N_k is finer than every point
    ({"kind": "constant", "s": 3}, 1000, lambda seq: DigitSetSpec.from_table(seq, [[0]] * 999 + [[0, 2]])),
], ids=["constant3-exceptions-471", "constant3-exceptions-2601", "constant3-exceptions-1956", "counterexample-1956",
        "cantor-3000", "one-digit-1000", "last-rank-pair-1000"])
def test_box_dimension_bits_on_long_walks(spec, k_max, make_set, dps):
    # The operator-form reference above, past its K_MAX and at 120 digits.
    test_box_dimension_slope_residual_and_series.hypothesis.inner_test(spec, k_max, dps, make_set)
