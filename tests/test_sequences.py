"""Sequence generators, ratio sweeps, Stirling bracketing, envelopes."""

import itertools
import json
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from cantordim import (
    envelope_bound_monotone_from,
    envelope_ratio_bound,
    eps_for,
    faithfulness_diagnostic,
    faithfulness_ratio,
    log_prefix_product,
    make_sequence,
    stirling_log_factorial,
    working_dps,
)
from cantordim import cli
from cantordim.precision import mpf_text
from cantordim.sequences import (
    ArithmeticSequence,
    VERDICT_INCONCLUSIVE,
    VERDICT_MET,
    VERDICT_VIOLATED,
    VIOLATION_BURN_IN,
    SequenceError,
    trailing_decade_start,
)

CONSTANT2 = {"kind": "constant", "s": 2}
ARITH = {"kind": "arithmetic", "a1": 2, "d": 1}
GEO = {"kind": "geometric", "b1": 2, "q": 2}
COUNTER = {"kind": "counterexample"}


# ---------------------------------------------------------------------------
# construction and terms
# ---------------------------------------------------------------------------


def test_constant_terms():
    seq = make_sequence(CONSTANT2)
    assert seq.term(5) == 2
    assert seq.eventually_bounded() is True


def test_arithmetic_terms():
    seq = make_sequence(ARITH)
    assert [seq.term(k) for k in (1, 2, 9)] == [2, 3, 10]


def test_counterexample_spikes_are_lazy():
    seq = make_sequence(COUNTER)
    assert seq.term(10) == 10**10
    assert seq.term(11) == 2
    assert seq.term(100) == 10**100
    assert seq.term(1) == 2


def test_geometric_terms_and_log_terms():
    seq = make_sequence(GEO)
    assert seq.term(5) == 2**5
    with working_dps(50):
        assert abs(seq.log_term(20, seq.term(20)) - mp.ln(mpf(2**20))) <= eps_for(50)


@pytest.mark.parametrize("spec, k_max", [
    ({"kind": "geometric", "b1": 2, "q": 3}, 400),  # stepped in ints
    ({"kind": "geometric", "b1": 5, "q": "7/1"}, 200),
    ({"kind": "geometric", "b1": 2**20000, "q": "3/2"}, 400),  # stepped as Fractions
])
@pytest.mark.parametrize("start", [1, 2, 173])
def test_geometric_iter_terms_are_the_terms(spec, k_max, start):
    seq = make_sequence(spec)
    terms = list(seq.iter_terms(k_max, start))
    assert terms == [seq.term(k) for k in range(start, k_max + 1)]
    assert {type(n) for n in terms} == {int}


def test_a_non_integer_geometric_term_keeps_its_message(capsys):
    seq = make_sequence({"kind": "geometric", "b1": 16, "q": "3/2"})
    message = r"^term\(6\) = 243/2 is not an integer$"
    with pytest.raises(SequenceError, match=message):
        list(seq.iter_terms(10))
    with pytest.raises(SequenceError, match=message):
        list(seq.iter_terms(10, 4))
    with pytest.raises(SequenceError, match=message):
        seq.term(6)
    assert cli.run(["faithfulness", "--seq", json.dumps(seq.descriptor()), "--k-max", "20"]) == 1
    assert capsys.readouterr().err == "error: term(6) = 243/2 is not an integer\n"


@pytest.mark.parametrize(
    "spec",
    [
        {"kind": "constant", "s": 1},
        {"kind": "arithmetic", "a1": 1, "d": 1},
        {"kind": "arithmetic", "a1": 2, "d": 0},
        {"kind": "geometric", "b1": 1, "q": 2},
        {"kind": "geometric", "b1": 2, "q": "1/2"},
        {"kind": "custom", "table": [2, 1]},
        {"kind": "custom", "table": []},
        {"kind": "nonsense"},
    ],
)
def test_invalid_descriptors_rejected(spec):
    with pytest.raises(SequenceError):
        make_sequence(spec)


@pytest.mark.parametrize(
    "spec_with, field",
    [
        (lambda v: {"kind": "constant", "s": v}, "constant s"),
        (lambda v: {"kind": "arithmetic", "a1": v, "d": 1}, "arithmetic a1"),
        (lambda v: {"kind": "geometric", "b1": v, "q": 2}, "geometric b1"),
        (lambda v: {"kind": "custom", "table": [3, v]}, r"custom table term\(2\)"),
    ],
)
def test_integer_fields_are_not_truncated(spec_with, field):
    for bad in (3.5, 3.0, "3", True):
        with pytest.raises(SequenceError, match=f"^{field} must be an integer, got "):
            make_sequence(spec_with(bad))
    numpy = pytest.importorskip("numpy")
    seq = make_sequence(spec_with(numpy.int64(3)))
    assert type(seq.term(2)) is int
    assert json.loads(json.dumps(seq.descriptor())) == seq.descriptor()


def test_rational_parameters_need_integer_terms():
    seq = make_sequence({"kind": "arithmetic", "a1": 2, "d": "3/2"})
    assert seq.term(3) == 5  # 2 + 2*(3/2)
    assert type(seq.term(3)) is int
    with pytest.raises(SequenceError, match=r"term\(2\) = 7/2 is not an integer"):
        seq.term(2)


def test_custom_table_and_tail():
    capped = make_sequence({"kind": "custom", "table": [2, 3, 4]})
    assert capped.term(3) == 4
    assert capped.max_rank() == 3
    with pytest.raises(SequenceError):
        capped.term(4)
    tailed = make_sequence(
        {"kind": "custom", "table": [5, 5], "tail": {"kind": "constant", "s": 3}}
    )
    assert tailed.term(2) == 5
    assert tailed.term(7) == 3
    assert tailed.eventually_bounded() is True


def test_descriptor_round_trip():
    for spec in (CONSTANT2, ARITH, GEO, COUNTER,
                 {"kind": "custom", "table": [2, 3], "tail": GEO}):
        seq = make_sequence(spec)
        assert make_sequence(seq.descriptor()).descriptor() == seq.descriptor()


# ---------------------------------------------------------------------------
# log prefix products (oracles: exact big-integer products, then one log)
# ---------------------------------------------------------------------------


def test_log_prefix_constant():
    with working_dps(50):
        got = log_prefix_product(make_sequence(CONSTANT2), 10).log()
        assert abs(got - 10 * mp.ln(2)) <= eps_for(50)


def test_log_prefix_arithmetic_vs_factorial_oracle():
    with working_dps(50):
        got = log_prefix_product(make_sequence(ARITH), 9).log()
        assert abs(got - mp.ln(mpf(math.factorial(10)))) <= eps_for(50)


def test_log_prefix_counterexample_vs_bigint_oracle():
    with working_dps(50):
        got = log_prefix_product(make_sequence(COUNTER), 10).log()
        assert abs(got - mp.ln(mpf(2**9 * 10**10))) <= eps_for(50)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([CONSTANT2, ARITH, GEO, COUNTER, {"kind": "constant", "s": 7}]),
    st.integers(min_value=2, max_value=40),
)
def test_prefix_product_is_incremental(spec, k):
    seq = make_sequence(spec)
    with working_dps(50):
        whole = log_prefix_product(seq, k).log()
        stepwise = log_prefix_product(seq, k - 1).log() + seq.log_term(k, seq.term(k))
        assert abs(whole - stepwise) <= eps_for(50)


# ---------------------------------------------------------------------------
# ratios
# ---------------------------------------------------------------------------


def test_ratio_constant_closed_form():
    seq = make_sequence(CONSTANT2)
    with working_dps(50):
        assert abs(faithfulness_ratio(seq, 101) - mpf(1) / 100) <= eps_for(50)
        for k in (2, 17, 400):
            assert abs(faithfulness_ratio(seq, k) * (k - 1) - 1) <= eps_for(50)


def test_ratio_counterexample_vs_direct_oracle():
    seq = make_sequence(COUNTER)
    with working_dps(50):
        want = mp.ln(mpf(10**10)) / mp.ln(mpf(2**9))
        assert abs(faithfulness_ratio(seq, 10) - want) <= mpf("1e-12")
        assert abs(want - mpf("3.6910312165")) < mpf("1e-9")


def test_ratio_arithmetic_vs_factorial_oracle():
    seq = make_sequence(ARITH)
    with working_dps(50):
        want = mp.ln(11) / mp.ln(mpf(math.factorial(10)))
        got = faithfulness_ratio(seq, 10)
        assert abs(got - want) <= eps_for(50)
        assert abs(got - mpf("0.15875")) < mpf("1e-4")


def test_ratio_needs_k_at_least_2():
    with pytest.raises(SequenceError):
        faithfulness_ratio(make_sequence(CONSTANT2), 1)


# ---------------------------------------------------------------------------
# Stirling bracketing (oracle: exact big-integer factorial, then one log)
# ---------------------------------------------------------------------------


def test_stirling_brackets_exact_log_factorial_up_to_500():
    with working_dps(50):
        fact = 1
        for m in range(1, 501):
            fact *= m
            exact = mp.ln(mpf(fact))
            bounds = stirling_log_factorial(m)
            assert bounds.lower <= exact <= bounds.upper, m


def test_stirling_spot_values():
    with working_dps(50):
        assert stirling_log_factorial(1).contains(0)
        assert stirling_log_factorial(10).contains(mp.ln(mpf(3628800)))
        assert stirling_log_factorial(100).contains(mp.ln(mpf(math.factorial(100))))
        assert abs(mp.ln(mpf(math.factorial(100))) - mpf("363.73938")) < mpf("1e-4")


def test_stirling_rejects_nonpositive():
    with pytest.raises(SequenceError):
        stirling_log_factorial(0)


# ---------------------------------------------------------------------------
# the progression-envelope bound
# ---------------------------------------------------------------------------


def test_envelope_bound_dominates_ratio_and_decreases():
    seq = make_sequence(ARITH)
    with working_dps(50):
        prev = None
        k0 = envelope_bound_monotone_from(2, 3, 1000)
        assert k0 <= 10
        for k in range(10, 1001):
            bound = envelope_ratio_bound(k, 2, 3)
            assert bound >= faithfulness_ratio(seq, k), k
            if prev is not None:
                assert bound < prev, k
            prev = bound


def test_envelope_bound_domain():
    with pytest.raises(SequenceError):
        envelope_ratio_bound(3, 2, 3)
    with pytest.raises(SequenceError):
        envelope_ratio_bound(10, 1, 3)


@pytest.mark.parametrize(
    "spec",
    [
        {"kind": "arithmetic", "a1": 2, "d": 1},
        {"kind": "arithmetic", "a1": 3, "d": 2},
        {"kind": "geometric", "b1": 2, "q": 2},
    ],
)
def test_fitted_envelope_bound_dominates_any_conforming_sequence(spec):
    # whenever the progression envelope fits, the closed-form bound with
    # the fitted parameters sits above the observed ratios
    seq = make_sequence(spec)
    fit = faithfulness_diagnostic(seq, 300).envelope
    assert fit.fits
    with working_dps(50):
        k0 = envelope_bound_monotone_from(fit.b1, fit.q, 300)
        prev = None
        for k in range(10, 301):
            bound = envelope_ratio_bound(k, fit.b1, fit.q)
            assert bound >= faithfulness_ratio(seq, k), (spec, k)
            if prev is not None and k > k0:
                assert bound < prev, (spec, k)
            prev = bound


# ---------------------------------------------------------------------------
# the diagnostic sweep
# ---------------------------------------------------------------------------


def test_diagnostic_constant_met():
    rep = faithfulness_diagnostic(make_sequence(CONSTANT2), 1000)
    assert rep.verdict == "criterion_met_numerically"
    assert rep.violation_ranks == []
    assert len(rep.ratios) == 999  # r_2 .. r_1000, no gaps
    # r_k = 1/(k-1), so the partial sum of squares approaches pi^2/6
    with working_dps(50):
        assert abs(rep.square_summable_partial - mp.pi**2 / 6) < mpf("2e-3")


def test_diagnostic_counterexample_violated():
    rep = faithfulness_diagnostic(make_sequence(COUNTER), 1000)
    assert rep.verdict == "criterion_violated"
    assert rep.violation_ranks == [10, 100, 1000]
    assert rep.subgeometric.witness_q == 10
    assert rep.envelope.fits is False


def test_diagnostic_arithmetic_met_with_envelope():
    rep = faithfulness_diagnostic(make_sequence(ARITH), 1000)
    assert rep.verdict == "criterion_met_numerically"
    env = rep.envelope
    assert (env.fits, env.a1, env.d, env.b1, env.q) == (True, 2, 1, 2, 2)
    assert env.degenerate_geometric is False


def test_diagnostic_geometric_degenerate_flag():
    rep = faithfulness_diagnostic(make_sequence({"kind": "geometric", "b1": 3, "q": 1}), 100)
    assert rep.envelope.degenerate_geometric is True
    assert any("q = 1" in note for note in rep.notes)


def test_diagnostic_respects_custom_cap():
    seq = make_sequence({"kind": "custom", "table": [2, 3, 4, 5]})
    rep = faithfulness_diagnostic(seq, 4)
    assert len(rep.ratios) == 3
    with pytest.raises(SequenceError):
        faithfulness_diagnostic(seq, 5)


@pytest.mark.parametrize("tolerances", [{"met_tol": math.nan}, {"violation_threshold": math.inf}])
def test_diagnostic_rejects_non_finite_tolerances(tolerances):
    # NaN or infinity would make every comparison false and print as
    # non-JSON NaN/Infinity in the report.
    with pytest.raises(SequenceError, match="must be finite"):
        faithfulness_diagnostic(make_sequence(CONSTANT2), 10, **tolerances)


def oracle_ratios(seq, k_max: int) -> dict:
    """{k: r_k} for 2 <= k <= k_max from the operator-form oracle."""
    return {k: faithfulness_ratio(seq, k) for k in range(2, k_max + 1)}


def sweep_aggregates(rep) -> tuple:
    """What the sweep derives from its ratios, with every value as its bits."""
    return (
        rep.ratios,
        [(d, v._mpf_) for d, v in rep.decade_maxima],
        rep.violation_ranks,
        rep.final_decade_below_tol,
        rep.verdict,
        rep.square_summable_partial._mpf_,
    )


def post_hoc_aggregates(ratios: dict, k_max: int, met_tol: float, threshold: float, dps: int) -> tuple:
    """``sweep_aggregates`` recomputed afterwards from oracle ratios, in mpf operators."""
    with working_dps(dps):
        maxima = [(d, max(r for _, r in group))  # max() keeps the first maximal ratio
                  for d, group in itertools.groupby(ratios.items(), key=lambda p: trailing_decade_start(p[0]))]
        violation_ranks = [k for k, r in ratios.items() if k >= VIOLATION_BURN_IN and r >= threshold]
        final_ok = all(r < met_tol for k, r in ratios.items() if k >= trailing_decade_start(k_max))
        square = mpf(0)
        for r in ratios.values():
            square += r * r
        values = [v for _, v in maxima]
    if len(violation_ranks) >= 2:
        verdict = VERDICT_VIOLATED
    elif final_ok and all(b < a for a, b in zip(values, values[1:])):
        verdict = VERDICT_MET
    else:
        verdict = VERDICT_INCONCLUSIVE
    return (
        [mpf_text(r, dps) for r in ratios.values()],
        [(d, v._mpf_) for d, v in maxima],
        violation_ranks,
        final_ok,
        verdict,
        square._mpf_,
    )


@pytest.mark.parametrize("spec, k_max", [(COUNTER, 1000), (ARITH, 300), (GEO, 150)])
def test_tolerance_verdicts_match_a_float_comparison_oracle(spec, k_max):
    # Thresholds set to the double nearest a ratio of the series sit as close
    # to that ratio as a float can, so a lossy conversion would move a rank.
    seq = make_sequence(spec)
    ratios = oracle_ratios(seq, k_max)
    final_start = trailing_decade_start(k_max)
    for k in sorted({VIOLATION_BURN_IN, final_start, (final_start + k_max) // 2, k_max}):
        tol = float(ratios[k])
        rep = faithfulness_diagnostic(seq, k_max, met_tol=tol, violation_threshold=tol)
        assert sweep_aggregates(rep) == post_hoc_aggregates(ratios, k_max, tol, tol, rep.dps)


TAILS = st.sampled_from([
    COUNTER,
    CONSTANT2,
    {"kind": "arithmetic", "a1": 3, "d": 2},
    {"kind": "geometric", "b1": 2, "q": 2},
])


@settings(max_examples=40, deadline=None)
@given(
    table=st.lists(st.integers(min_value=2, max_value=10**6), min_size=1, max_size=12),
    tail=TAILS,
    k_max=st.integers(min_value=3, max_value=120),
    picks=st.tuples(st.integers(min_value=2, max_value=120), st.integers(min_value=2, max_value=120)),
)
@example(table=[2], tail=CONSTANT2, k_max=20, picks=(17, 17))  # r_17 = 1/16 exactly: a tie at both tolerances
def test_sweep_aggregates_match_a_post_hoc_oracle(table, tail, k_max, picks):
    # met_tol and the violation threshold each sit at (the double nearest)
    # one of the series' own ratios, where a single misplaced comparison shows.
    seq = make_sequence({"kind": "custom", "table": table, "tail": tail})
    ratios = oracle_ratios(seq, k_max)
    met_tol, threshold = (float(ratios[min(k, k_max)]) for k in picks)
    rep = faithfulness_diagnostic(seq, k_max, met_tol=met_tol, violation_threshold=threshold)
    assert sweep_aggregates(rep) == post_hoc_aggregates(ratios, k_max, met_tol, threshold, rep.dps)


def test_diagnostic_short_range_is_not_violated_by_one_spike():
    rep = faithfulness_diagnostic(make_sequence(COUNTER), 20)
    assert rep.verdict == "inconclusive"
    assert rep.violation_ranks == [10]


def test_subgeometric_witness_constant():
    assert faithfulness_diagnostic(make_sequence({"kind": "constant", "s": 7}), 50).subgeometric.witness_q == 7


def test_fits_are_exact_past_the_working_precision():
    # 10**70 has more digits than the default 50-digit precision carries
    rep = faithfulness_diagnostic(make_sequence({"kind": "constant", "s": 10**70}), 5)
    assert rep.subgeometric.witness_q == 10**70
    assert rep.envelope.q == 1


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=2, max_value=5000), min_size=3, max_size=8))
def test_witness_fits_match_a_linear_scan(table):
    # the diagnostic needs k_max >= 3, so tables start at three terms
    rep = faithfulness_diagnostic(make_sequence({"kind": "custom", "table": table}), len(table))
    ranked = list(enumerate(table, 1))
    witness = next(q for q in itertools.count(2) if all(n <= q**k for k, n in ranked))
    assert rep.subgeometric.witness_q == witness
    b1 = table[0]
    q = next(q for q in itertools.count(1) if all(n <= b1 * q ** (k - 1) for k, n in ranked))
    d = max(d for d in range(max(table)) if all(2 + (k - 1) * d <= n for k, n in ranked[1:]))
    env = rep.envelope
    assert (env.b1, env.q, env.degenerate_geometric) == (max(2, b1), q, q == 1)
    assert (env.fits, env.a1, env.d) == ((True, 2, d) if d >= 1 else (False, None, None))


def test_report_serializes_to_json_and_csv():
    # The ratios are a Series node, which the CLI writer renders.
    rep = faithfulness_diagnostic(make_sequence(ARITH), 50)
    payload = json.loads("".join(cli._json_pieces(rep.to_jsonable())))
    assert payload["verdict"] == rep.verdict
    assert payload["ratios"] == [[k, text] for k, text in enumerate(rep.ratios, 2)]


def _terms_or_error(terms):
    """The terms an iterator yields, then the SequenceError text it ends in (or None)."""
    out = []
    try:
        for n in terms:
            out.append(n)
    except SequenceError as exc:
        return out, str(exc)
    return out, None


@settings(max_examples=200, deadline=None)
@given(
    a1=st.integers(2, 10**30),
    d=st.fractions(min_value=1, max_value=10**6, max_denominator=12) | st.integers(1, 10**40),
    k_max=st.integers(0, 40),
)
@example(a1=2, d=1, k_max=70)
@example(a1=3, d=Fraction(3, 2), k_max=5)
def test_arithmetic_iter_terms_match_term_k(a1, d, k_max):
    # The pass steps the progression in integers; it must yield what term(k)
    # gives and raise term(k)'s SequenceError at the same rank.
    seq = ArithmeticSequence(a1, d)
    by_term = (seq.term(k) for k in range(1, k_max + 1))
    assert _terms_or_error(seq.iter_terms(k_max)) == _terms_or_error(by_term)


@pytest.mark.parametrize("spec, k_max", [
    (COUNTER, 10**4),
    ({"kind": "custom", "table": [2, 3, 5, 7, 11, 13], "tail": {"kind": "arithmetic", "a1": 3, "d": 2}}, 10**4),
    # the tail is read from the first rank past the table: its own term 7/2
    # at rank 2 is never asked for, and 19/2 at rank 6 raises
    ({"kind": "custom", "table": [4, 9, 3, 6], "tail": {"kind": "arithmetic", "a1": 2, "d": "3/2"}}, 10**4),
    ({"kind": "custom", "table": [2, 3], "tail": {"kind": "geometric", "b1": 2, "q": "3/2"}}, 40),
    ({"kind": "custom", "table": [7] * 10**4}, 10**4),
    ({"kind": "custom", "table": [7] * 9999}, 10**4),  # the error at the first rank past the table
    ({"kind": "custom", "table": [3, 4], "tail": {"kind": "custom", "table": [5, 6, 7]}}, 5),
], ids=["counterexample", "arithmetic-tail", "rational-tail", "geometric-tail", "table", "past-table",
        "custom-tail"])
def test_iter_terms_match_term_k(spec, k_max):
    # Every start a walk or a custom tail may read from gives term(k)'s
    # terms and raises term(k)'s SequenceError at the same rank.
    seq = make_sequence(spec)
    for start in (1, 2, 9, 10, 11, 101, k_max):
        by_term = (seq.term(k) for k in range(start, k_max + 1))
        assert _terms_or_error(seq.iter_terms(k_max, start)) == _terms_or_error(by_term)


def test_counterexample_log_term_is_read_from_the_term():
    seq = make_sequence(COUNTER)
    with working_dps(20):
        for k in (9, 10, 11, 99, 100, 1000):
            assert seq.log_term(k, seq.term(k)) == (k * mp.ln(10) if k in (10, 100, 1000) else mp.ln(2))
