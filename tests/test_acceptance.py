"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
Tolerances are pinned here, not calibrated elsewhere.
"""

import json
import random
import time

from mpmath import mp, mpf

from cantordim import (
    DigitSetSpec,
    DigitString,
    SymbolModel,
    box_dimension_estimate,
    cdf,
    cylinder,
    cylinder_measure_log,
    decode,
    dim_measure_series,
    dim_spectrum_series,
    encode,
    envelope_bound_monotone_from,
    envelope_ratio_bound,
    eps_for,
    example1_report,
    faithfulness_diagnostic,
    faithfulness_ratio,
    iter_digit_strings,
    make_row_rule,
    make_sequence,
    stirling_log_factorial,
    working_dps,
)
from cantordim.cli import run as cli_run
from cantordim.precision import mpf_text

DPS = 50


def finish(num, desc, failures, elapsed=None):
    status = "PASS" if not failures else "FAIL"
    timing = f" ({elapsed:.2f}s)" if elapsed is not None else ""
    print(f"[criterion {num:02d}] {status} - {desc}{timing}")
    assert not failures, failures


def check(cond, msg, failures):
    if not cond:
        failures.append(msg)


# ---------------------------------------------------------------------------


def test_criterion_01_bounded_ratio_closed_form():
    failures = []
    start = time.perf_counter()
    seq = make_sequence({"kind": "constant", "s": 2})
    report = faithfulness_diagnostic(seq, 1000, dps=DPS)
    elapsed = time.perf_counter() - start
    # The report keeps each r_k as its text; the values come from the oracle,
    # whose bits the sweep's ratios share.
    with working_dps(DPS):
        tol = eps_for(DPS)
        for k, text in enumerate(report.ratios, 2):
            r = faithfulness_ratio(seq, k, dps=DPS)
            check(text == mpf_text(r, DPS), f"r_{k} text {text} is not the oracle's", failures)
            check(abs(r - mpf(1) / (k - 1)) <= tol, f"r_{k} off closed form", failures)
    check(len(report.ratios) == 999, f"{len(report.ratios)} ratios", failures)
    check(report.verdict == "criterion_met_numerically",
          f"verdict {report.verdict}", failures)
    check(elapsed < 1.0, f"sweep runtime {elapsed:.2f}s >= 1s", failures)
    finish(1, "constant(2): r_k = 1/(k-1) exactly, verdict met", failures, elapsed)


def test_criterion_02_counterexample_violation():
    failures = []
    start = time.perf_counter()
    seq = make_sequence({"kind": "counterexample"})
    with working_dps(DPS):
        # direct big-integer oracle for r_10
        want = mp.ln(mpf(10**10)) / mp.ln(mpf(2**9))
        got = faithfulness_ratio(seq, 10, dps=DPS)
        check(abs(got - want) <= mpf("1e-12"), f"r_10 = {got} vs {want}", failures)
        for s in (1, 2, 3):
            r = faithfulness_ratio(seq, 10**s, dps=DPS)
            check(r > 1, f"r_(10^{s}) = {r} not > 1", failures)
        report = faithfulness_diagnostic(seq, 1000, dps=DPS)
        check(report.verdict == "criterion_violated", f"verdict {report.verdict}", failures)
    elapsed = time.perf_counter() - start
    check(elapsed < 5.0, f"runtime {elapsed:.2f}s >= 5s", failures)
    finish(2, "counterexample: r_10 oracle match, spikes > 1, verdict violated",
           failures, elapsed)


def test_criterion_03_envelope_bound():
    # The closed-form bound for envelope (b1=2, q=3) dominates r_k of
    # n_k = k+1 on [10, 1000] and decreases monotonically from its computed
    # turnover; the sequence ratios (for n_k and for the envelope's own
    # geometric progression) are below 0.05 by k = 200.  The bound itself
    # crosses 0.05 only near k ~ 1e10; see the decisions ledger.
    failures = []
    seq = make_sequence({"kind": "arithmetic", "a1": 2, "d": 1})
    geo = make_sequence({"kind": "geometric", "b1": 2, "q": 3})
    with working_dps(DPS):
        k0 = envelope_bound_monotone_from(2, 3, 1000, dps=DPS)
        check(k0 <= 200, f"bound not monotone by 200 (K0 = {k0})", failures)
        prev = None
        for k in range(10, 1001):
            bound = envelope_ratio_bound(k, 2, 3, dps=DPS)
            r = faithfulness_ratio(seq, k, dps=DPS)
            check(bound >= r, f"bound fails to dominate at k = {k}", failures)
            if prev is not None and k > k0:
                check(bound < prev, f"bound not decreasing at k = {k}", failures)
            prev = bound
        r200 = faithfulness_ratio(seq, 200, dps=DPS)
        check(r200 < mpf("0.05"), f"r_200 = {r200} not below 0.05", failures)
        g200 = faithfulness_ratio(geo, 200, dps=DPS)
        check(g200 < mpf("0.05"), f"envelope-sequence r_200 = {g200}", failures)
    finish(3, "progression envelope: bound dominates and decreases; ratios < 0.05 by k=200",
           failures)


def test_criterion_04_stirling_brackets():
    failures = []
    with working_dps(DPS):
        fact = 1
        for m in range(1, 501):
            fact *= m
            exact = mp.ln(mpf(fact))
            bounds = stirling_log_factorial(m, dps=DPS)
            check(bounds.lower <= exact <= bounds.upper, f"bracket fails at m = {m}",
                  failures)
    finish(4, "Stirling interval contains exact ln(m!) for 1 <= m <= 500", failures)


def test_criterion_05_codec_roundtrip_and_tiling():
    failures = []
    rng = random.Random(20240917)
    seqs = [
        make_sequence({"kind": "constant", "s": 2}),
        make_sequence({"kind": "constant", "s": 5}),
        make_sequence({"kind": "arithmetic", "a1": 2, "d": 1}),
        make_sequence({"kind": "arithmetic", "a1": 3, "d": 2}),
        make_sequence({"kind": "geometric", "b1": 2, "q": 2}),
        make_sequence({"kind": "geometric", "b1": 3, "q": 3}),
    ]
    for _ in range(10_000):
        seq = rng.choice(seqs)
        rank = rng.randrange(0, 9)
        digits = tuple(rng.randrange(seq.term(i)) for i in range(1, rank + 1))
        x = decode(DigitString(seq, digits))
        if encode(x, seq, rank).digits != digits:
            failures.append(f"roundtrip failed for {digits} on {seq.descriptor()}")
            break
    for seq, rank in ((seqs[0], 8), (seqs[2], 6), (seqs[4], 5)):
        cyls = [cylinder(d) for d in iter_digit_strings(seq, rank)]
        check(sum(c.length for c in cyls) == 1, "lengths do not sum to 1", failures)
        check(all(a.right == b.left for a, b in zip(cyls, cyls[1:])),
              "tiling has gaps or overlaps", failures)
    finish(5, "10^4 exact roundtrips; rank-k cylinders tile [0,1] exactly", failures)


def test_criterion_06_classical_cantor_cross_check():
    failures = []
    seq = make_sequence({"kind": "constant", "s": 3})
    with working_dps(DPS):
        want = mp.ln(2) / mp.ln(3)
        model = SymbolModel(seq, make_row_rule({"custom": [["1/2", 0, "1/2"]]}), 20)
        series = dim_spectrum_series(model, 20, dps=DPS)
        for k, v in series.points:
            check(abs(mpf(v) - want) <= mpf("1e-12"), f"spectrum series off at k = {k}", failures)
        check(abs(want - mpf("0.6309297")) < mpf("1e-7"), "ln2/ln3 sanity", failures)
        est = box_dimension_estimate(DigitSetSpec.constant_digits(seq, (0, 2)), 12, dps=DPS)
        check(abs(est.slope - want) <= mpf("1e-9"), f"slope {est.slope}", failures)
    finish(6, "Cantor set: spectrum series = ln2/ln3 to 1e-12; estimator slope matches to 1e-9",
           failures)


def test_criterion_07_uniform_dimension_one():
    failures = []
    kinds = [
        {"kind": "constant", "s": 2},
        {"kind": "arithmetic", "a1": 2, "d": 1},
        {"kind": "geometric", "b1": 2, "q": 2},
        {"kind": "counterexample"},
        {"kind": "custom", "table": [2, 3, 4], "tail": {"kind": "constant", "s": 5}},
    ]
    with working_dps(DPS):
        tol = eps_for(DPS)
        for spec in kinds:
            seq = make_sequence(spec)
            model = SymbolModel(seq, make_row_rule("uniform"), depth_cap=200)
            series = dim_measure_series(model, 200, dps=DPS)
            for k, v in series.points:
                check(abs(mpf(v) - 1) <= tol,
                      f"{spec['kind']}: d_{k} = {v} not 1 within eps", failures)
    finish(7, "uniform rows: measure-dimension series = 1 to eps for every sequence kind",
           failures)


def test_criterion_08_image_length_identity():
    failures = []
    rng = random.Random(31337)
    with working_dps(DPS):
        tol = mpf(10) ** (-(DPS - 10))
        models = [
            SymbolModel(make_sequence({"kind": "constant", "s": 3}),
                        make_row_rule({"custom": [["1/2", 0, "1/2"]]}), 10),
            SymbolModel(make_sequence({"kind": "constant", "s": 2}),
                        make_row_rule({"custom": [["1/4", "3/4"]]}), 10),
            SymbolModel(make_sequence({"kind": "arithmetic", "a1": 2, "d": 1}),
                        make_row_rule("uniform"), 10),
        ]
        for _ in range(1000):
            m = rng.choice(models)
            rank = rng.randrange(1, 9)
            digits = tuple(rng.randrange(m.seq.term(i)) for i in range(1, rank + 1))
            d = DigitString(m.seq, digits)
            c = cylinder(d)
            increment = cdf(m, c.right, rank, dps=DPS) - cdf(m, c.left, rank, dps=DPS)
            mu = cylinder_measure_log(m, d, dps=DPS)
            want = mpf(0) if mu.is_zero() else mu.to_mpf()
            if abs(increment - want) > tol:
                failures.append(f"identity fails for {digits} on {m.descriptor()['rows']}")
                break
    finish(8, "cdf(right) - cdf(left) equals cylinder measure within 10^-(dps-10)",
           failures)


def test_criterion_09_example1_reproduction():
    failures = []
    start = time.perf_counter()
    report = example1_report(100, seed=7, dps=DPS)
    with working_dps(DPS):
        # (a) measure dimension: trailing estimate >= 0.95, rising between spikes
        check(report.measure_liminf.estimate >= mpf("0.95"),
              f"measure estimate {report.measure_liminf.estimate}", failures)
        mvalues = {k: mpf(text) for k, text in report.measure_series.points}
        check(all(mvalues[k + 1] > mvalues[k] for k in range(11, 99)),
              "measure series not increasing between spikes", failures)
        # (b) spectrum dimension of the companion model
        check(report.spectrum_liminf.estimate >= mpf("0.95"),
              f"spectrum estimate {report.spectrum_liminf.estimate}", failures)
        # (c) ratio series: exact 1 through rank 9, collapse at spike ranks
        extreme = {p.k: p.value for p in report.ratio_extreme.points}
        check(extreme[9] == 1, "b_9 not exactly 1", failures)
        check(extreme[10] < mpf("1e-8"), f"b_10 = {extreme[10]}", failures)
        for series in [report.ratio_extreme] + report.ratio_samples:
            values = {p.k: p.value for p in series.points}
            spike_max = max(values[10], values[100])
            check(spike_max < mpf("1e-8"), f"spike-rank max {spike_max}", failures)
        # (d) necessary conditions met, sufficiency hypotheses not applicable
        check(report.dp_report.verdict == "necessary_conditions_met_only",
              f"dp verdict {report.dp_report.verdict}", failures)
        # (e) headline prediction: image dimension 0
        check(float(report.headline()["predicted_image_dimension"]) < 1e-8,
              "predicted image dimension not ~0", failures)
    elapsed = time.perf_counter() - start
    check(elapsed < 60.0, f"runtime {elapsed:.2f}s >= 60s", failures)
    finish(9, "counterexample pipeline: dims near 1, ratios collapse, verdict met-only",
           failures, elapsed)


def test_criterion_10_determinism(tmp_path):
    failures = []
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        code = cli_run(["example1", "--k-max", "100", "--seed", "7", "--out", str(path)])
        check(code == 0, f"cli exit {code}", failures)
    check(a.read_bytes() == b.read_bytes(), "reports differ between runs", failures)
    payload = json.loads(a.read_text())
    check(payload["seed"] == 7, "seed not recorded", failures)
    finish(10, "example1 --k-max 100 --seed 7 is byte-identical across runs", failures)
