"""Every rank walk reads each term n_k once and passes it on."""

import random
from dataclasses import dataclass, field
from fractions import Fraction

import pytest

from cantordim import (
    ArithmeticSequence,
    CodecError,
    DigitSetSpec,
    DigitString,
    SequenceError,
    SymbolModel,
    box_dimension_estimate,
    cdf,
    dim_measure_series,
    encode,
    faithfulness_diagnostic,
    is_power_of_ten,
    make_row_rule,
    make_sequence,
    sample_v_element,
    v_extreme_element,
)
from cantordim.codec import MAX_RANK


@dataclass(frozen=True)
class CountingArithmetic(ArithmeticSequence):
    """n_k = a1 + (k-1) d, recording the rank of every term read: each term
    an ``iter_terms`` pass hands out, which is also what ``term(k)`` reads."""

    reads: list = field(default_factory=list, compare=False)

    def iter_terms(self, k_max: int, start: int = 1):
        for k, n in enumerate(super().iter_terms(k_max, start), start):
            self.reads.append(k)
            yield n


K = 300


@pytest.mark.parametrize("pipeline", [
    lambda seq: faithfulness_diagnostic(seq, K, dps=15),
    lambda seq: dim_measure_series(SymbolModel(seq, make_row_rule("example1"), K), K, dps=15),
    lambda seq: box_dimension_estimate(DigitSetSpec.with_exceptions(seq, (0, 1)), K, dps=15),
    # the greedy digits stop near rank 20 at 15 digits; the rest are still read
    lambda seq: cdf(SymbolModel(seq, make_row_rule("uniform"), K), Fraction(1, 3), K, dps=15),
    lambda seq: cdf(SymbolModel(seq, make_row_rule("uniform"), K), 1, K, dps=15),
    lambda seq: encode(Fraction(2, 7), seq, K),
    lambda seq: v_extreme_element(seq, K),
    lambda seq: sample_v_element(seq, K, random.Random(0)),
], ids=["faithfulness", "dim-measure", "boxcount", "cdf", "cdf-at-1", "encode", "v-extreme", "v-sample"])
def test_each_pipeline_reads_each_term_once_in_rank_order(pipeline):
    seq = CountingArithmetic(2, Fraction(1))
    pipeline(seq)
    assert seq.reads == list(range(1, K + 1))


@pytest.mark.parametrize("spec, message, x", [
    pytest.param(spec, message, x, id=name + at)
    for spec, message, name in [
        ({"kind": "custom", "table": [10**9] * 5}, r"^rank 6 exceeds the 5-term custom table \(no tail rule\)$",
         "tail-less-table"),
        ({"kind": "geometric", "b1": 2**30, "q": "3/2"}, r"^term\(32\) = \d+/2 is not an integer$", "non-integer-term"),
    ]
    for x, at in [(Fraction(1, 3), ""), (Fraction(1), "-at-1")]
])
def test_cdf_reads_the_terms_past_its_early_stop(spec, message, x):
    # uniform rows over at least 10**9 digits take the prefix measure below
    # the skip floor (10**-27 at 15 digits plus guard digits) by rank 4, so
    # the walk stops there and only the terms read after the stop can raise;
    # at x = 1 no row is built, and the terms are read all the same
    model = SymbolModel(make_sequence(spec), make_row_rule("uniform"), 40)
    with pytest.raises(SequenceError, match=message):
        cdf(model, x, 40, dps=15)


@pytest.mark.parametrize("x", [Fraction(1, 3), Fraction(1)], ids=["x=1/3", "x=1"])
def test_cdf_checks_the_rank_cap_at_every_x(x):
    model = SymbolModel(make_sequence({"kind": "constant", "s": 2}), make_row_rule("uniform"), MAX_RANK + 1)
    with pytest.raises(CodecError, match=rf"^rank {MAX_RANK + 1} exceeds MAX_RANK = {MAX_RANK}$"):
        cdf(model, x, MAX_RANK + 1, dps=15)


def test_strings_built_from_one_term_pass_match_the_validated_reference():
    # encode and the V elements skip DigitString's validation walk; their
    # digits must be what a validated construction, drawing the same random
    # numbers in rank order, would hold
    seq = make_sequence({"kind": "arithmetic", "a1": 2, "d": 1})
    x = Fraction(2, 7)
    greedy = []
    for k in range(1, K + 1):
        a, x = divmod(x * seq.term(k), 1)
        greedy.append(int(a))
    rng = random.Random(3)
    sampled = [0 if is_power_of_ten(k) else rng.randrange(seq.term(k)) for k in range(1, K + 1)]
    extreme = [0 if is_power_of_ten(k) else seq.term(k) - 1 for k in range(1, K + 1)]
    for built, digits in [
        (encode(Fraction(2, 7), seq, K), greedy),
        (sample_v_element(seq, K, random.Random(3)), sampled),
        (v_extreme_element(seq, K), extreme),
    ]:
        assert built == DigitString(seq, digits)
