"""Computational toolkit for Cantor series expansions.

Exact digit codecs, faithfulness diagnostics for cylinder covering
families, dimension series of digit-product measures, a covering-based
dimension estimator, and length/measure ratio analysis, all on
arbitrary-precision log-domain arithmetic.
"""

from .billingsley import (
    Example1Report,
    RatioPoint,
    RatioSeries,
    billingsley_ratio,
    example1_report,
    ratio_series,
    sample_v_element,
    v_extreme_element,
)
from .codec import (
    Cylinder,
    CodecError,
    DigitString,
    cylinder,
    decode,
    encode,
    iter_digit_strings,
)
from .estimator import (
    BoxCountEstimate,
    DigitSetSpec,
    EstimatorError,
    box_dimension_estimate,
    count_cylinders,
)
from .logreal import LogReal, log_sum
from .measure import (
    DimensionSeries,
    DpReport,
    LiminfEstimate,
    ModelError,
    SymbolModel,
    cdf,
    cylinder_measure_log,
    dim_measure_series,
    dim_spectrum_series,
    dp_necessary_conditions,
    example1_model,
    example1_psi_model,
    liminf_estimate,
    make_row_rule,
)
from .precision import default_dps, eps_for, working_dps
from .sequences import (
    ArithmeticSequence,
    BasicSequence,
    ConstantSequence,
    CounterexampleSequence,
    CustomSequence,
    EnvelopeFit,
    FaithfulnessReport,
    GeometricSequence,
    SequenceError,
    StirlingBounds,
    SubgeometricFit,
    envelope_bound_monotone_from,
    envelope_ratio_bound,
    faithfulness_diagnostic,
    faithfulness_ratio,
    is_power_of_ten,
    log_prefix_product,
    make_sequence,
    stirling_log_factorial,
)

__version__ = "0.1.0"
