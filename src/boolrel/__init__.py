"""Relevance analysis for Boolean functions.

Exact and sampled testing of delta-relevant variable subsets, exact and
greedy minimisation, probability-shifting gadget constructions, instance
reductions with brute-force oracle verification, and exact Shapley values
for the conditional-expectation characteristic function.

Every probability arising from uniform Boolean counting is a dyadic rational
and is handled exactly; floating point only appears in the Monte-Carlo
sampler's point estimates.  All public types are immutable and safe to share
across threads.
"""

from .counting import (
    ConditionalEvaluator,
    conditional_agreement_probability,
    conditional_satisfaction_probability,
    satisfaction_probability,
)
from .formula import (
    Assignment,
    EnumerationCapExceeded,
    Formula,
    FormulaSyntaxError,
    ReluNetwork,
    SubsetMask,
    TruthTable,
    compile_to_relu,
    evaluate,
    from_truth_table,
    parse,
    render,
    truth_table,
)
from .gadgets import (
    Gadget,
    GadgetConstructionError,
    ProbabilityShift,
    build_pi,
    lower_probability_gadget,
    raise_probability_gadget,
)
from .reductions import (
    InapproxParameters,
    ProblemInstance,
    ReductionCheck,
    inapprox_parameters,
    reduce_emajsat_to_ip1,
    reduce_ip1_to_ip2,
    reduce_ip2_to_relevant_input,
    reduce_sat_to_ip3,
    verify_reduction,
)
from .relevance import (
    DrawBudgetExceeded,
    RelevanceQuery,
    RelevanceReport,
    SampleCapExceeded,
    SearchCapExceeded,
    Verdict,
    amplified_sample_relevance,
    decide_gapped,
    decide_relevant_input,
    greedy_min_relevant,
    is_delta_relevant,
    sample_count,
    sample_relevance,
    solve_emajsat,
    solve_ip1,
    solve_ip2,
    solve_ip3,
    solve_min_relevant_input,
)
from .shapley import (
    CharacteristicEval,
    ShapleyVector,
    characteristic_value,
    relevance_from_characteristic,
    shapley_values,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # formula
    "Formula",
    "Assignment",
    "SubsetMask",
    "TruthTable",
    "ReluNetwork",
    "FormulaSyntaxError",
    "EnumerationCapExceeded",
    "parse",
    "render",
    "evaluate",
    "truth_table",
    "from_truth_table",
    "compile_to_relu",
    # counting
    "ConditionalEvaluator",
    "satisfaction_probability",
    "conditional_agreement_probability",
    "conditional_satisfaction_probability",
    # relevance
    "Verdict",
    "RelevanceQuery",
    "RelevanceReport",
    "SearchCapExceeded",
    "SampleCapExceeded",
    "DrawBudgetExceeded",
    "is_delta_relevant",
    "decide_relevant_input",
    "solve_min_relevant_input",
    "sample_count",
    "sample_relevance",
    "amplified_sample_relevance",
    "decide_gapped",
    "greedy_min_relevant",
    "solve_emajsat",
    "solve_ip1",
    "solve_ip2",
    "solve_ip3",
    # gadgets
    "Gadget",
    "ProbabilityShift",
    "GadgetConstructionError",
    "build_pi",
    "raise_probability_gadget",
    "lower_probability_gadget",
    # reductions
    "ProblemInstance",
    "ReductionCheck",
    "InapproxParameters",
    "reduce_emajsat_to_ip1",
    "reduce_ip1_to_ip2",
    "reduce_ip2_to_relevant_input",
    "reduce_sat_to_ip3",
    "inapprox_parameters",
    "verify_reduction",
    # shapley
    "CharacteristicEval",
    "ShapleyVector",
    "characteristic_value",
    "shapley_values",
    "relevance_from_characteristic",
]
