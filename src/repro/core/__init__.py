"""The paper's primary contribution: rank distributions and their
statistics (expected, median, quantile ranks), the efficient exact and
pruned algorithms in both uncertainty models, the ranking-property
checkers, and the unified semantics registry.
"""

from repro.core.attr_expected_rank import (
    a_erank,
    a_erank_prune,
    attribute_expected_ranks,
    attribute_expected_ranks_vectorized,
)
from repro.core.attr_mq_rank import (
    a_mqrank,
    a_mqrank_prune,
    attribute_rank_distribution,
    attribute_rank_distributions,
    attribute_rank_distributions_dp,
)
from repro.core.columnar import (
    AttributeColumns,
    TupleColumns,
    attribute_rank_pmf_matrix,
    rank_position_probability_matrix,
    rank_quantiles,
    tuple_present_rank_pmf_matrix,
    tuple_rank_pmf_matrix,
)
from repro.core.properties import (
    PROPERTY_NAMES,
    PropertyCheck,
    audit_method,
    boost_tuple,
    check_containment,
    check_exact_k,
    check_stability,
    check_unique_ranking,
    check_value_invariance,
    diminish_tuple,
    property_matrix,
)
from repro.core.explain import (
    PairExplanation,
    explain_pair,
    rank_contributions,
)
from repro.core.monte_carlo import mc_expected_rank
from repro.core.prf import (
    exponential_weights,
    linear_weights,
    position_weights,
    prf_rank,
    prf_scores,
    step_weights,
)
from repro.core.rank_distribution import RankDistribution
from repro.core.result import RankedItem, TopKResult
from repro.core.sensitivity import (
    ChurnReport,
    perturb_relation,
    stability_profile,
    topk_churn,
)
from repro.core.semantics import (
    available_methods,
    method_supports,
    rank,
    register_method,
)
from repro.core.reference import (
    attribute_expected_ranks_quadratic,
    tuple_expected_ranks_quadratic,
)
from repro.core.tuple_expected_rank import (
    t_erank,
    t_erank_prune,
    tuple_expected_ranks,
    tuple_expected_ranks_vectorized,
)
from repro.core.tuple_mq_rank import (
    t_mqrank,
    t_mqrank_prune,
    tuple_present_rank_pmf,
    tuple_rank_distribution,
    tuple_rank_distributions,
    tuple_rank_distributions_dp,
)

__all__ = [
    "AttributeColumns",
    "PROPERTY_NAMES",
    "PropertyCheck",
    "RankDistribution",
    "RankedItem",
    "TopKResult",
    "TupleColumns",
    "a_erank",
    "a_erank_prune",
    "a_mqrank",
    "a_mqrank_prune",
    "attribute_expected_ranks",
    "attribute_expected_ranks_quadratic",
    "attribute_expected_ranks_vectorized",
    "attribute_rank_distribution",
    "attribute_rank_distributions",
    "attribute_rank_distributions_dp",
    "attribute_rank_pmf_matrix",
    "audit_method",
    "available_methods",
    "ChurnReport",
    "PairExplanation",
    "boost_tuple",
    "check_containment",
    "check_exact_k",
    "check_stability",
    "check_unique_ranking",
    "check_value_invariance",
    "diminish_tuple",
    "perturb_relation",
    "explain_pair",
    "exponential_weights",
    "linear_weights",
    "mc_expected_rank",
    "method_supports",
    "position_weights",
    "prf_rank",
    "prf_scores",
    "property_matrix",
    "rank",
    "rank_contributions",
    "rank_position_probability_matrix",
    "rank_quantiles",
    "register_method",
    "stability_profile",
    "step_weights",
    "t_erank",
    "topk_churn",
    "t_erank_prune",
    "t_mqrank",
    "t_mqrank_prune",
    "tuple_expected_ranks",
    "tuple_expected_ranks_quadratic",
    "tuple_expected_ranks_vectorized",
    "tuple_present_rank_pmf",
    "tuple_present_rank_pmf_matrix",
    "tuple_rank_distribution",
    "tuple_rank_distributions",
    "tuple_rank_distributions_dp",
    "tuple_rank_pmf_matrix",
]
