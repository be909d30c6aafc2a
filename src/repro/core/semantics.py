"""A single entry point over every ranking definition.

The paper's comparison (Section 4, Figure 5) puts seven ranking
definitions side by side.  This module registers them all under one
uniform signature —

    ``rank(relation, k, method="expected_rank", **options)``

— dispatching on the uncertainty model where the algorithms differ.
The registry is extensible: downstream code can
:func:`register_method` its own definition and immediately run the
property audit and the agreement experiments against it.
"""

from __future__ import annotations

from typing import Callable

from repro.baselines.expected_score import expected_score
from repro.baselines.global_topk import global_topk
from repro.baselines.probability_only import probability_only
from repro.baselines.pt_k import pt_k
from repro.baselines.u_kranks import u_kranks
from repro.baselines.u_topk import u_topk
from repro.core.attr_expected_rank import a_erank, a_erank_prune
from repro.core.attr_mq_rank import a_mqrank, a_mqrank_prune
from repro.core.result import TopKResult
from repro.core.tuple_expected_rank import t_erank, t_erank_prune
from repro.core.tuple_mq_rank import t_mqrank, t_mqrank_prune
from repro.exceptions import UnknownMethodError, UnsupportedModelError
from repro.models.attribute import AttributeLevelRelation
from repro.models.tuple_level import TupleLevelRelation

__all__ = [
    "rank",
    "register_method",
    "available_methods",
    "method_supports",
]

Relation = AttributeLevelRelation | TupleLevelRelation
MethodFunction = Callable[..., TopKResult]

_REGISTRY: dict[str, MethodFunction] = {}


def register_method(name: str) -> Callable[[MethodFunction], MethodFunction]:
    """Decorator registering a ranking method under ``name``.

    The wrapped callable must accept ``(relation, k, **options)`` and
    return a :class:`TopKResult`.
    """

    def decorate(function: MethodFunction) -> MethodFunction:
        if name in _REGISTRY:
            raise ValueError(f"method {name!r} is already registered")
        _REGISTRY[name] = function
        return function

    return decorate


def available_methods() -> tuple[str, ...]:
    """All registered method names, sorted."""
    return tuple(sorted(_REGISTRY))


def rank(
    relation: Relation,
    k: int,
    method: str = "expected_rank",
    **options,
) -> TopKResult:
    """Evaluate a top-``k`` ranking query under the chosen semantics.

    Parameters
    ----------
    relation:
        An attribute-level or tuple-level uncertain relation.
    k:
        How many answers to request.
    method:
        One of :func:`available_methods` — ``"expected_rank"`` (the
        paper's proposal) by default.
    options:
        Method-specific keywords, e.g. ``phi`` for quantile ranks,
        ``threshold`` for PT-k, ``ties`` where tie semantics matter.
    """
    try:
        function = _REGISTRY[method]
    except KeyError:
        known = ", ".join(available_methods())
        raise UnknownMethodError(
            f"unknown ranking method {method!r}; available: {known}"
        ) from None
    return function(relation, k, **options)


def method_supports(method: str, relation: Relation) -> bool:
    """Whether ``method`` can evaluate on ``relation``'s model.

    Decided from the method name alone, without running it: the only
    model restriction in the built-in set is probability-only ranking,
    which needs a tuple-level relation.  Raises
    :class:`UnknownMethodError` for an unregistered name.
    """
    if method not in _REGISTRY:
        raise UnknownMethodError(f"unknown ranking method {method!r}")
    if method == "probability_only":
        return isinstance(relation, TupleLevelRelation)
    return True


def _dispatch(
    relation: Relation,
    attribute_function: MethodFunction,
    tuple_function: MethodFunction,
    k: int,
    **options,
) -> TopKResult:
    if isinstance(relation, AttributeLevelRelation):
        return attribute_function(relation, k, **options)
    if isinstance(relation, TupleLevelRelation):
        return tuple_function(relation, k, **options)
    raise UnsupportedModelError(
        f"unsupported relation type {type(relation).__name__}"
    )


@register_method("expected_rank")
def _expected_rank(relation: Relation, k: int, **options) -> TopKResult:
    """The paper's expected rank (Definition 8), exact algorithms."""
    return _dispatch(relation, a_erank, t_erank, k, **options)


@register_method("expected_rank_prune")
def _expected_rank_prune(
    relation: Relation, k: int, **options
) -> TopKResult:
    """A-ERank-Prune / T-ERank-Prune early-termination variants."""
    return _dispatch(relation, a_erank_prune, t_erank_prune, k, **options)


@register_method("median_rank")
def _median_rank(relation: Relation, k: int, **options) -> TopKResult:
    """The median rank (Definition 9, ``phi = 0.5``)."""
    options.setdefault("phi", 0.5)
    return _dispatch(relation, a_mqrank, t_mqrank, k, **options)


@register_method("quantile_rank")
def _quantile_rank(relation: Relation, k: int, **options) -> TopKResult:
    """The ``phi``-quantile rank (Definition 9); pass ``phi=...``."""
    return _dispatch(relation, a_mqrank, t_mqrank, k, **options)


@register_method("quantile_rank_prune")
def _quantile_rank_prune(
    relation: Relation, k: int, **options
) -> TopKResult:
    """Early-termination quantile ranks (reconstructed pruning)."""
    return _dispatch(
        relation, a_mqrank_prune, t_mqrank_prune, k, **options
    )


@register_method("u_topk")
def _u_topk(relation: Relation, k: int, **options) -> TopKResult:
    """U-Topk [42]: the most probable top-k set."""
    return u_topk(relation, k, **options)


@register_method("u_kranks")
def _u_kranks(relation: Relation, k: int, **options) -> TopKResult:
    """U-kRanks [42] / PRank [30]: most likely tuple per position."""
    return u_kranks(relation, k, **options)


@register_method("pt_k")
def _pt_k(relation: Relation, k: int, **options) -> TopKResult:
    """PT-k [23]: all tuples above a top-k probability threshold."""
    return pt_k(relation, k, **options)


@register_method("global_topk")
def _global_topk(relation: Relation, k: int, **options) -> TopKResult:
    """Global-Topk [48]: the k largest top-k probabilities."""
    return global_topk(relation, k, **options)


@register_method("expected_score")
def _expected_score(relation: Relation, k: int, **options) -> TopKResult:
    """Rank by expected score — simple but not value-invariant."""
    return expected_score(relation, k, **options)


@register_method("probability_only")
def _probability_only(
    relation: Relation, k: int, **options
) -> TopKResult:
    """Rank by probability alone (Ré et al. [34]); tuple-level only."""
    return probability_only(relation, k, **options)


@register_method("monte_carlo")
def _monte_carlo(relation: Relation, k: int, **options) -> TopKResult:
    """Sampled expected ranks with certified early stopping.

    The generic possible-worlds estimator
    (:func:`repro.core.monte_carlo.mc_expected_rank`) registered as a
    first-class method: it is both the historical baseline the paper
    argues against and the *last rung* of the resilient executor's
    degradation ladder — an approximate answer at a cost bounded by
    ``batch`` / ``max_samples``, usable when exact passes cannot
    complete.  ``metadata["certified"]`` reports whether the
    confidence band proved the answer exact-equivalent.
    """
    from repro.core.monte_carlo import mc_expected_rank

    return mc_expected_rank(relation, k, **options)


@register_method("prf_exponential")
def _prf_exponential(
    relation: Relation, k: int, *, alpha: float = 0.9, **options
) -> TopKResult:
    """PRF^e of Li et al. [29]: weights ``alpha ** position``.

    ``alpha`` near 0 rewards only the very top positions; ``alpha = 1``
    degenerates to membership probability (attribute-level: a full
    tie).  See :mod:`repro.core.prf` for the general machinery.
    """
    from repro.core.prf import exponential_weights, prf_rank

    return prf_rank(
        relation,
        k,
        exponential_weights(relation.size, alpha),
        method_name=f"prf_exponential[{alpha:g}]",
        **options,
    )
