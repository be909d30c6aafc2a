"""Median and quantile ranks, attribute-level model (paper Section 7.2).

The rank of ``t_i`` conditioned on ``X_i = v_{i,l}`` is a
Poisson-binomial variable: every other tuple independently beats that
value with probability ``Pr[X_j > v_{i,l}]`` (plus the tie mass for
earlier tuples under the Section 7 tie rule).  Mixing the conditional
pmfs with weights ``p_{i,l}`` yields the exact rank distribution
``rank(t_i)`` of Definition 7, from which the median rank (Definition 9)
and any ``phi``-quantile rank are read off the cdf.  The full pass over
all tuples is the paper's ``O(N^3)`` dynamic program (constant pdf
sizes).

The paper states a pruning variant exists but its description falls in
the truncated part of the text; :func:`a_mqrank_prune` is therefore this
reproduction's own design (documented in DESIGN.md), built from the same
toolbox the paper uses elsewhere:

* upper bounds on the quantile ranks of the ``k`` most promising seen
  tuples: conditioned on ``X_i = v``, the rank is dominated (in
  stochastic order) by ``PB_seen(v) + Binomial(N - n, m(v))`` where
  ``PB_seen(v)`` is the exact Poisson binomial of the seen beat
  probabilities and ``m(v) = min(1, E[X_n] / v)`` is the Markov bound
  on any unseen tuple beating value ``v`` — mixing the resulting cdf
  lower bounds over the tuple's pdf yields a certified quantile upper
  bound (a pure-Markov fallback ``Q_phi <= ceil(r+/(1-phi)) - 1`` caps
  it);
* a lower bound on every unseen tuple's quantile rank from the
  Poisson-binomial of the *seen* tuples evaluated at a Markov-bounded
  score threshold: for any ``v*``,
  ``Pr[R(t_u) <= r] <= min(1, E[X_n]/v*) + F_{PB(Pr[X_j >= v*])}(r)``,
  maximised over a grid of thresholds drawn from the seen expected
  scores.

The scan halts when the ``k`` candidate upper bounds fall strictly
below the unseen lower bound and answers from the curtailed database —
the same surrogate contract as A-ERank-Prune.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from repro.core.attr_expected_rank import _SeenPrefix
from repro.core.beats import value_beat_probability
from repro.core.columnar import _quantile_topk, _rank_distributions
from repro.core.rank_distribution import RankDistribution, _method_name
from repro.core.result import TopKResult
from repro.exceptions import PruningBoundError, RankingError
from repro.models.attribute import AttributeLevelRelation
from repro.models.possible_worlds import TieRule, _check_ties
from repro.obs import count, trace
from repro.stats.poisson_binomial import (
    binomial_pmf,
    mixture_pmf,
    poisson_binomial_pmf,
)

__all__ = [
    "attribute_rank_distribution",
    "attribute_rank_distributions",
    "attribute_rank_distributions_dp",
    "a_mqrank",
    "a_mqrank_prune",
]


def attribute_rank_distribution(
    relation: AttributeLevelRelation,
    tid: str,
    *,
    ties: TieRule = "by_index",
) -> RankDistribution:
    """The exact rank distribution of one tuple (``O(s N^2)``)."""
    _check_ties(ties)
    position = relation.position_of(tid)
    row = relation[position]
    components: list[tuple[float, np.ndarray]] = []
    for value, probability in row.score.items():
        params = [
            value_beat_probability(
                other.score,
                value,
                challenger_is_earlier=other_position < position,
                ties=ties,
            )
            for other_position, other in enumerate(relation)
            if other_position != position
        ]
        components.append((probability, poisson_binomial_pmf(params)))
    mixed = mixture_pmf(components, length=relation.size)
    return RankDistribution(mixed)


def attribute_rank_distributions_dp(
    relation: AttributeLevelRelation,
    *,
    ties: TieRule = "by_index",
) -> dict[str, RankDistribution]:
    """Exact rank distributions of every tuple — A-MQRank's DP.

    ``O(N^3)`` for constant pdf sizes, matching the paper's stated
    complexity.  Kept as the reference implementation the
    generating-function engine is verified against; production entry
    points dispatch to :func:`attribute_rank_distributions` instead.
    """
    return {
        row.tid: attribute_rank_distribution(relation, row.tid, ties=ties)
        for row in relation
    }


def attribute_rank_distributions(
    relation: AttributeLevelRelation,
    *,
    ties: TieRule = "by_index",
) -> dict[str, RankDistribution]:
    """Exact rank distributions of every tuple.

    Reads the columnar generating-function table
    (:mod:`repro.core.columnar`, ``O(N * S)`` to build); it agrees with
    the paper's cubic dynamic program,
    :func:`attribute_rank_distributions_dp`, to within ``1e-9``.  A
    table that failed its mass check when it was built
    (:data:`~repro.core.columnar.MASS_TOLERANCE`) is replaced by the
    DP's (``kernel.gf_fallback`` counts how often).
    """
    return _rank_distributions(relation, ties)


def a_mqrank(
    relation: AttributeLevelRelation,
    k: int,
    *,
    phi: float = 0.5,
    ties: TieRule = "by_index",
) -> TopKResult:
    """Exact top-k by the ``phi``-quantile of the rank distribution.

    ``phi = 0.5`` (the default) is the median rank.  Ties on the
    quantile value are broken by insertion order.
    """
    with trace("a_mqrank"):
        return _quantile_topk("a_mqrank", relation, k, phi, ties)


def _markov_quantile_upper(expected_rank_upper: float, phi: float) -> int:
    """``Q_phi(R) <= ceil(E[R] / (1 - phi)) - 1`` for phi < 1."""
    if phi >= 1.0:
        raise PruningBoundError(
            "Markov quantile bound needs phi < 1 (use the exact "
            "algorithm for phi = 1)"
        )
    bound = expected_rank_upper / (1.0 - phi)
    return max(0, math.ceil(bound - 1e-12) - 1)


def _unseen_quantile_lower(
    scan: _SeenPrefix,
    expectation_bound: float,
    phi: float,
) -> int:
    """Best lower bound on any unseen tuple's phi-quantile rank.

    For each candidate threshold ``v*`` (a spread of percentiles of
    the seen expected scores), ``Pr[R(t_u) <= r] <= m* + F*(r)`` with
    ``m* = min(1, E[X_n] / v*)`` and ``F*`` the cdf of the
    Poisson-binomial with parameters ``Pr[X_j >= v*]`` over seen
    tuples.  The quantile is then at least the smallest ``r`` with
    ``m* + F*(r) >= phi``; the candidates' maximum is returned.
    """
    expected = np.unique(scan.expected[: scan.n])[::-1]
    # A percentile spread: small thresholds give large beat masses but
    # also large Markov slack; the sweet spot varies with the data.
    picks = {
        float(expected[min(len(expected) - 1, int(f * len(expected)))])
        for f in (0.0, 0.05, 0.1, 0.2, 0.35, 0.5, 0.7, 0.9)
    }
    inclusive = np.ones(scan.n, dtype=bool)
    best = 0
    for threshold in picks:
        slack = min(1.0, expectation_bound / threshold)
        if slack >= phi:
            continue  # the Markov mass alone already reaches phi
        params = scan.mass_above(np.array([threshold]), inclusive)[:, 0]
        cdf = np.cumsum(poisson_binomial_pmf(params))
        reachable = np.nonzero(slack + cdf >= phi - 1e-12)[0]
        lower = int(reachable[0]) if reachable.size else len(params)
        best = max(best, lower)
    return best


def _seen_quantile_upper(
    scan: _SeenPrefix,
    row: int,
    unseen_count: int,
    expectation_bound: float,
    phi: float,
    markov_cap: int,
) -> int:
    """Certified upper bound on one seen tuple's phi-quantile rank.

    Conditioned on ``X_i = v``, unseen tuples each beat ``v`` with
    probability at most ``m(v) = min(1, E[X_n] / v)``, so the rank is
    stochastically dominated by ``PB_seen(v) + Binomial(N - n, m(v))``
    and ``Pr[R <= q] >= sum_v p_v F_{PB_v * Bin_v}(q)``.  The returned
    bound never exceeds ``markov_cap`` (the pure-Markov bound).
    """
    beats = scan.beats_on(row)[np.arange(scan.n) != row]
    components: list[tuple[float, np.ndarray]] = []
    horizon = markov_cap + 1
    for entry in range(scan.sizes[row]):
        seen_pmf = poisson_binomial_pmf(beats[:, entry])
        tail_probability = min(
            1.0, expectation_bound / scan.values[row, entry]
        )
        unseen_pmf = binomial_pmf(unseen_count, tail_probability)
        combined = np.convolve(seen_pmf, unseen_pmf)[:horizon]
        components.append((scan.probs[row, entry], combined))
    size = max(len(pmf) for _, pmf in components)
    cdf_lower = np.zeros(size)
    for probability, pmf in components:
        cdf_lower[: len(pmf)] += probability * np.cumsum(pmf)
        # Truncated mass never helps the cdf; missing tail stays 0.
        if len(pmf) < size:
            cdf_lower[len(pmf):] += probability * float(
                np.cumsum(pmf)[-1]
            )
    reachable = np.nonzero(cdf_lower >= phi - 1e-12)[0]
    if reachable.size:
        return min(int(reachable[0]), markov_cap)
    return markov_cap


def a_mqrank_prune(
    relation: AttributeLevelRelation,
    k: int,
    *,
    phi: float = 0.5,
    ties: TieRule = "by_index",
    check_every: int = 16,
    tight_bounds: bool = True,
) -> TopKResult:
    """Early-termination quantile-rank top-k (reconstructed pruning).

    Scans by decreasing expected score, maintaining the A-ERank-Prune
    expected-rank upper bounds and converting them into quantile upper
    bounds by Markov's inequality; unseen tuples are lower-bounded via
    a Poisson-binomial tail over the seen prefix.  Halting checks run
    every ``check_every`` accesses (the checks cost ``O(n^2)``).

    Like A-ERank-Prune, the final answer is the exact quantile-rank
    top-k of the *curtailed* database — a surrogate whose quality the
    E11 experiment quantifies.  Requires strictly positive scores.

    ``tight_bounds=False`` downgrades the seen-tuple upper bounds to
    the pure Markov form (no conditional Poisson-binomial) — kept for
    the E15 ablation, which shows the tight bounds are what make this
    scan halt at all on flat data.
    """
    with trace("a_mqrank_prune"):
        if k < 0:
            raise RankingError(f"k must be >= 0, got {k!r}")
        if not 0.0 < phi < 1.0:
            raise RankingError(
                f"phi must be in (0, 1) for the pruned variant, got {phi!r}"
            )
        _check_ties(ties)
        if check_every < 1:
            raise RankingError(
                f"check_every must be >= 1, got {check_every!r}"
            )
        scan = _SeenPrefix(relation, ties)
        total = relation.size
        halted_early = False

        while scan.n < total:
            scan.arrive()
            n = scan.n
            if n < max(k, 1) or n == total or n % check_every:
                continue
            expectation_bound = scan.expected[n - 1]
            unseen_count = total - n
            lower = _unseen_quantile_lower(scan, expectation_bound, phi)
            if k == 0:
                halted_early = True
                break
            if lower == 0:
                continue  # no unseen bound yet; a tight upper cannot help
            # Rank every seen tuple by its cheap Markov quantile bound and
            # refine only the k most promising with the conditional
            # Poisson-binomial + Binomial construction.
            rank_uppers = (
                scan.seen_terms[:n] + unseen_count * scan.markov_tails()
            )
            markov_caps = [
                _markov_quantile_upper(float(upper), phi)
                for upper in rank_uppers
            ]
            candidates = sorted(range(n), key=markov_caps.__getitem__)[:k]
            if tight_bounds:
                uppers = [
                    _seen_quantile_upper(
                        scan,
                        row,
                        unseen_count,
                        expectation_bound,
                        phi,
                        markov_caps[row],
                    )
                    for row in candidates
                ]
            else:
                uppers = [markov_caps[row] for row in candidates]
            if max(uppers) < lower:
                halted_early = True
                break

        count("a_mqrank_prune.tuples_accessed", scan.n)
        if halted_early:
            count("a_mqrank_prune.halted_early")
        return replace(
            a_mqrank(
                relation.curtailed(scan.seen_tids()), k, phi=phi, ties=ties
            ),
            method=f"{_method_name(phi)}_prune",
            metadata={
                "tuples_accessed": scan.n,
                "halted_early": halted_early,
                "exact": scan.n == total,
                "phi": phi,
                "ties": ties,
            },
        )
