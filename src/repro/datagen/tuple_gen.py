"""Synthetic tuple-level relations (x-relations, Figure 3 shaped data).

Scores and membership probabilities come from configurable marginals
coupled through a Gaussian copula (``correlation`` preset or explicit
rho), and a configurable fraction of tuples is grouped into exclusion
rules.  Per-rule probability mass is rescaled below one when the drawn
members would overflow — preserving each workload's marginal shape
while keeping every rule a valid distribution.
"""

from __future__ import annotations

import numpy as np

from repro.datagen.correlation import (
    CORRELATION_PRESETS,
    copula_uniform_pairs,
)
from repro.datagen.distributions import resolve_rng
from repro.exceptions import WorkloadError
from repro.models.rules import ExclusionRule
from repro.models.tuple_level import TupleLevelRelation, TupleLevelTuple

__all__ = ["generate_tuple_relation"]


def _scores_from_uniforms(
    uniforms: np.ndarray,
    distribution: str,
    low: float,
    high: float,
    zipf_alpha: float,
) -> np.ndarray:
    """Inverse-cdf transforms of uniform draws, per distribution."""
    if distribution == "uniform":
        return low + (high - low) * uniforms
    if distribution == "zipf":
        # Pareto-style inverse cdf: heavy upper tail, bounded below.
        exponent = 1.0 / (zipf_alpha - 1.0)
        shape = 1.0 - (low / high) ** (1.0 / exponent)
        return low * (1.0 - uniforms * shape) ** -exponent
    raise WorkloadError(
        f"unknown score distribution {distribution!r}; "
        "known: uniform, zipf"
    )


def generate_tuple_relation(
    count: int,
    *,
    score_distribution: str = "uniform",
    correlation: str | float = "independent",
    probability_low: float = 0.02,
    probability_high: float = 1.0,
    rule_fraction: float = 0.3,
    rule_size: int = 2,
    score_low: float = 1.0,
    score_high: float = 1000.0,
    zipf_alpha: float = 1.5,
    seed=None,
    tid_prefix: str = "t",
) -> TupleLevelRelation:
    """Generate an x-relation of ``count`` tuples.

    Parameters
    ----------
    count:
        Number of tuples ``N``.
    score_distribution:
        ``"uniform"`` or ``"zipf"`` marginal for scores.  Both map the
        same seeded uniforms through a monotone inverse cdf, so for one
        seed the two relations have the same probabilities, rules and
        score order: every rank answer (expected and quantile ranks,
        U-kRanks, PT-k, Global-Topk) is value-invariant across
        ``score_distribution``.  Use different seeds to get different
        rankings.
    correlation:
        ``"independent"``, ``"positive"``, ``"negative"`` (the paper's
        ``uu`` / ``cor`` regimes) or an explicit copula rho in
        ``[-1, 1]`` between score and membership probability.
    probability_low / probability_high:
        Range of the (uniform-marginal) membership probabilities.
    rule_fraction:
        Fraction of tuples placed into multi-tuple exclusion rules.
    rule_size:
        Members per generated rule (the paper assumes a constant
        number of choices per rule).
    seed:
        Seed or :class:`numpy.random.Generator`.
    """
    if count < 0:
        raise WorkloadError(f"count must be >= 0, got {count!r}")
    if isinstance(correlation, str):
        try:
            rho = CORRELATION_PRESETS[correlation]
        except KeyError:
            known = ", ".join(sorted(CORRELATION_PRESETS))
            raise WorkloadError(
                f"unknown correlation preset {correlation!r}; "
                f"known: {known}"
            ) from None
    else:
        rho = float(correlation)
    if not 0.0 <= rule_fraction <= 1.0:
        raise WorkloadError(
            f"rule_fraction must be in [0, 1], got {rule_fraction!r}"
        )
    if rule_size < 2:
        raise WorkloadError(f"rule_size must be >= 2, got {rule_size!r}")
    if not 0.0 < probability_low < probability_high <= 1.0:
        raise WorkloadError(
            "need 0 < probability_low < probability_high <= 1, got "
            f"[{probability_low!r}, {probability_high!r}]"
        )

    rng = resolve_rng(seed)
    score_uniforms, probability_uniforms = copula_uniform_pairs(
        rng, count, rho
    )
    scores = _scores_from_uniforms(
        score_uniforms,
        score_distribution,
        score_low,
        score_high,
        zipf_alpha,
    )
    # Jitter scores so ties are measure-zero even after float rounding.
    scores = scores + rng.uniform(0.0, 1e-6, size=count)
    probabilities = probability_low + (
        probability_high - probability_low
    ) * probability_uniforms

    rows = [
        TupleLevelTuple(
            f"{tid_prefix}{index}",
            float(scores[index]),
            float(probabilities[index]),
        )
        for index in range(count)
    ]

    # Group a random subset into rules of the requested size; rescale
    # any rule whose membership probabilities would exceed one.
    rules: list[ExclusionRule] = []
    grouped = int(rule_fraction * count) // rule_size * rule_size
    if grouped:
        chosen = rng.permutation(count)[:grouped]
        for rule_index in range(grouped // rule_size):
            members = chosen[
                rule_index * rule_size : (rule_index + 1) * rule_size
            ]
            total = sum(rows[position].probability for position in members)
            if total > 1.0:
                scale = (1.0 - 1e-9) / total
                for position in members:
                    row = rows[position]
                    rows[position] = TupleLevelTuple(
                        row.tid, row.score, row.probability * scale
                    )
            rules.append(
                ExclusionRule(
                    f"rule{rule_index}",
                    [rows[position].tid for position in sorted(members)],
                )
            )
    return TupleLevelRelation(rows, rules=rules)
