"""Ranking sensitivity analysis.

The stability property (Definition 4) is adversarial and qualitative:
one tuple is deliberately boosted or diminished.  Practitioners ask a
statistical twin of that question: *how much does the top-k churn when
all probabilities / scores wobble within their error bars?*  This
module answers it empirically:

* :func:`perturb_relation` — one random perturbation of a relation
  (relative noise on probabilities and/or scores, rules re-normalised
  so they stay valid);
* :func:`topk_churn` — expected fraction of the top-k replaced under
  perturbation, with per-tuple retention rates;
* :func:`stability_profile` — churn as a function of the noise level,
  the curve an analyst reads before trusting a ranking.

Churn is measured for any registered ranking method, so the profiles
also compare definitions: a method whose answers dissolve under 1%
noise is fragile no matter which properties it satisfies.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.core.semantics import rank
from repro.exceptions import RankingError
from repro.models.attribute import AttributeLevelRelation, AttributeTuple
from repro.models.pdf import DiscretePDF
from repro.models.tuple_level import TupleLevelRelation, TupleLevelTuple

__all__ = [
    "perturb_relation",
    "topk_churn",
    "stability_profile",
    "ChurnReport",
]

Relation = AttributeLevelRelation | TupleLevelRelation


def _resolve_rng(rng_or_seed) -> random.Random:
    if isinstance(rng_or_seed, random.Random):
        return rng_or_seed
    return random.Random(rng_or_seed)


def perturb_relation(
    relation: Relation,
    *,
    noise: float,
    rng=None,
    perturb_scores: bool = True,
    perturb_probabilities: bool = True,
) -> Relation:
    """One random relative perturbation of a relation.

    Every score value is multiplied by ``1 + U(-noise, noise)`` and —
    in the tuple-level model — every membership probability likewise
    (clamped to ``[0, 1]``; rules whose mass would exceed one are
    rescaled).  Attribute-level pdf *probabilities* are left alone:
    they must sum to one, so their uncertainty is better modelled by
    score noise.
    """
    if noise < 0.0:
        raise RankingError(f"noise must be >= 0, got {noise!r}")
    rng = _resolve_rng(rng)

    def wobble(value: float) -> float:
        return value * (1.0 + rng.uniform(-noise, noise))

    if isinstance(relation, AttributeLevelRelation):
        rows = []
        for row in relation:
            score = row.score
            if perturb_scores:
                score = DiscretePDF(
                    [wobble(value) for value in score.values],
                    score.probabilities,
                )
            rows.append(AttributeTuple(row.tid, score, row.attributes))
        return AttributeLevelRelation(rows)

    if isinstance(relation, TupleLevelRelation):
        rows = []
        for row in relation:
            score = wobble(row.score) if perturb_scores else row.score
            probability = row.probability
            if perturb_probabilities:
                probability = min(1.0, max(0.0, wobble(probability)))
            rows.append(
                TupleLevelTuple(
                    row.tid, score, probability, row.attributes
                )
            )
        # Re-normalise overflowing rules.
        by_tid = {row.tid: row for row in rows}
        for rule in relation.explicit_rules:
            if rule.is_singleton:
                continue
            mass = sum(by_tid[tid].probability for tid in rule)
            if mass > 1.0:
                scale = (1.0 - 1e-9) / mass
                for tid in rule:
                    row = by_tid[tid]
                    by_tid[tid] = TupleLevelTuple(
                        tid,
                        row.score,
                        row.probability * scale,
                        row.attributes,
                    )
        explicit = [
            rule for rule in relation.explicit_rules if not rule.is_singleton
        ]
        return TupleLevelRelation(
            [by_tid[row.tid] for row in rows], rules=explicit
        )
    raise RankingError(
        f"unsupported relation type {type(relation).__name__}"
    )


@dataclass(frozen=True)
class ChurnReport:
    """Result of a churn measurement at one noise level."""

    noise: float
    trials: int
    mean_churn: float
    retention: Mapping[str, float]

    def stable_core(self, threshold: float = 0.9) -> frozenset[str]:
        """Tuples retained in at least ``threshold`` of the trials."""
        return frozenset(
            tid
            for tid, rate in self.retention.items()
            if rate >= threshold
        )


def topk_churn(
    relation: Relation,
    k: int,
    *,
    noise: float,
    trials: int = 20,
    method: str = "expected_rank",
    rng=None,
    **options,
) -> ChurnReport:
    """Expected top-k churn under random perturbation.

    Churn per trial is ``|baseline top-k \\ perturbed top-k| / k``;
    ``retention[tid]`` is the fraction of trials that kept ``tid``.
    """
    if trials < 1:
        raise RankingError(f"trials must be >= 1, got {trials!r}")
    if k < 1:
        raise RankingError(f"k must be >= 1, got {k!r}")
    rng = _resolve_rng(rng)
    baseline = rank(relation, k, method=method, **options).tid_set()
    if not baseline:
        raise RankingError("baseline top-k is empty")
    kept_counts = {tid: 0 for tid in baseline}
    churn_total = 0.0
    for _ in range(trials):
        perturbed = perturb_relation(relation, noise=noise, rng=rng)
        answer = rank(
            perturbed, k, method=method, **options
        ).tid_set()
        lost = baseline - answer
        churn_total += len(lost) / len(baseline)
        for tid in baseline & answer:
            kept_counts[tid] += 1
    return ChurnReport(
        noise=noise,
        trials=trials,
        mean_churn=churn_total / trials,
        retention={
            tid: count / trials for tid, count in kept_counts.items()
        },
    )


def stability_profile(
    relation: Relation,
    k: int,
    *,
    noises: Sequence[float] = (0.01, 0.05, 0.1, 0.2),
    trials: int = 20,
    method: str = "expected_rank",
    rng=None,
    **options,
) -> list[ChurnReport]:
    """Churn at increasing noise levels — the robustness curve."""
    rng = _resolve_rng(rng)
    return [
        topk_churn(
            relation,
            k,
            noise=noise,
            trials=trials,
            method=method,
            rng=rng,
            **options,
        )
        for noise in noises
    ]
