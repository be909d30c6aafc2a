"""Diagnostics for uncertain relations.

Constructors already reject *invalid* inputs; this module flags
*suspicious-but-legal* ones — the conditions that silently degrade
ranking quality or disable algorithms:

* non-positive scores (the Markov pruning bounds become unusable),
* zero-probability tuples (dead weight that still occupies rules),
* exclusion rules saturated at probability one (no "none of them"
  world — often an encoding mistake),
* heavy score ties (tie-breaking starts to dominate the ranking),
* tiny pdf supports (a point mass pretending to be uncertain).

:func:`diagnose` returns structured findings; the engine and CLI
surface them to users.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

from repro.exceptions import ModelError
from repro.models.attribute import AttributeLevelRelation
from repro.models.pdf import PROBABILITY_TOLERANCE
from repro.models.tuple_level import TupleLevelRelation

__all__ = [
    "Finding",
    "diagnose",
    "probability_violation",
    "score_violation",
]


def score_violation(value: object) -> str | None:
    """Why ``value`` is unusable as a score, or ``None`` if it is fine.

    The loaders call this *before* relation construction so rejects
    carry source line numbers; the rule matches the model constructors
    (finite floats only) plus the loader-level refusal of NaN/±inf that
    ``float("nan")`` would otherwise smuggle through a CSV cell.
    """
    try:
        number = float(value)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        return f"score {value!r} is not numeric"
    if math.isnan(number):
        return "score is NaN"
    if math.isinf(number):
        return f"score is {'+' if number > 0 else '-'}inf"
    return None


def probability_violation(value: object) -> str | None:
    """Why ``value`` is unusable as a probability, or ``None``.

    Ingest is stricter than the in-memory model: the model tolerates
    ``p == 0`` (and :func:`diagnose` flags it), but a loaded row with
    zero probability is dead weight that can never appear in any
    world, so the loaders demand ``0 < p <= 1`` (within the shared
    tolerance) and report everything else — including NaN, which fails
    every comparison silently.
    """
    try:
        number = float(value)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        return f"probability {value!r} is not numeric"
    if math.isnan(number):
        return "probability is NaN"
    if not 0.0 < number <= 1.0 + PROBABILITY_TOLERANCE:
        return f"probability {number!r} outside (0, 1]"
    return None

Relation = AttributeLevelRelation | TupleLevelRelation


@dataclass(frozen=True)
class Finding:
    """One diagnostic observation.

    ``code`` is stable and machine-checkable; ``detail`` is for
    humans; ``tids`` names the tuples involved (possibly truncated).
    """

    code: str
    detail: str
    tids: tuple[str, ...] = ()

    def __str__(self) -> str:
        suffix = f" [{', '.join(self.tids)}]" if self.tids else ""
        return f"{self.code}: {self.detail}{suffix}"


def _truncate(tids: list[str], limit: int = 5) -> tuple[str, ...]:
    if len(tids) <= limit:
        return tuple(tids)
    return tuple(tids[:limit]) + (f"... +{len(tids) - limit} more",)


def _attribute_findings(
    relation: AttributeLevelRelation,
) -> Iterator[Finding]:
    non_positive = [
        row.tid for row in relation if row.score.min_value <= 0.0
    ]
    if non_positive:
        yield Finding(
            "non_positive_scores",
            "Markov-based pruning (A-ERank-Prune, quantile pruning) "
            "requires strictly positive scores",
            _truncate(non_positive),
        )
    points = [
        row.tid for row in relation if row.score.support_size == 1
    ]
    if points and len(points) == relation.size:
        yield Finding(
            "fully_certain",
            "every score pdf is a point mass; the relation is "
            "deterministic and all semantics coincide",
        )
    universe = relation.value_universe()
    total_support = sum(
        row.score.support_size for row in relation
    )
    if relation.size > 1 and len(universe) < total_support // 2:
        yield Finding(
            "heavy_score_ties",
            f"{total_support} score alternatives share only "
            f"{len(universe)} distinct values; tie-breaking rules "
            "materially affect rankings",
        )


def _tuple_findings(relation: TupleLevelRelation) -> Iterator[Finding]:
    dead = [row.tid for row in relation if row.probability == 0.0]
    if dead:
        yield Finding(
            "zero_probability_tuples",
            "these tuples never appear yet still occupy rules and "
            "output slots",
            _truncate(dead),
        )
    saturated = []
    for rule in relation.explicit_rules:
        if rule.is_singleton:
            continue
        mass = sum(
            relation.tuple_by_id(tid).probability for tid in rule
        )
        if mass >= 1.0 - PROBABILITY_TOLERANCE:
            saturated.append(rule.rule_id)
    if saturated:
        yield Finding(
            "saturated_rules",
            "rules with total probability one admit no "
            "'none appears' outcome — verify the encoding is "
            "intentional",
            _truncate(saturated),
        )
    scores = [row.score for row in relation]
    if relation.size > 1 and len(set(scores)) < len(scores):
        tied = len(scores) - len(set(scores))
        yield Finding(
            "tied_scores",
            f"{tied} tuple(s) share another tuple's exact score; "
            "rankings then depend on the tie rule",
        )
    if relation.size and relation.expected_world_size() < 1.0:
        yield Finding(
            "sparse_worlds",
            f"E[|W|] = {relation.expected_world_size():.3g} < 1: "
            "most worlds are (near-)empty and set-based semantics "
            "(U-Topk) will favour short answers",
        )


def diagnose(relation: Relation) -> list[Finding]:
    """All diagnostics for a relation, in a stable order."""
    if isinstance(relation, AttributeLevelRelation):
        return list(_attribute_findings(relation))
    if isinstance(relation, TupleLevelRelation):
        return list(_tuple_findings(relation))
    raise ModelError(
        f"unsupported relation type {type(relation).__name__}"
    )
