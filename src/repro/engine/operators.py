"""Relational operators over uncertain relations.

Ranking queries rarely run over a whole base relation: the motivating
systems (MystiQ, Trio) first apply ordinary relational operators.
This module provides the operators that are *safe* under the two
uncertainty models — i.e. that commute with the possible-world
semantics without changing any tuple's distribution:

* :func:`select` — filter by a predicate over tuple identity and
  certain attributes (never the uncertain score: that would condition
  the distribution, which these models cannot represent);
* :func:`select_by_score` — the score-aware variant, offered for the
  tuple-level model only, where a score predicate is a deterministic
  property of the tuple;
* :func:`project` — keep a subset of the certain attributes;
* :func:`union_disjoint` — combine relations over disjoint tuple ids
  (independent sources), preserving rules.

Selection on a tuple-level relation keeps survivors' memberships and
rules intact: dropping a rule mate simply removes its alternative
(the x-relations model closes under this, since rule mass only
shrinks).
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping

from repro.exceptions import EngineError
from repro.models.attribute import AttributeLevelRelation, AttributeTuple
from repro.models.rules import ExclusionRule
from repro.models.tuple_level import TupleLevelRelation, TupleLevelTuple

__all__ = [
    "select",
    "select_by_score",
    "project",
    "union_disjoint",
]

Relation = AttributeLevelRelation | TupleLevelRelation
Predicate = Callable[[str, Mapping[str, object]], bool]


def select(relation: Relation, predicate: Predicate) -> Relation:
    """Keep tuples where ``predicate(tid, attributes)`` holds.

    The predicate sees only certain data, so the survivors' score
    distributions and membership probabilities are untouched.
    """
    if isinstance(relation, AttributeLevelRelation):
        return AttributeLevelRelation(
            row
            for row in relation
            if predicate(row.tid, row.attributes)
        )
    if isinstance(relation, TupleLevelRelation):
        survivors = [
            row
            for row in relation
            if predicate(row.tid, row.attributes)
        ]
        kept = {row.tid for row in survivors}
        rules = _restrict_rules(relation, kept)
        return TupleLevelRelation(survivors, rules=rules)
    raise EngineError(
        f"unsupported relation type {type(relation).__name__}"
    )


def select_by_score(
    relation: TupleLevelRelation,
    predicate: Callable[[float], bool],
) -> TupleLevelRelation:
    """Keep tuple-level tuples whose (fixed) score passes.

    Only offered for the tuple-level model: there a score predicate is
    a deterministic property of the tuple, whereas filtering an
    attribute-level pdf would condition the distribution.
    """
    if not isinstance(relation, TupleLevelRelation):
        raise EngineError(
            "score selection needs the tuple-level model; filtering an "
            "uncertain score would condition its distribution"
        )
    survivors = [row for row in relation if predicate(row.score)]
    kept = {row.tid for row in survivors}
    return TupleLevelRelation(
        survivors, rules=_restrict_rules(relation, kept)
    )


def project(
    relation: Relation, attributes: Iterable[str]
) -> Relation:
    """Keep only the named certain attributes (identity and
    score/probability survive by definition)."""
    wanted = set(attributes)

    def trim(payload: Mapping[str, object]) -> dict[str, object]:
        return {
            name: value
            for name, value in payload.items()
            if name in wanted
        }

    if isinstance(relation, AttributeLevelRelation):
        return AttributeLevelRelation(
            AttributeTuple(row.tid, row.score, trim(row.attributes))
            for row in relation
        )
    if isinstance(relation, TupleLevelRelation):
        rows = [
            TupleLevelTuple(
                row.tid,
                row.score,
                row.probability,
                trim(row.attributes),
            )
            for row in relation
        ]
        rules = _restrict_rules(relation, set(relation.tids()))
        return TupleLevelRelation(rows, rules=rules)
    raise EngineError(
        f"unsupported relation type {type(relation).__name__}"
    )


def union_disjoint(first: Relation, second: Relation) -> Relation:
    """Concatenate two same-model relations with disjoint tuple ids.

    Models independent sources: no cross-relation rules are created.
    """
    if isinstance(first, AttributeLevelRelation) and isinstance(
        second, AttributeLevelRelation
    ):
        _check_disjoint(first, second)
        return AttributeLevelRelation(
            list(first.tuples) + list(second.tuples)
        )
    if isinstance(first, TupleLevelRelation) and isinstance(
        second, TupleLevelRelation
    ):
        _check_disjoint(first, second)
        rules = _restrict_rules(
            first, set(first.tids())
        ) + _restrict_rules(second, set(second.tids()))
        seen_rule_ids: set[str] = set()
        renamed: list[ExclusionRule] = []
        for index, rule in enumerate(rules):
            rule_id = rule.rule_id
            if rule_id in seen_rule_ids:
                rule_id = f"{rule.rule_id}__u{index}"
            seen_rule_ids.add(rule_id)
            renamed.append(ExclusionRule(rule_id, rule.tids))
        return TupleLevelRelation(
            list(first.tuples) + list(second.tuples), rules=renamed
        )
    raise EngineError(
        "union needs two relations of the same model, got "
        f"{type(first).__name__} and {type(second).__name__}"
    )


def _restrict_rules(
    relation: TupleLevelRelation, kept: set[str]
) -> list[ExclusionRule]:
    """Multi-member rules restricted to surviving tuples."""
    rules = []
    for rule in relation.explicit_rules:
        members = [tid for tid in rule if tid in kept]
        if len(members) > 1:
            rules.append(ExclusionRule(rule.rule_id, members))
    return rules


def _check_disjoint(first: Relation, second: Relation) -> None:
    overlap = set(first.tids()) & set(second.tids())
    if overlap:
        raise EngineError(
            f"relations share tuple ids: {sorted(overlap)[:5]}"
        )
