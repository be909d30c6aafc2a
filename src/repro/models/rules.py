"""Exclusion rules for the tuple-level uncertainty model.

A *generation rule* (paper Section 3, Figure 3) is a set of tuples that
are mutually exclusive: at most one member appears in any possible
world.  The paper — like the x-relations model of Trio — requires that

* each tuple belongs to exactly one rule (singleton rules are implied
  for tuples not mentioned in any multi-tuple rule), and
* the membership probabilities within one rule sum to at most one, the
  slack being the probability that *no* member appears.
"""

from __future__ import annotations

import math
from typing import Collection, Iterable, Iterator, Sequence

from repro.exceptions import InvalidRuleError
from repro.models.pdf import PROBABILITY_TOLERANCE

__all__ = ["ExclusionRule"]


class ExclusionRule:
    """A mutual-exclusion rule over tuple identifiers.

    Parameters
    ----------
    rule_id:
        A relation-unique rule name (e.g. ``"tau1"``).
    tids:
        The identifiers of the member tuples, in the order given.  The
        order carries no semantics; it is preserved for presentation.

    A rule is never changed after construction (a store makes a new
    rule when a rule's membership changes), so ``_json``, the rule's
    canonical JSON text in a relation document, is filled by the first
    :func:`~repro.obs.capture.relation_digest` that reads it and then
    kept; versions that share the rule share the text.
    """

    __slots__ = ("rule_id", "_tids", "_tid_set", "_json")

    def __init__(self, rule_id: str, tids: Iterable[str]) -> None:
        self.rule_id = rule_id
        self._tids: tuple[str, ...] = tuple(tids)
        if not self._tids:
            raise InvalidRuleError(f"rule {rule_id!r} has no members")
        self._tid_set: Collection[str] = frozenset(self._tids)
        if len(self._tid_set) != len(self._tids):
            raise InvalidRuleError(
                f"rule {rule_id!r} lists a tuple more than once"
            )
        self._json: str | None = None

    @classmethod
    def singleton(cls, rule_id: str, tid: str) -> "ExclusionRule":
        """A one-member rule, built without the member checks (a
        single member is never missing or listed twice)."""
        rule = cls.__new__(cls)
        rule.rule_id = rule_id
        # Membership in a one-member tuple is as cheap as in a set.
        rule._tids = rule._tid_set = (tid,)
        rule._json = None
        return rule

    @property
    def tids(self) -> tuple[str, ...]:
        """The member tuple identifiers."""
        return self._tids

    @property
    def is_singleton(self) -> bool:
        """Whether the rule constrains only one tuple (no exclusion)."""
        return len(self._tids) == 1

    def __contains__(self, tid: object) -> bool:
        return tid in self._tid_set

    def __iter__(self) -> Iterator[str]:
        return iter(self._tids)

    def __len__(self) -> int:
        return len(self._tids)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExclusionRule):
            return NotImplemented
        return self.rule_id == other.rule_id and self._tids == other._tids

    def __hash__(self) -> int:
        return hash((self.rule_id, self._tids))

    def __repr__(self) -> str:
        members = ", ".join(self._tids)
        return f"ExclusionRule({self.rule_id!r}, {{{members}}})"

    def validate_probabilities(
        self, probability_of: dict[str, float]
    ) -> float:
        """Check the rule's total probability mass and return it.

        ``probability_of`` maps tuple ids to membership probabilities.
        Raises :class:`InvalidRuleError` when a member is missing or the
        total exceeds one beyond tolerance.
        """
        try:
            total = math.fsum(map(probability_of.__getitem__, self._tids))
        except KeyError as missing:
            raise InvalidRuleError(
                f"rule {self.rule_id!r} references unknown tuple "
                f"{missing.args[0]!r}"
            ) from None
        if total > 1.0 + PROBABILITY_TOLERANCE:
            raise InvalidRuleError(
                f"rule {self.rule_id!r} has total probability {total!r} > 1"
            )
        return min(total, 1.0)


#: Id prefix of the implied singleton rules: ``__singleton_<tid>``.
SINGLETON_PREFIX = "__singleton_"


def claim_members(
    rules: Sequence[ExclusionRule], all_tids: Collection[str]
) -> dict[str, ExclusionRule]:
    """Map every tuple the ``rules`` name to its rule.

    Raises :class:`InvalidRuleError` at the first member, in rule
    order, that is not in ``all_tids`` or that an earlier rule already
    claimed.  Costs ``O(members)``.
    """
    claimed: dict[str, ExclusionRule] = {}
    for rule in rules:
        for tid in rule:
            if tid not in all_tids:
                raise InvalidRuleError(
                    f"rule {rule.rule_id!r} references unknown tuple {tid!r}"
                )
            if tid in claimed:
                raise InvalidRuleError(
                    f"tuple {tid!r} appears in rules "
                    f"{claimed[tid].rule_id!r} and {rule.rule_id!r}"
                )
            claimed[tid] = rule
    return claimed


def check_singleton_ids(
    rules: Sequence[ExclusionRule],
    all_tids: Collection[str],
    claimed: Collection[str],
    *,
    prefix: str = SINGLETON_PREFIX,
) -> None:
    """Raise when an unclaimed tuple's implied singleton id is taken.

    Only rule ids that start with ``prefix`` can collide, so the usual
    rule set costs ``O(rules)``; when one does, ``all_tids`` is walked
    in tuple order and the first colliding tuple is named.
    """
    taken = {
        rule.rule_id
        for rule in rules
        if isinstance(rule.rule_id, str) and rule.rule_id.startswith(prefix)
    }
    if not taken:
        return
    for tid in all_tids:
        rule_id = f"{prefix}{tid}"
        if rule_id in taken and tid not in claimed:
            raise InvalidRuleError(
                f"generated singleton rule id {rule_id!r} collides "
                "with an explicit rule"
            )


def cover_with_singletons(
    rules: Sequence[ExclusionRule],
    all_tids: Collection[str],
    *,
    prefix: str = SINGLETON_PREFIX,
) -> list[ExclusionRule]:
    """Complete a rule set so every tuple appears in exactly one rule.

    Tuples not mentioned by any rule get an implied singleton rule, as
    in the paper ("we allow rules containing only one tuple and require
    that all tuples appear in exactly one of the rules").  Raises
    :class:`InvalidRuleError` if a tuple is claimed by two rules, a
    rule references an unknown tuple or an implied singleton's id is
    taken.  ``all_tids`` is iterated in tuple order and tested for
    membership as given, so pass a set or a dict keyed by tid for
    large relations.
    """
    claimed = claim_members(rules, all_tids)
    check_singleton_ids(rules, all_tids, claimed, prefix=prefix)
    singleton = ExclusionRule.singleton
    completed = list(rules)
    completed.extend(
        singleton(f"{prefix}{tid}", tid)
        for tid in all_tids
        if tid not in claimed
    )
    return completed
