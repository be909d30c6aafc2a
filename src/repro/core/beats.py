"""Pairwise "beats" probabilities under both tie-breaking rules.

``t_j`` *beats* ``t_i`` in a world when ``t_j`` ranks strictly above
``t_i``.  Under Definition 6 (``ties="shared"``) that means
``v_j > v_i``; under the Section 7 convention (``ties="by_index"``) an
equal score also beats when ``t_j`` has the smaller tuple index.  Every
rank computation in this library reduces to sums of such beat
probabilities, so the two rules are isolated here.
"""

from __future__ import annotations

from repro.models.pdf import DiscretePDF
from repro.models.possible_worlds import TieRule, _check_ties
from repro.models.tuple_level import TupleLevelTuple

__all__ = ["value_beat_probability", "beat_probability", "tuple_beats"]


def value_beat_probability(
    challenger: DiscretePDF,
    value: float,
    *,
    challenger_is_earlier: bool,
    ties: TieRule = "shared",
) -> float:
    """``Pr[challenger beats a tuple whose score is exactly value]``.

    ``challenger_is_earlier`` says whether the challenger has the
    smaller tuple index, which matters only under ``ties="by_index"``.
    """
    _check_ties(ties)
    if ties == "by_index" and challenger_is_earlier:
        return challenger.pr_greater_equal(value)
    return challenger.pr_greater(value)


def tuple_beats(
    challenger: TupleLevelTuple,
    target: TupleLevelTuple,
    positions: dict[str, int],
    ties: TieRule,
) -> bool:
    """Whether ``challenger`` ranks above ``target`` when both appear.

    ``positions`` maps tuple ids to insertion positions, which break
    exact score ties under ``ties="by_index"``.
    """
    if challenger.score > target.score:
        return True
    # Ties are exact equality of input scores.  # repro: noqa RPR002
    if ties == "by_index" and challenger.score == target.score:
        return positions[challenger.tid] < positions[target.tid]
    return False


def beat_probability(
    challenger: DiscretePDF,
    target: DiscretePDF,
    *,
    challenger_is_earlier: bool,
    ties: TieRule = "shared",
) -> float:
    """``Pr[X_challenger beats X_target]`` for independent scores.

    Computed as ``sum_l p_{target,l} * Pr[challenger beats v_l]`` —
    ``O(s_target log s_challenger)``.
    """
    _check_ties(ties)
    total = 0.0
    for value, probability in target.items():
        total += probability * value_beat_probability(
            challenger,
            value,
            challenger_is_earlier=challenger_is_earlier,
            ties=ties,
        )
    return total
