"""Expected ranks in the attribute-level model (paper Section 5).

Two algorithms:

* :func:`a_erank` — the exact ``O(N log N)`` algorithm (Section 5.1).
  By linearity of expectation (equation 3),
  ``r(t_i) = sum_{j != i} Pr[X_j > X_i]``, which equation (4) rewrites
  as ``sum_l p_{i,l} (q(v_{i,l}) - Pr[X_i > v_{i,l}])`` with
  ``q(v) = sum_j Pr[X_j > v]`` precomputed once for the whole value
  universe by a sort and a suffix sum.

* :func:`a_erank_prune` — the early-termination scan (Section 5.2).
  Tuples arrive in decreasing expected-score order; Markov's
  inequality bounds the influence of unseen tuples (equations 5-6).
  The scan halts once ``k`` seen tuples have upper bounds below the
  lower bound of every unseen tuple, then answers from the curtailed
  database exactly as the paper prescribes.  The Markov step requires
  strictly positive scores.  The scan state, :class:`_SeenPrefix`, is
  shared with A-MQRank-Prune.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import replace

import numpy as np

from repro.core.result import TopKResult, top_k_result
from repro.exceptions import PruningBoundError, RankingError
from repro.models.attribute import AttributeLevelRelation
from repro.models.possible_worlds import TieRule, _check_ties
from repro.obs import count, get_registry, trace

__all__ = [
    "attribute_expected_ranks",
    "attribute_expected_ranks_vectorized",
    "a_erank",
    "a_erank_prune",
]


class _TailOracle:
    """``q(v) = sum_j Pr[X_j > v]`` over the whole relation.

    Built once in ``O(S log S)`` where ``S = sum_i s_i``; each query is
    a binary search.  Also answers the total mass *equal* to a value
    among tuples with insertion position below a given one, which the
    ``by_index`` tie rule needs.
    """

    def __init__(self, relation: AttributeLevelRelation) -> None:
        mass_at: dict[float, float] = {}
        positions_at: dict[float, list[tuple[int, float]]] = {}
        for position, row in enumerate(relation):
            for value, probability in row.score.items():
                mass_at[value] = mass_at.get(value, 0.0) + probability
                positions_at.setdefault(value, []).append(
                    (position, probability)
                )
        self._values: list[float] = sorted(mass_at)
        # _suffix[i] = total mass at values strictly greater than
        # _values[i - 1]; _suffix[len] = 0.
        suffix = [0.0] * (len(self._values) + 1)
        for index in range(len(self._values) - 1, -1, -1):
            suffix[index] = suffix[index + 1] + mass_at[self._values[index]]
        self._suffix = suffix
        self._prefix_by_value: dict[
            float, tuple[list[int], list[float]]
        ] = {}
        for value, entries in positions_at.items():
            entries.sort()
            cumulative: list[float] = []
            running = 0.0
            for _, probability in entries:
                running += probability
                cumulative.append(running)
            self._prefix_by_value[value] = (
                [position for position, _ in entries],
                cumulative,
            )

    def mass_greater(self, value: float) -> float:
        """``q(value)``: total probability mass strictly above."""
        index = bisect.bisect_right(self._values, value)
        return self._suffix[index]

    def equal_mass_before(self, value: float, position: int) -> float:
        """Mass exactly at ``value`` among tuples inserted earlier."""
        entry = self._prefix_by_value.get(value)
        if entry is None:
            return 0.0
        positions, cumulative = entry
        index = bisect.bisect_left(positions, position)
        if index == 0:
            return 0.0
        return cumulative[index - 1]


def attribute_expected_ranks(
    relation: AttributeLevelRelation,
    *,
    ties: TieRule = "shared",
) -> dict[str, float]:
    """Exact expected rank of every tuple — the core of A-ERank.

    ``O(S log S)`` where ``S`` is the total pdf size; ``O(N log N)``
    for constant-size pdfs, matching the paper.
    """
    with trace("a_erank"):
        _check_ties(ties)
        count("a_erank.tuples_accessed", relation.size)
        oracle = _TailOracle(relation)
        ranks: dict[str, float] = {}
        for position, row in enumerate(relation):
            terms = []
            for value, probability in row.score.items():
                others_above = oracle.mass_greater(value)
                others_above -= row.score.pr_greater(value)
                if ties == "by_index":
                    # Earlier tuples tied at this value also beat us.
                    others_above += oracle.equal_mass_before(value, position)
                terms.append(probability * others_above)
            ranks[row.tid] = math.fsum(terms)
        return ranks


def attribute_expected_ranks_vectorized(
    relation: AttributeLevelRelation,
    *,
    ties: TieRule = "shared",
) -> dict[str, float]:
    """A numpy batch evaluation of equation (4) — same asymptotics as
    :func:`attribute_expected_ranks`, much smaller constants.

    All ``S = sum_i s_i`` (value, probability) pairs are flattened into
    arrays; one argsort delivers ``q(v)`` (global mass strictly above
    each value) and the per-tuple own-mass correction, so the whole
    computation is a handful of vector operations.  Used by the large
    scalability runs; the scalar version stays as the readable
    reference and the two are cross-checked in the tests.
    """
    with trace("a_erank_vectorized"):
        _check_ties(ties)
        count("a_erank_vectorized.tuples_accessed", relation.size)
        sizes = [row.score.support_size for row in relation]
        total = sum(sizes)
        values = np.empty(total)
        masses = np.empty(total)
        owners = np.empty(total, dtype=np.int64)
        cursor = 0
        for index, row in enumerate(relation):
            size = sizes[index]
            values[cursor : cursor + size] = row.score.values
            masses[cursor : cursor + size] = row.score.probabilities
            owners[cursor : cursor + size] = index
            cursor += size

        order = np.argsort(values, kind="stable")
        sorted_values = values[order]
        sorted_masses = masses[order]
        # Suffix sums grouped by distinct value: q(v) = mass strictly above.
        suffix = np.concatenate(
            ([0.0], np.cumsum(sorted_masses[::-1]))
        )[::-1]
        # For each sorted entry, the first index of its tie group; all
        # entries of a group share mass-strictly-above = suffix[group_end].
        is_new_group = np.empty(total, dtype=bool)
        is_new_group[0] = True
        np.not_equal(
            sorted_values[1:], sorted_values[:-1], out=is_new_group[1:]
        )
        group_ids = np.cumsum(is_new_group) - 1
        group_starts = np.nonzero(is_new_group)[0]
        group_ends = np.append(group_starts[1:], total)
        q_sorted = suffix[group_ends][group_ids]

        # Own-tuple mass strictly above each value, from each pdf's suffix.
        own_above = np.empty(total)
        cursor = 0
        for index, row in enumerate(relation):
            size = sizes[index]
            # pdf suffix[l] = Pr[X >= values[l]]; strictly-above drops the
            # value's own mass.
            probabilities = np.asarray(row.score.probabilities)
            including = np.cumsum(probabilities[::-1])[::-1]
            own_above[cursor : cursor + size] = including - probabilities
            cursor += size
        # own_above now holds Pr[X_i > v_{i,l}] per flattened entry.

        q_by_entry = np.empty(total)
        q_by_entry[order] = q_sorted
        others_above = q_by_entry - own_above

        if ties == "by_index":
            # Within each equal-value group, add the mass of entries from
            # earlier-positioned tuples (a tuple never repeats a value).
            tie_order = np.lexsort((owners[order], group_ids))
            grouped_masses = sorted_masses[tie_order]
            prefix = np.cumsum(grouped_masses)
            group_of = group_ids[tie_order]
            first_of_group = np.empty(total, dtype=bool)
            first_of_group[0] = True
            np.not_equal(
                group_of[1:], group_of[:-1], out=first_of_group[1:]
            )
            group_base = np.maximum.accumulate(
                np.where(first_of_group, prefix - grouped_masses, -np.inf)
            )
            earlier_in_group = prefix - grouped_masses - group_base
            tie_extra_sorted = np.empty(total)
            tie_extra_sorted[tie_order] = earlier_in_group
            tie_extra = np.empty(total)
            tie_extra[order] = tie_extra_sorted
            others_above = others_above + tie_extra

        contributions = masses * others_above
        ranks = np.zeros(len(relation))
        np.add.at(ranks, owners, contributions)
        return {
            row.tid: float(ranks[index])
            for index, row in enumerate(relation)
        }


def a_erank(
    relation: AttributeLevelRelation,
    k: int,
    *,
    ties: TieRule = "shared",
) -> TopKResult:
    """Exact top-k by expected rank (algorithm A-ERank).

    Returns the ``min(k, N)`` tuples with the smallest expected ranks;
    ties on the statistic are broken by insertion order.
    """
    if k < 0:
        raise RankingError(f"k must be >= 0, got {k!r}")
    ranks = attribute_expected_ranks(relation, ties=ties)
    return top_k_result(
        "expected_rank",
        k,
        relation.tids(),
        list(ranks.values()),
        ranks,
        {"tuples_accessed": relation.size, "exact": True, "ties": ties},
    )




class _SeenPrefix:
    """The Section 5.2 scan state on the relation's columns.

    Row ``r`` of the padded ``(N, s)`` arrays holds the pdf of the
    ``r``-th tuple in access order (decreasing expected score, ties by
    insertion), so after ``n`` arrivals the seen tuples are the first
    ``n`` rows.  Padding has value ``+inf`` and mass 0: it is never
    beaten and never beats, and adds an exact ``0.0`` to every sum.

    Every float equals the pairwise scan's in
    :mod:`repro.core.reference`: a tuple's terms are summed left to
    right (``np.cumsum`` along a row), never by numpy's pairwise
    ``np.sum``, and tail indices are exact integer counts.
    """

    def __init__(
        self, relation: AttributeLevelRelation, ties: TieRule
    ) -> None:
        columns = relation.columns()
        minima = columns.values[columns.offsets[:-1]]
        nonpositive = np.flatnonzero(minima <= 0.0)
        if nonpositive.size:
            first = nonpositive[0]
            raise PruningBoundError(
                f"tuple {columns.tids[first]!r} has score "
                f"{float(minima[first])!r}; the Markov bounds require "
                "strictly positive scores"
            )
        expected = np.array(relation.expected_scores(), dtype=float)
        order = np.argsort(-expected, kind="stable")
        access_row = np.empty_like(order)
        access_row[order] = np.arange(order.size)
        self.sizes = np.diff(columns.offsets)[order]
        rows = access_row[columns.owners]
        entries = np.arange(columns.owners.size) - columns.offsets[
            columns.owners
        ]
        shape = (order.size, int(self.sizes.max(initial=0)))
        self.values = np.full(shape, np.inf)
        self.values[rows, entries] = columns.values
        self.probs = np.zeros(shape)
        self.probs[rows, entries] = columns.probs
        # suffix[r, l] = Pr[X_r >= v_{r,l}], summed from the top as the
        # pdf does; suffix[r, size_r:] = 0.
        self.suffix = np.zeros((shape[0], shape[1] + 1))
        self.suffix[:, :-1] = np.cumsum(self.probs[:, ::-1], axis=1)[:, ::-1]
        self.positions = order
        self.expected = expected[order]
        self.tids = columns.tids
        self.ties = ties
        # sum over seen j != i of Pr[X_j beats X_i]: eq. 5's first term.
        self.seen_terms = np.zeros(order.size)
        self.n = 0

    def seen_tids(self) -> list[str]:
        return [self.tids[position] for position in self.positions[: self.n]]

    def mass_above(
        self, thresholds: np.ndarray, inclusive: np.ndarray
    ) -> np.ndarray:
        """``Pr[X_j > v]`` for every seen row ``j`` and ``v`` in
        ``thresholds``, ``Pr[X_j >= v]`` on the rows ``inclusive``
        marks: shape ``(n, len(thresholds))``."""
        seen = self.values[: self.n, :, None]
        below = seen <= thresholds
        if inclusive.any():
            below &= ~(inclusive[:, None, None] & (seen == thresholds))
        # Rows are sorted, so the count of entries below a threshold is
        # the index of its tail mass.
        index = np.zeros(below.shape[::2], dtype=np.int64)
        for column in below.transpose(1, 0, 2):
            index += column
        return np.take_along_axis(self.suffix[: self.n], index, axis=1)

    def beats_on(self, row: int) -> np.ndarray:
        """``Pr[X_j beats v_{row,l}]`` for every seen row ``j`` and
        entry ``l`` of ``row``; seen rows inserted before ``row`` also
        beat on a tie under ``by_index``."""
        earlier = self.positions[: self.n] < self.positions[row]
        return self.mass_above(
            self.values[row], earlier & (self.ties == "by_index")
        )

    def arrive(self) -> None:
        """Read the next tuple: its beat probability joins every seen
        tuple's sum, and every seen tuple's beat probability on it
        starts its own sum, in access order."""
        row = self.n
        if row:
            own = np.cumsum(self.probs[row] * self.beats_on(row), axis=1)
            self.seen_terms[row] = np.cumsum(own[:, -1])[-1]
            challenger = self.values[row]
            index = np.searchsorted(challenger, self.values[:row], "right")
            if self.ties == "by_index":
                later = self.positions[row] < self.positions[:row]
                index = np.where(
                    later[:, None],
                    np.searchsorted(challenger, self.values[:row], "left"),
                    index,
                )
            beats = self.probs[:row] * self.suffix[row][index]
            self.seen_terms[:row] += np.cumsum(beats, axis=1)[:, -1]
        self.n = row + 1

    def markov_tails(self) -> np.ndarray:
        """``sum_l p_{i,l} min(1, E[X_n] / v_{i,l})`` for every seen
        tuple: the clamped Markov term of equations 5 and 6."""
        seen = slice(self.n)
        ratio = np.minimum(1.0, self.expected[self.n - 1] / self.values[seen])
        return np.cumsum(self.probs[seen] * ratio, axis=1)[:, -1]


def a_erank_prune(
    relation: AttributeLevelRelation,
    k: int,
    *,
    ties: TieRule = "shared",
) -> TopKResult:
    """Early-termination top-k by expected rank (A-ERank-Prune).

    Scans tuples in decreasing expected-score order, maintaining the
    paper's upper bounds ``r+(t_i)`` on every seen tuple (equation 5)
    and the lower bound ``r-`` on all unseen tuples (equation 6).  The
    scan halts as soon as ``k`` seen upper bounds fall below ``r-``;
    the answer is the exact expected-rank top-k of the curtailed
    database of seen tuples.

    Raises :class:`PruningBoundError` when any score value is not
    strictly positive (Markov's inequality would be unsound).

    The returned metadata reports ``tuples_accessed`` — the experiment
    E5 measurement — and whether the scan halted early.
    """
    with trace("a_erank_prune"):
        if k < 0:
            raise RankingError(f"k must be >= 0, got {k!r}")
        _check_ties(ties)
        if k == 0:
            return TopKResult(
                method="expected_rank_prune",
                k=0,
                items=(),
                metadata={
                    "tuples_accessed": 0,
                    "halted_early": True,
                    "exact": False,
                    "ties": ties,
                },
            )
        scan = _SeenPrefix(relation, ties)
        total = relation.size
        halted_early = False

        # Bound trajectory for EXPLAIN: recorded only while observability
        # is on, downsampled to a bounded number of points.
        trajectory: list[dict] | None = (
            [] if get_registry().enabled else None
        )
        stride = max(1, total // 64)

        while scan.n < total:
            scan.arrive()
            n = scan.n
            if n < k or n == total:
                continue
            tails = scan.markov_tails()
            upper_bounds = scan.seen_terms[:n] + (total - n) * tails
            lower_bound = n - math.fsum(tails)
            kth_upper = float(np.partition(upper_bounds, k - 1)[k - 1])
            halting = kth_upper < lower_bound
            if trajectory is not None and (halting or n % stride == 0):
                trajectory.append(
                    {
                        "accessed": n,
                        "kth_rank": kth_upper,
                        "unseen_bound": lower_bound,
                    }
                )
            if halting:
                halted_early = True
                break

        count("a_erank_prune.tuples_accessed", scan.n)
        if halted_early:
            count("a_erank_prune.halted_early")
        metadata: dict[str, object] = {
            "tuples_accessed": scan.n,
            "halted_early": halted_early,
            "exact": scan.n == total,
            "ties": ties,
        }
        if trajectory is not None:
            metadata["prune_trajectory"] = tuple(trajectory)
        return replace(
            a_erank(relation.curtailed(scan.seen_tids()), k, ties=ties),
            method="expected_rank_prune",
            metadata=metadata,
        )
