"""Columnar substrate and generating-function rank kernels.

The Section 7 dynamic programs recompute, for every tuple, a
Poisson-binomial pmf over every other tuple from scratch — ``O(N^3)``
in the attribute-level model and ``O(N M^2)`` in the tuple-level model.
Li, Saha and Deshpande's *Unified Approach* observes that all of these
pmfs are evaluations of one generating function

    F(x) = prod_j (1 - p_j + p_j x)

whose coefficient vector can be maintained *incrementally* while
sweeping the tuples in score order: moving from one tuple to the next
changes a single factor, so each step is one polynomial division and
one multiplication by a linear factor — ``O(N)`` instead of ``O(N^2)``.

This module provides that engine on a columnar representation of the
relations: scores, probabilities and pdf supports live in flat numpy
arrays (no per-tuple Python objects on the hot path).  Two details make
the incremental sweep numerically safe:

* **Direction-stable division.**  Removing the factor
  ``(1 - p) + p x`` is a first-order recurrence whose ratio is
  ``p / (1 - p)`` run forward and ``(1 - p) / p`` run backward; the
  recurrence is run in whichever direction keeps the ratio at most one,
  so rounding errors never amplify.
* **Periodic rebuilds.**  After a bounded number of divisions the full
  product polynomial is rebuilt from the current probability vector,
  resetting any accumulated drift without changing the asymptotics.

The pmf matrices agree with the legacy DP entry points (and with the
possible-worlds oracle) to within ``1e-9`` total variation — the
differential matrix in ``tests/test_differential_matrix.py`` and the
speedup gates in ``benchmarks/bench_e09*/e10*`` pin both claims.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, repeat
from operator import attrgetter
from typing import Sequence, Union

import numpy as np
from scipy.signal import lfilter

from repro.core.rank_distribution import RankDistribution, _method_name
from repro.core.result import TopKResult, top_k_result
from repro.exceptions import RankingError
from repro.models.attribute import AttributeLevelRelation
from repro.models.possible_worlds import TieRule, _check_ties
from repro.models.rules import ExclusionRule
from repro.models.tuple_level import TupleLevelRelation
from repro.obs import count, emit_event, trace

__all__ = [
    "AttributeColumns",
    "TupleColumns",
    "TupleColumnsDelta",
    "MASS_TOLERANCE",
    "convolve_bernoulli",
    "deconvolve_bernoulli",
    "mass_violation",
    "product_polynomial",
    "rank_quantiles",
    "attribute_rank_pmf_matrix",
    "tuple_present_rank_pmf_matrix",
    "tuple_rank_pmf_matrix",
    "rank_position_probability_matrix",
]

#: Probabilities within this distance of 0 or 1 are treated as exact —
#: dividing by ``p`` or ``1 - p`` closer than this is not meaningful.
_EDGE_TOL = 1e-12

#: Rank-cdf comparisons share ``RankDistribution.quantile``'s slack.
_QUANTILE_TOL = 1e-9

#: Each pmf row of a sweep result must carry unit mass to within this —
#: the same tolerance :class:`RankDistribution` enforces on construction.
MASS_TOLERANCE = 1e-6

#: Rebuild the product polynomial after this many divisions.  Division
#: noise compounds exponentially across chained divide/multiply steps —
#: fastest once the polynomial's support narrows to a high-offset
#: window, which both sweeps reach late in score order — so the product
#: is reset from scratch every 8 divisions (measured drift ~1e-13 at
#: N = 2000, vs 1e+5 at cadence 64).  Tree rebuilds keep the amortised
#: rebuild cost comparable to the divisions it replaces.
_REBUILD_EVERY = 8


# ----------------------------------------------------------------------
# Columnar views of the two relation models
# ----------------------------------------------------------------------
@dataclass(frozen=True, eq=False)
class AttributeColumns:
    """Flat-array image of an :class:`AttributeLevelRelation`.

    The per-tuple score pdfs are concatenated tuple-major: entry ``e``
    of ``values``/``probs`` belongs to tuple ``owners[e]`` and the
    entries of tuple ``i`` occupy ``offsets[i]:offsets[i + 1]`` with
    values sorted ascending (the :class:`DiscretePDF` invariant).
    """

    values: np.ndarray
    probs: np.ndarray
    offsets: np.ndarray
    owners: np.ndarray
    tids: tuple[str, ...]

    @property
    def size(self) -> int:
        """``N``, the number of tuples."""
        return len(self.tids)

    @classmethod
    def from_relation(
        cls, relation: AttributeLevelRelation
    ) -> "AttributeColumns":
        """Flatten ``relation``; prefer ``relation.columns()``, which
        builds this once per relation version."""
        sizes = np.fromiter(
            (row.score.support_size for row in relation),
            dtype=np.int64,
            count=relation.size,
        )
        offsets = np.zeros(relation.size + 1, dtype=np.int64)
        np.cumsum(sizes, out=offsets[1:])
        total = int(offsets[-1])
        values = np.empty(total)
        probs = np.empty(total)
        for position, row in enumerate(relation):
            start, stop = offsets[position], offsets[position + 1]
            values[start:stop] = row.score.values
            probs[start:stop] = row.score.probabilities
        owners = np.repeat(np.arange(relation.size, dtype=np.int64), sizes)
        return cls(
            values=values,
            probs=probs,
            offsets=offsets,
            owners=owners,
            tids=relation.tids(),
        )


@dataclass(frozen=True, eq=False)
class TupleColumns:
    """Flat-array image of a :class:`TupleLevelRelation`.

    ``rules[i]`` indexes into ``relation.rules`` (explicit rules first,
    implied singletons after); ``rule_masses[r]`` is the total
    membership probability of rule ``r``; ``order`` lists tuple
    positions sorted by decreasing score with insertion-order
    tie-breaks — the Section 7 access order, which doubles as the
    ``by_index`` beat order; ``expected_world_size`` is
    ``E[|W|] = sum_t p(t)``, the one aggregate T-ERank-Prune needs up
    front.  The explicit rules' members, in rule order, are
    ``members[member_offsets[r]:member_offsets[r + 1]]`` for rule
    ``r``.
    """

    scores: np.ndarray
    probs: np.ndarray
    rules: np.ndarray
    rule_masses: np.ndarray
    order: np.ndarray
    tids: tuple[str, ...]
    expected_world_size: float
    members: np.ndarray
    member_offsets: np.ndarray

    @property
    def size(self) -> int:
        """``N``, the number of tuples."""
        return len(self.tids)

    @property
    def rule_count(self) -> int:
        """``M``, the number of rules (singletons included)."""
        return self.rule_masses.size

    @classmethod
    def from_relation(
        cls, relation: TupleLevelRelation
    ) -> "TupleColumns":
        """Flatten ``relation``; prefer ``relation.columns()``, which
        builds this once per relation version.

        A store snapshot carries a :class:`TupleColumnsDelta` from an
        earlier version's columns; scores, probabilities, rule members
        and the access order are then derived from those
        (:meth:`TupleColumnsDelta.apply`), otherwise they are read off
        the rows and sorted.  Either way they are the same values (the
        access order is the one permutation sorted by decreasing score,
        then position), and the rest is the same numpy work on them,
        so a derived build is bit-identical to a build from the rows.
        Only explicit rules have members; the implied singletons follow
        them in ``relation.rules`` in insertion order, so they are
        numbered with one ``arange``.
        """
        delta = relation._take_columns_delta()
        if delta is not None:
            scores, probs, members, lengths, order = delta.apply(relation)
        else:
            rows = relation.tuples
            scores = _column(rows, "score")
            probs = _column(rows, "probability")
            explicit = relation.explicit_rules
            members = np.fromiter(
                map(relation.position_of, chain.from_iterable(explicit)),
                dtype=np.int64,
            )
            lengths = np.fromiter(
                map(len, explicit), dtype=np.int64, count=len(explicit)
            )
            order = np.lexsort((np.arange(len(rows)), -scores))
        n = scores.size
        member_offsets = np.zeros(lengths.size + 1, dtype=np.int64)
        np.cumsum(lengths, out=member_offsets[1:])
        rules = np.full(n, -1, dtype=np.int64)
        rules[members] = np.repeat(np.arange(lengths.size), lengths)
        implied = rules < 0
        rules[implied] = lengths.size + np.arange(
            int(np.count_nonzero(implied))
        )
        rule_masses = np.bincount(
            rules, weights=probs, minlength=relation.rule_count
        ).astype(float, copy=False)
        return cls(
            scores=scores,
            probs=probs,
            rules=rules,
            rule_masses=rule_masses,
            order=order,
            tids=relation.tids(),
            expected_world_size=math.fsum(probs.tolist()),
            members=members,
            member_offsets=member_offsets,
        )


@dataclass(frozen=True, eq=False)
class TupleColumnsDelta:
    """How a store snapshot differs from an earlier version whose
    :class:`TupleColumns` were built (``base``).

    The snapshot's rows are the base's rows minus those at the sorted
    base positions ``dropped``, in base order, followed by the rows
    inserted since (appended).  ``updated`` names surviving base rows
    whose score or probability changed.  ``base_rules`` are the base's
    explicit rules: a rule object the snapshot shares with the base has
    the same members (a store makes a new rule when membership
    changes), so its member positions are the base's, remapped.
    """

    base: TupleColumns
    base_rules: tuple[ExclusionRule, ...]
    dropped: np.ndarray
    updated: tuple[str, ...]

    def apply(self, relation: TupleLevelRelation) -> tuple[np.ndarray, ...]:
        """``relation``'s scores, probabilities, rule members, rule
        sizes and access order: ``O(N)`` numpy work plus Python work
        per appended or updated row, per member of a rule the base
        does not share, and per score tie a moved row lands in.
        """
        base = self.base
        keep = np.ones(base.size, dtype=bool)
        keep[self.dropped] = False
        # Base position -> the snapshot's position (for kept rows).
        moved = np.cumsum(keep) - 1
        kept = base.size - self.dropped.size
        appended = [relation[i] for i in range(kept, relation.size)]
        scores = np.concatenate(
            (base.scores[keep], _column(appended, "score"))
        )
        probs = np.concatenate(
            (base.probs[keep], _column(appended, "probability"))
        )
        # Kept rows whose score changed leave the base order and are
        # merged back in with the appended rows.
        rescored = np.arange(kept, scores.size)
        if self.updated:
            positions = np.fromiter(
                map(relation.position_of, self.updated),
                dtype=np.int64,
                count=len(self.updated),
            )
            rows = [relation[position] for position in positions.tolist()]
            old = scores[positions]
            scores[positions] = [row.score for row in rows]
            probs[positions] = [row.probability for row in rows]
            rescored = np.concatenate(
                (positions[scores[positions] != old], rescored)
            )
        members, lengths = self._members(relation, moved)
        order = _merge_order(
            scores, moved[base.order[keep[base.order]]], rescored
        )
        return scores, probs, members, lengths, order

    def _members(
        self, relation: TupleLevelRelation, moved: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """The explicit rules' member positions and sizes."""
        base = self.base
        explicit = relation.explicit_rules
        if explicit is self.base_rules:
            # The usual write touches no rule, and the store then hands
            # the snapshot the base's rule tuple itself.
            return moved[base.members], np.diff(base.member_offsets)
        # Each explicit rule's base rule index, -1 for a rule the base
        # does not share.
        base_rule = dict(
            zip(map(id, self.base_rules), range(len(self.base_rules)))
        )
        source = np.fromiter(
            map(base_rule.get, map(id, explicit), repeat(-1)),
            dtype=np.int64,
            count=len(explicit),
        )
        shared = source >= 0
        fresh = [explicit[i] for i in np.flatnonzero(~shared).tolist()]
        lengths = np.empty(len(explicit), dtype=np.int64)
        lengths[shared] = np.diff(base.member_offsets)[source[shared]]
        lengths[~shared] = list(map(len, fresh))
        offsets = np.zeros(len(explicit) + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        owner = np.repeat(np.arange(len(explicit)), lengths)
        from_base = shared[owner]
        entries = np.flatnonzero(from_base)
        rule = owner[entries]
        members = np.empty(int(offsets[-1]), dtype=np.int64)
        members[entries] = moved[
            base.members[
                base.member_offsets[source[rule]] + entries - offsets[rule]
            ]
        ]
        members[~from_base] = np.fromiter(
            map(relation.position_of, chain.from_iterable(fresh)),
            dtype=np.int64,
        )
        return members, lengths


def _column(rows: Sequence, name: str) -> np.ndarray:
    """One float attribute of every row."""
    return np.fromiter(
        map(attrgetter(name), rows), dtype=float, count=len(rows)
    )


def _merge_order(
    scores: np.ndarray, order: np.ndarray, rescored: np.ndarray
) -> np.ndarray:
    """The access order, ``lexsort((arange(n), -scores))``, from
    ``order``: every position not in ``rescored``, already in access
    order, into which the ``rescored`` positions are merged."""
    if rescored.size:
        stale = np.zeros(scores.size, dtype=bool)
        stale[rescored] = True
        order = order[~stale[order]]
    rescored = rescored[np.lexsort((rescored, -scores[rescored]))]
    keys = -scores[order]
    wanted = -scores[rescored]
    # Insertion points by (-score, position): past the larger scores,
    # then past the equal scores at lower positions.
    at = np.searchsorted(keys, wanted, side="left")
    ties = np.searchsorted(keys, wanted, side="right") - at
    for index in np.flatnonzero(ties).tolist():
        start = at[index]
        at[index] += np.searchsorted(
            order[start : start + ties[index]], rescored[index]
        )
    return np.insert(order, at, rescored)


# ----------------------------------------------------------------------
# Linear-factor polynomial arithmetic
# ----------------------------------------------------------------------
def _clamped(probability: float) -> float:
    if not -_QUANTILE_TOL <= probability <= 1.0 + _QUANTILE_TOL:
        raise RankingError(
            f"Bernoulli probability {probability!r} is not in [0, 1]"
        )
    return min(max(probability, 0.0), 1.0)


def convolve_bernoulli(poly: np.ndarray, probability: float) -> np.ndarray:
    """Multiply a pmf polynomial by the factor ``(1 - p) + p x``.

    Examples
    --------
    >>> convolve_bernoulli(np.array([1.0]), 0.25).tolist()
    [0.75, 0.25]
    """
    p = _clamped(probability)
    out = np.empty(poly.size + 1)
    out[0] = poly[0] * (1.0 - p)
    out[1:-1] = poly[1:] * (1.0 - p) + poly[:-1] * p
    out[-1] = poly[-1] * p
    return out


def _first_order(ratio: float, driving: np.ndarray) -> np.ndarray:
    """Solve ``y[k] = driving[k] + ratio * y[k - 1]`` with ``y[-1]=0``.

    Stable whenever ``abs(ratio) <= 1``.
    """
    return np.asarray(lfilter([1.0], [1.0, -ratio], driving))


def deconvolve_bernoulli(
    poly: np.ndarray, probability: float
) -> np.ndarray:
    """Divide a pmf polynomial by the factor ``(1 - p) + p x``.

    Exact inverse of :func:`convolve_bernoulli` up to rounding.  The
    synthetic division is run *bidirectionally*: the forward recurrence
    is relatively stable below the index where the (log-concave, hence
    monotone) coefficient ratio ``poly[k + 1] / poly[k]`` crosses
    ``p / (1 - p)``, the backward recurrence above it.  The two halves
    are spliced at the index whose defining equation has the smallest
    residual, which keeps errors component-wise relative — even when
    ``p`` is within a few ulps of 0 or 1 — and lets thousands of
    divide/multiply steps chain in the sweeps without the absolute tail
    noise of one step being amplified by the next.

    Examples
    --------
    >>> grown = convolve_bernoulli(np.array([0.5, 0.5]), 0.75)
    >>> deconvolve_bernoulli(grown, 0.75).round(12).tolist()
    [0.5, 0.5]
    """
    if poly.size < 2:
        raise RankingError("cannot deconvolve a degree-0 polynomial")
    p = _clamped(probability)
    if p <= _EDGE_TOL:
        return poly[:-1].copy()
    if p >= 1.0 - _EDGE_TOL:
        return poly[1:].copy()
    length = poly.size - 1
    # Run the synthetic division in both directions over the full
    # range.  Each direction is accurate on one side of the point where
    # the (log-concave) coefficient ratio crosses p / (1 - p) and may
    # overflow past it — the rounding-error recurrences amplify by
    # p / (1 - p) forward and its inverse backward.  Splicing
    # ``forward[:s]`` with ``backward[s:]`` satisfies every defining
    # equation of the quotient except the one at index ``s``, so the
    # split is chosen where that residual is smallest; overflow lanes
    # produce inf/nan residuals and are never selected.
    with np.errstate(over="ignore", invalid="ignore"):
        forward = _first_order(
            -p / (1.0 - p), poly[:length] / (1.0 - p)
        )
        backward = _first_order(
            -(1.0 - p) / p, poly[:0:-1] / p
        )[::-1]
        residual = np.abs(
            poly
            - p * np.concatenate(([0.0], forward))
            - (1.0 - p) * np.concatenate((backward, [0.0]))
        )
    residual[np.isnan(residual)] = np.inf
    # Exact ties (common when the pmf has runs of exact zeros) are
    # broken toward the contractive direction: for p < 1/2 the forward
    # recurrence damps its own rounding noise (|p / (1 - p)| < 1), so
    # the largest minimal-residual split keeps the most forward lanes;
    # for p >= 1/2 the backward recurrence is the damped one and the
    # smallest split wins.
    if p < 0.5:
        split = residual.size - 1 - int(np.argmin(residual[::-1]))
    else:
        split = int(np.argmin(residual))
    return np.concatenate((forward[:split], backward[split:]))


def product_polynomial(probabilities: np.ndarray) -> np.ndarray:
    """``prod_j ((1 - p_j) + p_j x)`` as a dense coefficient vector.

    Coefficient ``k`` is ``Pr[exactly k successes]`` — the
    Poisson-binomial pmf of the vector, length ``len(p) + 1``.
    Computed by a balanced product tree (multiplications only, so no
    cancellation): wide levels convolve all sibling pairs batched
    across rows, narrow levels fall back to per-pair ``np.convolve``.
    The sweeps call this for their periodic drift-resetting rebuilds,
    so it has to be cheap.
    """
    probs = np.asarray(probabilities, dtype=float)
    if probs.size == 0:
        return np.array([1.0])
    level = np.empty((probs.size, 2))
    level[:, 0] = 1.0 - probs
    level[:, 1] = probs
    while level.shape[0] > 1:
        count, width = level.shape
        half = count // 2
        first = level[0 : 2 * half : 2]
        second = level[1 : 2 * half : 2]
        merged = np.zeros((half + (count & 1), 2 * width - 1))
        if width <= half:
            for k in range(width):
                merged[:half, k : k + width] += (
                    first[:, k : k + 1] * second
                )
        else:
            for pair in range(half):
                merged[pair, : 2 * width - 1] = np.convolve(
                    first[pair], second[pair]
                )
        if count & 1:
            merged[half:, :width] = level[-1]
        level = merged
    return level[0][: probs.size + 1].copy()


def mass_violation(
    matrix: np.ndarray, *, tol: float = MASS_TOLERANCE
) -> float | None:
    """Worst per-row mass-conservation breach of a pmf matrix, if any.

    The generating-function sweeps promise every row of their output
    sums to one; chained polynomial divisions can break that promise on
    adversarial inputs despite the direction-stable recurrences and
    periodic rebuilds.  Returns the largest ``|sum(row) - 1|`` when it
    exceeds ``tol`` (numerical distress), else ``None``.  A relation's
    rank tables are checked with this once, when they are built, and a
    distressed one is never handed out: the guarded read replaces it
    with the legacy DP's table.  The cdf builder behind
    :func:`rank_quantiles` silently renormalizes rows, so a kept cdf is
    only ever built from a checked table.
    """
    if matrix.shape[0] == 0:
        return None
    deviation = float(np.abs(matrix.sum(axis=1) - 1.0).max())
    return deviation if deviation > tol else None


def _gf_distress(kernel: str, deviation: float) -> None:
    """Account for one GF → DP numerical-distress fallback."""
    count("kernel.gf_fallback")
    emit_event(
        "kernel.gf_fallback", kernel=kernel, deviation=deviation
    )


def rank_quantiles(matrix: np.ndarray, phi: float) -> np.ndarray:
    """Per-row ``phi``-quantile ranks of a pmf matrix, vectorized.

    Matches :meth:`RankDistribution.quantile`: rows are normalized and
    the smallest rank whose cumulative mass reaches ``phi - 1e-9`` is
    returned.
    """
    if not 0.0 < phi <= 1.0:
        raise RankingError(f"phi must be in (0, 1], got {phi!r}")
    return _quantiles_of(_cdf(matrix), phi)


def _cdf(matrix: np.ndarray) -> np.ndarray:
    """Every row's cumulative sums over its total: the normalized cdf.

    A sequential ``np.cumsum`` along each row, then a divide by the
    row's last entry.  The divisor column is copied first: a divide in
    place by a view of the same array takes numpy's slower overlap
    path, for the same quotients.
    """
    cdf = np.cumsum(matrix, axis=1)
    cdf /= cdf[:, -1:].copy()
    return cdf


def _quantiles_of(cdf: np.ndarray, phi: float) -> np.ndarray:
    """The first column where each row of a normalized cdf reaches
    ``phi - 1e-9``."""
    if cdf.shape[0] == 0:
        return np.zeros(0, dtype=np.int64)
    return np.argmax(cdf >= phi - _QUANTILE_TOL, axis=1)


# ----------------------------------------------------------------------
# Attribute-level model: one descending sweep over the value universe
# ----------------------------------------------------------------------
def attribute_rank_pmf_matrix(
    relation: Union[AttributeLevelRelation, AttributeColumns],
    *,
    ties: TieRule = "by_index",
) -> np.ndarray:
    """Every tuple's exact rank pmf (Definition 7) as an ``(N, N)`` array.

    Sweeps the distinct support values in descending order while
    maintaining ``tails[j] = Pr[X_j > v]`` and the generating function
    ``poly = prod_j ((1 - tails[j]) + tails[j] x)``.  Conditioning on
    ``X_i = v`` removes tuple ``i``'s factor by one polynomial division
    and swaps tie-group factors according to the tie rule; the
    conditional pmfs are mixed with weights ``Pr[X_i = v]`` exactly as
    in the legacy DP.  ``O(N * S)`` coefficient operations for ``S``
    total support values, vs the DP's ``O(N^2 * S)``.

    A relation's table is built once per version and tie rule and
    returned read-only (``VersionMemo.table``); a sweep that fails its
    mass check is replaced by the legacy DP's table and not kept.  An
    :class:`AttributeColumns` argument is swept on every call.
    """
    _check_ties(ties)
    if isinstance(relation, AttributeColumns):
        return _attribute_sweep(relation, ties)
    return _read(relation, "attribute", ties)[0]


def _attribute_sweep(columns: AttributeColumns, ties: TieRule) -> np.ndarray:
    with trace("a_mqrank_gf"):
        n = columns.size
        matrix = np.zeros((n, n))
        if n == 0:
            return matrix

        # Entries sorted by descending value; equal values keep ascending
        # owner position, which is the by_index seniority order.
        entry_order = np.lexsort((columns.owners, -columns.values))
        values = columns.values[entry_order]
        masses = columns.probs[entry_order]
        owners = columns.owners[entry_order]
        changed = np.not_equal(values[1:], values[:-1])
        starts = np.flatnonzero(np.concatenate(([True], changed)))
        ends = np.append(starts[1:], values.size)

        tails = np.zeros(n)
        poly = np.zeros(n + 1)
        poly[0] = 1.0
        divisions = 0

        for start, end in zip(starts, ends):
            group = owners[start:end]
            group_masses = masses[start:end]
            width = group.size
            # Remove every group member's ">"-factor: `base` is the product
            # over tuples whose support does not contain this value.  Wide
            # tie groups would chain too many divisions between rebuilds, so
            # they get an exact leave-group-out product instead.
            if width > _REBUILD_EVERY:
                keep = np.ones(n, dtype=bool)
                keep[group] = False
                base = product_polynomial(tails[keep])
                divisions = 0
            else:
                base = poly
                for member in group:
                    base = deconvolve_bernoulli(base, tails[member])
                divisions += width
            # suffix[t] = product of ">"-factors of members after t.
            suffix: list[np.ndarray] = [np.array([1.0])] * width
            for position in range(width - 1, 0, -1):
                suffix[position - 1] = convolve_bernoulli(
                    suffix[position], tails[group[position]]
                )
            current = base
            for position in range(width):
                member = int(group[position])
                tail_poly = suffix[position]
                if tail_poly.size == 1:
                    conditional = current
                else:
                    conditional = np.convolve(current, tail_poly)
                matrix[member, : conditional.size] += (
                    group_masses[position] * conditional
                )
                if position < width - 1 or ties == "by_index":
                    if ties == "by_index":
                        # Earlier members beat on ties: ">=" factor.
                        step = min(
                            1.0, tails[member] + group_masses[position]
                        )
                    else:
                        step = tails[member]
                    current = convolve_bernoulli(current, step)
            tails[group] = np.minimum(tails[group] + group_masses, 1.0)
            if ties == "by_index":
                # The prefix factors were already the updated ones.
                poly = current
            else:
                poly = base
                for member in group:
                    poly = convolve_bernoulli(poly, tails[member])
            if divisions >= _REBUILD_EVERY:
                divisions = 0
                poly = product_polynomial(tails)

        np.clip(matrix, 0.0, None, out=matrix)
        return matrix


# ----------------------------------------------------------------------
# Tuple-level model: one descending sweep over the tuples
# ----------------------------------------------------------------------
def tuple_present_rank_pmf_matrix(
    relation: Union[TupleLevelRelation, TupleColumns],
    *,
    ties: TieRule = "by_index",
) -> np.ndarray:
    """``Pr[j tuples beat t | t appears]`` for every ``t`` — ``(N, M)``.

    Sweeps tuples in decreasing score order maintaining, per rule, the
    mass of already-seen members and the generating function over all
    ``M`` rule factors.  A tuple's conditional pmf is the polynomial
    divided by its own rule's factor; under ``by_index`` ties the sweep
    order *is* the beat order so the same division also serves the
    update, giving ``O(N M)`` total vs the DP's ``O(N M^2)``.

    Memoized and guarded per relation version and tie rule like
    :func:`attribute_rank_pmf_matrix`; a :class:`TupleColumns`
    argument is swept on every call.
    """
    _check_ties(ties)
    if isinstance(relation, TupleColumns):
        return _present_sweep(relation, ties)
    return _read(relation, "present", ties)[0]


def _present_sweep(columns: TupleColumns, ties: TieRule) -> np.ndarray:
    with trace("t_mqrank_gf"):
        n = columns.size
        m = columns.rule_count
        present = np.zeros((n, max(m, 1)))
        if n == 0:
            return present

        beaten = np.zeros(m)
        poly = np.zeros(m + 1)
        poly[0] = 1.0
        divisions = 0
        order = columns.order
        sorted_scores = columns.scores[order]
        changed = np.not_equal(sorted_scores[1:], sorted_scores[:-1])
        starts = np.flatnonzero(np.concatenate(([True], changed)))
        ends = np.append(starts[1:], n)

        if ties == "by_index":
            for position in order:
                rule = int(columns.rules[position])
                conditional = deconvolve_bernoulli(poly, beaten[rule])
                divisions += 1
                present[position] = conditional
                beaten[rule] = min(
                    1.0, beaten[rule] + columns.probs[position]
                )
                poly = convolve_bernoulli(conditional, beaten[rule])
                if divisions >= _REBUILD_EVERY:
                    divisions = 0
                    poly = product_polynomial(beaten)
            return present

        for start, end in zip(starts, ends):
            group = order[start:end]
            # Equal scores never beat under Definition 6, so every member
            # is queried against the pre-group state.
            for position in group:
                rule = int(columns.rules[position])
                present[position] = deconvolve_bernoulli(poly, beaten[rule])
            divisions += group.size
            for position in group:
                rule = int(columns.rules[position])
                stripped = deconvolve_bernoulli(poly, beaten[rule])
                divisions += 1
                beaten[rule] = min(
                    1.0, beaten[rule] + columns.probs[position]
                )
                poly = convolve_bernoulli(stripped, beaten[rule])
            if divisions >= _REBUILD_EVERY:
                divisions = 0
                poly = product_polynomial(beaten)
        return present


def tuple_rank_pmf_matrix(
    relation: Union[TupleLevelRelation, TupleColumns],
    *,
    ties: TieRule = "by_index",
) -> np.ndarray:
    """Every tuple's unconditional rank pmf — an ``(N, M + 1)`` array.

    Mixes the present branch (``p(t)`` times the conditional pmf) with
    the absent branch, where the rank is ``|W|``: the world-size
    polynomial over all rule masses is built once and each tuple's own
    rule factor is swapped for the leftover mass renormalised by
    ``1 / (1 - p(t))`` — one division and one multiplication per tuple.

    A relation's table is memoized and guarded per version and tie
    rule and reads the memoized present-branch table, so a median query
    and a later positional query on one version share one sweep.
    """
    _check_ties(ties)
    if isinstance(relation, TupleColumns):
        return _with_absent_branch(
            relation, _present_sweep(relation, ties)
        )
    return _read(relation, "rank", ties)[0]


def _with_absent_branch(
    columns: TupleColumns, present: np.ndarray
) -> np.ndarray:
    """Mix ``p(t)`` times the present branch with the absent one."""
    n = columns.size
    m = columns.rule_count
    result = np.zeros((n, max(m, 1) + 1))
    if n == 0:
        return result
    world = product_polynomial(columns.rule_masses)
    for position in range(n):
        probability = float(columns.probs[position])
        if probability > 0.0:
            result[position, :m] += probability * present[position]
        if probability < 1.0:
            rule = int(columns.rules[position])
            remainder = max(
                0.0, float(columns.rule_masses[rule]) - probability
            )
            leftover = min(1.0, remainder / (1.0 - probability))
            absent = convolve_bernoulli(
                deconvolve_bernoulli(
                    world, float(columns.rule_masses[rule])
                ),
                leftover,
            )
            result[position] += (1.0 - probability) * absent
    np.clip(result, 0.0, None, out=result)
    return result


# ----------------------------------------------------------------------
# The shared positional table behind PRF and the prior-work baselines
# ----------------------------------------------------------------------
def rank_position_probability_matrix(
    relation: Union[AttributeLevelRelation, TupleLevelRelation],
) -> np.ndarray:
    """``table[i, j] = Pr[tuple i occupies position j]`` — ``(N, N)``.

    The positional table behind PRF, U-kRanks, PT-k and Global-Topk
    (index tie-break).  Attribute-level rows sum to one; tuple-level
    rows are ``p(t)`` times the present-branch pmf and sum to ``p(t)``.
    Built once per relation version and returned read-only, through the
    same guard as every rank table: a table built from a distressed
    sweep is replaced by the legacy DP's and not kept.
    """
    if isinstance(relation, AttributeLevelRelation):
        return _read(relation, "attribute", "by_index")[0]
    return _read(relation, "position", "by_index")[0]


def _rank_table(
    relation: Union[AttributeLevelRelation, TupleLevelRelation],
    ties: TieRule,
    *,
    cdf: bool = False,
) -> tuple[np.ndarray, bool]:
    """Every tuple's rank pmf as a table, and whether the DP made it.

    The attribute-level ``(N, N)`` or tuple-level ``(N, M + 1)`` table
    of :func:`attribute_rank_pmf_matrix` / :func:`tuple_rank_pmf_matrix`,
    or with ``cdf`` its normalized row cdfs.  It is the memoized table
    when its sweep passed the mass check at build time, else the
    legacy DP's pmfs laid out as the same table (``from_dp`` is then
    true).
    """
    _check_ties(ties)
    if isinstance(relation, AttributeLevelRelation):
        kind = "attribute"
    else:
        kind = "rank"
    return _read(relation, f"{kind}_cdf" if cdf else kind, ties)


def _rank_distributions(
    relation: Union[AttributeLevelRelation, TupleLevelRelation],
    ties: TieRule,
) -> dict[str, RankDistribution]:
    """Every tuple's rank distribution, one row of :func:`_rank_table`."""
    table, _ = _rank_table(relation, ties)
    return {
        tid: RankDistribution(table[position])
        for position, tid in enumerate(relation.tids())
    }


def _quantile_topk(
    kernel: str,
    relation: Union[AttributeLevelRelation, TupleLevelRelation],
    k: int,
    phi: float,
    ties: TieRule,
) -> TopKResult:
    """Top-k by the ``phi``-quantile rank, read off the kept rank cdf.

    The cdf slot does not depend on ``phi``: median and every quantile
    of one version read one table.  Ties on the quantile are broken by
    insertion order; ``kernel`` names the ``<kernel>.tuples_accessed``
    counter.
    """
    if k < 0:
        raise RankingError(f"k must be >= 0, got {k!r}")
    if not 0.0 < phi <= 1.0:
        raise RankingError(f"phi must be in (0, 1], got {phi!r}")
    count(f"{kernel}.tuples_accessed", relation.size)
    cdf, from_dp = _rank_table(relation, ties, cdf=True)
    values = _quantiles_of(cdf, phi).astype(float)
    tids = relation.tids()
    return top_k_result(
        _method_name(phi),
        k,
        tids,
        values,
        dict(zip(tids, values.tolist())),
        {
            "tuples_accessed": relation.size,
            "exact": True,
            "phi": phi,
            "ties": ties,
            "gf_fallback": from_dp,
        },
    )


# ----------------------------------------------------------------------
# Memoized tables and the one mass-conservation guard
# ----------------------------------------------------------------------
# One memo slot per table kind and tie rule (``VersionMemo.table``):
#   "attribute"      the attribute-level sweep, N x N
#   "present"        the tuple-level present-branch sweep, N x M
#   "rank"           "present" mixed with the absent branch, N x (M + 1)
#   "position"       "present" times p(t), N x N (tuple level only)
#   "attribute_cdf"  the normalized row cdfs of "attribute" and of
#   "rank_cdf"       "rank", which median and quantile top-k read; one
#                    more table the size of its source
# Each build returns ``(table, deviation)``.  A sweep is checked with
# ``mass_violation`` once, when it is built, and a table built from a
# distressed table is distressed itself; the memo keeps no distressed
# table, and ``_read`` is the only place that looks at the deviation.
_CDF_SOURCE = {"attribute_cdf": "attribute", "rank_cdf": "rank"}


def _width(columns: Union[AttributeColumns, TupleColumns], kind: str) -> int:
    kind = _CDF_SOURCE.get(kind, kind)
    if kind in ("attribute", "position"):
        return columns.size
    return max(columns.rule_count, 1) + (kind == "rank")


def _checked(
    table: np.ndarray, deviation: float | None = None
) -> tuple[np.ndarray, float | None]:
    if deviation is None:
        deviation = mass_violation(table)
    return table, deviation


def _build(
    relation: Union[AttributeLevelRelation, TupleLevelRelation],
    kind: str,
    ties: TieRule,
) -> tuple[np.ndarray, float | None]:
    if kind in _CDF_SOURCE:
        source, deviation = _slot(relation, _CDF_SOURCE[kind], ties)
        return _cdf(source), deviation
    columns = relation.columns()
    if kind == "attribute":
        return _checked(_attribute_sweep(columns, ties))
    if kind == "present":
        return _checked(_present_sweep(columns, ties))
    present, deviation = _slot(relation, "present", ties)
    if kind == "rank":
        return _checked(_with_absent_branch(columns, present), deviation)
    return _positional(columns, present), deviation


def _slot(
    relation: Union[AttributeLevelRelation, TupleLevelRelation],
    kind: str,
    ties: TieRule,
) -> tuple[np.ndarray, float | None]:
    """The memoized ``(table, deviation)`` of one slot."""
    columns = relation.columns()
    return relation.table(
        (kind, ties),
        8 * columns.size * _width(columns, kind),
        _build,
        relation,
        kind,
        ties,
    )


def _read(
    relation: Union[AttributeLevelRelation, TupleLevelRelation],
    kind: str,
    ties: TieRule,
) -> tuple[np.ndarray, bool]:
    """The guarded read: a slot's table, or on distress the DP's.

    A distressed slot counts one ``kernel.gf_fallback`` and emits one
    event naming the table; the DP table it returns is never kept.
    """
    table, deviation = _slot(relation, kind, ties)
    if deviation is None:
        return table, False
    _gf_distress(f"{kind}_table", deviation)
    return _dp_table(relation, kind, ties), True


def _positional(columns: TupleColumns, present: np.ndarray) -> np.ndarray:
    """``p(t)`` times the present-branch pmfs, ``(N, N)``."""
    n = columns.size
    table = np.zeros((n, n))
    limit = min(n, present.shape[1])
    table[:, :limit] = present[:, :limit] * columns.probs[:, None]
    return table


def _dp_table(
    relation: Union[AttributeLevelRelation, TupleLevelRelation],
    kind: str,
    ties: TieRule,
) -> np.ndarray:
    """The legacy DP's pmfs laid out as a ``kind`` table."""
    from repro.core.attr_mq_rank import attribute_rank_distributions_dp
    from repro.core.tuple_mq_rank import (
        tuple_present_rank_pmf,
        tuple_rank_distributions_dp,
    )

    if kind in _CDF_SOURCE:
        return _cdf(_dp_table(relation, _CDF_SOURCE[kind], ties))
    columns = relation.columns()
    if kind == "position":
        return _positional(columns, _dp_table(relation, "present", ties))
    if kind == "present":
        rows = [
            tuple_present_rank_pmf(relation, tid, ties=ties)
            for tid in relation.tids()
        ]
    else:
        dp = (
            attribute_rank_distributions_dp
            if kind == "attribute"
            else tuple_rank_distributions_dp
        )
        rows = [dist.pmf for dist in dp(relation, ties=ties).values()]
    table = np.zeros((columns.size, _width(columns, kind)))
    for position, pmf in enumerate(rows):
        table[position, : pmf.size] = pmf
    return table
