"""Rank distributions (paper Definitions 6-7).

For a tuple ``t`` of an uncertain relation, ``R(t)`` is the random
variable giving ``t``'s rank in a randomly drawn possible world (rank 0
is the top; in the tuple-level model a missing tuple ranks ``|W|``).
The *rank distribution* is the pdf of ``R(t)`` — a proper distribution
over the integers ``0..N`` — and the paper's ranking definitions are
statistics of it: the **expected rank** (Definition 8), the **median
rank** and the **quantile rank** (Definition 9).

:class:`RankDistribution` is the shared currency between the exact
dynamic programs, the enumeration oracle and the Monte-Carlo sampler.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.exceptions import RankingError

__all__ = ["RankDistribution"]

_MASS_TOLERANCE = 1e-6


class RankDistribution:
    """A probability distribution over integer ranks ``0..N``.

    Instances are immutable.  The pmf is stored densely from rank 0
    up to the largest rank with non-zero mass.

    Parameters
    ----------
    pmf:
        ``pmf[r] = Pr[R = r]``.  Must be non-negative and sum to one
        within a small tolerance (the tolerance absorbs floating-point
        drift from long convolutions).

    Examples
    --------
    The paper's ``rank(t1) = {(0, .4), (1, 0), (2, .6)}`` from Figure 2:

    >>> dist = RankDistribution([0.4, 0.0, 0.6])
    >>> dist.expectation()
    1.2
    >>> dist.median()
    2
    """

    __slots__ = ("_pmf",)

    def __init__(self, pmf: Iterable[float]) -> None:
        # An ndarray is read as it is: the clip below copies it, so a
        # read-only table row is never aliased or written.
        if not isinstance(pmf, np.ndarray):
            pmf = list(pmf)
        dense = np.asarray(pmf, dtype=float)
        if dense.size == 0:
            raise RankingError("a rank distribution needs at least rank 0")
        if np.any(dense < -1e-12):
            raise RankingError("rank distribution has negative mass")
        dense = np.clip(dense, 0.0, None)
        total = float(dense.sum())
        if abs(total - 1.0) > _MASS_TOLERANCE:
            raise RankingError(
                f"rank distribution mass is {total!r}, expected 1.0"
            )
        dense /= total
        last = int(np.max(np.nonzero(dense)[0])) if dense.any() else 0
        self._pmf = dense[: last + 1].copy()
        self._pmf.flags.writeable = False

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def point(cls, rank: int) -> "RankDistribution":
        """The deterministic rank distribution of certain data."""
        if rank < 0:
            raise RankingError(f"rank must be >= 0, got {rank!r}")
        pmf = [0.0] * (rank + 1)
        pmf[rank] = 1.0
        return cls(pmf)

    @classmethod
    def from_mapping(
        cls, masses: Mapping[int, float]
    ) -> "RankDistribution":
        """Build from a sparse ``{rank: probability}`` mapping."""
        if not masses:
            raise RankingError("empty rank mapping")
        highest = max(masses)
        if min(masses) < 0:
            raise RankingError("negative rank in mapping")
        pmf = [0.0] * (highest + 1)
        for rank, mass in masses.items():
            pmf[rank] += mass
        return cls(pmf)

    @classmethod
    def from_counts(cls, counts: Mapping[int, int]) -> "RankDistribution":
        """Build from observation counts (Monte-Carlo histograms)."""
        total = sum(counts.values())
        if total <= 0:
            raise RankingError("empty count histogram")
        return cls.from_mapping(
            {rank: count / total for rank, count in counts.items()}
        )

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def pmf(self) -> np.ndarray:
        """The dense pmf vector (read-only view)."""
        return self._pmf

    @property
    def max_rank(self) -> int:
        """The largest rank with non-zero probability."""
        return self._pmf.size - 1

    def probability_of(self, rank: int) -> float:
        """``Pr[R = rank]``."""
        if rank < 0:
            raise RankingError(f"rank must be >= 0, got {rank!r}")
        if rank >= self._pmf.size:
            return 0.0
        return float(self._pmf[rank])

    def cdf(self, rank: int) -> float:
        """``Pr[R <= rank]``."""
        if rank < 0:
            return 0.0
        upper = min(rank + 1, self._pmf.size)
        return float(self._pmf[:upper].sum())

    def items(self) -> Sequence[tuple[int, float]]:
        """Non-zero ``(rank, probability)`` pairs in rank order."""
        return [
            (rank, float(mass))
            for rank, mass in enumerate(self._pmf)
            if mass > 0.0
        ]

    # ------------------------------------------------------------------
    # Statistics — the paper's ranking criteria
    # ------------------------------------------------------------------
    def expectation(self) -> float:
        """``E[R]`` — the expected rank (Definition 8)."""
        return float(np.dot(np.arange(self._pmf.size), self._pmf))

    def variance(self) -> float:
        """``Var[R]``."""
        ranks = np.arange(self._pmf.size)
        mean = self.expectation()
        return float(np.dot((ranks - mean) ** 2, self._pmf))

    def quantile(self, phi: float) -> int:
        """The smallest rank with cumulative probability >= ``phi``.

        Definition 9's ``phi``-quantile rank; ``phi`` in ``(0, 1]``.
        """
        if not 0.0 < phi <= 1.0:
            raise RankingError(f"phi must be in (0, 1], got {phi!r}")
        target = phi - 1e-9
        running = 0.0
        for rank, mass in enumerate(self._pmf):
            running += mass
            if running >= target:
                return rank
        return self.max_rank

    def median(self) -> int:
        """The median rank (Definition 9 with ``phi = 0.5``)."""
        return self.quantile(0.5)

    def summary(self) -> dict[str, float]:
        """The headline statistics in one mapping.

        Keys: ``expectation``, ``std``, ``median``, ``p10``, ``p90``,
        ``iqr`` (inter-quartile range) and ``mode`` — everything a
        dashboard needs to draw an uncertainty band around a rank.
        """
        pmf = self._pmf
        mode = int(np.argmax(pmf))
        lower_quartile = self.quantile(0.25)
        upper_quartile = self.quantile(0.75)
        return {
            "expectation": self.expectation(),
            "std": float(self.variance() ** 0.5),
            "median": float(self.median()),
            "p10": float(self.quantile(0.1)),
            "p90": float(self.quantile(0.9)),
            "iqr": float(upper_quartile - lower_quartile),
            "mode": float(mode),
        }

    # ------------------------------------------------------------------
    # Comparisons
    # ------------------------------------------------------------------
    def total_variation_distance(self, other: "RankDistribution") -> float:
        """Half the L1 distance between two rank pmfs."""
        size = max(self._pmf.size, other._pmf.size)
        mine = np.zeros(size)
        mine[: self._pmf.size] = self._pmf
        theirs = np.zeros(size)
        theirs[: other._pmf.size] = other._pmf
        return 0.5 * float(np.abs(mine - theirs).sum())

    def allclose(
        self, other: "RankDistribution", *, atol: float = 1e-9
    ) -> bool:
        """Whether two rank distributions agree within ``atol``."""
        return self.total_variation_distance(other) <= atol

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RankDistribution):
            return NotImplemented
        return self._pmf.size == other._pmf.size and bool(
            np.array_equal(self._pmf, other._pmf)
        )

    def __hash__(self) -> int:
        return hash(tuple(np.round(self._pmf, 12)))

    def __repr__(self) -> str:
        pairs = ", ".join(
            f"({rank}, {mass:g})" for rank, mass in self.items()
        )
        return f"RankDistribution({{{pairs}}})"


def _method_name(phi: float) -> str:
    """The registered name of the ``phi``-quantile rank semantics."""
    # phi=0.5 is the caller's exact literal.  # repro: noqa RPR002
    return "median_rank" if phi == 0.5 else f"quantile_rank[{phi:g}]"
