"""Parity and property tests for the columnar GF kernel engine.

The generating-function sweeps in :mod:`repro.core.columnar` replace
the Section 7 dynamic programs on the hot path.  Everything here pins
them to the two references that must keep agreeing to ``1e-9``:

* the legacy DPs (``*_rank_distributions_dp``), still the
  paper-faithful O(N^3) and O(N M^2) implementations, and
* the possible-worlds oracles in :mod:`repro.baselines.brute_force`.

Plus the polynomial kernels themselves (convolve/deconvolve round
trips, the tree product), the quantile
statistics behind A-MQRank/T-MQRank for several ``phi``, and a golden
capture replay guarding the answer digests across the engine swap.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.baselines import (
    brute_force_rank_distributions,
    brute_force_rank_position_probabilities,
)
from repro.bench.workloads import attribute_workload, tuple_workload
from repro.core import (
    RankDistribution,
    a_mqrank,
    attribute_rank_distributions,
    attribute_rank_distributions_dp,
    rank_position_probability_matrix,
    rank_quantiles,
    t_mqrank,
    tuple_rank_distributions,
    tuple_rank_distributions_dp,
)
from repro.core.columnar import (
    convolve_bernoulli,
    deconvolve_bernoulli,
    product_polynomial,
)
from repro.exceptions import RankingError
from repro.models.attribute import AttributeLevelRelation, AttributeTuple
from repro.models.pdf import DiscretePDF
from repro.models.rules import ExclusionRule
from repro.models.tuple_level import TupleLevelRelation, TupleLevelTuple

PARITY_ATOL = 1e-9
PHIS = (0.25, 0.5, 0.75)
EXAMPLES = Path(__file__).resolve().parents[1] / "examples"


def assert_distributions_match(left, right, *, atol=PARITY_ATOL):
    assert set(left) == set(right)
    for tid in left:
        assert left[tid].allclose(right[tid], atol=atol), tid


def tied_attribute_relation(count: int, seed: int = 11):
    """Integer-valued pdfs drawing from a tiny universe: many ties."""
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(count):
        size = int(rng.integers(1, 4))
        values = sorted(
            rng.choice(np.arange(1.0, 7.0), size=size, replace=False)
        )
        probs = rng.dirichlet(np.ones(size))
        rows.append(
            AttributeTuple(f"t{i}", DiscretePDF(values, probs.tolist()))
        )
    return AttributeLevelRelation(rows)


def small_tuple_relation():
    """Six tuples, two multi-member rules, score ties across rules."""
    rows = [
        TupleLevelTuple("a", 9.0, 0.6),
        TupleLevelTuple("b", 8.0, 0.3),
        TupleLevelTuple("c", 8.0, 0.35),
        TupleLevelTuple("d", 6.0, 1.0),
        TupleLevelTuple("e", 5.0, 0.25),
        TupleLevelTuple("f", 4.0, 0.45),
    ]
    rules = [
        ExclusionRule("tau1", ["a", "c"]),
        ExclusionRule("tau2", ["b", "e", "f"]),
    ]
    return TupleLevelRelation(rows, rules=rules)


def near_certain_rule_relation():
    """Rule mass within 1e-9 of one: the theta ~ 1e9 division corner.

    Found by hypothesis: a rule whose complement probability is a few
    ulps amplifies any off-by-one in the deconvolution splice by
    ``p / (1 - p)``.  Kept as a fixed regression fixture.
    """
    half = (1.0 - 1e-9) / 2.0
    rows = [
        TupleLevelTuple("u", 7.0, half),
        TupleLevelTuple("v", 6.0, half),
        TupleLevelTuple("w", 5.0, 0.5),
        TupleLevelTuple("x", 3.0, 0.9),
    ]
    return TupleLevelRelation(
        rows, rules=[ExclusionRule("tau", ["u", "v"])]
    )


# ----------------------------------------------------------------------
# Polynomial kernels
# ----------------------------------------------------------------------
class TestPolynomialKernels:
    def test_convolve_deconvolve_round_trip(self):
        rng = np.random.default_rng(3)
        probs = rng.uniform(0.01, 0.99, size=24)
        poly = product_polynomial(probs)
        for p in probs:
            grown = convolve_bernoulli(poly, float(p))
            back = deconvolve_bernoulli(grown, float(p))
            np.testing.assert_allclose(back, poly, atol=1e-12)

    def test_deconvolve_recovers_leave_one_out(self):
        rng = np.random.default_rng(5)
        probs = rng.uniform(0.05, 0.95, size=12)
        poly = product_polynomial(probs)
        for i, p in enumerate(probs):
            rest = product_polynomial(np.delete(probs, i))
            left = deconvolve_bernoulli(poly, float(p))
            np.testing.assert_allclose(left, rest, atol=1e-12)

    def test_deconvolve_edge_probabilities(self):
        poly = product_polynomial(np.array([0.3, 0.7, 0.5]))
        for p in (0.0, 1e-15):
            out = deconvolve_bernoulli(convolve_bernoulli(poly, p), p)
            np.testing.assert_allclose(out, poly, atol=1e-12)
        for p in (1.0, 1.0 - 1e-15):
            out = deconvolve_bernoulli(convolve_bernoulli(poly, p), p)
            np.testing.assert_allclose(out, poly, atol=1e-12)

    def test_deconvolve_extreme_ratio(self):
        # One factor within a few ulps of certainty: the residual
        # splice must not take a forward step past it (each wrong step
        # costs a factor p / (1 - p) ~ 1e9).
        probs = np.array([1.0 - 1e-9, 0.5, 0.25, 0.8, 0.6])
        poly = product_polynomial(probs)
        rest = product_polynomial(probs[1:])
        left = deconvolve_bernoulli(poly, float(probs[0]))
        np.testing.assert_allclose(left, rest, atol=1e-12)

    @pytest.mark.parametrize("count", [0, 1, 2, 3, 17, 257])
    def test_product_polynomial_matches_sequential(self, count):
        rng = np.random.default_rng(count)
        probs = rng.uniform(0.0, 1.0, size=count)
        sequential = np.array([1.0])
        for p in probs:
            sequential = convolve_bernoulli(sequential, float(p))
        tree = product_polynomial(probs)
        assert tree.shape == (count + 1,)
        np.testing.assert_allclose(tree, sequential, atol=1e-12)
        assert tree.sum() == pytest.approx(1.0, abs=1e-9)

    def test_rank_quantiles_matches_rank_distribution(self):
        rng = np.random.default_rng(9)
        matrix = rng.uniform(0.0, 1.0, size=(20, 13))
        matrix /= matrix.sum(axis=1, keepdims=True)
        for phi in PHIS + (1.0,):
            fast = rank_quantiles(matrix, phi)
            slow = [
                RankDistribution(row).quantile(phi) for row in matrix
            ]
            assert fast.tolist() == slow

    def test_rank_quantiles_rejects_bad_phi(self):
        matrix = np.full((2, 2), 0.5)
        for phi in (0.0, -0.5, 1.5):
            with pytest.raises(RankingError):
                rank_quantiles(matrix, phi)


# ----------------------------------------------------------------------
# Attribute-level parity: GF vs DP vs possible-worlds oracle
# ----------------------------------------------------------------------
class TestAttributeParity:
    @pytest.mark.parametrize("code", ["uu", "zipf"])
    @pytest.mark.parametrize("ties", ["by_index", "shared"])
    def test_gf_matches_dp_on_workloads(self, code, ties):
        relation = attribute_workload(code, 48, pdf_size=3)
        gf = attribute_rank_distributions(relation, ties=ties)
        dp = attribute_rank_distributions_dp(relation, ties=ties)
        assert_distributions_match(gf, dp)

    @pytest.mark.parametrize("ties", ["by_index", "shared"])
    def test_gf_matches_oracle_small(self, ties):
        relation = attribute_workload("uu", 5, pdf_size=2, seed=13)
        gf = attribute_rank_distributions(relation, ties=ties)
        oracle = brute_force_rank_distributions(relation, ties=ties)
        assert_distributions_match(gf, oracle)

    @pytest.mark.parametrize("ties", ["by_index", "shared"])
    def test_tie_heavy_relation(self, ties):
        small = tied_attribute_relation(6)
        gf = attribute_rank_distributions(small, ties=ties)
        oracle = brute_force_rank_distributions(small, ties=ties)
        assert_distributions_match(gf, oracle)

        larger = tied_attribute_relation(64, seed=23)
        gf = attribute_rank_distributions(larger, ties=ties)
        dp = attribute_rank_distributions_dp(larger, ties=ties)
        assert_distributions_match(gf, dp)

    @pytest.mark.parametrize("phi", PHIS)
    def test_quantile_statistics_match_dp(self, phi):
        relation = attribute_workload("zipf", 48, pdf_size=3)
        dp = attribute_rank_distributions_dp(relation)
        result = a_mqrank(relation, 10, phi=phi)
        assert len(result.items) == 10
        for item in result.items:
            assert item.statistic == dp[item.tid].quantile(phi)

    def test_single_tuple_and_empty(self):
        single = AttributeLevelRelation(
            [AttributeTuple("only", DiscretePDF([1.0, 2.0], [0.4, 0.6]))]
        )
        dists = attribute_rank_distributions(single)
        assert dists["only"].quantile(0.5) == 0
        assert dists["only"].allclose(
            attribute_rank_distributions_dp(single)["only"]
        )
        empty = AttributeLevelRelation([])
        assert attribute_rank_distributions(empty) == {}


# ----------------------------------------------------------------------
# Tuple-level parity: GF vs DP vs possible-worlds oracle
# ----------------------------------------------------------------------
class TestTupleParity:
    @pytest.mark.parametrize("code", ["uu", "zipf", "cor", "anti"])
    @pytest.mark.parametrize("ties", ["by_index", "shared"])
    def test_gf_matches_dp_on_workloads(self, code, ties):
        relation = tuple_workload(code, 48)
        gf = tuple_rank_distributions(relation, ties=ties)
        dp = tuple_rank_distributions_dp(relation, ties=ties)
        assert_distributions_match(gf, dp)

    @pytest.mark.parametrize("ties", ["by_index", "shared"])
    def test_gf_matches_oracle_small(self, ties):
        relation = small_tuple_relation()
        gf = tuple_rank_distributions(relation, ties=ties)
        oracle = brute_force_rank_distributions(relation, ties=ties)
        assert_distributions_match(gf, oracle)

    @pytest.mark.parametrize("ties", ["by_index", "shared"])
    def test_near_certain_rule_mass_regression(self, ties):
        relation = near_certain_rule_relation()
        gf = tuple_rank_distributions(relation, ties=ties)
        dp = tuple_rank_distributions_dp(relation, ties=ties)
        assert_distributions_match(gf, dp)
        oracle = brute_force_rank_distributions(relation, ties=ties)
        assert_distributions_match(gf, oracle)

    def test_certain_and_impossible_tuples(self):
        rows = [
            TupleLevelTuple("sure", 9.0, 1.0),
            TupleLevelTuple("maybe", 8.0, 0.5),
            TupleLevelTuple("never", 7.0, 0.0),
            TupleLevelTuple("low", 6.0, 0.2),
        ]
        relation = TupleLevelRelation(rows)
        gf = tuple_rank_distributions(relation)
        dp = tuple_rank_distributions_dp(relation)
        assert_distributions_match(gf, dp)
        # An absent tuple ranks behind every present one (Definition 7).
        assert gf["never"].quantile(1.0) >= 1

    @pytest.mark.parametrize("phi", PHIS)
    def test_quantile_statistics_match_dp(self, phi):
        relation = tuple_workload("cor", 48)
        dp = tuple_rank_distributions_dp(relation)
        result = t_mqrank(relation, 10, phi=phi)
        assert len(result.items) == 10
        for item in result.items:
            assert item.statistic == dp[item.tid].quantile(phi)


# ----------------------------------------------------------------------
# The shared positional table (PRF / U-kRanks / PT-k substrate)
# ----------------------------------------------------------------------
class TestPositionalTable:
    def test_matches_brute_force_attribute(self):
        relation = attribute_workload("uu", 5, pdf_size=2, seed=17)
        table = rank_position_probability_matrix(relation)
        oracle = brute_force_rank_position_probabilities(relation)
        for i, row in enumerate(relation):
            np.testing.assert_allclose(
                table[i], oracle[row.tid], atol=PARITY_ATOL
            )

    def test_matches_brute_force_tuple(self):
        relation = small_tuple_relation()
        table = rank_position_probability_matrix(relation)
        oracle = brute_force_rank_position_probabilities(relation)
        for i, row in enumerate(relation):
            np.testing.assert_allclose(
                table[i], oracle[row.tid], atol=PARITY_ATOL
            )
        # Tuple-level rows carry the membership mass, not 1.
        sums = table.sum(axis=1)
        probs = [row.probability for row in relation]
        np.testing.assert_allclose(sums, probs, atol=PARITY_ATOL)


# ----------------------------------------------------------------------
# Golden capture replay: answer digests across the engine swap
# ----------------------------------------------------------------------
class TestGoldenCaptureReplay:
    def test_sensor_capture_replays_clean(self):
        from repro.cli import load_relation
        from repro.obs.replay import replay_capture

        relation = load_relation(EXAMPLES / "sensor_readings.csv")
        report = replay_capture(
            EXAMPLES / "sensor_capture.jsonl", relation
        )
        assert not report.problems
        assert not report.regressions
        assert report.exit_code() == 0

    def test_tuple_capture_replays_clean(self):
        """A tuple-level capture: a change to the tuple digest would
        show here as a dataset mismatch."""
        from repro.cli import load_relation
        from repro.obs.replay import replay_capture

        relation = load_relation(EXAMPLES / "tuple_readings.csv")
        report = replay_capture(EXAMPLES / "tuple_capture.jsonl", relation)
        assert not report.problems
        assert not report.regressions
        assert report.exit_code() == 0
        assert report.counts() == {"ok": 8}
