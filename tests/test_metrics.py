import math

import numpy as np
import pytest

from conftest import FAMILY_CASES, family_case_id

import expmc.metrics
from expmc import (
    Binomial,
    Gaussian,
    ParameterBox,
    Poisson,
    bound_value,
    bregman_empirical,
    bregman_integrated,
    frobenius_risk,
    nuclear_norm,
    oracle_inequality_check,
    risk_report,
    uniform_scheme,
)


class TestFrobeniusRisk:
    def test_equal_matrices(self):
        a = np.ones((3, 4))
        assert frobenius_risk(a, a) == 0.0

    def test_all_ones_difference(self):
        assert frobenius_risk(np.ones((2, 2)), np.zeros((2, 2))) == pytest.approx(1.0)

    def test_matches_entrywise_oracle(self):
        rng = np.random.default_rng(0)
        a, b = rng.standard_normal((5, 7)), rng.standard_normal((5, 7))
        manual = sum((a[k, l] - b[k, l]) ** 2 for k in range(5) for l in range(7)) / 35
        assert frobenius_risk(a, b) == pytest.approx(manual, abs=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            frobenius_risk(np.ones((2, 2)), np.ones((2, 3)))


class TestBregmanRisks:
    def test_zero_at_equal_arguments(self):
        fam = Poisson()
        scheme = uniform_scheme(3, 3)
        x = np.linspace(-0.5, 0.5, 9).reshape(3, 3)
        counts = np.zeros((3, 3))
        counts[0, 1], counts[1, 2] = 1, 2
        assert bregman_integrated(fam, scheme, x, x) == 0.0
        assert bregman_empirical(fam, counts, x, x) == 0.0

    @pytest.mark.parametrize("family, box", FAMILY_CASES, ids=[family_case_id(c) for c in FAMILY_CASES])
    def test_empirical_per_cell_equals_the_mean_over_observations(self, family, box):
        # 600 draws on 36 cells: every cell repeats, and the counts weight them.
        rng = np.random.default_rng(6)
        x1, x2 = rng.uniform(box.lo, box.hi, (2, 6, 6))
        rows, cols = uniform_scheme(6, 6).draw(600, rng)
        counts = np.zeros((6, 6))
        np.add.at(counts, (rows, cols), 1)
        per_observation = float(np.mean(family.bregman(x1[rows, cols], x2[rows, cols])))
        assert counts.max() > 1
        assert bregman_empirical(family, counts, x1, x2) == pytest.approx(per_observation, rel=1e-12, abs=0.0)

    def test_empirical_reads_only_observed_cells(self):
        # The divergence at an unobserved cell never enters, even where it is not finite.
        fam = Poisson()
        x1, x2 = np.zeros((2, 2)), np.zeros((2, 2))
        x1[1, 1] = math.inf
        counts = np.array([[1, 3], [0, 0]])
        assert bregman_empirical(fam, counts, x1, x2) == 0.0

    @pytest.mark.parametrize("counts, match", [
        (np.zeros((2, 2)), "no observation"),
        (np.ones((2, 3)), "shape"),
        (np.ones(4), "shape"),
    ], ids=["empty", "other-shape", "not-2d"])
    def test_empirical_rejects_a_bad_count_table(self, counts, match):
        with pytest.raises(ValueError, match=match):
            bregman_empirical(Poisson(), counts, np.zeros((2, 2)), np.zeros((2, 2)))

    def test_gaussian_uniform_is_half_frobenius_risk(self):
        rng = np.random.default_rng(1)
        fam = Gaussian(sigma=1.0)
        scheme = uniform_scheme(4, 6)
        x1, x2 = rng.standard_normal((4, 6)), rng.standard_normal((4, 6))
        assert bregman_integrated(fam, scheme, x1, x2) == pytest.approx(
            frobenius_risk(x1, x2) / 2.0, rel=1e-12
        )

    def test_empirical_agrees_with_integrated_in_the_limit(self):
        rng = np.random.default_rng(2)
        fam = Binomial(trials=2)
        scheme = uniform_scheme(5, 5)
        x1 = rng.uniform(-1, 1, (5, 5))
        x2 = rng.uniform(-1, 1, (5, 5))
        n = 10**5
        emp = bregman_empirical(fam, scheme.counts(n, rng), x1, x2)
        integ = bregman_integrated(fam, scheme, x1, x2)
        per_cell = fam.bregman(x1, x2)
        se = math.sqrt(float((scheme.pi * (per_cell - integ) ** 2).sum()) / n)
        assert abs(emp - integ) <= 3 * se

    def test_entrywise_sandwich_against_squared_difference(self):
        # Curvature bounds transfer to the unweighted divergence sum.
        rng = np.random.default_rng(3)
        fam = Poisson()
        box = ParameterBox.symmetric(1.0)
        lo_sq, hi_sq = fam.variance_bounds(box)
        x1 = rng.uniform(-1, 1, (6, 6))
        x2 = rng.uniform(-1, 1, (6, 6))
        d = fam.bregman(x1, x2)
        gap = (x1 - x2) ** 2
        assert np.all(2 * d >= lo_sq * gap - 1e-12)
        assert np.all(2 * d <= hi_sq * gap + 1e-12)


# Inputs of bound_value; each test overrides the ones its formula reads.
BOUND_INPUTS = dict(
    m1=10, m2=10, n=100, rank=1, gamma=1.0, mu=1.0, nu=1.0, lam=0.0,
    sigma_lo_sq=1.0, sigma_hi_sq=1.0, l_gamma=1.0, c_gamma=1.0,
    rademacher_norm=0.0, nuclear_norm_bar=1.0,
)


def bounds(**overrides):
    return bound_value(**{**BOUND_INPUTS, **overrides})


class TestBoundValue:
    def test_every_bound_in_column_order(self):
        assert list(bounds()) == [
            "likelihood_risk", "likelihood_risk_main", "likelihood_risk_edge",
            "likelihood_risk_subexp", "known_sampling_risk",
            "known_sampling_risk_uniform", "minimax_lower",
        ]

    def test_known_sampling_risk_vanishes_without_penalty(self):
        val = bounds(m1=50, m2=50, rank=2, lam=0.0, nuclear_norm_bar=10.0)["known_sampling_risk"]
        assert val == 0.0

    def test_minimax_lower_example(self):
        val = bounds(m1=100, m2=100, rank=3, n=10**6)["minimax_lower"]
        assert val == pytest.approx(3e-4, rel=1e-12)

    def test_known_sampling_risk_penalty_branch(self):
        # First branch: ((1+sqrt(2))^2 / 2) * m1 m2 lam^2 rank / sigma_lo^4.
        val = bounds(m1=50, m2=50, rank=2, lam=0.01, nuclear_norm_bar=1e9)["known_sampling_risk"]
        assert val == pytest.approx(1.4571067811865475, rel=1e-12)

    def test_likelihood_risk_hand_arithmetic(self):
        b = bounds(mu=2.0, lam=0.1)
        # max(100 * 1 * 0.01, (1/2) sqrt(log(20)/100)) = 1.0, times mu^2 = 4.
        assert b["likelihood_risk"] == pytest.approx(4.0, rel=1e-12)
        assert b["likelihood_risk"] == b["likelihood_risk_main"]

    def test_likelihood_risk_edge_branch(self):
        b = bounds(mu=2.0, lam=0.0)
        assert b["likelihood_risk"] == pytest.approx(4.0 * 0.5 * math.sqrt(math.log(20) / 100), rel=1e-12)
        assert b["likelihood_risk"] == b["likelihood_risk_edge"]
        assert b["likelihood_risk_main"] == 0.0

    def test_subexp_formula(self):
        val = bounds(m1=20, m2=30, n=5000, rank=2)["likelihood_risk_subexp"]
        main = 2.0 * 2 * 30 * math.log(50) / 5000
        edge = math.sqrt(math.log(50) / 5000)
        assert val == pytest.approx(max(main, edge), rel=1e-12)

    def test_known_sampling_uniform_formula(self):
        val = bounds(m1=40, m2=40, n=3200, rank=2)["known_sampling_risk_uniform"]
        assert val == pytest.approx(4.0 * 2 * 40 * math.log(80) / 3200, rel=1e-12)

    def test_nonnegative_and_monotone_in_n(self):
        base = dict(
            m1=30, m2=30, mu=1.2, nu=1.1, rank=2, lam=0.01, gamma=1.0,
            sigma_lo_sq=0.8, sigma_hi_sq=1.5, l_gamma=1.0, rademacher_norm=0.01,
            nuclear_norm_bar=12.0, c_gamma=1.0,
        )
        runs = [bounds(n=n, **base) for n in (100, 1000, 10000)]
        for which in runs[0]:
            vals = [b[which] for b in runs]
            assert all(v >= 0 for v in vals)
            if which != "known_sampling_risk":  # only bound without n dependence
                assert vals[0] >= vals[1] >= vals[2]


class TestRiskReport:
    @staticmethod
    def report():
        rng = np.random.default_rng(5)
        fam = Gaussian(sigma=1.0)
        scheme = uniform_scheme(3, 3)
        x_bar = np.outer(rng.standard_normal(3), rng.standard_normal(3))
        x_hat = x_bar + 0.1
        counts = np.zeros((3, 3))
        counts[0, 1] = counts[2, 2] = 1
        return risk_report(fam, scheme, counts, x_hat, x_bar)

    def test_rejects_negative(self, monkeypatch):
        monkeypatch.setattr(expmc.metrics, "bregman_integrated", lambda *args: -1.0)
        with pytest.raises(ValueError, match="nonnegative"):
            self.report()

    def test_compiled_report(self):
        report = self.report()
        assert list(report) == ["frob_risk", "kl_integrated", "kl_empirical", "rank_bar"]
        assert report["frob_risk"] == pytest.approx(0.01, rel=1e-12)
        assert report["kl_integrated"] == pytest.approx(0.005, rel=1e-12)
        assert report["kl_empirical"] == pytest.approx(0.005, rel=1e-12)
        assert report["rank_bar"] == 1


class TestOracleInequalityCheck:
    def setup_method(self):
        self.fam = Gaussian(sigma=1.0)
        self.scheme = uniform_scheme(4, 4)
        rng = np.random.default_rng(4)
        self.x_bar = rng.uniform(-0.9, 0.9, (4, 4))

    def test_truth_estimate_noiseless_passes_trivially(self):
        report = oracle_inequality_check(
            self.fam, self.scheme, self.x_bar, self.x_bar, lam=0.01, mu=1.0,
            sigma_lo_sq=1.0, candidates=[self.x_bar, np.zeros((4, 4))],
        )
        assert report["lhs"] == 0.0
        assert report["passed_flat"] and report["passed_rank"]

    def test_the_six_result_columns_in_order(self):
        report = oracle_inequality_check(
            self.fam, self.scheme, self.x_bar, self.x_bar, lam=0.01, mu=1.0,
            sigma_lo_sq=1.0, candidates=[self.x_bar],
        )
        assert list(report) == ["applicable", "lhs", "margin_flat", "margin_rank", "passed_flat", "passed_rank"]

    def test_zero_candidate_flat_rhs_is_divergence_to_truth(self):
        zero = np.zeros((4, 4))
        report = oracle_inequality_check(
            self.fam, self.scheme, self.x_bar, self.x_bar, lam=0.3, mu=1.0,
            sigma_lo_sq=1.0, candidates=[zero],
        )
        assert report["lhs"] + report["margin_flat"] == pytest.approx(
            bregman_integrated(self.fam, self.scheme, zero, self.x_bar), rel=1e-12
        )

    def test_truth_candidate_rank_rhs_matches_frobenius_bound_conversion(self):
        # Converting the divergence bound at the truth candidate into a
        # Frobenius bound must reproduce the closed-form risk bound.
        lam, mu = 0.05, 1.0
        report = oracle_inequality_check(
            self.fam, self.scheme, self.x_bar, self.x_bar, lam=lam, mu=mu,
            sigma_lo_sq=1.0, candidates=[self.x_bar],
        )
        rank = np.linalg.matrix_rank(self.x_bar)
        frob_bound = bounds(m1=4, m2=4, mu=mu, rank=rank, lam=lam, nuclear_norm_bar=1e9)["known_sampling_risk"]
        converted = (2.0 * mu / 1.0) * (report["lhs"] + report["margin_rank"])
        assert converted == pytest.approx(frob_bound, rel=1e-12)

    def test_below_required_level_is_inapplicable(self):
        report = oracle_inequality_check(
            self.fam, self.scheme, self.x_bar, self.x_bar, lam=0.01, mu=1.0,
            sigma_lo_sq=1.0, candidates=[self.x_bar], required_lambda=0.02,
        )
        assert not report["applicable"]
        assert not report["passed_flat"] and not report["passed_rank"]

    def test_needs_candidates(self):
        with pytest.raises(ValueError):
            oracle_inequality_check(
                self.fam, self.scheme, self.x_bar, self.x_bar, lam=0.1, mu=1.0,
                sigma_lo_sq=1.0, candidates=[],
            )

    def test_margin_sign_detects_violation(self):
        # A fake "fit" far from the truth must fail against the truth candidate.
        far = np.full((4, 4), 0.9)
        report = oracle_inequality_check(
            self.fam, self.scheme, far, self.x_bar, lam=1e-6, mu=1.0,
            sigma_lo_sq=1.0, candidates=[self.x_bar],
        )
        assert report["margin_rank"] < 0
        assert not report["passed_rank"]
