import dataclasses
import math

import numpy as np
import pytest

from expmc import (
    Binomial,
    DomainError,
    Exponential,
    Gaussian,
    PackingError,
    PackingSet,
    ParameterBox,
    Poisson,
    build_packing,
    delta_probability,
    kappa,
    kl_to_null,
    numerical_rank,
    product_scheme,
    save_packing,
    uniform_scheme,
    verify_conditions,
)
from expmc import lowerbound
from expmc.io import load_matrix_csv


class TestKappa:
    def test_formula_example(self):
        val = kappa(alpha=0.1, m1=100, r=2, gamma=1.0, sigma_hi_sq=1.0, n=10**4)
        assert val == pytest.approx(0.022360679774997897, rel=1e-12)

    def test_large_n_takes_sqrt_branch(self):
        val = kappa(alpha=0.1, m1=16, r=2, gamma=1.0, sigma_hi_sq=1.0, n=10**8)
        assert val == pytest.approx(math.sqrt(0.1 * 16 * 2) / (2 * 10**4), rel=1e-12)
        assert val < 0.5

    def test_tiny_n_clips_at_half(self):
        assert kappa(alpha=0.1, m1=100, r=3, gamma=1.0, sigma_hi_sq=1.0, n=1) == 0.5

    def test_alpha_range_enforced(self):
        for bad in (0.0, 0.125, 0.5):
            with pytest.raises(ValueError):
                kappa(alpha=bad, m1=8, r=1, gamma=1.0, sigma_hi_sq=1.0, n=10)


class TestBuildPacking:
    def build(self, m1=8, m2=8, r=2, n=500, seed=0):
        return build_packing(
            m1, m2, r, gamma=1.0, alpha=0.1, sigma_hi_sq=1.0, n=n,
            rng=np.random.default_rng(seed),
        )

    def test_cardinality_guarantee(self):
        packing = self.build()
        assert packing.cardinality >= 2**2 + 1

    def test_zero_matrix_first(self):
        packing = self.build()
        assert np.allclose(packing.members[0], 0.0)

    def test_entries_and_rank(self):
        packing = self.build()
        amp = packing.kappa * packing.gamma
        for mat in packing.members:
            assert np.all(np.isclose(mat, 0.0) | np.isclose(mat, amp))
            assert numerical_rank(mat) <= packing.r

    def test_pairwise_distances_exhaustive(self):
        packing = self.build()
        thresh = 8 * 8 * packing.kappa**2 * packing.gamma**2 / 16.0
        mats = packing.members
        for i in range(len(mats)):
            for j in range(i + 1, len(mats)):
                assert np.linalg.norm(mats[i] - mats[j]) ** 2 >= thresh - 1e-12

    def test_difference_rank_bounded(self):
        packing = self.build()
        mats = packing.members
        for i in range(0, len(mats), 3):
            for j in range(i + 1, len(mats), 3):
                assert numerical_rank(mats[i] - mats[j]) <= packing.r

    def test_column_padding_when_rank_not_dividing(self):
        packing = build_packing(
            8, 7, 3, gamma=1.0, alpha=0.1, sigma_hi_sq=1.0, n=100,
            rng=np.random.default_rng(1),
        )
        for mat in packing.members:
            assert mat.shape == (8, 7)
            assert np.allclose(mat[:, 6:], 0.0)  # one zero-padded column

    def test_cap_respected(self, monkeypatch):
        monkeypatch.setattr(lowerbound, "_MAX_CARDINALITY", 3)
        packing = self.build()
        assert packing.cardinality == 3

    def test_unreachable_target_raises_with_achieved(self, monkeypatch):
        monkeypatch.setattr(lowerbound, "_MAX_ATTEMPTS", 1)
        with pytest.raises(PackingError) as err:
            self.build()
        assert 1 <= err.value.achieved <= 2

    def test_rank_validation(self):
        with pytest.raises(ValueError):
            self.build(r=9)


class TestKlToNull:
    def test_gaussian_quadratic_identity(self):
        # Uniform 2x2, all entries one, n = 4: KL = n * mean(x^2)/2 = 2.
        scheme = uniform_scheme(2, 2)
        val = kl_to_null(Gaussian(sigma=1.0), scheme, np.ones((2, 2)), n=4)
        assert val == pytest.approx(2.0, rel=1e-12)

    def test_zero_matrix(self):
        scheme = uniform_scheme(3, 3)
        assert kl_to_null(Poisson(), scheme, np.zeros((3, 3)), n=10) == 0.0

    def test_poisson_single_entry_direct_substitution(self):
        m1 = m2 = 4
        scheme = uniform_scheme(m1, m2)
        x = np.zeros((m1, m2))
        amp = 0.35
        x[1, 2] = amp
        val = kl_to_null(Poisson(), scheme, x, n=20)
        expected = 20 * (math.exp(amp) * amp - math.exp(amp) + 1.0) / (m1 * m2)
        assert val == pytest.approx(expected, rel=1e-12)

    def test_nonnegative_and_zero_only_at_null(self):
        rng = np.random.default_rng(2)
        scheme = uniform_scheme(4, 4)
        fam = Binomial(trials=2)
        x = rng.uniform(-1, 1, (4, 4))
        assert kl_to_null(fam, scheme, x, n=7) > 0.0

    def test_exponential_rejected(self):
        scheme = uniform_scheme(2, 2)
        with pytest.raises(DomainError):
            kl_to_null(Exponential(), scheme, np.full((2, 2), -1.0), n=5)

    @pytest.mark.parametrize("fam", [Gaussian(sigma=0.5), Binomial(trials=4), Poisson()], ids=lambda f: f.name)
    def test_stack_gives_each_matrix_its_own_divergence(self, fam):
        rng = np.random.default_rng(3)
        scheme = product_scheme(rng.uniform(0.5, 1.5, 9), rng.uniform(0.5, 1.5, 7))
        xs = rng.uniform(-1.0, 1.0, (5, 9, 7))
        assert kl_to_null(fam, scheme, xs, n=300).tolist() == [kl_to_null(fam, scheme, x, n=300) for x in xs]
        with pytest.raises(ValueError, match="shape"):
            kl_to_null(fam, scheme, xs[:, :, :6], n=300)


class TestVerifyConditions:
    def make(self, n, seed=3, family=None, m1=16, m2=16, r=2):
        family = family or Gaussian(sigma=1.0)
        box = ParameterBox.symmetric(1.0)
        sigma_hi_sq = family.variance_bounds(box)[1]
        packing = build_packing(
            m1, m2, r, gamma=1.0, alpha=0.1, sigma_hi_sq=sigma_hi_sq, n=n,
            rng=np.random.default_rng(seed),
        )
        scheme = uniform_scheme(m1, m2)
        return packing, verify_conditions(packing, family, scheme, n, box)

    def test_gaussian_16x16_passes(self):
        _, report = self.make(n=2000)
        assert report.passed, report.failures

    def test_doubling_n_keeps_divergence_budget(self):
        for n in (500, 1000, 2000, 4000):
            _, report = self.make(n=n)
            assert "kl_average" not in report.failures

    def test_member_curvature_cap(self):
        _, report = self.make(n=1500)
        assert max(report.kl_values) <= report.kl_member_cap * (1 + 1e-9)

    def test_poisson_also_valid(self):
        # Larger curvature at the box edge keeps the budget comfortable.
        _, report = self.make(n=800, family=Poisson())
        assert "kl_average" not in report.failures

    @pytest.mark.parametrize("n", [2000, 32000])
    @pytest.mark.parametrize("seed", range(5))
    def test_conditions_hold_across_families(self, n, seed):
        # kappa scales with 1 / sigma_hi, so every Gaussian sigma spends the same share of the budget.
        families = [Gaussian(sigma=1.0), Gaussian(sigma=2.0), Gaussian(sigma=0.5),
                    Binomial(trials=1), Binomial(trials=4), Poisson()]
        shares = []
        for family in families:
            _, report = self.make(n=n, seed=seed, family=family, m1=30, m2=30)
            assert report.passed, (family, report.failures)
            shares.append(report.kl_average / report.kl_budget)
        assert shares[1:3] == pytest.approx([shares[0]] * 2, rel=1e-12)

    def test_delta_probability_limit(self):
        assert delta_probability(1e-9, 400, 3) == pytest.approx(1.0, abs=1e-3)
        assert delta_probability(0.1, 16, 2) < 1.0

    def test_box_excluding_the_amplitude_is_a_membership_failure(self):
        packing, _ = self.make(n=1000)
        amplitude = packing.kappa * packing.gamma
        report = verify_conditions(
            packing, Gaussian(sigma=1.0), uniform_scheme(16, 16), 1000, ParameterBox(-1.0, 0.5 * amplitude)
        )
        assert "sup_norm" in report.failures and not report.passed

    def test_member_cap_takes_the_variance_bound_of_the_box(self):
        packing, _ = self.make(n=1000, family=Poisson())
        report = verify_conditions(packing, Poisson(), uniform_scheme(16, 16), 1000, ParameterBox(-1.0, 0.5))
        amplitude = packing.kappa * packing.gamma
        assert report.kl_member_cap == pytest.approx(1000 * math.exp(0.5) * amplitude**2 / 2, rel=1e-12)
        assert report.passed, report.failures

    @staticmethod
    def _break(name: str, base: PackingSet) -> PackingSet:
        """``base`` with one packing condition broken by hand."""
        amp = base.kappa * base.gamma
        members = base.members
        if name == "cardinality":
            return dataclasses.replace(base, cardinality_target=base.cardinality + 1)
        if name == "entry_values":
            return dataclasses.replace(base, members=members[:-1] + [0.5 * members[-1]])
        if name == "sup_norm":  # entries 0 and 1.5 against the box [-1, 1]
            return dataclasses.replace(base, kappa=1.5, members=[m * (1.5 / amp) for m in members])
        if name == "rank":
            return dataclasses.replace(base, members=members[:-1] + [amp * np.eye(base.m1)])
        if name == "separation":
            return dataclasses.replace(base, members=members + [members[-1].copy()])
        if name == "kl_average":
            return dataclasses.replace(base, alpha=1e-9)
        if name == "kl_member_cap":  # the cap reads kappa, a full member sits at twice it
            full = np.full_like(members[0], amp)
            return dataclasses.replace(base, kappa=0.5 * base.kappa, members=members + [full])
        raise AssertionError(name)

    @pytest.mark.parametrize(
        "name", ["cardinality", "entry_values", "sup_norm", "rank", "separation", "kl_average", "kl_member_cap"]
    )
    def test_each_broken_condition_is_reported(self, name):
        base = build_packing(
            8, 8, 2, gamma=1.0, alpha=0.1, sigma_hi_sq=1.0, n=300, rng=np.random.default_rng(5)
        )
        args = (Gaussian(sigma=1.0), uniform_scheme(8, 8), 300, ParameterBox.symmetric(1.0))
        assert verify_conditions(base, *args).passed
        report = verify_conditions(self._break(name, base), *args)
        assert name in report.failures
        assert not report.passed

    def test_report_values_populated(self):
        packing, report = self.make(n=1000)
        assert report.cardinality == packing.cardinality
        assert report.min_pairwise_sq >= report.separation_threshold - 1e-12
        assert report.lower_bound_value > 0
        assert 0 < report.delta_value < 1


class TestPersistence:
    def test_roundtrip_bit_identical(self, tmp_path):
        packing = build_packing(
            8, 8, 2, gamma=1.0, alpha=0.1, sigma_hi_sq=1.0, n=300,
            rng=np.random.default_rng(5),
        )
        save_packing(packing, tmp_path / "p", seed=5)
        paths = sorted((tmp_path / "p").glob("member_*.csv"))
        assert [path.name for path in paths] == [f"member_{i:04d}.csv" for i in range(packing.cardinality)]
        for member, path in zip(packing.members, paths):
            assert np.array_equal(load_matrix_csv(path), member)

    def test_manifest_contents(self, tmp_path):
        import json

        packing = build_packing(
            8, 8, 2, gamma=1.0, alpha=0.1, sigma_hi_sq=1.0, n=300,
            rng=np.random.default_rng(6),
        )
        save_packing(packing, tmp_path / "p", seed=6)
        manifest = json.loads((tmp_path / "p" / "manifest.json").read_text())
        assert manifest["alpha"] == packing.alpha
        assert manifest["kappa"] == packing.kappa
        assert manifest["r"] == 2 and manifest["gamma"] == 1.0
        assert manifest["seed"] == 6
