import math

import numpy as np
import pytest

from expmc import (
    CoverageError,
    ObservationSet,
    SamplingScheme,
    product_scheme,
    rademacher_norm_estimate,
    scheme_from_config,
    uniform_scheme,
)
from expmc.io import save_matrix_csv


class TestSchemeConstruction:
    def test_uniform_2x2(self):
        s = uniform_scheme(2, 2)
        assert np.allclose(s.pi, 0.25)

    def test_uniform_degenerate(self):
        assert uniform_scheme(1, 1).pi.tolist() == [[1.0]]

    def test_uniform_constants(self):
        s = uniform_scheme(100, 50)
        assert s.mu_constant() == pytest.approx(1.0, rel=1e-12)
        assert s.nu_constant() == pytest.approx(1.0, rel=1e-12)

    def test_table_must_normalize(self):
        with pytest.raises(ValueError):
            SamplingScheme(np.full((2, 2), 0.3))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            SamplingScheme(np.array([[1.2, -0.2], [0.0, 0.0]]))

    def test_product_scheme_marginals(self):
        s = product_scheme([1.0, 3.0], [1.0, 1.0, 2.0])
        assert np.allclose(s.row_marginals(), [0.25, 0.75])
        assert np.allclose(s.col_marginals(), [0.25, 0.25, 0.5])

    def test_immutable(self):
        s = uniform_scheme(2, 2)
        with pytest.raises(ValueError):
            s.pi[0, 0] = 0.9


class TestMuConstant:
    def test_uniform(self):
        assert uniform_scheme(10, 10).mu_constant() == pytest.approx(1.0)

    def test_definition_inversion(self):
        # Smallest cell at half the uniform probability gives mu = 2.
        m1, m2 = 4, 5
        pi = np.full((m1, m2), (1.0 - 0.5 / (m1 * m2)) / (m1 * m2 - 1))
        pi[0, 0] = 0.5 / (m1 * m2)
        assert SamplingScheme(pi).mu_constant() == pytest.approx(2.0, rel=1e-12)

    def test_zero_cell_reported(self):
        pi = np.full((2, 2), 1.0 / 3.0)
        pi[0, 0] = 0.0
        with pytest.raises(CoverageError):
            SamplingScheme(pi).mu_constant()


class TestNuConstant:
    def test_uniform_rectangular(self):
        assert uniform_scheme(100, 50).nu_constant() == pytest.approx(1.0, rel=1e-12)

    def test_uniform_square(self):
        assert uniform_scheme(7, 7).nu_constant() == pytest.approx(1.0, rel=1e-12)

    def test_heavy_row(self):
        # Half the mass on one row of a 10x10 table: max marginal 0.5, nu = 5.
        pi = np.full((10, 10), 0.5 / 90.0)
        pi[0, :] = 0.05
        assert SamplingScheme(pi).nu_constant() == pytest.approx(5.0, rel=1e-12)

    def test_transposition_invariance(self):
        rng = np.random.default_rng(0)
        pi = rng.random((6, 9))
        pi /= pi.sum()
        s = SamplingScheme(pi)
        t = s.transpose()
        assert s.nu_constant() == pytest.approx(t.nu_constant(), rel=1e-12)
        assert s.mu_constant() == pytest.approx(t.mu_constant(), rel=1e-12)


class TestDraw:
    def test_empirical_frequencies(self):
        s = uniform_scheme(2, 2)
        rows, cols = s.draw(10**5, np.random.default_rng(1))
        freqs = np.zeros((2, 2))
        np.add.at(freqs, (rows, cols), 1.0 / 10**5)
        assert np.all(np.abs(freqs - 0.25) <= 0.01)

    def test_point_mass(self):
        pi = np.zeros((3, 3))
        pi[1, 2] = 1.0
        rows, cols = SamplingScheme(pi).draw(50, np.random.default_rng(2))
        assert np.all(rows == 1) and np.all(cols == 2)

    def test_n_zero_rejected(self):
        with pytest.raises(ValueError):
            uniform_scheme(2, 2).draw(0, np.random.default_rng(0))

    def test_reproducible_with_fixed_seed(self):
        s = uniform_scheme(5, 7)
        a = s.draw(100, np.random.default_rng(123))
        b = s.draw(100, np.random.default_rng(123))
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_nonuniform_frequencies(self):
        s = product_scheme([1.0, 3.0], [1.0, 1.0])
        rows, _ = s.draw(10**5, np.random.default_rng(3))
        assert np.mean(rows == 1) == pytest.approx(0.75, abs=0.01)


class TestRademacherNorm:
    def test_single_point_mass_is_one(self):
        pi = np.zeros((4, 4))
        pi[0, 0] = 1.0
        est = rademacher_norm_estimate(SamplingScheme(pi), 1, 10, np.random.default_rng(0))
        assert est == pytest.approx(1.0, abs=1e-12)

    def test_uniform_below_closed_form_bound(self):
        est = rademacher_norm_estimate(uniform_scheme(50, 50), 2000, 200, np.random.default_rng(4))
        bound = (1 + math.sqrt(3)) * math.sqrt(2 * math.e * math.log(100) / (50 * 2000))
        assert est <= bound

    def test_doubling_n_shrinks_like_inverse_sqrt(self):
        s = uniform_scheme(30, 30)
        rng = np.random.default_rng(5)
        est1 = rademacher_norm_estimate(s, 1500, 150, rng)
        est2 = rademacher_norm_estimate(s, 3000, 150, rng)
        assert 0.6 <= est2 / est1 <= 0.8

    def test_reps_validated(self):
        with pytest.raises(ValueError):
            rademacher_norm_estimate(uniform_scheme(2, 2), 10, 0, np.random.default_rng(0))


class TestWeightedNormInequality:
    def test_weighted_square_sum_dominates_scaled_frobenius(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            m1, m2 = rng.integers(2, 9, 2)
            pi = rng.random((m1, m2)) + 0.05
            pi /= pi.sum()
            s = SamplingScheme(pi)
            mu = s.mu_constant()
            a = rng.standard_normal((m1, m2)) * 3.0
            weighted = float((pi * a * a).sum())
            assert weighted >= (a * a).sum() / (mu * m1 * m2) - 1e-10


class TestObservationSet:
    def test_requires_samples(self):
        with pytest.raises(ValueError):
            ObservationSet(m1=2, m2=2, rows=np.array([], int), cols=np.array([], int), ys=np.array([]))

    def test_bounds_checked(self):
        with pytest.raises(ValueError):
            ObservationSet(m1=2, m2=2, rows=np.array([2]), cols=np.array([0]), ys=np.array([1.0]))

    def test_n(self):
        obs = ObservationSet(m1=2, m2=3, rows=np.array([0, 1]), cols=np.array([2, 0]), ys=np.array([1.0, 2.0]))
        assert obs.n == 2

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            ObservationSet(m1=2, m2=2, rows=np.array([0, 1]), cols=np.array([0, 1]), ys=np.array([0.5, bad]))


class TestConfig:
    def test_uniform_spec(self):
        s = scheme_from_config({"sampling": "uniform"}, 3, 4)
        assert s.pi.shape == (3, 4)

    def test_table_spec(self, tmp_path):
        pi = np.array([[0.1, 0.2], [0.3, 0.4]])
        path = tmp_path / "pi.csv"
        save_matrix_csv(path, pi)
        s = scheme_from_config({"sampling": "table", "path": str(path)})
        assert np.array_equal(s.pi, pi)

    def test_unknown_spec(self):
        with pytest.raises(ValueError):
            scheme_from_config({"sampling": "adaptive"}, 2, 2)
