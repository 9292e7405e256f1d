import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expmc import (
    CellSummary,
    CoverageError,
    ObservationSet,
    SamplingScheme,
    operator_norm,
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

    def test_exactly_one_on_every_uniform_table(self):
        # 1 / (m1 m2 min pi) rounds off 1 on 344 of these sizes (7x7, 1x49, 3x79, ...).
        off = [(m1, m2) for m1 in range(1, 80) for m2 in range(1, 80)
               if uniform_scheme(m1, m2).mu_constant() != 1.0]
        assert off == []

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
        t = SamplingScheme(pi.T.copy())
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

    @pytest.mark.parametrize("shape", [(1, 9), (9, 1), (7, 13)])
    def test_indices_match_unravel_index(self, shape):
        pi = np.random.default_rng(5).random(shape)
        s = SamplingScheme(pi / pi.sum())
        rows, cols = s.draw(500, np.random.default_rng(6))
        flat = s._draw_flat(500, np.random.default_rng(6))
        ref_rows, ref_cols = np.unravel_index(flat, shape)
        assert rows.dtype == cols.dtype == np.int64
        assert np.array_equal(rows, ref_rows) and np.array_equal(cols, ref_cols)

    @pytest.mark.parametrize("pi", [
        np.full((7, 13), 1.0 / 91),
        np.outer([1.0, 0.0, 3.0, 0.5], [0.2, 1.0, 0.0, 2.0, 0.8]) / (4.5 * 4.0),
    ], ids=["uniform", "product-with-zero-cells"])
    @pytest.mark.parametrize("n", [1, 40, 2000])
    def test_counts_are_the_bincount_of_draw(self, pi, n):
        # Same seed, same cells: the counts keep the cell stream, and leave the
        # generator where draw leaves it.
        s = SamplingScheme(pi)
        rng_counts, rng_draw = np.random.default_rng(8), np.random.default_rng(8)
        counts = s.counts(n, rng_counts)
        rows, cols = s.draw(n, rng_draw)
        expected = np.bincount(rows * s.m2 + cols, minlength=pi.size).reshape(pi.shape)
        assert counts.dtype == np.int64 and np.array_equal(counts, expected)
        assert rng_counts.random() == rng_draw.random()

    def test_counts_n_zero_rejected(self):
        with pytest.raises(ValueError):
            uniform_scheme(2, 2).counts(0, np.random.default_rng(0))

    def test_nonuniform_frequencies(self):
        s = product_scheme([1.0, 3.0], [1.0, 1.0])
        rows, _ = s.draw(10**5, np.random.default_rng(3))
        assert np.mean(rows == 1) == pytest.approx(0.75, abs=0.01)


def searchsorted_draw(pi, u):
    """Reference inverse-CDF draw: binary search on the flat cumulative table."""
    cdf = np.cumsum(np.asarray(pi, dtype=float).reshape(-1))
    return np.minimum(np.searchsorted(cdf, u, side="right"), cdf.size - 1)


class FixedUniforms:
    """Generator stand-in whose ``random(n)`` returns preset uniforms."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=float)

    def random(self, n):
        assert n == self.u.size
        return self.u.copy()


def bucket_floors(k):
    """Smallest double u with int(u * k) == b, for each bucket b of k."""
    b = np.arange(k)
    u = b / k
    while True:
        down = np.nextafter(u, 0.0)
        step = (b > 0) & ((down * k).astype(np.int64) >= b)
        if not step.any():
            return u
        u = np.where(step, down, u)


@st.composite
def prob_tables(draw):
    """Tables with zero cells, point masses, 1x1 and 1xm shapes, weights
    spread over 15 orders of magnitude and totals of 1 +- 1e-13."""
    m1 = draw(st.integers(1, 12))
    m2 = draw(st.integers(1, 12))
    cell = st.one_of(st.just(0.0), st.floats(-35.0, 0.0).map(math.exp))
    w = np.array(draw(st.lists(cell, min_size=m1 * m2, max_size=m1 * m2)))
    if draw(st.booleans()):
        w[:] = 0.0
    if w.sum() == 0.0:
        w[draw(st.integers(0, w.size - 1))] = 1.0
    w = w / w.sum() * (1.0 + draw(st.sampled_from([-1e-13, 0.0, 1e-13])))
    return w.reshape(m1, m2)


class TestGuideTableDraw:
    @settings(max_examples=300, deadline=None)
    @given(pi=prob_tables(), seed=st.integers(0, 2**32 - 1), n=st.integers(1, 2000))
    def test_equals_binary_search_on_the_same_stream(self, pi, seed, n):
        flat = SamplingScheme(pi)._draw_flat(n, np.random.default_rng(seed))
        u = np.random.default_rng(seed).random(n)
        assert np.array_equal(flat, searchsorted_draw(pi, u))

    @pytest.mark.parametrize("name", ["uniform", "zero_runs", "point_last", "one_by_one",
                                      "row", "sum_below_one", "sum_above_one"])
    def test_edge_uniforms(self, name):
        m1, m2 = {"one_by_one": (1, 1), "row": (1, 7), "point_last": (3, 3)}.get(name, (10, 10))
        pi = np.full((m1, m2), 1.0 / (m1 * m2))
        if name == "zero_runs":
            # Runs of 40 and 25 zero cells: longer than any guide walk.
            pi = np.ones(100)
            pi[10:50] = 0.0
            pi[70:95] = 0.0
            pi = (pi / pi.sum()).reshape(10, 10)
        elif name == "point_last":
            pi = np.zeros((3, 3))
            pi[2, 2] = 1.0
        elif name == "sum_below_one":
            pi = pi * (1.0 - 1e-13)
        elif name == "sum_above_one":
            pi = pi * (1.0 + 1e-13)
        cdf = np.cumsum(pi.reshape(-1))
        u = np.concatenate([
            [0.0, np.nextafter(1.0, 0.0)],
            cdf[cdf < 1.0],
            np.nextafter(cdf, 0.0),
            np.nextafter(cdf, 1.0)[cdf < 1.0],
            bucket_floors(pi.size),
            np.nextafter(bucket_floors(pi.size), 0.0),
        ])
        u = u[(u >= 0.0) & (u < 1.0)]
        flat = SamplingScheme(pi)._draw_flat(u.size, FixedUniforms(u))
        assert np.array_equal(flat, searchsorted_draw(pi, u))

    @pytest.mark.parametrize("k", [6, 7, 49, 3600, 10000])
    def test_bucket_floors_on_uniform_tables(self, k):
        # Uniform CDF values sit on the bucket edges, so a guide edge above
        # the smallest u of its bucket would start past the answer.
        pi = np.full((1, k), 1.0 / k)
        u = bucket_floors(k)
        flat = SamplingScheme(pi)._draw_flat(k, FixedUniforms(u))
        assert np.array_equal(flat, searchsorted_draw(pi, u))


class TestRademacherNorm:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("table", ["uniform", "product", "skewed"])
    def test_matches_binary_search_and_add_at_loop(self, seed, table):
        gen = np.random.default_rng([seed, 99])
        pi = {
            "uniform": np.full((9, 11), 1.0 / 99),
            "product": np.outer(gen.random(9), gen.random(11)),
            "skewed": gen.lognormal(0.0, 3.0, (9, 11)),
        }[table]
        pi = pi / pi.sum()
        n, reps = 700, 5
        rng = np.random.default_rng(seed)
        total = 0.0
        for _ in range(reps):
            flat_idx = searchsorted_draw(pi, rng.random(n))
            signs = rng.integers(0, 2, size=n) * 2 - 1
            acc = np.zeros(pi.size)
            np.add.at(acc, flat_idx, signs.astype(float))
            # The norm's accuracy is TestOperatorNorm's; this pins the draws and sums.
            total += operator_norm(acc.reshape(pi.shape) / n)
        est = rademacher_norm_estimate(SamplingScheme(pi), n, reps, np.random.default_rng(seed))
        assert est == total / reps


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

    @pytest.mark.parametrize("bad", [[0.7, 1.9], [0.0, math.nan], [0.0, math.inf]], ids=["fractional", "nan", "inf"])
    def test_fractional_or_non_finite_indices_rejected(self, bad):
        # An int64 cast would read [0.7, 1.9] as rows 0 and 1.
        with pytest.raises(ValueError, match="integers"):
            ObservationSet(2, 2, rows=bad, cols=[0, 1], ys=[1.0, 2.0])
        with pytest.raises(ValueError, match="integers"):
            ObservationSet(2, 2, rows=[0, 1], cols=bad, ys=[1.0, 2.0])

    def test_boolean_indices_rejected(self):
        # An int64 cast would read [True, False] as rows 1 and 0.
        with pytest.raises(ValueError, match="not booleans"):
            ObservationSet(2, 2, rows=[True, False], cols=[0, 1], ys=[1.0, 2.0])
        with pytest.raises(ValueError, match="not booleans"):
            ObservationSet(2, 2, rows=[0, 1], cols=np.array([True, False]), ys=[1.0, 2.0])

    def test_integral_float_indices_accepted(self):
        obs = ObservationSet(2, 3, rows=[0.0, 1.0], cols=[2.0, 0.0], ys=[1.0, 2.0])
        assert obs.rows.dtype == obs.cols.dtype == np.int64
        assert obs.rows.tolist() == [0, 1] and obs.cols.tolist() == [2, 0]

    @pytest.mark.parametrize("big", [1e20, -1e20, 2.0**63])
    def test_huge_float_index_out_of_range_not_wrapped(self, big):
        with pytest.raises(ValueError, match="out of range"):
            ObservationSet(2, 2, rows=[0.0, big], cols=[0, 1], ys=[1.0, 2.0])

    def test_n(self):
        obs = ObservationSet(m1=2, m2=3, rows=np.array([0, 1]), cols=np.array([2, 0]), ys=np.array([1.0, 2.0]))
        assert obs.n == 2

    def test_callers_arrays_stay_writeable_and_shared(self):
        given = {"rows": np.array([0, 1], dtype=np.int64), "cols": np.array([1, 0], dtype=np.int64),
                 "ys": np.array([0.5, -0.5])}
        obs = ObservationSet(2, 2, **given)
        for name, arr in given.items():
            held = getattr(obs, name)
            assert arr.flags.writeable and not held.flags.writeable, name
            assert np.shares_memory(arr, held), name

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            ObservationSet(m1=2, m2=2, rows=np.array([0, 1]), cols=np.array([0, 1]), ys=np.array([0.5, bad]))

    def test_summary(self):
        obs = ObservationSet(2, 3, rows=[0, 1, 0, 0], cols=[2, 0, 2, 1], ys=[1.5, -2.0, 0.25, 3.0])
        cells = obs.summary()
        assert (cells.m1, cells.m2, cells.n) == (2, 3, 4)
        assert cells.counts.tolist() == [[0.0, 1.0, 2.0], [1.0, 0.0, 0.0]]
        assert cells.sums.tolist() == [[0.0, 3.0, 1.75], [-2.0, 0.0, 0.0]]


class TestCellSummary:
    def test_fields(self):
        cells = CellSummary(np.array([[0, 2], [1, 0]]), np.array([[0.0, 1.5], [-1.0, 0.0]]))
        assert (cells.m1, cells.m2, cells.n) == (2, 2, 3)
        assert cells.counts.dtype == cells.sums.dtype == np.float64

    def test_boolean_counts_rejected(self):
        # As floats, a boolean table would read as counts 1 and 0.
        with pytest.raises(ValueError, match="not booleans"):
            CellSummary(np.array([[True, False]]), np.array([[2.5, 0.0]]))

    def test_callers_arrays_stay_writeable_and_shared(self):
        counts, sums = np.array([[1.0, 0.0]]), np.array([[2.5, 0.0]])
        cells = CellSummary(counts, sums)
        for arr, held in ((counts, cells.counts), (sums, cells.sums)):
            assert arr.flags.writeable and not held.flags.writeable
            assert np.shares_memory(arr, held)


class TestConfig:
    def test_uniform_spec(self):
        s = scheme_from_config({"sampling": "uniform"}, 3, 4)
        assert s.pi.shape == (3, 4)

    def test_table_spec(self, tmp_path):
        pi = np.array([[0.1, 0.2], [0.3, 0.4]])
        path = tmp_path / "pi.csv"
        save_matrix_csv(path, pi)
        s = scheme_from_config({"sampling": "table", "path": str(path)}, 2, 2)
        assert np.array_equal(s.pi, pi)

    @pytest.mark.parametrize("m1, m2", [(3, 3), (2, 3), (3, 2), (1, 4)])
    def test_table_of_another_shape_rejected(self, tmp_path, m1, m2):
        path = tmp_path / "pi.csv"
        save_matrix_csv(path, np.full((2, 2), 0.25))
        with pytest.raises(ValueError, match=rf"shape \(2, 2\), expected \({m1}, {m2}\)"):
            scheme_from_config({"sampling": "table", "path": str(path)}, m1, m2)

    def test_unknown_spec(self):
        with pytest.raises(ValueError):
            scheme_from_config({"sampling": "adaptive"}, 2, 2)
