import math
import re

import numpy as np
import pytest

from conftest import FAMILY_CASES, power_iteration_norm

from expmc import (
    KNOWN_SAMPLING,
    LIKELIHOOD,
    Binomial,
    CellSummary,
    CompletionProblem,
    DomainError,
    Exponential,
    Gaussian,
    ObservationSet,
    ParameterBox,
    Poisson,
    SolverConfig,
    combined_prox,
    fit,
    gradient,
    neg_loglik,
    nuclear_norm,
    operator_norm,
    oracle_lambda,
    product_scheme,
    theorem_lambda,
    uniform_scheme,
)
from expmc import estimator, matops
from expmc.bench import (
    ExperimentConfig,
    gen_truth,
    resolve_lambda,
    simulate,
    solver_from_config,
)

BOX1 = ParameterBox.symmetric(1.0)

# The configs of two benchmark workloads: a binomial 300x300 likelihood fit
# and a box-bound Gaussian 60x60 known-sampling fit, both at the oracle level.
BINOM300 = {
    "family": {"family": "binomial", "trials": 1}, "sampling": {"sampling": "uniform"},
    "m1": 300, "m2": 300, "rank": 3, "gamma": 1.0, "truth": "flat",
    "n": 120000, "lambda_mode": "oracle", "mode": "likelihood",
}
KS_G60 = {
    "family": {"family": "gaussian", "sigma": 1.0}, "sampling": {"sampling": "uniform"},
    "m1": 60, "m2": 60, "rank": 3, "gamma": 1.0, "truth": "flat",
    "n": 24000, "lambda_mode": "oracle", "mode": "known_sampling",
}


def config_problem(config, seed):
    """The problem ``expmc fit`` solves for ``config`` at ``--seed seed``, at its penalty level."""
    cfg = ExperimentConfig.from_dict(config)
    truth, probe = cfg.replicate(cfg.n_single, np.random.default_rng([seed, 0]))
    return probe.with_lambda(resolve_lambda(cfg, probe, truth.x_bar))


def single_obs_problem(y=2.0, lam=0.0, m1=2, m2=2):
    obs = ObservationSet(m1=m1, m2=m2, rows=np.array([0]), cols=np.array([0]), ys=np.array([y]))
    return CompletionProblem(obs=obs, family=Gaussian(sigma=1.0), box=ParameterBox.symmetric(3.0), lam=lam)


def random_problem(rng, family, box, mode=LIKELIHOOD, m1=6, m2=5, n=120, lam=0.01):
    scheme = uniform_scheme(m1, m2)
    truth = gen_truth(m1, m2, 2, ParameterBox(box.lo * 0.9, box.hi * 0.9), rng)
    obs = simulate(truth, family, scheme, n, rng)
    problem = CompletionProblem(
        obs=obs, family=family, box=box, lam=lam, mode=mode,
        scheme=scheme if mode == KNOWN_SAMPLING else None,
    )
    return problem, truth


class TestProblemValidation:
    def test_negative_penalty_rejected(self):
        with pytest.raises(ValueError):
            single_obs_problem(lam=-1.0)

    @pytest.mark.parametrize("lam", [math.nan, math.inf])
    def test_non_finite_penalty_rejected(self, lam):
        with pytest.raises(ValueError, match="finite"):
            single_obs_problem(lam=lam)
        with pytest.raises(ValueError, match="finite"):
            single_obs_problem().with_lambda(lam)

    def test_known_sampling_needs_scheme(self):
        obs = ObservationSet(m1=2, m2=2, rows=np.array([0]), cols=np.array([0]), ys=np.array([0.5]))
        with pytest.raises(ValueError):
            CompletionProblem(obs=obs, family=Gaussian(), box=BOX1, lam=0.0, mode=KNOWN_SAMPLING)

    def test_scheme_dims_must_match(self):
        obs = ObservationSet(m1=2, m2=2, rows=np.array([0]), cols=np.array([0]), ys=np.array([0.5]))
        with pytest.raises(ValueError):
            CompletionProblem(
                obs=obs, family=Gaussian(), box=BOX1, lam=0.0,
                mode=KNOWN_SAMPLING, scheme=uniform_scheme(3, 2),
            )

    def test_box_must_fit_domain(self):
        obs = ObservationSet(m1=2, m2=2, rows=np.array([0]), cols=np.array([0]), ys=np.array([0.5]))
        with pytest.raises(DomainError):
            CompletionProblem(obs=obs, family=Exponential(), box=BOX1, lam=0.0)

    @pytest.mark.parametrize("family, box, shape, n", [
        (Gaussian(sigma=1e200), BOX1, (6, 5), 100),  # sigma^2 overflows
        (Gaussian(sigma=1e-200), BOX1, (6, 5), 100),  # sigma^2 underflows to 0
        (Gaussian(sigma=1e-160), BOX1, (6, 5), 100),  # 1 / sigma^2 overflows
        (Gaussian(sigma=1e-153), BOX1, (60, 60), 1000),  # only m1 m2 / sigma^2 overflows
        (Exponential(), ParameterBox(-2.0, -1e-160), (6, 5), 100),  # 1 / hi^2 overflows
        (Exponential(), ParameterBox(-2.0, -1e-170), (6, 5), 100),  # hi^2 underflows to 0
    ], ids=["sigma_1e200", "sigma_1e-200", "sigma_1e-160", "sigma_1e-153", "exp_hi_1e-160", "exp_hi_1e-170"])
    def test_curvature_that_overflows_or_underflows_rejected_before_any_svt(
        self, monkeypatch, family, box, shape, n
    ):
        svts = []
        monkeypatch.setattr(matops, "svt", lambda *args: svts.append(args))
        rng = np.random.default_rng(17)
        obs = ObservationSet(*shape, rng.integers(0, shape[0], n), rng.integers(0, shape[1], n), np.ones(n))
        names = re.escape(f"{family.name} model") + ".*" + re.escape(f"box [{box.lo}, {box.hi}]")
        with pytest.raises(ValueError, match=names):
            fit(CompletionProblem(obs=obs, family=family, box=box, lam=0.1))
        assert not svts

    def test_with_lambda_keeps_the_sample_and_checks_the_level(self):
        p = single_obs_problem(y=2.0)
        q = p.with_lambda(0.5)
        assert (q.lam, p.lam) == (0.5, 0.0)
        assert q.y_sum is p.y_sum and q.obs is p.obs
        with pytest.raises(ValueError):
            p.with_lambda(-1.0)

    @pytest.mark.parametrize(
        "family, y", [(Poisson(), -2.0), (Binomial(trials=1), 3.0)], ids=["poisson", "binomial"]
    )
    def test_observations_outside_the_family_range_rejected(self, family, y):
        obs = ObservationSet(m1=4, m2=4, rows=np.arange(4), cols=np.arange(4), ys=np.array([0.0, 1.0, y, 1.0]))
        with pytest.raises(ValueError, match="outside the range"):
            CompletionProblem(obs=obs, family=family, box=BOX1, lam=0.1)

    @pytest.mark.parametrize("family, box, ys", [
        (Gaussian(), BOX1, [-40.0, 40.0]),
        (Binomial(trials=3), BOX1, [0.0, 3.0]),
        (Poisson(), BOX1, [0.0, 1e6]),
        (Exponential(), ParameterBox(-2.0, -0.4), [0.0, 1e6]),
    ], ids=["gaussian", "binomial", "poisson", "exponential"])
    def test_range_ends_accepted(self, family, box, ys):
        obs = ObservationSet(m1=2, m2=2, rows=np.array([0, 1]), cols=np.array([0, 1]), ys=np.array(ys))
        CompletionProblem(obs=obs, family=family, box=box, lam=0.0)

    def test_noiseless_means_accepted(self, family_case):
        family, box = family_case
        x_bar = np.linspace(box.lo, box.hi, 12).reshape(3, 4)
        obs = CellSummary(np.ones(x_bar.shape), family.mean(x_bar))
        CompletionProblem(obs=obs, family=family, box=box, lam=0.0)


class TestSampleSummaries:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("shape", [(1, 1), (1, 9), (7, 5), (40, 30)])
    def test_counts_and_sums_match_add_at(self, seed, shape):
        # Many repeats per cell with non-integer values: the sums depend on
        # the order of the additions, which must be the sample order.
        rng = np.random.default_rng(seed)
        m1, m2 = shape
        n = 50 * m1 * m2
        rows, cols = uniform_scheme(m1, m2).draw(n, rng)
        ys = rng.normal(0.3, 2.0, n)
        p = CompletionProblem(
            obs=ObservationSet(m1=m1, m2=m2, rows=rows, cols=cols, ys=ys),
            family=Gaussian(), box=BOX1, lam=0.0,
        )
        counts = np.zeros(shape)
        y_sum = np.zeros(shape)
        np.add.at(counts, (rows, cols), 1.0)
        np.add.at(y_sum, (rows, cols), ys)
        assert np.array_equal(p.counts, counts)
        assert np.array_equal(p.y_sum, y_sum)

    @pytest.mark.parametrize("mode", [LIKELIHOOD, KNOWN_SAMPLING])
    def test_cell_summary_gives_the_observation_problem(self, family_case, mode):
        # The data term reads only counts and sums: a problem built from them
        # gives the one built from the observations bit for bit.
        fam, box = family_case
        rng = np.random.default_rng(21)
        scheme = product_scheme([1.0, 2.0, 0.5, 3.0], [0.2, 1.0, 2.5, 1.0, 0.7])
        truth = gen_truth(4, 5, 2, box, rng)
        obs = simulate(truth, fam, scheme, 60, rng)
        counts, sums = np.zeros((4, 5)), np.zeros((4, 5))
        np.add.at(counts, (obs.rows, obs.cols), 1.0)
        np.add.at(sums, (obs.rows, obs.cols), obs.ys)
        assert (counts == 0).any() and counts.max() >= 2
        kw = dict(family=fam, box=box, lam=0.0, mode=mode, scheme=scheme)
        p_obs = CompletionProblem(obs=obs, **kw)
        p_cells = CompletionProblem(obs=CellSummary(counts, sums), **kw)
        assert p_cells.shape == p_obs.shape and p_cells.obs.n == obs.n
        for x in (truth.x_bar, gen_truth(4, 5, 2, box, rng).x_bar):
            assert neg_loglik(p_cells, x) == neg_loglik(p_obs, x)
            assert np.array_equal(gradient(p_cells, x), gradient(p_obs, x))


def cell_table(cells, shape=(2, 2)):
    """A table of ``shape``, zero but at the cells of the dict ``{(row, col): value}``."""
    out = np.zeros(shape)
    for cell, value in cells.items():
        out[cell] = value
    return out


class TestCellSummaryRejected:
    """A bad cell summary fails when the problem is built, with a clear ValueError."""

    @pytest.mark.parametrize("counts, sums, match", [
        (cell_table({(0, 0): -1, (0, 1): 2}), cell_table({(0, 0): 1.0}), "nonnegative integers"),
        (cell_table({(0, 0): 1.5}), cell_table({(0, 0): 1.0}), "nonnegative integers"),
        (cell_table({(0, 0): math.inf}), cell_table({(0, 0): 1.0}), "nonnegative integers"),
        (cell_table({(0, 0): 1}), np.zeros((2, 3)), "one shape"),
        (np.ones(4), np.ones(4), "one shape"),
        (cell_table({(0, 0): 1}), cell_table({(0, 0): math.nan}), "finite"),
        (cell_table({(0, 0): 1}), cell_table({(0, 0): math.inf}), "finite"),
        (cell_table({(0, 0): 1}), cell_table({(0, 0): 1.0, (1, 1): 2.0}), "no observation"),
        (np.zeros((2, 2)), np.zeros((2, 2)), "at least one observation"),
    ], ids=["negative-count", "fractional-count", "infinite-count", "shape-mismatch", "not-2d",
            "nan-sum", "inf-sum", "sum-on-unobserved-cell", "empty"])
    def test_malformed_summary(self, counts, sums, match):
        with pytest.raises(ValueError, match=match):
            CompletionProblem(obs=CellSummary(counts, sums), family=Gaussian(), box=BOX1, lam=0.0)

    @pytest.mark.parametrize("family, box, count, total", [
        (Binomial(trials=1), BOX1, 2, 3.0),
        (Binomial(trials=3), BOX1, 2, -1.0),
        (Poisson(), BOX1, 3, -1.0),
        (Exponential(), ParameterBox(-2.0, -0.4), 1, -0.5),
    ], ids=["binomial-above", "binomial-below", "poisson-negative", "exponential-negative"])
    def test_sum_outside_k_times_the_range(self, family, box, count, total):
        cells = CellSummary(cell_table({(0, 0): count, (1, 1): 1}), cell_table({(0, 0): total}))
        with pytest.raises(ValueError, match=r"sums of k observations outside k times the range"):
            CompletionProblem(obs=cells, family=family, box=box, lam=0.0)

    @pytest.mark.parametrize("family, box, count, total", [
        (Binomial(trials=1), BOX1, 2, 2.0),
        (Binomial(trials=3), BOX1, 4, 12.0),
        (Poisson(), BOX1, 3, 0.0),
        (Exponential(), ParameterBox(-2.0, -0.4), 2, 0.0),
        (Gaussian(), BOX1, 5, -1e6),
    ], ids=["binomial-top", "binomial-4x3", "poisson-zero", "exponential-zero", "gaussian"])
    def test_range_ends_accepted(self, family, box, count, total):
        # The unobserved cells hold count 0 and sum 0; they are not compared, as 0 * inf is NaN.
        cells = CellSummary(cell_table({(0, 0): count}), cell_table({(0, 0): total}))
        p = CompletionProblem(obs=cells, family=family, box=box, lam=0.0)
        assert p.obs.n == count and p.y_sum[0, 0] == total


class TestNegLoglik:
    def test_gaussian_single_observation(self):
        p = single_obs_problem(y=2.0)
        x = np.zeros((2, 2))
        x[0, 0] = 2.0
        assert neg_loglik(p, x) == pytest.approx(-2.0, abs=1e-14)

    def test_poisson_at_zero(self):
        rng = np.random.default_rng(0)
        scheme = uniform_scheme(3, 3)
        rows, cols = scheme.draw(40, rng)
        obs = ObservationSet(m1=3, m2=3, rows=rows, cols=cols, ys=rng.poisson(1.0, 40).astype(float))
        p = CompletionProblem(obs=obs, family=Poisson(), box=BOX1, lam=0.0)
        x = np.zeros((3, 3))
        expected = 1.0 - obs.ys.mean() * 0.0  # G(0)=1, x*y term vanishes at x=0
        assert neg_loglik(p, x) == pytest.approx(expected, rel=1e-14)

    def test_known_sampling_equals_likelihood_on_full_design(self):
        # Uniform scheme, every entry observed exactly once, n = m1*m2.
        rng = np.random.default_rng(1)
        fam = Gaussian(sigma=1.0)
        x_bar = gen_truth(2, 2, 1, BOX1, rng).x_bar
        obs = CellSummary(np.ones(x_bar.shape), fam.sample(x_bar, rng))
        scheme = uniform_scheme(2, 2)
        p_lik = CompletionProblem(obs=obs, family=fam, box=BOX1, lam=0.0)
        p_known = CompletionProblem(
            obs=obs, family=fam, box=BOX1, lam=0.0, mode=KNOWN_SAMPLING, scheme=scheme
        )
        x = rng.uniform(-1, 1, (2, 2))
        assert neg_loglik(p_lik, x) == pytest.approx(neg_loglik(p_known, x), rel=1e-12)

    def test_domain_checked_on_observed_entries_only(self):
        obs = ObservationSet(m1=2, m2=2, rows=np.array([0]), cols=np.array([0]), ys=np.array([0.5]))
        p = CompletionProblem(obs=obs, family=Exponential(), box=ParameterBox(-3.0, -0.1), lam=0.0)
        x = np.full((2, 2), -1.0)
        x[1, 1] = 5.0  # never observed, likelihood mode ignores it
        assert math.isfinite(neg_loglik(p, x))
        x[0, 0] = 5.0
        with pytest.raises(DomainError):
            neg_loglik(p, x)


class TestDataTermDefinition:
    """neg_loglik and gradient against a per-observation loop over the paper's definitions."""

    @pytest.mark.parametrize("mode", [LIKELIHOOD, KNOWN_SAMPLING])
    @pytest.mark.parametrize("fam, box", FAMILY_CASES, ids=lambda c: getattr(c, "name", None))
    def test_matches_the_definition(self, fam, box, mode):
        rng = np.random.default_rng(17)
        scheme = product_scheme([1.0, 2.0, 0.5, 3.0, 1.5], [0.2, 1.0, 2.5, 1.0, 0.7, 1.8])
        rows = np.array([0, 0, 0, 1, 2, 2, 3, 4, 4, 4, 1, 3])  # cells (0, 1) and (4, 5) repeat
        cols = np.array([1, 1, 3, 0, 2, 5, 4, 5, 5, 0, 2, 3])  # most cells stay unobserved
        x = rng.uniform(box.lo, box.hi, (5, 6))
        ys = fam.sample(x[rows, cols], rng)
        obs = ObservationSet(m1=5, m2=6, rows=rows, cols=cols, ys=ys)
        p = CompletionProblem(obs=obs, family=fam, box=box, lam=0.0, mode=mode, scheme=scheme)
        assert p.counts.max() >= 2 and (p.counts == 0).any()

        n = obs.n
        data = sum(y * x[r, c] for r, c, y in zip(rows, cols, ys)) / n
        grad = np.zeros((5, 6))
        for r, c, y in zip(rows, cols, ys):
            grad[r, c] -= y / n
        if mode == LIKELIHOOD:
            f = sum(fam.log_partition(x[r, c]) for r, c in zip(rows, cols)) / n - data
            for r, c in zip(rows, cols):
                grad[r, c] += fam.mean(x[r, c]) / n
        else:
            f = sum(scheme.pi[k, l] * fam.log_partition(x[k, l]) for k in range(5) for l in range(6)) - data
            grad += np.array([[scheme.pi[k, l] * fam.mean(x[k, l]) for l in range(6)] for k in range(5)])
        assert neg_loglik(p, x) == pytest.approx(f, rel=1e-12)
        assert np.linalg.norm(gradient(p, x) - grad) <= 1e-12 * np.linalg.norm(grad)

        if fam.name == "exponential":  # an unobserved cell outside the domain
            x[0, 0] = 1.0
            if mode == LIKELIHOOD:
                assert math.isfinite(neg_loglik(p, x)) and np.all(np.isfinite(gradient(p, x)))
            else:
                with pytest.raises(DomainError):
                    neg_loglik(p, x)
                with pytest.raises(DomainError):
                    gradient(p, x)


class TestGradient:
    def test_vanishes_at_noiseless_truth(self, family_case):
        fam, box = family_case
        rng = np.random.default_rng(2)
        scheme = uniform_scheme(5, 4)
        truth = gen_truth(5, 4, 2, ParameterBox(box.lo * 0.9, box.hi * 0.9), rng)
        obs = simulate(truth, fam, scheme, 200, rng, noiseless=True)
        p = CompletionProblem(obs=obs, family=fam, box=box, lam=0.0)
        g = gradient(p, truth.x_bar)
        assert np.allclose(g, 0.0, atol=1e-13)

    def test_single_observation_entry(self):
        p = single_obs_problem(y=2.0)
        g = gradient(p, np.zeros((2, 2)))
        expected = np.zeros((2, 2))
        expected[0, 0] = -2.0
        assert np.allclose(g, expected, atol=1e-14)

    @pytest.mark.parametrize("mode", [LIKELIHOOD, KNOWN_SAMPLING])
    def test_matches_central_finite_differences(self, family_case, mode):
        fam, box = family_case
        rng = np.random.default_rng(3)
        p, _ = random_problem(rng, fam, box, mode=mode)
        x = np.asarray(gen_truth(6, 5, 3, ParameterBox(box.lo * 0.8, box.hi * 0.8), rng).x_bar)
        g = gradient(p, x)
        h = 1e-5
        fd = np.zeros_like(g)
        for k in range(x.shape[0]):
            for l in range(x.shape[1]):
                xp, xm = x.copy(), x.copy()
                xp[k, l] += h
                xm[k, l] -= h
                fd[k, l] = (neg_loglik(p, xp) - neg_loglik(p, xm)) / (2 * h)
        rel = np.linalg.norm(fd - g) / max(np.linalg.norm(g), 1e-10)
        assert rel <= 1e-6


class TestTheoremLambda:
    def test_likelihood_formula_value(self):
        consts = Gaussian(sigma=1.0).interval_constants(BOX1)
        scheme = uniform_scheme(100, 100)
        lam = theorem_lambda(LIKELIHOOD, consts, scheme, 10**4, c_gamma=1.0)
        assert lam == pytest.approx(0.006510494522874917, rel=1e-12)

    def test_known_sampling_reduces_without_mean_bound(self):
        # With l_gamma = 0 the level collapses to sigma_hi * sqrt(2 log d / (m n)).
        from expmc.families import IntervalConstants

        consts = IntervalConstants(1.0, 1.0, 1.0, l_gamma=0.0)
        scheme = uniform_scheme(40, 40)
        lam = theorem_lambda(KNOWN_SAMPLING, consts, scheme, 500, c_gamma=1.0)
        assert lam == pytest.approx(math.sqrt(2 * math.log(80) / (40 * 500)), rel=1e-12)

    def test_inverse_sqrt_n_scaling(self):
        consts = Poisson().interval_constants(BOX1)
        scheme = uniform_scheme(30, 30)
        lam_n = theorem_lambda(LIKELIHOOD, consts, scheme, 1000)
        lam_4n = theorem_lambda(LIKELIHOOD, consts, scheme, 4000)
        assert lam_4n == pytest.approx(lam_n / 2, rel=1e-12)

    def test_unknown_rule(self):
        consts = Gaussian().interval_constants(BOX1)
        with pytest.raises(ValueError):
            theorem_lambda("other", consts, uniform_scheme(2, 2), 10)


class TestOracleLambda:
    def test_zero_on_noiseless_likelihood(self):
        rng = np.random.default_rng(4)
        fam = Gaussian(sigma=1.0)
        truth = gen_truth(5, 5, 2, BOX1, rng)
        obs = simulate(truth, fam, uniform_scheme(5, 5), 100, rng, noiseless=True)
        p = CompletionProblem(obs=obs, family=fam, box=BOX1, lam=0.0)
        assert oracle_lambda(p, truth.x_bar) <= 1e-13

    def test_matches_power_iteration_oracle(self):
        rng = np.random.default_rng(5)
        fam = Binomial(trials=3)
        p, truth = random_problem(rng, fam, ParameterBox.symmetric(1.2), n=300)
        g = gradient(p, truth.x_bar)
        assert oracle_lambda(p, truth.x_bar) == pytest.approx(2 * power_iteration_norm(g), rel=1e-9)

    def test_known_sampling_positive_on_noiseless_nonuniform_draws(self):
        # The expectation under the table differs from the empirical average.
        rng = np.random.default_rng(6)
        fam = Gaussian(sigma=1.0)
        truth = gen_truth(4, 4, 2, BOX1, rng)
        scheme = uniform_scheme(4, 4)
        obs = simulate(truth, fam, scheme, 5, rng, noiseless=True)
        p = CompletionProblem(obs=obs, family=fam, box=BOX1, lam=0.0,
                              mode=KNOWN_SAMPLING, scheme=scheme)
        assert oracle_lambda(p, truth.x_bar) > 1e-6

    def test_factor_one_in_known_sampling_mode(self):
        rng = np.random.default_rng(7)
        fam = Gaussian(sigma=1.0)
        scheme = uniform_scheme(6, 5)
        p, truth = random_problem(rng, fam, BOX1, mode=KNOWN_SAMPLING)
        g = gradient(p, truth.x_bar)
        assert oracle_lambda(p, truth.x_bar) == pytest.approx(operator_norm(g), rel=1e-12)


class TestFit:
    def test_exact_recovery_full_noiseless(self):
        rng = np.random.default_rng(8)
        fam = Gaussian(sigma=1.0)
        truth = gen_truth(12, 10, 3, BOX1, rng)
        obs = CellSummary(np.ones(truth.x_bar.shape), fam.mean(truth.x_bar))
        p = CompletionProblem(obs=obs, family=fam, box=BOX1, lam=1e-8)
        res = fit(p)
        rel = np.linalg.norm(res.x_hat - truth.x_bar) / np.linalg.norm(truth.x_bar)
        assert rel < 1e-4
        assert res.converged

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_full_design_fit_same_from_cell_tables_as_from_one_observation_per_cell(self, seed):
        # The exact-recovery acceptance problems: a table of ones and the means
        # give the fit that one observation per cell, in row-major order, gives.
        fam = Gaussian(sigma=1.0)
        x_bar = gen_truth(30, 30, 3, BOX1, np.random.default_rng([101, seed])).x_bar
        rows, cols = np.divmod(np.arange(900), 30)
        per_observation = ObservationSet(30, 30, rows, cols, fam.mean(x_bar[rows, cols]))
        ref = fit(CompletionProblem(obs=per_observation, family=fam, box=BOX1, lam=1e-8))
        cells = CellSummary(np.ones((30, 30)), fam.mean(x_bar))
        res = fit(CompletionProblem(obs=cells, family=fam, box=BOX1, lam=1e-8))
        assert (res.iterations, res.converged) == (ref.iterations, ref.converged)
        assert np.array_equal(res.x_hat, ref.x_hat)
        assert res.objective_trace == ref.objective_trace

    def test_zero_solution_above_spectral_threshold(self):
        # Noisy data around the zero truth: the estimate collapses to zero
        # exactly once the penalty clears the data matrix's operator norm.
        rng = np.random.default_rng(9)
        fam = Gaussian(sigma=1.0)
        scheme = uniform_scheme(6, 6)
        rows, cols = scheme.draw(200, rng)
        ys = rng.normal(0.0, 1.0, 200)
        obs = ObservationSet(m1=6, m2=6, rows=rows, cols=cols, ys=ys)
        data = np.zeros((6, 6))
        np.add.at(data, (rows, cols), ys)
        lam = operator_norm(data / 200) * 1.0001
        p = CompletionProblem(obs=obs, family=fam, box=BOX1, lam=lam)
        res = fit(p)
        assert np.allclose(res.x_hat, 0.0, atol=1e-10)

    def test_objective_never_increases(self):
        rng = np.random.default_rng(10)
        for fam, box in [(Gaussian(sigma=1.0), BOX1), (Poisson(), BOX1),
                         (Exponential(), ParameterBox(-2.0, -0.4))]:
            p, _ = random_problem(rng, fam, box, lam=0.005)
            res = fit(p)
            trace = np.array(res.objective_trace)
            assert np.all(np.diff(trace) <= 1e-8)
            assert trace[-1] <= trace[0]

    def test_feasibility_of_iterate(self, family_case):
        fam, box = family_case
        rng = np.random.default_rng(11)
        p, _ = random_problem(rng, fam, box, lam=0.01)
        res = fit(p)
        assert box.contains(res.x_hat, tol=1e-12)

    def test_prox_residual_small_on_converged(self):
        rng = np.random.default_rng(12)
        p, _ = random_problem(rng, Gaussian(sigma=1.0), BOX1, lam=0.01, n=400)
        cfg = SolverConfig()
        res = fit(p, cfg)
        assert res.converged
        assert res.prox_residual <= 10 * cfg.tol

    def test_known_sampling_mode_runs(self):
        rng = np.random.default_rng(13)
        p, truth = random_problem(rng, Binomial(trials=1), BOX1, mode=KNOWN_SAMPLING, n=600, lam=0.02)
        res = fit(p)
        assert res.converged
        assert np.isfinite(res.objective_trace[-1])

    def test_transposed_data_gives_the_transposed_fit(self):
        # The 30x80 fit thresholds wide matrices and the 80x30 fit tall
        # ones, so the two take opposite orientations inside svt.
        rng = np.random.default_rng(14)
        fam = Binomial(trials=1)
        truth = gen_truth(30, 80, 2, BOX1, rng, style="flat")
        obs = simulate(truth, fam, uniform_scheme(30, 80), 4800, rng)
        p0 = CompletionProblem(obs=obs, family=fam, box=BOX1, lam=0.0)
        p = p0.with_lambda(oracle_lambda(p0, truth.x_bar))
        obs_t = ObservationSet(m1=80, m2=30, rows=obs.cols, cols=obs.rows, ys=obs.ys)
        p_t = CompletionProblem(obs=obs_t, family=fam, box=BOX1, lam=p.lam)
        res, res_t = fit(p), fit(p_t)
        assert res.converged and res_t.converged
        assert res.x_hat.shape == (30, 80) and res_t.x_hat.shape == (80, 30)
        assert res.objective_trace[-1] == pytest.approx(res_t.objective_trace[-1], rel=0.0, abs=1e-10)
        assert np.abs(res.x_hat - res_t.x_hat.T).max() <= 1e-8

    def test_matches_cvxpy_on_small_gaussian_problem(self):
        cp = pytest.importorskip("cvxpy")
        rng = np.random.default_rng(15)
        fam = Gaussian(sigma=1.0)
        p, truth = random_problem(rng, fam, BOX1, m1=5, m2=4, n=60, lam=0.02)
        res = fit(p)
        x = cp.Variable((5, 4))
        data_fit = 0
        counts = p.counts
        y_sum = p.y_sum
        for k in range(5):
            for l in range(4):
                if counts[k, l]:
                    data_fit += counts[k, l] * 0.5 * cp.square(x[k, l]) - y_sum[k, l] * x[k, l]
        objective = data_fit / p.obs.n + p.lam * cp.normNuc(x)
        prob = cp.Problem(cp.Minimize(objective), [x >= -1.0, x <= 1.0])
        prob.solve(solver=cp.SCS, eps=1e-9)
        assert np.allclose(res.x_hat, x.value, atol=2e-5)
        assert res.objective_trace[-1] <= prob.value + 1e-7


    def test_warm_started_fit_repeats_and_matches_cold_svts(self, monkeypatch):
        # At 300x300 every SVT after the first starts from the last one's
        # right singular subspace, and the first from the certified cold
        # block, so no SVT decomposes a Gram matrix of order 300.
        rng = np.random.default_rng(15)
        fam = Binomial(trials=1)
        truth = gen_truth(300, 300, 3, BOX1, rng, style="flat")
        obs = simulate(truth, fam, uniform_scheme(300, 300), 90000, rng)
        p0 = CompletionProblem(obs=obs, family=fam, box=BOX1, lam=0.0)
        p = p0.with_lambda(oracle_lambda(p0, truth.x_bar))
        orders, grams = [], []  # the Ritz steps' eigh calls, the Gram route's decompositions
        eigh, gram_eig = np.linalg.eigh, matops._gram_eig

        def recording_eigh(a):
            orders.append(a.shape[0])
            return eigh(a)

        def recording_gram_eig(g, *args):
            grams.append(g.shape[0])
            return gram_eig(g, *args)

        monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
        monkeypatch.setattr(matops, "_gram_eig", recording_gram_eig)
        res, again = fit(p), fit(p)
        assert not grams and orders.count(300) == 0 and len(orders) > 2 * res.iterations
        assert np.array_equal(res.x_hat, again.x_hat)
        assert (res.iterations, res.objective_trace) == (again.iterations, again.objective_trace)
        svt = matops.svt

        def gram_route_svt(a, tau, basis=None):
            # svt without a basis takes the Gram route; the holder still gets
            # the thresholded spectrum, so the fit ends at the last SVT output too.
            s = np.linalg.svd(a, compute_uv=False)
            basis.shrunk = s[s > tau] - tau
            return svt(a, tau)

        monkeypatch.setattr(matops, "svt", gram_route_svt)
        cold = fit(p)
        assert cold.iterations == res.iterations
        assert np.abs(cold.x_hat - res.x_hat).max() <= 1e-10
        assert res.objective_trace[-1] == pytest.approx(cold.objective_trace[-1], rel=1e-13)


class TestDavisYinSolver:
    @staticmethod
    def record(monkeypatch, problem):
        """Log the step of every SVT the solver makes (its threshold is
        step * lam) and every data-term evaluation outside the domain."""
        events = []
        svt, objective = matops.svt, estimator.neg_loglik

        def recording_svt(a, tau, basis=None):
            events.append(("svt", tau / problem.lam))
            return svt(a, tau, basis)

        def recording_neg_loglik(p, x):
            try:
                return objective(p, x)
            except DomainError:
                events.append(("domain_error", None))
                raise

        monkeypatch.setattr(matops, "svt", recording_svt)
        monkeypatch.setattr(estimator, "neg_loglik", recording_neg_loglik)
        return events

    @staticmethod
    def steps(events):
        return [step for kind, step in events if kind == "svt"]

    @staticmethod
    def assert_sound(problem, res):
        assert res.converged
        assert problem.box.contains(res.x_hat, tol=0.0)
        assert res.objective_trace[-1] <= res.objective_trace[0]

    @pytest.mark.parametrize("seed", range(5))
    def test_known_sampling_reaches_the_combined_prox_optimum(self, seed):
        # Under a uniform scheme the known-sampling objective is
        # (pi/2) ||x - y_sum / (n pi)||^2 + lam ||x||_* + const on the box,
        # so its minimizer is a single combined prox, solved here far past
        # the solver tolerance.
        fam = Gaussian(sigma=1.0)
        scheme = uniform_scheme(20, 20)
        rng = np.random.default_rng([77, seed])
        truth = gen_truth(20, 20, 2, BOX1, rng, style="flat")
        obs = simulate(truth, fam, scheme, 3200, rng)
        p0 = CompletionProblem(obs=obs, family=fam, box=BOX1, lam=0.0, mode=KNOWN_SAMPLING, scheme=scheme)
        p = p0.with_lambda(oracle_lambda(p0, truth.x_bar))
        pi = scheme.pi[0, 0]
        ref, info = combined_prox(
            p.y_sum / (p.obs.n * pi), p.lam / pi, BOX1, max_iters=200000, tol=1e-14, full_output=True
        )
        assert info.converged
        f_ref = neg_loglik(p, ref) + p.lam * nuclear_norm(ref)
        res = fit(p)
        assert res.converged
        assert res.objective_trace[-1] <= f_ref + 1e-8
        assert np.abs(res.x_hat - ref).max() <= 3e-6

    @pytest.mark.parametrize("family", [Gaussian(sigma=1.0), Poisson()], ids=["gaussian", "poisson"])
    @pytest.mark.parametrize("mode, scale", [(KNOWN_SAMPLING, 0.5), (LIKELIHOOD, 1.0)])
    def test_start_step_depends_on_the_mode(self, monkeypatch, family, mode, scale):
        # The first SVT runs at the start step: m1 m2 / (2 sigma_hi^2) for
        # known sampling on a uniform table, m1 m2 / sigma_hi^2 for likelihood.
        p, _ = random_problem(np.random.default_rng(4), family, BOX1, mode=mode, lam=0.05)
        events = self.record(monkeypatch, p)
        fit(p, SolverConfig(max_iters=1))
        sigma_hi_sq = family.variance_bounds(BOX1)[1]
        assert self.steps(events)[0] == pytest.approx(scale * 6 * 5 / sigma_hi_sq, rel=1e-12)

    def test_backtracking_halves_the_step_when_svt_leaves_the_domain(self, monkeypatch):
        # About two exponential draws per entry: an early SVT point leaves
        # the domain x < 0 on an observed entry, which must fail the
        # sufficient-decrease test and redo the SVT at half the step.
        rng = np.random.default_rng(1)
        rows, cols = uniform_scheme(8, 8).draw(128, rng)
        obs = ObservationSet(m1=8, m2=8, rows=rows, cols=cols, ys=rng.exponential(2.5, 128))
        p = CompletionProblem(obs=obs, family=Exponential(), box=ParameterBox(-2.0, -0.4), lam=0.01)
        events = self.record(monkeypatch, p)
        res = fit(p)
        self.assert_sound(p, res)
        errors = [i for i, (kind, _) in enumerate(events) if kind == "domain_error"]
        assert errors
        for i in errors:
            before = [step for kind, step in events[:i] if kind == "svt"][-1]
            after = [step for kind, step in events[i:] if kind == "svt"][0]
            assert after == 0.5 * before
        steps = self.steps(events)
        assert len(steps) > res.iterations
        assert np.all(np.diff(steps) <= 0.0)

    @pytest.mark.parametrize("seed", [3, 5, 8])
    def test_sparse_fit_with_unobserved_entries_converges(self, seed):
        # One exponential draw per entry on average leaves about a third of
        # the entries unobserved. Only the small penalty moves them, along a
        # nearly flat valley that the plain splitting crawls through past
        # max_iters; the extrapolation has to carry the fit to tol.
        rng = np.random.default_rng(seed)
        rows, cols = uniform_scheme(8, 8).draw(64, rng)
        obs = ObservationSet(m1=8, m2=8, rows=rows, cols=cols, ys=rng.exponential(2.5, 64))
        p = CompletionProblem(obs=obs, family=Exponential(), box=ParameterBox(-2.0, -0.4), lam=0.01)
        assert (p.counts == 0).sum() >= 20
        self.assert_sound(p, fit(p))

    @pytest.mark.parametrize("family, box, decompositions", [
        (Gaussian(sigma=1.0), BOX1, 1),  # the start point is the zero matrix
        (Exponential(), ParameterBox(-2.0, -0.4), 2),  # the start point is -0.4 everywhere
    ])
    def test_exit_objective_decomposes_only_nonzero_matrices(self, monkeypatch, family, box, decompositions):
        p, _ = random_problem(np.random.default_rng(10), family, box, lam=0.005)
        decomposed = []

        def recording_nuclear_norm(x):
            decomposed.append(x)
            return nuclear_norm(x)

        monkeypatch.setattr(estimator, "nuclear_norm", recording_nuclear_norm)
        res = fit(p)
        assert len(decomposed) == decompositions and all(x.any() for x in decomposed)
        x0 = np.clip(np.zeros(p.shape), box.lo, box.hi)
        assert res.objective_trace[0] == neg_loglik(p, x0) + p.lam * nuclear_norm(x0)

    @pytest.mark.parametrize("config, seed", [
        (BINOM300, 1000), (BINOM300, 1001),
        ({**KS_G60, "mode": "likelihood", "n": 48000}, 1000),
    ], ids=["binom300-1000", "binom300-1001", "gaussian60-likelihood"])
    def test_converged_exit_objective_from_the_last_svt_spectrum(self, monkeypatch, config, seed):
        # These fits converge with the last SVT output inside the box, so the
        # estimate is that output and no SVD runs at the exit.
        p = config_problem(config, seed)
        decomposed = []

        def recording_nuclear_norm(x):
            decomposed.append(x)
            return nuclear_norm(x)

        monkeypatch.setattr(estimator, "nuclear_norm", recording_nuclear_norm)
        res = fit(p)
        assert res.converged and not decomposed and res.x_hat.any()
        assert p.box.contains(res.x_hat)
        assert res.objective_trace[-1] == pytest.approx(estimator._objective(p, res.x_hat), rel=1e-12, abs=0.0)

    def test_fit_short_of_tol_ends_at_the_clipped_iterate(self, monkeypatch):
        p = config_problem(BINOM300, 1000)
        svts, svt = [], matops.svt

        def recording_svt(a, tau, basis=None):
            svts.append(svt(a, tau, basis))
            return svts[-1]

        monkeypatch.setattr(matops, "svt", recording_svt)
        res = fit(p, SolverConfig(max_iters=3))
        assert not res.converged and res.iterations == 3
        # The third y is a clip of w, not the last SVT output.
        assert not np.array_equal(res.x_hat, svts[-1])
        assert res.objective_trace[-1] == estimator._objective(p, res.x_hat)

    def test_cold_first_svt_certifies_on_the_binomial_300_config(self, monkeypatch):
        eighs, choleskys, grams = [], [], []  # the order of each decomposition
        eigh, cholesky, gram_eig = np.linalg.eigh, np.linalg.cholesky, matops._gram_eig

        def recording_eigh(a):
            eighs.append(a.shape[0])
            return eigh(a)

        def recording_cholesky(a):
            choleskys.append(a.shape[0])
            return cholesky(a)

        def recording_gram_eig(g, *args):
            grams.append(g.shape[0])
            return gram_eig(g, *args)

        monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
        monkeypatch.setattr(np.linalg, "cholesky", recording_cholesky)
        monkeypatch.setattr(matops, "_gram_eig", recording_gram_eig)
        for seed in (1000, 1001, 1002, 1003):
            p = config_problem(BINOM300, seed)
            eighs.clear()
            choleskys.clear()
            fit(p, SolverConfig(max_iters=1))
            # Every SVT, the first included, was the warm route's and certified.
            assert not grams and eighs and max(eighs) <= 10
            assert choleskys and set(choleskys) == {300}

    def test_extrapolation_that_raises_the_residual_is_dropped(self, monkeypatch):
        # Every extrapolated point is pushed far outside the box, where its
        # residual is large; the solver must fall back to the plain step
        # each time and still reach the minimum.
        p, _ = random_problem(np.random.default_rng(10), Gaussian(sigma=1.0), BOX1, lam=0.005)
        ref = fit(p)
        extrapolations = []

        def useless(w_next, *history):
            extrapolations.append(1)
            return w_next + 100.0

        monkeypatch.setattr(estimator, "_extrapolate", useless)
        res = fit(p)
        self.assert_sound(p, res)
        assert len(extrapolations) > 10
        assert res.objective_trace[-1] == pytest.approx(ref.objective_trace[-1], abs=1e-9)


class TestDecreaseShortcuts:
    """The fit loop's two proofs: a curvature bound passes the sufficient-decrease
    test without the data term, and a chained SVT certificate factors nothing."""

    @staticmethod
    def exact_test(p, y, g, z, step):
        d = z - y
        try:
            f_z = neg_loglik(p, z)
        except DomainError:
            return False
        return f_z <= neg_loglik(p, y) + float((g * d).sum() + (d * d).sum() / (2.0 * step))

    @pytest.mark.parametrize("mode", [LIKELIHOOD, KNOWN_SAMPLING])
    def test_bound_passes_only_where_the_exact_test_passes(self, family_case, mode):
        family, box = family_case
        rng = np.random.default_rng([21, len(family.name), int(mode == LIKELIHOOD)])
        p, _ = random_problem(rng, family, box, mode=mode)
        passed = failed = 0
        for _ in range(40):
            y = rng.uniform(box.lo, box.hi, p.shape)
            g = gradient(p, y)
            z = y + rng.choice([0.01, 0.1, 0.5]) * rng.standard_normal(p.shape)
            for step in np.geomspace(0.3, 300.0, 9):
                if estimator._curvature_proves(p, z, z - y, step):
                    passed += 1
                    assert self.exact_test(p, y, g, z, step)
                    assert estimator._sufficient_decrease(p, y, g, z, step)
                else:
                    failed += 1
                    assert estimator._sufficient_decrease(p, y, g, z, step) == self.exact_test(p, y, g, z, step)
        assert passed >= 40 and failed >= 40

    # Acceptance 1's rate sweep (pinned seed 2024): two of its 40 fits once
    # failed the exact test at their last iterations, where f(z) - f(y) sinks
    # below the rounding of f, and halved the step there.
    SWEEP = {
        "family": {"family": "gaussian", "sigma": 1.0}, "sampling": {"sampling": "uniform"},
        "m1": 60, "m2": 60, "rank": 3, "gamma": 1.0, "n_grid": [6000, 12000, 24000, 48000],
        "replicates": 10, "lambda_mode": "oracle", "truth": "flat",
    }

    @pytest.mark.parametrize("i_n, rep", [(0, 3), (2, 5)], ids=["n6000-rep3", "n24000-rep5"])
    def test_sweep_fits_do_not_halve_after_the_first_iteration(self, monkeypatch, i_n, rep):
        cfg = ExperimentConfig.from_dict(self.SWEEP)
        truth, probe = cfg.replicate(cfg.n_grid[i_n], np.random.default_rng([2024, i_n, rep]))
        p = probe.with_lambda(resolve_lambda(cfg, probe, truth.x_bar))
        events = []
        svt, grad = matops.svt, estimator.gradient

        def recording_svt(a, tau, basis=None):
            events.append("s")
            return svt(a, tau, basis)

        def recording_gradient(problem, x):
            events.append("g")
            return grad(problem, x)

        monkeypatch.setattr(matops, "svt", recording_svt)
        monkeypatch.setattr(estimator, "gradient", recording_gradient)
        res = fit(p)
        svts_per_iteration = "".join(events).split("g")[1:]
        assert res.converged and len(svts_per_iteration) == res.iterations
        assert all(s == "s" for s in svts_per_iteration[1:])

    @pytest.mark.parametrize("seed", [1000, 1001])
    def test_binom300_fit_is_bit_identical_without_the_shortcuts(self, monkeypatch, seed):
        p = config_problem(BINOM300, seed)
        calls = {"neg_loglik": 0, "cholesky": 0}
        data_term, cholesky = estimator.neg_loglik, np.linalg.cholesky

        def counting_neg_loglik(problem, x):
            calls["neg_loglik"] += 1
            return data_term(problem, x)

        def counting_cholesky(a):
            calls["cholesky"] += 1
            return cholesky(a)

        monkeypatch.setattr(estimator, "neg_loglik", counting_neg_loglik)
        monkeypatch.setattr(np.linalg, "cholesky", counting_cholesky)
        res = fit(p)
        with_shortcuts = dict(calls)
        calls.update(neg_loglik=0, cholesky=0)
        monkeypatch.setattr(estimator, "_curvature_proves", lambda *args: False)
        monkeypatch.setattr(matops, "_chained", lambda *args: False)
        ref = fit(p)
        assert np.array_equal(res.x_hat, ref.x_hat)
        assert res.iterations == ref.iterations and res.prox_residual == ref.prox_residual
        assert res.converged and ref.converged
        assert res.objective_trace == ref.objective_trace
        assert with_shortcuts["neg_loglik"] < calls["neg_loglik"]
        assert with_shortcuts["cholesky"] < calls["cholesky"]


class TestConeConditions:
    def test_certified_run_satisfies_cone_inequalities(self):
        from expmc import proj_onto, proj_perp

        rng = np.random.default_rng(16)
        fam = Gaussian(sigma=1.0)
        scheme = uniform_scheme(12, 12)
        truth = gen_truth(12, 12, 2, BOX1, rng, style="flat")
        obs = simulate(truth, fam, scheme, 600, rng)
        p0 = CompletionProblem(obs=obs, family=fam, box=BOX1, lam=0.0)
        lam = 3.0 * operator_norm(gradient(p0, truth.x_bar))
        p = p0.with_lambda(lam)
        res = fit(p)
        phi_hat = res.objective_trace[-1]
        phi_bar = neg_loglik(p, truth.x_bar) + lam * nuclear_norm(truth.x_bar)
        assert phi_hat <= phi_bar  # certificate
        diff = res.x_hat - truth.x_bar
        perp = nuclear_norm(proj_perp(truth.x_bar, diff))
        onto = nuclear_norm(proj_onto(truth.x_bar, diff))
        assert perp <= 3.0 * onto + 1e-6
        assert nuclear_norm(diff) <= 4.0 * math.sqrt(2 * 2) * np.linalg.norm(diff) + 1e-6


class TestSolverConfig:
    def test_defaults(self):
        cfg = SolverConfig()
        assert cfg.tol == 1e-9 and cfg.max_iters == 5000
        assert cfg.c_gamma == 1.0

    def test_from_dict_rejects_unknown(self):
        with pytest.raises(ValueError):
            solver_from_config({"tol": 1e-8, "bogus": 1})

    def test_from_dict_values(self):
        cfg = solver_from_config({"tol": 1e-7, "max_iters": 100})
        assert cfg.tol == 1e-7 and cfg.max_iters == 100
