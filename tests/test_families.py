import importlib
import math
import pkgutil
import tracemalloc

import numpy as np
import pytest

import expmc
from expmc import (
    Binomial,
    DomainError,
    Exponential,
    Gaussian,
    IntervalConstants,
    ParameterBox,
    Poisson,
    box_from_config,
    family_from_config,
    family_to_config,
)
from conftest import FAMILY_CASES, family_case_id


# log(k!) for k <= 200,000, computed as the library computes them.
LOG_FACTORIALS = np.array([math.lgamma(k + 1.0) for k in range(200_001)])


def poisson_full_series(lam, scale, k_cap=200_000):
    """E[exp(|Y - lam| / scale)] for Y ~ Poisson(lam) from its whole series, with no head test."""
    growth = math.exp(min(1.0 / scale, 35.0))
    peak = lam * growth
    kmax = int(min(lam + peak + 12.0 * math.sqrt(peak + 1.0) + 60.0, k_cap))
    k = np.arange(kmax + 1, dtype=float)
    log_term = -lam + k * math.log(lam) - LOG_FACTORIALS[: kmax + 1] + np.abs(k - lam) / scale
    m = float(log_term.max())
    if m > 500.0:
        return math.inf
    total = m + math.log(float(np.exp(log_term - m).sum()))
    return math.exp(total) if total < 700.0 else math.inf


# delta_gamma of every FAMILY_CASES box and of wider Poisson boxes, with the
# relative tolerance each is pinned to. The boxes with hi >= 8 are pinned to what
# the Poisson series summed term by term gives, and the closed form is more
# accurate there: at lam = e^10 the series is off by 1.8e-12 relative to 40-digit
# arithmetic, the closed form by 4.5e-13.
DELTA_GAMMA = [
    *[(fam, box, d, 0.0) for (fam, box), d in zip(FAMILY_CASES, [
        1.0161568617967953, 2.0323137235940205, 0.5000000000004376,
        1.1314635803874944, 1.7079961904059022, 3.1918136421427024,
    ])],
    (Poisson(), ParameterBox(-0.5, 3.0), 4.563146638407319, 0.0),
    (Poisson(), ParameterBox(-1.0, 6.0), 20.413054266429377, 0.0),
    (Poisson(), ParameterBox(-1.0, 8.0), 55.48095045713458, 5e-11),
    (Poisson(), ParameterBox(-1.0, 10.0), 150.81145893753506, 5e-11),
    (Poisson(), ParameterBox(-1.0, 12.0), 409.94706298064136, 5e-11),  # e^12 = 162,755, under the limit
]


class TestLogPartition:
    def test_gaussian(self):
        assert Gaussian(sigma=2.0).log_partition(1.0) == pytest.approx(2.0, abs=1e-15)

    def test_poisson_at_zero(self):
        assert Poisson().log_partition(0.0) == pytest.approx(1.0, abs=1e-15)

    def test_exponential_at_minus_one(self):
        assert Exponential().log_partition(-1.0) == pytest.approx(0.0, abs=1e-15)

    def test_binomial_softplus(self):
        assert Binomial(trials=3).log_partition(0.0) == pytest.approx(3 * math.log(2), rel=1e-14)

    def test_vectorized(self):
        out = Poisson().log_partition(np.array([0.0, 1.0]))
        assert np.allclose(out, [1.0, math.e])


class TestMeanVariance:
    def test_poisson(self):
        fam = Poisson()
        assert fam.mean(0.0) == pytest.approx(1.0)
        assert fam.variance(0.0) == pytest.approx(1.0)

    def test_gaussian(self):
        fam = Gaussian(sigma=1.0)
        assert fam.mean(3.0) == pytest.approx(3.0)
        assert fam.variance(3.0) == pytest.approx(1.0)

    def test_binomial_logistic_at_zero(self):
        fam = Binomial(trials=1)
        assert fam.mean(0.0) == pytest.approx(0.5)
        assert fam.variance(0.0) == pytest.approx(0.25)

    def test_exponential(self):
        fam = Exponential()
        assert fam.mean(-2.0) == pytest.approx(0.5)
        assert fam.variance(-2.0) == pytest.approx(0.25)

    def test_variance_positive_everywhere(self, family_case):
        fam, box = family_case
        xs = np.linspace(box.lo, box.hi, 23)
        assert np.all(fam.variance(xs) > 0)


class TestBregman:
    def test_gaussian_quadratic(self):
        assert Gaussian(sigma=1.0).bregman(3.0, 1.0) == pytest.approx(2.0, abs=1e-14)

    def test_poisson_direct_substitution(self):
        assert Poisson().bregman(2.0, 0.0) == pytest.approx(4.38905609893065, rel=1e-14)

    def test_identity_is_zero(self, family_case):
        fam, box = family_case
        x = 0.5 * (box.lo + box.hi)
        assert fam.bregman(x, x) == 0.0

    def test_nonnegative_and_zero_iff_equal(self, family_case):
        fam, box = family_case
        rng = np.random.default_rng(7)
        x = rng.uniform(box.lo, box.hi, 500)
        x_ref = rng.uniform(box.lo, box.hi, 500)
        vals = fam.bregman(x, x_ref)
        assert np.all(vals >= 0.0)
        assert np.all(vals[np.abs(x - x_ref) > 1e-3] > 0.0)

    def test_matches_generic_formula(self, family_case):
        # The stable per-family forms must agree with the direct definition.
        fam, box = family_case
        rng = np.random.default_rng(3)
        x = rng.uniform(box.lo, box.hi, 200)
        x_ref = rng.uniform(box.lo, box.hi, 200)
        direct = fam.log_partition(x) - fam.log_partition(x_ref) - fam.mean(x_ref) * (x - x_ref)
        assert np.allclose(fam.bregman(x, x_ref), direct, atol=1e-12)

    def test_strong_convexity_sandwich(self, family_case):
        fam, box = family_case
        lo_sq, hi_sq = fam.variance_bounds(box)
        rng = np.random.default_rng(11)
        x = rng.uniform(box.lo, box.hi, 2000)
        x_ref = rng.uniform(box.lo, box.hi, 2000)
        two_d = 2.0 * fam.bregman(x, x_ref)
        gap_sq = (x - x_ref) ** 2
        assert np.all(two_d >= lo_sq * gap_sq - 1e-12)
        assert np.all(two_d <= hi_sq * gap_sq + 1e-12)


class TestDerivativeChecks:
    def test_first_and_second_derivative_finite_differences(self, family_case):
        fam, box = family_case
        h = 1e-5
        xs = np.linspace(box.lo + 2 * h, box.hi - 2 * h, 41)
        fd1 = (fam.log_partition(xs + h) - fam.log_partition(xs - h)) / (2 * h)
        assert np.max(np.abs(fam.mean(xs) - fd1)) <= 1e-6
        fd2 = (fam.mean(xs + h) - fam.mean(xs - h)) / (2 * h)
        assert np.max(np.abs(fam.variance(xs) - fd2)) <= 1e-6


class TestSampling:
    def test_poisson_law_of_large_numbers(self):
        fam = Poisson()
        rng = np.random.default_rng(42)
        draws = fam.sample(np.full(10**5, math.log(4.0)), rng)
        assert abs(draws.mean() - 4.0) <= 0.1

    def test_binomial_frequency(self):
        fam = Binomial(trials=1)
        rng = np.random.default_rng(43)
        draws = fam.sample(np.zeros(10**4), rng)
        assert abs(draws.mean() - 0.5) <= 0.02

    def test_gaussian_sample_variance(self):
        fam = Gaussian(sigma=1.0)
        rng = np.random.default_rng(44)
        draws = fam.sample(np.zeros(10**5), rng)
        assert abs(draws.var() - 1.0) <= 0.05

    def test_moments_within_five_standard_errors(self, family_case):
        fam, box = family_case
        rng = np.random.default_rng(45)
        x = 0.3 * box.lo + 0.7 * box.hi
        n = 40_000
        draws = fam.sample(np.full(n, x), rng)
        mean, var = fam.mean(x), fam.variance(x)
        se_mean = math.sqrt(var / n)
        assert abs(draws.mean() - mean) <= 5 * se_mean
        # SE of the sample variance via the empirical fourth moment.
        m4 = np.mean((draws - draws.mean()) ** 4)
        se_var = math.sqrt(max(m4 - var**2, 1e-12) / n)
        assert abs(draws.var(ddof=1) - var) <= 5 * se_var

    def test_scalar_draw(self):
        val = Exponential().sample(-2.0, np.random.default_rng(0))
        assert isinstance(val, float) and val >= 0.0


def numpy_single_draw(fam, x, rng):
    """One observation per parameter through the plain numpy call for the model."""
    if isinstance(fam, Gaussian):
        return rng.normal(loc=fam.sigma**2 * x, scale=fam.sigma)
    if isinstance(fam, Binomial):
        return rng.binomial(fam.trials, 1.0 / (1.0 + np.exp(-x)))
    if isinstance(fam, Poisson):
        return rng.poisson(np.exp(x))
    return rng.exponential(scale=-1.0 / x)


class TestSampleSum:
    def test_one_observation_is_the_numpy_single_draw(self, family_case):
        fam, box = family_case
        x = np.random.default_rng(7).uniform(box.lo, box.hi, 5000)
        expected = numpy_single_draw(fam, x, np.random.default_rng(46))
        for k in ({}, {"k": 1}, {"k": np.ones(x.size, dtype=np.int64)}):
            draws = fam.sample(x, np.random.default_rng(46), **k)
            assert draws.dtype == np.float64
            assert np.array_equal(draws, expected), k

    @pytest.mark.parametrize("k", [2, 7])
    def test_sum_moments_within_five_standard_errors(self, family_case, k):
        fam, box = family_case
        x = 0.3 * box.lo + 0.7 * box.hi
        n = 40_000
        draws = fam.sample(np.full(n, x), np.random.default_rng(47), np.full(n, k))
        mean, var = k * fam.mean(x), k * fam.variance(x)
        assert abs(draws.mean() - mean) <= 5 * math.sqrt(var / n)
        m4 = np.mean((draws - draws.mean()) ** 4)
        assert abs(draws.var(ddof=1) - var) <= 5 * math.sqrt(max(m4 - var**2, 1e-12) / n)

    def test_no_observation_sums_to_zero(self, family_case):
        fam, box = family_case
        x = np.linspace(box.lo, box.hi, 200)
        k = np.tile([0, 3], 100)
        draws = fam.sample(x, np.random.default_rng(48), k)
        assert np.all(draws[k == 0] == 0.0)
        assert fam.sample(x, np.random.default_rng(48), 0).tolist() == [0.0] * x.size

    @pytest.mark.parametrize("k", [-1, np.array([2, -1]), 1.0, np.array([0.5, 2.0])], ids=repr)
    def test_counts_must_be_nonnegative_integers(self, k):
        with pytest.raises(ValueError, match="nonnegative integers"):
            Poisson().sample(np.zeros(2), np.random.default_rng(0), k)


class TestIntervalConstants:
    def test_gaussian_equal_curvatures(self):
        consts = Gaussian(sigma=2.0).interval_constants(ParameterBox.symmetric(0.7))
        assert consts.sigma_lo_sq == pytest.approx(4.0)
        assert consts.sigma_hi_sq == pytest.approx(4.0)

    def test_poisson_monotone_curvature(self):
        consts = Poisson().interval_constants(ParameterBox.symmetric(1.0))
        assert consts.sigma_lo_sq == pytest.approx(0.36787944117144233, rel=1e-12)
        assert consts.sigma_hi_sq == pytest.approx(2.718281828459045, rel=1e-12)

    def test_binomial_unimodal_curvature(self):
        consts = Binomial(trials=1).interval_constants(ParameterBox.symmetric(1.0))
        assert consts.sigma_hi_sq == pytest.approx(0.25, rel=1e-12)
        assert consts.sigma_lo_sq == pytest.approx(0.19661193324148185, rel=1e-12)

    def test_binomial_box_missing_zero(self):
        lo_sq, hi_sq = Binomial(trials=1).variance_bounds(ParameterBox(0.5, 1.5))
        fam = Binomial(trials=1)
        assert hi_sq == pytest.approx(float(fam.variance(0.5)))
        assert lo_sq == pytest.approx(float(fam.variance(1.5)))

    def test_mean_map_bounds(self):
        assert Gaussian(sigma=2.0).interval_constants(
            ParameterBox.symmetric(1.5)
        ).l_gamma == pytest.approx(6.0)
        assert Poisson().interval_constants(
            ParameterBox.symmetric(1.0)
        ).l_gamma == pytest.approx(math.e)
        assert Exponential().interval_constants(
            ParameterBox(-2.0, -0.5)
        ).l_gamma == pytest.approx(2.0)

    def test_constants_are_the_extremes_on_a_grid(self, family_case):
        # The extremes sit at grid points (the box ends, and 0 for binomial), so they match exactly.
        fam, box = family_case
        xs = np.linspace(box.lo, box.hi, 4001)
        if box.lo <= 0.0 <= box.hi:
            xs = np.append(xs, 0.0)
        consts = fam.interval_constants(box)
        assert consts.l_gamma == np.abs(fam.mean(xs)).max()
        g2 = fam.variance(xs)
        assert (consts.sigma_lo_sq, consts.sigma_hi_sq) == (g2.min(), g2.max())

    def test_grid_matches_closed_form(self, family_case):
        fam, box = family_case
        lo_sq, hi_sq = fam.variance_bounds(box)
        xs = np.linspace(box.lo, box.hi, 4001)
        g2 = fam.variance(xs)
        assert g2.min() >= lo_sq - 1e-10
        assert g2.max() <= hi_sq + 1e-10
        assert g2.min() == pytest.approx(lo_sq, rel=1e-5)
        assert g2.max() == pytest.approx(hi_sq, rel=1e-5)

    @pytest.mark.parametrize(
        "family_case", FAMILY_CASES + [(Poisson(), ParameterBox(-1.0, 8.0))], ids=family_case_id
    )
    def test_delta_gamma_certifies_and_is_minimal(self, family_case):
        fam, box = family_case
        consts = fam.interval_constants(box)
        moment = fam._abs_exp_moment(np.linspace(box.lo, box.hi, 101))
        at_delta = np.max(moment(consts.delta_gamma))
        assert at_delta <= math.e * (1.0 + 1e-9)
        if consts.delta_gamma > 2e-6:
            with np.errstate(over="ignore"):
                below = np.max(moment(consts.delta_gamma * 0.99))
            assert below > math.e

    @pytest.mark.parametrize("fam, box, delta, rel", DELTA_GAMMA, ids=[family_case_id(c) for c in DELTA_GAMMA])
    def test_delta_gamma_pinned(self, fam, box, delta, rel):
        assert fam.interval_constants(box).delta_gamma == pytest.approx(delta, rel=rel, abs=0.0)

    def test_delta_moment_matches_monte_carlo(self):
        # Independent simulation check of the closed-form/series moments.
        rng = np.random.default_rng(9)
        n = 200_000
        for fam, x, scale in [
            (Poisson(), 1.0, 4.0),
            (Gaussian(sigma=1.0), 0.3, 2.0),
            (Binomial(trials=5), 0.5, 3.0),
            (Exponential(), -1.0, 3.0),
        ]:
            draws = fam.sample(np.full(n, x), rng)
            mc = np.exp(np.abs(draws - fam.mean(x)) / scale).mean()
            exact = float(fam._abs_exp_moment(np.array([x]))(scale)[0])
            assert exact == pytest.approx(mc, rel=0.05)

    @pytest.mark.parametrize("lo, hi", [(-1.0, 1.0), (-3.0, -1.0), (0.0, 2.5), (-0.5, 3.0)])
    def test_poisson_constants_match_full_series(self, lo, hi, monkeypatch):
        # The closed form against the whole series summed term by term: the
        # moments agree, and the constants are bit-identical.
        box = ParameterBox(lo, hi)
        got = Poisson().interval_constants(box)
        xs = np.linspace(lo, hi, 7)
        moment = Poisson()._abs_exp_moment(xs)
        for s in [1e-6, 1e-3, 0.02, 0.05, 0.1, 0.5, 1.0, 10.0, 1e6]:
            with np.errstate(over="ignore"):
                moments = moment(s)
            for lam, m in zip(np.exp(xs), moments):
                reference = poisson_full_series(lam, s)
                if reference < math.exp(500.0):
                    assert m == pytest.approx(reference, rel=1e-12, abs=0.0), (lam, s)
                else:
                    assert m > math.exp(499.0), (lam, s)
        monkeypatch.setattr(
            Poisson,
            "_abs_exp_moment",
            lambda self, x: lambda s: np.array([poisson_full_series(math.exp(v), s) for v in x]),
        )
        assert got == Poisson().interval_constants(box)

    @pytest.mark.parametrize("hi", [12.5, 800.0])
    def test_poisson_box_past_the_intensity_limit_rejected(self, hi):
        # e^800 overflows a float, so variance_bounds rejects its curvature bound before the limit is read.
        what = "poisson intensity" if hi < 700.0 else "poisson model's curvature bounds"
        with pytest.raises(ValueError, match=rf"{what} .* box \[-1.0, {hi}\]"):
            Poisson().interval_constants(ParameterBox(-1.0, hi))

    def test_binomial_trials_past_the_count_limit_rejected_at_once(self):
        # The limit is checked before the moment builds its (101, trials + 1) arrays.
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"binomial trials 200001 exceeds 200000 for box \[-1.0, 1.0\]"):
                Binomial(trials=200_001).interval_constants(ParameterBox.symmetric(1.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_constants_carry_no_state_between_calls(self):
        # Bit-identical constants before and after the largest boxes the tests use, in both orders.
        before = [fam.interval_constants(box) for fam, box in FAMILY_CASES]
        binomial, poisson = Binomial(trials=2000), Poisson()
        for big, big_box in [(binomial, ParameterBox.symmetric(1.0)), (poisson, ParameterBox(-1.0, 12.0)),
                             (binomial, ParameterBox.symmetric(1.0))]:
            big.interval_constants(big_box)
            assert [fam.interval_constants(box) for fam, box in FAMILY_CASES] == before

    def test_exponential_box_near_boundary_rejected(self):
        with pytest.raises(ValueError):
            Exponential().interval_constants(ParameterBox(-1.0, -1e-9))

    def test_invalid_constants_rejected(self):
        with pytest.raises(ValueError):
            IntervalConstants(0.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            IntervalConstants(2.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            IntervalConstants(1.0, 1.0, -1.0, 1.0)


class TestDomain:
    def test_exponential_rejects_nonnegative(self):
        fam = Exponential()
        for op in (fam.log_partition, fam.mean, fam.variance):
            with pytest.raises(DomainError):
                op(0.0)
            with pytest.raises(DomainError):
                op(np.array([-1.0, 0.5]))

    def test_exponential_rejects_box_touching_boundary(self):
        with pytest.raises(DomainError):
            Exponential().variance_bounds(ParameterBox(-1.0, 0.0))

    def test_nan_rejected(self):
        with pytest.raises(DomainError):
            Poisson().log_partition(float("nan"))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0])
    @pytest.mark.parametrize("op", ["log_partition", "mean", "sample"])
    def test_nonfinite_and_boundary_rejected(self, op, bad):
        fam = Exponential()
        call = getattr(fam, op)
        args = (np.random.default_rng(0),) if op == "sample" else ()
        for x in (bad, np.array([-1.0, bad]), np.array([bad, -1.0])):
            with pytest.raises(DomainError):
                call(x, *args)

    def test_empty_parameters_accepted(self):
        assert Exponential().mean(np.array([])).shape == (0,)


class TestParameterBox:
    def test_requires_increasing(self):
        with pytest.raises(ValueError):
            ParameterBox(1.0, 1.0)

    def test_requires_finite(self):
        with pytest.raises(ValueError):
            ParameterBox(-math.inf, 0.0)

    @pytest.mark.parametrize("lo, hi", [("-1", 1.0), (-1.0, "1"), (-1.0, None), (-1.0, 1j)])
    def test_requires_real_numbers(self, lo, hi):
        # The endpoints are converted with float(), which must not accept text.
        with pytest.raises(TypeError):
            ParameterBox(lo, hi)

    def test_symmetric_and_radius(self):
        box = ParameterBox.symmetric(2.0)
        assert (box.lo, box.hi) == (-2.0, 2.0)
        assert box.radius == 2.0
        assert ParameterBox(-3.0, -1.0).radius == 3.0

    def test_contains(self):
        box = ParameterBox.symmetric(1.0)
        assert box.contains(np.array([[0.5, -1.0]]))
        assert not box.contains(np.array([1.0 + 1e-9]))
        assert box.contains(np.array([1.0 + 1e-9]), tol=1e-8)

    @pytest.mark.parametrize("fam, lo, hi", [
        (Gaussian(sigma=1.3), -1, 1),
        (Gaussian(sigma=0.5), -2, 1),
        (Binomial(trials=3), -1, 2),
        (Binomial(trials=1), 1, 3),
        (Poisson(), -1, 1),
        (Exponential(), -3, -1),
    ], ids=lambda v: getattr(v, "name", str(v)))
    def test_integer_box_gives_the_float_box_constants(self, fam, lo, hi):
        # Gaussian's G'' is a full_like of the box ends, so integer ends once
        # truncated sigma^2: 1.69 became 1, and 0.25 became 0 and was rejected.
        box = ParameterBox(lo, hi)
        assert type(box.lo) is float and type(box.hi) is float
        assert fam.variance_bounds(box) == fam.variance_bounds(ParameterBox(float(lo), float(hi)))
        assert fam.interval_constants(box) == fam.interval_constants(ParameterBox(float(lo), float(hi)))
        if fam.name == "gaussian":
            assert fam.variance_bounds(box) == (fam.sigma**2, fam.sigma**2)


class TestConfig:
    @pytest.mark.parametrize(
        "spec",
        [
            {"family": "poisson"},
            {"family": "gaussian", "sigma": 1.5},
            {"family": "binomial", "trials": 5},
            {"family": "exponential"},
        ],
    )
    def test_roundtrip(self, spec):
        fam = family_from_config(spec)
        assert family_from_config(family_to_config(fam)) == fam

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            family_from_config({"family": "laplace"})

    def test_box_from_config(self):
        box = box_from_config({"lo": -1.0, "hi": 1.0})
        assert (box.lo, box.hi) == (-1.0, 1.0)

    def test_hyper_validation(self):
        with pytest.raises(ValueError):
            Gaussian(sigma=0.0)
        with pytest.raises(ValueError):
            Binomial(trials=0)


def test_no_expmc_module_holds_a_writeable_array():
    # Module-level arrays would be state that one call can leave behind for the next.
    for info in pkgutil.iter_modules(expmc.__path__):
        module = importlib.import_module(f"expmc.{info.name}")
        for name, value in vars(module).items():
            assert not (isinstance(value, np.ndarray) and value.flags.writeable), f"expmc.{info.name}.{name}"
