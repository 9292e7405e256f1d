"""The special functions of :mod:`expmc.families` against ``scipy.special``.

The package computes them from numpy and :mod:`math`; scipy serves here
only as an independent reference, so this module is skipped without it.
"""

import math

import numpy as np
import pytest

from expmc import Binomial, Gaussian, ParameterBox, Poisson
from expmc import families

special = pytest.importorskip("scipy.special")


def test_expit_matches_scipy():
    # Both compute 1 / (1 + e^-x). numpy's exp is within 1 ulp of the C library's,
    # which scipy calls; through 1 / (1 + e) that ulp reaches 3 ulps of the result
    # on this grid (at x = -36.897, where 1 + e rounds to even).
    x = np.linspace(-700.0, 700.0, 200_001)
    np.testing.assert_array_max_ulp(np.exp(-x), np.array([math.exp(-v) for v in x]), maxulp=1)
    np.testing.assert_array_max_ulp(families._expit(x), special.expit(x), maxulp=3)


def test_expit_saturates_without_warning():
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        assert families._expit(np.array([-1000.0]))[0] == 0.0
        assert families._expit(np.array([1000.0]))[0] == 1.0


def test_softplus_matches_scipy_and_logaddexp():
    # log(1 + e^x) = -log_expit(-x); numpy's logaddexp is the form it replaces.
    x = np.linspace(-700.0, 700.0, 200_001)
    got = families._softplus(x)
    np.testing.assert_array_max_ulp(got, -special.log_expit(-x), maxulp=2)
    np.testing.assert_array_max_ulp(got, np.logaddexp(0.0, x), maxulp=2)


def test_softplus_at_zero_is_log_two():
    assert families._softplus(0.0) == math.log(2.0)


def test_softplus_saturates_without_warning():
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        assert families._softplus(np.array([-1000.0]))[0] == 0.0
        assert families._softplus(np.array([1000.0]))[0] == 1000.0


@pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0])
def test_gaussian_moment(sigma):
    fam = Gaussian(sigma=sigma)
    for scale in np.geomspace(0.06 * sigma, 1e3, 200):
        s = sigma / scale
        reference = 2.0 * math.exp(0.5 * s * s) * special.ndtr(s)
        got = fam._abs_exp_moment(np.zeros(1))(scale)[0]
        assert got == pytest.approx(reference, rel=1e-15, abs=0.0)


def test_log_factorials_match_gammaln():
    k_cap = 200_000
    table = families._log_factorials(k_cap, "k", np.zeros(1))
    assert table.shape == (k_cap + 1,)
    np.testing.assert_allclose(table, special.gammaln(np.arange(k_cap + 1) + 1.0), rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("trials", [1, 5, 40, 2000])
@pytest.mark.parametrize("lo, hi", [(-1.0, 1.0), (-1.2, 1.2), (-4.0, 3.0)])
def test_binomial_moment_matches_the_whole_support_sum(trials, lo, hi):
    # The direct sum of exp(log p_k + |k - mean| / scale) against a log-sum-exp
    # of the same terms over the whole support, built from gammaln. The rounding
    # of both grows with trials: at 2000 trials a 30-digit sum of the terms puts
    # each of them about 1e-12 from the truth, on opposite sides.
    rtol = max(1e-12, 2e-15 * trials)
    xs = np.linspace(lo, hi, 101)[:, None]
    k = np.arange(trials + 1.0)
    log_pmf = (special.gammaln(trials + 1.0) - special.gammaln(k + 1.0) - special.gammaln(trials - k + 1.0)
               + k * special.log_expit(xs) + (trials - k) * special.log_expit(-xs))
    dev = np.abs(k - trials * special.expit(xs))
    moment = Binomial(trials=trials)._abs_exp_moment(xs[:, 0])
    for scale in [1e-6, 1e-3, 0.02, 0.1, 0.5, 1.0, 3.0, 10.0, 1e6]:
        with np.errstate(over="ignore"):
            reference = np.exp(special.logsumexp(log_pmf + dev / scale, axis=-1))
            got = moment(scale)
        small = reference < math.exp(500.0)
        np.testing.assert_allclose(got[small], reference[small], rtol=rtol, atol=0.0, err_msg=f"scale {scale}")
        assert np.all(got[~small] > math.exp(499.0)), scale


# The families of tests/test_lowerbound.py::TestVerifyConditions::test_conditions_hold_across_families.
PACKING_FAMILIES = [Gaussian(sigma=1.0), Gaussian(sigma=2.0), Gaussian(sigma=0.5),
                    Binomial(trials=1), Binomial(trials=4), Poisson()]


@pytest.mark.parametrize("family", PACKING_FAMILIES, ids=repr)
def test_interval_constants_match_scipy_reference(family, monkeypatch):
    box = ParameterBox.symmetric(1.0)
    got = family.interval_constants(box)
    monkeypatch.setattr(families, "_expit", special.expit)
    monkeypatch.setattr(families, "_ndtr", special.ndtr)
    monkeypatch.setattr(
        families, "_log_factorials", lambda kmax, *_: special.gammaln(np.arange(int(kmax) + 1) + 1.0)
    )
    reference = family.interval_constants(box)
    for field in ("sigma_lo_sq", "sigma_hi_sq", "delta_gamma", "l_gamma"):
        assert getattr(got, field) == pytest.approx(getattr(reference, field), rel=1e-12, abs=0.0), field
