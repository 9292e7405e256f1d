"""Natural exponential-family noise models.

Each model is determined by its log-partition function ``G`` on an open
natural-parameter domain: the mean map is ``G'``, the variance map is
``G''``, and the Bregman divergence of ``G`` coincides with the
Kullback-Leibler divergence between two members of the family.

Supported models (natural parameter ``x``):

====================  ================  ===================  ==============
model                 natural domain    log-partition G(x)   observations
====================  ================  ===================  ==============
gaussian (sigma)      all reals         sigma^2 x^2 / 2      all reals
binomial (trials N)   all reals         N log(1 + e^x)       [0, N]
poisson               all reals         e^x                  [0, inf)
exponential           x < 0             -log(-x)             [0, inf)
====================  ================  ===================  ==============

A draw at parameter ``x`` has mean ``G'(x)`` and variance ``G''(x)``;
in particular the Gaussian model produces ``Y ~ N(sigma^2 x, sigma^2)``
and the exponential model produces an exponential variable with rate
``-x``. The sum of ``k`` independent draws is drawn in one step from its
exact law: ``N(k sigma^2 x, k sigma^2)``, ``Binomial(k N, expit(x))``,
``Poisson(k e^x)`` and ``Gamma(k, scale -1/x)``. At ``k = 1`` each is the
single-draw numpy call on the same generator stream, bit for bit, and at
``k = 0`` it is 0.

The base measure of the density never needs to be evaluated: it enters
every likelihood only as an additive constant, so all objectives in
:mod:`expmc.estimator` drop it.

The box constants come from G' and G'' at the box ends; binomial adds its
peak ``trials / 4``.

The special functions the models need (the logistic function, the normal
distribution function and log-factorials) are computed here from numpy and
:mod:`math`, so the package needs no scipy at run time.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DomainError",
    "ParameterBox",
    "IntervalConstants",
    "ExponentialFamily",
    "Gaussian",
    "Binomial",
    "Poisson",
    "Exponential",
]

# delta_gamma search: bracket of scales, bisection steps, parameters on the box grid,
# and the largest binomial trials or Poisson intensity whose moment is summed.
_DELTA_BRACKET = (1e-6, 1e6)
_DELTA_BISECT_ITERS = 60
_DELTA_GRID_POINTS = 101
_MAX_COUNT = 200_000


def _expit(x):
    """Logistic function ``1 / (1 + e^-x)``; 0 where ``e^-x`` overflows."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def _softplus(x):
    """``log(1 + e^x)`` as ``max(x, 0) + log1p(e^-|x|)``, which never overflows.

    Equal to ``np.logaddexp(0, x)`` within 2 ulp, and several times faster:
    numpy runs ``logaddexp`` as a scalar loop.
    """
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def _ndtr(s: float) -> float:
    """Standard normal distribution function at ``s``."""
    return 0.5 * math.erfc(-s / math.sqrt(2.0))


def _log_factorials(kmax: float, what: str, x: np.ndarray) -> np.ndarray:
    """``log(k!)`` for ``k = 0, ..., floor(kmax)``; past ``_MAX_COUNT`` (or at inf), a
    ``ValueError`` naming ``what`` and the box the grid ``x`` spans, before any array."""
    if not kmax <= _MAX_COUNT:
        raise ValueError(f"{what} exceeds {_MAX_COUNT} for box [{float(x.min())}, {float(x.max())}]")
    return np.fromiter(map(math.lgamma, range(1, int(kmax) + 2)), float, int(kmax) + 1)


class DomainError(ValueError):
    """A natural parameter fell outside the model's domain."""


@dataclass(frozen=True)
class ParameterBox:
    """Closed interval ``[lo, hi]`` constraining the entries of a parameter matrix.
    The endpoints must be real numbers and are stored as floats, so an integer
    box gives the same constants."""

    lo: float
    hi: float

    def __post_init__(self):
        for name in ("lo", "hi"):
            end = getattr(self, name)
            if not isinstance(end, numbers.Real):
                raise TypeError(f"box endpoint {name} must be a real number, got {type(end).__name__}")
            object.__setattr__(self, name, float(end))
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError("box endpoints must be finite")
        if not self.lo < self.hi:
            raise ValueError(f"box requires lo < hi, got [{self.lo}, {self.hi}]")

    @classmethod
    def symmetric(cls, gamma: float) -> "ParameterBox":
        if gamma <= 0:
            raise ValueError("gamma must be positive")
        return cls(-float(gamma), float(gamma))

    @property
    def radius(self) -> float:
        """Sup-norm radius max(|lo|, |hi|) of the box."""
        return max(abs(self.lo), abs(self.hi))

    def contains(self, a, tol: float = 0.0) -> bool:
        a = np.asarray(a, dtype=float)
        return bool(np.all(a >= self.lo - tol) and np.all(a <= self.hi + tol))


@dataclass(frozen=True)
class IntervalConstants:
    """Curvature, sub-exponential and mean-map constants of a model over a box.

    ``sigma_lo_sq`` / ``sigma_hi_sq`` bound the variance map ``G''`` from
    below / above on the box, ``delta_gamma`` is the smallest scale at
    which the centered observation is sub-exponential uniformly over the
    box, and ``l_gamma`` is the largest absolute mean ``sup |G'|``.
    """

    sigma_lo_sq: float
    sigma_hi_sq: float
    delta_gamma: float
    l_gamma: float

    def __post_init__(self):
        if not (0 < self.sigma_lo_sq <= self.sigma_hi_sq):
            raise ValueError("curvature bounds must satisfy 0 < sigma_lo_sq <= sigma_hi_sq")
        if not (self.delta_gamma > 0 and math.isfinite(self.delta_gamma)):
            raise ValueError("delta_gamma must be positive and finite")
        if not self.l_gamma >= 0:
            raise ValueError("l_gamma must be nonnegative")


class ExponentialFamily:
    """Base class; a model implements six hooks: ``_g``, ``_g1``, ``_g2`` (G, G', G''),
    ``_bregman``, ``_sample_sum`` and ``_abs_exp_moment``. The box constants need no more:
    G' is monotone, and so is G'' but for binomial's peak, which it adds itself."""

    name: str = ""
    # Open natural-parameter domain (domain_lo, domain_hi).
    domain_lo: float = -math.inf
    domain_hi: float = math.inf
    # Closed range [support_lo, support_hi] of a single observation.
    support_lo: float = -math.inf
    support_hi: float = math.inf

    # -- domain handling -------------------------------------------------

    def _checked(self, hook, *params):
        """``hook`` at the natural parameters ``params`` once each lies in the
        open domain, else :class:`DomainError`; a float for scalar parameters."""
        scalar = all(np.isscalar(p) for p in params)
        params = [np.asarray(p, dtype=float) for p in params]
        for p in params:
            # NaN and the infinities fail these comparisons, so one min and one max check all.
            if p.size and not (self.domain_lo < p.min() and p.max() < self.domain_hi):
                raise DomainError(
                    f"natural parameter outside the open domain "
                    f"({self.domain_lo}, {self.domain_hi}) of the {self.name} model"
                )
        out = hook(*params)
        return float(out) if scalar else out

    def variance_bounds(self, box: ParameterBox) -> tuple[float, float]:
        """The curvature bounds ``(sigma_lo^2, sigma_hi^2)``, (min, max) of G'' over the box.
        Boxes not strictly inside the domain are a :class:`DomainError`; boxes over which
        the bounds or their reciprocals are not finite and positive, a ValueError."""
        if not (box.lo > self.domain_lo and box.hi < self.domain_hi):
            raise DomainError(
                f"box [{box.lo}, {box.hi}] is not strictly inside the "
                f"{self.name} domain ({self.domain_lo}, {self.domain_hi})"
            )
        try:
            bounds = self._variance_bounds(box)
            ok = all(0.0 < v < math.inf and 1.0 / v < math.inf for v in bounds)
        except OverflowError:
            ok = False
        if not ok:
            raise ValueError(
                f"the {self.name} model's curvature bounds over box [{box.lo}, {box.hi}] "
                "or their reciprocals are not finite and positive"
            )
        return bounds

    def check_support(self, ys: np.ndarray, k=1):
        """Reject observations outside the closed range a draw can take, or, given
        positive counts ``k``, sums outside ``k`` times it (the range of a sum of k draws)."""
        ys = np.asarray(ys, dtype=float)
        if not (np.all(ys >= k * self.support_lo) and np.all(ys <= k * self.support_hi)):
            what = "observations outside" if np.isscalar(k) else "sums of k observations outside k times"
            raise ValueError(
                f"{what} the range [{self.support_lo}, {self.support_hi}] of the {self.name} model"
            )

    # -- hooks implemented by subclasses ---------------------------------

    def _g(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _g1(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _g2(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _bregman(self, x: np.ndarray, x_ref: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _sample_sum(self, x: np.ndarray, k, rng: np.random.Generator) -> np.ndarray:
        """A draw of the sum of ``k`` independent observations at each ``x`` (the
        nonnegative integer ``k`` broadcasts against ``x``)."""
        raise NotImplementedError

    def _abs_exp_moment(self, x: np.ndarray):
        """The function ``scale -> E[exp(|Y - G'(x)| / scale)]`` for each x of a grid.

        Work that depends only on the grid is done once, in this call. The
        returned function is +inf where the moment diverges or overflows.
        """
        raise NotImplementedError

    def _variance_bounds(self, box: ParameterBox) -> tuple[float, float]:
        """G'' at the box ends: its extremes, as G'' is monotone over the box. A model
        whose G'' peaks inside some box overrides this."""
        with np.errstate(all="ignore"):
            ends = self._g2(np.array([box.lo, box.hi]))
        return float(ends.min()), float(ends.max())

    # -- public vectorized operations ------------------------------------

    def log_partition(self, x):
        return self._checked(self._g, x)

    def mean(self, x):
        """Mean map G'(x) of an observation at natural parameter x."""
        return self._checked(self._g1, x)

    def variance(self, x):
        """Variance map G''(x); strictly positive on the domain."""
        return self._checked(self._g2, x)

    def bregman(self, x, x_ref):
        """Bregman divergence G(x) - G(x_ref) - G'(x_ref) (x - x_ref).

        Nonnegative, zero exactly at ``x == x_ref``; equals the
        Kullback-Leibler divergence KL(P_{x_ref} || P_x).
        """
        return self._checked(self._bregman, x, x_ref)

    def sample(self, x, rng: np.random.Generator, k=1):
        """One draw per natural parameter of the sum of ``k`` independent observations
        (a single observation at the default ``k = 1``, 0 at ``k = 0``), using the
        caller-supplied generator. ``k`` holds nonnegative integers and broadcasts
        against ``x``."""
        k = np.asarray(k)
        if k.dtype.kind not in "iu" or (k.size and k.min() < 0):
            raise ValueError("observation counts k must be nonnegative integers")
        return self._checked(lambda v: np.asarray(self._sample_sum(v, k, rng), dtype=float), x)

    # -- interval constants -----------------------------------------------

    def interval_constants(self, box: ParameterBox) -> IntervalConstants:
        """Curvature bounds, mean-map bound and sub-exponential scale over a box.

        The variance bounds and ``sup |G'|`` come from G' and G'' at the box ends;
        binomial adds its peak ``trials / 4``. ``delta_gamma`` is found by
        bisection: the smallest scale in ``[1e-6, 1e6]`` (within bisection
        resolution) at which
        ``E[exp(|Y - G'(x)| / delta)] <= e`` holds on a uniform grid of 101
        parameters spanning the box. Binomial ``trials`` above 200,000, or a
        Poisson box whose largest intensity ``e^hi`` exceeds 200,000, is a
        ``ValueError``, raised before any other work on the box.
        """
        lo_sq, hi_sq = self.variance_bounds(box)
        with np.errstate(over="ignore"):
            moment = self._abs_exp_moment(np.linspace(box.lo, box.hi, _DELTA_GRID_POINTS))
            l_gamma = float(np.abs(self._g1(np.array([box.lo, box.hi]))).max())
        if not math.isfinite(l_gamma):
            raise ValueError(f"sup |G'| is not finite for box [{box.lo}, {box.hi}]")
        delta = _solve_delta(moment, box)
        return IntervalConstants(lo_sq, hi_sq, delta, l_gamma)


def _solve_delta(moment, box: ParameterBox) -> float:
    """The smallest scale in the bracket at which ``moment(scale)`` is at most e everywhere."""

    def feasible(scale: float) -> bool:
        with np.errstate(over="ignore"):
            return bool(moment(scale).max() <= math.e)

    lo, hi = _DELTA_BRACKET
    if not feasible(hi):
        raise ValueError(
            f"sub-exponential scale exceeds {hi:g} for box [{box.lo}, {box.hi}]; "
            "the box is too close to the domain boundary"
        )
    if feasible(lo):
        return lo
    for _ in range(_DELTA_BISECT_ITERS):
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return hi


@dataclass(frozen=True)
class Gaussian(ExponentialFamily):
    """Gaussian observations with known standard deviation."""

    sigma: float = 1.0
    name = "gaussian"

    def __post_init__(self):
        if not self.sigma > 0:
            raise ValueError("sigma must be positive")

    def _g(self, x):
        return 0.5 * self.sigma**2 * x**2

    def _g1(self, x):
        return self.sigma**2 * x

    def _g2(self, x):
        return np.full_like(x, self.sigma**2)

    def _bregman(self, x, x_ref):
        return 0.5 * self.sigma**2 * (x - x_ref) ** 2

    def _sample_sum(self, x, k, rng):
        return rng.normal(loc=k * self.sigma**2 * x, scale=self.sigma * np.sqrt(k))

    def _abs_exp_moment(self, x):
        def moment(scale):
            # |Y - mean| is a folded normal; the moment does not depend on x.
            s = self.sigma / scale
            val = 2.0 * math.exp(0.5 * s * s) * _ndtr(s) if 0.5 * s * s <= 700.0 else math.inf
            return np.full(np.shape(x), val)
        return moment


@dataclass(frozen=True)
class Binomial(ExponentialFamily):
    """Binomial counts with a known number of trials; x is the log-odds."""

    trials: int = 1
    name = "binomial"
    support_lo = 0.0

    def __post_init__(self):
        if not (isinstance(self.trials, int) and self.trials >= 1):
            raise ValueError("trials must be an integer >= 1")

    @property
    def support_hi(self) -> float:
        return float(self.trials)

    def _g(self, x):
        return self.trials * _softplus(x)

    def _g1(self, x):
        return self.trials * _expit(x)

    def _g2(self, x):
        p = _expit(x)
        return self.trials * p * (1.0 - p)

    def _bregman(self, x, x_ref):
        return self.trials * (
            _softplus(x) - _softplus(x_ref) - _expit(x_ref) * (x - x_ref)
        )

    def _sample_sum(self, x, k, rng):
        return rng.binomial(k * self.trials, _expit(x))

    def _variance_bounds(self, box):
        lo_sq, hi_sq = super()._variance_bounds(box)
        return lo_sq, 0.25 * self.trials if box.lo <= 0.0 <= box.hi else hi_sq

    def _abs_exp_moment(self, x):
        # exp(log p_k + |k - mean| / scale) summed over the support: an overflow to inf is
        # what the bisection needs, and the p_k sum to 1, so the terms cannot all underflow.
        x = np.asarray(x, dtype=float)[..., None]
        log_fact = _log_factorials(self.trials, f"binomial trials {self.trials}", x)
        k = np.arange(self.trials + 1, dtype=float)
        log_pmf = log_fact[-1] - log_fact - log_fact[::-1] - k * _softplus(-x)
        log_pmf -= (self.trials - k) * _softplus(x)
        dev = np.abs(k - self.trials * _expit(x))

        def moment(scale):
            terms = dev / scale
            terms += log_pmf
            return np.exp(terms, out=terms).sum(axis=-1)
        return moment


@dataclass(frozen=True)
class Poisson(ExponentialFamily):
    """Poisson counts; x is the log-intensity."""

    name = "poisson"
    support_lo = 0.0

    def _g(self, x):
        return np.exp(x)

    def _g1(self, x):
        return np.exp(x)

    def _g2(self, x):
        return np.exp(x)

    def _bregman(self, x, x_ref):
        return np.exp(x_ref) * (np.expm1(x - x_ref) - (x - x_ref))

    def _sample_sum(self, x, k, rng):
        return rng.poisson(k * np.exp(x))

    def _abs_exp_moment(self, x):
        # With t = 1/scale, E[e^{t|Y - lam|}] is the MGF term E[e^{t(Y - lam)}] =
        # exp(lam (e^t - 1 - t)) plus sum_{k < lam} p_k 2 sinh(t (lam - k)). The
        # moment is inf once the MGF exponent passes 700; below that, lam t^2 / 2
        # <= 700, so by the Chernoff bound P(Y <= lam - d) <= exp(-d^2 / (2 lam))
        # (Boucheron, Lugosi & Massart 2013, ch. 2) every term with
        # lam - k > t lam + sqrt(2920 lam) is below e^-760 and is left out.
        log_lam = np.asarray(x, dtype=float).reshape(-1)
        lam = np.exp(log_lam)  # may overflow to inf, which the limit rejects
        log_fact = _log_factorials(lam.max(), f"poisson intensity e^{log_lam.max():g}", log_lam)

        def moment(scale):
            t = 1.0 / scale
            with np.errstate(over="ignore"):
                mgf = lam * (np.expm1(t) - t)
            out = np.full(lam.shape, math.inf)
            rows = np.flatnonzero(mgf <= 700.0)
            lr, log_lr = lam[rows], log_lam[rows]
            start = np.maximum(np.floor(lr - t * lr - np.sqrt(2920.0 * lr)), 0.0).astype(np.int64)
            count = np.ceil(lr).astype(np.int64) - start  # the sum runs over start <= k < lam
            row = np.repeat(np.arange(rows.size), count)
            k = np.arange(count.sum()) + np.repeat(start - (np.cumsum(count) - count), count)
            log_p = k * np.repeat(log_lr, count) - np.repeat(lr, count) - log_fact[k]
            td = t * (np.repeat(lr, count) - k)
            down = log_p - td  # then in place: each fresh ragged temporary costs page faults
            log_p += td
            terms = np.exp(log_p, out=log_p)
            terms -= np.exp(down, out=down)
            out[rows] = np.exp(mgf[rows]) + np.bincount(row, weights=terms, minlength=rows.size)
            return out.reshape(np.shape(x))
        return moment


@dataclass(frozen=True)
class Exponential(ExponentialFamily):
    """Exponentially distributed observations with rate -x; domain x < 0."""

    name = "exponential"
    domain_hi = 0.0
    support_lo = 0.0

    def _g(self, x):
        return -np.log(-x)

    def _g1(self, x):
        return -1.0 / x

    def _g2(self, x):
        return 1.0 / x**2

    def _bregman(self, x, x_ref):
        u = (x - x_ref) / x_ref
        return u - np.log1p(u)

    def _sample_sum(self, x, k, rng):
        return rng.gamma(k, scale=-1.0 / x)

    def _abs_exp_moment(self, x):
        # Closed form for the folded exponential; diverges once the tilt
        # 1/scale reaches the rate -x.
        x = np.asarray(x, dtype=float)

        def moment(scale):
            u = -1.0 / (scale * x)
            out = np.full(x.shape, math.inf)
            ok = u < 1.0
            uu = u[ok]
            out[ok] = np.exp(uu) * (1.0 - np.exp(-1.0 - uu)) / (1.0 + uu) + math.exp(-1.0) / (1.0 - uu)
            return out
        return moment

