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
``-x``.

The base measure of the density never needs to be evaluated: it enters
every likelihood only as an additive constant, so all objectives in
:mod:`expmc.estimator` drop it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

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

# delta_gamma search: bracket of scales, bisection steps, parameters on the box grid.
_DELTA_BRACKET = (1e-6, 1e6)
_DELTA_BISECT_ITERS = 60
_DELTA_GRID_POINTS = 101


class DomainError(ValueError):
    """A natural parameter fell outside the model's domain."""


@dataclass(frozen=True)
class ParameterBox:
    """Closed interval ``[lo, hi]`` constraining the entries of a parameter matrix."""

    lo: float
    hi: float

    def __post_init__(self):
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
    """Base class; concrete models implement the log-partition hooks."""

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
            if not (np.all(np.isfinite(p)) and np.all(p > self.domain_lo) and np.all(p < self.domain_hi)):
                raise DomainError(
                    f"natural parameter outside the open domain "
                    f"({self.domain_lo}, {self.domain_hi}) of the {self.name} model"
                )
        out = hook(*params)
        return float(out) if scalar else out

    def validate_box(self, box: ParameterBox):
        """Reject boxes that are not strictly inside the domain."""
        if not (box.lo > self.domain_lo and box.hi < self.domain_hi):
            raise DomainError(
                f"box [{box.lo}, {box.hi}] is not strictly inside the "
                f"{self.name} domain ({self.domain_lo}, {self.domain_hi})"
            )

    def check_support(self, ys: np.ndarray):
        """Reject observations outside the closed range a draw can take."""
        ys = np.asarray(ys, dtype=float)
        if not (ys.min() >= self.support_lo and ys.max() <= self.support_hi):
            raise ValueError(
                f"observations outside the range [{self.support_lo}, {self.support_hi}] "
                f"of the {self.name} model"
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

    def _sample(self, x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        raise NotImplementedError

    def _variance_bounds(self, box: ParameterBox) -> tuple[float, float]:
        raise NotImplementedError

    def _mean_abs_max(self, box: ParameterBox) -> float:
        raise NotImplementedError

    def _centered_abs_exp_moment(self, x: np.ndarray, scale: float) -> np.ndarray:
        """E[exp(|Y - G'(x)| / scale)] for each x, +inf where divergent."""
        raise NotImplementedError

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

    def sample(self, x, rng: np.random.Generator):
        """One draw per natural parameter, using the caller-supplied generator."""
        return self._checked(lambda v: np.asarray(self._sample(v, rng), dtype=float), x)

    def variance_bounds(self, box: ParameterBox) -> tuple[float, float]:
        """Closed-form (min, max) of the variance map G'' over the box."""
        self.validate_box(box)
        return self._variance_bounds(box)

    # -- interval constants -----------------------------------------------

    def interval_constants(self, box: ParameterBox) -> IntervalConstants:
        """Curvature bounds, mean-map bound and sub-exponential scale over a box.

        The variance bounds and ``sup |G'|`` are closed-form for every
        supported model. ``delta_gamma`` is found by bisection: the
        smallest scale in ``[1e-6, 1e6]`` (within bisection resolution) at
        which ``E[exp(|Y - G'(x)| / delta)] <= e`` holds on a uniform grid of
        101 parameters spanning the box.
        """
        self.validate_box(box)
        lo_sq, hi_sq = self._variance_bounds(box)
        l_gamma = self._mean_abs_max(box)
        if not (math.isfinite(lo_sq) and math.isfinite(hi_sq) and math.isfinite(l_gamma)) or lo_sq <= 0:
            raise ValueError(f"interval constants are not finite/positive for box [{box.lo}, {box.hi}]")
        delta = self._solve_delta(box)
        return IntervalConstants(lo_sq, hi_sq, delta, l_gamma)

    def _solve_delta(self, box) -> float:
        xs = np.linspace(box.lo, box.hi, _DELTA_GRID_POINTS)
        target = math.e
        worst = 0  # grid index of the largest moment at the last full evaluation

        def feasible(scale: float) -> bool:
            # The worst point moves little between scales: if it already
            # exceeds the target the scale is infeasible and the grid is skipped.
            nonlocal worst
            with np.errstate(over="ignore"):
                if not self._centered_abs_exp_moment(xs[worst:worst + 1], scale)[0] <= target:
                    return False
                vals = self._centered_abs_exp_moment(xs, scale)
            worst = int(np.argmax(vals))
            return bool(vals[worst] <= target)

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

    def _sample(self, x, rng):
        return rng.normal(loc=self.sigma**2 * x, scale=self.sigma)

    def _variance_bounds(self, box):
        return self.sigma**2, self.sigma**2

    def _mean_abs_max(self, box):
        return self.sigma**2 * box.radius

    def _centered_abs_exp_moment(self, x, scale):
        # |Y - mean| is a folded normal; the moment does not depend on x.
        x = np.asarray(x, dtype=float)
        s = self.sigma / scale
        if 0.5 * s * s > 700.0:
            return np.full(x.shape, math.inf)
        val = 2.0 * math.exp(0.5 * s * s) * special.ndtr(s)
        return np.full(x.shape, val)


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
        return self.trials * np.logaddexp(0.0, x)

    def _g1(self, x):
        return self.trials * special.expit(x)

    def _g2(self, x):
        p = special.expit(x)
        return self.trials * p * (1.0 - p)

    def _bregman(self, x, x_ref):
        return self.trials * (
            np.logaddexp(0.0, x) - np.logaddexp(0.0, x_ref) - special.expit(x_ref) * (x - x_ref)
        )

    def _sample(self, x, rng):
        return rng.binomial(self.trials, special.expit(x))

    def _variance_bounds(self, box):
        ends = [float(self._g2(np.asarray(v))) for v in (box.lo, box.hi)]
        hi = 0.25 * self.trials if box.lo <= 0.0 <= box.hi else max(ends)
        return min(ends), hi

    def _mean_abs_max(self, box):
        return float(self.trials * special.expit(box.hi))

    def _centered_abs_exp_moment(self, x, scale):
        x = np.asarray(x, dtype=float)[..., None]
        k = np.arange(self.trials + 1, dtype=float)
        log_pmf = (
            special.gammaln(self.trials + 1)
            - special.gammaln(k + 1)
            - special.gammaln(self.trials - k + 1)
            - k * np.logaddexp(0.0, -x)
            - (self.trials - k) * np.logaddexp(0.0, x)
        )
        log_term = log_pmf + np.abs(k - self.trials * special.expit(x)) / scale
        return np.exp(special.logsumexp(log_term, axis=-1))


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

    def _sample(self, x, rng):
        return rng.poisson(np.exp(x))

    def _variance_bounds(self, box):
        return math.exp(box.lo), math.exp(box.hi)

    def _mean_abs_max(self, box):
        return math.exp(box.hi)

    def _centered_abs_exp_moment(self, x, scale):
        x = np.asarray(x, dtype=float)
        out = np.empty(x.shape)
        flat = out.reshape(-1)
        for i, xi in enumerate(x.reshape(-1)):
            flat[i] = _poisson_abs_moment(math.exp(xi), scale)
        return out


def _poisson_abs_moment(lam: float, scale: float, k_cap: int = 200_000) -> float:
    """E[exp(|Y - lam| / scale)] for Y ~ Poisson(lam), by log-space summation."""
    growth = math.exp(min(1.0 / scale, 35.0))
    peak = lam * growth
    kmax = int(min(lam + peak + 12.0 * math.sqrt(peak + 1.0) + 60.0, k_cap))
    k = np.arange(kmax + 1, dtype=float)
    log_term = -lam + k * math.log(lam) - special.gammaln(k + 1) + np.abs(k - lam) / scale
    m = float(log_term.max())
    if m > 500.0:
        return math.inf
    total = m + math.log(float(np.exp(log_term - m).sum()))
    if kmax >= k_cap and log_term[-1] > m - 60.0 and total <= 1.5:
        raise ValueError("poisson sub-exponential moment series did not converge")
    return math.exp(total) if total < 700.0 else math.inf


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

    def _sample(self, x, rng):
        return rng.exponential(scale=-1.0 / x)

    def _variance_bounds(self, box):
        return 1.0 / box.lo**2, 1.0 / box.hi**2

    def _mean_abs_max(self, box):
        return -1.0 / box.hi

    def _centered_abs_exp_moment(self, x, scale):
        # Closed form for the folded exponential; diverges once the tilt
        # 1/scale reaches the rate -x.
        x = np.asarray(x, dtype=float)
        u = -1.0 / (scale * x)
        out = np.full(x.shape, math.inf)
        ok = u < 1.0
        uu = u[ok]
        out[ok] = np.exp(uu) * (1.0 - np.exp(-1.0 - uu)) / (1.0 + uu) + math.exp(-1.0) / (1.0 - uu)
        return out

