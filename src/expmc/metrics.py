"""Risk metrics and closed-form bound evaluators.

The headline error metric is the normalized squared Frobenius distance
between estimate and truth. Divergence risks come in two flavours: the
empirical Bregman average over the observed cells and the integrated
Bregman average weighted by the sampling table (the Kullback-Leibler
prediction risk for exponential-family noise).

``bound_value`` evaluates the closed-form risk-bound expressions with
caller-supplied constants; the abstract numerical constants are taken at
one, so comparisons against these values are scaling checks rather than
sharp-constant checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .families import ExponentialFamily
from .matops import numerical_rank, nuclear_norm
from .sampling import ObservationSet, SamplingScheme

__all__ = [
    "RiskReport",
    "risk_report",
    "frobenius_risk",
    "bregman_empirical",
    "bregman_integrated",
    "bound_value",
    "BOUND_NAMES",
    "OracleInequalityReport",
    "oracle_inequality_check",
]

_HALF_ONE_PLUS_SQRT2_SQ = ((1.0 + math.sqrt(2.0)) / 2.0) ** 2


@dataclass(eq=False)
class RiskReport:
    """Per-fit risk summary."""

    frob_risk: float
    kl_integrated: float
    kl_empirical: float
    rank_bar: int

    def __post_init__(self):
        if self.frob_risk < 0 or self.kl_integrated < -1e-15 or self.kl_empirical < -1e-15:
            raise ValueError("risks must be nonnegative")


def risk_report(
    family: ExponentialFamily,
    scheme: SamplingScheme,
    obs: ObservationSet,
    x_hat: np.ndarray,
    x_bar: np.ndarray,
) -> RiskReport:
    """Bundle the three risks and the truth's numerical rank."""
    return RiskReport(
        frob_risk=frobenius_risk(x_hat, x_bar),
        kl_integrated=bregman_integrated(family, scheme, x_hat, x_bar),
        kl_empirical=bregman_empirical(family, obs, x_hat, x_bar),
        rank_bar=numerical_rank(x_bar),
    )


def frobenius_risk(x_hat: np.ndarray, x_bar: np.ndarray) -> float:
    """Squared Frobenius distance divided by the number of entries."""
    x_hat = np.asarray(x_hat, dtype=float)
    x_bar = np.asarray(x_bar, dtype=float)
    if x_hat.shape != x_bar.shape:
        raise ValueError("shape mismatch")
    diff = x_hat - x_bar
    return float((diff * diff).sum() / diff.size)


def bregman_empirical(
    family: ExponentialFamily, obs: ObservationSet, x1: np.ndarray, x2: np.ndarray
) -> float:
    """Average Bregman divergence over the observed cells (with multiplicity)."""
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    idx = (obs.rows, obs.cols)
    vals = family.bregman(x1[idx], x2[idx])
    return float(np.mean(vals))


def bregman_integrated(
    family: ExponentialFamily, scheme: SamplingScheme, x1: np.ndarray, x2: np.ndarray
) -> float:
    """Bregman divergence averaged under the sampling table (KL prediction risk)."""
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    if x1.shape != scheme.pi.shape or x2.shape != scheme.pi.shape:
        raise ValueError("shape mismatch with the sampling table")
    return float((scheme.pi * family.bregman(x1, x2)).sum())


def _log_d(m1: int, m2: int) -> float:
    return math.log(m1 + m2)


def _require(inputs: dict, keys: tuple[str, ...], which: str) -> None:
    missing = [k for k in keys if inputs.get(k) is None]
    if missing:
        raise ValueError(f"bound {which!r} is missing required inputs: {missing}")


def bound_value(which: str, **inputs) -> float:
    """Evaluate a named closed-form risk-bound expression.

    Common inputs: dimensions ``m1``/``m2``, sample size ``n``, truth
    rank ``rank``, box radius ``gamma``, penalty ``lam``, coverage and
    balance constants ``mu``/``nu``, curvature bounds ``sigma_lo_sq`` /
    ``sigma_hi_sq``, mean-map bound ``l_gamma``, the ``c_gamma`` knob,
    a Monte-Carlo ``rademacher_norm`` estimate, and the truth's nuclear
    norm ``nuclear_norm_bar``. The leading abstract factor is 1.

    Supported names:

    * ``likelihood_risk`` — penalty-explicit bound for the likelihood
      estimator (uses the random-sign norm estimate); the larger of
      ``likelihood_risk_main`` and ``likelihood_risk_edge``, its two
      branches.
    * ``likelihood_risk_subexp`` — same estimator at the prescribed
      penalty under sub-exponential noise.
    * ``known_sampling_risk`` — penalty-explicit bound for the
      known-sampling estimator (sharp constants, no abstract factor).
    * ``known_sampling_risk_uniform`` — same estimator at the prescribed
      penalty under uniform sampling.
    * ``minimax_lower`` — the minimax lower-bound rate.
    """
    m1, m2 = inputs.get("m1"), inputs.get("m2")
    if m1 is None or m2 is None:
        raise ValueError(f"bound {which!r} is missing required inputs: ['m1', 'm2']")
    n = inputs.get("n")
    big_m = max(m1, m2)

    if which in ("likelihood_risk", "likelihood_risk_main", "likelihood_risk_edge"):
        _require(inputs, ("mu", "rank", "lam", "sigma_lo_sq", "rademacher_norm", "gamma", "n"), which)
        mu = inputs["mu"]
        main = m1 * m2 * inputs["rank"] * (
            inputs["lam"] ** 2 / inputs["sigma_lo_sq"] ** 2 + inputs["rademacher_norm"] ** 2
        )
        edge = inputs["gamma"] ** 2 / mu * math.sqrt(_log_d(m1, m2) / n)
        # Rounding is monotone, so the bound is exactly the larger branch.
        branch = {
            "likelihood_risk": max(main, edge),
            "likelihood_risk_main": main,
            "likelihood_risk_edge": edge,
        }[which]
        return mu**2 * branch

    if which == "likelihood_risk_subexp":
        _require(inputs, ("mu", "nu", "rank", "sigma_lo_sq", "sigma_hi_sq", "gamma", "n"), which)
        mu = inputs["mu"]
        c_gamma = float(inputs.get("c_gamma", 1.0))
        main = (
            (c_gamma * inputs["sigma_hi_sq"] / inputs["sigma_lo_sq"] ** 2 + 1.0)
            * inputs["nu"] * inputs["rank"] * big_m * _log_d(m1, m2) / n
        )
        edge = inputs["gamma"] ** 2 / mu * math.sqrt(_log_d(m1, m2) / n)
        return mu**2 * max(main, edge)

    if which == "known_sampling_risk":
        _require(inputs, ("mu", "rank", "lam", "sigma_lo_sq", "nuclear_norm_bar"), which)
        mu = inputs["mu"]
        lo_sq = inputs["sigma_lo_sq"]
        first = 2.0 * _HALF_ONE_PLUS_SQRT2_SQ * m1 * m2 / lo_sq**2 * inputs["lam"] ** 2 * inputs["rank"]
        second = 4.0 / (mu * lo_sq) * inputs["lam"] * inputs["nuclear_norm_bar"]
        return mu**2 * min(first, second)

    if which == "known_sampling_risk_uniform":
        _require(inputs, ("rank", "sigma_lo_sq", "sigma_hi_sq", "l_gamma", "n"), which)
        c_gamma = float(inputs.get("c_gamma", 1.0))
        core = (c_gamma * math.sqrt(inputs["sigma_hi_sq"]) + inputs["l_gamma"]) / inputs["sigma_lo_sq"]
        return core**2 * inputs["rank"] * big_m * _log_d(m1, m2) / n

    if which == "minimax_lower":
        _require(inputs, ("gamma", "rank", "sigma_hi_sq", "n"), which)
        return min(inputs["gamma"] ** 2, big_m * inputs["rank"] / (n * inputs["sigma_hi_sq"]))

    raise ValueError(f"unknown bound name {which!r}")


BOUND_NAMES = (
    "likelihood_risk",
    "likelihood_risk_main",
    "likelihood_risk_edge",
    "likelihood_risk_subexp",
    "known_sampling_risk",
    "known_sampling_risk_uniform",
    "minimax_lower",
)


@dataclass(eq=False)
class OracleInequalityReport:
    """Outcome of comparing a known-sampling fit against candidate trade-offs.

    ``margin_*`` is (best right-hand side) minus (left-hand side); the
    inequality passes when the margin is no smaller than ``-slack``.
    """

    applicable: bool
    lhs: float
    rhs_flat: list[float]
    rhs_rank: list[float]
    margin_flat: float
    margin_rank: float
    slack: float

    @property
    def passed_flat(self) -> bool:
        return self.applicable and self.margin_flat >= -self.slack

    @property
    def passed_rank(self) -> bool:
        return self.applicable and self.margin_rank >= -self.slack

    @property
    def passed(self) -> bool:
        return self.passed_flat and self.passed_rank


def oracle_inequality_check(
    family: ExponentialFamily,
    scheme: SamplingScheme,
    x_check: np.ndarray,
    x_bar: np.ndarray,
    lam: float,
    mu: float,
    sigma_lo_sq: float,
    candidates: list[np.ndarray],
    slack: float = 1e-8,
    required_lambda: float | None = None,
) -> OracleInequalityReport:
    """Verify both oracle trade-off inequalities for a known-sampling fit.

    For every candidate ``X`` the integrated divergence of the fit must
    not exceed ``D(X) + 2 lam ||X||_nuclear`` nor
    ``D(X) + ((1+sqrt(2))/2)^2 (mu / sigma_lo_sq) m1 m2 lam^2 rank(X)``,
    up to ``slack``. When ``required_lambda`` is given and ``lam`` falls
    below it the check is reported as inapplicable instead of evaluated.
    """
    if not candidates:
        raise ValueError("need at least one candidate")
    applicable = required_lambda is None or lam >= required_lambda * (1.0 - 1e-12)
    m1, m2 = scheme.m1, scheme.m2
    lhs = bregman_integrated(family, scheme, x_check, x_bar)
    rhs_flat = []
    rhs_rank = []
    for cand in candidates:
        d_pi = bregman_integrated(family, scheme, cand, x_bar)
        rhs_flat.append(d_pi + 2.0 * lam * nuclear_norm(cand))
        rhs_rank.append(
            d_pi
            + _HALF_ONE_PLUS_SQRT2_SQ * (mu / sigma_lo_sq) * m1 * m2 * lam**2 * numerical_rank(cand)
        )
    return OracleInequalityReport(
        applicable=applicable,
        lhs=lhs,
        rhs_flat=rhs_flat,
        rhs_rank=rhs_rank,
        margin_flat=min(rhs_flat) - lhs,
        margin_rank=min(rhs_rank) - lhs,
        slack=slack,
    )
