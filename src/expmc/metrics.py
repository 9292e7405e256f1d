"""Risk metrics and closed-form bound evaluators.

The headline error metric is the normalized squared Frobenius distance
between estimate and truth. Divergence risks come in two flavours: the
empirical Bregman average over the observations, read from the per-cell
counts the fit read, and the integrated Bregman average weighted by the
sampling table (the Kullback-Leibler prediction risk for
exponential-family noise).

``risk_report`` returns the risks of one fit, ``bound_value`` every
closed-form risk-bound expression of it and ``oracle_inequality_check``
the outcome of both oracle inequalities, each in a single call, keyed by
name in the order of their result columns. The bounds' abstract
numerical constants are taken at one, so comparisons against these
values are scaling checks rather than sharp-constant checks.
"""

from __future__ import annotations

import math

import numpy as np

from .families import ExponentialFamily
from .matops import _rank, numerical_rank, nuclear_norm
from .sampling import SamplingScheme

__all__ = [
    "risk_report",
    "frobenius_risk",
    "bregman_empirical",
    "bregman_integrated",
    "bound_value",
    "oracle_inequality_check",
]

_HALF_ONE_PLUS_SQRT2_SQ = ((1.0 + math.sqrt(2.0)) / 2.0) ** 2


def risk_report(
    family: ExponentialFamily,
    scheme: SamplingScheme,
    counts: np.ndarray,
    x_hat: np.ndarray,
    x_bar: np.ndarray,
    s_bar: np.ndarray | None = None,
) -> dict[str, float]:
    """The three risks of one fit and the truth's numerical rank, keyed by name
    in column order; ``counts`` is the fit's per-cell count table. The rank is
    read from ``s_bar``, the singular values of ``x_bar`` in descending order,
    when the caller has them, and from an SVD of ``x_bar`` otherwise. A negative
    risk is a ValueError."""
    report = {
        "frob_risk": frobenius_risk(x_hat, x_bar),
        "kl_integrated": bregman_integrated(family, scheme, x_hat, x_bar),
        "kl_empirical": bregman_empirical(family, counts, x_hat, x_bar),
        "rank_bar": numerical_rank(x_bar) if s_bar is None else _rank(s_bar),
    }
    if report["frob_risk"] < 0 or report["kl_integrated"] < -1e-15 or report["kl_empirical"] < -1e-15:
        raise ValueError("risks must be nonnegative")
    return report


def frobenius_risk(x_hat: np.ndarray, x_bar: np.ndarray) -> float:
    """Squared Frobenius distance divided by the number of entries."""
    x_hat = np.asarray(x_hat, dtype=float)
    x_bar = np.asarray(x_bar, dtype=float)
    if x_hat.shape != x_bar.shape:
        raise ValueError("shape mismatch")
    diff = x_hat - x_bar
    return float((diff * diff).sum() / diff.size)


def bregman_empirical(
    family: ExponentialFamily, counts: np.ndarray, x1: np.ndarray, x2: np.ndarray
) -> float:
    """Average Bregman divergence over the observations, from the table ``counts``
    of how many each cell received: ``sum_c k_c D(x1_c, x2_c) / sum_c k_c`` over
    the cells with ``k_c > 0``, one divergence per observed cell. A table with
    no observation, or of another shape than ``x1`` and ``x2``, is a ValueError."""
    counts = np.asarray(counts, dtype=float)
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    if not counts.shape == x1.shape == x2.shape:
        raise ValueError(f"count table and matrices differ in shape: {counts.shape}, {x1.shape}, {x2.shape}")
    seen = np.flatnonzero(counts > 0)
    if not seen.size:
        raise ValueError("the count table holds no observation")
    k = counts.reshape(-1)[seen]
    divergences = family.bregman(x1.reshape(-1)[seen], x2.reshape(-1)[seen])
    return float((k * divergences).sum() / k.sum())


def bregman_integrated(
    family: ExponentialFamily, scheme: SamplingScheme, x1: np.ndarray, x2: np.ndarray
) -> float:
    """Bregman divergence averaged under the sampling table (KL prediction risk).

    Stacks of matrices ``x1``, ``x2`` give an array with one divergence per
    pair, each equal to the float its pair gives alone.
    """
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    if x1.shape[-2:] != scheme.pi.shape or x2.shape[-2:] != scheme.pi.shape:
        raise ValueError("shape mismatch with the sampling table")
    terms = scheme.pi * family.bregman(x1, x2)
    out = terms.reshape(*terms.shape[:-2], -1).sum(axis=-1)
    return float(out) if out.ndim == 0 else out


def bound_value(
    *, m1, m2, n, rank, gamma, mu, nu, lam, sigma_lo_sq, sigma_hi_sq, l_gamma, c_gamma,
    rademacher_norm, nuclear_norm_bar,
) -> dict[str, float]:
    """Every closed-form risk bound of one fit, keyed by name in column order.

    Inputs: dimensions ``m1``/``m2``, sample size ``n``, truth rank
    ``rank``, box radius ``gamma``, coverage and balance constants
    ``mu``/``nu``, penalty ``lam``, curvature bounds ``sigma_lo_sq`` /
    ``sigma_hi_sq``, mean-map bound ``l_gamma``, the ``c_gamma`` knob, a
    Monte-Carlo ``rademacher_norm`` estimate and the truth's nuclear norm
    ``nuclear_norm_bar``. The leading abstract factor is 1.

    * ``likelihood_risk`` — penalty-explicit bound for the likelihood
      estimator (uses the random-sign norm estimate); exactly the larger
      of ``likelihood_risk_main`` and ``likelihood_risk_edge``, its two
      branches, because rounding is monotone.
    * ``likelihood_risk_subexp`` — same estimator at the prescribed
      penalty under sub-exponential noise.
    * ``known_sampling_risk`` — penalty-explicit bound for the
      known-sampling estimator (sharp constants, no abstract factor).
    * ``known_sampling_risk_uniform`` — same estimator at the prescribed
      penalty under uniform sampling.
    * ``minimax_lower`` — the minimax lower-bound rate.
    """
    big_m = max(m1, m2)
    log_d = math.log(m1 + m2)
    main = m1 * m2 * rank * (lam**2 / sigma_lo_sq**2 + rademacher_norm**2)
    edge = gamma**2 / mu * math.sqrt(log_d / n)
    subexp = (c_gamma * sigma_hi_sq / sigma_lo_sq**2 + 1.0) * nu * rank * big_m * log_d / n
    ks_first = 2.0 * _HALF_ONE_PLUS_SQRT2_SQ * m1 * m2 / sigma_lo_sq**2 * lam**2 * rank
    ks_second = 4.0 / (mu * sigma_lo_sq) * lam * nuclear_norm_bar
    core = (c_gamma * math.sqrt(sigma_hi_sq) + l_gamma) / sigma_lo_sq
    if not math.isfinite(core * core):
        raise ValueError(f"solver key 'c_gamma' {c_gamma!r} is too large: the known-sampling bound overflows")
    return {
        "likelihood_risk": mu**2 * max(main, edge),
        "likelihood_risk_main": mu**2 * main,
        "likelihood_risk_edge": mu**2 * edge,
        "likelihood_risk_subexp": mu**2 * max(subexp, edge),
        "known_sampling_risk": mu**2 * min(ks_first, ks_second),
        "known_sampling_risk_uniform": core**2 * rank * big_m * log_d / n,
        "minimax_lower": min(gamma**2, big_m * rank / (n * sigma_hi_sq)),
    }


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
) -> dict:
    """Verify both oracle trade-off inequalities for a known-sampling fit.

    For every candidate ``X`` the integrated divergence of the fit must
    not exceed ``D(X) + 2 lam ||X||_nuclear`` nor
    ``D(X) + ((1+sqrt(2))/2)^2 (mu / sigma_lo_sq) m1 m2 lam^2 rank(X)``,
    up to ``slack``. When ``required_lambda`` is given and ``lam`` falls
    below it the check is reported as inapplicable instead of evaluated.

    Returns, keyed by name in column order: ``applicable``; ``lhs``, the
    fit's integrated divergence; ``margin_flat`` and ``margin_rank``, the
    smallest right-hand side of each inequality minus ``lhs``; and
    ``passed_flat`` and ``passed_rank``, whether the check applies and the
    margin is no smaller than ``-slack``.
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
    margin_flat, margin_rank = min(rhs_flat) - lhs, min(rhs_rank) - lhs
    return {
        "applicable": applicable,
        "lhs": lhs,
        "margin_flat": margin_flat,
        "margin_rank": margin_rank,
        "passed_flat": applicable and margin_flat >= -slack,
        "passed_rank": applicable and margin_rank >= -slack,
    }
