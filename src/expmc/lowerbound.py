"""Minimax lower-bound construction: packing sets and their conditions.

The packing is built along the longer side ``M = max(m1, m2)``: random
binary ``M x r`` blocks scaled by ``kappa * gamma``, kept only when their
Hamming distance to every previously kept block is at least ``M r / 8``
(the Varshamov-Gilbert separation level), then replicated column-wise to
the shorter side, and transposed when ``m1 < m2``. The zero matrix is
always the first member. The achievable cardinality target is
``2**ceil(M r / 8) + 1``, capped for desk-scale verification; the cap
preserves every pairwise and average condition being checked.

``verify_conditions`` re-checks at runtime what the construction is
supposed to deliver: pairwise Frobenius separation, the average
divergence budget relative to ``alpha * log(cardinality - 1)``, set
membership, and the resulting lower-bound rate value.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .families import ExponentialFamily, ParameterBox
from .io import save_matrix_csv
from .matops import numerical_rank
from .metrics import bregman_integrated
from .sampling import SamplingScheme

__all__ = [
    "PackingError",
    "PackingSet",
    "PackingReport",
    "kappa",
    "build_packing",
    "kl_to_null",
    "verify_conditions",
    "delta_probability",
    "save_packing",
]


class PackingError(RuntimeError):
    """Rejection sampling could not reach the cardinality target."""

    def __init__(self, message: str, achieved: int):
        super().__init__(message)
        self.achieved = achieved


def kappa(alpha: float, m1: int, r: int, gamma: float, sigma_hi_sq: float, n: int) -> float:
    """Entry amplitude factor min(1/2, sqrt(alpha m1 r) / (2 gamma sqrt(sigma_hi_sq) sqrt(n))),
    with ``m1`` the side a packing is built along, ``max(m1, m2)``."""
    if not 0 < alpha < 0.125:
        raise ValueError("alpha must lie in (0, 1/8)")
    if min(m1, r, n) < 1 or gamma <= 0 or sigma_hi_sq <= 0:
        raise ValueError("m1, r, n must be >= 1 and gamma, sigma_hi_sq positive")
    return min(0.5, math.sqrt(alpha * m1 * r) / (2.0 * gamma * math.sqrt(sigma_hi_sq) * math.sqrt(n)))


@dataclass(eq=False)
class PackingSet:
    """Well-separated family of bounded low-rank matrices; members[0] is zero."""

    alpha: float
    kappa: float
    members: list[np.ndarray]
    r: int
    gamma: float
    cardinality_target: int

    @property
    def m1(self) -> int:
        return self.members[0].shape[0]

    @property
    def m2(self) -> int:
        return self.members[0].shape[1]

    @property
    def cardinality(self) -> int:
        return len(self.members)


def _expand_block(block: np.ndarray, m2: int, r: int) -> np.ndarray:
    reps = m2 // r
    pad = m2 - r * reps
    pieces = [block] * reps
    if pad:
        pieces.append(np.zeros((block.shape[0], pad)))
    return np.hstack(pieces)


# Candidate draws of build_packing, and its cardinality cap for desk-scale verification.
_MAX_ATTEMPTS = 200_000
_MAX_CARDINALITY = 257


def build_packing(
    m1: int,
    m2: int,
    r: int,
    gamma: float,
    alpha: float,
    sigma_hi_sq: float,
    n: int,
    rng: np.random.Generator,
) -> PackingSet:
    """Rejection-sample a packing of {0, kappa*gamma}-valued block matrices.

    A wide shape (``m1 < m2``) gets the transpose of the ``m2 x m1`` packing,
    so that ``kappa`` and the cardinality take ``max(m1, m2)``, as the rate
    does. Raises :class:`PackingError` with the achieved size if the target is
    not reached within ``_MAX_ATTEMPTS`` candidate draws.
    """
    if m1 < 2 or m2 < 2:
        raise ValueError("dimensions must be >= 2")
    if not 1 <= r <= min(m1, m2):
        raise ValueError("rank must satisfy 1 <= r <= min(m1, m2)")
    if m1 < m2:
        packing = build_packing(m2, m1, r, gamma, alpha, sigma_hi_sq, n, rng)
        packing.members = [member.T.copy() for member in packing.members]
        return packing
    kap = kappa(alpha, m1, r, gamma, sigma_hi_sq, n)
    target = min(2 ** math.ceil(m1 * r / 8) + 1, _MAX_CARDINALITY)
    separation = m1 * r / 8.0

    kept = np.zeros((1, m1, r))
    attempts = 0
    while kept.shape[0] < target and attempts < _MAX_ATTEMPTS:
        attempts += 1
        cand = rng.integers(0, 2, size=(m1, r)).astype(float)
        dists = np.abs(kept - cand).sum(axis=(1, 2))
        if dists.min() >= separation:
            kept = np.concatenate([kept, cand[None]], axis=0)
    if kept.shape[0] < target:
        raise PackingError(
            f"packing target {target} not reached within {_MAX_ATTEMPTS} attempts",
            achieved=int(kept.shape[0]),
        )
    amplitude = kap * gamma
    members = [_expand_block(block, m2, r) * amplitude for block in kept]
    return PackingSet(
        alpha=alpha,
        kappa=kap,
        members=members,
        r=r,
        gamma=gamma,
        cardinality_target=target,
    )


def kl_to_null(family: ExponentialFamily, scheme: SamplingScheme, x: np.ndarray, n: int):
    """Kullback-Leibler divergence of an n-sample at parameters ``x`` from the zero matrix.

    Equals ``n`` times the integrated Bregman divergence of the zero
    matrix from ``x``; models whose domain excludes zero (exponential)
    are rejected with a :class:`~expmc.families.DomainError`. A stack of
    matrices ``x`` gives an array with one divergence per matrix.
    """
    return n * bregman_integrated(family, scheme, np.zeros(np.shape(x)), x)


def delta_probability(alpha: float, big_m: int, r: int) -> float:
    """Probability floor (1/(1+2^{-rM/16})) (1 - 2 alpha - sqrt(alpha/(r M log 2)) / 2)."""
    lead = 1.0 / (1.0 + 2.0 ** (-r * big_m / 16.0))
    return lead * (1.0 - 2.0 * alpha - 0.5 * math.sqrt(alpha / (r * big_m * math.log(2.0))))


@dataclass(eq=False)
class PackingReport:
    """Outcome of the runtime packing checks; ``failures`` names any violated condition."""

    cardinality: int
    cardinality_target: int
    min_pairwise_sq: float
    separation_threshold: float
    kl_values: list[float]
    kl_average: float
    kl_budget: float
    kl_member_cap: float
    delta_value: float
    lower_bound_value: float
    failures: list[str]

    @property
    def passed(self) -> bool:
        return not self.failures


def verify_conditions(
    packing: PackingSet,
    family: ExponentialFamily,
    scheme: SamplingScheme,
    n: int,
    box: ParameterBox,
) -> PackingReport:
    """Re-check separation, divergence budget and membership of a packing.

    Every member must lie entrywise in ``box``. The average divergence over
    nonzero members must stay below ``alpha * log(cardinality - 1)``; each
    member's divergence is also compared against the curvature cap
    ``n sigma_hi^2 (kappa gamma)^2 / 2``, with ``sigma_hi^2`` the largest
    variance over ``box``.
    """
    m1, m2, r, gamma, kap = packing.m1, packing.m2, packing.r, packing.gamma, packing.kappa
    failures: list[str] = []

    members = packing.members
    card = len(members)
    if card < packing.cardinality_target:
        failures.append("cardinality")

    # Entry values, box and rank membership, each checked on all members at once.
    amplitude = kap * gamma
    stacked = np.stack(members)
    if not np.all((np.abs(stacked) <= 1e-12) | (np.abs(stacked - amplitude) <= 1e-12)):
        failures.append("entry_values")
    if not box.contains(stacked, tol=1e-12):
        failures.append("sup_norm")
    if np.any(numerical_rank(stacked) > r):
        failures.append("rank")

    # ||a_i - a_j||^2 = ||a_i||^2 + ||a_j||^2 - 2 <a_i, a_j> for every pair i < j, from one Gram product.
    flat = stacked.reshape(card, -1)
    gram = flat @ flat.T
    sq = np.diag(gram)
    pair_sq = sq[:, None] + sq[None, :] - 2.0 * gram
    min_sq = float(pair_sq[np.triu_indices(card, k=1)].min()) if card > 1 else math.inf
    threshold = m1 * m2 * kap**2 * gamma**2 / 16.0
    if min_sq < threshold - 1e-12:
        failures.append("separation")

    kl_values = kl_to_null(family, scheme, stacked[1:], n).tolist()
    kl_average = float(np.mean(kl_values)) if kl_values else 0.0
    kl_budget = packing.alpha * math.log(card - 1) if card > 1 else 0.0
    if kl_average > kl_budget + 1e-12:
        failures.append("kl_average")

    sigma_hi_sq = family.variance_bounds(box)[1]
    member_cap = n * sigma_hi_sq * (kap * gamma) ** 2 / 2.0
    if kl_values and max(kl_values) > member_cap * (1.0 + 1e-9) + 1e-12:
        failures.append("kl_member_cap")

    big_m = max(m1, m2)
    return PackingReport(
        cardinality=card,
        cardinality_target=packing.cardinality_target,
        min_pairwise_sq=min_sq,
        separation_threshold=threshold,
        kl_values=kl_values,
        kl_average=kl_average,
        kl_budget=kl_budget,
        kl_member_cap=member_cap,
        delta_value=delta_probability(packing.alpha, big_m, r),
        lower_bound_value=min(gamma**2, packing.alpha * big_m * r / (n * sigma_hi_sq)),
        failures=failures,
    )


def save_packing(packing: PackingSet, out_dir, seed: int) -> None:
    """Write the members as matrix CSVs ``member_0000.csv``, ... plus a JSON
    manifest of the packing parameters and the run's ``seed``."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = {
        "alpha": packing.alpha,
        "kappa": packing.kappa,
        "r": packing.r,
        "gamma": packing.gamma,
        "m1": packing.m1,
        "m2": packing.m2,
        "cardinality": packing.cardinality,
        "cardinality_target": packing.cardinality_target,
        "seed": seed,
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    for i, mat in enumerate(packing.members):
        save_matrix_csv(out / f"member_{i:04d}.csv", mat)
