"""Sampling distributions over matrix entries and observed samples.

A :class:`SamplingScheme` is a dense probability table over the cells of
an ``m1 x m2`` matrix. Two scalar summaries drive the risk bounds:

* ``mu_constant`` — how far the least-likely cell falls below the
  uniform probability ``1/(m1 m2)``;
* ``nu_constant`` — how far the largest row/column marginal exceeds the
  uniform marginal ``1/min(m1, m2)``.

Index drawing is inverse-CDF lookup on the flattened table: a uniform
``u`` selects the first cell whose cumulative probability exceeds ``u``
(the last cell if rounding leaves the total below ``u``). A guide table
(Chen & Asau, 1974) with one bucket per cell stores, for the lower edge
of each bucket of ``[0, 1)``, the first cell whose cumulative
probability exceeds that edge. A draw starts at its bucket's entry and
steps forward while the cumulative probability is still ``<= u``. The
edges sit slightly below ``k / K``, so every ``u`` in bucket ``k`` is at
or above its edge even after rounding; the start never passes the
answer and the walk stops exactly at it. A draw still short of its cell
after a few steps (behind a long run of zero or tiny cells) is finished
by binary search. Draws are therefore the same cells
``np.searchsorted(cdf, u, side="right")`` would pick, mostly in one step
or none instead of a binary search. Schemes are immutable after
construction; ``draw`` and ``rademacher_norm_estimate`` mutate only the
caller-supplied generator.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "CoverageError",
    "SamplingScheme",
    "ObservationSet",
    "uniform_scheme",
    "product_scheme",
    "rademacher_norm_estimate",
]

_TABLE_TOL = 1e-12
# Relative margin that keeps each guide-bucket edge below every u that
# float rounding can place in its bucket (a few ulps would do).
_EDGE_SLACK = 1e-15
# Forward steps a draw may take from its guide entry before it is finished
# by binary search.
_MAX_WALK = 8


class CoverageError(ValueError):
    """The scheme has a zero-probability cell, so the coverage constant is undefined."""


@dataclass(frozen=True, eq=False)
class SamplingScheme:
    """Probability table over the entries of an ``m1 x m2`` matrix."""

    pi: np.ndarray
    # Flat CDF with a +inf sentinel, and per bucket of [0, 1) the first
    # cell whose CDF exceeds the bucket's lower edge (see the module docstring).
    _cdf: np.ndarray = field(init=False, repr=False, compare=False)
    _guide: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        pi = np.array(self.pi, dtype=float)
        if pi.ndim != 2 or pi.size == 0:
            raise ValueError("pi must be a nonempty 2-d table")
        if np.any(pi < 0) or not np.all(np.isfinite(pi)):
            raise ValueError("pi entries must be finite and nonnegative")
        if abs(pi.sum() - 1.0) > _TABLE_TOL:
            raise ValueError(f"pi must sum to 1 within {_TABLE_TOL:g}, got {pi.sum()!r}")
        pi.setflags(write=False)
        object.__setattr__(self, "pi", pi)
        cdf = np.append(np.cumsum(pi.reshape(-1)), np.inf)
        k = pi.size
        edges = (np.arange(k) / k) * (1.0 - _EDGE_SLACK)
        object.__setattr__(self, "_cdf", cdf)
        object.__setattr__(self, "_guide", np.searchsorted(cdf, edges, side="right"))

    @property
    def m1(self) -> int:
        return self.pi.shape[0]

    @property
    def m2(self) -> int:
        return self.pi.shape[1]

    def row_marginals(self) -> np.ndarray:
        return self.pi.sum(axis=1)

    def col_marginals(self) -> np.ndarray:
        return self.pi.sum(axis=0)

    def mu_constant(self) -> float:
        """Coverage constant ``(1 / (m1 m2)) / min pi``: at least 1, and exactly 1.0 on
        every uniform table (``1 / (m1 m2 min pi)`` rounds to 1 + 2**-52 on 7x7)."""
        p_min = float(self.pi.min())
        if p_min <= 0.0:
            raise CoverageError(
                "scheme has a zero-probability cell; downstream risk bounds "
                "require every cell to have positive sampling probability"
            )
        return (1.0 / (self.m1 * self.m2)) / p_min

    def nu_constant(self) -> float:
        """Marginal-balance constant: min(m1, m2) times the largest row/column marginal."""
        worst = max(float(self.row_marginals().max()), float(self.col_marginals().max()))
        return min(self.m1, self.m2) * worst

    def draw(self, n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        """n independent cell indices (0-based row and column arrays)."""
        if n < 1:
            raise ValueError("n must be >= 1")
        flat = self._draw_flat(n, rng)
        rows, cols = np.unravel_index(flat, self.pi.shape)
        return rows.astype(np.int64), cols.astype(np.int64)

    def _draw_flat(self, n: int, rng: np.random.Generator) -> np.ndarray:
        u = rng.random(n)
        k = self.pi.size
        idx = (u * k).astype(np.intp)  # guide bucket of each draw
        np.minimum(idx, k - 1, out=idx)
        idx = self._guide[idx]
        cdf = self._cdf
        active = np.flatnonzero(cdf[idx] <= u)
        for _ in range(_MAX_WALK):
            if not active.size:
                break
            idx[active] += 1
            active = active[cdf[idx[active]] <= u[active]]
        # Draws still short of their cell sit behind a long run of zero or
        # tiny cells inside one bucket; a binary search bounds their cost.
        idx[active] = np.searchsorted(cdf, u[active], side="right")
        return np.minimum(idx, k - 1, out=idx)


@dataclass(frozen=True, eq=False)
class ObservationSet:
    """Sample of observed entries: 0-based cell indices and one value per draw."""

    m1: int
    m2: int
    rows: np.ndarray
    cols: np.ndarray
    ys: np.ndarray

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=np.int64)
        cols = np.asarray(self.cols, dtype=np.int64)
        ys = np.asarray(self.ys, dtype=float)
        if not (rows.shape == cols.shape == ys.shape) or rows.ndim != 1:
            raise ValueError("rows, cols and ys must be 1-d arrays of equal length")
        if rows.size < 1:
            raise ValueError("an observation set needs at least one sample")
        if rows.min() < 0 or rows.max() >= self.m1 or cols.min() < 0 or cols.max() >= self.m2:
            raise ValueError("observation indices out of range")
        if not np.all(np.isfinite(ys)):
            raise ValueError("observation values must be finite")
        for name, arr in (("rows", rows), ("cols", cols), ("ys", ys)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        return self.rows.size


def uniform_scheme(m1: int, m2: int) -> SamplingScheme:
    """Uniform table: every cell has probability 1/(m1 m2)."""
    if m1 < 1 or m2 < 1:
        raise ValueError("dimensions must be >= 1")
    return SamplingScheme(np.full((m1, m2), 1.0 / (m1 * m2)))


def product_scheme(row_weights, col_weights) -> SamplingScheme:
    """Product table from nonnegative row and column weight vectors."""
    r = np.asarray(row_weights, dtype=float)
    c = np.asarray(col_weights, dtype=float)
    if r.ndim != 1 or c.ndim != 1 or np.any(r < 0) or np.any(c < 0):
        raise ValueError("weights must be nonnegative 1-d vectors")
    if r.sum() <= 0 or c.sum() <= 0:
        raise ValueError("weights must have positive total mass")
    pi = np.outer(r / r.sum(), c / c.sum())
    return SamplingScheme(pi / pi.sum())


def rademacher_norm_estimate(
    scheme: SamplingScheme, n: int, reps: int, rng: np.random.Generator
) -> float:
    """Monte-Carlo mean operator norm of the random-sign sampling matrix.

    For each repetition draws ``n`` cells and ``n`` independent signs,
    accumulates ``(1/n) sum_i sign_i E_i`` (``E_i`` the indicator matrix
    of the drawn cell) and takes its largest singular value; returns the
    average over repetitions.
    """
    if reps < 1:
        raise ValueError("reps must be >= 1")
    if n < 1:
        raise ValueError("n must be >= 1")
    total = 0.0
    for _ in range(reps):
        flat_idx = scheme._draw_flat(n, rng)
        signs = rng.integers(0, 2, size=n) * 2 - 1
        acc = np.bincount(flat_idx, weights=signs.astype(float), minlength=scheme.pi.size)
        total += float(np.linalg.norm(acc.reshape(scheme.pi.shape) / n, ord=2))
    return total / reps
