"""Penalized maximum-likelihood matrix completion.

Both estimation modes minimize one data term
``f(x) = (sum_c w_c G(x_c) - sum_c t_c x_c) / d`` plus a nuclear-norm
penalty, subject to an entrywise box constraint. They differ only in the
cells ``c`` the data term reads, how each one is weighted and the step
the solver starts at:

* ``likelihood`` — the observed cells, ``w`` their counts, ``t`` the sums
  of their observations and ``d = n``: the averaged negative log-likelihood.
  The step starts at ``m1 m2 / sigma_hi^2``;
* ``known_sampling`` — every cell, ``w`` the known sampling table,
  ``t = y_sum / n`` and ``d = 1``: the empirical log-partition average is
  replaced by its expectation under the table. The step starts at half
  that, ``m1 m2 / (2 sigma_hi^2)``.

The solver is relaxed Davis-Yin three-operator splitting of data term,
nuclear norm and box indicator (Davis & Yin, Set-Valued Var. Anal. 2017)
with Anderson extrapolation and a step that shrinks on failed sufficient
decrease (Pedregosa & Gidel, ICML 2018). A curvature bound settles most
decrease tests without evaluating the data term. The returned estimate is
always box-feasible and the recorded objective trace is non-increasing.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field

import numpy as np

from . import matops  # fit calls matops.svt, so wrappers installed on matops see its SVTs
from .families import DomainError, ExponentialFamily, ParameterBox
# combined_prox is not used by the solver; perfbench/tracer.py counts its calls here.
from .matops import box_clip, combined_prox, nuclear_norm, operator_norm  # noqa: F401
from .sampling import CellSummary, ObservationSet, SamplingScheme

__all__ = [
    "LIKELIHOOD",
    "KNOWN_SAMPLING",
    "SolverConfig",
    "CompletionProblem",
    "FitResult",
    "neg_loglik",
    "gradient",
    "theorem_lambda",
    "oracle_lambda",
    "fit",
]

LIKELIHOOD = "likelihood"
KNOWN_SAMPLING = "known_sampling"

C_STAR = 1.0 + math.sqrt(3.0)  # the numerical constant c* of the known-sampling penalty level


@dataclass(frozen=True)
class SolverConfig:
    """Stopping rule of :func:`fit` and the ``c_gamma`` of the prescribed penalty levels.

    A value that cannot run (``tol < 0``, ``max_iters < 1``, ``c_gamma <= 0``)
    is a ValueError naming its key.
    """

    tol: float = 1e-9
    max_iters: int = 5000
    c_gamma: float = 1.0

    def __post_init__(self):
        if not self.tol >= 0:
            raise ValueError(f"solver key 'tol' must be >= 0, got {self.tol!r}")
        if not self.max_iters >= 1:
            raise ValueError(f"solver key 'max_iters' must be >= 1, got {self.max_iters!r}")
        if not self.c_gamma > 0:
            raise ValueError(f"solver key 'c_gamma' must be > 0, got {self.c_gamma!r}")


def _check_lambda(lam: float) -> None:
    if not (math.isfinite(lam) and lam >= 0):
        raise ValueError(f"penalty level must be finite and >= 0, got {lam!r}")


@dataclass(eq=False)
class CompletionProblem:
    """Observations plus model, box constraint and penalty level.

    ``obs`` is a sample of single observations or its per-cell counts and sums;
    the problem reads only the counts and sums, so either gives the same
    problem. ``scheme`` is required in ``known_sampling`` mode and must match the
    observation dimensions; ``likelihood`` mode ignores it. An observation
    outside the family's range is rejected, as is a cell sum of ``k``
    observations outside ``k`` times that range. The mode is read once, here:
    it fixes the cells, weights, targets and divisor of the data term and
    the solver's start step (see the module docstring), and only the cells
    read must lie in the domain.
    """

    obs: ObservationSet | CellSummary
    family: ExponentialFamily
    box: ParameterBox
    lam: float
    mode: str = LIKELIHOOD
    scheme: SamplingScheme | None = None

    # Derived summaries of the sample, filled in __post_init__.
    counts: np.ndarray = field(init=False, repr=False)
    y_sum: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        _check_lambda(self.lam)
        if self.mode not in (LIKELIHOOD, KNOWN_SAMPLING):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == KNOWN_SAMPLING:
            if self.scheme is None:
                raise ValueError("known_sampling mode requires a sampling scheme")
            if (self.scheme.m1, self.scheme.m2) != (self.obs.m1, self.obs.m2):
                raise ValueError("scheme dimensions do not match the observations")
        self.family.variance_bounds(self.box)
        if isinstance(self.obs, ObservationSet):
            self.family.check_support(self.obs.ys)
            cells = self.obs.summary()
        else:
            cells = self.obs
            seen = cells.counts > 0  # only observed cells: 0 * inf is NaN
            self.family.check_support(cells.sums[seen], cells.counts[seen])
        self.counts, self.y_sum, n = cells.counts, cells.sums, cells.n
        # n stays out of the known-sampling weights: fit's step bound reads max(w) / d,
        # and (n pi).max() / n can round above pi.max().
        if self.mode == LIKELIHOOD:
            self._cells = np.flatnonzero(self.counts)
            self._weights = self.counts.reshape(-1)[self._cells]
            self._targets, self._divisor = self.y_sum.reshape(-1)[self._cells], n
            self._step_scale = 1.0
        else:
            self._cells = slice(None)
            self._weights = self.scheme.pi.reshape(-1)
            self._targets, self._divisor = self.y_sum.reshape(-1) / n, 1
            # Box-bound known-sampling fits take about a quarter fewer
            # iterations from half the likelihood start; sparse likelihood
            # fits take more from it.
            self._step_scale = 0.5

    @property
    def shape(self) -> tuple[int, int]:
        return self.obs.m1, self.obs.m2

    def with_lambda(self, lam: float) -> "CompletionProblem":
        """The same problem at another penalty level, sharing the sample summaries."""
        _check_lambda(lam)
        out = copy.copy(self)
        out.lam = lam
        return out


def _data_cells(problem: CompletionProblem, x) -> np.ndarray:
    """The entries of ``x`` the data term reads, in row-major order."""
    x = np.asarray(x, dtype=float)
    if x.shape != problem.shape:
        raise ValueError("matrix shape does not match the observations")
    return x.reshape(-1)[problem._cells]


def neg_loglik(problem: CompletionProblem, x: np.ndarray) -> float:
    """The data term ``(sum_c w_c G(x_c) - sum_c t_c x_c) / d`` of the objective, with
    the base-measure constant dropped; only the cells it reads must lie in the domain."""
    v = _data_cells(problem, x)
    g = problem.family.log_partition(v)
    return float((problem._weights * g - problem._targets * v).sum() / problem._divisor)


def gradient(problem: CompletionProblem, x: np.ndarray) -> np.ndarray:
    """Gradient of :func:`neg_loglik` at ``x``; vanishes entrywise at the
    noiseless truth in ``likelihood`` mode."""
    v = _data_cells(problem, x)
    grad = np.zeros(problem.shape)
    g1 = problem.family.mean(v)
    grad.reshape(-1)[problem._cells] = (problem._weights * g1 - problem._targets) / problem._divisor
    return grad


def theorem_lambda(
    which: str,
    consts,
    scheme: SamplingScheme,
    n: int,
    c_gamma: float = 1.0,
) -> float:
    """Theoretically prescribed penalty level for either estimation mode.

    ``which="likelihood"``: ``2 c_gamma sigma_hi sqrt(2 nu log(d) / (m n))``.
    ``which="known_sampling"``: ``(c_gamma sigma_hi + c* l_gamma) sqrt(2 log(d) / (m n))``.

    Here ``d = m1 + m2``, ``m = min(m1, m2)`` and ``c*`` is the constant
    ``1 + sqrt(3)`` (:data:`C_STAR`). A level whose square overflows (the
    bounds square it) is a ValueError naming ``c_gamma``.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    d = scheme.m1 + scheme.m2
    m = min(scheme.m1, scheme.m2)
    sigma_hi = math.sqrt(consts.sigma_hi_sq)
    if which == LIKELIHOOD:
        nu = scheme.nu_constant()
        lam = 2.0 * c_gamma * sigma_hi * math.sqrt(2.0 * nu * math.log(d) / (m * n))
    elif which == KNOWN_SAMPLING:
        lam = (c_gamma * sigma_hi + C_STAR * consts.l_gamma) * math.sqrt(2.0 * math.log(d) / (m * n))
    else:
        raise ValueError(f"unknown lambda rule {which!r}")
    if not math.isfinite(lam * lam):
        raise ValueError(f"solver key 'c_gamma' {c_gamma!r} gives a penalty level {lam!r} whose square overflows")
    return lam


def oracle_lambda(problem: CompletionProblem, x_bar: np.ndarray) -> float:
    """Penalty level from the score at the (simulation-only) truth.

    Twice the operator norm of the gradient in ``likelihood`` mode, the
    operator norm itself in ``known_sampling`` mode.
    """
    factor = 2.0 if problem.mode == LIKELIHOOD else 1.0
    return factor * operator_norm(gradient(problem, x_bar))


@dataclass(eq=False)
class FitResult:
    x_hat: np.ndarray
    objective_trace: list[float]
    iterations: int
    converged: bool
    prox_residual: float
    lambda_used: float


def _objective(problem: CompletionProblem, x: np.ndarray) -> float:
    # The zero matrix has nuclear norm 0.0, exactly what its SVD returns.
    return neg_loglik(problem, x) + problem.lam * (nuclear_norm(x) if x.any() else 0.0)


def _sufficient_decrease(problem: CompletionProblem, y, g, z, d, step: float, kappa_box: float) -> bool:
    """``f(z) <= f(y) + <g, d> + ||d||^2 / (2 step)`` for the data term ``f`` with
    ``g = grad f(y)`` and ``d = z - y``; a ``z`` outside the model domain fails.

    A curvature bound settles the test first when it can (:func:`_curvature_proves`,
    with ``kappa_box`` the largest G'' over the problem's box); only otherwise is
    ``f`` evaluated at ``z`` and ``y``.
    """
    if _curvature_proves(problem, z, d, step, kappa_box):
        return True
    try:
        f_z = neg_loglik(problem, z)
    except DomainError:
        return False
    return f_z <= neg_loglik(problem, y) + float((g * d).sum() + (d * d).sum() / (2.0 * step))


def _curvature(problem: CompletionProblem, z, kappa_box: float) -> float | None:
    """The largest G'' over the problem's box widened to hold ``z``, or ``None`` where
    that box leaves the model domain or the bound is not finite. A ``z`` inside the
    box widens nothing, and its bound is ``kappa_box``, the one over the box itself,
    which :func:`fit` holds already."""
    box = problem.box
    lo, hi = float(z.min()), float(z.max())
    if box.lo <= lo and hi <= box.hi:
        return kappa_box
    try:
        return problem.family.variance_bounds(ParameterBox(min(box.lo, lo), max(box.hi, hi)))[1]
    except ValueError:  # DomainError included
        return None


def _curvature_proves(problem: CompletionProblem, z, d, step: float, kappa_box: float) -> bool:
    """Whether ``kappa sum_c w_c d_c^2 / div <= ||d||^2 / step`` for ``d = z - y``,
    with ``kappa`` the largest G'' over the box widened to hold ``z`` (:func:`_curvature`).

    That box holds every segment ``[y_c, z_c]``, as ``y`` lies in the problem's
    box, so by Taylor's theorem ``f(z) - f(y) - <grad f(y), d>`` is at most
    ``kappa sum_c w_c d_c^2 / (2 div)`` and the inequality implies the
    sufficient-decrease test; for Gaussian data the two are the same. A widened
    box outside the model domain, or one over which ``kappa`` is not finite,
    proves nothing.
    """
    kappa = _curvature(problem, z, kappa_box)
    if kappa is None:
        return False
    dc = d.reshape(-1)[problem._cells]
    return kappa * float(np.dot(problem._weights * dc, dc)) / problem._divisor <= float(np.vdot(d, d)) / step


# 0.9 x the Davis-Yin bound 2 - step L / 2 at step = 1/L, and inside it at every shorter step.
_RELAXATION = 1.35
_MEMORY = 5  # past moves each extrapolation combines


class _History:
    """The Anderson history of :func:`fit` at one step.

    ``last`` is the last pair ``(w_next, r)``, ``None`` after :meth:`clear`. The
    float32 differences of up to ``_MEMORY + 1`` consecutive pairs sit in the rows
    ``[:k]`` of ``d_w`` and ``d_r``, two preallocated ``(_MEMORY, m1 m2)``
    buffers; a new difference overwrites the oldest row, and the rows are in no
    particular order, which the combination does not depend on. ``gram`` holds
    the inner products of the ``d_r`` rows, kept between iterations: a new
    difference adds its row and column in one product.
    """

    def __init__(self, shape: tuple[int, int]):
        size = shape[0] * shape[1]
        self.d_w = np.empty((_MEMORY, size), np.float32)
        self.d_r = np.empty((_MEMORY, size), np.float32)
        self.gram = np.empty((_MEMORY, _MEMORY))
        self.clear()

    def clear(self) -> None:
        self.last, self.k, self.slot = None, 0, 0  # slot: the row written next

    def push(self, w_next: np.ndarray, r: np.ndarray) -> None:
        if self.last is not None:  # single precision: the differences only steer the extrapolation
            s = self.slot
            np.subtract(w_next.reshape(-1), self.last[0].reshape(-1), out=self.d_w[s])
            np.subtract(r.reshape(-1), self.last[1].reshape(-1), out=self.d_r[s])
            self.k = k = min(self.k + 1, _MEMORY)
            self.gram[s, :k] = self.gram[:k, s] = self.d_r[:k] @ self.d_r[s]
            self.slot = (s + 1) % _MEMORY
        self.last = w_next, r


def _extrapolate(w_next: np.ndarray, r: np.ndarray, history: _History) -> np.ndarray:
    """Anderson extrapolation of ``w -> w_next = w + r``: the affine combination
    of recent ``w_next`` whose moves ``r`` combine least in norm, from their float32
    differences and the Gram matrix of the move differences that ``history`` keeps
    (Walker & Ni, SIAM J. Numer. Anal. 2011). The right-hand side is one float32
    product of the move differences with ``r``, and the combination one product of
    the coefficients, in float32, with the ``w_next`` differences."""
    k = history.k
    rhs = history.d_r[:k] @ r.reshape(-1).astype(np.float32)
    coef = np.linalg.lstsq(history.gram[:k, :k], rhs, rcond=None)[0]
    return w_next - (coef.astype(np.float32) @ history.d_w[:k]).reshape(w_next.shape)


def fit(problem: CompletionProblem, config: SolverConfig | None = None) -> FitResult:
    """Solve the penalized completion problem by relaxed Davis-Yin splitting.

    The iteration starts at the zero matrix clipped to the box and runs on
    ``w``, whose clip ``y`` is box-feasible and whose overshoot
    ``(w - y) / step`` is the box dual. Each iteration takes one gradient
    at ``y``, one singular value thresholding and one clip::

        z = svt(2 y - w - step grad f(y), step lam)
        w_next = w + _RELAXATION (z - y)

    and moves to the Anderson extrapolation of ``w_next`` over the last 5
    moves, or to ``w_next`` itself when the extrapolated point turns out to
    have a larger residual than the point it came from. In ``likelihood``
    mode the step starts at ``1/L`` for the curvature bound ``sigma_hi^2``
    over the box times the mean per-entry weight ``1/(m1 m2)``, that is at
    ``m1 m2 / sigma_hi^2``; in ``known_sampling`` mode it starts at half
    that, ``m1 m2 / (2 sigma_hi^2)``. While it exceeds ``1/L`` at the
    heaviest weight it is halved, keeping ``y`` and the box dual, until
    ``z`` passes a sufficient-decrease test (a ``z`` outside the model
    domain fails). The test first tries a bound on G'' over a box holding
    ``y`` and ``z``, which needs no data term; only when that bound does not
    settle it is the data term evaluated at ``z`` and ``y``. On the 32
    300×300 binomial benchmark problems the bound settled 256 of 288 tests.
    A start step that overflows is a ValueError, raised before the first SVT.

    ``prox_residual`` is the last fixed-point residual ``||z - y|| / step``,
    zero exactly at a minimizer; ``converged`` means it reached ``tol``
    within ``max_iters``. Since the residual divides by the step, at the
    same ``tol`` a ``known_sampling`` fit, at half the step, stops with
    ``||z - y||`` half as large. A converged fit whose last SVT output ``z``
    lies in the box ends at ``z``, and its penalty is ``lam`` times the sum of
    the thresholded singular values that SVT left on its basis holder, so no
    SVD runs at the exit; any other fit ends at the last ``y``, whose nuclear
    norm takes an SVD. The estimate is that end point or the start point,
    whichever has the lower objective; ``objective_trace`` holds the
    objectives of the start point and the estimate. The Anderson history
    keeps the last 5 float32 differences in two preallocated ring buffers,
    and their Gram matrix between iterations, so a new difference adds one
    product to it; a halved step or a dropped extrapolation empties it. The
    difference ``z - y`` is formed once per SVT, for the decrease test, the
    residual and the move. Every SVT shares one
    :class:`~expmc.matops.SvtBasis`, so at ``min(m1, m2) >= 200`` most of
    them start from the last one's subspace and chain its rank certificate
    instead of factoring a new one.
    """
    cfg = config or SolverConfig()
    box, lam, shape = problem.box, problem.lam, problem.shape
    x0 = box_clip(np.zeros(shape), box)

    sigma_hi_sq = problem.family.variance_bounds(box)[1]
    step = problem._step_scale * shape[0] * shape[1] / sigma_hi_sq
    if not math.isfinite(step):
        raise ValueError(
            f"start step m1 m2 / sigma_hi^2 is not finite for the {problem.family.name} model "
            f"over box [{box.lo}, {box.hi}], sigma_hi^2 = {sigma_hi_sq!r}"
        )
    weight = problem._weights.max() / problem._divisor  # the heaviest per-entry weight
    safe_step = 1.0 / (sigma_hi_sq * weight)
    y = w = x0
    basis = matops.SvtBasis()  # each SVT starts from the last one's right singular subspace
    history = _History(shape)  # float32 differences of recent (w_next, r) at this step
    residual = last_residual = math.inf
    iterations, converged = 0, False

    for iterations in range(1, cfg.max_iters + 1):
        y = box_clip(w, box)
        g = gradient(problem, y)
        z = matops.svt(2.0 * y - w - step * g, step * lam, basis)
        d = z - y
        while step > safe_step and not _sufficient_decrease(problem, y, g, z, d, step, sigma_hi_sq):
            step *= 0.5
            w = 0.5 * (y + w)
            history.clear()
            z = matops.svt(2.0 * y - w - step * g, step * lam, basis)
            d = z - y
        residual = float(np.linalg.norm(d)) / step
        if residual <= cfg.tol:
            converged = True
            break
        if history.k and residual > last_residual:  # w was extrapolated: step from last w_next instead
            w = history.last[0]
            history.clear()
            continue
        last_residual = residual
        r = _RELAXATION * d
        w_next = w + r
        history.push(w_next, r)
        w = _extrapolate(w_next, r, history) if history.k else w_next

    if converged and basis.shrunk is not None and box.contains(z):
        x_end, f_end = z, neg_loglik(problem, z) + lam * float(basis.shrunk.sum())
    else:
        x_end, f_end = y, _objective(problem, y)
    f_start = _objective(problem, x0)
    x_hat, f_hat = (x_end, f_end) if f_end <= f_start else (x0, f_start)
    return FitResult(
        x_hat=x_hat,
        objective_trace=[f_start, f_hat],
        iterations=iterations,
        converged=converged,
        prox_residual=residual,
        lambda_used=lam,
    )
