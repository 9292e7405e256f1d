"""Dense matrix primitives: Schatten norms, singular value thresholding,
box clipping, the combined proximal operator, and singular-span projections.

The nuclear and Schatten norms, the projections and the rank run full
(non-truncated) SVDs. ``operator_norm`` (and ``schatten_norm`` at
``q=inf``) takes the square root of the largest eigenvalue of the smaller
Gram matrix of the input scaled by a power of two; its docstring gives
the accuracy and the cost. ``svt`` finds the kept singular values and
right singular vectors on one of three routes: the eigenpairs above
``tau**2`` of the smaller Gram matrix while the input's Frobenius norm is at
most 100 thresholds, a full SVD otherwise, and, for a caller that passes an
:class:`SvtBasis` to a sequence of calls as ``fit`` does, a certified
subspace iteration from the last call's right singular subspace at
``min(m1, m2) >= 200``; the first such call starts from a randomized
range finder's block. The warm route proves its kept rank with a Cholesky
certificate, or, while the input stays close to the last one so proved,
chains that proof by Weyl's inequality and factors nothing. One exit
thresholds what the route kept and leaves the thresholded values on the
holder, so the caller reads the output's nuclear norm without another SVD.
The Gram route computes only the kept eigenpairs, with LAPACK's ``dsyevr``
called through ctypes from the OpenBLAS that numpy's wheels bundle; where
numpy links another LAPACK, and on the warm route's fallback, it decomposes
the Gram matrix in full with ``np.linalg.eigh``. The two agree to rounding,
not bit for bit, so run manifests record which one ran
(:func:`gram_eigensolver`). The ``svt`` docstring gives the identities, the
certificates, the cold start, the measured crossovers and the accuracy.
"""

from __future__ import annotations

import ctypes
import functools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .families import ParameterBox

__all__ = [
    "schatten_norm",
    "nuclear_norm",
    "operator_norm",
    "svt",
    "SvtBasis",
    "box_clip",
    "combined_prox",
    "DykstraInfo",
    "proj_onto",
    "proj_perp",
    "numerical_rank",
]

RANK_CUTOFF = 1e-9  # singular values below RANK_CUTOFF * sigma_max count as zero
_GRAM_GUARD = 100.0  # svt takes the Gram route while ||a||_F <= _GRAM_GUARD * tau
_WARM_MIN_DIM = 200  # svt's warm route needs min(m1, m2) >= _WARM_MIN_DIM
_WARM_EXTRA = 5  # basis columns beyond the kept rank
_WARM_MAX_STEPS = 30  # subspace iteration steps before the warm route gives up
_WARM_RTOL = 1e-12  # warm stop: every kept ||G v - theta v|| <= _WARM_RTOL * theta_1
_COL_MAJOR = 102  # LAPACKE's LAPACK_COL_MAJOR


def schatten_norm(a: np.ndarray, q: float) -> float:
    """Schatten q-norm from the singular values; ``q=inf`` gives the operator norm.

    ``q=1`` is the nuclear norm and ``q=2`` coincides with the Frobenius
    norm of the entries.
    """
    if not (q >= 1.0):
        raise ValueError("q must be >= 1 (or inf)")
    if math.isinf(q):
        return operator_norm(a)
    s = np.linalg.svd(np.asarray(a, dtype=float), compute_uv=False)
    return float((s**q).sum() ** (1.0 / q))


def nuclear_norm(a: np.ndarray) -> float:
    return schatten_norm(a, 1.0)


def operator_norm(a: np.ndarray) -> float:
    """Largest singular value of a finite 2-d array, from its smaller Gram matrix.

    For ``B`` equal to ``a`` when ``a`` is tall and ``a.T`` when it is wide,
    ``sigma_max(a)**2`` is the largest eigenvalue of ``B^T B``, so the norm
    is ``sqrt(eigvalsh(B^T B)[-1])``: one Gram product and one symmetric
    eigenvalue solve of order ``min(m1, m2)``, no singular vectors.

    ``a`` is first divided by ``2**e``, with ``e`` the binary exponent of
    its largest absolute entry, and the result multiplied back by ``2**e``.
    The scaled entries lie below 1 in magnitude and the largest is at least
    1/2, so the Gram product neither overflows nor underflows, and scaling
    by a power of two rounds nothing (only entries more than ``2**1021``
    below the largest lose bits, and their squares are far below the
    sum's rounding). Empty and zero arrays give 0.0; NaN and infinities
    are a ValueError.

    The relative difference from ``np.linalg.svd(a, compute_uv=False)[0]``
    was at most 2.4e-15 on the 100×100 score gradients and random-sign
    matrices of a Poisson concentration check and on 300×300 Gaussian
    matrices, and stays within the tests' 1e-14 on tall, wide, vector,
    rank-one and ``2**±600``-scaled inputs. On one core of a 2-vCPU VM a
    100×100 input takes 0.52 ms (0.08 ms of it the Gram product) against
    0.88 ms for the SVD's singular values, and a 300×300 one 6.2 ms
    against 9.9 ms.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise ValueError("operator_norm needs a 2-d array")
    if a.size == 0:
        return 0.0
    hi, lo = float(a.max()), float(a.min())
    if not (math.isfinite(hi) and math.isfinite(lo)):
        raise ValueError("operator_norm requires finite input")
    peak = max(hi, -lo)
    if peak == 0.0:
        return 0.0
    e = math.frexp(peak)[1]
    b = np.ldexp(a, -e)
    if b.shape[0] < b.shape[1]:
        b = b.T
    # The scaled peak is at least 1/2, so the largest eigenvalue is at least 1/4.
    return math.ldexp(math.sqrt(float(np.linalg.eigvalsh(b.T @ b)[-1])), e)


class _Anchor(NamedTuple):
    """The input ``b`` of a warm :func:`svt` call that proved its kept rank ``k``
    by a dense certificate, and the level ``c > sigma_{k+1}(b)`` it proved."""

    b: np.ndarray
    c: float
    k: int


@dataclass(eq=False)
class SvtBasis:
    """What one :func:`svt` call leaves for the next call and for its caller.

    A caller that thresholds a slowly moving sequence of matrices passes one
    holder to every call. ``v`` is the right basis the warm route starts
    from, ``None`` until a call at ``min(m1, m2) >= _WARM_MIN_DIM`` leaves
    one. ``shrunk`` holds the last call's kept thresholded singular values
    ``s_k - tau``, so its sum is the nuclear norm of that call's output; it
    is ``None`` after a ``tau == 0`` call, which decomposes nothing.
    ``anchor`` holds the input of the last warm-route call that proved its
    kept rank by a dense certificate, with the bound it proved on the first
    unkept singular value; a later warm call may chain its proof from it
    (see :func:`svt`). It is ``None`` until such a call.
    """

    v: np.ndarray | None = None
    shrunk: np.ndarray | None = None
    anchor: _Anchor | None = None


def svt(a: np.ndarray, tau: float, basis: SvtBasis | None = None) -> np.ndarray:
    """Singular value thresholding: soft-threshold the spectrum by ``tau``.

    This is the proximal operator of ``tau * nuclear_norm``, the matrix
    ``U diag(max(s - tau, 0)) V^T`` for the SVD ``a = U diag(s) V^T``.

    Let ``B`` be ``a``, or ``a.T`` when ``a`` is wide. Each route yields the
    kept singular values ``s_k > tau`` of ``B``, their right singular vectors
    ``V_k`` and the basis for the next call. As ``U_k = B V_k diag(s_k)**-1``,
    one exit forms the result ``B V_k diag(1 - tau / s_k) V_k^T``, transposed
    back for a wide ``a``. Given a ``basis``, it stores ``s_k - tau`` in
    ``basis.shrunk`` on every route, so a caller has the output's nuclear
    norm without another decomposition; the Gram and warm routes also leave
    the kept vectors plus ``_WARM_EXTRA`` more in ``basis.v``, and the full
    route leaves ``basis.v`` as it is.

    **Gram route.** While ``||a||_F <= _GRAM_GUARD * tau``, ``G = B^T B`` is
    formed once; its eigenpairs with ``w_k > tau**2`` give ``s_k = sqrt(w_k)``
    and ``V_k``. That is one Gram product, an eigensolve of order
    ``min(m1, m2)`` and two thin products, about half a full SVD at every
    output rank. The eigensolve (``_gram_eig``) is LAPACK's ``dsyevr`` asked for
    the eigenvalues in ``(tau**2, 2 trace(G)]`` only: a tridiagonal reduction,
    then bisection and inverse iteration for the kept pairs, not all of them.
    The warm route's fallback, which also needs ``_WARM_EXTRA`` vectors past
    the kept rank, decomposes ``G`` in full with ``np.linalg.eigh``.
    Per call at order 60 on one core of a 2-vCPU VM (interleaved medians,
    ``dsyevr`` against ``np.linalg.eigh`` and a mask) it took 0.20 against
    0.36 ms keeping 3 values, 0.25 against 0.34 ms at 5, 0.34 against
    0.33 ms at 8 and 0.57 against 0.34 ms at 15. It loses past about 8 to 10
    kept values, but no width switch is applied: every call of the
    ``rate_sweep_g60`` workload keeps 3, and 3,211 of the 3,338 calls over the
    ``fit_ks_g60`` pool fits did. Where numpy does not link its bundled
    OpenBLAS with the 64-bit-integer symbol, ``np.linalg.eigh`` decomposes
    ``G`` in full instead. Forming ``G`` squares the conditioning, so the error
    grows with ``sigma_1 / tau``; the guard bounds ``sigma_1 / tau`` by 100.
    On 200×200 inputs with singular values 1, 0.5, 0.2 and 197 more spread
    over ``[0, 2 tau]``, the largest entry error against a full SVD was 2e-16
    at ``sigma_1 / tau = 10`` and 9e-16 at 100; beyond the guard it grew to
    2e-14 at 1e3 and 1.2e-13 at 1e4.

    **Full route.** Past the guard, ``s_k`` and ``V_k`` come from a full SVD
    of ``B``. On 60×60, 80×50, 50×80 and 300×300 inputs at ``sigma_1 / tau``
    of 1e2 to 1e8 the relative error was 3e-16 to 1.1e-15, against 5e-16 to
    7e-15 for ``U diag(max(s - tau, 0)) V^T`` from the same SVD.

    **Warm route.** Given a ``basis``, a Gram-route input with
    ``min(m1, m2) >= _WARM_MIN_DIM`` replaces the eigendecomposition by block
    subspace iteration on ``G = B^T B`` from ``basis.v``, with Rayleigh-Ritz
    on every step, until each Ritz pair
    ``(theta_i, v_i)`` with ``theta_i > tau**2`` has
    ``||G v_i - theta_i v_i|| <= _WARM_RTOL * theta_1`` (at most
    ``_WARM_MAX_STEPS`` steps). The kept rank ``k`` is then certified.
    The Ritz values are lower bounds on the eigenvalues of ``G`` (Cauchy
    interlacing), so ``G`` has at least ``k`` eigenvalues above ``tau**2``.
    It has no more when ``sigma_{k+1}(B) < tau``, proved one of two ways:

    * *Chained*: ``basis.anchor`` holds an earlier input ``B_0``, its kept
      rank ``k_0`` and a level ``c > sigma_{k_0+1}(B_0)``. By Weyl's
      inequality ``sigma_{k+1}(B) <= sigma_{k+1}(B_0) + ||B - B_0||_F``, so
      ``k == k_0`` and ``c + ||B - B_0||_F < tau`` prove it for one Frobenius
      norm of a difference. A chain proves nothing about a smaller rank: for
      ``k < k_0`` it would need ``sigma_{k+1}(B_0)``, which may exceed ``tau``.
    * *Dense*: a Cholesky factor of ``c**2 I - G + V_k diag(theta_k) V_k^T``
      proves ``lambda_{k+1}(G) < c**2``, because a PSD rank-``k`` update raises
      ``lambda_{k+1}`` no higher than the largest eigenvalue of the deflated
      matrix (Weyl), built in a new array. The level is
      ``c**2 = (theta_{k+1} + tau**2) / 2``, halfway from the first unkept Ritz
      value (a lower bound on ``sigma_{k+1}**2``, so no lower level can succeed)
      to ``tau**2``, which leaves later calls a margin ``tau - c`` to chain
      in. ``B`` and ``c`` become the new anchor. A factor at ``c**2`` implies
      one at ``tau**2``, but not the reverse: a call with
      ``c**2 <= lambda_{k+1}(G) < tau**2`` takes the Gram route.

    The route yields ``s_k = sqrt(theta_k)`` and ``V_k``: the Gram route's kept
    rank, with the error bounded by the residual stop. It gives way to the
    Gram route, on the same ``G``, when the iteration does not converge, when
    fewer than ``_WARM_EXTRA`` Ritz values fall below ``tau**2``, or when
    neither proof holds. In the ``fit`` of each of 32 300×300 binomial
    problems, 160 of the 288 warm calls chained and every dense certificate
    held at its level; in a 2000×2000 Poisson fit that keeps rank 4,
    158 of 166 chained, and on one core of a 2-vCPU VM its SVT time fell
    from 77 to 44 s. A chained call still forms ``G``; the subspace
    iteration could run on ``B^T (B Q)`` instead, which pays only at orders
    near 1000 and above.

    **Cold start.** While ``basis.v`` is ``None``, the warm route starts
    from a fixed-seed Gaussian block of ``2 * _WARM_EXTRA`` columns after two
    steps ``q = qr(G q)[0]``, a randomized range finder (Halko, Martinsson &
    Tropp, SIAM Rev. 2011). Without those steps every Ritz value of the
    block starts below ``tau**2``, the iteration stops at ``k = 0`` and the
    certificate refuses it. The same certificate decides, so a first call
    that keeps more than ``_WARM_EXTRA`` values, or whose block does not
    converge, decomposes ``G`` as the Gram route does. In the ``fit`` of
    each of 32 300×300 binomial problems (``n = 120,000``, oracle penalty)
    the first call certified; on one core of a 2-vCPU VM it took 1.64 ms in
    the median against 1.67 ms on the Gram route, and it leaves the anchor
    that later calls chain from.

    Measured on one core of a 2-vCPU VM, per call, on sequences whose steps
    add noise of operator norm ``0.002 tau`` to spectra with ``k`` values in
    ``[1.5, 4] tau`` and the rest in ``[0, 0.8] tau`` (Gram route on
    ``dsyevr`` -> warm route, the median over three sequences of 13 calls):
    order 200 0.84 -> 0.55 ms at ``k = 5``, 1.11 -> 0.97 ms at 10 and
    1.61 -> 1.66 ms at 20; order 300 2.29 -> 2.05 ms at 10 and
    3.43 -> 3.59 ms at 25; order 1000 45 -> 32 ms at 30, 54 -> 52 ms at 61
    and 63 -> 81 ms at 95. So the warm route wins while its basis is well
    under a tenth of the order. No width limit is applied, as no fit
    measured comes near it: the kept rank was at most 2% of
    ``min(m1, m2)`` in binomial 300×300, 200×200 (known sampling) and
    1000×1000 fits and a Poisson 300×200 fit, and no benchmark workload
    keeps a wider basis. At rank 3 the warm route wins at order 200
    (0.72 -> 0.59 ms) and loses at 150 (0.44 -> 0.48 ms), 100
    (0.21 -> 0.32 ms) and 60 (0.10 -> 0.28 ms), where its fixed costs
    dominate; the floor of 200 sits at that crossover. In the ``fit`` of a
    300×300 binomial problem the inputs settle, and a call takes 1 to 11
    steps, 7 in the median. The warm route agrees with the Gram route to
    1e-11 relative on such sequences.
    """
    if not tau >= 0:  # NaN fails too
        raise ValueError("tau must be >= 0")
    a = np.asarray(a, dtype=float)
    if not np.all(np.isfinite(a)):
        raise ValueError("svt requires finite input")
    if tau == 0.0:
        if basis is not None:
            basis.shrunk = None
        return a.copy()
    wide = a.shape[0] < a.shape[1]
    b = a.T if wide else a
    warm = basis is not None and b.shape[1] >= _WARM_MIN_DIM
    if np.linalg.norm(a) > _GRAM_GUARD * tau:
        _, s, vt = np.linalg.svd(b, full_matrices=False)
        keep = s > tau
        kept = s[keep], vt[keep].T, basis.v if warm else None
    else:
        g = b.T @ b
        kept = None
        if warm:
            kept = _warm_svt(g, b, tau, basis)
        if kept is None:
            w, v_k, top = _gram_eig(g, tau * tau, _WARM_EXTRA if warm else 0)
            kept = np.sqrt(w), v_k, top
    s_k, v_k, v_next = kept
    if basis is not None:
        basis.shrunk = s_k - tau
    if warm:
        basis.v = v_next
    out = b @ (v_k * (1.0 - tau / s_k)) @ v_k.T
    return out.T if wide else out


def _gram_eig(g: np.ndarray, level: float, extra: int):
    """The eigenvalues of the symmetric ``g`` above ``level`` and their eigenvectors,
    both in ascending order, and, when ``extra > 0``, the eigenvectors of the
    ``k + extra`` largest eigenvalues in descending order (``None`` otherwise),
    with ``k`` the count above ``level``. ``g`` is not written.

    With ``extra == 0``, where numpy links its bundled OpenBLAS, LAPACK's
    ``dsyevr`` computes only the eigenpairs in ``(level, 2 trace(g)]``, which
    holds every eigenvalue above ``level`` of a positive semidefinite ``g``.
    Otherwise ``np.linalg.eigh`` decomposes ``g`` in full, once. The ``k``
    that fixes how many vectors ``extra > 0`` asks for is known only after a
    decomposition, and a second ``dsyevr`` call by index range for them was
    slower than one ``eigh`` (at order 200 keeping 10, 2.07 against 1.51 ms
    on one core of a 2-vCPU VM). A failed decomposition is a LinAlgError on
    both paths.
    """
    dsyevr = _lapack_dsyevr()
    if dsyevr is None or extra:
        w, v = np.linalg.eigh(g)
        keep = w > level
        top = v[:, ::-1][:, :np.count_nonzero(keep) + extra].copy() if extra else None
        return w[keep], v[:, keep], top
    hi = 2.0 * float(np.trace(g))
    if not hi > level:
        return np.empty(0), np.empty((g.shape[0], 0)), None
    return (*_dsyevr(dsyevr, g, level, hi), None)


def gram_eigensolver() -> str:
    """Which eigensolver the Gram route of :func:`svt` runs in this process:
    ``"dsyevr"`` or ``"eigh"``. Outputs may differ between the two in their last
    bits, so run manifests record it. The warm route's Gram fallback runs
    ``np.linalg.eigh`` either way."""
    return "eigh" if _lapack_dsyevr() is None else "dsyevr"


def _dsyevr(dsyevr, g: np.ndarray, vl: float, vu: float):
    """One LAPACKE ``dsyevr`` call on a copy of ``g``: the eigenpairs with values in
    ``(vl, vu]``, ascending. The column-major layout makes LAPACKE copy nothing;
    ``g`` is symmetric, so its C-order buffer is the same matrix, and ``"U"`` reads
    the triangle that ``np.linalg.eigh`` reads."""
    n = g.shape[0]
    a = np.array(g, dtype=np.float64, order="C")  # dsyevr overwrites its input
    w = np.empty(n)
    z = np.empty((n, n))  # row j is eigenvector j
    isuppz = np.empty(2 * n, np.int64)
    m = ctypes.c_int64()
    info = dsyevr(_COL_MAJOR, b"V", b"V", b"U", n, a.ctypes.data, n, vl, vu, 0, 0, 0.0,
                  ctypes.byref(m), w.ctypes.data, z.ctypes.data, n, isuppz.ctypes.data)
    if info != 0:
        raise np.linalg.LinAlgError(f"dsyevr failed (info {info})")
    return w[:m.value], z[:m.value].T


@functools.cache
def _lapack_dsyevr():
    """LAPACKE's ``dsyevr`` from the OpenBLAS that numpy's linear algebra links
    (``numpy.libs/`` on Linux and Windows, ``numpy/.dylibs/`` on macOS), or
    ``None`` where numpy was built against another LAPACK or the library lacks
    the 64-bit-integer symbol. Looked up once, on the first Gram-route call;
    loading a library the process holds already adds no second copy."""
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    if deps.get("lapack", {}).get("name") != "scipy-openblas":
        return None
    pkg = Path(np.__file__).parent
    for path in sorted([*(pkg.parent / "numpy.libs").glob("libscipy_openblas*"),
                        *(pkg / ".dylibs").glob("libscipy_openblas*")]):
        try:
            fn = ctypes.CDLL(str(path)).scipy_LAPACKE_dsyevr64_
        except (OSError, AttributeError):
            continue
        i64, f64, ptr, char = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p, ctypes.c_char
        fn.restype = i64
        fn.argtypes = [ctypes.c_int, char, char, char, i64, ptr, i64, f64, f64, i64, i64, f64,
                       ptr, ptr, ptr, i64, ptr]
        return fn
    return None


def _cold_start(g: np.ndarray) -> np.ndarray:
    """The warm route's start without a last basis: a fixed-seed Gaussian block of
    ``2 * _WARM_EXTRA`` columns after two steps ``q = qr(g q)[0]``."""
    q = np.random.default_rng(0).standard_normal((g.shape[0], 2 * _WARM_EXTRA))
    for _ in range(2):
        q = np.linalg.qr(g @ q)[0]
    return q


def _warm_svt(g: np.ndarray, b: np.ndarray, tau: float, basis: SvtBasis):
    """The warm route of :func:`svt` on the Gram matrix ``g = b^T b`` from ``basis``:
    the kept singular values, their right vectors and the basis for the next call,
    or ``None`` when the kept rank cannot be certified. A dense certificate leaves
    ``b`` and the level it proved as ``basis.anchor``. ``g`` is not written."""
    tau_sq = tau * tau
    q = _cold_start(g) if basis.v is None else basis.v
    for _ in range(_WARM_MAX_STEPS):
        gq = g @ q
        theta, s = np.linalg.eigh(q.T @ gq)
        theta, s = theta[::-1], s[:, ::-1]
        v, gv = q @ s, gq @ s
        k = int(np.count_nonzero(theta > tau_sq))
        if k + _WARM_EXTRA > theta.size:
            return None
        res = np.linalg.norm(gv[:, :k] - v[:, :k] * theta[:k], axis=0)
        if np.all(res <= _WARM_RTOL * theta[0]):
            break
        q = np.linalg.qr(gv)[0]
    else:
        return None
    vk, theta_k = v[:, :k], theta[:k]
    kept = np.sqrt(theta_k), vk, v[:, :k + _WARM_EXTRA]
    if _chained(basis.anchor, b, k, tau):
        return kept
    # theta_{k+1} <= sigma_{k+1}^2, so no level at or below it can be proved.
    level_sq = 0.5 * (theta[k] + tau_sq)
    cert = (vk * theta_k) @ vk.T  # becomes c^2 I - G + V_k diag(theta_k) V_k^T
    cert -= g
    cert.reshape(-1)[:: cert.shape[0] + 1] += level_sq
    try:
        np.linalg.cholesky(cert)
    except np.linalg.LinAlgError:
        return None
    basis.anchor = _Anchor(b.copy(), math.sqrt(level_sq), k)
    return kept


def _chained(anchor: _Anchor | None, b: np.ndarray, k: int, tau: float) -> bool:
    """Whether ``anchor`` proves ``sigma_{k+1}(b) < tau`` by Weyl's inequality
    ``sigma_{k+1}(b) <= sigma_{k+1}(b_0) + ||b - b_0||_F``: it must hold the same
    kept rank ``k`` and leave ``c + ||b - b_0||_F < tau``."""
    return anchor is not None and anchor.k == k and anchor.c + float(np.linalg.norm(b - anchor.b)) < tau


def box_clip(a: np.ndarray, box: ParameterBox) -> np.ndarray:
    """Entrywise clamp into ``[box.lo, box.hi]`` (Euclidean projection onto the box)."""
    return np.clip(np.asarray(a, dtype=float), box.lo, box.hi)


@dataclass(frozen=True)
class DykstraInfo:
    """How a :func:`combined_prox` call ended: cycles run, whether the
    change fell below ``tol``, and the last change."""

    iterations: int
    converged: bool
    change: float


def combined_prox(
    a: np.ndarray,
    tau: float,
    box: ParameterBox,
    max_iters: int = 200,
    tol: float = 1e-10,
    full_output: bool = False,
):
    """Proximal operator of ``tau * nuclear_norm + indicator(box)``.

    Dykstra's alternation between singular value thresholding and box
    clipping, stopped when the Frobenius change between successive
    iterates drops below ``tol`` or after ``max_iters`` cycles. Every
    cycle ends on the clip, so the returned point is always feasible;
    non-convergence is reported through the info flag, with the best
    iterate returned.

    The estimator's solver does not call this: it handles the nuclear norm
    and the box as separate operators. It remains a standalone prox, e.g.
    the exact minimizer of a known-sampling Gaussian fit under a uniform
    scheme, which is ``combined_prox(y_sum / (n pi), lam / pi, box)``.
    """
    a = np.asarray(a, dtype=float)
    if tau == 0.0:
        x = box_clip(a, box)
        return (x, DykstraInfo(0, True, 0.0)) if full_output else x

    x = a
    p = np.zeros_like(a)
    q = np.zeros_like(a)
    change = math.inf
    converged = False
    it = 0
    for it in range(1, max_iters + 1):
        y = svt(x + p, tau)
        p = x + p - y
        x_new = box_clip(y + q, box)
        q = y + q - x_new
        change = float(np.linalg.norm(x_new - x))
        x = x_new
        if change < tol:
            converged = True
            break
    if full_output:
        return x, DykstraInfo(it, converged, change)
    return x


def _rank(s: np.ndarray):
    """How many of the descending singular values ``s`` exceed ``RANK_CUTOFF * s[0]``.

    A stack of rows gives an array with the count of each row.
    """
    counts = np.count_nonzero(s > RANK_CUTOFF * s[..., :1], axis=-1)
    return int(counts) if s.ndim == 1 else counts


def _singular_spans(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal bases of the left/right singular spans above the rank cutoff."""
    u, s, vt = np.linalg.svd(np.asarray(a, dtype=float), full_matrices=False)
    r = _rank(s)
    return u[:, :r], vt[:r, :].T


def proj_perp(x_ref: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Component of ``a`` orthogonal to the singular spans of ``x_ref``.

    Computes ``(I - U U^T) a (I - V V^T)`` with ``U``/``V`` the left/right
    singular bases of ``x_ref`` above the rank cutoff.
    """
    a = np.asarray(a, dtype=float)
    u, v = _singular_spans(x_ref)
    if u.shape[1] == 0:
        return a.copy()
    tmp = a - u @ (u.T @ a)
    return tmp - (tmp @ v) @ v.T


def proj_onto(x_ref: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Complement of :func:`proj_perp`; the two always sum to ``a`` exactly."""
    return np.asarray(a, dtype=float) - proj_perp(x_ref, a)


def numerical_rank(a: np.ndarray):
    """Rank with singular values at or below ``RANK_CUTOFF * sigma_max`` treated as zero.

    A stack of matrices gives an array with the rank of each matrix.
    """
    return _rank(np.linalg.svd(np.asarray(a, dtype=float), compute_uv=False))
