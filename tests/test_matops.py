import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from expmc import (
    ParameterBox,
    box_clip,
    combined_prox,
    nuclear_norm,
    numerical_rank,
    operator_norm,
    proj_onto,
    proj_perp,
    schatten_norm,
    svt,
)
from expmc import matops
from expmc.matops import SvtBasis


def random_low_rank(rng, m1, m2, r):
    return rng.standard_normal((m1, r)) @ rng.standard_normal((r, m2))


def prox_objective(z, a, tau):
    return 0.5 * np.linalg.norm(z - a) ** 2 + tau * nuclear_norm(z)


def with_singular_values(rng, m1, m2, s):
    """An m1 x m2 matrix with singular values ``s`` and random singular vectors."""
    u, _ = np.linalg.qr(rng.standard_normal((m1, len(s))))
    v, _ = np.linalg.qr(rng.standard_normal((m2, len(s))))
    return (u * s) @ v.T


def svd_threshold(a, tau):
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    return (u * np.maximum(s - tau, 0.0)) @ vt


class TestSchattenNorm:
    def test_diagonal_examples(self):
        a = np.diag([3.0, 4.0])
        assert schatten_norm(a, 1) == pytest.approx(7.0, rel=1e-12)
        assert schatten_norm(a, 2) == pytest.approx(5.0, rel=1e-12)
        assert schatten_norm(a, math.inf) == pytest.approx(4.0, rel=1e-12)

    def test_zero_matrix(self):
        for q in (1, 2, 3.5, math.inf):
            assert schatten_norm(np.zeros((3, 5)), q) == 0.0

    def test_q2_matches_entrywise_root_sum_of_squares(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((6, 4))
        assert schatten_norm(a, 2) == pytest.approx(math.sqrt((a * a).sum()), abs=1e-10)

    def test_monotone_in_q(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            a = rng.standard_normal((5, 7))
            n1, n2, ninf = (schatten_norm(a, q) for q in (1, 2, math.inf))
            assert n1 >= n2 - 1e-12 and n2 >= ninf - 1e-12
            assert n1 > n2 and n2 > ninf  # a.s. rank > 1

    def test_rank_one_equalities(self):
        rng = np.random.default_rng(2)
        a = np.outer(rng.standard_normal(4), rng.standard_normal(6))
        n1, n2, ninf = (schatten_norm(a, q) for q in (1, 2, math.inf))
        assert n1 == pytest.approx(n2, rel=1e-12) and n2 == pytest.approx(ninf, rel=1e-12)

    def test_q_below_one_rejected(self):
        with pytest.raises(ValueError):
            schatten_norm(np.eye(2), 0.5)


class TestOperatorNorm:
    @staticmethod
    def assert_matches_svd(a):
        ref = np.linalg.svd(a, compute_uv=False)[0]
        assert abs(operator_norm(a) - ref) <= 1e-14 * ref

    @pytest.mark.parametrize("shape", [(40, 7), (7, 40), (1, 25), (25, 1), (1, 1), (300, 300)])
    def test_matches_svd(self, shape):
        rng = np.random.default_rng(sum(shape))
        for _ in range(3):
            self.assert_matches_svd(rng.standard_normal(shape))

    def test_rank_one_matches_svd(self):
        rng = np.random.default_rng(3)
        self.assert_matches_svd(np.outer(rng.standard_normal(12), rng.standard_normal(9)))

    @pytest.mark.parametrize("exponent", [600, -600])
    def test_extreme_scales_neither_overflow_nor_underflow(self, exponent):
        rng = np.random.default_rng(4)
        base = rng.standard_normal((20, 30))
        a = np.ldexp(base, exponent)
        assert np.linalg.svd(base, compute_uv=False)[0] > 0
        self.assert_matches_svd(a)
        # The power-of-two scaling is exact: the scaled norm is the base norm, scaled.
        assert operator_norm(a) == math.ldexp(operator_norm(base), exponent)

    @pytest.mark.parametrize("shape", [(3, 5), (0, 0), (0, 4), (4, 0)])
    def test_zero_and_empty_give_zero(self, shape):
        assert operator_norm(np.zeros(shape)) == 0.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_rejected(self, bad):
        a = np.ones((4, 3))
        a[2, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            operator_norm(a)

    def test_schatten_inf_is_operator_norm(self):
        rng = np.random.default_rng(5)
        for shape in [(6, 4), (4, 6), (50, 50)]:
            a = rng.standard_normal(shape)
            assert schatten_norm(a, math.inf) == operator_norm(a)


class TestSVT:
    def test_diagonal_soft_threshold(self):
        out = svt(np.diag([3.0, 1.0]), 1.0)
        assert np.allclose(out, np.diag([2.0, 0.0]), atol=1e-12)

    def test_tau_zero_identity(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((4, 5))
        assert np.array_equal(svt(a, 0.0), a)

    def test_matches_independent_svd_oracle(self):
        # Re-derive the soft-threshold result from scipy's SVD.
        from scipy.linalg import svd as scipy_svd

        rng = np.random.default_rng(4)
        a = rng.standard_normal((5, 5))
        tau = 0.3
        u, s, vt = scipy_svd(a)
        expected = u @ np.diag(np.maximum(s - tau, 0.0)) @ vt
        assert np.allclose(svt(a, tau), expected, atol=1e-10)

    def test_prox_optimality_against_random_points(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((6, 4))
        tau = 0.7
        star = svt(a, tau)
        best = prox_objective(star, a, tau)
        for _ in range(100):
            z = star + rng.standard_normal((6, 4)) * rng.uniform(0.01, 2.0)
            assert best <= prox_objective(z, a, tau) + 1e-9

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            svt(np.array([[np.nan, 0.0]]), 1.0)
        for tau in (-0.1, math.nan):
            with pytest.raises(ValueError):
                svt(np.eye(2), tau)

    @staticmethod
    def count_svds(monkeypatch):
        calls = []
        svd = np.linalg.svd

        def counting_svd(*args, **kwargs):
            calls.append(1)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        return calls

    @pytest.mark.parametrize("shape", [(40, 40), (40, 25), (25, 40)], ids=["square", "tall", "wide"])
    @pytest.mark.parametrize("kept", ["none", "one", "half", "all"])
    def test_gram_route_matches_svd(self, monkeypatch, shape, kept):
        rng = np.random.default_rng([6, *shape])
        tau = 0.7
        n = min(shape)
        k = {"none": 0, "one": 1, "half": n // 2, "all": n}[kept]
        s = tau * np.concatenate([np.linspace(3.0, 1.1, k), rng.uniform(0.0, 0.9, n - k)])
        a = with_singular_values(rng, *shape, s)
        ref = svd_threshold(a, tau)
        calls = self.count_svds(monkeypatch)
        out = svt(a, tau)
        assert not calls
        assert out.shape == shape
        if k == 0:
            assert np.array_equal(out, np.zeros(shape))
        else:
            assert np.linalg.norm(out - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_zero_output_below_the_threshold(self, monkeypatch):
        a = with_singular_values(np.random.default_rng(7), 30, 20, [2.0, 1.0, 0.5])
        calls = self.count_svds(monkeypatch)
        assert np.array_equal(svt(a, 2.5), np.zeros((30, 20)))
        assert np.array_equal(svt(a.T, 2.0 * (1.0 + 1e-9)), np.zeros((20, 30)))
        assert np.array_equal(svt(np.zeros((30, 20)), 1.0), np.zeros((30, 20)))
        assert not calls

    @pytest.mark.parametrize("shape", [(30, 30), (30, 20), (20, 30)], ids=["square", "tall", "wide"])
    def test_pair_straddling_the_threshold(self, shape):
        # Singular values tau (1 +- 5e-9): only the upper one survives, as a
        # direction of length 5e-9 tau that the reference keeps too.
        tau = 1.3
        s = tau * np.array([3.0, 2.0, 1.0 + 5e-9, 1.0 - 5e-9, 0.5, 0.2])
        a = with_singular_values(np.random.default_rng(8), *shape, s)
        ref = svd_threshold(a, tau)
        out = svt(a, tau)
        assert np.linalg.norm(out - ref) <= 1e-12 * np.linalg.norm(ref)
        kept = np.linalg.svd(out, compute_uv=False)
        assert np.allclose(kept[:4], tau * np.array([2.0, 1.0, 5e-9, 0.0]), rtol=0.0, atol=1e-13)

    def test_full_svd_only_above_the_guard(self, monkeypatch):
        # ||a||_F is exactly 100: at tau = 1 the Gram route applies, one
        # double below it the full SVD does.
        a = np.array([[60.0, 0.0], [0.0, 80.0], [0.0, 0.0]])
        calls = self.count_svds(monkeypatch)
        assert np.allclose(svt(a, 1.0), np.maximum(a - 1.0, 0.0), rtol=0.0, atol=1e-12)
        assert len(calls) == 0
        tau = np.nextafter(1.0, 0.0)
        assert np.allclose(svt(a, tau), np.maximum(a - tau, 0.0), rtol=0.0, atol=1e-12)
        assert len(calls) == 1


class TestWarmSVT:
    """The warm route of ``svt``: subspace iteration from the last call's basis,
    certified to keep the Gram route's rank, or the Gram route itself."""

    @staticmethod
    def kept_rank(a, tau):
        return int(np.count_nonzero(np.linalg.svd(a, compute_uv=False) > tau))

    @staticmethod
    def count_calls(monkeypatch, name):
        """Count calls of ``np.linalg.<name>``, each logged with its input's order."""
        calls = []
        fn = getattr(np.linalg, name)

        def counting(a, *args, **kwargs):
            calls.append(a.shape[-1])
            return fn(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
        return calls

    @staticmethod
    def count_grams(monkeypatch):
        """Count the Gram route's decompositions, each logged with its order."""
        calls = []
        fn = matops._gram_eig

        def counting(g, *args):
            calls.append(g.shape[0])
            return fn(g, *args)

        monkeypatch.setattr(matops, "_gram_eig", counting)
        return calls

    @staticmethod
    def spectrum(rng, m1, m2, k, tau):
        """Orthonormal factors and singular values: ``k`` of them in ``[1.5, 4] tau``,
        the rest in ``[0, 0.8] tau``."""
        n = min(m1, m2)
        s = tau * np.concatenate([np.linspace(4.0, 1.5, k), rng.uniform(0.0, 0.8, n - k)])
        u, _ = np.linalg.qr(rng.standard_normal((m1, n)))
        v, _ = np.linalg.qr(rng.standard_normal((m2, n)))
        return u, s, v

    @pytest.mark.parametrize("k", [3, 20])
    @pytest.mark.parametrize("shape", [(200, 200), (300, 200), (200, 300)])
    def test_sequence_agrees_with_the_gram_route(self, monkeypatch, shape, k):
        rng = np.random.default_rng([9, *shape, k])
        tau = 0.5
        u, s, v = self.spectrum(rng, *shape, k, tau)
        a = (u * s) @ v.T
        basis = SvtBasis()
        eighs = self.count_calls(monkeypatch, "eigh")
        grams = self.count_grams(monkeypatch)
        for step in range(5):
            # A random walk of operator norm about 0.02 tau per step keeps the gap at tau.
            a = a + 0.02 * tau / 34.0 * rng.standard_normal(shape)
            ref = svt(a, tau)
            n_eighs, n_grams = len(eighs), len(grams)
            out = svt(a, tau, basis)
            assert np.linalg.norm(out - ref) <= 1e-11 * np.linalg.norm(ref)
            assert basis.v.shape == (min(shape), self.kept_rank(a, tau) + 5)
            # The first call starts from the cold block of 10 columns, which
            # certifies 3 kept values; at 20 it gives way to the Gram route.
            if step == 0 and k > 5:
                assert grams[n_grams:] == [min(shape)]
            else:
                assert grams[n_grams:] == [] and max(eighs[n_eighs:]) == (10 if step == 0 else k + 5)

    @pytest.mark.parametrize(
        "which", ["orthogonal_to_the_top", "narrower_than_the_rank", "missing_kept_vectors", "out_of_steps"]
    )
    def test_uncertified_basis_falls_back_to_the_gram_route(self, monkeypatch, which):
        rng = np.random.default_rng(10)
        tau = 0.5
        k = {"orthogonal_to_the_top": 3, "narrower_than_the_rank": 20, "missing_kept_vectors": 6,
             "out_of_steps": 3}[which]
        u, s, v = self.spectrum(rng, 300, 300, k, tau)
        a = (u * s) @ v.T
        stale = {
            # right singular vectors 2..9: the top one is missing, 2 are kept and 6 are not
            "orthogonal_to_the_top": v[:, 1:9],
            # the 8 largest of 20 kept directions
            "narrower_than_the_rank": v[:, :8],
            # 3 of the 6 kept directions and 5 that are not kept
            "missing_kept_vectors": v[:, [0, 1, 2, 10, 11, 12, 13, 14]],
            # the 3 kept directions and 5 more, turned off them: certified, but not in one step
            "out_of_steps": np.linalg.qr(v[:, :8] + 0.1 * rng.standard_normal((300, 8)))[0],
        }[which]
        choleskys = self.count_calls(monkeypatch, "cholesky")
        grams = self.count_grams(monkeypatch)
        if which == "out_of_steps":
            svt(a, tau, SvtBasis(stale.copy()))
            assert not grams and len(choleskys) == 1  # certified within the default steps
            monkeypatch.setattr(matops, "_WARM_MAX_STEPS", 1)
            choleskys.clear()
        basis = SvtBasis(stale.copy())
        out = svt(a, tau, basis)
        # The warm route gave up and the Gram route decomposed the Gram matrix once.
        assert grams == [300]
        # The stale bases that converge on their own span reach the certificate
        # and fail it; the narrow one has no Ritz value below tau^2 to spare,
        # and the one out of steps never converges.
        assert len(choleskys) == (1 if which in ("orthogonal_to_the_top", "missing_kept_vectors") else 0)
        # Without a basis, svt takes the Gram route, which gives the same output on
        # eigh, the fallback's eigensolver; the basis left is its top k + 5 eigenvectors.
        assert np.array_equal(out, without_dsyevr(monkeypatch, lambda: svt(a, tau)))
        assert np.array_equal(basis.v, matops._gram_eig(a.T @ a, tau * tau, 5)[2])
        assert basis.v.shape == (300, k + 5)

    @pytest.mark.parametrize("k", [3, 20])
    @pytest.mark.parametrize("shape", [(200, 200), (300, 200), (200, 300)], ids=["square", "tall", "wide"])
    def test_above_the_guard_takes_the_full_svd(self, monkeypatch, shape, k):
        rng = np.random.default_rng([11, *shape, k])
        tau = 1.0
        u, s, v = self.spectrum(rng, *shape, k, tau)
        s[:k] *= 100.0  # the kept values in [150, 400] tau put ||a||_F past 100 tau
        a = (u * s) @ v.T
        assert np.linalg.norm(a) > 100.0 * tau and self.kept_rank(a, tau) == k
        basis = SvtBasis((u if shape[0] < shape[1] else v)[:, :8].copy())
        before = basis.v
        calls = TestSVT.count_svds(monkeypatch)
        out = svt(a, tau, basis)
        assert len(calls) == 1
        assert basis.v is before
        assert np.linalg.norm(out - svd_threshold(a, tau)) <= 1e-12 * np.linalg.norm(out)

    @pytest.mark.parametrize("route", ["gram", "full", "warm", "cold", "tau_zero"])
    def test_basis_holds_the_thresholded_spectrum(self, route):
        rng = np.random.default_rng(13)
        tau = 0.5
        m = 300 if route in ("warm", "cold") else 40
        u, s, v = self.spectrum(rng, m, m - 10, 3, tau)
        if route == "full":
            s[:3] *= 100.0  # past the Gram guard
        a = (u * s) @ v.T
        basis = SvtBasis(v[:, :8].copy() if route == "warm" else None)
        out = svt(a, 0.0 if route == "tau_zero" else tau, basis)
        if route == "tau_zero":
            assert basis.shrunk is None
            return
        assert basis.shrunk.shape == (3,)
        assert np.allclose(np.sort(basis.shrunk)[::-1], s[:3] - tau, rtol=1e-12, atol=0.0)
        assert float(basis.shrunk.sum()) == pytest.approx(nuclear_norm(out), rel=1e-12)

    def test_cold_call_keeping_more_than_the_block_certifies_falls_back(self, monkeypatch):
        # The cold block has 10 columns, so it certifies at most 5 kept values; at 8
        # the first call decomposes the Gram matrix once, as svt without a basis does.
        rng = np.random.default_rng(14)
        tau = 0.5
        u, s, v = self.spectrum(rng, 300, 300, 8, tau)
        a = (u * s) @ v.T
        grams = self.count_grams(monkeypatch)
        basis = SvtBasis()
        out = svt(a, tau, basis)
        assert grams == [300]
        ref = svt(a, tau)
        assert np.linalg.norm(out - ref) <= 1e-11 * np.linalg.norm(ref)
        assert basis.v.shape == (300, 8 + 5) and self.kept_rank(a, tau) == 8

    def anchored(self, monkeypatch, seed, near=False):
        """A 300x300 input whose first warm call certifies 3 kept values densely, its
        basis, and counters of later ``cholesky`` calls and Gram-route decompositions. ``near`` puts
        the third value at 1.05 tau and the unkept ones in ``[0, 0.3] tau``."""
        rng = np.random.default_rng(seed)
        tau, k = 0.5, 3
        u, s, v = self.spectrum(rng, 300, 300, k, tau)
        if near:
            s[2] = 1.05 * tau
            s[3:] *= 0.3 / 0.8
        a = (u * s) @ v.T
        basis = SvtBasis()
        assert basis.anchor is None  # a fresh basis cannot chain
        choleskys = self.count_calls(monkeypatch, "cholesky")
        grams = self.count_grams(monkeypatch)
        svt(a, tau, basis)
        assert len(choleskys) == 1 and not grams
        anchor = basis.anchor
        # The certificate proved the level halfway between the first unkept Ritz
        # value and tau^2, above sigma_{k+1} and below tau.
        assert anchor.k == k and np.array_equal(anchor.b, a)
        assert s[k] < anchor.c < tau
        choleskys.clear()
        return rng, tau, u, s, v, a, basis, choleskys, grams

    def test_chained_calls_factor_nothing(self, monkeypatch):
        rng, tau, _, _, _, a, basis, choleskys, grams = self.anchored(monkeypatch, 15)
        anchor = basis.anchor
        for _ in range(4):
            # Steps of Frobenius norm 0.01 tau leave the drift inside tau - c.
            step = rng.standard_normal(a.shape)
            a = a + 0.01 * tau * step / np.linalg.norm(step)
            assert anchor.c + np.linalg.norm(a - anchor.b) < tau
            out = svt(a, tau, basis)
            ref = svt(a, tau)
            assert np.linalg.norm(out - ref) <= 1e-11 * np.linalg.norm(ref)
            assert basis.shrunk.size == self.kept_rank(a, tau) == 3
            assert basis.anchor is anchor
        assert not choleskys and grams == [300] * 4  # the four reference calls

    def test_drift_past_the_budget_certifies_densely(self, monkeypatch):
        rng, tau, _, _, _, a, basis, choleskys, grams = self.anchored(monkeypatch, 16)
        c = basis.anchor.c
        # Frobenius norm 2 (tau - c), spread over every entry: the operator norm
        # moves by about a tenth of that, and the kept rank stays 3.
        step = rng.standard_normal(a.shape)
        a = a + 2.0 * (tau - c) * step / np.linalg.norm(step)
        assert self.kept_rank(a, tau) == 3
        out = svt(a, tau, basis)
        assert len(choleskys) == 1 and not grams
        assert np.array_equal(basis.anchor.b, a) and basis.anchor.k == 3
        ref = svt(a, tau)
        assert np.linalg.norm(out - ref) <= 1e-11 * np.linalg.norm(ref)

    def test_kept_value_pushed_below_tau_inside_the_budget_certifies_densely(self, monkeypatch):
        # The third kept value moves from 1.05 tau to just below tau, inside the
        # budget, and the kept rank falls to 2. The anchor proves only
        # sigma_4 < tau, not sigma_3 < tau, so the call must not chain: a chain
        # that admitted any kept rank that did not grow would keep 2 unproved.
        _, tau, u, s, v, a, basis, choleskys, grams = self.anchored(monkeypatch, 17, near=True)
        s[2] = 0.99 * tau
        a2 = (u * s) @ v.T
        assert self.kept_rank(a2, tau) == 2
        assert basis.anchor.c + np.linalg.norm(a2 - a) < tau
        out = svt(a2, tau, basis)
        assert len(choleskys) == 1 and not grams
        assert basis.shrunk.size == 2 and basis.anchor.k == 2 and np.array_equal(basis.anchor.b, a2)
        ref = svt(a2, tau)
        assert np.linalg.norm(out - ref) <= 1e-11 * np.linalg.norm(ref)

    def test_below_the_floor_ignores_the_basis(self, monkeypatch):
        rng = np.random.default_rng(12)
        u, s, v = self.spectrum(rng, 199, 300, 3, 0.5)
        a = (u * s) @ v.T
        basis = SvtBasis()
        for _ in range(2):
            assert np.array_equal(svt(a, 0.5, basis), svt(a, 0.5))
        assert basis.v is None


def without_dsyevr(monkeypatch, fn):
    """``fn()`` with the Gram route on ``np.linalg.eigh``, as where numpy links no
    OpenBLAS with the 64-bit-integer ``dsyevr``."""
    with monkeypatch.context() as m:
        m.setattr(matops, "_lapack_dsyevr", lambda: None)
        return fn()


needs_dsyevr = pytest.mark.skipif(matops._lapack_dsyevr() is None,
                                  reason="numpy links no OpenBLAS with the 64-bit-integer dsyevr")


class TestGramEig:
    """The Gram route's eigensolver: LAPACK's ``dsyevr`` where numpy links its
    bundled OpenBLAS, ``np.linalg.eigh`` elsewhere. Both routes keep the same
    rank and agree to 1e-12 relative."""

    @staticmethod
    def agree(monkeypatch, a, tau, same_rank=True):
        """``svt(a, tau)`` on both routes: the outputs agree, and so do the kept
        ranks when ``same_rank``. Returns the kept rank of the dsyevr route."""

        def run():
            basis = SvtBasis()
            return svt(a, tau, basis), basis.shrunk.size

        fast, k_fast = run()
        slow, k_slow = without_dsyevr(monkeypatch, run)
        assert k_fast == k_slow or not same_rank
        assert np.linalg.norm(fast - slow) <= 1e-12 * np.linalg.norm(slow)
        return k_fast

    @needs_dsyevr
    def test_equal_top_singular_values(self, monkeypatch):
        # A flat truth, as gen_truth draws it, on three column blocks of 20, with
        # orthogonal sign patterns (Hadamard columns) on the rows: three equal
        # singular values sqrt(64 * 20) * 0.95.
        h = np.array([[1.0]])
        for _ in range(6):
            h = np.block([[h, h], [h, -h]])
        signs = np.random.default_rng(18).choice([-1.0, 1.0], (3, 20))
        x = 0.95 * np.hstack([np.outer(h[:, j + 1], signs[j]) for j in range(3)])
        s = np.linalg.svd(x, compute_uv=False)
        assert np.allclose(s[:3], 0.95 * math.sqrt(64 * 20), rtol=1e-14, atol=0.0) and s[3] < 1e-12 * s[0]
        assert self.agree(monkeypatch, x, 0.5 * s[0]) == 3
        noise = 0.01 * np.random.default_rng(19).standard_normal(x.shape)
        assert self.agree(monkeypatch, x + noise, 0.5 * s[0]) == 3

    @needs_dsyevr
    @pytest.mark.parametrize("shape", [(40, 30), (30, 40)], ids=["tall", "wide"])
    def test_values_within_ulps_of_tau(self, monkeypatch, shape):
        # Signed permutations make the Gram matrix diagonal, so both routes see
        # the squares exactly: the values one and two ulps above tau are kept.
        tau = 0.7
        near = [tau * (1.0 + j * 2.0**-52) for j in (2, 1, -1, -2)]
        s = np.array([3.0 * tau, 2.0 * tau, *near, *np.linspace(0.5, 0.0, 24) * tau])
        rng = np.random.default_rng(20)
        p = np.eye(shape[0])[rng.permutation(shape[0])][:, :30] * rng.choice([-1.0, 1.0], 30)
        q = np.eye(shape[1])[rng.permutation(shape[1])][:, :30] * rng.choice([-1.0, 1.0], 30)
        a = (p * s) @ q.T
        assert self.agree(monkeypatch, a, tau) == 2 + int(np.count_nonzero(np.square(near) > tau * tau))
        # The same spectrum turned by random orthogonal factors: each route's
        # rounding of the squares, a few ulps of tau**2, may decide the near
        # values differently, but they add at most 4 ulps of tau to the output.
        assert self.agree(monkeypatch, with_singular_values(rng, *shape, s), tau, same_rank=False) in range(2, 7)

    @needs_dsyevr
    @pytest.mark.parametrize("shape", [(40, 25), (25, 40), (1, 30), (30, 1)], ids=["tall", "wide", "row", "column"])
    @pytest.mark.parametrize("kept", ["none", "some", "all"])
    def test_shapes(self, monkeypatch, shape, kept):
        rng = np.random.default_rng([21, *shape])
        n, tau = min(shape), 0.6
        k = {"none": 0, "some": min(3, n), "all": n}[kept]
        s = tau * np.concatenate([np.linspace(3.0, 1.2, k), rng.uniform(0.0, 0.9, n - k)])
        a = with_singular_values(rng, *shape, s)
        if k == 0:
            assert np.array_equal(svt(a, tau), np.zeros(shape))
            assert np.array_equal(without_dsyevr(monkeypatch, lambda: svt(a, tau)), np.zeros(shape))
        else:
            assert self.agree(monkeypatch, a, tau) == k

    @needs_dsyevr
    @pytest.mark.parametrize("k", [0, 3, 57, 60])
    def test_extra_vectors_below_the_level(self, monkeypatch, k):
        # The top k + 5 eigenvectors (fewer where the order runs out), descending,
        # spanning what eigh's do.
        rng = np.random.default_rng([22, k])
        w_true = np.concatenate([rng.uniform(0.0, 0.8, 60 - k), np.linspace(1.5, 4.0, k)])
        u = np.linalg.qr(rng.standard_normal((60, 60)))[0]
        g = (u * w_true) @ u.T
        g = 0.5 * (g + g.T)
        before = g.copy()
        fast = matops._gram_eig(g, 1.0, 5)
        slow = without_dsyevr(monkeypatch, lambda: matops._gram_eig(g, 1.0, 5))
        assert np.array_equal(g, before)
        (w, v, top), (w0, v0, top0) = fast, slow
        assert w.size == w0.size == k and v.shape == v0.shape == (60, k)
        assert np.allclose(w, w0, rtol=1e-12, atol=0.0) and np.all(np.diff(w) >= 0.0)
        assert np.allclose(v @ v.T, v0 @ v0.T, rtol=0.0, atol=1e-12)
        assert top.shape == top0.shape == (60, min(k + 5, 60))
        assert np.allclose(top.T @ top, np.eye(top.shape[1]), rtol=0.0, atol=1e-12)
        assert np.allclose(top @ top.T, top0 @ top0.T, rtol=0.0, atol=1e-12)
        rayleigh = np.einsum("ij,ij->j", top, g @ top)
        assert np.all(np.diff(rayleigh) <= 0.0)
        assert matops._gram_eig(g, 1.0, 0)[2] is None

    def test_extra_vectors_from_one_decomposition_in_both_orders(self, monkeypatch):
        # With extra > 0 one eigh gives the kept pairs ascending and the basis
        # descending; each pair matches an independent eigh's to 1e-12.
        rng = np.random.default_rng(24)
        w_true = np.concatenate([np.linspace(0.0, 0.8, 52), np.linspace(1.5, 4.0, 8)])
        u = np.linalg.qr(rng.standard_normal((60, 60)))[0]
        g = (u * w_true) @ u.T
        g = 0.5 * (g + g.T)
        w0, v0 = np.linalg.eigh(g)
        calls, eigh = [], np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a.shape) or eigh(a))
        monkeypatch.setattr(matops, "_dsyevr", lambda *args: pytest.fail("dsyevr called"))
        w, v, top = matops._gram_eig(g, 1.0, 5)
        assert calls == [(60, 60)]
        assert np.allclose(w, w0[-8:], rtol=1e-12, atol=0.0)
        for got, ref in ((v, v0[:, -8:]), (top, v0[:, ::-1][:, :13])):
            assert got.shape == ref.shape
            assert np.allclose(got * np.sign(np.einsum("ij,ij->j", got, ref)), ref, rtol=0.0, atol=1e-12)

    @needs_dsyevr
    def test_warm_fallback_basis_on_both_routes(self, monkeypatch):
        # Eight kept values: the cold block certifies at most five, so the first
        # warm call decomposes the Gram matrix and leaves its top 13 vectors.
        rng = np.random.default_rng(23)
        a = with_singular_values(rng, 300, 300, np.concatenate([np.linspace(2.0, 0.75, 8), rng.uniform(0, 0.4, 292)]))

        def run():
            basis = SvtBasis()
            return svt(a, 0.5, basis), basis.v

        (out, v), (out0, v0) = run(), without_dsyevr(monkeypatch, run)
        assert np.linalg.norm(out - out0) <= 1e-12 * np.linalg.norm(out0)
        assert v.shape == v0.shape == (300, 13)
        assert np.allclose(v @ v.T, v0 @ v0.T, rtol=0.0, atol=1e-12)

    def test_failed_decomposition_is_a_linalg_error(self, monkeypatch):
        monkeypatch.setattr(matops, "_lapack_dsyevr", lambda: lambda *args: 3)  # info 3: not converged
        with pytest.raises(np.linalg.LinAlgError, match="info 3"):
            svt(np.eye(4), 0.5)

    @staticmethod
    def fresh_process(code):
        """The lines ``code`` prints, run in a new interpreter that imports this expmc."""
        env = {**os.environ, "PYTHONPATH": str(Path(matops.__file__).parents[1])}
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.splitlines()

    def test_import_binds_nothing_and_the_first_call_loads_no_module(self):
        out = self.fresh_process(
            "import sys, numpy as np, expmc\n"
            "from expmc import matops\n"
            "print(matops._lapack_dsyevr.cache_info().currsize)\n"
            "before = set(sys.modules)\n"
            "expmc.svt(np.eye(3), 0.5)\n"
            "print(matops._lapack_dsyevr.cache_info().currsize)\n"
            "print(sorted(set(sys.modules) - before))\n"
        )
        assert out == ["0", "1", "[]"]

    @pytest.mark.skipif(np.show_config(mode="dicts")["Build Dependencies"]["lapack"].get("name") != "scipy-openblas",
                        reason="numpy does not link scipy-openblas")
    def test_binding_active_on_one_copy_of_the_library(self):
        # The binding is made, and the OpenBLAS it calls is the one numpy
        # loaded: one file mapped, not a second copy.
        if not Path("/proc/self/maps").exists():
            pytest.skip("no /proc/self/maps")
        out = self.fresh_process(
            "import numpy as np, expmc\n"
            "from expmc import matops\n"
            "expmc.svt(np.eye(3), 0.5)\n"
            "print(matops.gram_eigensolver())\n"
            "maps = open('/proc/self/maps').read().splitlines()\n"
            "print(len({line.split()[-1] for line in maps if 'scipy_openblas' in line}))\n"
        )
        assert out == ["dsyevr", "1"]


class TestBoxClip:
    def test_example(self):
        out = box_clip(np.array([[2.0, -3.0]]), ParameterBox(-1.0, 1.0))
        assert np.array_equal(out, np.array([[1.0, -1.0]]))

    def test_identity_inside(self):
        a = np.array([[0.2, -0.7]])
        assert np.array_equal(box_clip(a, ParameterBox(-1.0, 1.0)), a)

    def test_idempotent(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((4, 4)) * 3
        box = ParameterBox(-0.5, 1.2)
        once = box_clip(a, box)
        assert np.array_equal(box_clip(once, box), once)


class TestCombinedProx:
    def test_tau_zero_is_clip(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((4, 6)) * 2
        box = ParameterBox(-0.5, 0.5)
        assert np.array_equal(combined_prox(a, 0.0, box), box_clip(a, box))

    def test_inactive_box_is_svt(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal((5, 5))
        out = combined_prox(a, 0.4, ParameterBox(-1e12, 1e12))
        assert np.allclose(out, svt(a, 0.4), atol=1e-10)

    def test_diagonal_example_box_inactive(self):
        out = combined_prox(np.diag([3.0, 1.0]), 1.0, ParameterBox(-10.0, 10.0))
        assert np.allclose(out, np.diag([2.0, 0.0]), atol=1e-10)

    def test_feasible_output(self):
        rng = np.random.default_rng(9)
        box = ParameterBox(-0.3, 0.3)
        for _ in range(10):
            out, info = combined_prox(rng.standard_normal((6, 6)), 0.2, box, full_output=True)
            assert box.contains(out, tol=1e-15)
            assert info.converged

    def test_prox_optimality_with_active_box(self):
        # Against random feasible competitors on the combined objective.
        rng = np.random.default_rng(10)
        box = ParameterBox(-0.4, 0.4)
        a = rng.standard_normal((5, 5)) * 1.5
        tau = 0.3
        star = combined_prox(a, tau, box)
        f_star = prox_objective(star, a, tau)
        for _ in range(200):
            z = box_clip(star + rng.standard_normal((5, 5)) * rng.uniform(0.01, 1.0), box)
            assert f_star <= prox_objective(z, a, tau) + 1e-9

    def test_against_cvxpy_oracle(self):
        cp = pytest.importorskip("cvxpy")
        rng = np.random.default_rng(11)
        a = rng.standard_normal((6, 5)) * 1.3
        tau, box = 0.5, ParameterBox(-0.6, 0.9)
        z = cp.Variable((6, 5))
        prob = cp.Problem(
            cp.Minimize(0.5 * cp.sum_squares(z - a) + tau * cp.normNuc(z)),
            [z >= box.lo, z <= box.hi],
        )
        prob.solve(solver=cp.SCS, eps=1e-9)
        ours = combined_prox(a, tau, box)
        assert np.allclose(ours, z.value, atol=5e-6)

    def test_nonconvergence_flagged(self):
        rng = np.random.default_rng(12)
        a = rng.standard_normal((6, 6)) * 2
        _, info = combined_prox(a, 0.5, ParameterBox(-0.2, 0.2), max_iters=1, full_output=True)
        assert not info.converged


class TestProjections:
    def test_zero_reference(self):
        rng = np.random.default_rng(13)
        a = rng.standard_normal((4, 5))
        assert np.array_equal(proj_perp(np.zeros((4, 5)), a), a)
        assert np.allclose(proj_onto(np.zeros((4, 5)), a), 0.0)

    def test_full_rank_reference(self):
        rng = np.random.default_rng(14)
        x = rng.standard_normal((4, 4))
        a = rng.standard_normal((4, 4))
        assert np.allclose(proj_perp(x, a), 0.0, atol=1e-12)

    def test_sum_identity_and_idempotence(self):
        rng = np.random.default_rng(15)
        x = random_low_rank(rng, 6, 5, 2)
        a = rng.standard_normal((6, 5))
        perp = proj_perp(x, a)
        onto = proj_onto(x, a)
        assert np.allclose(perp + onto, a, atol=1e-12)
        assert np.allclose(proj_perp(x, perp), perp, atol=1e-12)
        assert np.allclose(proj_onto(x, onto), onto, atol=1e-12)

    def test_reference_annihilated(self):
        rng = np.random.default_rng(16)
        x = random_low_rank(rng, 6, 6, 3)
        assert np.allclose(proj_perp(x, x), 0.0, atol=1e-10)

    def test_orthogonality(self):
        rng = np.random.default_rng(17)
        x = random_low_rank(rng, 7, 5, 2)
        a = rng.standard_normal((7, 5))
        assert abs(np.sum(proj_perp(x, a) * proj_onto(x, a))) <= 1e-10


class TestSpanAlgebraIdentities:
    def test_additive_nuclear_norm_on_orthogonal_spans(self):
        rng = np.random.default_rng(18)
        for _ in range(50):
            x = random_low_rank(rng, 8, 6, int(rng.integers(1, 5)))
            a = rng.standard_normal((8, 6))
            perp = proj_perp(x, a)
            lhs = nuclear_norm(x + perp)
            rhs = nuclear_norm(x) + nuclear_norm(perp)
            assert abs(lhs - rhs) <= 1e-9

    def test_onto_bounded_by_rank_times_frobenius(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            r = int(rng.integers(1, 5))
            x = random_low_rank(rng, 8, 6, r)
            a = rng.standard_normal((8, 6))
            assert nuclear_norm(proj_onto(x, a)) <= math.sqrt(2 * r) * schatten_norm(a, 2) + 1e-9

    def test_nuclear_difference_bounded_by_onto(self):
        rng = np.random.default_rng(20)
        for _ in range(50):
            x = random_low_rank(rng, 8, 6, int(rng.integers(1, 5)))
            a = rng.standard_normal((8, 6))
            lhs = nuclear_norm(x) - nuclear_norm(a)
            assert lhs <= nuclear_norm(proj_onto(x, a - x)) + 1e-9


class TestNumericalRank:
    def test_constructed_ranks(self):
        rng = np.random.default_rng(21)
        for r in (0, 1, 3):
            a = random_low_rank(rng, 7, 6, r) if r else np.zeros((7, 6))
            assert numerical_rank(a) == r

    def test_stack_gives_each_matrix_its_rank(self):
        rng = np.random.default_rng(22)
        stack = np.stack([random_low_rank(rng, 7, 6, r) if r else np.zeros((7, 6)) for r in (2, 0, 3, 1)])
        assert numerical_rank(stack).tolist() == [2, 0, 3, 1]

    def test_operator_norm_helper(self):
        a = np.diag([2.0, 5.0])
        assert operator_norm(a) == pytest.approx(5.0)
