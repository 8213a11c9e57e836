"""Golden-numerics equivalence of the block-pair kernels.

The gram block kernel is a performance rewrite of the reference block
solver: across block sizes and matrix classes (generic Gaussian,
exactly rank-deficient, ill-conditioned) it must converge to
singular values matching LAPACK to the suite tolerance and agree with
the reference kernel's values, and ``block_size=1`` must reproduce the
scalar driver.  The gram kernel's convergence measure carries a
Gram-formation noise floor (see :mod:`repro.blockjacobi.kernel`), so the
guarantees here are the *absolute* sigma tolerances — exactly what the
scalar suite demands — not bitwise trajectory equality.
"""

import numpy as np
import pytest

from repro import svd
from repro.blockjacobi import (
    BLOCK_KERNELS,
    BlockJacobiOptions,
    block_jacobi_svd,
    solve_block_pair,
    solve_block_step,
)
from repro.svd import JacobiOptions, jacobi_svd

BLOCK_SIZES = (1, 2, 4, 8)

#: relative agreement demanded between two kernels' singular values
RTOL_SIGMA = 1e-12

#: absolute-vs-LAPACK tolerance, scaled by the largest singular value
LAPACK_TOL = 1e-11


def _matrix(case: str, n: int) -> np.ndarray:
    rng = np.random.default_rng(100 + n)
    m = n + 6
    if case == "gaussian":
        return rng.standard_normal((m, n))
    if case == "rank_deficient":
        half = max(2, n // 2)
        return rng.standard_normal((m, half)) @ rng.standard_normal((half, n))
    if case == "ill_conditioned":
        u, _ = np.linalg.qr(rng.standard_normal((m, n)))
        v, _ = np.linalg.qr(rng.standard_normal((n, n)))
        return (u * np.logspace(0, -10, n)) @ v.T
    raise AssertionError(case)


def _solve(a: np.ndarray, kernel: str, b: int, **kw):
    return block_jacobi_svd(
        a, ordering="ring_new",
        options=BlockJacobiOptions(block_size=b, kernel=kernel, **kw),
    )


class TestBlockKernelEquivalence:
    @pytest.mark.parametrize("kernel", BLOCK_KERNELS)
    @pytest.mark.parametrize("b", BLOCK_SIZES)
    @pytest.mark.parametrize(
        "case", ["gaussian", "rank_deficient", "ill_conditioned"]
    )
    def test_kernel_matches_lapack(self, kernel, b, case):
        a = _matrix(case, 32)
        r = _solve(a, kernel, b)
        assert r.converged
        lap = np.linalg.svd(a, compute_uv=False)
        assert np.max(np.abs(r.sigma - lap)) <= LAPACK_TOL * lap[0]

    @pytest.mark.parametrize("b", BLOCK_SIZES)
    @pytest.mark.parametrize(
        "case", ["gaussian", "rank_deficient", "ill_conditioned"]
    )
    def test_fast_kernels_agree_with_reference(self, b, case):
        a = _matrix(case, 32)
        ref = _solve(a, "reference", b)
        scale = max(float(ref.sigma[0]), 1.0)
        fast = _solve(a, "gram", b)
        assert fast.converged
        assert fast.rank == ref.rank
        assert np.max(np.abs(fast.sigma - ref.sigma)) <= RTOL_SIGMA * scale

    @pytest.mark.parametrize("kernel", BLOCK_KERNELS)
    def test_block_size_one_reproduces_scalar_driver(self, kernel):
        a = _matrix("gaussian", 16)
        scalar = jacobi_svd(a, ordering="ring_new",
                            options=JacobiOptions(kernel="reference"))
        blocked = _solve(a, kernel, 1)
        assert blocked.converged
        scale = max(float(scalar.sigma[0]), 1.0)
        assert np.max(np.abs(blocked.sigma - scalar.sigma)) <= RTOL_SIGMA * scale
        assert blocked.rank == scalar.rank
        assert blocked.emerged_sorted == "desc"

    @pytest.mark.parametrize("kernel", BLOCK_KERNELS)
    def test_result_is_a_valid_svd(self, kernel):
        a = _matrix("gaussian", 32)
        r = _solve(a, kernel, 4)
        scale = float(r.sigma[0])
        recon = (r.u * r.sigma) @ r.v.T
        assert np.max(np.abs(recon - a)) <= 1e-10 * scale
        # orthogonality of the accumulated right factor
        assert np.max(np.abs(r.v.T @ r.v - np.eye(32))) <= 1e-12

    @pytest.mark.parametrize("kernel", BLOCK_KERNELS)
    @pytest.mark.parametrize("ordering", ["fat_tree", "hybrid", "odd_even"])
    def test_tree_orderings_at_block_granularity(self, kernel, ordering):
        a = _matrix("gaussian", 32)
        r = block_jacobi_svd(
            a, ordering=ordering,
            options=BlockJacobiOptions(block_size=4, kernel=kernel),
        )
        assert r.converged
        lap = np.linalg.svd(a, compute_uv=False)
        assert np.max(np.abs(r.sigma - lap)) <= LAPACK_TOL * lap[0]

    @pytest.mark.parametrize("sort", ["desc", "asc", None])
    def test_sort_modes_agree_across_kernels(self, sort):
        a = _matrix("gaussian", 16)
        sigmas = []
        for kernel in BLOCK_KERNELS:
            r = _solve(a, kernel, 4, sort=sort)
            assert r.converged
            sigmas.append(r.sigma)
        scale = max(float(sigmas[0][0]), 1.0)
        for s in sigmas[1:]:
            assert np.max(np.abs(s - sigmas[0])) <= RTOL_SIGMA * scale

    def test_tall_matrix(self):
        rng = np.random.default_rng(9)
        a = rng.standard_normal((120, 16))
        ref = _solve(a, "reference", 2)
        gram = _solve(a, "gram", 2)
        assert np.max(np.abs(ref.sigma - gram.sigma)) <= RTOL_SIGMA * ref.sigma[0]

    def test_unknown_kernel_rejected_by_options(self):
        with pytest.raises(ValueError, match="unknown block kernel"):
            BlockJacobiOptions(kernel="fused")

    def test_unknown_kernel_rejected_by_solver(self):
        X = np.eye(4)
        with pytest.raises(ValueError, match="unknown block kernel"):
            solve_block_pair(X, None, np.arange(4), 1e-12, "desc", 2,
                             kernel="fused")

    def test_bad_sort_mode_rejected(self):
        X = np.eye(4)
        with pytest.raises(ValueError, match="sort must be one of"):
            solve_block_pair(X, None, np.arange(4), 1e-12, "up", 2)


def _prescribed_spectrum(m: int, n: int, seed: int) -> np.ndarray:
    """Singular values in geometric decay over 4 decades, the leading
    ``n // 8`` replaced by a near-equal cluster at 1."""
    rng = np.random.default_rng(seed)
    sigma = np.logspace(0.0, -4.0, n)
    cluster = max(2, n // 8)
    sigma[:cluster] = 1.0 - 1e-9 * np.arange(cluster)
    u = np.linalg.qr(rng.standard_normal((m, n)))[0]
    v = np.linalg.qr(rng.standard_normal((n, n)))[0]
    return (u * sigma) @ v.T


class TestGramPivotSolve:
    """The gram kernel's LAPACK pivot solve inside a schedule step."""

    def test_orthogonal_pair_comes_back_permuted_only(self):
        rng = np.random.default_rng(5)
        m = 20
        X = rng.standard_normal((m, 8))
        # pair 0: mutually orthogonal columns with norms out of order, so
        # only the sort permutation may act on them
        q = np.linalg.qr(rng.standard_normal((m, 4)))[0]
        X[:, :4] = q * np.array([1.0, 3.0, 2.0, 4.0])
        X0 = X.copy()
        V = np.eye(8)
        pairs = [np.arange(4), np.arange(4, 8)]
        st, worst = solve_block_step(X, V, pairs, 1e-12, "desc", 2, "gram")
        assert worst > 1e-12 and st.applied > 0  # the step did solve
        perm = np.argsort(-np.linalg.norm(X0[:, :4], axis=0), kind="stable")
        assert np.array_equal(X[:, :4], X0[:, perm])
        assert np.array_equal(V[:4, :4], np.eye(4)[:, perm])
        assert not np.array_equal(X[:, 4:], X0[:, 4:])

    @pytest.mark.parametrize("b", [4, 16, 32])
    def test_prescribed_spectrum_accuracy(self, b):
        m, n = 144, 128
        a = _prescribed_spectrum(m, n, seed=b)
        r = svd(a, block_size=b)
        assert r.converged
        lap = np.linalg.svd(a, compute_uv=False)
        bound = 64 * max(m, n) * np.finfo(np.float64).eps
        assert np.max(np.abs(r.sigma - lap)) <= bound * lap[0]
        resid = np.linalg.norm(a - (r.u * r.sigma) @ r.v.T)
        assert resid <= bound * np.linalg.norm(a)
