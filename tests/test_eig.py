"""Tests of the two-sided Jacobi symmetric eigensolver and of the gram
block kernel's batched LAPACK pivot solver."""

import numpy as np
import pytest

from repro.eig import (
    EigOptions,
    gram_eigh,
    gram_eigh_batched,
    gram_pivot_eigh,
    jacobi_eigh,
    symmetric_off_norm,
)

ORDERINGS = ["fat_tree", "round_robin", "ring_new", "odd_even", "hybrid"]


def random_symmetric(n, rng):
    a = rng.standard_normal((n, n))
    return (a + a.T) / 2.0


def kwargs_for(name):
    return {"n_groups": 4} if name == "hybrid" else {}


class TestCorrectness:
    @pytest.mark.parametrize("name", ORDERINGS)
    def test_matches_numpy_eigh(self, rng, name):
        a = random_symmetric(16, rng)
        r = jacobi_eigh(a, ordering=name, **kwargs_for(name))
        assert r.converged
        ref = np.linalg.eigvalsh(a)[::-1]
        assert np.max(np.abs(r.w - ref)) < 1e-11

    def test_eigenvectors_orthogonal(self, rng):
        a = random_symmetric(16, rng)
        r = jacobi_eigh(a)
        assert np.linalg.norm(r.v.T @ r.v - np.eye(16)) < 1e-11

    def test_reconstruction(self, rng):
        a = random_symmetric(16, rng)
        r = jacobi_eigh(a)
        assert np.linalg.norm(r.reconstruct() - a) < 1e-10

    def test_eigen_equation(self, rng):
        a = random_symmetric(8, rng)
        r = jacobi_eigh(a)
        for k in range(8):
            assert np.linalg.norm(a @ r.v[:, k] - r.w[k] * r.v[:, k]) < 1e-10

    def test_negative_eigenvalues_kept(self, rng):
        # indefinite matrix: w contains both signs, still sorted descending
        a = random_symmetric(16, rng)
        r = jacobi_eigh(a)
        assert (r.w > 0).any() and (r.w < 0).any()
        assert np.all(np.diff(r.w) <= 1e-12)

    def test_diagonal_matrix_immediate(self):
        a = np.diag([5.0, 3.0, 2.0, 1.0])
        r = jacobi_eigh(a)
        assert r.sweeps == 1 and r.rotations == 0
        assert np.allclose(r.w, [5.0, 3.0, 2.0, 1.0])

    def test_sort_asc(self, rng):
        a = random_symmetric(8, rng)
        r = jacobi_eigh(a, options=EigOptions(sort="asc"))
        assert np.all(np.diff(r.w) >= -1e-12)

    def test_repeated_eigenvalues(self):
        # multiplicity: I + rank-1 bump
        n = 8
        u = np.ones((n, 1)) / np.sqrt(n)
        a = np.eye(n) + 3.0 * (u @ u.T)
        r = jacobi_eigh(a)
        assert abs(r.w[0] - 4.0) < 1e-12
        assert np.allclose(r.w[1:], 1.0, atol=1e-12)


class TestValidationAndBehaviour:
    def test_rejects_nonsymmetric(self, rng):
        with pytest.raises(ValueError):
            jacobi_eigh(rng.standard_normal((8, 8)))

    def test_rejects_rectangular(self, rng):
        with pytest.raises(ValueError):
            jacobi_eigh(rng.standard_normal((8, 6)))

    def test_off_norm_decreases(self, rng):
        a = random_symmetric(16, rng)
        r = jacobi_eigh(a)
        offs = r.off_history
        assert offs[-1] < 1e-8 * max(offs)
        assert all(b <= a_ + 1e-9 for a_, b in zip(offs, offs[1:]))

    def test_sweep_budget(self, rng):
        a = random_symmetric(16, rng)
        r = jacobi_eigh(a, options=EigOptions(max_sweeps=1))
        assert r.sweeps == 1 and not r.converged

    def test_compute_v_false(self, rng):
        a = random_symmetric(8, rng)
        r = jacobi_eigh(a, compute_v=False)
        assert r.v.shape == (8, 0)
        ref = np.linalg.eigvalsh(a)[::-1]
        assert np.max(np.abs(r.w - ref)) < 1e-11

    def test_symmetric_off_norm(self):
        assert symmetric_off_norm(np.eye(3)) == 0.0
        a = np.array([[1.0, 2.0], [2.0, 1.0]])
        assert symmetric_off_norm(a) == pytest.approx(np.sqrt(8.0))

    def test_ordering_object_accepted(self, rng):
        from repro.orderings import FatTreeOrdering

        a = random_symmetric(16, rng)
        r = jacobi_eigh(a, ordering=FatTreeOrdering(16))
        assert r.converged

    def test_equivalent_orderings_converge_alike(self, rng):
        a = random_symmetric(16, rng)
        s_ring = jacobi_eigh(a, ordering="ring_new").sweeps
        s_rr = jacobi_eigh(a, ordering="round_robin").sweeps
        assert abs(s_ring - s_rr) <= 2


def random_gram(k, rng):
    y = rng.standard_normal((k + 4, k))
    return y.T @ y


class TestGramEigh:
    """The in-place cyclic solver behind the gram block kernel."""

    def test_diagonalizes_and_matches_eigh(self, rng):
        g = random_gram(8, rng)
        ref = np.sort(np.linalg.eigvalsh(g))[::-1]
        W, rotations, sweeps, converged = gram_eigh(g)
        assert converged and rotations > 0 and sweeps >= 1
        # g was overwritten with W^T g W, which must now be diagonal
        off = g - np.diag(np.diag(g))
        assert np.max(np.abs(off)) <= 1e-11 * ref[0]
        assert np.max(np.abs(np.sort(np.diag(g))[::-1] - ref)) <= 1e-11 * ref[0]

    def test_w_is_orthogonal(self, rng):
        g = random_gram(8, rng)
        W, *_ = gram_eigh(g)
        assert np.max(np.abs(W.T @ W - np.eye(8))) <= 1e-13

    def test_diagonal_input_converges_without_rotations(self):
        g = np.diag([4.0, 3.0, 2.0, 1.0])
        W, rotations, sweeps, converged = gram_eigh(g)
        assert converged and rotations == 0 and sweeps == 1
        assert np.array_equal(W, np.eye(4))

    def test_batched_matches_scalar_per_matrix(self, rng):
        gs = np.stack([random_gram(6, rng) for _ in range(5)])
        singles = [g.copy() for g in gs]
        Ws, rotations, sweeps, converged = gram_eigh_batched(gs)
        assert converged
        total = 0
        for i, g in enumerate(singles):
            Wi, ri, *_ = gram_eigh(g)
            total += ri
            assert np.array_equal(Ws[i], Wi)
            assert np.array_equal(gs[i], g)
        # the batch charges exactly the union of the per-matrix rotations
        assert rotations == total

    def test_floor_relaxes_the_convergence_measure(self, rng):
        # the floor enters only the convergence measure, never the
        # (purely relative) rotation threshold: a dominant floor makes
        # the solver settle after a single sweep while still rotating
        g = random_gram(12, rng)
        base_sweeps = gram_eigh(g.copy())[2]
        assert base_sweeps > 1
        _, rotations, sweeps, converged = gram_eigh(g, floor=1e6)
        assert converged and sweeps == 1 and rotations > 0

    def test_batched_floor_broadcasts_per_matrix(self, rng):
        # a per-matrix floor array must broadcast over the stack; slots
        # with floor 0 keep the strict measure and fully diagonalize
        gs = np.stack([random_gram(4, rng) for _ in range(3)])
        floor = np.array([0.0, 1e6, 0.0])
        _, _, _, converged = gram_eigh_batched(gs, floor=floor)
        assert converged
        for i in (0, 2):
            off = gs[i] - np.diag(np.diag(gs[i]))
            assert np.max(np.abs(off)) <= 1e-10 * np.max(np.diag(gs[i]))

    def test_sweep_budget_reports_not_converged(self, rng):
        g = random_gram(12, rng)
        _, _, sweeps, converged = gram_eigh(g, max_sweeps=1)
        assert sweeps == 1 and not converged


def gram_floor(gs):
    """The gram block kernel's per-matrix noise floor."""
    from repro.blockjacobi.kernel import GRAM_NOISE

    k = gs.shape[1]
    return GRAM_NOISE * k * np.finfo(np.float64).eps * np.diagonal(
        gs, axis1=1, axis2=2).max(axis=1)


class TestGramPivotEigh:
    """The batched LAPACK pivot solve behind the gram block kernel."""

    TOL = 1e-12

    def test_diagonalizes_and_counts_hot_entries(self, rng):
        gs = np.stack([random_gram(8, rng) for _ in range(3)])
        W, w, hot = gram_pivot_eigh(gs, gram_floor(gs), self.TOL)
        assert W.shape == gs.shape and w.shape == (3, 8)
        # a Gaussian Gram matrix has every off-diagonal above threshold
        assert hot.tolist() == [28, 28, 28]
        for i in range(3):
            d = W[i].T @ gs[i] @ W[i]
            assert np.max(np.abs(d - np.diag(w[i]))) <= 1e-12 * w[i].max()
            assert np.max(np.abs(W[i].T @ W[i] - np.eye(8))) <= 1e-13

    def test_orthogonal_matrix_keeps_identity(self, rng):
        # skip rule: within tol, W is exactly I and w the diagonal; a hot
        # neighbour in the same stack does not change that
        diag = np.diag([4.0, 1.0, 9.0, 2.0])
        gs = np.stack([diag, random_gram(4, rng)])
        W, w, hot = gram_pivot_eigh(gs, gram_floor(gs), self.TOL)
        assert hot[0] == 0 and hot[1] > 0
        assert np.array_equal(W[0], np.eye(4))
        assert np.array_equal(w[0], np.diag(diag))

    def test_each_matrix_is_solved_on_its_own(self, rng):
        # the batch-vs-loop contract: stacking never changes a factor
        gs = np.stack([random_gram(6, rng) for _ in range(5)])
        fl = gram_floor(gs)
        W, w, hot = gram_pivot_eigh(gs, fl, self.TOL)
        for i in range(5):
            Wi, wi, hi = gram_pivot_eigh(gs[i:i + 1], fl[i:i + 1], self.TOL)
            assert np.array_equal(W[i], Wi[0])
            assert np.array_equal(w[i], wi[0]) and hot[i] == hi[0]

    @pytest.mark.parametrize("case", ["rank_deficient", "zero"])
    def test_edge_blocks_give_orthogonal_factors(self, case, rng):
        if case == "zero":
            gs = np.zeros((1, 8, 8))
        else:
            y = rng.standard_normal((12, 3)) @ rng.standard_normal((3, 8))
            gs = (y.T @ y)[None]
        W, w, _ = gram_pivot_eigh(gs, gram_floor(gs), self.TOL)
        assert np.max(np.abs(W[0].T @ W[0] - np.eye(8))) <= 1e-13
        assert np.isfinite(w).all()
        if case == "zero":
            assert np.array_equal(W[0], np.eye(8))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_stack_raises(self, bad, rng):
        from repro.util.errors import NumericalBreakdown

        gs = np.stack([random_gram(4, rng) for _ in range(2)])
        gs[1, 0, 0] = bad
        with pytest.raises(NumericalBreakdown):
            gram_pivot_eigh(gs, np.zeros(2), self.TOL)
