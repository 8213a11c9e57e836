"""Unit tests for the plane-rotation kernels."""

import numpy as np
import pytest

from repro.svd.rotations import (
    apply_step_rotations,
    apply_step_rotations_batched,
    column_norms_sq,
    rotation_params,
)


class TestRotationParams:
    def test_identity_when_gamma_zero(self):
        c, s = rotation_params(np.array([2.0]), np.array([3.0]), np.array([0.0]))
        assert c[0] == 1.0 and s[0] == 0.0

    def test_orthogonalises(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            x = rng.standard_normal(6)
            y = rng.standard_normal(6)
            a, b, g = x @ x, y @ y, x @ y
            c, s = rotation_params(np.array([a]), np.array([b]), np.array([g]))
            xn = c[0] * x - s[0] * y
            yn = s[0] * x + c[0] * y
            assert abs(xn @ yn) < 1e-10 * max(1.0, abs(g))

    def test_forty_five_degrees_when_equal_norms(self):
        x = np.array([1.0, 1.0])
        y = np.array([1.0, -1.0 + 2.0])  # y = (1, 1)? keep equal norms
        y = np.array([1.0, 1.0])
        a, b, g = 2.0, 2.0, 2.0
        c, s = rotation_params(np.array([a]), np.array([b]), np.array([g]))
        assert c[0] == pytest.approx(s[0])

    def test_norm_preservation(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal(5)
        y = rng.standard_normal(5)
        a, b, g = x @ x, y @ y, x @ y
        c, s = rotation_params(np.array([a]), np.array([b]), np.array([g]))
        xn = c[0] * x - s[0] * y
        yn = s[0] * x + c[0] * y
        assert xn @ xn + yn @ yn == pytest.approx(a + b)

    def test_vectorised_matches_scalar(self):
        rng = np.random.default_rng(5)
        a = rng.uniform(0.5, 2.0, 10)
        b = rng.uniform(0.5, 2.0, 10)
        g = rng.uniform(-0.5, 0.5, 10)
        c, s = rotation_params(a, b, g)
        for i in range(10):
            ci, si = rotation_params(a[i:i+1], b[i:i+1], g[i:i+1])
            assert ci[0] == pytest.approx(c[i])
            assert si[0] == pytest.approx(s[i])


class TestApplyStepRotations:
    def test_orthogonalises_pairs(self, rng):
        X = rng.standard_normal((10, 6))
        left = np.array([0, 2, 4])
        right = np.array([1, 3, 5])
        apply_step_rotations(X, None, left, right, 0.0, None)
        for l, r in zip(left, right):
            assert abs(X[:, l] @ X[:, r]) < 1e-10

    def test_empty_pairs_noop(self, rng):
        X = rng.standard_normal((4, 2))
        before = X.copy()
        st, mx = apply_step_rotations(X, None, np.array([], dtype=np.intp),
                                      np.array([], dtype=np.intp), 0.0, None)
        assert np.array_equal(X, before)
        assert mx == 0.0 and st.applied == 0

    def test_threshold_skips(self, rng):
        # two already-orthogonal columns: no rotation, counted as skipped
        X = np.eye(4)[:, :2] * 2.0
        st, mx = apply_step_rotations(X, None, np.array([0]), np.array([1]), 1e-12, None)
        assert st.applied == 0 and st.skipped == 1
        assert mx <= 1e-12

    def test_sort_desc_places_larger_left(self, rng):
        X = rng.standard_normal((12, 8))
        left = np.arange(0, 8, 2)
        right = np.arange(1, 8, 2)
        apply_step_rotations(X, None, left, right, 0.0, "desc")
        norms = np.linalg.norm(X, axis=0)
        assert np.all(norms[left] >= norms[right] - 1e-12)

    def test_sort_asc_places_smaller_left(self, rng):
        X = rng.standard_normal((12, 8))
        left = np.arange(0, 8, 2)
        right = np.arange(1, 8, 2)
        apply_step_rotations(X, None, left, right, 0.0, "asc")
        norms = np.linalg.norm(X, axis=0)
        assert np.all(norms[left] <= norms[right] + 1e-12)

    def test_v_tracks_rotations(self, rng):
        A = rng.standard_normal((10, 6))
        X = A.copy()
        V = np.eye(6)
        left = np.array([0, 2, 4])
        right = np.array([1, 3, 5])
        apply_step_rotations(X, V, left, right, 0.0, "desc")
        # X must equal A @ V at all times
        assert np.allclose(X, A @ V)

    def test_idle_exchange_counted(self):
        # orthogonal columns in the 'wrong' norm order get exchanged
        X = np.zeros((4, 2))
        X[0, 0] = 1.0   # small norm left
        X[1, 1] = 5.0   # large norm right
        st, _ = apply_step_rotations(X, None, np.array([0]), np.array([1]), 1e-12, "desc")
        assert st.exchanged == 1
        assert np.linalg.norm(X[:, 0]) > np.linalg.norm(X[:, 1])

    def test_no_exchange_when_sorted(self):
        X = np.zeros((4, 2))
        X[0, 0] = 5.0
        X[1, 1] = 1.0
        st, _ = apply_step_rotations(X, None, np.array([0]), np.array([1]), 1e-12, "desc")
        assert st.exchanged == 0

    def test_gram_off_mass_decreases(self, rng):
        from repro.svd.convergence import off_norm

        X = rng.standard_normal((16, 8))
        before = off_norm(X)
        apply_step_rotations(X, None, np.arange(0, 8, 2), np.arange(1, 8, 2), 0.0, "desc")
        assert off_norm(X) <= before + 1e-12

    def test_frobenius_norm_invariant(self, rng):
        X = rng.standard_normal((16, 8))
        f = np.linalg.norm(X)
        apply_step_rotations(X, None, np.arange(0, 8, 2), np.arange(1, 8, 2), 0.0, "desc")
        assert np.linalg.norm(X) == pytest.approx(f)

    @pytest.mark.parametrize("sort", ["descending", "", "DESC"])
    def test_unrecognised_sort_rejected(self, sort):
        # regression: an unknown sort string used to silently disable
        # the sorting convention instead of failing
        X = np.eye(4)
        with pytest.raises(ValueError, match="sort"):
            apply_step_rotations(X, None, np.array([0]), np.array([1]), 0.0, sort)


def _step_matrix(kind, rng, n=12):
    """A step's data (n x n) and a disjoint pairing of its columns.

    ``kind`` picks the branches the step reaches: ``random`` (every pair
    rotates at tol < 1), ``zero`` (zero columns: dead pairs, partial
    rotation), ``equal`` (negated copies: alpha == beta exactly, so
    zeta == 0 and the 45-degree rotation), ``orthogonal`` (orthogonal
    columns with unsorted norms: all idle and idle exchanges, with one
    rotating pair mixed in half of the time).
    """
    X = rng.standard_normal((n, n))
    perm = rng.permutation(n)
    left, right = perm[: n // 2].copy(), perm[n // 2:].copy()
    if kind == "zero":
        X[:, rng.choice(n, size=4, replace=False)] = 0.0
    elif kind == "equal":
        for j in range(0, n // 2, 2):
            X[:, right[j]] = -X[:, left[j]]  # alpha == beta: zeta == 0
    elif kind == "orthogonal":
        X = np.linalg.qr(X)[0] * rng.uniform(0.5, 4.0, n)
        if rng.random() < 0.5:
            X[:, left[0]] += 0.3 * X[:, right[0]]
    return X, left, right


class TestStepIsPairwise:
    """One call on k disjoint pairs is k independent 2x2 problems: it
    must equal k one-pair calls bit for bit (X, V, ``max_rel``) with the
    same summed counters, whichever internal branch each call takes.
    A negative ``tol`` rotates every pair, including ``gamma == 0``
    pairs (zero columns), which ``rotation_params`` maps to the
    identity."""

    @pytest.mark.parametrize("sort", ["desc", "asc", None])
    @pytest.mark.parametrize("tol", [0.0, 1e-12, 0.5, -1.0])
    @pytest.mark.parametrize("kind", ["random", "zero", "equal", "orthogonal"])
    def test_step_equals_one_pair_calls(self, kind, tol, sort):
        from repro.svd.rotations import RotationStats

        rng = np.random.default_rng([7, len(kind), abs(int(tol * 1e3))])
        for _ in range(8):
            X, left, right = _step_matrix(kind, rng)
            V = rng.standard_normal(X.shape)
            Xs, Vs = X.copy(), V.copy()
            st, mx = apply_step_rotations(X, V, left, right, tol, sort)
            total = RotationStats()
            mx_s = 0.0
            for a, b in zip(left, right):
                st1, mx1 = apply_step_rotations(
                    Xs, Vs, np.array([a]), np.array([b]), tol, sort)
                total.merge(st1)
                mx_s = max(mx_s, mx1)
            assert X.tobytes() == Xs.tobytes()
            assert V.tobytes() == Vs.tobytes()
            assert repr(mx) == repr(mx_s)
            assert st == total


def _as_rows(X):
    """Column-as-row working buffer + its squared-norm cache."""
    WT = np.ascontiguousarray(X.T)
    return WT, column_norms_sq(X).copy()


class TestConvergedButUnsortedStep:
    """Regression for the identity-rotation path: when *every* pair of a
    step is below threshold, the sorting convention must still be
    honoured — a fast path that returns early on 'no rotations' would
    silently skip the idle exchanges and break the sorted emergence of
    the singular values."""

    def _unsorted_orthogonal(self):
        # orthogonal columns with strictly ascending norms: under
        # sort="desc" every pair is converged yet needs an exchange
        X = np.diag([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        return X

    def test_reference_kernel_exchanges_all_idle_pairs(self):
        X = self._unsorted_orthogonal()
        st, mx = apply_step_rotations(
            X, None, np.array([0, 2, 4]), np.array([1, 3, 5]), 1e-12, "desc"
        )
        assert st.applied == 0 and st.exchanged == 3
        assert mx <= 1e-12
        norms = np.linalg.norm(X, axis=0)
        assert np.all(norms[[0, 2, 4]] > norms[[1, 3, 5]])

    def test_batched_kernel_exchanges_all_idle_pairs(self):
        X = self._unsorted_orthogonal()
        WT, norms_sq = _as_rows(X)
        P = np.array([[0, 1], [2, 3], [4, 5]], dtype=np.intp)
        st, mx = apply_step_rotations_batched(WT, P, 1e-12, "desc", norms_sq, 6)
        assert st.applied == 0 and st.exchanged == 3
        assert mx <= 1e-12
        norms = np.linalg.norm(WT, axis=1)
        assert np.all(norms[P[:, 0]] > norms[P[:, 1]])
        # the cache must have been exchanged alongside the columns
        assert np.allclose(norms_sq, norms**2)

    def test_batched_kernel_asc_mirror(self):
        X = self._unsorted_orthogonal()[:, ::-1].copy()
        WT, norms_sq = _as_rows(X)
        P = np.array([[0, 1], [2, 3], [4, 5]], dtype=np.intp)
        st, _ = apply_step_rotations_batched(WT, P, 1e-12, "asc", norms_sq, 6)
        assert st.applied == 0 and st.exchanged == 3
        norms = np.linalg.norm(WT, axis=1)
        assert np.all(norms[P[:, 0]] < norms[P[:, 1]])

    def test_batched_kernel_fully_idle_step_is_noop(self):
        # sorted AND converged: the early-exit path must not move data
        X = np.diag([6.0, 5.0, 4.0, 3.0, 2.0, 1.0])
        WT, norms_sq = _as_rows(X)
        before = WT.copy()
        P = np.array([[0, 1], [2, 3], [4, 5]], dtype=np.intp)
        st, _ = apply_step_rotations_batched(WT, P, 1e-12, "desc", norms_sq, 6)
        assert st.applied == 0 and st.exchanged == 0 and st.swapped == 0
        assert np.array_equal(WT, before)

    @pytest.mark.parametrize("kernel", ["reference", "batched"])
    def test_driver_sorts_converged_unsorted_input(self, kernel):
        # end-to-end: an already-diagonal matrix in ascending order must
        # come out sorted descending purely through idle exchanges
        from repro.svd import JacobiOptions, jacobi_svd

        a = np.zeros((10, 8))
        np.fill_diagonal(a, np.arange(1.0, 9.0))
        r = jacobi_svd(a, ordering="fat_tree",
                       options=JacobiOptions(kernel=kernel))
        assert r.converged
        assert r.emerged_sorted == "desc"
        assert np.allclose(r.sigma, np.arange(8.0, 0.0, -1.0))
        assert r.rotations == 0

    def test_batched_unrecognised_sort_rejected(self):
        X = np.eye(4)
        WT, norms_sq = _as_rows(X)
        P = np.array([[0, 1]], dtype=np.intp)
        with pytest.raises(ValueError, match="sort"):
            apply_step_rotations_batched(WT, P, 0.0, "descending", norms_sq, 4)


class TestBatchedKernelEquivalence:
    def test_single_step_matches_reference(self, rng):
        X = rng.standard_normal((12, 8))
        Xr = X.copy()
        WT, norms_sq = _as_rows(X)
        left = np.arange(0, 8, 2)
        right = np.arange(1, 8, 2)
        st_ref, mx_ref = apply_step_rotations(Xr, None, left, right, 0.0, "desc")
        P = np.column_stack((left, right)).astype(np.intp)
        st_bat, mx_bat = apply_step_rotations_batched(
            WT, P, 0.0, "desc", norms_sq, 12
        )
        assert st_ref.applied == st_bat.applied
        assert st_ref.swapped == st_bat.swapped
        assert mx_ref == pytest.approx(mx_bat, rel=1e-12)
        assert np.allclose(WT.T, Xr, atol=1e-13)

    def test_empty_step_noop(self):
        WT = np.eye(4)
        norms_sq = np.ones(4)
        st, mx = apply_step_rotations_batched(
            WT, np.empty((0, 2), dtype=np.intp), 0.0, "desc", norms_sq, 4
        )
        assert st.applied == 0 and mx == 0.0
