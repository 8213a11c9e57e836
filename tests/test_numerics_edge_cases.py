"""Numerical edge cases and failure-injection tests.

Robustness beyond the happy path: extreme scales, pathological spectra,
ill-conditioned inputs, and deliberately corrupted schedules that the
validators must reject before they can corrupt a factorisation.
"""

import numpy as np
import pytest

from repro import (ConvergenceWarning, JacobiOptions, jacobi_svd,
                   parallel_svd, svd, svd_batch)
from repro.orderings import check_all_pairs_once
from repro.orderings.schedule import Move, Schedule, Step
from repro.svd import accuracy_report

from tests.helpers import make_graded


class TestExtremeScales:
    def test_huge_scale(self, rng):
        a = 1e150 * rng.standard_normal((16, 8))
        r = jacobi_svd(a)
        assert r.converged
        ref = np.linalg.svd(a, compute_uv=False)
        assert np.max(np.abs(r.sigma - ref)) < 1e-12 * ref[0]

    def test_tiny_scale(self, rng):
        a = 1e-150 * rng.standard_normal((16, 8))
        r = jacobi_svd(a)
        assert r.converged
        ref = np.linalg.svd(a, compute_uv=False)
        assert np.max(np.abs(r.sigma - ref)) < 1e-12 * ref[0]

    def test_mixed_column_scales(self, rng):
        a = rng.standard_normal((20, 8))
        a[:, 0] *= 1e8
        a[:, 7] *= 1e-8
        r = jacobi_svd(a)
        assert r.converged
        ref = np.linalg.svd(a, compute_uv=False)
        assert np.max(np.abs(r.sigma - ref)) < 1e-11 * ref[0]

    def test_single_pair(self, rng):
        # n = 2: one leaf, one rotation per sweep
        a = rng.standard_normal((6, 2))
        r = jacobi_svd(a, ordering="round_robin")
        ref = np.linalg.svd(a, compute_uv=False)
        assert np.allclose(r.sigma, ref, atol=1e-13)


class TestNonFiniteOutputIsFlagged:
    """A non-finite sigma, U or V is never labelled converged: the gram
    kernel's column norms overflow on a 24x16 Gaussian scaled by 1e155,
    and every entry point must report that run as not converged."""

    @pytest.fixture
    def huge(self):
        return np.random.default_rng(0).standard_normal((24, 16)) * 1e155

    def test_svd(self, huge):
        with np.errstate(all="ignore"), \
                pytest.warns(ConvergenceWarning, match="non-finite"):
            r = svd(huge, block_size=4)
        assert not np.isfinite(r.sigma).all()
        assert r.converged is False

    def test_parallel_svd(self, huge):
        with np.errstate(all="ignore"), \
                pytest.warns(ConvergenceWarning, match="non-finite"):
            r, _ = parallel_svd(huge, topology="perfect", ordering="ring_new",
                                block_size=4)
        assert not np.isfinite(r.sigma).all()
        assert r.converged is False

    def test_svd_batch_flags_per_item(self, huge):
        stack = np.stack([huge, huge / 1e155])
        with np.errstate(all="ignore"), \
                pytest.warns(ConvergenceWarning, match="1 of 2 results"):
            br = svd_batch(stack, block_size=4)
        assert [r.converged for r in br] == [False, True]
        assert np.isfinite(br[1].sigma).all()


class TestPathologicalSpectra:
    def test_hilbert_like_ill_conditioning(self):
        n = 8
        h = np.array([[1.0 / (i + j + 1) for j in range(n)] for i in range(2 * n)])
        r = jacobi_svd(h)
        ref = np.linalg.svd(h, compute_uv=False)
        assert r.converged
        # absolute accuracy relative to sigma_max (the classical bound)
        assert np.max(np.abs(r.sigma - ref)) < 1e-12 * ref[0]

    def test_all_equal_singular_values(self, rng):
        q, _ = np.linalg.qr(rng.standard_normal((16, 8)))
        a = 3.0 * q
        r = jacobi_svd(a)
        assert np.allclose(r.sigma, 3.0, atol=1e-12)
        assert r.sweeps <= 2  # already column-orthogonal

    def test_huge_condition_number(self, rng):
        a = make_graded(24, 8, rng, lo=1e-12)
        r = jacobi_svd(a)
        assert r.converged
        ref = np.linalg.svd(a, compute_uv=False)
        assert np.max(np.abs(r.sigma - ref)) < 1e-10 * ref[0]

    def test_duplicate_columns_many(self, rng):
        a = rng.standard_normal((20, 8))
        for j in range(4, 8):
            a[:, j] = a[:, j - 4]
        r = jacobi_svd(a)
        assert r.rank == 4
        assert r.reconstruction_error(a) < 1e-12

    def test_constant_matrix(self):
        a = np.ones((12, 4))
        r = jacobi_svd(a)
        assert r.rank == 1
        assert r.sigma[0] == pytest.approx(np.sqrt(48.0))


class TestNonFiniteInput:
    # non-finite data now trips the kernels' sentinels instead of being
    # silently rotated into the result: the driver raises a
    # NumericalBreakdown naming the first offending column pair (and the
    # public svd() rejects such input up front with ValueError)

    def test_nan_raises_breakdown_not_hangs(self, rng):
        from repro.util.errors import NumericalBreakdown

        a = rng.standard_normal((12, 8))
        a[0, 0] = np.nan
        with np.errstate(all="ignore"), pytest.raises(NumericalBreakdown):
            jacobi_svd(a, options=JacobiOptions(max_sweeps=3))

    def test_inf_raises_breakdown(self, rng):
        from repro.util.errors import NumericalBreakdown

        a = rng.standard_normal((12, 8))
        a[0, 0] = np.inf
        with np.errstate(all="ignore"), pytest.raises(NumericalBreakdown) as exc:
            jacobi_svd(a, options=JacobiOptions(max_sweeps=3))
        assert exc.value.where is not None


class TestCorruptedSchedules:
    def test_move_losing_a_column_rejected(self):
        # a move set that overwrites a slot without vacating it would
        # silently duplicate a column; the Step validator refuses it
        with pytest.raises(ValueError):
            Step(pairs=(), moves=(Move(0, 1), Move(2, 0)))

    def test_pair_overlap_rejected(self):
        with pytest.raises(ValueError):
            Step(pairs=((0, 1), (1, 2)))

    def test_validity_checker_catches_missing_pairs(self):
        steps = [Step(pairs=((0, 1), (2, 3)))] * 3
        report = check_all_pairs_once(Schedule(n=4, steps=steps))
        assert not report.is_valid
        assert report.duplicates and report.missing

    def test_schedule_bounds_enforced(self):
        with pytest.raises(ValueError):
            Schedule(n=4, steps=[Step(pairs=(), moves=(Move(0, 9), Move(9, 0)))])

    def test_driver_rejects_foreign_schedule_size(self, rng):
        from repro.machine import TreeMachine, make_topology
        from repro.orderings import make_ordering

        machine = TreeMachine(make_topology("perfect", 4))
        machine.load(rng.standard_normal((10, 8)))
        with pytest.raises(ValueError):
            machine.run_sweep(make_ordering("fat_tree", 16).sweep(0))


class TestPaddingEdgeCases:
    def test_width_one(self, rng):
        a = rng.standard_normal((8, 1))
        r = svd(a)
        assert r.sigma[0] == pytest.approx(np.linalg.norm(a))

    def test_width_two(self, rng):
        a = rng.standard_normal((8, 2))
        r = svd(a)
        ref = np.linalg.svd(a, compute_uv=False)
        assert np.allclose(r.sigma, ref, atol=1e-12)

    def test_width_three_pads_to_four(self, rng):
        a = rng.standard_normal((8, 3))
        r = svd(a)
        ref = np.linalg.svd(a, compute_uv=False)
        assert r.sigma.shape == (3,)
        assert np.allclose(r.sigma, ref, atol=1e-12)
        rep = accuracy_report(a, r)
        assert rep["recon_err"] < 1e-12
