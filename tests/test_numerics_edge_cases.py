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
    """A non-finite sigma, U or V is never labelled converged: every
    entry point must report a run whose solver hands back a non-finite
    sigma as not converged.  The power-of-two prescale keeps real
    inputs from over- or underflowing, so the non-finite result is
    planted in the solver each entry point calls."""

    @pytest.fixture
    def a(self):
        return np.random.default_rng(0).standard_normal((24, 16))

    @staticmethod
    def poisoned(solver, pick=lambda out: out):
        """``solver`` with sigma[0] of its (picked) result set to inf."""
        def run(*args, **kwargs):
            out = solver(*args, **kwargs)
            pick(out).sigma[0] = np.inf
            return out
        return run

    def test_svd(self, a, monkeypatch):
        from repro.core import api

        monkeypatch.setattr(api, "_svd", self.poisoned(api._svd))
        with pytest.warns(ConvergenceWarning, match="non-finite"):
            r = svd(a, block_size=4)
        assert not np.isfinite(r.sigma).all()
        assert r.converged is False

    def test_parallel_svd(self, a, monkeypatch):
        from repro.parallel.driver import ParallelJacobiSVD

        monkeypatch.setattr(
            ParallelJacobiSVD, "compute",
            self.poisoned(ParallelJacobiSVD.compute, lambda out: out[0]))
        with pytest.warns(ConvergenceWarning, match="non-finite"):
            r, _ = parallel_svd(a, topology="perfect", ordering="ring_new",
                                block_size=4)
        assert not np.isfinite(r.sigma).all()
        assert r.converged is False

    def test_svd_batch_flags_per_item(self, a, monkeypatch):
        from repro.core import api

        monkeypatch.setattr(
            api, "block_jacobi_svd_batch",
            self.poisoned(api.block_jacobi_svd_batch, lambda out: out[0]))
        stack = np.stack([a, a / 2])
        with pytest.warns(ConvergenceWarning, match="1 of 2 results"):
            br = svd_batch(stack, block_size=4)
        assert [r.converged for r in br] == [False, True]
        assert np.isfinite(br[1].sigma).all()


class TestPowerOfTwoPrescale:
    """Inputs near the over- and underflow thresholds are solved at an
    exact power-of-two scale: accurate, not merely flagged."""

    EPS = np.finfo(np.float64).eps

    def assert_accurate(self, r, a):
        ref = np.linalg.svd(a, compute_uv=False)
        assert r.converged is True
        assert np.isfinite(r.u).all() and np.isfinite(r.v).all()
        bound = 64 * max(a.shape) * self.EPS
        assert np.max(np.abs(r.sigma - ref)) <= bound * ref[0]

    @pytest.mark.parametrize("scale", [1e155, 1e200, 1e-200, 1e-300])
    def test_extreme_scales_are_accurate(self, scale):
        # 1e155 used to return sigma = inf (Gram overflow) and 1e-200
        # sigma = 0 with converged=True (Gram underflow)
        a = np.random.default_rng(0).standard_normal((24, 16)) * scale
        self.assert_accurate(svd(a, block_size=4), a)
        self.assert_accurate(svd(a), a)
        r, _ = parallel_svd(a, topology="perfect", ordering="ring_new",
                            block_size=4)
        self.assert_accurate(r, a)
        br = svd_batch(np.stack([a, a / scale]), block_size=4)
        self.assert_accurate(br[0], a)
        self.assert_accurate(br[1], a / scale)

    @pytest.mark.parametrize("k", [300, -300, 700, -700])
    @pytest.mark.parametrize("entry", ["svd-gram", "svd-scalar",
                                       "parallel", "batch"])
    def test_scaling_by_power_of_two_is_bitwise(self, k, entry):
        g = np.random.default_rng(abs(k)).standard_normal((20, 16))
        a = np.ldexp(g, -int(np.frexp(np.abs(g).max())[1]))
        assert 0.5 <= np.abs(a).max() < 1.0

        def run(x):
            if entry == "svd-gram":
                return svd(x, block_size=4)
            if entry == "svd-scalar":
                return svd(x)
            if entry == "parallel":
                return parallel_svd(x, topology="perfect",
                                    ordering="ring_new", block_size=4)[0]
            return svd_batch(np.stack([x, a]), block_size=4)[0]

        base, scaled = run(a), run(np.ldexp(a, k))
        assert base.converged and scaled.converged
        assert np.array_equal(scaled.sigma, np.ldexp(base.sigma, k))
        assert np.array_equal(scaled.sigma_by_slot,
                              np.ldexp(base.sigma_by_slot, k))
        assert np.array_equal(scaled.u, base.u)
        assert np.array_equal(scaled.v, base.v)
        assert scaled.sweeps == base.sweeps


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


class TestWideInput:
    # a wide input (m < n) is solved as its tall transpose: before, the
    # scalar kernel never recognised the n - m null columns as converged,
    # ran out its sweeps with converged=False and overflowed in
    # rotation_params, although sigma was already accurate

    @pytest.mark.parametrize("block_size", [None, 4])
    def test_svd_converges_without_warnings(self, rng, block_size):
        import warnings

        a = rng.standard_normal((16, 24))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            warnings.simplefilter("error", ConvergenceWarning)
            r = svd(a, block_size=block_size)
        assert r.converged
        assert r.sigma.shape == (24,)
        assert r.u.shape == (16, 24)
        assert r.v.shape == (24, 24)
        ref = np.linalg.svd(a, compute_uv=False)
        assert np.max(np.abs(r.sigma[:16] - ref)) < 1e-12 * ref[0]
        assert np.all(r.sigma[16:] == 0.0)
        assert np.allclose(r.v.T @ r.v, np.eye(24), atol=1e-10)
        assert np.allclose((r.u * r.sigma) @ r.v.T, a, atol=1e-12)

    @pytest.mark.parametrize("block_size", [None, 2])
    @pytest.mark.parametrize("entry", ["parallel_svd", "svd-fault-plan"])
    def test_machine_path_converges_without_warnings(self, rng, entry,
                                                     block_size):
        # the simulated machine ran the wide matrix as given: the n - m
        # null columns never converged (60 sweeps, converged=False and a
        # flood of RuntimeWarnings); it now runs the tall transpose too
        import warnings

        from repro import FaultPlan

        a = rng.standard_normal((16, 32))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            warnings.simplefilter("error", ConvergenceWarning)
            if entry == "parallel_svd":
                r, rep = parallel_svd(a, block_size=block_size)
                assert len(rep.sweep_stats) == r.sweeps
            else:
                r = svd(a, block_size=block_size, fault_plan=FaultPlan())
        assert r.converged
        assert r.sigma.shape == (32,)
        assert r.u.shape == (16, 32)
        assert r.v.shape == (32, 32)
        ref = np.linalg.svd(a, compute_uv=False)
        assert np.max(np.abs(r.sigma[:16] - ref)) < 1e-12 * ref[0]
        assert np.all(r.sigma[16:] == 0.0)
        assert np.allclose(r.v.T @ r.v, np.eye(32), atol=1e-10)
        assert np.allclose((r.u * r.sigma) @ r.v.T, a, atol=1e-12)

    @pytest.mark.parametrize("block_size", [None, 4])
    def test_svd_batch_matches_loop(self, rng, block_size):
        import warnings

        xs = rng.standard_normal((2, 16, 24))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            warnings.simplefilter("error", ConvergenceWarning)
            got = svd_batch(xs, block_size=block_size)
            want = [svd(x, block_size=block_size) for x in xs]
        for g, w in zip(got.results, want):
            assert g.converged
            for name in ("sigma", "u", "v", "sigma_by_slot"):
                assert np.array_equal(getattr(g, name), getattr(w, name))
