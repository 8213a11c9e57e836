"""Tests of the top-level public API."""

import numpy as np
import pytest

from repro import (
    JacobiOptions,
    SVDResult,
    jacobi_svd,
    make_ordering,
    ordering_names,
    parallel_svd,
    svd,
    svd_batch,
)


class TestSvd:
    def test_basic(self, rng):
        a = rng.standard_normal((20, 16))
        r = svd(a)
        assert isinstance(r, SVDResult)
        assert r.converged

    def test_awkward_width_padded(self, rng):
        a = rng.standard_normal((20, 13))
        r = svd(a)
        ref = np.linalg.svd(a, compute_uv=False)
        assert np.max(np.abs(r.sigma - ref)) < 1e-12 * ref[0]
        assert r.u.shape == (20, 13)
        assert r.v.shape == (13, 13)
        assert np.linalg.norm(a - (r.u * r.sigma) @ r.v.T) < 1e-10

    def test_even_width_ring_not_padded(self, rng):
        a = rng.standard_normal((20, 10))
        r = svd(a, ordering="ring_new")
        assert r.sigma.shape == (10,)
        ref = np.linalg.svd(a, compute_uv=False)
        assert np.max(np.abs(r.sigma - ref)) < 1e-12 * ref[0]

    def test_odd_width_ring_padded(self, rng):
        a = rng.standard_normal((20, 9))
        r = svd(a, ordering="ring_new")
        ref = np.linalg.svd(a, compute_uv=False)
        assert np.max(np.abs(r.sigma - ref)) < 1e-12 * ref[0]

    def test_options_forwarded(self, rng):
        a = rng.standard_normal((20, 16))
        r = svd(a, options=JacobiOptions(max_sweeps=1))
        assert r.sweeps == 1

    def test_ordering_kwargs_forwarded(self, rng):
        a = rng.standard_normal((40, 32))
        r = svd(a, ordering="hybrid", n_groups=8)
        assert r.converged


class TestParallelSvd:
    def test_default_cm5_hybrid(self, rng):
        a = rng.standard_normal((48, 32))
        result, report = parallel_svd(a)
        assert result.converged
        assert report.contention_free  # the paper's CM-5 design point

    def test_padding_path(self, rng):
        a = rng.standard_normal((30, 20))
        result, report = parallel_svd(a, topology="perfect", ordering="fat_tree")
        ref = np.linalg.svd(a, compute_uv=False)
        assert np.max(np.abs(result.sigma - ref)) < 1e-12 * ref[0]
        assert result.u.shape == (30, 20)

    def test_report_has_per_sweep_stats(self, rng):
        a = rng.standard_normal((24, 16))
        result, report = parallel_svd(a, topology="cm5", ordering="fat_tree")
        assert len(report.sweep_stats) == result.sweeps


class TestRegistry:
    def test_names_stable(self):
        assert ordering_names() == [
            "fat_tree", "hybrid", "llb", "odd_even",
            "ring_modified", "ring_new", "round_robin",
        ]

    def test_make_each(self):
        for name in ordering_names():
            o = make_ordering(name, 16)
            assert o.n == 16
            assert o.sweep(0).n_rotation_steps >= 15

    def test_unknown(self):
        with pytest.raises(ValueError):
            make_ordering("butterfly", 16)

    @pytest.mark.parametrize("name", ["fat_tree", "odd_even", "ring_modified",
                                      "ring_new", "round_robin"])
    def test_optionless_ordering_rejects_keywords(self, name):
        with pytest.raises(TypeError, match=f"{name}.*n_groups"):
            make_ordering(name, 16, n_groups=4)


class TestUnknownKeywords:
    # keywords beyond the named parameters go to the ordering factory;
    # an ordering without options used to drop them, so a typo
    # (blocksize=) ran scalar mode and a removed option (executor=) was
    # accepted, both reporting converged=True

    @pytest.mark.parametrize("block_size", [None, 4])
    @pytest.mark.parametrize("kw", [{"executor": "threads"},
                                    {"blocksize": 8}])
    @pytest.mark.parametrize("entry", ["svd", "svd_batch", "parallel_svd"])
    def test_unknown_keyword_raises(self, rng, entry, kw, block_size):
        a = rng.standard_normal((12, 8))
        opts = dict(ordering="fat_tree", block_size=block_size, **kw)
        with pytest.raises(TypeError, match=f"fat_tree.*{next(iter(kw))}"):
            if entry == "svd":
                svd(a, **opts)
            elif entry == "svd_batch":
                svd_batch(a[None], **opts)
            else:
                parallel_svd(a, topology="perfect", **opts)


class TestResultObject:
    def test_reconstruct(self, rng):
        a = rng.standard_normal((16, 8))
        r = jacobi_svd(a)
        assert np.allclose(r.reconstruct(), a, atol=1e-10)

    def test_reconstruction_error_normalised(self, rng):
        a = rng.standard_normal((16, 8))
        r = jacobi_svd(a)
        assert r.reconstruction_error(a) < 1e-12

    def test_version_exported(self):
        import repro

        assert repro.__version__


class TestInputValidation:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_svd_rejects_non_finite_input(self, rng, bad):
        a = rng.standard_normal((12, 8))
        a[3, 5] = bad
        with pytest.raises(ValueError, match=r"\(3, 5\)"):
            svd(a)

    def test_parallel_svd_rejects_non_finite_input(self, rng):
        a = rng.standard_normal((12, 8))
        a[0, 0] = np.nan
        with pytest.raises(ValueError, match=r"\(0, 0\)"):
            parallel_svd(a)

    def test_error_names_the_offending_coordinate(self, rng):
        a = rng.standard_normal((12, 8))
        a[7, 2] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            svd(a)


class TestConvergenceSurfacing:
    def test_non_convergence_warns_and_flags(self, rng):
        from repro import ConvergenceWarning

        a = rng.standard_normal((20, 16))
        with pytest.warns(ConvergenceWarning):
            r = svd(a, options=JacobiOptions(max_sweeps=1))
        assert not r.converged
        assert r.sweeps_used == 1
        assert r.watchdog is not None
        assert "NOT converged" in r.summary()

    def test_block_driver_warns_too(self, rng):
        from repro import BlockJacobiOptions, ConvergenceWarning

        a = rng.standard_normal((20, 16))
        with pytest.warns(ConvergenceWarning):
            r = svd(a, options=BlockJacobiOptions(block_size=2, max_sweeps=1))
        assert not r.converged

    def test_converged_run_is_quiet(self, rng):
        import warnings

        from repro import ConvergenceWarning

        a = rng.standard_normal((20, 16))
        with warnings.catch_warnings():
            warnings.simplefilter("error", ConvergenceWarning)
            r = svd(a)
        assert r.converged
        assert r.watchdog is None
        assert r.fault_summary() == {}
