"""Block-granularity execution on the simulated tree machine.

The parallel block pipeline must be numerically identical to the serial
block driver (same schedule, same kernels, same block_cols indirection),
charge the cost model at block granularity (``b`` columns per message,
block subproblems per met pair), and thread ``block_size`` through the
core API with block-aware padding.
"""

import numpy as np
import pytest

from repro import parallel_svd, svd
from repro.blockjacobi import BlockJacobiOptions, block_jacobi_svd
from repro.machine.costmodel import CostModel
from repro.machine.simulator import TreeMachine
from repro.machine.topology import make_topology
from repro.orderings import make_ordering
from repro.parallel.distribution import next_admissible_width, pad_columns
from repro.parallel.driver import ParallelJacobiSVD


def _matrix(m: int, n: int, seed: int = 7) -> np.ndarray:
    return np.random.default_rng(seed).standard_normal((m, n))


class TestParallelBlockDriver:
    @pytest.mark.parametrize("kernel", ["reference", "gram"])
    @pytest.mark.parametrize("ordering", ["hybrid", "ring_new"])
    def test_bit_parity_with_serial_block_driver(self, kernel, ordering):
        a = _matrix(40, 32)
        opts = BlockJacobiOptions(block_size=4, kernel=kernel)
        par, _ = ParallelJacobiSVD(topology="cm5", ordering=ordering,
                                   options=opts).compute(a)
        ser = block_jacobi_svd(a, ordering=ordering, options=opts)
        assert par.converged and ser.converged
        assert par.sweeps == ser.sweeps
        assert np.array_equal(par.sigma, ser.sigma)
        assert np.array_equal(par.v, ser.v)
        assert np.array_equal(par.u, ser.u)

    @pytest.mark.parametrize("kernel", ["reference", "gram"])
    @pytest.mark.parametrize("case", ["sanitize", "tall-carried",
                                      "sort-relabel"])
    def test_bit_parity_across_execution_paths(self, kernel, case):
        # every case must reproduce the plain run bit for bit, on the
        # serial driver and on the simulator: the sanitizer's write
        # records, the step stack carried between full-coverage steps (a
        # tall matrix makes it the dominant path) and the norm-ordering
        # relabel of already-orthogonal pairs (orthogonal columns in
        # ascending norm order: every met pair must be exchanged, no pair
        # rotated)
        a = _matrix(40, 32)
        knobs = {}
        if case == "sanitize":
            knobs = {"sanitize": True}
        elif case == "tall-carried":
            a = _matrix(200, 32)
        else:
            q, _ = np.linalg.qr(_matrix(40, 32))
            a = q * np.arange(1.0, 33.0)
        base = block_jacobi_svd(a, ordering="ring_new", options=BlockJacobiOptions(
            block_size=4, kernel=kernel, sanitize=False))
        opts = BlockJacobiOptions(block_size=4, kernel=kernel, **knobs)
        ser = block_jacobi_svd(a, ordering="ring_new", options=opts)
        par, _ = ParallelJacobiSVD(topology="cm5", ordering="ring_new",
                                   options=opts).compute(a)
        assert base.converged
        if case == "sort-relabel":
            assert base.sweeps == 1 and base.rotations == 0
            # the exchanges moved columns: the slots no longer hold the
            # ascending input norms
            assert not np.allclose(base.sigma_by_slot, np.arange(1.0, 33.0))
        for r in (ser, par):
            assert r.converged
            assert (r.sweeps, r.rotations) == (base.sweeps, base.rotations)
            for name in ("sigma", "u", "v", "sigma_by_slot"):
                assert np.array_equal(getattr(r, name), getattr(base, name))

    def test_block_mode_matches_lapack(self):
        a = _matrix(72, 64)
        r, rep = ParallelJacobiSVD(
            topology="cm5", ordering="hybrid",
            options=BlockJacobiOptions(block_size=8),
        ).compute(a)
        assert r.converged
        lap = np.linalg.svd(a, compute_uv=False)
        assert np.max(np.abs(r.sigma - lap)) <= 1e-11 * lap[0]
        assert rep.total_time > 0

    def test_hybrid_stays_contention_free_at_block_granularity(self):
        a = _matrix(40, 32)
        _, rep = ParallelJacobiSVD(
            topology="cm5", ordering="hybrid",
            options=BlockJacobiOptions(block_size=4),
        ).compute(a)
        assert rep.contention_free
        assert rep.max_contention == 1.0

    def test_block_size_must_divide_columns(self):
        drv = ParallelJacobiSVD(options=BlockJacobiOptions(block_size=4))
        with pytest.raises(ValueError, match="multiple of 2\\*block_size"):
            drv.compute(_matrix(20, 12))

    def test_block_size_property(self):
        assert ParallelJacobiSVD().block_size is None
        drv = ParallelJacobiSVD(options=BlockJacobiOptions(block_size=4))
        assert drv.block_size == 4


class TestTreeMachineBlockMode:
    def _machine(self, n=32, b=4, kernel="gram"):
        topo = make_topology("cm5", n // b // 2)
        machine = TreeMachine(topo)
        machine.load(_matrix(n + 8, n), kernel=kernel, block_size=b)
        return machine

    def test_load_shapes_and_slots(self):
        machine = self._machine(n=32, b=4)
        assert machine.n_slots == 8       # 8 block slots on 4 leaves
        assert machine.n_columns == 32
        assert len(machine.block_cols) == 8
        assert np.array_equal(machine.block_cols[2], np.arange(8, 12))

    def test_step_records_are_block_granular(self):
        machine = self._machine(n=32, b=4)
        sched = make_ordering("ring_new", 8).sweep(0)
        stats, rstats, worst = machine.run_sweep(sched)
        assert worst > 0
        assert len(stats.steps) == len(sched.steps)
        for rec, step in zip(stats.steps, sched.steps):
            # one "rotation" per met block pair, at most one per leaf
            assert rec.rotations == len(step.pairs)
            if step.pairs:
                assert rec.compute_time == pytest.approx(
                    machine.cost.block_compute_time(1, 40, 4, 2)
                )
            if step.moves:
                assert rec.messages > 0
                assert rec.comm_time >= machine.cost.alpha

    def test_messages_carry_b_columns(self):
        cost = CostModel()
        m, n, b = 40, 32, 4
        machine = self._machine(n=n, b=b)
        sched = make_ordering("ring_new", 8).sweep(0)
        stats, _, _ = machine.run_sweep(sched)
        moved = [r for r in stats.steps if r.messages]
        assert moved
        # every route here is a single-hop neighbour exchange; the word
        # count must be b columns of (m + n) words each
        words = b * (m + n)
        for rec in moved:
            expect = (cost.alpha + cost.hop_time * 2 * rec.max_level
                      + cost.beta * words * max(1, int(np.ceil(rec.contention))))
            assert rec.comm_time == pytest.approx(expect)

    def test_block_compute_time_scales_with_subproblem(self):
        cost = CostModel()
        # b=1 with one inner sweep degenerates to the scalar charge
        assert cost.block_compute_time(1, 50, 1, 1) == cost.compute_time(1, 50)
        assert cost.block_compute_time(1, 50, 4, 2) == pytest.approx(
            2 * 4 * 7 * cost.rotation_flops(50) * cost.flop_time
        )

    def test_load_validates_block_kernel(self):
        topo = make_topology("cm5", 4)
        machine = TreeMachine(topo)
        with pytest.raises(ValueError, match="unknown block kernel"):
            machine.load(_matrix(40, 32), kernel="fused", block_size=4)
        # "batched" is a scalar kernel only
        with pytest.raises(ValueError, match="available: reference, gram"):
            machine.load(_matrix(40, 32), kernel="batched", block_size=4)
        with pytest.raises(ValueError, match="inner_sweeps"):
            machine.load(_matrix(40, 32), kernel="gram", block_size=4,
                         inner_sweeps=0)
        with pytest.raises(ValueError, match="machine holds"):
            machine.load(_matrix(40, 16), kernel="gram", block_size=4)

    def test_scalar_mode_unchanged_by_block_api(self):
        topo = make_topology("cm5", 4)
        machine = TreeMachine(topo)
        machine.load(_matrix(16, 8), kernel="reference")
        assert machine.block_size is None
        assert machine.block_cols is None
        assert machine.n_columns == 8


class TestBlockPadding:
    def test_next_admissible_width_blocks(self):
        assert next_admissible_width(60, power_of_two=True, block_size=4) == 64
        assert next_admissible_width(33, power_of_two=True, block_size=4) == 64
        assert next_admissible_width(64, power_of_two=True, block_size=8) == 64
        assert next_admissible_width(8, power_of_two=False, block_size=4) == 8
        assert next_admissible_width(12, power_of_two=False, block_size=8) == 16
        # scalar rule unchanged
        assert next_admissible_width(6, power_of_two=True) == 8
        assert next_admissible_width(5, power_of_two=False) == 6

    def test_pad_columns_block_aware(self):
        a = _matrix(70, 60)
        padded, orig = pad_columns(a, power_of_two=True, block_size=4)
        assert orig == 60
        assert padded.shape == (70, 64)
        assert np.array_equal(padded[:, :60], a)
        assert np.all(padded[:, 60:] == 0.0)


class TestCoreApiBlockMode:
    def test_svd_block_mode_with_padding(self):
        a = _matrix(70, 60)
        r = svd(a, ordering="fat_tree", block_size=4)
        assert r.converged
        lap = np.linalg.svd(a, compute_uv=False)
        assert r.sigma.shape == (60,)
        assert np.max(np.abs(r.sigma - lap)) <= 1e-11 * lap[0]

    def test_parallel_svd_block_mode_with_padding(self):
        a = _matrix(70, 60)
        r, rep = parallel_svd(a, topology="cm5", ordering="hybrid",
                              block_size=4)
        assert r.converged
        lap = np.linalg.svd(a, compute_uv=False)
        assert r.sigma.shape == (60,)
        assert np.max(np.abs(r.sigma - lap)) <= 1e-11 * lap[0]
        assert rep.contention_free

    def test_kernel_override_applies_to_block_options(self):
        a = _matrix(40, 32)
        r = svd(a, ordering="ring_new", block_size=4, kernel="reference")
        assert r.converged

    def test_block_options_passed_directly(self):
        a = _matrix(40, 32)
        opts = BlockJacobiOptions(block_size=8, kernel="gram")
        r = svd(a, ordering="ring_new", options=opts)
        assert r.converged
        lap = np.linalg.svd(a, compute_uv=False)
        assert np.max(np.abs(r.sigma - lap)) <= 1e-11 * lap[0]

    def test_gram_without_block_size_is_an_error(self):
        a = _matrix(12, 8)
        with pytest.raises(ValueError, match="block kernel"):
            svd(a, kernel="gram")
        with pytest.raises(ValueError, match="block kernel"):
            parallel_svd(a, kernel="gram")

    def test_unknown_block_kernel_rejected(self):
        a = _matrix(12, 8)
        with pytest.raises(ValueError, match="unknown block kernel"):
            svd(a, block_size=2, kernel="fused")
