"""Unit tests for compiled schedule plans (:mod:`repro.orderings.plan`)."""

import warnings

import numpy as np
import pytest

from repro.orderings import make_ordering
from repro.orderings.plan import (
    clear_plan_cache,
    compile_schedule,
    plan_cache_stats,
)


@pytest.fixture(autouse=True)
def _fresh_cache():
    """Every test observes the cache from a clean slate."""
    clear_plan_cache()
    yield
    clear_plan_cache()


class TestLowering:
    @pytest.mark.parametrize("name", ["fat_tree", "ring_new", "hybrid", "llb"])
    @pytest.mark.parametrize("n", [8, 16])
    def test_steps_match_the_schedule(self, name, n):
        sched = make_ordering(name, n).sweep(0)
        plan = compile_schedule(sched)
        assert plan.n == n and plan.name == sched.name
        assert plan.n_steps == sched.n_steps
        for cs, step in zip(plan.steps, sched.steps):
            assert cs.n_pairs == len(step.pairs)
            if step.pairs:
                assert cs.pairs.tolist() == [list(p) for p in step.pairs]
                np.testing.assert_array_equal(cs.a, cs.pairs[:, 0])
                np.testing.assert_array_equal(cs.b, cs.pairs[:, 1])
                np.testing.assert_array_equal(cs.pair_leaves, cs.a >> 1)
            assert cs.has_moves == bool(step.moves)
            assert cs.src.tolist() == [m.src for m in step.moves]
            assert cs.dst.tolist() == [m.dst for m in step.moves]
            assert cs.moves == step.moves
            assert cs.move_levels.tolist() == [m.level for m in step.moves]
            assert cs.n_remote == sum(1 for m in step.moves if not m.is_local)
            assert cs.hop_count == 2 * sum(m.level for m in step.moves)

    @pytest.mark.parametrize("name", ["fat_tree", "ring_new", "hybrid"])
    def test_trajectory_matches_schedule_trace(self, name):
        sched = make_ordering(name, 16).sweep(0)
        plan = compile_schedule(sched)
        layout = list(range(16))
        for k, (_, _, layout) in enumerate(sched.trace(layout)):
            assert plan.trajectory[k].tolist() == layout
        assert plan.final_layout().tolist() == \
            sched.final_layout(list(range(16)))

    def test_total_messages_matches_schedule(self):
        sched = make_ordering("hybrid", 16).sweep(0)
        assert compile_schedule(sched).total_messages == \
            sched.total_messages()

    def test_trajectory_is_read_only(self):
        plan = compile_schedule(make_ordering("ring_new", 8).sweep(0))
        with pytest.raises(ValueError):
            plan.trajectory[0, 0] = 99

    def test_empty_phases_are_zero_length_arrays(self):
        plan = compile_schedule(make_ordering("fat_tree", 8).sweep(0))
        for cs in plan.steps:
            # never None: consumers index unconditionally
            assert cs.src.ndim == 1 and cs.dst.ndim == 1
            assert cs.pairs.ndim == 2 and cs.pairs.shape[1] == 2


class TestRouteMemo:
    def test_same_phase_object_returned(self):
        from repro.machine.topology import make_topology

        plan = compile_schedule(make_ordering("hybrid", 16).sweep(0))
        topo = make_topology("cm5", 8)
        k = next(i for i, cs in enumerate(plan.steps) if cs.n_remote)
        assert plan.route_phase(topo, k) is plan.route_phase(topo, k)

    def test_memoised_routing_equals_direct_routing(self):
        from repro.machine.routing import route_phase
        from repro.machine.topology import make_topology

        plan = compile_schedule(make_ordering("ring_new", 16).sweep(0))
        topo = make_topology("binary", 8)
        for i, cs in enumerate(plan.steps):
            if not cs.has_moves:
                continue
            direct = route_phase(
                topo, [(int(s), int(d)) for s, d in cs.move_leaves])
            assert plan.route_phase(topo, i).channel_loads == \
                direct.channel_loads

    def test_distinct_topologies_memoised_separately(self):
        from repro.machine.topology import make_topology

        plan = compile_schedule(make_ordering("ring_new", 16).sweep(0))
        k = next(i for i, cs in enumerate(plan.steps) if cs.n_remote)
        p_bin = plan.route_phase(make_topology("binary", 8), k)
        p_cm5 = plan.route_phase(make_topology("cm5", 8), k)
        assert p_bin is not p_cm5


class TestCache:
    def test_same_instance_hits_the_instance_memo(self):
        sched = make_ordering("fat_tree", 8).sweep(0)
        p1 = compile_schedule(sched)
        p2 = compile_schedule(sched)
        assert p1 is p2
        stats = plan_cache_stats()
        assert stats.misses == 1
        assert stats.instance_hits == 1

    def test_structural_twins_share_one_plan(self):
        # fresh Ordering objects build fresh Schedule objects of
        # identical structure — the LRU must unify them
        p1 = compile_schedule(make_ordering("ring_new", 16).sweep(0))
        p2 = compile_schedule(make_ordering("ring_new", 16).sweep(0))
        assert p1 is p2
        stats = plan_cache_stats()
        assert stats.misses == 1 and stats.hits == 1

    def test_different_structures_do_not_collide(self):
        p1 = compile_schedule(make_ordering("ring_new", 8).sweep(0))
        p2 = compile_schedule(make_ordering("fat_tree", 8).sweep(0))
        assert p1 is not p2
        assert plan_cache_stats().misses == 2

    def test_clear_resets_counters_and_entries(self):
        compile_schedule(make_ordering("ring_new", 8).sweep(0))
        clear_plan_cache()
        stats = plan_cache_stats()
        assert (stats.hits, stats.misses, stats.instance_hits, stats.size) \
            == (0, 0, 0, 0)

    def test_ten_sweep_run_lowers_exactly_once(self):
        """The regression the plan layer exists for: a 10-sweep driver
        run compiles one plan per distinct sweep structure, not one per
        sweep (fat_tree has order 1: a single structure)."""
        from repro.svd import JacobiOptions, jacobi_svd
        from repro.util.errors import ConvergenceWarning

        rng = np.random.default_rng(0)
        a = rng.standard_normal((24, 16))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConvergenceWarning)
            r = jacobi_svd(a, ordering="fat_tree",
                           options=JacobiOptions(max_sweeps=10, tol=1e-300))
        assert r.sweeps == 10
        assert plan_cache_stats().compilations == 1

    def test_ten_sweep_machine_run_lowers_exactly_once(self):
        from repro.parallel.driver import ParallelJacobiSVD
        from repro.svd import JacobiOptions
        from repro.util.errors import ConvergenceWarning

        rng = np.random.default_rng(1)
        a = rng.standard_normal((24, 16))
        driver = ParallelJacobiSVD(
            topology="perfect", ordering="fat_tree",
            options=JacobiOptions(max_sweeps=10, tol=1e-300))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConvergenceWarning)
            r, _ = driver.compute(a)
        assert r.sweeps == 10
        assert plan_cache_stats().compilations == 1


class TestCachePressure:
    """The LRU under adversarial load: eviction past capacity must not
    serve stale plans, and the counters must stay coherent."""

    @staticmethod
    def _distinct_schedules(count, n=8):
        """``count`` structurally distinct single-sweep schedules: every
        two-step sequence of single-pair rotations is a unique
        fingerprint."""
        from itertools import combinations, product

        from repro.orderings.schedule import Schedule, Step

        pairs = list(combinations(range(n), 2))  # 28 at n=8
        out = []
        for k, (p1, p2) in enumerate(product(pairs, repeat=2)):
            if k >= count:
                break
            out.append(Schedule(n=n, steps=[Step(pairs=(p1,)),
                                            Step(pairs=(p2,))],
                                name=f"pressure{k}"))
        assert len(out) == count
        return out

    def test_eviction_keeps_size_bounded_and_counters_monotone(self):
        from repro.orderings.plan import _CACHE_MAXSIZE

        count = _CACHE_MAXSIZE + 40
        prev_misses = 0
        for sched in self._distinct_schedules(count):
            compile_schedule(sched)
            stats = plan_cache_stats()
            assert stats.misses == prev_misses + 1  # all distinct: all miss
            assert stats.size <= _CACHE_MAXSIZE
            prev_misses = stats.misses
        assert plan_cache_stats().size == _CACHE_MAXSIZE

    def test_no_stale_plan_after_eviction(self):
        """Re-presenting an evicted structure (as a fresh object) must
        recompile — and the served plan must still lower *that*
        structure, not whichever entry took its cache slot."""
        from repro.orderings.plan import _CACHE_MAXSIZE, lower_schedule
        from repro.verify import check_plan_integrity

        count = _CACHE_MAXSIZE + 40
        first = self._distinct_schedules(1)[0]
        compile_schedule(first)
        for sched in self._distinct_schedules(count)[1:]:
            compile_schedule(sched)
        # `first` is long evicted; a structural twin must miss again ...
        twin = self._distinct_schedules(1)[0]
        misses_before = plan_cache_stats().misses
        plan = compile_schedule(twin)
        assert plan_cache_stats().misses == misses_before + 1
        # ... and the plan it gets must be *its* lowering, verified by
        # the independent re-elaboration pass and the cache-bypass oracle
        assert check_plan_integrity(twin, plan) == []
        assert plan.n_steps == lower_schedule(twin).n_steps

    def test_hot_entry_survives_the_flood(self):
        """LRU means *least recently used*: an entry touched between
        batches of distinct misses must stay resident."""
        from repro.orderings.plan import _CACHE_MAXSIZE

        hot = make_ordering("ring_new", 8).sweep(0)
        compile_schedule(hot)
        # enough distinct structures to force evictions past the hot
        # entry's original insertion point — but fewer than the capacity
        # *after* the refresh, so the bumped entry must survive
        flood = self._distinct_schedules(_CACHE_MAXSIZE + 20)
        half = len(flood) // 2
        for sched in flood[:half]:
            compile_schedule(sched)
        # refresh the hot entry via a fresh structural twin (LRU bump)
        compile_schedule(make_ordering("ring_new", 8).sweep(0))
        for sched in flood[half:]:
            compile_schedule(sched)
        hits_before = plan_cache_stats().hits
        compile_schedule(make_ordering("ring_new", 8).sweep(0))
        assert plan_cache_stats().hits == hits_before + 1  # still resident


class TestConsumers:
    def test_permutation_of_sweep_reads_the_plan(self):
        from repro.orderings import permutation_of_sweep

        sched = make_ordering("ring_new", 16).sweep(0)
        perm = permutation_of_sweep(sched)
        assert isinstance(perm, list)
        assert sorted(perm) == list(range(16))
        assert plan_cache_stats().misses == 1

    def test_verify_and_simulator_share_the_plan(self):
        """Linting a schedule then simulating it must not recompile."""
        from repro.machine.costmodel import CostModel
        from repro.machine.simulator import TreeMachine
        from repro.machine.topology import make_topology
        from repro.verify.capacity import check_capacity

        ordering = make_ordering("hybrid", 16)
        sched = ordering.sweep(0)
        topo = make_topology("cm5", 8)
        assert check_capacity(sched, topo) == []
        before = plan_cache_stats().misses
        machine = TreeMachine(topo, CostModel())
        rng = np.random.default_rng(3)
        machine.load(rng.standard_normal((24, 16)))
        machine.run_sweep(sched, tol=1e-12, sort=None, sweep_index=0)
        assert plan_cache_stats().misses == before


class TestSharedOrderings:
    """The solver drivers share one ordering per ``(name, n, kwargs)``,
    so repeat calls reuse its schedules instead of rebuilding them."""

    def test_repeat_parallel_calls_build_the_sweep_once(self, monkeypatch):
        from repro import parallel_svd
        from repro.orderings.hybrid import HybridOrdering

        calls = []
        original = HybridOrdering.build_sweep

        def counting(self, sweep_index):
            calls.append((self.n, sweep_index))
            return original(self, sweep_index)

        monkeypatch.setattr(HybridOrdering, "build_sweep", counting)
        a = np.random.default_rng(4).standard_normal((20, 16))
        r1, _ = parallel_svd(a, topology="cm5", ordering="hybrid")
        r2, _ = parallel_svd(a, topology="cm5", ordering="hybrid")
        assert calls == [(16, 0)]
        assert r1.sigma.tobytes() == r2.sigma.tobytes()
        stats = plan_cache_stats()
        assert stats.misses == 1 and stats.hits == 0

    def test_distinct_keys_get_distinct_instances(self):
        from repro.orderings.registry import shared_ordering

        base = shared_ordering("hybrid", 16)
        assert shared_ordering("hybrid", 16) is base
        assert shared_ordering("hybrid", 32) is not base
        assert shared_ordering("fat_tree", 16) is not base
        assert shared_ordering("hybrid", 16, n_groups=4) is not base
        assert shared_ordering("hybrid", 16, n_groups=4) is \
            shared_ordering("hybrid", 16, n_groups=4)

    def test_make_ordering_stays_fresh(self):
        from repro.orderings.registry import shared_ordering

        shared = shared_ordering("ring_new", 8)
        first = make_ordering("ring_new", 8)
        assert first is not make_ordering("ring_new", 8)
        assert first is not shared

    def test_unknown_name_still_rejected(self):
        from repro.orderings.registry import shared_ordering

        with pytest.raises(ValueError, match="unknown ordering"):
            shared_ordering("bogus", 8)

    def test_clear_drops_the_shared_orderings(self):
        from repro.svd import jacobi_svd

        a = np.random.default_rng(5).standard_normal((12, 8))
        jacobi_svd(a, ordering="ring_new")
        clear_plan_cache()
        jacobi_svd(a, ordering="ring_new")
        stats = plan_cache_stats()
        assert stats.misses == 1 and stats.hits == 0
