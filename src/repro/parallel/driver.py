"""Distributed one-sided Jacobi SVD on the simulated tree machine.

``ParallelJacobiSVD`` is the parallel counterpart of
:func:`repro.svd.jacobi_svd`: the same sweep loop, but every phase runs
on a :class:`~repro.machine.TreeMachine`, producing a full execution
timeline alongside the decomposition.  Convergence detection models the
tree reduction a real machine would perform (an all-reduce over the
leaves costs one up-and-down traversal, charged per sweep).

Passing a :class:`~repro.blockjacobi.BlockJacobiOptions` (or
``block_size`` through :func:`repro.parallel_svd`) switches the driver
to *block* mode: the schedule runs on the ``n / b`` column blocks, each
message carries ``b`` columns, and the machine solves the local
``2b``-column subproblems with the chosen block kernel — the parallel
counterpart of :func:`repro.blockjacobi.block_jacobi_svd`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from ..blockjacobi.driver import BlockJacobiOptions
from ..core.result import SVDResult, SweepRecord
from ..machine.costmodel import CostModel
from ..machine.simulator import TreeMachine
from ..machine.stats import SweepStats
from ..machine.topology import TreeTopology, make_topology
from ..orderings.base import Ordering
from ..orderings.registry import make_ordering
from ..svd.convergence import off_norm
from ..svd.hestenes import JacobiOptions
from ..util.errors import ConvergenceWarning
from ..util.validation import require

__all__ = ["ParallelJacobiSVD", "ParallelRunReport"]


@dataclass
class ParallelRunReport:
    """Execution telemetry of a parallel run.

    ``recovery_time`` aggregates everything fault handling cost on top
    of the fault-free timeline: checkpoints, rollbacks and remaps (the
    transport's per-message retries/backoffs are already inside the
    step records' comm time).
    """

    sweep_stats: list[SweepStats] = field(default_factory=list)

    @property
    def total_time(self) -> float:
        return (sum(s.total_time for s in self.sweep_stats)
                + self.reduction_time + self.recovery_time)

    @property
    def compute_time(self) -> float:
        return sum(s.compute_time for s in self.sweep_stats)

    @property
    def comm_time(self) -> float:
        return sum(s.comm_time for s in self.sweep_stats)

    @property
    def max_contention(self) -> float:
        return max((s.max_contention for s in self.sweep_stats), default=0.0)

    @property
    def contention_free(self) -> bool:
        return all(s.contention_free for s in self.sweep_stats)

    @property
    def total_retries(self) -> int:
        """Transport retransmission attempts across the whole run."""
        return sum(s.total_retries for s in self.sweep_stats)

    # one allreduce (up + down the tree) per sweep for the convergence flag
    reduction_time: float = 0.0
    # checkpoint/rollback/remap overhead of fault recovery
    recovery_time: float = 0.0
    # sweeps that were rolled back and retried
    rollbacks: int = 0


class ParallelJacobiSVD:
    """One-sided Jacobi SVD driver over a simulated tree machine."""

    def __init__(
        self,
        topology: TreeTopology | str = "cm5",
        ordering: Ordering | str = "hybrid",
        cost_model: CostModel | None = None,
        options: JacobiOptions | BlockJacobiOptions | None = None,
        **ordering_kwargs: object,
    ):
        self._topology_spec = topology
        self._ordering_spec = ordering
        self._ordering_kwargs = ordering_kwargs
        self.cost_model = cost_model or CostModel()
        self.options = options or JacobiOptions()

    @property
    def block_size(self) -> int | None:
        """Columns per schedule unit, or ``None`` in scalar mode."""
        if isinstance(self.options, BlockJacobiOptions):
            return self.options.block_size
        return None

    def _build(self, n: int) -> tuple[TreeMachine, Ordering]:
        b = self.block_size or 1
        require(n % (2 * b) == 0,
                f"n={n} must be a multiple of 2*block_size={2 * b} "
                "(two blocks per leaf)")
        n_units = n // b
        n_leaves = n_units // 2
        topo = (
            self._topology_spec
            if isinstance(self._topology_spec, TreeTopology)
            else make_topology(self._topology_spec, n_leaves)
        )
        require(topo.n_leaves == n_leaves,
                f"topology has {topo.n_leaves} leaves, matrix needs {n_leaves}")
        ordering = (
            self._ordering_spec
            if isinstance(self._ordering_spec, Ordering)
            else make_ordering(self._ordering_spec, n_units, **self._ordering_kwargs)
        )
        require(ordering.n == n_units, "ordering size mismatch")
        return TreeMachine(topo, self.cost_model), ordering

    def compute(
        self, a: np.ndarray, compute_uv: bool = True,
        fault_plan=None,
    ) -> tuple[SVDResult, ParallelRunReport]:
        """Run the distributed SVD; returns (decomposition, telemetry).

        With a :class:`~repro.faults.FaultPlan` the run executes under
        fault injection: a checkpoint is taken at every sweep boundary,
        the ack/seq transport recovers message faults, detected damage
        (non-finite sentinels, crashed leaves) rolls the sweep back —
        remapping dead leaves onto their siblings — and an exhausted
        recovery budget yields an *explicit* failed result
        (``converged=False`` plus an ``unrecoverable`` fault event),
        never silently wrong output.
        """
        a = np.asarray(a, dtype=np.float64)
        m, n = a.shape
        # n > m is allowed for zero-padded inputs (at most m nonzero sigma)
        machine, ordering = self._build(n)
        opts = self.options
        block = isinstance(opts, BlockJacobiOptions)
        executor = None
        # fault-injected runs never arm the sanitizer: injected damage is
        # *meant* to reach the recovery machinery (rollback, remap), not
        # to abort the process, and the fault loop runs the same
        # invariant detectors itself
        sanitizer = None
        if fault_plan is None:
            if block:
                sanitizer = opts.make_sanitizer()
            else:
                from ..verify.sanitize import RuntimeSanitizer, sanitize_enabled

                if sanitize_enabled():
                    sanitizer = RuntimeSanitizer()
        if block:
            executor = opts.make_executor()
            machine.load(a, compute_v=compute_uv, kernel=opts.kernel,
                         block_size=opts.block_size,
                         inner_sweeps=opts.inner_sweeps,
                         executor=executor, sanitizer=sanitizer)
        else:
            machine.load(a, compute_v=compute_uv, kernel=opts.kernel)
        if sanitizer is not None:
            sanitizer.arm_reference(machine.X)
        try:
            return self._compute_loaded(
                a, machine, ordering, opts, block, compute_uv, fault_plan,
                sanitizer)
        finally:
            if executor is not None:
                executor.close()

    def _compute_loaded(
        self, a, machine, ordering, opts, block, compute_uv, fault_plan,
        sanitizer=None,
    ) -> tuple[SVDResult, ParallelRunReport]:
        """The sweep loop of :meth:`compute` on a loaded machine."""
        m, n = a.shape
        injector = None
        watchdog = None
        if fault_plan is not None:
            from ..faults import ConvergenceWatchdog, FaultInjector

            injector = FaultInjector(fault_plan, machine.topology.n_leaves)
            machine.install_faults(injector)
            watchdog = ConvergenceWatchdog()
        report = ParallelRunReport()
        history: list[SweepRecord] = []
        converged = False
        failed = False
        sweeps = 0
        allreduce = (
            self.cost_model.alpha
            + 2 * self.cost_model.hop_time * max(1, machine.topology.n_levels)
        )
        for sweep in range(opts.max_sweeps):
            sched = ordering.sweep(sweep)
            if injector is None:
                sweep_stats, rstats, worst = machine.run_sweep(
                    sched, tol=opts.tol, sort=opts.sort, sweep_index=sweep
                )
            else:
                outcome = self._run_sweep_recovered(
                    machine, sched, sweep, opts, injector, report)
                if outcome is None:
                    # recovery budget exhausted; machine state is the
                    # last checkpoint — fail explicitly below
                    failed = True
                    sweeps = sweep + 1
                    break
                sweep_stats, rstats, worst = outcome
            report.sweep_stats.append(sweep_stats)
            report.reduction_time += allreduce
            sweeps = sweep + 1
            if sanitizer is not None:
                sanitizer.check_sweep(machine.X, machine.V, sweep=sweeps)
            sweep_off = off_norm(machine.X)
            history.append(
                SweepRecord(
                    sweep=sweeps,
                    off_norm=sweep_off,
                    max_rel_gamma=worst,
                    rotations=rstats.applied,
                    skipped=rstats.skipped,
                )
            )
            if watchdog is not None:
                stall = watchdog.observe(sweeps, sweep_off)
                if stall is not None:
                    from ..faults import FaultEvent

                    injector.record(FaultEvent(
                        "recovery", "watchdog", sweep, 0, detail=stall))
            # block mode matches the serial block driver: the local
            # solver leaves every met pair sorted, so no exchange check
            if worst <= opts.tol and (block or rstats.exchanged == 0):
                converged = True
                break
        if not converged and watchdog is not None:
            watchdog.escalate(opts.max_sweeps)
        if not converged:
            reason = ("fault recovery exhausted" if failed
                      else f"sweep budget ({opts.max_sweeps}) exhausted")
            warnings.warn(
                f"parallel Jacobi SVD did not converge: {reason}; "
                "the result is a partial decomposition "
                "(check result.converged)",
                ConvergenceWarning, stacklevel=2)

        X = machine.X
        V = machine.V
        norms = np.linalg.norm(X, axis=0)
        sigma_by_slot = norms.copy()
        scale = max(1.0, float(norms.max(initial=0.0)))
        diffs = np.diff(norms)
        if np.all(diffs <= 1e-9 * scale):
            emerged = "desc"
        elif np.all(diffs >= -1e-9 * scale):
            emerged = "asc"
        else:
            emerged = None
        order = np.argsort(-norms, kind="stable")
        sigma = norms[order]
        rank_tol = getattr(opts, "rank_tol", 1e-12)
        rank = int(np.count_nonzero(sigma > rank_tol * max(scale, 1e-300)))
        if compute_uv:
            u = np.zeros((m, n))
            nz = sigma > 0
            cols = X[:, order]
            u[:, nz] = cols[:, nz] / sigma[nz]
            v = V[:, order]
        else:
            u = np.zeros((m, 0))
            v = np.zeros((n, 0))
        result = SVDResult(
            u=u,
            sigma=sigma,
            v=v,
            rank=rank,
            converged=converged,
            sweeps=sweeps,
            rotations=sum(h.rotations for h in history),
            sigma_by_slot=sigma_by_slot,
            emerged_sorted=emerged,
            history=history,
            fault_events=list(injector.log) if injector is not None else [],
            watchdog=watchdog.message if watchdog is not None else None,
        )
        return result, report

    def _run_sweep_recovered(
        self,
        machine: TreeMachine,
        sched,
        sweep: int,
        opts,
        injector,
        report: ParallelRunReport,
    ):
        """One sweep under fault injection: checkpoint, run, recover.

        The sweep is retried from its boundary checkpoint up to
        ``plan.max_sweep_attempts`` times.  Detected damage — a kernel's
        non-finite sentinel, the sweep-end finiteness heartbeat, or a
        transport-reported dead leaf — triggers rollback; leaves the
        injector killed are then remapped onto their siblings (graceful
        degradation) and the degraded schedule re-validated.  Returns
        ``(stats, rstats, worst)``, or ``None`` when recovery is
        exhausted (machine state is left at the checkpoint).
        """
        from ..faults import (
            FaultEvent,
            LeafFailure,
            UnrecoverableFault,
            restore_checkpoint,
            take_checkpoint,
        )
        from ..util.errors import NumericalBreakdown

        cost = machine.cost
        cp = take_checkpoint(machine)
        report.recovery_time += cost.checkpoint_time(cp.words)
        # the sweep only right-multiplies X by orthogonal rotations, so
        # ||X||_F is an invariant; measurable drift means a finite payload
        # corruption (scale/zero) slipped past the finiteness sentinels
        ref_norm = float(np.linalg.norm(cp.X))
        last_error: Exception | None = None
        for attempt in range(injector.max_sweep_attempts):
            try:
                stats, rstats, worst = machine.run_sweep(
                    sched, tol=opts.tol, sort=opts.sort, sweep_index=sweep)
                # sweep-end heartbeat: catches silent corruption (and
                # crashes) that no kernel sentinel met mid-sweep
                machine.require_finite()
                drift = abs(float(np.linalg.norm(machine.X)) - ref_norm)
                if drift > 1e-9 * max(ref_norm, 1.0):
                    raise NumericalBreakdown(
                        f"||X||_F drifted by {drift:.3e} over sweep {sweep} "
                        "(orthogonal invariant violated: silent payload "
                        "corruption)")
                return stats, rstats, worst
            except (NumericalBreakdown, LeafFailure) as exc:
                last_error = exc
                restore_checkpoint(machine, cp)
                rb = cost.rollback_time(cp.words)
                report.recovery_time += rb
                report.rollbacks += 1
                injector.record(FaultEvent(
                    "recovery", "rollback", sweep, 0, attempt=attempt,
                    time_charged=rb, detail=str(exc)))
                try:
                    self._degrade_dead_leaves(
                        machine, sched, sweep, injector, report)
                except UnrecoverableFault as exc2:
                    injector.record(FaultEvent(
                        "recovery", "unrecoverable", sweep, 0,
                        attempt=attempt, detail=str(exc2)))
                    return None
            except UnrecoverableFault as exc:
                restore_checkpoint(machine, cp)
                report.recovery_time += cost.rollback_time(cp.words)
                injector.record(FaultEvent(
                    "recovery", "unrecoverable", sweep, 0, detail=str(exc)))
                return None
        injector.record(FaultEvent(
            "recovery", "unrecoverable", sweep, 0,
            attempt=injector.max_sweep_attempts,
            detail=f"sweep still failing after "
                   f"{injector.max_sweep_attempts} attempts: {last_error}"))
        return None

    def _degrade_dead_leaves(
        self, machine: TreeMachine, sched, sweep: int, injector, report,
    ) -> None:
        """Remap every injector-dead leaf not yet degraded onto its
        sibling, charging and logging each remap, then re-validate the
        schedule for the degraded host map."""
        from ..faults import FaultEvent, validate_degraded

        pending = sorted(injector.dead - machine.dead_leaves)
        if not pending:
            return
        m = machine.X.shape[0]
        ncols = machine.X.shape[1]
        b = machine.block_size or 1
        # a leaf hosts two slots of b columns each (plus their V rows)
        words = 2 * b * (m + (ncols if machine.V is not None else 0))
        for leaf in pending:
            host, moved = machine.degrade_leaf(leaf)
            rt = machine.cost.remap_time(words)
            report.recovery_time += rt
            injector.record(FaultEvent(
                "crash", "remap", sweep, 0, leaf=leaf, time_charged=rt,
                detail=f"leaf {leaf} rehosted on leaf {host} "
                       f"(logical leaves {moved})"))
        degraded = validate_degraded(machine, sched)
        injector.record(FaultEvent(
            "recovery", "remap", sweep, 0,
            detail=degraded.describe()))
