"""Plan-integrity analysis: re-elaborate compiled plans (``PLAN*``).

:mod:`repro.orderings.plan` lowers every :class:`Schedule` once and
caches the result behind a structural LRU plus a per-instance memo.
Every consumer trusts those arrays blindly — the simulator moves
columns by ``block_cols[cs.dst] = block_cols[cs.src]``, the restoration
proof reads ``trajectory[-1]``.  A corrupted lowering, a stale memo or
a fingerprint collision would therefore corrupt *every* downstream
result while each individual step still looked plausible.

This pass re-derives everything from the source schedule by independent
means and compares:

``PLAN001``
    per-step index arrays (``pairs``/``a``/``b``/``src``/``dst``) plus
    the derived leaf/levels/counters, recomputed from ``step.pairs`` /
    ``step.moves`` with fresh arithmetic;
``PLAN002``
    the slot trajectory and final layout, re-walked through
    :func:`~repro.orderings.schedule.apply_moves` — the snapshot-
    semantics oracle the lowering does *not* use;
``PLAN003``
    the cached plan (instance memo + LRU, via
    :func:`~repro.orderings.plan.compile_schedule`) against a fresh
    uncached lowering (:func:`~repro.orderings.plan.lower_schedule`):
    whatever the cache serves must be structurally identical to what
    lowering would produce right now.
"""

from __future__ import annotations

import numpy as np

from ..orderings.plan import (
    CompiledSchedule,
    compile_schedule,
    lower_schedule,
    plans_structurally_equal,
)
from ..orderings.schedule import Schedule, apply_moves
from ..util.bits import comm_level, leaf_of_slot
from .diagnostics import Diagnostic

__all__ = ["check_plan_cache", "check_plan_integrity"]


def check_plan_integrity(
    schedule: Schedule,
    plan: CompiledSchedule | None = None,
) -> list[Diagnostic]:
    """Re-elaborate ``plan`` against its source ``schedule``
    (rules ``PLAN001``/``PLAN002``).

    ``plan`` defaults to whatever :func:`compile_schedule` serves —
    i.e. the exact object every consumer would use.
    """
    if plan is None:
        plan = compile_schedule(schedule)
    out: list[Diagnostic] = []
    if plan.n != schedule.n or len(plan.steps) != len(schedule.steps):
        out.append(Diagnostic(
            rule="PLAN001",
            message=f"plan shape ({plan.n} slots, {len(plan.steps)} steps) "
                    f"disagrees with the schedule "
                    f"({schedule.n} slots, {len(schedule.steps)} steps)",
            details=(("plan_n", plan.n), ("schedule_n", schedule.n)),
        ))
        return out  # per-step comparison would be misaligned

    for step_no, (src_step, cs) in enumerate(
            zip(schedule.steps, plan.steps), start=1):
        want_pairs = np.asarray(src_step.pairs,
                                dtype=np.intp).reshape(-1, 2)
        want_src = np.asarray([m.src for m in src_step.moves],
                              dtype=np.intp)
        want_dst = np.asarray([m.dst for m in src_step.moves],
                              dtype=np.intp)
        mismatched = []
        if not np.array_equal(cs.pairs, want_pairs):
            mismatched.append("pairs")
        if not (np.array_equal(cs.a, want_pairs[:, 0])
                and np.array_equal(cs.b, want_pairs[:, 1])):
            mismatched.append("a/b views")
        if not np.array_equal(cs.src, want_src):
            mismatched.append("src")
        if not np.array_equal(cs.dst, want_dst):
            mismatched.append("dst")
        if not np.array_equal(cs.pair_leaves, want_pairs[:, 0] // 2):
            mismatched.append("pair_leaves")
        levels = [comm_level(leaf_of_slot(int(s)), leaf_of_slot(int(d)))
                  for s, d in zip(want_src, want_dst)]
        if not np.array_equal(cs.move_levels, np.asarray(levels,
                                                         dtype=np.intp)):
            mismatched.append("move_levels")
        if cs.n_remote != sum(1 for lv in levels if lv):
            mismatched.append("n_remote")
        if cs.hop_count != 2 * sum(levels):
            mismatched.append("hop_count")
        if mismatched:
            out.append(Diagnostic(
                rule="PLAN001", step=step_no,
                message="compiled arrays disagree with the source step: "
                        + ", ".join(mismatched),
                details=(("fields", tuple(mismatched)),),
            ))

    # PLAN002: independent trajectory walk through apply_moves (snapshot
    # semantics — a different algorithm than the lowering's layout walk)
    layout = list(range(schedule.n))
    for step_no, src_step in enumerate(schedule.steps, start=1):
        layout = apply_moves(layout, src_step.moves)
        if not np.array_equal(plan.trajectory[step_no - 1],
                              np.asarray(layout, dtype=np.intp)):
            out.append(Diagnostic(
                rule="PLAN002", step=step_no,
                message="compiled trajectory row disagrees with the "
                        "move phases walked independently",
                details=(("expected", tuple(layout)),
                         ("got", tuple(int(x)
                                       for x in plan.trajectory[step_no - 1]))),
            ))
    final = plan.final_layout()
    if not np.array_equal(final, np.asarray(layout, dtype=np.intp)):
        out.append(Diagnostic(
            rule="PLAN002",
            message="final layout disagrees with the sweep's move phases",
            details=(("expected", tuple(layout)),
                     ("got", tuple(int(x) for x in final))),
        ))
    return out


def check_plan_cache(schedule: Schedule) -> list[Diagnostic]:
    """Prove the cache serves the right plan for ``schedule``
    (rule ``PLAN003``).

    Compares the cached plan (instance memo or LRU hit — exactly what a
    run would get) against a fresh uncached lowering.  Any structural
    difference means a stale memo or a fingerprint collision.
    """
    served = compile_schedule(schedule)
    fresh = lower_schedule(schedule)
    if plans_structurally_equal(served, fresh):
        return []
    return [Diagnostic(
        rule="PLAN003",
        message=f"plan cache served a structurally different plan for "
                f"{schedule.name!r} (n={schedule.n}) than lowering "
                "produces now (stale instance memo or fingerprint "
                "collision)",
        details=(("schedule", schedule.name), ("n", schedule.n)),
    )]
