"""Static proof of the simulator fast path's write-set projection (``EXEC006``).

The vectorised fast path (:meth:`~repro.machine.TreeMachine.run_sweep`)
never moves columns during a sweep: each step gathers and scatters the
*content* rows named by the compiled plan's
:class:`~repro.orderings.plan.FastPathPlan`, and the sweep permutation
is applied once at the end.  Its bit-identity with the event-driven
path rests on facts about that projection which the simulator itself
never checks; this module proves them from the plan alone.
"""

from __future__ import annotations

import numpy as np

from ..orderings.plan import (CompiledSchedule, FastPathPlan,
                              compile_schedule)
from ..orderings.schedule import Schedule
from .diagnostics import Diagnostic

__all__ = ["check_fastpath_projection"]


def check_fastpath_projection(schedule: Schedule | CompiledSchedule,
                              fastpath: FastPathPlan | None = None
                              ) -> list[Diagnostic]:
    """Prove the simulator fast path's write-set projection sound
    (rule ``EXEC006``).

    The fast path addresses *contents*, not slots: each step's stacked
    kernel call gathers and scatters the rows named by
    ``FastPathPlan.content_pairs``, and the sweep permutation is
    applied once at the end from ``final_layout``.  Three facts make
    that bit-safe, all provable from the plan alone:

    1. a step's content rows are pairwise distinct — a repeated row
       would be a write-write hazard inside one stacked scatter;
    2. the projection agrees with the event path — ``content_pairs[i]``
       must equal the trajectory replay ``layout[i-1][pairs[i]]`` the
       per-step fancy assignments would produce;
    3. the sweep permutation really is one — ``final_layout`` (and its
       memoised plain-int twin) must be a bijection of the slots, or
       the end-of-sweep materialise loses or duplicates a column.

    ``fastpath`` defaults to the plan's own derived bundle; corruption
    tests pass a tampered one to prove the rule fires.
    """
    plan = schedule if isinstance(schedule, CompiledSchedule) \
        else compile_schedule(schedule)
    fp = plan.fastpath() if fastpath is None else fastpath
    out: list[Diagnostic] = []
    layout = np.arange(plan.n, dtype=np.intp)
    for step_no, (cs, pc) in enumerate(zip(plan.steps, fp.content_pairs),
                                       start=1):
        rows = pc.reshape(-1)
        uniq, counts = np.unique(rows, return_counts=True)
        dup = uniq[counts > 1]
        if len(dup):
            out.append(Diagnostic(
                rule="EXEC006", step=step_no,
                message=f"fast-path step writes content row(s) "
                        f"{[int(x) for x in dup]} more than once "
                        "(stacked-scatter write-write hazard)",
                details=(("rows", tuple(int(x) for x in dup)),),
            ))
        expected = layout[cs.pairs] if cs.n_pairs else cs.pairs
        if pc.shape != expected.shape or not np.array_equal(pc, expected):
            out.append(Diagnostic(
                rule="EXEC006", step=step_no,
                message="fast-path content pairs disagree with the event "
                        "path's trajectory replay of the slot pairs",
                details=(("got", tuple(map(tuple, pc.tolist()))),
                         ("expected", tuple(map(tuple, expected.tolist())))),
            ))
        layout = plan.trajectory[step_no - 1]
    final = np.asarray(fp.final_layout)
    if len(final) != plan.n or \
            not np.array_equal(np.sort(final), np.arange(plan.n)):
        out.append(Diagnostic(
            rule="EXEC006", step=None,
            message=f"fast-path final layout is not a permutation of "
                    f"{plan.n} slot(s) — the end-of-sweep materialise "
                    "would lose or duplicate columns",
            details=(("final_layout", tuple(int(x) for x in final)),),
        ))
    elif tuple(int(x) for x in final) != tuple(fp.final_list):
        out.append(Diagnostic(
            rule="EXEC006", step=None,
            message="fast-path memoised final_list disagrees with "
                    "final_layout (stale permutation memo)",
            details=(("final_list", tuple(fp.final_list)),),
        ))
    return out
