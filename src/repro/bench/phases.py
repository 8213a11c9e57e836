"""Phase attribution for bench scenarios (``bench --profile``).

Answers "where did the time go?" for one scenario run by splitting wall
time into three phases:

``compute``
    the rotation/block kernels — per-step solves, the fast-path gram
    step, the scalar rotation appliers;
``route``
    communication planning and execution — schedule lowering
    (``compile_schedule``), the vectorised and per-message routers;
``merge``
    result assembly — padding/stripping and ``SVDResult`` construction.

The probe monkeypatches the *consumer-visible* bindings of those
functions (both the defining module and every module that imported the
name at import time — a module-level ``from x import f`` binds a copy
the definition-site patch cannot see) with thin timing wrappers, runs
the workload once, and restores everything.  A thread-local reentrancy
guard ensures nested instrumented calls (a driver-level wrapper calling
a kernel-level one) are charged once, to the outermost phase entered.

The numbers are advisory diagnostics, not gate material: wrapper
overhead is real for very hot tiny functions, and concurrent
accumulation from ``threads`` executor workers is unsynchronised (GIL
increments; good to the precision a breakdown needs).  That is why the
breakdown rides in ``meta`` from one extra instrumented run and the
gated ``wall_time_s`` median stays uninstrumented.
"""

from __future__ import annotations

import importlib
import threading
from contextlib import contextmanager
from time import perf_counter
from typing import Iterator

__all__ = ["PHASES", "phase_breakdown", "phase_probe"]

PHASES = ("compute", "route", "merge")

#: (module, attribute) bindings charged to each phase; a binding that a
#: build does not expose is skipped, so the table can list every known
#: consumer site without version coupling
_SITES: dict[str, tuple[tuple[str, str], ...]] = {
    "compute": (
        ("repro.blockjacobi.kernel", "solve_block_step"),
        ("repro.blockjacobi.kernel", "solve_block_step_batch"),
        ("repro.blockjacobi.kernel", "fastpath_gram_step"),
        ("repro.blockjacobi.driver", "solve_block_step"),
        ("repro.blockjacobi.driver", "solve_block_step_batch"),
        ("repro.svd.rotations", "apply_step_rotations"),
        ("repro.svd.rotations", "apply_step_rotations_batched"),
        ("repro.svd.hestenes", "apply_step_rotations"),
        ("repro.svd.hestenes", "apply_step_rotations_batched"),
        ("repro.machine.simulator", "apply_step_rotations"),
        ("repro.machine.simulator", "apply_step_rotations_batched"),
    ),
    "route": (
        ("repro.orderings.plan", "compile_schedule"),
        ("repro.blockjacobi.driver", "compile_schedule"),
        ("repro.machine.simulator", "compile_schedule"),
        ("repro.machine.routing", "route_phase"),
        ("repro.machine.routing", "route_moves"),
        ("repro.machine.simulator", "route_moves"),
    ),
    "merge": (
        ("repro.parallel.distribution", "pad_columns"),
        ("repro.parallel.distribution", "strip_padding"),
        ("repro.core.api", "pad_columns"),
        ("repro.core.api", "strip_padding"),
        ("repro.core.result", "SVDResult"),
        ("repro.blockjacobi.driver", "SVDResult"),
        ("repro.svd.hestenes", "SVDResult"),
        ("repro.parallel.driver", "SVDResult"),
    ),
}


@contextmanager
def phase_probe() -> Iterator[dict[str, float]]:
    """Instrument every known site; yields the accruing totals dict.

    The yielded mapping has one seconds-entry per phase; it keeps
    filling until the context exits, at which point all original
    bindings are restored (also on error).  Same-function bindings in
    several modules get independent wrappers around the same original,
    so each call is charged exactly once wherever it was resolved from.
    """
    totals: dict[str, float] = {phase: 0.0 for phase in PHASES}
    tls = threading.local()

    def wrap(fn, phase: str):
        def wrapper(*args, **kwargs):
            if getattr(tls, "depth", 0):
                return fn(*args, **kwargs)
            tls.depth = 1
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tls.depth = 0
                totals[phase] += perf_counter() - t0
        wrapper.__wrapped__ = fn
        return wrapper

    saved: list[tuple[object, str, object]] = []
    try:
        for phase, sites in _SITES.items():
            for module_name, attr in sites:
                try:
                    module = importlib.import_module(module_name)
                except ImportError:  # pragma: no cover - optional layer
                    continue
                fn = getattr(module, attr, None)
                if fn is None or not callable(fn):
                    continue
                saved.append((module, attr, fn))
                setattr(module, attr, wrap(fn, phase))
        yield totals
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)


def phase_breakdown(work) -> dict[str, float]:
    """Run ``work()`` once instrumented; returns the breakdown record.

    ``{"compute_s", "route_s", "merge_s", "other_s", "total_s"}`` —
    ``other_s`` is the un-attributed remainder (driver control flow,
    convergence checks), clamped at zero.
    """
    t0 = perf_counter()
    with phase_probe() as totals:
        work()
    total = perf_counter() - t0
    out = {f"{phase}_s": totals[phase] for phase in PHASES}
    out["other_s"] = max(0.0, total - sum(totals[p] for p in PHASES))
    out["total_s"] = total
    return out
