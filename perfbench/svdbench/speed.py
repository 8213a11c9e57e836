"""The host's current speed, from a fixed reference task.

On a shared host the whole machine slows down and speeds up by up to
1.7x for minutes at a time, and process time moves with wall time (the
slowdown is contention for the core, not preemption).  The speed metrics
of a run are ratios to a LAPACK twin timed beside each call; set-up
time, which is one cold import and call per process, cannot have a twin
of its own.  Instead each set-up measurement is bracketed by two runs of
:func:`reference_seconds` and rescaled to the speed at which the
reference takes :data:`NOMINAL_S`, so ``setup_s`` stays in seconds but
no longer follows the host.

The task mixes the two kinds of work set-up does: interpreter work
(compile and execute a generated module, call its functions; ``import``
unmarshals and executes module bodies) and small stacked LAPACK and GEMM
calls (the first call of a workload).  It uses nothing from ``repro``,
so no change to the program moves it.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

#: reference time of :func:`reference_seconds` on an unloaded 2-core
#: x86-64 host (OpenBLAS, one thread); set-up seconds are reported at
#: this speed
NOMINAL_S = 0.065

_FUNCS = 300
_SOURCE = "\n".join(
    f"def f{i}(a, b=1):\n"
    f"    c = [a * k + b for k in range({i % 7 + 2})]\n"
    f"    return {{'k': c, 'n': len(c)}}\n"
    for i in range(_FUNCS))
_STACK = np.random.default_rng(7).standard_normal((48, 24, 16))


def reference_seconds() -> float:
    """Wall time of the fixed reference task (about ``NOMINAL_S``)."""
    t = perf_counter()
    for _ in range(2):
        ns: dict = {}
        exec(compile(_SOURCE, "<reference>", "exec"), ns)
        for i in range(_FUNCS):
            ns[f"f{i}"](i)
    for _ in range(8):
        np.linalg.svd(_STACK, full_matrices=False)
        _STACK @ np.swapaxes(_STACK, 1, 2)
    return perf_counter() - t


def at_nominal_speed(seconds: float, reference: float) -> float:
    """``seconds`` measured while the reference took ``reference``,
    rescaled to the speed at which it takes :data:`NOMINAL_S`."""
    return seconds * NOMINAL_S / reference
