"""Wall-clock timing primitives for the benchmark harness.

Small and deliberately boring: monotonic clocks only
(``time.perf_counter``), explicit warmup iterations to absorb one-time
costs (allocator pools, schedule caches, BLAS thread spin-up), and the
median over repeats as the headline number — the median is robust to the
one-sided noise (interrupts, frequency ramps) that contaminates means.

:func:`pin_blas_threads` removes the other big timing confounder: an
unpinned BLAS pool whose thread count floats with the machine makes a
speedup unattributable (is it the algorithm or OpenBLAS's threading?).
The harness pins BLAS to one thread so every reported speedup is the
code's alone.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

from ..util.validation import require

__all__ = ["Timing", "median", "pin_blas_threads", "time_callable"]


#: setter/getter symbol pairs of the BLAS builds numpy links against;
#: scipy-openblas (the PyPI numpy wheels) mangles its symbols, vanilla
#: OpenBLAS does not
_BLAS_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)


def _loaded_blas_paths() -> list[str]:
    """Shared objects of the running process that look like a BLAS."""
    import os
    import re

    paths: list[str] = []
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                path = parts[-1] if parts else ""
                if (path.startswith("/")
                        and re.search(r"openblas|blis|\bmkl",
                                      os.path.basename(path), re.I)
                        and path not in paths):
                    paths.append(path)
    except OSError:
        pass
    return paths


def pin_blas_threads(n: int = 1) -> int | None:
    """Pin the BLAS thread pool to ``n`` threads; returns the previous
    count, or ``None`` when no controllable BLAS pool was found.

    Tries ``threadpoolctl`` first (portable), then talks to the loaded
    OpenBLAS directly over ctypes (the PyPI numpy wheels bundle
    scipy-openblas without installing threadpoolctl).  A missing backend
    is not an error — the caller records the outcome in the report so a
    reader can tell a pinned run from an unpinned one.
    """
    require(n >= 1, "BLAS thread count must be >= 1")
    import numpy  # noqa: F401  (ensures the BLAS library is loaded)

    try:
        import threadpoolctl
    except ImportError:
        threadpoolctl = None
    if threadpoolctl is not None:
        prev = None
        for info in threadpoolctl.threadpool_info():
            if info.get("user_api") == "blas":
                prev = info.get("num_threads")
        if prev is not None:
            threadpoolctl.threadpool_limits(limits=n, user_api="blas")
            return int(prev)
    import ctypes

    for path in _loaded_blas_paths():
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for set_name, get_name in _BLAS_SYMBOLS:
            setter = getattr(lib, set_name, None)
            getter = getattr(lib, get_name, None)
            if setter is None:
                continue
            prev = None
            if getter is not None:
                getter.restype = ctypes.c_int
                prev = int(getter())
            setter(ctypes.c_int(n))
            return prev
    return None


def median(values: list[float] | tuple[float, ...]) -> float:
    """Median without pulling in ``statistics`` (ties averaged)."""
    require(len(values) > 0, "median of an empty sample")
    s = sorted(values)
    mid = len(s) // 2
    if len(s) % 2:
        return s[mid]
    return 0.5 * (s[mid - 1] + s[mid])


@dataclass(frozen=True)
class Timing:
    """Raw repeat timings of one scenario (seconds, monotonic clock)."""

    times_s: tuple[float, ...]
    warmup: int

    @property
    def repeats(self) -> int:
        return len(self.times_s)

    @property
    def median_s(self) -> float:
        return median(self.times_s)

    @property
    def best_s(self) -> float:
        return min(self.times_s)

    @property
    def mean_s(self) -> float:
        return sum(self.times_s) / len(self.times_s)


def time_callable(
    fn: Callable[[], object], repeats: int = 5, warmup: int = 1
) -> Timing:
    """Time ``fn()`` with ``warmup`` discarded runs then ``repeats`` measured
    ones."""
    require(repeats >= 1, "need at least one measured repeat")
    require(warmup >= 0, "warmup count must be non-negative")
    for _ in range(warmup):
        fn()
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return Timing(times_s=tuple(times), warmup=warmup)
