"""Pinned and recorded process environment of a benchmark run."""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

#: repo knobs that would change which code path a public call takes;
#: they are removed before ``repro`` is imported so a run measures the
#: library defaults plus the knobs the workload passes explicitly
UNSET_VARS = (
    "REPRO_PROFILE",
    "REPRO_EXECUTOR",
    "REPRO_WORKERS",
    "REPRO_COMPUTE_BACKEND",
    "REPRO_SANITIZE",
    "REPRO_MP_START",
)

#: one BLAS thread: the load is one closed-loop caller on a small host
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

#: repository root (the benchmark lives in ``<root>/perfbench``)
ROOT = Path(__file__).resolve().parents[2]


def pin_environment() -> None:
    """Unset the ``REPRO_*`` knobs, pin BLAS to one thread and make the
    in-tree package importable.  Must run before numpy is imported (the
    BLAS thread count is read when the library loads); set-up probes
    inherit the pinned environment."""
    for var in UNSET_VARS:
        os.environ.pop(var, None)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)


def _git_sha(root: Path) -> str | None:
    """Commit of the checkout, read from ``.git`` without leaving it;
    ``None`` when the checkout is not a git repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _blas_version() -> str | None:
    import numpy as np

    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        return None


def environment_record(seed: int) -> dict:
    """What the run's numbers depend on besides the code."""
    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_version(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "git_sha": _git_sha(ROOT),
        "seed": seed,
    }
