"""The repository benchmark: the public SVD calls timed against LAPACK.

``perfbench/run.py`` is the entry point; see ``perfbench/README.md`` for
the workloads, the metrics and which layer each metric should move.

Modules:

``env``
    pins the process environment (BLAS threads, ``REPRO_*`` knobs) and
    records it;
``workloads``
    the seeded input pools, the one public call per workload, its LAPACK
    twin and the per-workload accuracy bounds;
``ledger``
    the golden model-time ledger of the ``cm5-scalar`` workload;
``probes``
    the layer probe table and the span recorder of the traced run;
``speed``
    the fixed reference task that rescales set-up time to nominal host
    speed;
``runner``
    the closed measurement loop and the metric reduction.

Nothing here imports ``repro`` at module import time: set-up time is
measured from just before ``import repro``.
"""
