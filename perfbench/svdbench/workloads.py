"""The four workloads: seeded input pools, the public call, its LAPACK twin.

Every workload times one public entry point of ``repro`` with only the
knobs that are part of its lasting interface (``block_size``,
``ordering``, ``topology``); executors, compute backends, kernels and
simulator path switches are left at their defaults.  The LAPACK twin is
``np.linalg.svd(x, full_matrices=False)``, stacked for batches.

Inputs are a pool.  Even pool indices (and even items of a batch stack)
are Gaussian; odd ones have a prescribed spectrum, geometric decay over
four decades with a cluster of near-equal leading singular values.  The
sweep count depends on the spectrum, so single-matrix workloads time
*balanced pairs* (one input of each class, pool indices ``2j`` and
``2j + 1``) and report per call: a sample is then drawn from one
distribution, not from a two-class mixture whose median would sit
between the classes.  Each input is generated from
``(seed, workload salt, pool index)`` alone, so a set-up probe can
rebuild the first input without building the pool.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

EPS = float(np.finfo(np.float64).eps)

#: accuracy class of every workload: the Gram-based block kernels and the
#: one-sided scalar kernel are both normwise backward stable, so the sigma
#: error and the residual are bounded by ``ACCURACY_C * max(m, n) * eps``
#: and ``||V^T V - I||_F``, a norm over ``n`` columns, by ``n`` times that
#: -- bounds on the class, far above today's bits, far below a wrong answer
ACCURACY_C = 64.0


@dataclass(frozen=True)
class Shape:
    m: int
    n: int
    batch: int = 0            # items per stack; 0 = one matrix per input
    block_size: int | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    salt: int
    entry: str                # "svd", "svd_batch" or "parallel_svd"
    pool: int                 # inputs in the pool (even: balanced pairs)
    shapes: dict[str, Shape]  # scale name -> shape
    knobs: dict = field(default_factory=dict)  # ordering / topology

    @property
    def paired(self) -> bool:
        """Single-matrix workloads time balanced (Gaussian, spectrum)
        pairs; a batch op already mixes both classes inside its stack."""
        return self.entry != "svd_batch"

    def matrices_per_call(self, scale: str) -> int:
        return self.shapes[scale].batch or 1

    def make_input(self, seed: int, index: int, scale: str) -> np.ndarray:
        shp = self.shapes[scale]
        rng = np.random.default_rng([seed, self.salt, index])
        if shp.batch:
            stack = rng.standard_normal((shp.batch, shp.m, shp.n))
            stack[1::2] = _spectral(rng, shp.batch // 2, shp.m, shp.n)
            return stack
        if index % 2 == 0:
            return rng.standard_normal((shp.m, shp.n))
        return _spectral(rng, 0, shp.m, shp.n)

    def make_pool(self, seed: int, scale: str) -> list[np.ndarray]:
        return [self.make_input(seed, i, scale) for i in range(self.pool)]

    def call(self, repro, x: np.ndarray, scale: str):
        """The timed public call.  Returns ``(results, report)``: the
        per-matrix ``SVDResult`` list and the parallel run report
        (``None`` off the simulated machine)."""
        fn = getattr(repro, self.entry)
        kwargs = dict(self.knobs)
        if self.shapes[scale].block_size is not None:
            kwargs["block_size"] = self.shapes[scale].block_size
        out = fn(x, **kwargs)
        if self.entry == "parallel_svd":
            result, report = out
            return [result], report
        if self.entry == "svd_batch":
            return list(out.results), None
        return [out], None

    def bounds(self, scale: str) -> dict[str, float]:
        shp = self.shapes[scale]
        tol = ACCURACY_C * max(shp.m, shp.n) * EPS
        return {"sigma": tol, "residual": tol, "orth": shp.n * tol}


def twin(x: np.ndarray) -> np.ndarray:
    """The LAPACK twin; returns the singular values (stacked for a
    batch), the factors are computed as the program computes them."""
    return np.linalg.svd(x, full_matrices=False)[1]


def _spectral(rng: np.random.Generator, count: int, m: int,
              n: int) -> np.ndarray:
    """``count`` matrices (one unstacked matrix for 0) with singular
    values ``logspace(0, -4, n)`` whose leading ``n // 8`` (at least 2)
    values are replaced by a near-equal cluster at 1."""
    lead = (count,) if count else ()
    sigma = np.logspace(0.0, -4.0, n)
    cluster = max(2, n // 8)
    sigma[:cluster] = 1.0 - 1e-9 * np.arange(cluster)
    u = np.linalg.qr(rng.standard_normal(lead + (m, n)))[0]
    v = np.linalg.qr(rng.standard_normal(lead + (n, n)))[0]
    return (u * sigma) @ np.swapaxes(v, -1, -2)


def errors(x: np.ndarray, results: list,
           s_lapack: np.ndarray) -> dict[str, np.ndarray]:
    """Per-matrix errors of one op against its LAPACK twin: normwise
    sigma error ``max|s - s_lapack| / s_max``, residual
    ``||A - U S V^T||_F / ||A||_F`` and ``||V^T V - I||_F``.  Singular
    vectors are not compared with LAPACK's: the leading values are
    clustered, so their vectors are not unique."""
    xs = x if x.ndim == 3 else x[None]
    s_ref = s_lapack if s_lapack.ndim == 2 else s_lapack[None]
    u = np.stack([r.u for r in results])
    s = np.stack([r.sigma for r in results])
    v = np.stack([r.v for r in results])
    vt = np.swapaxes(v, 1, 2)
    return {
        "sigma": np.abs(s - s_ref).max(axis=1) / s_ref[:, 0],
        "residual": (np.linalg.norm(xs - (u * s[:, None, :]) @ vt,
                                    axis=(1, 2))
                     / np.linalg.norm(xs, axis=(1, 2))),
        "orth": np.linalg.norm(vt @ v - np.eye(s.shape[1]), axis=(1, 2)),
    }


def check(x: np.ndarray, results: list, s_lapack: np.ndarray,
          bounds: dict[str, float]) -> list[str]:
    """Accuracy of one op; returns the misses (empty: the op passed).

    Every matrix must come back finite with ``converged=True`` and each
    :func:`errors` entry within the workload's bound."""
    n_in = 1 if x.ndim == 2 else len(x)
    if len(results) != n_in:
        return [f"{len(results)} results for {n_in} matrices"]
    misses: list[str] = []
    for i, r in enumerate(results):
        if not r.converged:
            misses.append(f"item {i}: converged=False")
        if not (np.isfinite(r.sigma).all() and np.isfinite(r.u).all()
                and np.isfinite(r.v).all()):
            misses.append(f"item {i}: non-finite output")
    if misses:
        return misses
    for key, values in errors(x, results, s_lapack).items():
        for i in np.flatnonzero(~(values <= bounds[key]))[:3]:
            misses.append(f"item {int(i)}: {key} error {values[i]:.3e} "
                          f"> bound {bounds[key]:.3e}")
    return misses


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="square",
        why="svd(A, block_size=16) on 144x128, the headline configuration: "
            "the Gram pivot solve dominates",
        salt=1, entry="svd", pool=8,
        shapes={"full": Shape(144, 128, block_size=16),
                "tiny": Shape(24, 16, block_size=4)}),
    Workload(
        name="tall-skinny",
        why="svd(A, block_size=8) on 4096x60 (padded to 64): Gram forming "
            "and apply GEMMs over many rows dominate, pivot solve is small",
        salt=2, entry="svd", pool=8,
        shapes={"full": Shape(4096, 60, block_size=8),
                "tiny": Shape(256, 12, block_size=2)}),
    Workload(
        name="batch-small",
        why="svd_batch of 500 24x16 matrices, block_size=4: per-item "
            "bookkeeping and the grouped pivot solve; the <=3x LAPACK target",
        salt=3, entry="svd_batch", pool=4,
        shapes={"full": Shape(24, 16, batch=500, block_size=4),
                "tiny": Shape(12, 8, batch=6, block_size=2)}),
    Workload(
        name="cm5-scalar",
        why="parallel_svd on a simulated 32-leaf CM-5, hybrid ordering, "
            "72x64 scalar: the paper's experiment; schedules and rotations",
        salt=4, entry="parallel_svd", pool=8,
        shapes={"full": Shape(72, 64), "tiny": Shape(16, 8)},
        knobs={"topology": "cm5", "ordering": "hybrid"}),
)}
