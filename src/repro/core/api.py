"""Top-level convenience API.

``svd`` is the one-call entry point a downstream user wants: pick an
ordering (default: the paper's fat-tree ordering), pad to an admissible
width if needed, run the one-sided Jacobi iteration, strip the padding.
``parallel_svd`` does the same on a simulated tree machine and returns
the execution telemetry alongside the decomposition.  Both accept
``block_size=b`` to run at block granularity (``b`` columns per
schedule unit, BLAS-3 gram kernel by default).
"""

from __future__ import annotations

import dataclasses
import os
import time
import warnings
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from ..blockjacobi.driver import (BlockJacobiOptions, block_jacobi_svd,
                                  block_jacobi_svd_batch)
from ..blockjacobi.kernel import BLOCK_KERNELS
from ..machine.costmodel import CostModel
from ..orderings.base import Ordering
from ..orderings.plan import PlanCacheStats, plan_cache_stats
from ..parallel.distribution import pad_columns, strip_padding
from ..parallel.driver import ParallelJacobiSVD, ParallelRunReport
from ..svd.hestenes import JacobiOptions, jacobi_svd
from ..util.bits import is_power_of_two
from ..util.errors import ConvergenceWarning
from ..util.validation import (as_float_matrix, as_float_stack, require,
                               require_finite)
from .result import BatchResult, SVDResult

if TYPE_CHECKING:  # pragma: no cover
    from ..faults.plan import FaultPlan

__all__ = ["parallel_svd", "svd", "svd_batch"]


def _needs_power_of_two(ordering: str | Ordering) -> bool:
    name = ordering if isinstance(ordering, str) else ordering.name
    return name in ("fat_tree", "llb", "hybrid")


def _profile_fill(
    profile: "str | Mapping | None",
    m: int,
    n: int,
    batch: int | None,
    default_ordering: str,
    ordering: "str | Ordering | None",
    options,
    kernel: str | None,
    block_size: int | None,
):
    """Fill unset knobs from a tuned profile; resolve ordering defaults.

    ``profile`` is a path or an already-loaded mapping; ``None`` falls
    back to ``$REPRO_PROFILE`` (unset → no profile, pure defaults).
    Only knobs the caller left at ``None`` are filled — an explicit
    argument always wins — and the fill is conservative where knobs
    couple: the kernel family (kernel + block size) fills only when the
    caller set *neither*.  An explicit ``options`` object is a
    complete configuration, so the profile then fills nothing but the
    ordering.  The tune import is lazy (``repro.tune`` times this
    module's entry points — a module-level import would be a cycle).
    """
    if profile is None:
        profile = os.environ.get("REPRO_PROFILE", "").strip() or None
    if profile is not None:
        from ..tune.profile import profile_options

        filled = profile_options(profile, m, n, batch)
        if filled:
            if ordering is None:
                ordering = filled["ordering"]
            if options is None and kernel is None and block_size is None:
                kernel = filled["kernel"]
                block_size = filled["block_size"]
    if ordering is None:
        ordering = default_ordering
    return ordering, kernel, block_size


def _with_kernel(
    options: JacobiOptions | None, kernel: str | None
) -> JacobiOptions | None:
    if kernel is None:
        return options
    return dataclasses.replace(options or JacobiOptions(), kernel=kernel)


def _block_options(
    options: JacobiOptions | BlockJacobiOptions | None,
    kernel: str | None,
    block_size: int | None,
) -> BlockJacobiOptions | None:
    """Resolve the block-mode options, or ``None`` for scalar mode.

    Block mode is requested by ``block_size`` or by passing a
    :class:`BlockJacobiOptions` directly; scalar ``JacobiOptions`` carry
    their shared knobs (tol, max_sweeps, sort) over.  A block-only
    kernel (``"gram"``) without a block size is a usage error.
    """
    if block_size is None and not isinstance(options, BlockJacobiOptions):
        require(kernel != "gram",
                "kernel='gram' is a block kernel; pass block_size=...")
        return None
    if isinstance(options, BlockJacobiOptions):
        base = options
        if block_size is not None and block_size != base.block_size:
            base = dataclasses.replace(base, block_size=block_size)
    else:
        shared = {}
        if options is not None:
            shared = {"tol": options.tol, "max_sweeps": options.max_sweeps,
                      "sort": options.sort}
        base = BlockJacobiOptions(block_size=block_size, **shared)
    if kernel is not None:
        require(kernel in BLOCK_KERNELS,
                f"unknown block kernel {kernel!r}; "
                f"available: {', '.join(BLOCK_KERNELS)}")
        base = dataclasses.replace(base, kernel=kernel)
    return base


#: inputs whose peak magnitude lies outside ``[2^-255, 2^255]`` are
#: solved at an exact power-of-two scale (see :func:`_prescale_exponents`)
_SAFE_LO, _SAFE_HI = 2.0 ** -255, 2.0 ** 255


def _prescale_exponents(stack: np.ndarray) -> np.ndarray:
    """Per-matrix exponents ``e`` of a ``(B, m, n)`` stack: ``0`` when
    the matrix's peak ``max|a|`` lies inside the safe window (or the
    matrix is zero), else the ``e`` with ``2^-e * peak`` in ``[1/2, 1)``.

    As in LAPACK's xLASCL, scaling by a power of two is exact barring
    underflow, so an out-of-window input is solved as the same working
    matrix as every ``2^k`` multiple of it: ``sigma(2^k a) == 2^k
    sigma(a)`` bit for bit, with the same U and V, and the Gram products
    at the peak can neither overflow nor underflow.  In-window inputs
    take the unscaled path, bit for bit."""
    peaks = np.abs(stack).reshape(len(stack), -1).max(axis=1, initial=0.0)
    inside = (peaks == 0.0) | ((peaks >= _SAFE_LO) & (peaks <= _SAFE_HI))
    return np.where(inside, 0, np.frexp(peaks)[1])


def _unscale(result: SVDResult, e: int) -> SVDResult:
    """Carry a prescaled solve's singular values back to the input's
    scale (the factors U and V are scale-free)."""
    if e:
        result.sigma = np.ldexp(result.sigma, e)
        result.sigma_by_slot = np.ldexp(result.sigma_by_slot, e)
    return result


def _flag_nonfinite(results: list[SVDResult], where: str) -> None:
    """Output postcondition: a result whose sigma, U or V holds a
    non-finite entry is never labelled converged (it is flipped to
    ``converged=False`` with a :class:`ConvergenceWarning`)."""
    bad = [i for i, r in enumerate(results) if r.converged and not all(
        np.isfinite(x).all() for x in (r.sigma, r.u, r.v))]
    for i in bad:
        results[i].converged = False
    if bad:
        what = (f"{len(bad)} of {len(results)} results (first: item "
                f"{bad[0]})" if len(results) > 1 else "the result")
        warnings.warn(
            f"{where}: {what} holds non-finite entries in sigma, U or V "
            "(over- or underflow); reported as not converged",
            ConvergenceWarning, stacklevel=3)


def _untranspose(result: SVDResult, n: int) -> SVDResult:
    """The SVD of a wide ``A`` (``m < n``) from that of its tall
    transpose: ``A^T = U diag(s) V^T`` gives ``A = V diag(s) U^T``,
    reported in ``A``'s shapes.  ``sigma`` gets the ``n - m`` exactly
    zero singular values appended, ``u`` (``m x n``) is ``V`` on the
    nonzero singular values and zero elsewhere (the drivers'
    convention), and ``v`` (``n x n``) is ``U``'s columns on the nonzero
    singular values completed to an orthonormal basis."""
    m = len(result.sigma)
    result.sigma = np.concatenate([result.sigma, np.zeros(n - m)])
    nz = result.sigma > 0  # sorted descending: a prefix
    u = np.zeros((m, n))
    u[:, nz] = result.v[:, nz[:m]]
    basis = result.u[:, nz[:m]]
    q, _ = np.linalg.qr(basis, mode="complete")
    result.u = u
    result.v = np.hstack([basis, q[:, basis.shape[1]:]])
    return result


def svd(
    a: np.ndarray,
    ordering: "str | Ordering | None" = None,
    options: JacobiOptions | BlockJacobiOptions | None = None,
    kernel: str | None = None,
    block_size: int | None = None,
    fault_plan: "FaultPlan | None" = None,
    profile: "str | Mapping | None" = None,
    **ordering_kwargs: object,
) -> SVDResult:
    """One-sided Jacobi SVD of an ``m x n`` matrix ``a`` under a parallel ordering.

    Matrices whose width is not admissible for the chosen ordering
    (power of two for the tree orderings, even otherwise) are transparently
    zero-padded and the result stripped back to ``n`` columns.

    ``kernel`` (``"reference"`` or ``"batched"``) overrides the rotation
    kernel of ``options``; the batched kernel fuses each parallel step
    into a single gathered 2x2 block transform and is the fast path.

    ``block_size=b`` switches to the block Jacobi driver: the ordering
    runs on ``b``-column blocks and the local subproblems are solved by
    a block kernel (``"gram"`` or ``"reference"``; the BLAS-3 gram
    kernel by default).  Admissibility and padding are then decided at
    block granularity.

    Block mode runs each schedule step serially on the host; the
    leaves' concurrency is what :func:`parallel_svd` charges to the
    simulated machine's timeline.

    ``fault_plan`` (a :class:`~repro.faults.FaultPlan`) runs the
    decomposition on the simulated tree machine under fault injection
    and recovery; the telemetry is discarded and only the result
    returned (use :func:`parallel_svd` to keep the run report).

    ``profile`` (a ``PROFILE_<host>.json`` path or loaded mapping; also
    ``$REPRO_PROFILE``) fills every knob left unset from the nearest
    tuned entry of a ``repro-harness tune`` profile — explicit
    arguments always win, and with no profile the ordering defaults to
    the paper's ``"fat_tree"``.

    A wide input (``m < n``) is solved as its tall transpose, since
    ``sigma(A) = sigma(A^T)``; the result keeps ``A``'s shapes (see
    :func:`_untranspose`), and ``history``/``sigma_by_slot`` describe
    the transposed run (so does the machine run of ``fault_plan``).

    Keywords beyond the named ones go to the ordering's constructor
    (``n_groups`` for ``"hybrid"``, ``skip_duplicate`` for ``"llb"``);
    an ordering without options raises :class:`TypeError` on any.

    An input whose peak magnitude lies outside ``[2^-255, 2^255]`` is
    solved at an exact power-of-two scale and sigma scaled back, so
    inputs near the over- or underflow thresholds keep their accuracy
    (``history`` then reports the off-norms of the scaled matrix).  A
    result whose sigma, U or V still holds a non-finite entry is
    reported with ``converged=False`` and a :class:`ConvergenceWarning`.
    """
    a = as_float_matrix(a, "a")
    ordering, kernel, block_size = _profile_fill(
        profile, a.shape[0], a.shape[1], None, "fat_tree", ordering,
        options, kernel, block_size)
    if fault_plan is not None:
        # fault injection lives in the machine layer; run there and
        # return just the decomposition
        result, _ = parallel_svd(
            a, topology="perfect", ordering=ordering, options=options,
            kernel=kernel, block_size=block_size, fault_plan=fault_plan,
            **ordering_kwargs)
        return result
    bopts = _block_options(options, kernel, block_size)
    e = int(_prescale_exponents(a[None])[0])
    result = _svd(np.ldexp(a, -e) if e else a, ordering, options, kernel,
                  bopts, ordering_kwargs)
    _flag_nonfinite([_unscale(result, e)], "svd")
    return result


def _svd(
    a: np.ndarray,
    ordering: "str | Ordering",
    options: JacobiOptions | BlockJacobiOptions | None,
    kernel: str | None,
    bopts: BlockJacobiOptions | None,
    ordering_kwargs: dict,
) -> SVDResult:
    """The decomposition behind :func:`svd` (knobs resolved)."""
    m, n = a.shape
    if m < n:
        return _untranspose(_svd(np.ascontiguousarray(a.T), ordering, options,
                                 kernel, bopts, ordering_kwargs), n)
    pow2 = _needs_power_of_two(ordering)
    if bopts is not None:
        b = bopts.block_size
        n_blocks, rem = divmod(n, b)
        admissible = rem == 0 and (
            (is_power_of_two(n_blocks) and n_blocks >= 4)
            if pow2 else (n_blocks % 2 == 0 and n_blocks >= 2)
        )
        if admissible:
            return block_jacobi_svd(a, ordering=ordering, options=bopts,
                                    **ordering_kwargs)
        padded, orig = pad_columns(a, power_of_two=pow2, block_size=b)
        result = block_jacobi_svd(padded, ordering=ordering, options=bopts,
                                  **ordering_kwargs)
        return strip_padding(result, orig)
    options = _with_kernel(options, kernel)
    admissible = (is_power_of_two(n) and n >= 4) if pow2 else (n % 2 == 0)
    if admissible:
        return jacobi_svd(a, ordering=ordering, options=options, **ordering_kwargs)
    padded, orig = pad_columns(a, power_of_two=pow2)
    result = jacobi_svd(padded, ordering=ordering, options=options,
                        allow_wide=True, **ordering_kwargs)
    return strip_padding(result, orig)


def parallel_svd(
    a: np.ndarray,
    topology: str = "cm5",
    ordering: "str | Ordering | None" = None,
    cost_model: CostModel | None = None,
    options: JacobiOptions | BlockJacobiOptions | None = None,
    kernel: str | None = None,
    block_size: int | None = None,
    fault_plan: "FaultPlan | None" = None,
    profile: "str | Mapping | None" = None,
    **ordering_kwargs: object,
) -> tuple[SVDResult, ParallelRunReport]:
    """Distributed SVD on a simulated tree machine; returns result + telemetry.

    ``block_size=b`` runs the machine at block granularity: ``n / b``
    schedule units, ``b``-column messages, block kernels on the leaves
    (the BLAS-3 gram kernel by default).

    ``fault_plan`` (a :class:`~repro.faults.FaultPlan`) injects the
    planned faults during the run; the machine recovers via the ack/seq
    transport, sweep checkpoints and leaf remapping, every recovery
    action is charged to the cost model and recorded on
    ``result.fault_events``, and an unrecoverable plan yields an
    explicit ``converged=False`` result — never silently wrong output.

    ``profile`` / ``$REPRO_PROFILE`` fill unset knobs from a tuned
    profile exactly as in :func:`svd`; the ordering default here is the
    machine-level ``"hybrid"``.  The power-of-two prescale, the
    non-finite output postcondition and the ordering keywords of
    :func:`svd` apply here too.

    A wide input (``m < n``) runs on the machine as its tall transpose,
    as in :func:`svd`: the result keeps ``A``'s shapes, while
    ``history``/``sigma_by_slot`` and the report (leaf count, model
    time, fault plan leaves) describe the transposed run.
    """
    a = as_float_matrix(a, "a")
    ordering, kernel, block_size = _profile_fill(
        profile, a.shape[0], a.shape[1], None, "hybrid", ordering,
        options, kernel, block_size)
    bopts = _block_options(options, kernel, block_size)
    e = int(_prescale_exponents(a[None])[0])
    if e:
        a = np.ldexp(a, -e)
    n = a.shape[1]
    wide = a.shape[0] < n
    if wide:
        a = np.ascontiguousarray(a.T)
    pow2 = _needs_power_of_two(ordering)
    if bopts is not None:
        options = bopts
        padded, orig = pad_columns(a, power_of_two=pow2,
                                   block_size=bopts.block_size)
    else:
        options = _with_kernel(options, kernel)
        padded, orig = pad_columns(a, power_of_two=pow2)
    driver = ParallelJacobiSVD(
        topology=topology,
        ordering=ordering,
        cost_model=cost_model,
        options=options,
        **ordering_kwargs,
    )
    result, report = driver.compute(padded, fault_plan=fault_plan)
    if padded.shape[1] != orig:
        result = strip_padding(result, orig)
    if wide:
        result = _untranspose(result, n)
    _flag_nonfinite([_unscale(result, e)], "parallel_svd")
    return result, report


def _as_batch_stack(matrices: "np.ndarray | Sequence[np.ndarray]") -> np.ndarray:
    """Normalise the batch input to a C-contiguous float64 ``(B, m, n)``
    stack; accepts a 3-D array or a sequence of same-shape 2-D arrays."""
    if isinstance(matrices, np.ndarray):
        stack = as_float_stack(matrices, "matrices")
    else:
        items = [np.asarray(x) for x in matrices]
        require(len(items) >= 1, "svd_batch needs at least one matrix")
        for i, x in enumerate(items):
            require(x.ndim == 2,
                    f"matrices[{i}] must be a 2-D matrix, got ndim={x.ndim}")
            require(x.shape == items[0].shape,
                    "all matrices of a batch must share one shape; "
                    f"matrices[{i}] has {x.shape}, expected {items[0].shape}")
        stack = as_float_stack(np.stack(items), "matrices")
    require(stack.shape[0] >= 1, "svd_batch needs at least one matrix")
    return stack


def svd_batch(
    matrices: "np.ndarray | Sequence[np.ndarray]",
    ordering: "str | Ordering | None" = None,
    options: JacobiOptions | BlockJacobiOptions | None = None,
    kernel: str | None = None,
    block_size: int | None = None,
    profile: "str | Mapping | None" = None,
    **ordering_kwargs: object,
) -> BatchResult:
    """Jacobi SVD of many independent same-shape matrices at once.

    ``matrices`` is a ``(B, m, n)`` stack or a sequence of ``B``
    same-shape 2-D arrays.  The knobs are those of :func:`svd` and are
    shared by every item; the returned :class:`~repro.core.BatchResult`
    holds one :class:`~repro.core.SVDResult` per item (in input order)
    plus the aggregate accounting (sweeps histogram, plan-cache delta,
    matrices/sec).

    The contract is **bit-identity**: ``svd_batch(stack, ...)[i]`` equals
    ``svd(stack[i], ...)`` exactly, for every kernel and ordering.
    What the batch changes is amortisation, not arithmetic —
    in block mode the schedule is compiled once and every step's local
    solves fuse the whole batch into stacked GEMMs, with per-item
    convergence masks dropping finished matrices out of later sweeps
    (:func:`~repro.blockjacobi.driver.block_jacobi_svd_batch`).
    Scalar mode (no ``block_size``)
    falls back to a plain loop of :func:`svd`.  The power-of-two
    prescale and the non-finite output postcondition of :func:`svd`
    apply per item.

    A non-finite entry raises ``ValueError`` naming the offending batch
    index and coordinates (``matrices[i] contains ... at index (r, c)``).

    ``profile`` / ``$REPRO_PROFILE`` fill unset knobs from a tuned
    profile as in :func:`svd`, with the batch size part of the shape
    lookup (a profile tuned for this batch shape wins over single-call
    entries).
    """
    stack = _as_batch_stack(matrices)
    nitems, _, n = stack.shape
    ordering, kernel, block_size = _profile_fill(
        profile, stack.shape[1], n, nitems, "fat_tree", ordering,
        options, kernel, block_size)
    # vectorised finiteness sweep; on failure re-check the first bad item
    # so the error names the batch index and in-matrix coordinates
    ok = np.isfinite(stack).reshape(nitems, -1).all(axis=1)
    if not ok.all():
        i = int(np.flatnonzero(~ok)[0])
        require_finite(stack[i], f"matrices[{i}]")
    bopts = _block_options(options, kernel, block_size)
    exps = _prescale_exponents(stack)
    if exps.any():
        stack = np.ldexp(stack, -exps[:, None, None])
    pow2 = _needs_power_of_two(ordering)
    before = plan_cache_stats()
    t0 = time.perf_counter()
    if bopts is not None:
        wide = stack.shape[1] < n
        if wide:
            # the batch twin of svd()'s wide-input transpose
            stack = np.ascontiguousarray(stack.transpose(0, 2, 1))
            n = stack.shape[2]
        b = bopts.block_size
        n_blocks, rem = divmod(n, b)
        admissible = rem == 0 and (
            (is_power_of_two(n_blocks) and n_blocks >= 4)
            if pow2 else (n_blocks % 2 == 0 and n_blocks >= 2)
        )
        if admissible:
            results = block_jacobi_svd_batch(stack, ordering=ordering,
                                             options=bopts, **ordering_kwargs)
        else:
            # pad the whole stack to the width a solo call would use
            probe, orig = pad_columns(stack[0], power_of_two=pow2, block_size=b)
            padded = np.zeros((nitems, stack.shape[1], probe.shape[1]))
            padded[:, :, :n] = stack
            results = [
                strip_padding(r, orig)
                for r in block_jacobi_svd_batch(padded, ordering=ordering,
                                                options=bopts,
                                                **ordering_kwargs)
            ]
        if wide:
            results = [_untranspose(r, stack.shape[1]) for r in results]
        results = [_unscale(r, int(e)) for r, e in zip(results, exps)]
    else:
        scalar_opts = _with_kernel(options, kernel)
        results = [
            _unscale(svd(stack[i], ordering=ordering, options=scalar_opts,
                         **ordering_kwargs), int(exps[i]))
            for i in range(nitems)
        ]
    _flag_nonfinite(results, "svd_batch")
    elapsed = time.perf_counter() - t0
    after = plan_cache_stats()
    delta = PlanCacheStats(
        hits=after.hits - before.hits,
        misses=after.misses - before.misses,
        instance_hits=after.instance_hits - before.instance_hits,
        size=after.size,
    )
    return BatchResult(results=results, elapsed_s=elapsed, plan_cache=delta)
