"""Block-pair kernels: the local solvers of the block Jacobi method.

A met block pair is a set of ``2b`` co-resident columns ``Y`` that must
be orthogonalised against each other before the schedule moves the
blocks on.  The drivers keep the matrix *columns as rows*: ``XT``
(``(n, m)``) and ``VT`` (``(n, n)``) hold column ``c`` of ``X``/``V`` in
row ``row_of_col[c]``, so a step gathers and scatters contiguous rows.
:func:`solve_block_step_rows` solves one schedule step on that storage;
:func:`solve_block_step` runs it on ordinary column storage through
``X.T`` views.  Two interchangeable solvers are provided:

``reference``
    The original loop: ``inner_sweeps`` cyclic odd-even sweeps of
    disjoint plane rotations, each step a masked BLAS-1
    :func:`~repro.svd.rotations.apply_step_rotations` call on the
    pair's ``2b`` columns.  The numerics the gram kernel is tested
    against, and the last rung of its fallback chain.

``gram``
    BLAS-3 in three phases: form the ``2b x 2b`` Gram matrix
    ``G = Y^T Y`` with one GEMM, diagonalise it with LAPACK
    (:func:`repro.eig.gram_pivot_eigh`: ``G = W diag(w) W^T``, a pair
    already orthogonal to the convergence threshold keeps ``W = I``
    exactly), then apply ``Y <- Y W`` and ``V <- V W`` with single
    GEMMs.  Because the block pairs met in one schedule step have
    disjoint column sets, :func:`fastpath_gram_step` solves *all* of
    them at once: one stacked Gram form, one batched ``eigh``, one
    stacked application — on a simulated machine this is exactly the
    work the leaves do concurrently.  Norm-ordering exchanges of
    already-orthogonal blocks are ``row_of_col`` relabelings, so they
    move no data.  ``inner_sweeps`` does not steer the host solve (the
    eigensolver diagonalises each pair fully); the cost model still
    charges ``inner_sweeps`` local sweeps per met pair, so model time
    does not depend on the host solver.

A step runs serially on the host: each phase covers all of the step's
pairs at once (the gram kernel's stacked BLAS-3 calls, the reference
kernel's loop over pairs).  The concurrency of the leaves is charged to
the cost model by the simulator, not replayed with host threads, which
measured slower than serial (EXPERIMENTS.md, "Removed: threads
executor").

Accuracy note for ``gram``: forming and applying in Gram space is
norm-wise backward stable, but the BLAS-3 application mixes all ``2b``
columns, so pairwise dot products cannot be driven below a noise floor
of ``~ 2b * eps * max||y_i||^2`` (the reference kernel, rotating column
pairs directly, has no such floor).  The kernel therefore measures
convergence against ``tol * ||y_i|| ||y_j|| + floor`` — singular values
still match LAPACK to the suite's absolute tolerances, while the tiniest
values keep only absolute (not relative) accuracy, the standard
trade-off of blocked Jacobi (cf. arXiv:1401.2720).
"""

from __future__ import annotations

import numpy as np

from ..eig.pivot import gram_offdiag_rel, gram_pivot_eigh
from ..svd.rotations import RotationStats, apply_step_rotations
from ..util.errors import NumericalBreakdown
from ..util.validation import require

__all__ = ["BLOCK_KERNELS", "FALLBACK_CHAINS", "GRAM_NOISE",
           "fastpath_gram_flush", "fastpath_gram_step", "rows_to_columns",
           "solve_block_pair",
           "solve_block_step", "solve_block_step_batch",
           "solve_block_step_rows"]

#: registered block-pair kernels; ``gram`` is the BLAS-3 fast path
BLOCK_KERNELS = ("reference", "gram")

#: per-kernel fallback chain on :class:`NumericalBreakdown`: when a
#: solver's Gram quantities go non-finite, the affected block pairs are
#: re-solved one robustness rung down.  The guarded reference solver
#: (direct column rotations with an overflow prescale) is the last
#: resort; a breakdown it cannot absorb (genuinely corrupted data)
#: propagates to the caller — under a fault-recovery driver that
#: triggers a sweep-checkpoint rollback instead of garbage output.
FALLBACK_CHAINS = {
    "gram": ("gram", "reference"),
    "reference": ("reference",),
}

#: local column magnitudes above this trip the reference solver's
#: prescale guard (Gram products overflow around 1e154)
_PRESCALE_PEAK = 1e100

#: safety factor of the gram kernel's convergence noise floor
#: ``GRAM_NOISE * 2b * eps * max(G_ii)`` (see module docstring)
GRAM_NOISE = 8.0

_EPS = float(np.finfo(np.float64).eps)
_SORT_MODES = ("desc", "asc", None)


def _require_kernel(kernel: str) -> None:
    require(kernel in BLOCK_KERNELS,
            f"unknown block kernel {kernel!r}; "
            f"available: {', '.join(BLOCK_KERNELS)}")


def solve_block_pair(
    X: np.ndarray,
    V: np.ndarray | None,
    cols: np.ndarray,
    tol: float,
    sort: str | None,
    inner_sweeps: int,
    kernel: str = "gram",
) -> tuple[RotationStats, float]:
    """Orthogonalise the ``2b`` columns ``cols`` of ``X`` against each other.

    ``X`` (and ``V``) are modified in place.  Returns the rotation
    counters and the worst relative off-diagonal observed at first touch
    — the outer driver's convergence signal.  With ``sort`` set, the
    local solve leaves norms ordered along ascending column index
    (larger norms at smaller indices for ``"desc"``), the convention
    that makes sorted output emerge at block granularity.
    """
    return solve_block_step(X, V, [np.asarray(cols, dtype=np.intp)],
                            tol, sort, inner_sweeps, kernel)


def solve_block_step(
    X: np.ndarray,
    V: np.ndarray | None,
    pair_cols: "list[np.ndarray] | np.ndarray",
    tol: float,
    sort: str | None,
    inner_sweeps: int,
    kernel: str = "gram",
    sanitizer=None,
) -> tuple[RotationStats, float]:
    """Solve every met block pair of one schedule step on column storage.

    ``X`` (and ``V``) hold the matrix columns as columns and are
    modified in place: :func:`solve_block_step_rows` runs on their
    ``X.T`` views, and columns the solve relabelled are copied back to
    their own storage column afterwards.  Parameters and results are
    those of :func:`solve_block_step_rows`.
    """
    row_of_col = np.arange(X.shape[1], dtype=np.intp)
    XT = X.T
    VT = None if V is None else V.T
    try:
        return solve_block_step_rows(XT, VT, row_of_col, pair_cols, tol, sort,
                                     inner_sweeps, kernel, sanitizer)
    finally:
        # row_of_col is a permutation, so its moved entries permute
        # among themselves; the fancy gather copies before the scatter
        moved = np.flatnonzero(row_of_col != np.arange(len(row_of_col)))
        if moved.size:
            XT[moved] = XT[row_of_col[moved]]
            if VT is not None:
                VT[moved] = VT[row_of_col[moved]]


def solve_block_step_rows(
    XT: np.ndarray,
    VT: np.ndarray | None,
    row_of_col: np.ndarray,
    pair_cols: "list[np.ndarray] | np.ndarray",
    tol: float,
    sort: str | None,
    inner_sweeps: int,
    kernel: str = "gram",
    sanitizer=None,
    scratch: "dict | None" = None,
) -> tuple[RotationStats, float]:
    """Solve every met block pair of one schedule step.

    ``XT``/``VT`` hold the matrix columns as rows, column ``c`` in row
    ``row_of_col[c]`` (see the module docstring); all three are updated
    in place.  ``pair_cols`` holds one ``2b``-element column-index array
    per block pair (a list of arrays or one ``(n_pairs, 2b)`` array);
    the sets are disjoint (the pairs run on distinct leaves), so the
    local solves are independent and the gram kernel batches them into
    stacked BLAS-3 calls.  Returns merged rotation counters and the
    worst first-touch relative off-diagonal across all pairs.  With
    ``sort`` set, the local solve leaves norms ordered along ascending
    column index (larger norms at smaller indices for ``"desc"``), the
    convention that makes sorted output emerge at block granularity.

    On :class:`~repro.util.errors.NumericalBreakdown` the step degrades
    gracefully: the pairs are re-solved one by one, each walking down
    :data:`FALLBACK_CHAINS` (``stats.fallbacks`` counts the downgrades).
    The stacked solver only raises *before* touching any row, so the
    per-pair retry starts from unmodified data.

    ``sanitizer`` (a :class:`~repro.verify.sanitize.RuntimeSanitizer`)
    opens a write-set record for the step: the solvers report the column
    sets they actually write, and the record is cross-checked against
    the per-pair column sets when the step closes (rule ``SAN001``).

    ``scratch`` is the gram kernel's step-stack carry (see
    :func:`fastpath_gram_step`); a caller passing one must
    :func:`fastpath_gram_flush` it before reading ``XT``/``VT``.
    """
    require(sort in _SORT_MODES, f"sort must be one of {_SORT_MODES}, got {sort!r}")
    if len(pair_cols) == 0:
        return RotationStats(), 0.0
    _require_kernel(kernel)
    if sanitizer is None:
        return _solve_step_body(XT, VT, row_of_col, pair_cols, tol, sort,
                                inner_sweeps, kernel, None, scratch)
    expected = [frozenset(int(c) for c in pair_cols[i])
                for i in range(len(pair_cols))]
    sanitizer.begin_step(len(pair_cols), expected)
    try:
        out = _solve_step_body(XT, VT, row_of_col, pair_cols, tol, sort,
                               inner_sweeps, kernel, sanitizer, scratch)
    except BaseException:
        # the step never completed; its write-set record is meaningless
        sanitizer.abort_step()
        raise
    sanitizer.end_step()
    return out


def _solve_step_body(
    XT: np.ndarray,
    VT: np.ndarray | None,
    row_of_col: np.ndarray,
    pair_cols: "list[np.ndarray] | np.ndarray",
    tol: float,
    sort: str | None,
    inner_sweeps: int,
    kernel: str,
    sanitizer,
    scratch: "dict | None",
) -> tuple[RotationStats, float]:
    """The dispatch body of :func:`solve_block_step_rows` (validated input)."""
    if kernel == "gram":
        k = len(pair_cols[0])
        require(all(len(c) == k for c in pair_cols),
                "all block pairs of a step must have equal width")
        try:
            return fastpath_gram_step(XT, VT, row_of_col, pair_cols, tol, sort,
                                      scratch, sanitizer)
        except NumericalBreakdown:
            # isolate the poisoned pairs via the per-pair chain
            fastpath_gram_flush(XT, VT, scratch)
    chain = FALLBACK_CHAINS[kernel]
    stats = RotationStats()
    worst = 0.0
    for cols in pair_cols:
        st, mx = _solve_pair_chain(XT, VT, row_of_col,
                                   np.asarray(cols, dtype=np.intp),
                                   tol, sort, inner_sweeps, chain)
        stats.merge(st)
        worst = max(worst, mx)
    if sanitizer is not None:
        # the per-pair solvers rewrite every column of their pairs
        sanitizer.record_touch(
            0, len(pair_cols),
            np.concatenate([np.asarray(cols) for cols in pair_cols]))
    return stats, worst


def _solve_pair_chain(
    XT: np.ndarray,
    VT: np.ndarray | None,
    row_of_col: np.ndarray,
    cols: np.ndarray,
    tol: float,
    sort: str | None,
    inner_sweeps: int,
    chain: tuple[str, ...],
) -> tuple[RotationStats, float]:
    """Solve one block pair, falling down ``chain`` on breakdown."""
    last: NumericalBreakdown | None = None
    downgrades = 0
    for kern in chain:
        try:
            if kern == "gram":
                st, mx = fastpath_gram_step(XT, VT, row_of_col, cols[None],
                                            tol, sort)
            else:
                st, mx = _solve_reference_rows(XT, VT, row_of_col, cols, tol,
                                               sort, inner_sweeps)
            st.fallbacks += downgrades
            return st, mx
        except NumericalBreakdown as exc:
            last = exc
            downgrades += 1
    raise last


def _solve_reference_rows(
    XT: np.ndarray,
    VT: np.ndarray | None,
    row_of_col: np.ndarray,
    cols: np.ndarray,
    tol: float,
    sort: str | None,
    inner_sweeps: int,
) -> tuple[RotationStats, float]:
    """The reference solver on one pair's columns, copied out of the row
    storage into a C-ordered ``(m, 2b)`` block (the rotations' dot
    products then see the operand layout of column storage, bit for
    bit) and written back.  Column ``ids[j]`` is local column ``j``, an
    order-preserving relabeling, so the rotation orientation and the
    norm-ordering convention are those of the matrix column ids."""
    ids = np.sort(cols)
    rows = row_of_col[ids]
    local = np.searchsorted(ids, cols)
    Xl = np.ascontiguousarray(XT[rows].T)
    Vl = None if VT is None else np.ascontiguousarray(VT[rows].T)
    try:
        out = _solve_reference_guarded(Xl, Vl, local, tol, sort, inner_sweeps)
    except NumericalBreakdown as exc:
        # name the pair by its matrix columns, not its block positions
        where = tuple(int(ids[i]) for i in exc.where)
        raise NumericalBreakdown(str(exc).replace(str(exc.where), str(where), 1),
                                 where=where) from exc
    XT[rows] = Xl.T
    if VT is not None:
        VT[rows] = Vl.T
    return out


def _solve_reference_guarded(
    X: np.ndarray,
    V: np.ndarray | None,
    cols: np.ndarray,
    tol: float,
    sort: str | None,
    inner_sweeps: int,
) -> tuple[RotationStats, float]:
    """Reference solver with an overflow prescale guard.

    Plane rotations are scale-invariant, so when the local columns are
    large enough for their Gram products to overflow (the breakdown the
    fast kernels just reported), dividing the block by its peak
    magnitude, solving, and multiplying back recovers the exact same
    rotations without ever leaving the finite range.  Genuinely
    corrupted data (NaN, or Inf entries) still trips the sentinels
    inside and propagates — the fallback chain rescues overflow, not
    corruption.
    """
    peak = float(np.max(np.abs(X[:, cols]), initial=0.0))
    if np.isfinite(peak) and peak > _PRESCALE_PEAK:
        X[:, cols] /= peak
        try:
            return _solve_reference(X, V, cols, tol, sort, inner_sweeps)
        finally:
            X[:, cols] *= peak
    return _solve_reference(X, V, cols, tol, sort, inner_sweeps)


def _solve_reference(
    X: np.ndarray,
    V: np.ndarray | None,
    cols: np.ndarray,
    tol: float,
    sort: str | None,
    inner_sweeps: int,
) -> tuple[RotationStats, float]:
    """Cyclic odd-even sweeps of masked per-pair rotations (the spec).

    Runs ``inner_sweeps`` cyclic odd-even sweeps of disjoint rotations
    over the 2b local columns (all arithmetic is leaf-local on the
    machine, so the simulator charges it as compute).  Returns the worst
    relative off-diagonal seen at first touch (the convergence signal).
    """
    k = len(cols)
    stats = RotationStats()
    worst = 0.0
    first = True
    for _ in range(inner_sweeps):
        # odd-even over positions: covers all pairs of the 2b columns in
        # k steps of disjoint rotations
        order = list(cols)
        for parity in range(k):
            starts = range(parity % 2, k - 1, 2)
            pa = np.array([order[i] for i in starts], dtype=np.intp)
            pb = np.array([order[i + 1] for i in starts], dtype=np.intp)
            # orient by column id so the norm-ordering exchanges stay
            # consistent across sweeps (same fix as the scalar driver)
            left = np.minimum(pa, pb)
            right = np.maximum(pa, pb)
            if left.size:
                st, mx = apply_step_rotations(X, V, left, right, tol, sort)
                stats.merge(st)
                if first:
                    worst = max(worst, mx)
            # unconditional neighbour exchange walks every pair past
            # every other (odd-even transposition at position level)
            for i in starts:
                order[i], order[i + 1] = order[i + 1], order[i]
        first = False
    return stats, worst


def _sort_perm(w: np.ndarray, sort: str | None) -> np.ndarray | None:
    """Stable permutation along the last axis that orders ``w`` by the
    norm-ordering convention (``None`` when ``sort`` is ``None``)."""
    if sort == "desc":
        return np.argsort(-w, axis=-1, kind="stable")
    if sort == "asc":
        return np.argsort(w, axis=-1, kind="stable")
    return None


def _targets(cols_arr: np.ndarray, sort: str | None) -> np.ndarray:
    """Column ids a sorted solve lands each pair's outputs on: the
    pair's own columns in ascending order (as given with ``sort=None``)."""
    return cols_arr if sort is None else np.sort(cols_arr, axis=1)


def _sort_exchanges(
    pair_cols,
    d: np.ndarray,
    sort: str | None,
    stats: RotationStats,
) -> tuple[np.ndarray | None, np.ndarray | None]:
    """Column permutation implied by the norm-ordering convention on
    already-orthogonal blocks: concatenated ``(src, tgt)`` column ids of
    every pair that needs exchanging (``(None, None)`` when none does),
    with ``stats.exchanged`` counted.  :func:`fastpath_gram_step` applies
    it as a pure row relabelling."""
    srcs = []
    tgts = []
    for i in range(len(pair_cols)):
        cols = pair_cols[i]
        perm = _sort_perm(d[i], sort)
        if perm is None:
            continue
        target = np.sort(cols)
        src = cols[perm]
        if not np.array_equal(src, target):
            stats.exchanged += int(np.count_nonzero(src != target)) // 2
            srcs.append(src)
            tgts.append(target)
    if not srcs:
        return None, None
    return np.concatenate(srcs), np.concatenate(tgts)


def _require_finite_gram(G: np.ndarray, cols_arr: np.ndarray) -> None:
    """Breakdown sentinel: raise before any column is touched so the
    fallback chain can re-solve the poisoned pairs from clean data."""
    finite = np.isfinite(G)
    if not finite.all():
        i = int(np.argwhere(~finite)[0][0])
        raise NumericalBreakdown(
            f"non-finite Gram block for pair {i} "
            f"(columns {cols_arr[i].tolist()})",
            where=(int(cols_arr[i][0]), int(cols_arr[i][-1])))


def _gram_measure(
    G: np.ndarray,
    tol: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Symmetrisation and convergence measurement of a finite
    ``(nb, k, k)`` Gram stack — the decision half of the gram kernel,
    shared verbatim by the step solver (:func:`fastpath_gram_step`) and
    the batch path (:func:`_solve_gram_batch`), so their bit-identity
    holds by construction.  Returns ``(G_sym, d, floor, worst)`` with ``d`` the
    ``(nb, k)`` squared norms and ``worst`` the per-matrix largest
    relative off-diagonal (:func:`repro.eig.pivot.gram_offdiag_rel`)."""
    # gemm output is symmetric only to rounding; symmetrise once so the
    # measure and the eigensolver see the same matrix
    G = 0.5 * (G + G.transpose(0, 2, 1))
    d = np.diagonal(G, axis1=1, axis2=2)
    # zero blocks get a zero floor
    floor = GRAM_NOISE * G.shape[1] * _EPS * d.max(axis=1)
    worst = gram_offdiag_rel(G, floor, tol).max(axis=1)
    return G, d, floor, worst


def _gram_factors(
    G: np.ndarray,
    floor: np.ndarray,
    tol: float,
    sort: str | None,
) -> tuple[np.ndarray, np.ndarray]:
    """Batched LAPACK pivot solve plus the sort convention — the factor
    half of the gram kernel, shared by every execution path.  Returns
    ``(W, hot)``: ``W``'s columns already permuted to land each block's
    norms in target order (see :func:`_targets`), and the per-matrix
    count of off-diagonals above the threshold."""
    W, w, hot = gram_pivot_eigh(G, floor, tol)
    perm = _sort_perm(w, sort)
    if perm is not None:
        W = np.take_along_axis(W, perm[:, None, :], axis=2)
    return W, hot


def _fp_buffer(scratch: "dict | None", key: str, rows: int,
               tail: tuple[int, ...]) -> np.ndarray:
    """Sweep-persistent step buffer of :func:`fastpath_gram_step`.

    Large per-step temporaries (the gathered ``(nb*2b, m)`` stacks and
    their rotated outputs) dominate the step's non-GEMM cost when
    freshly allocated each step: at n = 512 the malloc/page-fault churn
    of four ~2 MB arrays per step costs more than the gathers
    themselves.  Buffers live in ``scratch`` keyed by name, are grown
    monotonically, and are handed out as leading-axis views, so a whole
    sweep allocates each stack once.
    """
    if scratch is None:
        return np.empty((rows, *tail))
    buf = scratch.get(key)
    if buf is None or buf.shape[0] < rows or buf.shape[1:] != tail:
        buf = np.empty((max(rows, buf.shape[0] if buf is not None else 0),
                        *tail))
        scratch[key] = buf
    return buf[:rows]


def fastpath_gram_flush(
    XT: np.ndarray,
    VT: np.ndarray | None,
    scratch: "dict | None",
) -> None:
    """Write a carried rotation stack back into canonical storage.

    Full-coverage steps leave their rotated stacks in ``scratch`` (see
    :func:`fastpath_gram_step`) instead of scattering into ``XT``/``VT``;
    until the next flush the canonical buffers are stale for the stacked
    rows.  Callers must flush before reading ``XT``/``VT`` directly —
    the simulator does so at sweep end and before delegating a
    broken-down step to the event solver.  A no-op when nothing is
    carried."""
    if not scratch:
        return
    rows = scratch.pop("stack_rows", None)
    if rows is None:
        return
    XT[rows] = scratch["xstk"][:len(rows)]
    if VT is not None:
        VT[rows] = scratch["vstk"][:len(rows)]


def rows_to_columns(
    XT: np.ndarray,
    VT: np.ndarray | None,
    row_of_col: np.ndarray,
    X: np.ndarray,
    V: np.ndarray | None,
    scratch: "dict | None" = None,
) -> None:
    """Write the row storage back into column storage: column ``c`` of
    ``X``/``V`` from row ``row_of_col[c]`` of ``XT``/``VT``, a carried
    stack flushed first.  The gathered copy reuses the scratch's gather
    buffers, so a sweep end allocates nothing."""
    fastpath_gram_flush(XT, VT, scratch)
    for src, dst, key in ((XT, X, "Ys"), (VT, V, "Vs")):
        if dst is not None:
            buf = _fp_buffer(scratch, key, len(row_of_col), src.shape[1:])
            np.take(src, row_of_col, axis=0, out=buf, mode="clip")
            dst[:] = buf.T


def fastpath_gram_step(
    XT: np.ndarray,
    VT: np.ndarray | None,
    row_of_col: np.ndarray,
    cols_arr: np.ndarray,
    tol: float,
    sort: str | None,
    scratch: "dict | None" = None,
    sanitizer=None,
) -> tuple[RotationStats, float]:
    """One schedule step of the gram kernel: every met pair at once.

    ``XT``/``VT`` hold the matrix columns as rows and ``row_of_col``
    maps column id -> row (updated in place; see the module docstring).
    ``cols_arr`` is the ``(nb, 2b)`` array of the step's pair columns.
    The step gathers the pairs' rows into a C-contiguous ``(nb, 2b, m)``
    stack, forms ``G_i = Y_i^T Y_i`` with one stacked GEMM, runs the
    shared measurement/factor helpers (one batched LAPACK pivot solve)
    and applies ``(Y_i W_i)^T = W_i^T Y_i^T`` / ``(V_i W_i)^T`` back into
    the gathered rows, the outputs landing on the pair's columns in
    target order (see :func:`_targets`) through ``row_of_col``.  Every
    pair's factor depends on that pair's Gram matrix alone.
    Norm-ordering exchanges of already-orthogonal blocks are pure
    ``row_of_col`` relabelings: zero data movement, same
    ``stats.exchanged`` count.

    ``scratch`` (see :func:`_fp_buffer`) keeps the step buffers across a
    sweep so steady-state steps are allocation-free, and carries stacks:
    a step that rotates every row leaves its output in the scratch stack
    and the next full-coverage step gathers straight from it (one warm
    permuted copy instead of a scatter + re-gather through ``XT``/``VT``),
    so ``XT``/``VT`` are stale until :func:`fastpath_gram_flush`.
    ``np.take(..., mode="clip")`` and ``np.matmul(..., out=)`` copy the
    same bits as the allocating forms.  ``sanitizer`` receives the
    step's write record.

    Raises :class:`~repro.util.errors.NumericalBreakdown` before
    touching any row (a carried stack stays carried), so the caller can
    re-solve the step pair by pair from clean data.
    """
    stats = RotationStats()
    cols_arr = np.asarray(cols_arr, dtype=np.intp)
    nb, k = cols_arr.shape
    n_rows, m = XT.shape
    rows = row_of_col[cols_arr.reshape(-1)]
    # anything but a full-coverage step flushes a carried stack first, so
    # the canonical buffers are current whenever they are actually read
    full = scratch is not None and len(rows) == n_rows
    if not full:
        fastpath_gram_flush(XT, VT, scratch)
    if scratch is not None and "stack_rows" in scratch:
        xsrc, vsrc, idx = scratch["xstk"], scratch.get("vstk"), \
            scratch["pos"][rows]
    else:
        xsrc, vsrc, idx = XT, VT, rows
    Ys2d = _fp_buffer(scratch, "Ys", nb * k, (m,))
    Ys = Ys2d.reshape(nb, k, m)
    G = _fp_buffer(scratch, "G", nb, (k, k))
    np.take(xsrc, idx, axis=0, out=Ys2d, mode="clip")
    np.matmul(Ys, Ys.transpose(0, 2, 1), out=G)
    _require_finite_gram(G, cols_arr)
    G, d, floor, worst = _gram_measure(G, tol)
    worst = float(worst.max())
    if worst <= tol:
        # already orthogonal: only the norm-ordering convention may act,
        # and it moves no data — any carried stack stays valid
        src, tgt = _sort_exchanges(cols_arr, d, sort, stats)
        if src is not None:
            row_of_col[tgt] = row_of_col[src]
            if sanitizer is not None:
                sanitizer.record_touch(0, nb, tgt)
        return stats, worst
    W, hot = _gram_factors(G, floor, tol, sort)
    stats.applied = int(hot.sum())
    WT = W.transpose(0, 2, 1)
    # the outputs go to the stack buffers: the gathers copied this step's
    # operands out, and any other step flushed a carried stack first;
    # a full step keeps them there, any other scatters them back into
    # the gathered rows
    xout = _fp_buffer(scratch, "xstk", nb * k, (m,))
    xout3 = xout.reshape(nb, k, m)
    if VT is not None:
        nv = VT.shape[1]
        Vs2d = _fp_buffer(scratch, "Vs", nb * k, (nv,))
        Vs = Vs2d.reshape(nb, k, nv)
        vout = _fp_buffer(scratch, "vstk", nb * k, (nv,))
        vout3 = vout.reshape(nb, k, nv)

        # every V row is gathered before any is written: a carried V
        # stack is both the source and the output buffer
        np.take(vsrc, idx, axis=0, out=Vs2d, mode="clip")
    np.matmul(WT, Ys, out=xout3)
    if VT is not None:
        np.matmul(WT, Vs, out=vout3)
    if not full:
        XT[rows] = xout
        if VT is not None:
            VT[rows] = vout
    if full:
        scratch["stack_rows"] = rows
        pos = scratch.get("pos")
        if pos is None or len(pos) != n_rows:
            pos = np.empty(n_rows, dtype=np.intp)
            scratch["pos"] = pos
        pos[rows] = np.arange(n_rows, dtype=np.intp)
    tgt_arr = _targets(cols_arr, sort)
    row_of_col[tgt_arr.reshape(-1)] = rows
    if sanitizer is not None:
        sanitizer.record_touch(0, nb, tgt_arr.reshape(-1))
    return stats, worst


def solve_block_step_batch(
    Xs: np.ndarray,
    Vs: np.ndarray | None,
    items: np.ndarray,
    pair_cols: "list[np.ndarray] | np.ndarray",
    tol: float,
    sort: str | None,
    inner_sweeps: int,
    kernel: str = "gram",
) -> tuple[np.ndarray, np.ndarray]:
    """Solve one schedule step for *many problem matrices* at once.

    The many-matrix analogue of :func:`solve_block_step`: ``Xs`` is a
    ``(B, m, n)`` stack of independent problems (``Vs`` the matching
    ``(B, n, n)`` stack of accumulated factors, or ``None``), ``items``
    the batch indices still iterating, and ``pair_cols`` the step's met
    block pairs — shared by every item, because all problems of a batch
    run the same compiled schedule.  Returns per-item arrays
    ``(applied, worst)`` aligned with ``items``.

    The contract is the batch API's: **bit-identical to solving each
    matrix alone**.  The gram kernel fuses the problem axis into its
    stacked phases — one ``(len(items) * n_pairs, 2b, m)``
    gather/Gram-form, one batched LAPACK pivot solve and one
    apply/scatter.  LAPACK solves every Gram matrix of the stack on its
    own and every skip/sort-only decision is taken per problem, so no
    problem's factors ever depend on its batch neighbours.  The per-pair
    kernels loop over the items.

    A poisoned item (non-finite Gram blocks, or a stack LAPACK cannot
    solve) is delegated alone to :func:`solve_block_step`, which
    re-raises the same breakdown from the untouched columns and walks the
    same per-pair fallback chain a solo run would.
    """
    require(sort in _SORT_MODES, f"sort must be one of {_SORT_MODES}, got {sort!r}")
    _require_kernel(kernel)
    items = np.asarray(items, dtype=np.intp)
    if items.size == 0 or len(pair_cols) == 0:
        return np.zeros(items.size, dtype=np.intp), np.zeros(items.size)

    if kernel == "gram":
        return _solve_gram_batch(Xs, Vs, items, pair_cols, tol, sort,
                                 inner_sweeps)
    applied = np.zeros(items.size, dtype=np.intp)
    worst = np.zeros(items.size)
    for j, i in enumerate(items):
        st, mx = solve_block_step(
            Xs[i], None if Vs is None else Vs[i], pair_cols, tol, sort,
            inner_sweeps, kernel)
        applied[j] = st.applied
        worst[j] = mx
    return applied, worst


def _expand_groups(pos: np.ndarray, nb: int) -> np.ndarray:
    """Stack-row indices of the ``nb``-pair groups at positions ``pos``."""
    return (pos[:, None] * nb + np.arange(nb, dtype=np.intp)).reshape(-1)


def _apply_sort_only_batch(
    Xs: np.ndarray,
    Vs: np.ndarray | None,
    rows: np.ndarray,
    cols_arr: np.ndarray,
    d: np.ndarray,
    sort: str | None,
) -> None:
    """The norm-ordering convention on already-orthogonal blocks,
    vectorised across problem matrices and applied as physical column
    moves (the batch keeps column storage).

    ``rows`` are batch indices, ``d`` the ``(len(rows) * nb, k)``
    squared norms aligned with them.  Pairs already in norm order are
    rewritten with their own values — a bitwise no-op — so the whole
    permutation is two gather/scatter pairs regardless of batch size.
    """
    perm = _sort_perm(d, sort)
    if perm is None:
        return
    nb, k = cols_arr.shape
    cols_tiled = np.tile(cols_arr, (len(rows), 1))
    src = np.take_along_axis(cols_tiled, perm, axis=1)
    src_rows = src.reshape(len(rows), nb * k)
    tgt_flat = _targets(cols_arr, sort).reshape(-1)
    XsT = Xs.transpose(0, 2, 1)
    XsT[np.ix_(rows, tgt_flat)] = XsT[rows[:, None], src_rows]
    if Vs is not None:
        VsT = Vs.transpose(0, 2, 1)
        VsT[np.ix_(rows, tgt_flat)] = VsT[rows[:, None], src_rows]


def _solve_gram_batch(
    Xs: np.ndarray,
    Vs: np.ndarray | None,
    items: np.ndarray,
    pair_cols: "list[np.ndarray] | np.ndarray",
    tol: float,
    sort: str | None,
    inner_sweeps: int,
) -> tuple[np.ndarray, np.ndarray]:
    """The gram kernel's problem-axis super-batch (see
    :func:`solve_block_step_batch`): :func:`fastpath_gram_step` with the
    batch dimension extended from ``n_pairs`` to ``B x n_pairs`` and
    every per-problem decision (breakdown delegation, sort-only early
    exit) taken per problem."""
    nm = items.size
    k = len(pair_cols[0])
    require(all(len(c) == k for c in pair_cols),
            "all block pairs of a step must have equal width")
    cols_arr = np.asarray(pair_cols, dtype=np.intp)
    nb = len(cols_arr)
    m = Xs.shape[1]
    allcols = cols_arr.reshape(-1)
    applied = np.zeros(nm, dtype=np.intp)
    worst_out = np.zeros(nm)

    XsT = Xs.transpose(0, 2, 1)  # (B, n, m) view of the column stacks
    Ys = XsT[np.ix_(items, allcols)].reshape(nm * nb, k, m)
    G = np.matmul(Ys, Ys.transpose(0, 2, 1))

    def delegate(js: np.ndarray) -> None:
        # the solo path re-forms each item's Gram blocks from its still
        # untouched columns, hits the same breakdown, and walks the same
        # fallback chain — bit-identical to a standalone run
        for j in js:
            st, mx = solve_block_step(
                Xs[items[j]], None if Vs is None else Vs[items[j]],
                pair_cols, tol, sort, inner_sweeps, "gram")
            applied[j] = st.applied
            worst_out[j] = mx

    finite = np.isfinite(G).reshape(nm, -1).all(axis=1)
    delegate(np.flatnonzero(~finite))
    keep = np.flatnonzero(finite)
    if keep.size == 0:
        return applied, worst_out
    if keep.size < nm:
        sel = _expand_groups(keep, nb)
        Ys = Ys[sel]
        G = G[sel]
    G, d, floor, worst = _gram_measure(G, tol)
    relw = worst.reshape(keep.size, nb).max(axis=1)
    worst_out[keep] = relw

    so_mask = relw <= tol
    so_local = np.flatnonzero(so_mask)
    if so_local.size:
        # already orthogonal: only the norm-ordering convention may act
        _apply_sort_only_batch(Xs, Vs, items[keep[so_local]], cols_arr,
                               d[_expand_groups(so_local, nb)], sort)
    sv_local = np.flatnonzero(~so_mask)
    if sv_local.size == 0:
        return applied, worst_out
    sv = keep[sv_local]
    sel_sv = _expand_groups(sv_local, nb)
    try:
        W, hot = _gram_factors(G[sel_sv], floor[sel_sv], tol, sort)
    except NumericalBreakdown:
        delegate(sv)
        return applied, worst_out
    rows = items[sv]
    tgt_flat = _targets(cols_arr, sort).reshape(-1)
    WT = W.transpose(0, 2, 1)
    out = np.matmul(WT, Ys[sel_sv])  # (Y_i W_i)^T per pair
    XsT[np.ix_(rows, tgt_flat)] = out.reshape(rows.size, nb * k, m)
    if Vs is not None:
        n = Vs.shape[2]
        VsT = Vs.transpose(0, 2, 1)
        Vg = VsT[np.ix_(rows, allcols)].reshape(rows.size * nb, k, n)
        vout = np.matmul(WT, Vg)
        VsT[np.ix_(rows, tgt_flat)] = vout.reshape(rows.size, nb * k, n)
    applied[sv] = hot.reshape(sv.size, nb).sum(axis=1)
    return applied, worst_out
