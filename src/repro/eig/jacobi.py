"""Two-sided Jacobi symmetric eigensolver driven by the parallel orderings.

The paper's lineage (Brent & Luk [2]: "The solution of singular-value
and *symmetric eigenvalue* problems on multiprocessor arrays") applies
the same parallel orderings to the classical two-sided Jacobi method:
each step annihilates the off-diagonal entries of the disjoint index
pairs the ordering prescribes, ``A <- J^T A J``, and a sweep visits
every pair exactly once.  Any ordering from :mod:`repro.orderings`
drives the sweep; column moves translate into symmetric row+column
permutations, so the tree-locality properties carry over unchanged.

The kernels are vectorised over the disjoint pairs of a step: one fused
row update and one fused column update per step instead of a Python
loop over pairs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from ..orderings.base import Ordering
from ..orderings.registry import make_ordering
from ..util.validation import require

__all__ = ["EigOptions", "EigResult", "gram_eigh", "gram_eigh_batched",
           "gram_eigh_grouped", "jacobi_eigh", "symmetric_off_norm"]

_TINY = float(np.finfo(np.float64).tiny)


@dataclass(frozen=True)
class EigOptions:
    """Tuning knobs of the two-sided Jacobi iteration."""

    tol: float = 1e-12
    max_sweeps: int = 60
    sort: str | None = "desc"


@dataclass
class EigResult:
    """Eigendecomposition ``a = v @ diag(w) @ v.T``.

    ``w`` is sorted (nonincreasing by default); ``v`` is orthogonal with
    columns in the matching order.
    """

    w: np.ndarray
    v: np.ndarray
    converged: bool
    sweeps: int
    rotations: int
    off_history: list[float] = field(default_factory=list)

    def reconstruct(self) -> np.ndarray:
        return (self.v * self.w) @ self.v.T


def symmetric_off_norm(a: np.ndarray) -> float:
    """Frobenius norm of the strict off-diagonal part."""
    off = a - np.diag(np.diag(a))
    return float(np.linalg.norm(off))


def _eig_rotation_params(app: np.ndarray, aqq: np.ndarray, apq: np.ndarray):
    """Classical symmetric Jacobi angles annihilating ``a_pq`` (vectorised)."""
    c = np.ones_like(app)
    s = np.zeros_like(app)
    nz = apq != 0.0
    if np.any(nz):
        theta = (aqq[nz] - app[nz]) / (2.0 * apq[nz])
        t = np.sign(theta) / (np.abs(theta) + np.sqrt(1.0 + theta * theta))
        t = np.where(theta == 0.0, 1.0, t)
        cn = 1.0 / np.sqrt(1.0 + t * t)
        c[nz] = cn
        s[nz] = t * cn
    return c, s


def _apply_two_sided(A: np.ndarray, V: np.ndarray | None,
                     p: np.ndarray, q: np.ndarray,
                     c: np.ndarray, s: np.ndarray) -> None:
    """``A <- J^T A J`` for the disjoint rotations J(p_k, q_k, theta_k)."""
    # row update: rows p and q mix
    Ap = A[p, :]
    Aq = A[q, :]
    A[p, :] = c[:, None] * Ap - s[:, None] * Aq
    A[q, :] = s[:, None] * Ap + c[:, None] * Aq
    # column update
    Ap = A[:, p]
    Aq = A[:, q]
    A[:, p] = c * Ap - s * Aq
    A[:, q] = s * Ap + c * Aq
    if V is not None:
        Vp = V[:, p]
        Vq = V[:, q]
        V[:, p] = c * Vp - s * Vq
        V[:, q] = s * Vp + c * Vq


def jacobi_eigh(
    a: np.ndarray,
    ordering: str | Ordering = "fat_tree",
    options: EigOptions | None = None,
    compute_v: bool = True,
    **ordering_kwargs: object,
) -> EigResult:
    """Eigendecomposition of a symmetric matrix under a parallel ordering.

    The iteration stops after the first complete sweep in which every
    prescribed pair already satisfies the relative threshold
    ``|a_pq| <= tol * sqrt(|a_pp a_qq|)`` (or the absolute scale of the
    matrix when a diagonal entry vanishes).
    """
    a = np.asarray(a, dtype=np.float64)
    require(a.ndim == 2 and a.shape[0] == a.shape[1], "square matrix expected")
    require(np.allclose(a, a.T, atol=1e-12 * max(1.0, float(np.abs(a).max(initial=0.0)))),
            "matrix must be symmetric")
    n = a.shape[0]
    opts = options or EigOptions()
    if isinstance(ordering, Ordering):
        require(ordering.n == n, "ordering size mismatch")
        ord_obj = ordering
    else:
        ord_obj = make_ordering(ordering, n, **ordering_kwargs)

    A = a.copy()
    V = np.eye(n) if compute_v else None
    scale = max(1.0, float(np.abs(a).max(initial=0.0)))
    history: list[float] = []
    rotations = 0
    converged = False
    sweeps = 0
    # logical labels follow the moves; pairs address matrix indices through
    # the slot -> index map so the schedule machinery is reused verbatim
    slot_index = np.arange(n, dtype=np.intp)
    for sweep in range(opts.max_sweeps):
        sched = ord_obj.sweep(sweep)
        worst = 0.0
        for step in sched.steps:
            if step.pairs:
                sa = np.fromiter((pr[0] for pr in step.pairs), dtype=np.intp)
                sb = np.fromiter((pr[1] for pr in step.pairs), dtype=np.intp)
                p = slot_index[sa]
                q = slot_index[sb]
                app = A[p, p]
                aqq = A[q, q]
                apq = A[p, q]
                denom = np.sqrt(np.abs(app * aqq))
                denom = np.where(denom > 0, denom, scale)
                rel = np.abs(apq) / denom
                worst = max(worst, float(rel.max(initial=0.0)))
                rotate = rel > opts.tol
                if np.any(rotate):
                    c, s = _eig_rotation_params(app[rotate], aqq[rotate], apq[rotate])
                    _apply_two_sided(A, V, p[rotate], q[rotate], c, s)
                    rotations += int(np.count_nonzero(rotate))
            if step.moves:
                src = np.fromiter((m.src for m in step.moves), dtype=np.intp)
                dst = np.fromiter((m.dst for m in step.moves), dtype=np.intp)
                slot_index[dst] = slot_index[src]
        sweeps = sweep + 1
        history.append(symmetric_off_norm(A))
        if worst <= opts.tol:
            converged = True
            break

    w = np.diag(A).copy()
    if opts.sort == "desc":
        order = np.argsort(-w, kind="stable")
    elif opts.sort == "asc":
        order = np.argsort(w, kind="stable")
    else:
        order = np.arange(n)
    w = w[order]
    v = V[:, order] if compute_v else np.zeros((n, 0))
    return EigResult(
        w=w, v=v, converged=converged, sweeps=sweeps,
        rotations=rotations, off_history=history,
    )


@lru_cache(maxsize=None)
def _round_robin_steps(k: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """``k - 1`` steps of ``k/2`` disjoint pairs covering all ``C(k, 2)``
    index pairs once (the circle method; ``k`` must be even)."""
    arr = list(range(k))
    steps = []
    for _ in range(k - 1):
        pa = []
        qa = []
        for i in range(k // 2):
            a, b = arr[i], arr[k - 1 - i]
            pa.append(min(a, b))
            qa.append(max(a, b))
        steps.append(
            (np.array(pa, dtype=np.intp), np.array(qa, dtype=np.intp))
        )
        arr = [arr[0], arr[-1]] + arr[1:-1]
    return tuple(steps)


def gram_eigh_batched(
    g: np.ndarray,
    tol: float = 1e-12,
    max_sweeps: int = 60,
    floor: np.ndarray | float = 0.0,
) -> tuple[np.ndarray, int, int, bool]:
    """Cyclic two-sided Jacobi on a *stack* of small symmetric matrices.

    The low-overhead core of the Gram-space block kernel
    (:mod:`repro.blockjacobi.kernel`): ``g`` of shape ``(B, k, k)`` —
    typically the ``2b x 2b`` Gram matrices of all block pairs met in one
    schedule step — is overwritten **in place** with ``W^T g W`` while
    the orthogonal factors ``W`` (one per matrix) are accumulated.  The
    ``B`` sub-problems are independent (their column sets are disjoint),
    so each round-robin step rotates all of them at once: the rotation
    angles are computed on ``(B, k/2)`` arrays and applied as one batched
    ``(B, k, k)`` GEMM per side, which is what makes the block kernel
    BLAS-3 end to end.

    A pair is rotated when it fails the *relative* threshold
    ``|g_pq| > tol * sqrt(g_pp g_qq)``; pairs below it ride along with
    exact identity rotations.  The sweep loop exits early once every
    pair of every matrix satisfies
    ``|g_pq| <= tol * sqrt(g_pp g_qq) + floor``.  ``floor`` (scalar or
    per-matrix array) absorbs the Gram-formation noise a block kernel
    cannot rotate below (``~ k * eps * max(g_ii)`` after each BLAS-3
    application); ``floor = 0`` demands full relative orthogonality as
    the one-sided reference kernel does.

    Returns ``(W, rotations, sweeps, converged)`` with ``W`` of shape
    ``(B, k, k)`` and ``rotations`` summed over the stack; the final
    squared column norms are the diagonals of ``g`` after the call.
    """
    require(g.ndim == 3 and g.shape[1] == g.shape[2],
            "stack of square matrices expected")
    nb, k = g.shape[0], g.shape[1]
    require(k % 2 == 0, "gram_eigh needs an even dimension (2b columns)")
    fdiv = np.asarray(floor, dtype=np.float64).reshape(-1, 1) / tol \
        if tol > 0.0 else np.zeros((1, 1))
    steps = _round_robin_steps(k)
    eye = np.eye(k)
    # J is rebuilt per step: every step pairs all k indices, so the
    # diagonal is fully overwritten; only the off-diagonal entries of
    # the *previous* step need clearing (done after each use)
    J = np.broadcast_to(eye, g.shape).copy()
    W = np.broadcast_to(eye, g.shape).copy()
    Wbuf = np.empty_like(W)
    tmp = np.empty_like(g)
    rotations = 0
    sweeps = 0
    converged = False
    for sweep in range(max_sweeps):
        worst = 0.0
        for p, q in steps:
            gpp = g[:, p, p]
            gqq = g[:, q, q]
            gpq = g[:, p, q]
            denom = np.sqrt(np.abs(gpp * gqq))
            rel = np.abs(gpq) / np.maximum(denom + fdiv, _TINY)
            worst = max(worst, float(rel.max(initial=0.0)))
            hits = (np.abs(gpq) > tol * denom) & (denom > 0.0)
            nhits = int(np.count_nonzero(hits))
            if nhits == 0:
                continue
            rotations += nhits
            safe = np.where(gpq == 0.0, 1.0, gpq)
            theta = (gqq - gpp) / (2.0 * safe)
            t = np.sign(theta) / (np.abs(theta) + np.sqrt(1.0 + theta * theta))
            t = np.where(theta == 0.0, 1.0, t)
            t = np.where(hits, t, 0.0)  # identity for pairs below threshold
            c = 1.0 / np.sqrt(1.0 + t * t)
            s = t * c
            J[:, p, p] = c
            J[:, q, q] = c
            J[:, p, q] = s
            J[:, q, p] = -s
            np.matmul(g, J, out=tmp)
            np.matmul(J.transpose(0, 2, 1), tmp, out=g)
            np.matmul(W, J, out=Wbuf)
            W, Wbuf = Wbuf, W
            J[:, p, q] = 0.0
            J[:, q, p] = 0.0
        sweeps = sweep + 1
        if worst <= tol:
            converged = True
            break
    return W, rotations, sweeps, converged


def gram_eigh_grouped(
    g: np.ndarray,
    tol: float = 1e-12,
    max_sweeps: int = 60,
    floor: np.ndarray | float = 0.0,
    group_size: int = 1,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """:func:`gram_eigh_batched` with *independent convergence per group*.

    The stack ``g`` of ``G * group_size`` small symmetric matrices is
    treated as ``G`` consecutive groups of ``group_size`` matrices each
    — in the batched SVD, one group is the set of block pairs one
    *problem matrix* meets in a schedule step.  Each group's sweep loop
    exits as soon as *its own* worst relative off-diagonal clears
    ``tol`` (the per-group analogue of the global early exit), and a
    finished group takes no further part in the iteration: its matrices
    are excluded from the gathered working stack, so the arithmetic any
    single group experiences is bit-identical to a standalone
    :func:`gram_eigh_batched` call on just that group.  That is the
    property the many-matrix batch API's conformance contract rests on
    — fusing problems into one super-batch must not change any
    problem's rotation sequence.

    Returns ``(W, rotations, sweeps, converged)`` where ``W`` is the
    full ``(G * group_size, k, k)`` stack of accumulated factors and the
    other three are per-group arrays of shape ``(G,)``.
    """
    require(g.ndim == 3 and g.shape[1] == g.shape[2],
            "stack of square matrices expected")
    nb, k = g.shape[0], g.shape[1]
    require(k % 2 == 0, "gram_eigh needs an even dimension (2b columns)")
    require(group_size >= 1 and nb % group_size == 0,
            f"stack of {nb} matrices does not divide into groups "
            f"of {group_size}")
    ngroups = nb // group_size
    if tol > 0.0:
        fdiv = np.asarray(floor, dtype=np.float64).reshape(-1, 1) / tol
        if fdiv.shape[0] == 1:
            fdiv = np.broadcast_to(fdiv, (nb, 1))
    else:
        fdiv = np.zeros((nb, 1))
    steps = _round_robin_steps(k)
    eye = np.eye(k)
    W = np.broadcast_to(eye, g.shape).copy()
    rotations = np.zeros(ngroups, dtype=np.intp)
    sweeps = np.zeros(ngroups, dtype=np.intp)
    converged = np.zeros(ngroups, dtype=bool)
    active = np.arange(ngroups, dtype=np.intp)
    offsets = np.arange(group_size, dtype=np.intp)
    for _ in range(max_sweeps):
        if active.size == 0:
            break
        idx = (active[:, None] * group_size + offsets).reshape(-1)
        ga = g[idx]
        Wa = W[idx]
        fa = fdiv[idx]
        Ja = np.broadcast_to(eye, ga.shape).copy()
        tmp = np.empty_like(ga)
        Wbuf = np.empty_like(Wa)
        worst = np.zeros(len(idx))
        for p, q in steps:
            gpp = ga[:, p, p]
            gqq = ga[:, q, q]
            gpq = ga[:, p, q]
            denom = np.sqrt(np.abs(gpp * gqq))
            rel = np.abs(gpq) / np.maximum(denom + fa, _TINY)
            worst = np.maximum(worst, rel.max(axis=1))
            hits = (np.abs(gpq) > tol * denom) & (denom > 0.0)
            nhits = int(np.count_nonzero(hits))
            if nhits == 0:
                continue
            rotations[active] += hits.reshape(active.size, -1).sum(axis=1)
            safe = np.where(gpq == 0.0, 1.0, gpq)
            theta = (gqq - gpp) / (2.0 * safe)
            t = np.sign(theta) / (np.abs(theta) + np.sqrt(1.0 + theta * theta))
            t = np.where(theta == 0.0, 1.0, t)
            t = np.where(hits, t, 0.0)  # identity for pairs below threshold
            c = 1.0 / np.sqrt(1.0 + t * t)
            s = t * c
            Ja[:, p, p] = c
            Ja[:, q, q] = c
            Ja[:, p, q] = s
            Ja[:, q, p] = -s
            np.matmul(ga, Ja, out=tmp)
            np.matmul(Ja.transpose(0, 2, 1), tmp, out=ga)
            np.matmul(Wa, Ja, out=Wbuf)
            Wa, Wbuf = Wbuf, Wa
            Ja[:, p, q] = 0.0
            Ja[:, q, p] = 0.0
        g[idx] = ga
        W[idx] = Wa
        sweeps[active] += 1
        done = worst.reshape(active.size, group_size).max(axis=1) <= tol
        converged[active[done]] = True
        active = active[~done]
    return W, rotations, sweeps, converged


def gram_eigh(
    g: np.ndarray,
    tol: float = 1e-12,
    max_sweeps: int = 60,
    floor: float = 0.0,
) -> tuple[np.ndarray, int, int, bool]:
    """Single-matrix view of :func:`gram_eigh_batched` (in place).

    ``g`` of shape ``(k, k)`` is overwritten with ``W^T g W``; returns
    ``(W, rotations, sweeps, converged)`` with ``W`` of shape
    ``(k, k)``.  See :func:`gram_eigh_batched` for the semantics of
    ``tol``, ``max_sweeps`` and ``floor``.
    """
    require(g.ndim == 2 and g.shape[0] == g.shape[1],
            "square matrix expected")
    W, rotations, sweeps, converged = gram_eigh_batched(
        g[None, :, :], tol=tol, max_sweeps=max_sweeps, floor=floor
    )
    return W[0], rotations, sweeps, converged
