"""Plane-rotation kernels for the one-sided (Hestenes) Jacobi method.

Equation (1) of the paper: a plane rotation applied to two columns
``a_i, a_j`` chooses the angle so the transformed columns are orthogonal.
With ``alpha = a_i . a_i``, ``beta = a_j . a_j`` and ``gamma = a_i . a_j``
the standard stable parametrisation is

    zeta = (beta - alpha) / (2 gamma)
    t    = sign(zeta) / (|zeta| + sqrt(1 + zeta^2))
    c    = 1 / sqrt(1 + t^2),   s = t c

Equation (3) of the paper is the *swap-free* form: when the schedule
requires the two columns to exchange positions after the rotation, the
exchanged result is produced directly by applying the rotation with its
columns swapped, avoiding an explicit copy.  The vectorised kernel below
uses the same idea to keep the larger-norm column in the designated slot
("with a little control we may store the column with larger norm in the
position associated with the index of a smaller number" — Section 4),
which is what makes the singular values emerge sorted.

All kernels are vectorised over the disjoint pairs of one parallel step,
per the hpc guidance: one step is one fused set of BLAS-level column
operations rather than a Python loop over pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..util.errors import NumericalBreakdown

__all__ = [
    "RotationStats",
    "rotation_params",
    "apply_step_rotations",
    "apply_step_rotations_batched",
    "column_norms_sq",
]

#: squared-norm agreement below this relative slack counts as a tie and
#: does not trigger a sorting exchange (keeps noise-level differences
#: from delaying the "no columns interchanged" termination rule)
SORT_SLACK = 32.0 * np.finfo(np.float64).eps

_SORT_MODES = ("desc", "asc", None)


def _validate_sort(sort: str | None) -> None:
    # an unrecognised string used to silently behave like ``None`` and
    # disable the sorting convention altogether; fail loudly instead
    if sort not in _SORT_MODES:
        raise ValueError(f"sort must be one of {_SORT_MODES}, got {sort!r}")


def column_norms_sq(X: np.ndarray) -> np.ndarray:
    """Squared column norms of ``X`` (the cache seed for the batched kernel)."""
    return np.einsum("ij,ij->j", X, X)


@dataclass
class RotationStats:
    """Counters accumulated over rotations.

    ``swapped`` counts rotations emitted in the swap-free exchanged form
    of eq (3) — each one is an explicit column exchange avoided;
    ``exchanged`` counts already-orthogonal pairs whose columns were
    exchanged to respect the norm ordering.  The paper's termination rule
    needs ``exchanged`` ("... and no columns are interchanged").
    ``fallbacks`` counts block pairs re-solved down the kernel fallback
    chain (gram -> reference) after a numerical breakdown.
    """

    applied: int = 0
    skipped: int = 0
    swapped: int = 0
    exchanged: int = 0
    fallbacks: int = 0

    def merge(self, other: "RotationStats") -> None:
        self.applied += other.applied
        self.skipped += other.skipped
        self.swapped += other.swapped
        self.exchanged += other.exchanged
        self.fallbacks += other.fallbacks


def _require_finite_grams(
    alpha: np.ndarray, beta: np.ndarray, gamma: np.ndarray,
    left: np.ndarray, right: np.ndarray,
) -> None:
    """Non-finite sentinel shared by the rotation kernels.

    A NaN/Inf Gram quantity means the column data itself is damaged
    (silent message corruption, a crashed leaf's NaN-marked slots, or a
    genuine overflow); rotating through it would smear the damage over
    every column the pair later meets.  Fail here instead, naming the
    pair, so a recovery driver can roll back to the sweep checkpoint.
    """
    bad = ~(np.isfinite(alpha) & np.isfinite(beta) & np.isfinite(gamma))
    if np.any(bad):
        k0 = int(np.argmax(bad))
        where = (int(left[k0]), int(right[k0]))
        raise NumericalBreakdown(
            f"non-finite Gram quantities for column pair {where} "
            f"(alpha={alpha[k0]!r}, beta={beta[k0]!r}, gamma={gamma[k0]!r})",
            where=where,
        )


def rotation_params(
    alpha: np.ndarray, beta: np.ndarray, gamma: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorised (c, s) for each pair; pairs with ``gamma == 0`` get the
    identity rotation."""
    nz = gamma != 0.0
    every = bool(nz.all())
    if every:
        # the common case (every rotating pair of a step): no masked copy
        a, b, g = alpha, beta, gamma
    elif np.any(nz):
        a, b, g = alpha[nz], beta[nz], gamma[nz]
    else:
        return np.ones_like(alpha), np.zeros_like(alpha)
    zeta = (b - a) / (2.0 * g)
    t = np.sign(zeta) / (np.abs(zeta) + np.sqrt(1.0 + zeta * zeta))
    # sign(0) is 0; zeta == 0 means alpha == beta with gamma != 0,
    # where the optimal angle is 45 degrees (t = 1)
    t = np.where(zeta == 0.0, 1.0, t)
    cn = 1.0 / np.sqrt(1.0 + t * t)
    if every:
        return cn, t * cn
    c = np.ones_like(alpha)
    s = np.zeros_like(alpha)
    c[nz] = cn
    s[nz] = t * cn
    return c, s


def apply_step_rotations(
    X: np.ndarray,
    V: np.ndarray | None,
    left: np.ndarray,
    right: np.ndarray,
    tol: float,
    sort: str | None = "desc",
) -> tuple[RotationStats, float]:
    """Orthogonalise the disjoint column pairs ``(left[k], right[k])``.

    ``X`` is modified in place (and ``V`` alongside, when accumulating
    right singular vectors).  A pair is rotated only when it fails the
    relative threshold test ``|gamma| > tol * sqrt(alpha beta)`` — the
    threshold strategy of [Wilkinson] the paper invokes to guarantee
    convergence.  With ``sort="desc"`` the larger-norm column ends in the
    ``left`` slot via the swap-free form of eq (3) (``"asc"`` for the
    smaller; ``None`` to never swap).

    Returns the rotation counters and the largest relative off-diagonal
    ``|gamma| / sqrt(alpha beta)`` observed *before* rotating (the sweep
    convergence measure).

    One pass over the step: the common cases (every pair live, every
    pair rotating, nothing swapping, no idle pair) skip the masked
    copies, re-gathers and blends the general case needs.  Every branch
    evaluates the same elementwise expressions on the same values, so
    the bits do not depend on which branch a step takes (the tests pin
    a step on k pairs to k one-pair steps, bit for bit).
    """
    _validate_sort(sort)
    stats = RotationStats()
    k = left.size
    if k == 0:
        return stats, 0.0
    x = X[:, left]
    y = X[:, right]
    alpha = np.einsum("ij,ij->j", x, x)
    beta = np.einsum("ij,ij->j", y, y)
    gamma = np.einsum("ij,ij->j", x, y)
    _require_finite_grams(alpha, beta, gamma, left, right)
    denom = np.sqrt(alpha * beta)
    live = denom > 0.0
    if live.all():
        rel = np.abs(gamma) / denom
    else:
        rel = np.zeros_like(gamma)
        rel[live] = np.abs(gamma[live]) / denom[live]
    max_rel = float(rel.max(initial=0.0))

    rotate = rel > tol
    applied = int(np.count_nonzero(rotate))
    stats.applied = applied
    stats.skipped = k - applied
    if applied:
        if applied == k:
            li, ri, xr, yr = left, right, x, y
            a_r, b_r, g_r = alpha, beta, gamma
        else:
            li = left[rotate]
            ri = right[rotate]
            xr = x[:, rotate]
            yr = y[:, rotate]
            a_r, b_r, g_r = alpha[rotate], beta[rotate], gamma[rotate]
        c, s = rotation_params(a_r, b_r, g_r)
        new_x = c * xr - s * yr
        new_y = s * xr + c * yr
        swap = None
        if sort is not None:
            # post-rotation squared norms, from the rotation invariants
            na = c * c * a_r - 2 * c * s * g_r + s * s * b_r
            nb = s * s * a_r + 2 * c * s * g_r + c * c * b_r
            swap = nb > na if sort == "desc" else na > nb
            stats.swapped = int(np.count_nonzero(swap))
            if not stats.swapped:
                swap = None
        if swap is None:
            X[:, li] = new_x
            X[:, ri] = new_y
        else:
            X[:, li] = np.where(swap, new_y, new_x)
            X[:, ri] = np.where(swap, new_x, new_y)
        if V is not None:
            vx = V[:, li]
            vy = V[:, ri]
            new_vx = c * vx - s * vy
            new_vy = s * vx + c * vy
            if swap is None:
                V[:, li] = new_vx
                V[:, ri] = new_vy
            else:
                V[:, li] = np.where(swap, new_vy, new_vx)
                V[:, ri] = np.where(swap, new_vx, new_vy)

    # even when no rotation fires, the sorting convention must hold for
    # already-orthogonal pairs so the singular values finish ordered; a
    # small relative slack keeps noise-level norm differences from
    # triggering exchanges forever (ties would otherwise delay the
    # "no columns interchanged" termination rule)
    if sort is None or applied == k:
        return stats, max_rel
    if applied:
        idle = ~rotate
        li, ri, na, nb = left[idle], right[idle], alpha[idle], beta[idle]
    else:
        li, ri, na, nb = left, right, alpha, beta
    if sort == "desc":
        swap = nb > na * (1.0 + SORT_SLACK)
    else:
        swap = na > nb * (1.0 + SORT_SLACK)
    if swap.any():
        li, ri = li[swap], ri[swap]
        stats.exchanged = int(li.size)
        # one fancy assignment exchanges every pair (the right-hand side
        # is gathered before anything is written)
        dst = np.concatenate((li, ri))
        src = np.concatenate((ri, li))
        X[:, dst] = X[:, src]
        if V is not None:
            V[:, dst] = V[:, src]
    return stats, max_rel


#: division guard used instead of a masked divide: a zero cached norm
#: implies an exactly-zero column, whose fresh ``gamma`` is exactly zero,
#: so the guarded quotient is still exactly zero
_TINY = float(np.finfo(np.float64).tiny)
_SQRT_EPS = float(np.sqrt(np.finfo(np.float64).eps))


def apply_step_rotations_batched(
    WT: np.ndarray,
    P: np.ndarray,
    tol: float,
    sort: str | None,
    norms_sq: np.ndarray,
    m: int,
) -> tuple[RotationStats, float]:
    """Fused batched form of :func:`apply_step_rotations`.

    All k independent pair updates of one step — the plane rotations of
    eq (1), the swap-free exchanged rotations of eq (3) *and* the
    idle-pair sorting exchanges — are expressed as one batch of per-pair
    2x2 transforms and applied with a single gather / fused update /
    scatter, instead of separate masked passes per quantity.

    ``WT`` is the working array in *column-as-row* layout: row ``j``
    holds column ``j`` of the stacked factor ``[X; V]`` (data entries
    first, ``m`` of them), so the gather/scatter of a step touches
    contiguous memory.  ``P`` is the ``(k, 2)`` array of (left, right)
    row indices, already oriented by the caller's label convention.

    ``norms_sq`` is the cross-sweep cache of squared data-column norms:
    ``alpha`` and ``beta`` are read from it instead of being recomputed
    (only ``gamma`` needs a fresh dot product), and it is updated in
    place through the exact rotation identities
    ``alpha' = alpha - t gamma``, ``beta' = beta + t gamma`` (the chosen
    tangent satisfies ``t^2 + 2 zeta t - 1 = 0``, which collapses the
    ``c^2 a - 2csg + s^2 b`` form to these).  The caller must permute the
    cache alongside any schedule column moves.

    Minor deviation from the reference kernel: the norm-ordering swap
    uses the same ``SORT_SLACK`` tie band for rotated pairs as for idle
    pairs (the reference compares rotated pairs strictly); the two can
    differ only when post-rotation norms agree to ~1e-14 relative, where
    either order satisfies every sortedness tolerance in the package.

    Returns the same ``(stats, max_rel)`` contract as the reference
    kernel.
    """
    _validate_sort(sort)
    stats = RotationStats()
    k = P.shape[0]
    if k == 0:
        return stats, 0.0
    Z = WT[P]  # (k, 2, M) gather of the paired columns
    x = Z[:, 0]
    y = Z[:, 1]
    # batched (k,1,m)@(k,m,1) dot products; cheaper to dispatch than einsum
    gamma = np.matmul(x[:, None, :m], y[:, :m, None]).reshape(k)
    ab = norms_sq[P]  # (k, 2) cached alpha, beta
    alpha = ab[:, 0]
    beta = ab[:, 1]
    _require_finite_grams(alpha, beta, gamma, P[:, 0], P[:, 1])
    denom = np.sqrt(alpha * beta)
    rel = np.abs(gamma) / np.maximum(denom, _TINY)
    max_rel = float(rel.max(initial=0.0))
    rotate = rel > tol
    applied = int(np.count_nonzero(rotate))
    stats.applied = applied
    stats.skipped = k - applied

    if applied:
        # tangent of the annihilating angle; written with copysign so the
        # zeta == 0 tie (alpha == beta, 45 degrees, t = 1) needs no branch
        # (a rotating pair always has gamma != 0, so masking with the
        # rotate flags doubles as the division guard)
        all_rot = applied == k
        gsafe = gamma if all_rot else np.where(rotate, gamma, 1.0)
        zeta = (beta - alpha) / (2.0 * gsafe)
        t = 1.0 / (zeta + np.copysign(np.sqrt(1.0 + zeta * zeta), zeta))
        if not all_rot:
            t = np.where(rotate, t, 0.0)  # t = 0 is the identity (c=1, s=0)
        c = 1.0 / np.sqrt(1.0 + t * t)
        s = t * c
        tg = t * gamma
        na = alpha - tg  # idle pairs keep their cached norms exactly
        nb = beta + tg
        # cancellation guard: when a rotation (near-)annihilates a column
        # the subtraction above loses relative accuracy (and can even
        # round negative); entries within sqrt(eps) of full cancellation
        # are recomputed freshly below, which caps the cache's relative
        # error at ~sqrt(eps) — enough that rotations computed from it
        # still annihilate their gamma to ~1e-8 relative, preserving the
        # quadratic convergence tail (a bare eps floor keeps the cache
        # finite but decays the tail to linear on ill-conditioned inputs)
        floor = _SQRT_EPS * (alpha + beta)
        stale = rotate & ((na < floor) | (nb < floor))
        if np.any(stale):
            np.maximum(na, 0.0, out=na)
            np.maximum(nb, 0.0, out=nb)
        else:
            stale = None
    else:
        na = alpha
        nb = beta
        stale = None

    # the identity-rotation path must honour the sorting convention too:
    # below-threshold pairs in the wrong norm order are exchanged even
    # when no rotation in the whole step fires
    if sort == "desc":
        swap = nb > na * (1.0 + SORT_SLACK)
    elif sort == "asc":
        swap = na > nb * (1.0 + SORT_SLACK)
    else:
        swap = None
    nswap = int(np.count_nonzero(swap)) if swap is not None else 0
    if swap is not None and nswap:
        stats.swapped = int(np.count_nonzero(swap & rotate)) if applied else 0
        stats.exchanged = nswap - stats.swapped
    if not applied and not nswap:
        return stats, max_rel  # fully idle step: nothing may move

    # per-pair 2x2 transforms applied as ONE batched matmul (new_left is
    # row 0 of R_k @ [x; y]); identity rows for idle pairs, the plain
    # exchange permutation for idle pairs that only need re-sorting —
    # writing strided slices of a (k, 2, M) buffer per coefficient would
    # cost ~3x the matmul
    R = np.empty((k, 2, 2))
    if applied:
        if nswap:
            R[:, 0, 0] = np.where(swap, s, c)
            R[:, 0, 1] = np.where(swap, c, -s)
            R[:, 1, 0] = np.where(swap, c, s)
            R[:, 1, 1] = np.where(swap, -s, c)
        else:
            R[:, 0, 0] = c
            R[:, 0, 1] = -s
            R[:, 1, 0] = s
            R[:, 1, 1] = c
    else:
        diag = np.where(swap, 0.0, 1.0)
        off = np.where(swap, 1.0, 0.0)
        R[:, 0, 0] = diag
        R[:, 1, 1] = diag
        R[:, 0, 1] = off
        R[:, 1, 0] = off

    out = np.matmul(R, Z)
    WT[P] = out  # pairs are disjoint within a step: scatter is race-free
    if nswap:
        norms_sq[P[:, 0]] = np.where(swap, nb, na)
        norms_sq[P[:, 1]] = np.where(swap, na, nb)
    else:
        norms_sq[P[:, 0]] = na
        norms_sq[P[:, 1]] = nb
    if stale is not None:
        # refresh cancelled entries from the just-written columns (the
        # swap, if any, is already baked into the ``out`` slot order)
        rows = out[stale]
        norms_sq[P[stale]] = np.einsum("kim,kim->ki", rows[:, :, :m], rows[:, :, :m])
    return stats, max_rel
