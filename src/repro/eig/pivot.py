"""Pivot solver of the gram block kernel: one LAPACK ``eigh`` per step.

Each met block pair of a schedule step contributes a ``2b x 2b`` Gram
matrix ``G = Y^T Y``; the pivot solve finds the orthogonal ``W`` that
diagonalises it, so ``Y W`` has mutually orthogonal columns.  The whole
``(B, k, k)`` stack of a step goes through a single batched
:func:`numpy.linalg.eigh` (LAPACK ``syevd`` per matrix) — the
Gram-then-small-EVD pivot structure of hierarchically blocked Jacobi
(arXiv:1401.2720) and of batched GPU SVD solvers.

LAPACK solves every matrix of the stack on its own, so a matrix's
factor depends only on that matrix's bits: whatever else shares the
stack (the other pairs of a step, the other problems of a batch) cannot
change it.  The block kernel's bit-identity contracts (batch vs loop,
event vs fast path, serial vs threads) rest on this.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..util.errors import NumericalBreakdown
from ..util.validation import require

__all__ = ["gram_offdiag_rel", "gram_pivot_eigh"]

_TINY = float(np.finfo(np.float64).tiny)


@lru_cache(maxsize=None)
def _triu(k: int) -> tuple[np.ndarray, np.ndarray]:
    return np.triu_indices(k, 1)


def gram_offdiag_rel(
    G: np.ndarray,
    floor: np.ndarray,
    tol: float,
) -> np.ndarray:
    """Relative off-diagonals of a symmetric ``(B, k, k)`` stack.

    Entry ``(i, (p, q))`` is ``|g_pq| / (sqrt(|g_pp g_qq|) + floor_i/tol
    + tiny)`` over the strict upper triangle, so ``rel <= tol`` reads
    ``|g_pq| <= tol * sqrt(|g_pp g_qq|) + floor_i``: a relative test
    plus the per-matrix absolute ``floor`` (the Gram-formation noise a
    BLAS-3 kernel cannot rotate below).  Returns shape
    ``(B, k (k-1) / 2)``.
    """
    k = G.shape[1]
    d = np.diagonal(G, axis1=1, axis2=2)
    fdiv = (floor / tol)[:, None] if tol > 0.0 else np.zeros((len(G), 1))
    i0, i1 = _triu(k)
    denom = np.sqrt(np.abs(d[:, i0] * d[:, i1]))
    return np.abs(G[:, i0, i1]) / (denom + fdiv + _TINY)


def gram_pivot_eigh(
    G: np.ndarray,
    floor: np.ndarray,
    tol: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Orthogonal factors of a stack of symmetric Gram matrices.

    ``G`` is a finite, symmetric ``(B, k, k)`` stack and ``floor`` the
    per-matrix absolute noise floor of :func:`gram_offdiag_rel`.

    - **Skip rule.** A matrix whose every off-diagonal passes
      :func:`gram_offdiag_rel` ``<= tol`` is already orthogonal enough:
      its factor is exactly the identity and its "eigenvalues" are its
      own diagonal.
    - **Solve.** Every other matrix goes through one batched
      :func:`numpy.linalg.eigh`, whose ascending eigenvalues and
      orthonormal eigenvectors become ``w`` and ``W``.

    Returns ``(W, w, hot)``: ``W`` of shape ``(B, k, k)``, ``w`` of
    shape ``(B, k)`` (the squared column norms of ``Y W``, to drive a
    sort permutation of ``W``'s columns), and ``hot`` of shape ``(B,)``,
    the number of off-diagonal entries above the threshold per matrix
    (zero exactly for the skipped ones).

    Raises :class:`~repro.util.errors.NumericalBreakdown` on a
    non-finite stack or when LAPACK fails to converge; nothing is
    returned half-solved.
    """
    require(G.ndim == 3 and G.shape[1] == G.shape[2],
            "stack of square matrices expected")
    if not np.isfinite(G).all():
        raise NumericalBreakdown("non-finite Gram stack given to the "
                                 "pivot solver")
    nb, k = G.shape[0], G.shape[1]
    floor = np.broadcast_to(np.asarray(floor, dtype=np.float64), (nb,))
    hot = np.count_nonzero(gram_offdiag_rel(G, floor, tol) > tol, axis=1)
    W = np.broadcast_to(np.eye(k), G.shape).copy()
    w = np.diagonal(G, axis1=1, axis2=2).copy()
    solve = np.flatnonzero(hot)
    if solve.size:
        try:
            w[solve], W[solve] = np.linalg.eigh(G[solve])
        except np.linalg.LinAlgError as exc:
            raise NumericalBreakdown(
                f"batched eigh failed on the Gram stack: {exc}") from exc
    return W, w, hot
