"""Low-rank approximation and PCA on the tree-ordered Jacobi SVD."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.api import svd, svd_batch
from ..svd.hestenes import JacobiOptions
from ..util.validation import require

__all__ = ["LowRankApproximation", "truncated_svd", "PCAResult", "pca",
           "pca_batch"]


@dataclass
class LowRankApproximation:
    """Rank-k factors ``a ~ u @ diag(s) @ vt`` with error bookkeeping."""

    u: np.ndarray
    s: np.ndarray
    vt: np.ndarray
    error: float          # Frobenius truncation error (exact, from the tail)
    energy: float         # fraction of squared Frobenius mass captured

    def reconstruct(self) -> np.ndarray:
        return (self.u * self.s) @ self.vt


def truncated_svd(
    a: np.ndarray,
    k: int,
    ordering: str = "fat_tree",
    options: JacobiOptions | None = None,
) -> LowRankApproximation:
    """Best rank-``k`` approximation (Eckart-Young) via the Jacobi SVD."""
    a = np.asarray(a, dtype=np.float64)
    require(a.ndim == 2, "matrix expected")
    require(1 <= k <= min(a.shape), f"k must be in [1, {min(a.shape)}]")
    wide = a.shape[0] < a.shape[1]
    work = a.T if wide else a
    r = svd(work, ordering=ordering, options=options)
    u, s, v = r.u[:, :k], r.sigma[:k], r.v[:, :k]
    tail = r.sigma[k:]
    total = float(np.sum(r.sigma**2))
    err = float(np.sqrt(np.sum(tail**2)))
    energy = float(np.sum(s**2) / total) if total > 0 else 1.0
    if wide:
        return LowRankApproximation(u=v, s=s, vt=u.T, error=err, energy=energy)
    return LowRankApproximation(u=u, s=s, vt=v.T, error=err, energy=energy)


@dataclass
class PCAResult:
    """Principal component analysis of a samples-by-features matrix."""

    components: np.ndarray        # (k, n_features), rows orthonormal
    explained_variance: np.ndarray
    explained_variance_ratio: np.ndarray
    mean: np.ndarray
    scores: np.ndarray            # (n_samples, k) projections


def pca(
    x: np.ndarray,
    k: int | None = None,
    ordering: str = "fat_tree",
) -> PCAResult:
    """PCA via the tree-ordered Jacobi SVD of the centred data matrix.

    Singular values emerge sorted from the orderings' storage
    discipline, so components come out in explained-variance order with
    no extra sort pass — the practical payoff of the paper's
    sorted-output property.
    """
    x = np.asarray(x, dtype=np.float64)
    require(x.ndim == 2, "data matrix expected")
    n_samples, n_features = x.shape
    require(n_samples >= 2, "need at least two samples")
    k = k if k is not None else min(n_samples - 1, n_features)
    require(1 <= k <= min(n_samples, n_features), "bad component count")
    mean = x.mean(axis=0)
    xc = x - mean
    wide = xc.shape[0] < xc.shape[1]
    r = svd(xc.T if wide else xc, ordering=ordering)
    return _assemble_pca(r, k, n_samples, wide, mean)


def _assemble_pca(r, k: int, n_samples: int, wide: bool,
                  mean: np.ndarray) -> PCAResult:
    """Turn one SVD result of a centred data matrix into a PCAResult."""
    if wide:
        components = r.u[:, :k].T
        scores = r.v[:, :k] * r.sigma[:k]
    else:
        components = r.v[:, :k].T
        scores = r.u[:, :k] * r.sigma[:k]
    var = (r.sigma[:k] ** 2) / (n_samples - 1)
    total_var = float(np.sum(r.sigma**2) / (n_samples - 1))
    ratio = var / total_var if total_var > 0 else np.zeros_like(var)
    return PCAResult(
        components=components,
        explained_variance=var,
        explained_variance_ratio=ratio,
        mean=mean,
        scores=scores,
    )


def pca_batch(
    xs: np.ndarray,
    k: int | None = None,
    ordering: str = "fat_tree",
    **svd_kwargs: object,
) -> list[PCAResult]:
    """PCA of many same-shape data matrices through one :func:`repro.svd_batch`.

    ``xs`` is a ``(B, n_samples, n_features)`` stack — the ROADMAP's
    per-user workload: one small data matrix per user, all the same
    shape.  Each item is centred by its own mean (the centring loop
    matches :func:`pca` arithmetic exactly) and the whole batch goes
    through a single :func:`repro.svd_batch` call, so the schedule
    compiles once and the Jacobi work runs as stacked GEMMs.  With the
    default knobs, ``pca_batch(xs)[i]`` is bit-identical to
    ``pca(xs[i])``; extra ``svd_kwargs`` (``kernel=``, ``block_size=``,
    ``ordering=``) are forwarded to :func:`repro.svd_batch`.
    """
    xs = np.asarray(xs, dtype=np.float64)
    require(xs.ndim == 3, "stack of data matrices expected")
    nitems, n_samples, n_features = xs.shape
    require(nitems >= 1, "need at least one data matrix")
    require(n_samples >= 2, "need at least two samples")
    k = k if k is not None else min(n_samples - 1, n_features)
    require(1 <= k <= min(n_samples, n_features), "bad component count")
    means = np.empty((nitems, n_features))
    xc = np.empty_like(xs)
    for i in range(nitems):
        # per-item centring, looped so each mean/subtraction runs the
        # exact reduction pca() runs on that matrix alone
        means[i] = xs[i].mean(axis=0)
        xc[i] = xs[i] - means[i]
    wide = n_samples < n_features
    work = xc.transpose(0, 2, 1) if wide else xc
    batch = svd_batch(work, ordering=ordering, **svd_kwargs)
    return [
        _assemble_pca(batch[i], k, n_samples, wide, means[i])
        for i in range(nitems)
    ]
