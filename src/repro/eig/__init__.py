"""Symmetric eigenproblems under the same parallel orderings (Brent-Luk [2]),
plus the gram block kernel's batched LAPACK pivot solver."""

from .jacobi import (
    EigOptions,
    EigResult,
    gram_eigh,
    gram_eigh_batched,
    jacobi_eigh,
    symmetric_off_norm,
)
from .pivot import gram_pivot_eigh

__all__ = ["EigOptions", "EigResult", "gram_eigh", "gram_eigh_batched",
           "gram_pivot_eigh", "jacobi_eigh", "symmetric_off_norm"]
