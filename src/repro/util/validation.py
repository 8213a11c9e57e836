"""Argument validation helpers with consistent error messages."""

from __future__ import annotations

import numpy as np

from .bits import is_power_of_two

__all__ = ["as_float_matrix", "as_float_stack", "require", "require_even",
           "require_finite", "require_power_of_two", "require_range"]


def require(cond: bool, message: str) -> None:
    """Raise ``ValueError`` with ``message`` unless ``cond`` holds."""
    if not cond:
        raise ValueError(message)


def require_even(n: int, what: str = "n") -> None:
    """Require an even integer >= 2."""
    require(n >= 2 and n % 2 == 0, f"{what} must be an even integer >= 2, got {n!r}")


def require_power_of_two(n: int, what: str = "n", minimum: int = 1) -> None:
    """Require a power of two no smaller than ``minimum``."""
    # formatted only on failure: schedule builders call this per fragment
    if not (is_power_of_two(n) and n >= minimum):
        raise ValueError(f"{what} must be a power of two >= {minimum}, got {n!r}")


def require_range(x: int, lo: int, hi: int, what: str = "value") -> None:
    """Require ``lo <= x <= hi``."""
    require(lo <= x <= hi, f"{what} must be in [{lo}, {hi}], got {x!r}")


def _as_float_array(a: object, ndim: int, what: str) -> np.ndarray:
    """Coerce ``a`` to a C-contiguous float64 array of rank ``ndim``."""
    arr = np.asarray(a)
    shape_word = "matrix" if ndim == 2 else "stack of matrices"
    require(arr.ndim == ndim,
            f"{what} must be a {ndim}-D {shape_word}, got ndim={arr.ndim}")
    if np.iscomplexobj(arr):
        # ascontiguousarray would silently discard the imaginary part
        raise ValueError(
            f"{what} must be real-valued, got complex dtype {arr.dtype}")
    if arr.dtype != np.float64 or not arr.flags.c_contiguous:
        try:
            arr = np.ascontiguousarray(arr, dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise ValueError(
                f"{what} must be real-valued (convertible to float64), "
                f"got dtype {arr.dtype}"
            ) from exc
    return arr


def as_float_matrix(a: object, what: str = "a") -> np.ndarray:
    """Normalise a matrix argument for the SVD entry points.

    Returns a C-contiguous float64 2-D array (copying only when the
    input is not already in that form) with every entry finite.  The
    single shared normalisation gate of ``svd``/``parallel_svd``/
    ``svd_batch``: F-contiguous views, integer/float32 dtypes and
    array-likes all land on the exact layout the kernels are specified
    on, so the same input always produces the same bits regardless of
    how the caller stored it.
    """
    arr = _as_float_array(a, 2, what)
    require_finite(arr, what)
    return arr


def as_float_stack(a: object, what: str = "matrices") -> np.ndarray:
    """Normalise a 3-D stack of same-shape matrices (no finiteness check).

    The batch entry point checks finiteness itself so the error can name
    the offending batch item; see :func:`repro.core.api.svd_batch`.
    """
    return _as_float_array(a, 3, what)


def require_finite(a: np.ndarray, what: str = "a") -> None:
    """Require every entry of ``a`` to be finite (no NaN/Inf).

    The error names the first offending coordinate, so a caller feeding
    a matrix with one bad entry learns *where* it is instead of getting
    garbage singular values back.
    """
    finite = np.isfinite(a)
    if finite.all():
        return
    idx = tuple(int(i) for i in np.argwhere(~finite)[0])
    raise ValueError(
        f"{what} contains non-finite value {a[idx]!r} at index {idx}; "
        "the Jacobi iteration requires finite input"
    )
