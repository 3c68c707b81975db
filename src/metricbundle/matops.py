"""Dense complex matrix kernel with one fixed tolerance policy.

All physics layers funnel their linear algebra through this module so that
its failure modes (singular propagator, non-positive metric, ...) are decided
in one place, by ATOL, RTOL and CONDITION_CAP. Other fixed thresholds live
where they are used: model's stationary-metric solver (1e8, 1e-10) and
profile's integer-exponent test (1e-9). Matrices are plain square complex
numpy arrays; vectors are 1-d complex arrays. Every function is pure.

The kernels also take stacks of matrices, shape (nodes, d, d), and return one
value per matrix. A stack is validated once; when a matrix in it fails a
check, the error describes the first failing matrix in index order.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    DimensionMismatchError,
    EigenConvergenceError,
    NotHermitianError,
    NotPositiveDefiniteError,
    SingularMatrixError,
)

__all__ = [
    "ATOL",
    "RTOL",
    "CONDITION_CAP",
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "as_complex",
    "as_matrix",
    "as_stack",
    "adjoint",
    "commutator",
    "inverse",
    "cholesky_upper",
    "eigenvalues",
    "sorted_eigenvalues",
    "hermitian_deviation",
    "hermitian_part",
    "min_eig_hermitian",
    "frobenius",
]


ATOL = 1e-12
RTOL = 1e-9
# Bound on the condition number of inverses: near an exceptional point the
# vielbein and propagators become ill-conditioned and failures must be loud,
# not silent.
CONDITION_CAP = 1e12

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def as_complex(a, name: str) -> np.ndarray:
    """np.asarray(a, dtype=complex); a DimensionMismatchError names a value it cannot take."""
    try:
        return np.asarray(a, dtype=complex)
    except (TypeError, ValueError) as exc:
        raise DimensionMismatchError(f"{name} is not a numeric array") from exc


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and return a square, finite, complex 2-d array."""
    m = as_complex(a, name)
    if m.ndim != 2:
        raise DimensionMismatchError(f"{name} must be square, got shape {m.shape}")
    return as_stack(m, name)


def as_stack(a, name: str = "matrix") -> np.ndarray:
    """Validate and return a finite complex array of square matrices, (..., d, d)."""
    m = as_complex(a, name)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2] or m.shape[-1] < 1:
        raise DimensionMismatchError(f"{name} must be square, got shape {m.shape}")
    if not (np.all(np.isfinite(m.real)) and np.all(np.isfinite(m.imag))):
        raise DimensionMismatchError(f"{name} contains non-finite entries")
    return m


def _first(bad: np.ndarray):
    """Index of the first flagged matrix in a stack (in index order), or None."""
    flagged = np.flatnonzero(bad)
    return np.unravel_index(flagged[0], bad.shape) if flagged.size else None


def frobenius(a):
    """Frobenius norm: a float for a vector or matrix, an array for a stack.

    Each matrix is divided by the power of two np.frexp gives for its largest
    |entry| before np.linalg.norm squares it, and the norm multiplied back.
    That is exact, so the result is np.linalg.norm's bit for bit where that
    is finite, and a norm is inf only beyond the float range, with no numpy
    warning.
    """
    a = np.asarray(a)
    axis = None if a.ndim <= 2 else (-2, -1)
    with np.errstate(over="ignore"):
        # 0 for a zero, inf or nan largest entry: those are left as they are.
        exponent = np.frexp(np.abs(a).max(axis=axis, keepdims=True, initial=0.0))[1]
        norm = np.linalg.norm(_ldexp(a, -exponent), axis=axis)
        norm = np.ldexp(norm, exponent.reshape(np.shape(norm)))
    return float(norm) if a.ndim <= 2 else norm


def _ldexp(a: np.ndarray, exponent: np.ndarray) -> np.ndarray:
    """a * 2**exponent in a's memory layout, which decides np.linalg.norm's order of
    summation; part by part, as a complex product would turn inf * 0 into nan."""
    if not np.iscomplexobj(a):
        return np.ldexp(a, exponent)
    out = np.empty_like(a)
    out.real, out.imag = np.ldexp(a.real, exponent), np.ldexp(a.imag, exponent)
    return out


def adjoint(a) -> np.ndarray:
    return as_stack(a).conj().swapaxes(-1, -2)


def commutator(a, b) -> np.ndarray:
    return a @ b - b @ a


def inverse(a) -> np.ndarray:
    """Matrix inverse, refusing condition numbers above CONDITION_CAP."""
    a = as_stack(a)
    svals = np.linalg.svd(a, compute_uv=False)
    with np.errstate(divide="ignore", invalid="ignore"):
        bad = (svals[..., -1] <= 0) | (svals[..., 0] / svals[..., -1] > CONDITION_CAP)
    first = _first(bad)
    if first is not None:
        s = svals[first]
        raise SingularMatrixError(
            f"condition number exceeds cap {CONDITION_CAP:.1e} "
            f"(sigma_min={s[-1]:.3e}, sigma_max={s[0]:.3e})"
        )
    return np.linalg.inv(a)


def hermitian_deviation(a):
    """Relative Frobenius distance of a from its own adjoint."""
    a = as_stack(a)
    return frobenius(a - a.conj().swapaxes(-1, -2)) / np.maximum(1.0, frobenius(a))


def hermitian_part(g) -> np.ndarray:
    """(g + adj(g)) / 2, of a matrix or a stack; it overflows only where that value does."""
    return 0.5 * g + 0.5 * adjoint(g)


def _require_hermitian(g: np.ndarray, what: str) -> np.ndarray:
    deviation = np.asarray(hermitian_deviation(g))
    first = _first(deviation > ATOL + RTOL)
    if first is not None:
        raise NotHermitianError(
            f"{what}: hermitian deviation {deviation[first]:.3e} "
            f"exceeds {ATOL + RTOL:.3e}"
        )
    # Symmetrize so downstream LAPACK calls see an exactly Hermitian input.
    return hermitian_part(g)


def cholesky_upper(g) -> np.ndarray:
    """Upper-triangular factor E with positive real diagonal and adj(E) @ E == g.

    This is the gauge fixing for the vielbein: any unitary multiple of E is an
    equally valid factor, but the upper Cholesky factor is unique, which makes
    downstream comparisons deterministic.
    """
    g = as_matrix(g, "metric")
    h = _require_hermitian(g, "cholesky_upper")
    try:
        lower = np.linalg.cholesky(h)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(f"cholesky_upper: {exc}") from exc
    return lower.conj().T


def eigenvalues(a) -> np.ndarray:
    """All eigenvalues with algebraic multiplicity, no ordering guarantee."""
    a = as_stack(a)
    try:
        return np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:
        raise EigenConvergenceError(str(exc)) from exc


def sorted_eigenvalues(a) -> np.ndarray:
    """Eigenvalues sorted lexicographically by (real, imag), per matrix."""
    vals = eigenvalues(a)
    return np.take_along_axis(vals, np.lexsort((vals.imag, vals.real), axis=-1), axis=-1)


def min_eig_hermitian(g):
    """Smallest eigenvalue of a Hermitian matrix (positive-definiteness monitor)."""
    g = as_stack(g, "metric")
    h = _require_hermitian(g, "min_eig_hermitian")
    try:
        return np.min(np.linalg.eigvalsh(h), axis=-1)
    except np.linalg.LinAlgError as exc:
        raise EigenConvergenceError(str(exc)) from exc
