"""Dense complex linear algebra primitives.

Everything in this module is a pure function on numpy arrays.  Vectors are
1-d complex arrays, operators are square 2-d complex arrays; all storage is
dense (the package targets desk-scale dimensions, d up to a few hundred).
"""

from __future__ import annotations

import numpy as np

from .errors import DensityMatrixError, DimensionMismatchError, NotHermitianError


#: guard thresholds: max-norm of A - A^dagger, |tr(rho) - 1|, most negative
#: eigenvalue of rho, and |sum_n ||psi_n||^2 - 1| of an ensemble
HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-8
PSD_TOL = 1e-8
NORM_TOL = 1e-8


def as_operator(m) -> np.ndarray:
    """Coerce to a square complex matrix, validating shape."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(
            f"operator must be a square matrix, got shape {a.shape}", got=a.shape
        )
    return a


def as_state(x, dim: int | None = None) -> np.ndarray:
    """Coerce to a complex state vector, optionally checking its dimension."""
    v = np.asarray(x, dtype=np.complex128)
    if v.ndim != 1:
        raise DimensionMismatchError(f"state must be a vector, got shape {v.shape}")
    if dim is not None and v.shape[0] != dim:
        raise DimensionMismatchError(
            f"state has dimension {v.shape[0]}, expected {dim}",
            expected=dim,
            got=v.shape[0],
        )
    return v


def frozen(a: np.ndarray) -> np.ndarray:
    """Return a read-only copy of ``a`` (safe to share between threads)."""
    out = np.array(a, copy=True)
    out.setflags(write=False)
    return out


def hermitize(a: np.ndarray) -> np.ndarray:
    """Hermitian part (A + A^dagger)/2."""
    return (a + a.conj().T) / 2.0


def hermiticity_defect(a: np.ndarray) -> float:
    """Max-norm of A - A^dagger."""
    return float(np.max(np.abs(a - a.conj().T))) if a.size else 0.0


def _phase_normalize(v: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Rotate the global phase so the first component above ``tol`` is real > 0."""
    idx = np.flatnonzero(np.abs(v) > tol)
    if idx.size == 0:
        return v
    pivot = v[idx[0]]
    return v * (abs(pivot) / pivot)


def _lex_key(v: np.ndarray) -> tuple:
    out = []
    for z in v:
        out.append(round(z.real, 12))
        out.append(round(z.imag, 12))
    return tuple(out)


def hermitian_eig(m):
    """Eigendecomposition of a Hermitian matrix.

    Returns ``(eigenvalues, eigenvectors)`` with eigenvalues real and sorted
    descending and ``eigenvectors[n]`` the unit eigenvector of
    ``eigenvalues[n]``.  Each eigenvector's global phase is fixed by making
    its first nonzero component real positive; exact eigenvalue ties are
    ordered lexicographically on the phase-fixed components so the output is
    deterministic.

    Raises
    ------
    NotHermitianError
        If ``m`` deviates from Hermiticity by more than ``HERMITICITY_TOL``.
    """
    a = as_operator(m)
    defect = hermiticity_defect(a)
    if defect > HERMITICITY_TOL:
        raise NotHermitianError("hermitian_eig requires a Hermitian matrix", defect)
    w, v = np.linalg.eigh(hermitize(a))
    # eigh returns ascending order; flip to descending
    w = w[::-1].copy()
    vecs = np.ascontiguousarray(v[:, ::-1].T)
    for n in range(vecs.shape[0]):
        vecs[n] = _phase_normalize(vecs[n])
    # stable ordering inside degenerate clusters
    scale = max(1.0, float(np.max(np.abs(w))) if w.size else 1.0)
    tie_tol = 64 * np.finfo(float).eps * scale
    start = 0
    for stop in range(1, w.size + 1):
        if stop == w.size or abs(w[stop] - w[start]) > tie_tol:
            if stop - start > 1:
                order = sorted(range(start, stop), key=lambda n: _lex_key(vecs[n]))
                w[start:stop] = w[order]
                vecs[start:stop] = vecs[order]
            start = stop
    return w, vecs


def density_violations(rho) -> dict:
    """Measure how far ``rho`` is from a valid density matrix.

    Returns the hermiticity defect, the trace error |tr(rho) - 1| and the
    most negative eigenvalue (0.0 if the spectrum is non-negative).
    """
    a = as_operator(rho)
    herm = hermiticity_defect(a)
    trace_err = abs(np.trace(a) - 1.0)
    evals = np.linalg.eigvalsh(hermitize(a))
    neg = float(max(0.0, -evals.min())) if evals.size else 0.0
    return {"hermiticity": herm, "trace": float(trace_err), "negativity": neg}


def assert_density_matrix(rho) -> np.ndarray:
    """Validate the density-matrix invariants, returning the coerced array."""
    a = as_operator(rho)
    v = density_violations(a)
    if v["hermiticity"] > HERMITICITY_TOL:
        raise DensityMatrixError("density matrix is not Hermitian", v["hermiticity"])
    if v["trace"] > TRACE_TOL:
        raise DensityMatrixError("density matrix trace is not 1", v["trace"])
    if v["negativity"] > PSD_TOL:
        raise DensityMatrixError("density matrix is not PSD", v["negativity"])
    return a
