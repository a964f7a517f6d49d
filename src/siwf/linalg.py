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


# Pade coefficients b_0..b_m of r_m(x) = p_m(x) / p_m(-x) and the largest
# 1-norm each degree serves to double precision (Higham, SIAM J. Matrix
# Anal. Appl. 26(4):1179, 2005, Table 2.3)
_PADE = {
    3: (120.0, 60.0, 12.0, 1.0),
    5: (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0),
    7: (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0,
        1.0),
    9: (17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0,
        2162160.0, 110880.0, 3960.0, 90.0, 1.0),
    13: (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
         1187353796428800.0, 129060195264000.0, 10559470521600.0,
         670442572800.0, 33522128640.0, 1323241920.0, 40840800.0, 960960.0,
         16380.0, 182.0, 1.0),
}
_THETA = {3: 1.495585217958292e-2, 5: 2.539398330063230e-1,
          7: 9.504178996162932e-1, 9: 2.097847961257068e0,
          13: 5.371920351148152e0}


def expm(a) -> np.ndarray:
    """Matrix exponential of a square matrix by scaling and squaring.

    Higham's 2005 algorithm: the lowest Pade degree among 3, 5, 7, 9 whose
    threshold bounds the 1-norm, else degree 13 after scaling by 2**-s and
    s squarings.  A diagonal matrix gives diag(exp(diag(a))) directly: the
    Pade result for a diagonal -iH dt is not unitary to the last bit.
    """
    a = as_operator(a)
    if not np.any(a - np.diag(np.diag(a))):
        return np.diag(np.exp(np.diag(a)))
    norm = float(np.abs(a).sum(axis=0).max())
    for m in (3, 5, 7, 9):
        if norm <= _THETA[m]:
            return _pade(a, m)
    s = max(0, int(np.ceil(np.log2(norm / _THETA[13]))))
    r = _pade(a * 2.0**-s, 13)
    for _ in range(s):
        r = r @ r
    return r


def _pade(a: np.ndarray, m: int) -> np.ndarray:
    """Diagonal Pade approximant r_m(a), solved as (V - U) r = V + U."""
    b = _PADE[m]
    eye = np.eye(a.shape[0], dtype=a.dtype)
    a2 = a @ a
    if m < 13:
        powers = [eye, a2]
        for _ in range(2, m // 2 + 1):
            powers.append(powers[-1] @ a2)
        u = a @ sum(b[2 * k + 1] * p for k, p in enumerate(powers))
        v = sum(b[2 * k] * p for k, p in enumerate(powers))
    else:
        a4 = a2 @ a2
        a6 = a4 @ a2
        u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
                 + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
        v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
             + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye)
    return np.linalg.solve(v - u, v + u)
