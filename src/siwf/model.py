"""Physical model construction: drift generator, presets, validation.

A model is a Hamiltonian H plus a finite list of noise/measurement operators
L_1..L_M on a truncated Hilbert space, together with the derived drift
generator

    G = -i H - (1/2) sum_l L_l^dagger L_l.

All models here are autonomous (time-independent coefficients).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import DimensionMismatchError, NotHermitianError, SiwfError
from .linalg import (
    HERMITICITY_TOL,
    as_operator,
    frozen,
    hermiticity_defect,
    hermitize,
)

SIGMA_X = frozen(np.array([[0, 1], [1, 0]], dtype=np.complex128))
SIGMA_Y = frozen(np.array([[0, -1j], [1j, 0]], dtype=np.complex128))
SIGMA_Z = frozen(np.array([[1, 0], [0, -1]], dtype=np.complex128))
SIGMA_MINUS = frozen(np.array([[0, 0], [1, 0]], dtype=np.complex128))


def annihilation(n_levels: int) -> np.ndarray:
    """Truncated annihilation operator: a e_n = sqrt(n) e_{n-1}."""
    if n_levels < 1:
        raise ValueError("n_levels must be >= 1")
    a = np.zeros((n_levels, n_levels), dtype=np.complex128)
    for n in range(1, n_levels):
        a[n - 1, n] = np.sqrt(n)
    return a


def build_gksl_generator(h, ls: Sequence) -> np.ndarray:
    """Drift generator -i h - (1/2) sum_l ls[l]^dagger ls[l]."""
    hm = as_operator(h)
    defect = hermiticity_defect(hm)
    if defect > HERMITICITY_TOL:
        raise NotHermitianError("Hamiltonian must be Hermitian", defect)
    g = -1j * hm
    for l_op in ls:
        lm = as_operator(l_op)
        if lm.shape != hm.shape:
            raise DimensionMismatchError(
                f"Lindblad operator shape {lm.shape} does not match "
                f"Hamiltonian shape {hm.shape}",
                expected=hm.shape,
                got=lm.shape,
            )
        g = g - 0.5 * (lm.conj().T @ lm)
    return g


def liouvillian(model: ModelSpec) -> np.ndarray:
    """The GKSL generator as a d^2 x d^2 matrix on row-major vec(rho):
    G (x) I + I (x) conj(G) + sum_l L_l (x) conj(L_l), so that
    liouvillian(m) @ rho.ravel() is (G rho + rho G^dagger
    + sum_l L_l rho L_l^dagger).ravel()."""
    g = model.drift_generator
    eye = np.eye(model.dim, dtype=np.complex128)
    out = np.kron(g, eye) + np.kron(eye, g.conj())
    for l_op in model.lindblads:
        out += np.kron(l_op, l_op.conj())
    return out


def dissipativity_residual(g: np.ndarray, ls: Sequence[np.ndarray]) -> float:
    """Max over canonical basis vectors x of |2 Re<x, Gx> + sum_l ||L_l x||^2|.

    Zero (to rounding) exactly when G carries the correct -1/2 sum L^dag L
    part; the identity is insensitive to the -iH part.
    """
    # column j of G is G e_j, so 2 Re<e_j, G e_j> = 2 Re G_jj
    diag = 2.0 * np.real(np.diag(g)).copy()
    for l_op in ls:
        diag += np.sum(np.abs(l_op) ** 2, axis=0)
    return float(np.max(np.abs(diag))) if diag.size else 0.0


@dataclass(frozen=True)
class ModelSpec:
    """An autonomous open-system model on a truncated Hilbert space.

    Attributes
    ----------
    dim : int
        Hilbert-space dimension.
    hamiltonian : ndarray
        Hermitian, in angular-frequency units (hbar = 1).
    lindblads : tuple of ndarray
        Noise/measurement channel operators, units sqrt(rate).
    drift_generator : ndarray
        Cached -iH - (1/2) sum L^dag L.
    meta : mapping
        Preset bookkeeping (kind, grid, truncation level) used by the
        observable registry; never consulted by the dynamics.
    """

    dim: int
    hamiltonian: np.ndarray
    lindblads: tuple
    drift_generator: np.ndarray
    meta: Mapping = field(default_factory=dict)

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.hamiltonian.shape != (self.dim, self.dim):
            raise DimensionMismatchError(
                f"hamiltonian shape {self.hamiltonian.shape} does not match dim {self.dim}"
            )
        for l_op in self.lindblads:
            if l_op.shape != (self.dim, self.dim):
                raise DimensionMismatchError(
                    f"lindblad shape {l_op.shape} does not match dim {self.dim}"
                )
        if self.drift_generator.shape != (self.dim, self.dim):
            raise DimensionMismatchError("drift_generator shape mismatch")

    @property
    def n_channels(self) -> int:
        return len(self.lindblads)


def make_model(h, ls: Sequence = (), meta: Mapping | None = None) -> ModelSpec:
    """Build and validate a ModelSpec from H and the Lindblad list."""
    hm = frozen(hermitize(as_operator(h)))
    defect = hermiticity_defect(as_operator(h))
    if defect > HERMITICITY_TOL:
        raise NotHermitianError("Hamiltonian must be Hermitian", defect)
    lms = tuple(frozen(as_operator(l_op)) for l_op in ls)
    g = frozen(build_gksl_generator(hm, lms))
    return ModelSpec(
        dim=hm.shape[0],
        hamiltonian=hm,
        lindblads=lms,
        drift_generator=g,
        meta=dict(meta or {}),
    )


@dataclass(frozen=True)
class RabiParams:
    """Parameters of the monitored Rabi (qubit + cavity) model.

    omega1, omega2 and alpha must be positive; g and psi non-negative.
    n_fock is the hard bosonic truncation level.
    """

    omega1: float
    omega2: float
    g: float
    alpha: float
    psi: float = 0.0
    n_fock: int = 2

    def __post_init__(self):
        if not self.omega1 > 0:
            raise ValueError("omega1 must be > 0")
        if not self.omega2 > 0:
            raise ValueError("omega2 must be > 0")
        if self.g < 0:
            raise ValueError("g must be >= 0")
        if not self.alpha > 0:
            raise ValueError("alpha must be > 0")
        if self.psi < 0:
            raise ValueError("psi must be >= 0")
        if self.n_fock < 2:
            raise ValueError("n_fock must be >= 2")


def rabi_model(p: RabiParams) -> ModelSpec:
    """Qubit-cavity Rabi model with a monitored field quadrature.

    The space is (n_fock-level bosonic mode) x (qubit), dimension 2*n_fock,
    with the mode as the slow tensor factor.  H = omega1 sigma_z/2
    + omega2 a^dag a + g (a^dag + a) sigma_x and the single channel
    L_1 = sqrt(alpha) (e^{i psi} a^dag + e^{-i psi} a).
    """
    a = annihilation(p.n_fock)
    adag = a.conj().T
    eye_f = np.eye(p.n_fock, dtype=np.complex128)
    eye_q = np.eye(2, dtype=np.complex128)
    h = (
        0.5 * p.omega1 * np.kron(eye_f, SIGMA_Z)
        + p.omega2 * np.kron(adag @ a, eye_q)
        + p.g * np.kron(adag + a, SIGMA_X)
    )
    l1 = np.sqrt(p.alpha) * np.kron(
        np.exp(1j * p.psi) * adag + np.exp(-1j * p.psi) * a, eye_q
    )
    return make_model(h, [l1], meta={"kind": "rabi", "n_fock": p.n_fock})


@dataclass(frozen=True)
class BoxParams:
    """Parameters of the position-monitored particle in a box.

    The box [x_min, x_max] is discretized on n_grid interior points with
    Dirichlet boundaries; H f = -alpha_kin f'' + V f, L_1 = gamma x.
    """

    alpha_kin: float
    gamma: float
    x_min: float
    x_max: float
    n_grid: int
    potential: Callable[[np.ndarray], np.ndarray] | Sequence[float] | None = None

    def __post_init__(self):
        if not self.x_min < self.x_max:
            raise ValueError("x_min must be < x_max")
        if self.n_grid < 3:
            raise ValueError("n_grid must be >= 3")


def box_grid(p: BoxParams) -> tuple[np.ndarray, float]:
    """Interior grid points x_i = x_min + i h, i = 1..n_grid, and spacing h."""
    h = (p.x_max - p.x_min) / (p.n_grid + 1)
    x = p.x_min + h * np.arange(1, p.n_grid + 1)
    return x, h


def box_model(p: BoxParams) -> ModelSpec:
    """Finite-difference model of continuous position measurement in a box."""
    x, h = box_grid(p)
    n = p.n_grid
    d2 = np.zeros((n, n))
    idx = np.arange(n)
    d2[idx, idx] = -2.0
    d2[idx[:-1], idx[:-1] + 1] = 1.0
    d2[idx[1:], idx[1:] - 1] = 1.0
    d2 /= h * h
    if p.potential is None:
        v = np.zeros(n)
    elif callable(p.potential):
        v = np.asarray(p.potential(x), dtype=float)
    else:
        v = np.asarray(p.potential, dtype=float)
        if v.shape != (n,):
            raise DimensionMismatchError(
                f"tabulated potential has shape {v.shape}, expected ({n},)"
            )
    ham = -p.alpha_kin * d2 + np.diag(v)
    l1 = np.diag(p.gamma * x).astype(np.complex128)
    return make_model(
        ham, [l1], meta={"kind": "box", "grid": tuple(float(xi) for xi in x)}
    )


def qubit_model(
    omega: float = 1.0, gamma: float = 1.0, monitor: str = "z"
) -> ModelSpec:
    """Two-level test model: H = omega sigma_z/2, one monitored channel.

    ``monitor`` selects L_1 = sqrt(gamma) * {sigma_z | sigma_minus | sigma_x}.
    """
    ops = {"z": SIGMA_Z, "minus": SIGMA_MINUS, "x": SIGMA_X}
    if monitor not in ops:
        raise SiwfError(f"unknown monitor '{monitor}', choose from {sorted(ops)}")
    if gamma < 0:
        raise ValueError("gamma must be >= 0")
    h = 0.5 * omega * SIGMA_Z
    ls = [] if gamma == 0 else [np.sqrt(gamma) * ops[monitor]]
    return make_model(h, ls, meta={"kind": "qubit", "monitor": monitor})


@dataclass(frozen=True)
class ModelDiagnostics:
    """Validation report for a ModelSpec."""

    dissipativity_residual: float
    hermiticity_residual: float
    drift_residual: float
    passed: bool
    threshold: float

    def summary(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return (
            f"{status}: dissipativity {self.dissipativity_residual:.3e}, "
            f"hermiticity {self.hermiticity_residual:.3e}, "
            f"drift defect {self.drift_residual:.3e} "
            f"(threshold {self.threshold:.1e})"
        )


def validate_model(m: ModelSpec) -> ModelDiagnostics:
    """Check the structural identities a well-formed model must satisfy.

    Passes iff both the Hermiticity residual of H and the dissipativity
    residual max_x |2 Re<x, Gx> + sum_l ||L_l x||^2| over canonical basis
    vectors are at most ``HERMITICITY_TOL``.
    """
    herm = hermiticity_defect(m.hamiltonian)
    diss = dissipativity_residual(m.drift_generator, m.lindblads)
    rebuilt = build_gksl_generator(hermitize(m.hamiltonian), m.lindblads)
    drift = float(np.max(np.abs(m.drift_generator - rebuilt)))
    return ModelDiagnostics(
        dissipativity_residual=diss,
        hermiticity_residual=herm,
        drift_residual=drift,
        passed=bool(diss <= HERMITICITY_TOL and herm <= HERMITICITY_TOL),
        threshold=HERMITICITY_TOL,
    )
