"""Mixed-state representations: decompositions, wave-function stacks,
records."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatchError,
    NormViolationError,
    ReconstructionError,
)
from .linalg import assert_density_matrix, frozen, hermitian_eig


@dataclass(frozen=True)
class InitialDecomposition:
    """A mixture rho_0 = sum_n p_n |phi_n><phi_n| as explicit weights/vectors."""

    weights: np.ndarray
    vectors: np.ndarray

    def __post_init__(self):
        if self.weights.ndim != 1 or self.vectors.ndim != 2:
            raise DimensionMismatchError("weights must be (N,), vectors (N, d)")
        if self.weights.shape[0] != self.vectors.shape[0]:
            raise DimensionMismatchError(
                f"{self.weights.shape[0]} weights vs "
                f"{self.vectors.shape[0]} vectors"
            )
        if np.any(self.weights < 0):
            raise ValueError("weights must be non-negative")
        werr = abs(float(np.sum(self.weights)) - 1.0)
        if werr > 1e-12:
            raise NormViolationError("weights must sum to 1", werr)
        norms = np.linalg.norm(self.vectors, axis=1)
        nerr = float(np.max(np.abs(norms - 1.0))) if norms.size else 0.0
        if nerr > 1e-12:
            raise NormViolationError("decomposition vectors must be unit", nerr)

    @property
    def n_components(self) -> int:
        return self.weights.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def density(self) -> np.ndarray:
        return np.einsum(
            "n,ni,nj->ij", self.weights, self.vectors, self.vectors.conj()
        )


def decompose_density(
    rho0,
    mode: str = "eigen",
    weights=None,
    vectors=None,
) -> InitialDecomposition:
    """Represent a density matrix as a weighted mixture of unit vectors.

    ``eigen`` diagonalizes rho0, clips negative eigenvalues at zero,
    renormalizes the weights to sum 1 and drops zero-weight components.
    ``given`` accepts caller-supplied (weights, vectors) and verifies they
    reconstruct rho0 to 1e-8 in max-norm.
    """
    rho = assert_density_matrix(rho0)
    if mode == "eigen":
        evals, evecs = hermitian_eig(rho)
        w = np.clip(evals, 0.0, None)
        w = w / np.sum(w)
        keep = w > 0.0
        return InitialDecomposition(
            weights=frozen(w[keep]), vectors=frozen(evecs[keep])
        )
    if mode == "given":
        if weights is None or vectors is None:
            raise ValueError("given mode requires explicit weights and vectors")
        dec = InitialDecomposition(
            weights=frozen(np.asarray(weights, dtype=float)),
            vectors=frozen(np.asarray(vectors, dtype=np.complex128)),
        )
        residual = float(np.max(np.abs(dec.density() - rho)))
        if residual > 1e-8:
            raise ReconstructionError(
                "supplied decomposition does not reconstruct the density matrix",
                residual,
            )
        return dec
    raise ValueError(f"unknown decomposition mode '{mode}'")


def init_ensemble(dec: InitialDecomposition) -> np.ndarray:
    """Initial read-only (N, d) stack psi_n = sqrt(p_n) phi_n; its total
    weight sum_n ||psi_n||^2 is exactly 1."""
    return frozen(np.sqrt(dec.weights)[:, None] * dec.vectors)


def assemble_density(psi: np.ndarray) -> np.ndarray:
    """The state rho = sum_n |psi_n><psi_n| of an (N, d) stack, validated;
    its trace is the stack's total weight sum_n ||psi_n||^2."""
    psi = np.asarray(psi)
    if psi.ndim != 2:
        raise DimensionMismatchError(
            f"ensemble must be an (N, d) stack, got shape {psi.shape}"
        )
    rho = np.einsum("ni,nj->ij", psi, psi.conj())
    assert_density_matrix(rho)
    return rho


@dataclass
class TrajectoryRecord:
    """Time series emitted by a trajectory run.

    ``innovations`` are the driving-noise paths W_l of the conditioned
    dynamics and ``records`` the measurement outputs B_l; they satisfy
    B_l(t) - W_l(t) = integral of 2 Re tr(L_l rho_s) ds.  ``ensembles`` is
    None for density-only integrators, ``innovations``/``records`` are None
    for the deterministic mean evolution.
    """

    times: np.ndarray
    densities: np.ndarray
    ensembles: np.ndarray | None = None
    innovations: np.ndarray | None = None
    records: np.ndarray | None = None
    observables: dict = field(default_factory=dict)

    @property
    def n_saved(self) -> int:
        return self.times.shape[0]

    @property
    def dim(self) -> int:
        return self.densities.shape[1]
