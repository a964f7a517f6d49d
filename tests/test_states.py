import numpy as np
import pytest

from siwf.errors import (DimensionMismatchError, NormViolationError,
                         ReconstructionError)
from siwf.states import (
    InitialDecomposition,
    assemble_density,
    decompose_density,
    init_ensemble,
)

E1 = np.array([1, 0], dtype=complex)
E2 = np.array([0, 1], dtype=complex)


class TestDecompose:
    def test_eigen_diagonal(self):
        dec = decompose_density(np.diag([0.7, 0.3]).astype(complex))
        assert np.allclose(dec.weights, [0.7, 0.3])
        assert np.allclose(dec.vectors[0], E1)
        assert np.allclose(dec.vectors[1], E2)

    def test_eigen_pure_state_single_component(self):
        dec = decompose_density(np.diag([1.0, 0.0]).astype(complex))
        assert dec.n_components == 1
        assert np.allclose(dec.weights, [1.0])
        assert np.allclose(dec.vectors[0], E1)

    def test_eigen_clips_tiny_negative(self):
        rho = np.diag([1.0 + 5e-9, -5e-9]).astype(complex)
        dec = decompose_density(rho)
        assert np.all(dec.weights >= 0)
        assert np.sum(dec.weights) == pytest.approx(1.0, abs=1e-14)

    def test_given_accepts_rotated_mixture(self):
        half = 0.5 * np.eye(2, dtype=complex)
        vecs = np.stack([(E1 + E2) / np.sqrt(2), (E1 - E2) / np.sqrt(2)])
        dec = decompose_density(half, mode="given", weights=[0.5, 0.5],
                                vectors=vecs)
        assert np.allclose(dec.density(), half, atol=1e-15)

    def test_given_rejects_wrong_reconstruction(self):
        rho = np.diag([0.7, 0.3]).astype(complex)
        vecs = np.stack([(E1 + E2) / np.sqrt(2), (E1 - E2) / np.sqrt(2)])
        with pytest.raises(ReconstructionError) as err:
            decompose_density(rho, mode="given", weights=[0.5, 0.5],
                              vectors=vecs)
        assert err.value.residual == pytest.approx(0.2, abs=1e-12)

    def test_reconstruction_property(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        rho = a @ a.conj().T
        rho /= np.trace(rho).real
        dec = decompose_density(rho)
        assert np.max(np.abs(dec.density() - rho)) <= 1e-10


class TestInitEnsemble:
    def test_pure(self):
        dec = InitialDecomposition(weights=np.array([1.0]), vectors=E1[None])
        psi = init_ensemble(dec)
        assert np.array_equal(psi, E1[None])
        assert not psi.flags.writeable

    def test_equal_mixture(self):
        dec = InitialDecomposition(
            weights=np.array([0.5, 0.5]), vectors=np.stack([E1, E2])
        )
        psi = init_ensemble(dec)
        assert np.allclose(psi, np.stack([E1, E2]) / np.sqrt(2))
        assert np.sum(np.abs(psi) ** 2) == pytest.approx(1.0, abs=1e-15)

    def test_zero_weight_component_is_zero_vector(self):
        vecs = np.stack([E1, E2, (E1 + E2) / np.sqrt(2)])
        dec = InitialDecomposition(
            weights=np.array([0.7, 0.3, 0.0]), vectors=vecs
        )
        psi = init_ensemble(dec)
        assert np.array_equal(psi[2], np.zeros(2))

    def test_weight_sum_enforced(self):
        with pytest.raises(NormViolationError):
            InitialDecomposition(weights=np.array([0.5, 0.6]),
                                 vectors=np.stack([E1, E2]))

    def test_unit_vectors_enforced(self):
        with pytest.raises(NormViolationError):
            InitialDecomposition(weights=np.array([1.0]),
                                 vectors=(1.2 * E1)[None])


class TestAssemble:
    def test_diagonal_mixture(self):
        psi = np.stack([E1, E2]) / np.sqrt(2)
        assert np.allclose(assemble_density(psi), 0.5 * np.eye(2), atol=1e-15)

    def test_pure(self):
        assert np.allclose(assemble_density(E1[None]), np.diag([1.0, 0.0]))

    def test_rotated_components_give_half_identity(self):
        # ((e1+e2)/2, (e1-e2)/2): two outer products summing to I/2
        stack = np.stack([(E1 + E2) / 2, (E1 - E2) / 2])
        assert np.allclose(assemble_density(stack), 0.5 * np.eye(2), atol=1e-15)

    @pytest.mark.parametrize("psi", [E1, np.stack([E1, E2])[None]],
                             ids=["vector", "3-d"])
    def test_rejects_non_stack(self, psi):
        with pytest.raises(DimensionMismatchError):
            assemble_density(psi)
