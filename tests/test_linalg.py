import numpy as np
import pytest

from siwf.errors import DensityMatrixError, DimensionMismatchError, NotHermitianError
from siwf.linalg import (
    assert_density_matrix,
    eig_reconstruct,
    hermitian_eig,
    hermiticity_defect,
    hermitize,
    kron,
    outer,
)

E1 = np.array([1, 0], dtype=complex)
E2 = np.array([0, 1], dtype=complex)


def random_hermitian(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return hermitize(a)


class TestOuter:
    def test_projector_onto_basis_vector(self):
        assert np.array_equal(outer(E1, E1), np.diag([1.0 + 0j, 0.0]))

    def test_matrix_unit(self):
        expected = np.array([[0, 1], [0, 0]], dtype=complex)
        assert np.array_equal(outer(E1, E2), expected)

    def test_circular_state_projector(self):
        # by hand: x = (1, i)/sqrt2, x_i conj(x_j) gives 1/2 [[1, -i], [i, 1]]
        x = np.array([1, 1j]) / np.sqrt(2)
        expected = 0.5 * np.array([[1, -1j], [1j, 1]])
        assert np.allclose(outer(x, x), expected, atol=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            outer(E1, np.array([1, 0, 0], dtype=complex))

    def test_trace_is_inner_product(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            x = rng.normal(size=5) + 1j * rng.normal(size=5)
            y = rng.normal(size=5) + 1j * rng.normal(size=5)
            assert abs(np.trace(outer(x, y)) - np.vdot(y, x)) <= 1e-12


class TestHermitianEig:
    def test_diagonal(self):
        w, v = hermitian_eig(np.diag([0.3, 0.7]).astype(complex))
        assert np.allclose(w, [0.7, 0.3])
        assert np.allclose(v[0], E2)
        assert np.allclose(v[1], E1)

    def test_degenerate_identity(self):
        w, v = hermitian_eig(np.eye(2, dtype=complex))
        assert np.allclose(w, [1.0, 1.0])
        gram = v @ v.conj().T
        assert np.allclose(gram, np.eye(2), atol=1e-12)

    def test_rank_one_projector(self):
        m = 0.5 * np.ones((2, 2), dtype=complex)
        w, v = hermitian_eig(m)
        assert np.allclose(w, [1.0, 0.0], atol=1e-12)
        assert np.allclose(v[0], np.array([1, 1]) / np.sqrt(2), atol=1e-12)

    def test_rejects_non_hermitian(self):
        bad = np.array([[0, 1], [0, 0]], dtype=complex)
        with pytest.raises(NotHermitianError) as err:
            hermitian_eig(bad)
        assert err.value.defect == pytest.approx(1.0)

    @pytest.mark.parametrize("d", [2, 5, 16, 64])
    def test_round_trip(self, d):
        rng = np.random.default_rng(d)
        m = random_hermitian(rng, d)
        w, v = hermitian_eig(m)
        assert np.all(np.diff(w) <= 1e-12)
        assert np.max(np.abs(eig_reconstruct(w, v) - m)) <= 1e-10
        gram = v @ v.conj().T
        assert np.max(np.abs(gram - np.eye(d))) <= 1e-10

    def test_deterministic_output(self):
        rng = np.random.default_rng(3)
        m = random_hermitian(rng, 8)
        w1, v1 = hermitian_eig(m)
        w2, v2 = hermitian_eig(m.copy())
        assert np.array_equal(w1, w2)
        assert np.array_equal(v1, v2)

    def test_phase_convention(self):
        rng = np.random.default_rng(11)
        m = random_hermitian(rng, 6)
        _, v = hermitian_eig(m)
        for vec in v:
            first = vec[np.flatnonzero(np.abs(vec) > 1e-12)[0]]
            assert first.imag == pytest.approx(0.0, abs=1e-12)
            assert first.real > 0


class TestKron:
    def test_identity(self):
        assert np.array_equal(kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_block_structure(self):
        sz = np.diag([1.0, -1.0]).astype(complex)
        assert np.array_equal(kron(sz, np.eye(2)), np.diag([1, 1, -1, -1.0]))

    def test_creation_with_qubit_flip(self):
        # a^dag on 3 Fock levels has sqrt(1), sqrt(2) on the subdiagonal;
        # its product with the flip places those entries in swapped blocks
        adag = np.array(
            [[0, 0, 0], [1, 0, 0], [0, np.sqrt(2), 0]], dtype=complex
        )
        sx = np.array([[0, 1], [1, 0]], dtype=complex)
        expected = np.zeros((6, 6), dtype=complex)
        expected[2, 1] = expected[3, 0] = 1.0
        expected[4, 3] = expected[5, 2] = np.sqrt(2)
        assert np.allclose(kron(adag, sx), expected, atol=1e-15)

    def test_associativity(self):
        rng = np.random.default_rng(5)
        mats = [
            rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            for _ in range(3)
        ]
        left = kron(kron(mats[0], mats[1]), mats[2])
        right = kron(mats[0], kron(mats[1], mats[2]))
        assert np.max(np.abs(left - right)) <= 1e-12


class TestDensityValidation:
    def test_accepts_valid(self):
        rho = np.diag([0.25, 0.75]).astype(complex)
        assert_density_matrix(rho)

    def test_rejects_bad_trace(self):
        with pytest.raises(DensityMatrixError):
            assert_density_matrix(np.diag([0.5, 0.6]).astype(complex))

    def test_rejects_negative(self):
        with pytest.raises(DensityMatrixError):
            assert_density_matrix(np.diag([1.2, -0.2]).astype(complex))

    def test_rejects_non_hermitian(self):
        rho = np.array([[0.5, 0.3], [0.0, 0.5]], dtype=complex)
        with pytest.raises(DensityMatrixError):
            assert_density_matrix(rho)

    def test_defect_measure(self):
        m = np.array([[0, 2], [0, 0]], dtype=complex)
        assert hermiticity_defect(m) == pytest.approx(2.0)
