import numpy as np
import pytest
import scipy.linalg

from siwf import linalg
from siwf.errors import DensityMatrixError, NotHermitianError
from siwf.linalg import (
    assert_density_matrix,
    expm,
    hermitian_eig,
    hermiticity_defect,
    hermitize,
)
from siwf.model import BoxParams, RabiParams, box_model, qubit_model, rabi_model

E1 = np.array([1, 0], dtype=complex)
E2 = np.array([0, 1], dtype=complex)


def random_hermitian(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return hermitize(a)


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
        rebuilt = np.einsum("n,ni,nj->ij", w, v, v.conj())
        assert np.max(np.abs(rebuilt - m)) <= 1e-10
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


def _rel_gap(got, ref):
    return np.abs(got - ref).max() / np.abs(ref).max()


class TestExpm:
    """The Pade scaling-and-squaring port against scipy.linalg.expm."""

    @pytest.mark.parametrize("dt", [1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0])
    @pytest.mark.parametrize("name", ["rabi", "box"])
    def test_model_generators(self, name, dt):
        model = {
            "rabi": lambda: rabi_model(RabiParams(1.0, 1.2, 0.1, 0.5, 0.0, 3)),
            "box": lambda: box_model(BoxParams(0.5, 0.5, -4.0, 4.0, 16)),
        }[name]()
        a = model.drift_generator * dt
        assert _rel_gap(expm(a), scipy.linalg.expm(a)) <= 1e-13

    @pytest.mark.parametrize("dt", [1e-4, 1e-2, 1.0, 10.0])
    @pytest.mark.parametrize("monitor", ["z", "minus", "x"])
    def test_qubit_generator_bit_identical(self, monitor, dt):
        # every qubit generator -i H - L^dagger L / 2 is diagonal
        a = qubit_model(1.0, 1.0, monitor).drift_generator * dt
        assert np.array_equal(expm(a), scipy.linalg.expm(a))

    def test_random_diagonal_bit_identical(self):
        rng = np.random.default_rng(3)
        a = np.diag(rng.normal(size=7) + 1j * rng.normal(size=7))
        assert np.array_equal(expm(a), scipy.linalg.expm(a))

    @pytest.mark.parametrize("dim", [2, 6, 16])
    def test_random_matrices_reach_every_branch(self, dim, monkeypatch):
        degrees = []
        pade = linalg._pade

        def spy(a, m):
            degrees.append(m)
            return pade(a, m)

        monkeypatch.setattr(linalg, "_pade", spy)
        rng = np.random.default_rng(dim)
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        a /= np.abs(a).sum(axis=0).max()
        for norm in (0.01, 0.2, 0.9, 2.0, 5.0, 20.0, 100.0):
            got = expm(norm * a)
            assert _rel_gap(got, scipy.linalg.expm(norm * a)) <= 1e-13, norm
        # norms 20 and 100 scale by 2**-s and square s times
        assert degrees == [3, 5, 7, 9, 13, 13, 13]

    def test_empty(self):
        assert expm(np.zeros((0, 0))).shape == (0, 0)
