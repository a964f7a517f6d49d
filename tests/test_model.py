import numpy as np
import pytest

from siwf.errors import DimensionMismatchError, NotHermitianError
from siwf.model import (
    BoxParams,
    ModelSpec,
    RabiParams,
    SIGMA_MINUS,
    SIGMA_X,
    SIGMA_Z,
    annihilation,
    box_model,
    build_gksl_generator,
    liouvillian,
    make_model,
    qubit_model,
    rabi_model,
    validate_model,
)
from siwf.steppers import gksl_rhs


def dissipativity_on_vector(model, x):
    g = model.drift_generator
    val = 2.0 * np.real(np.vdot(x, g @ x))
    for l_op in model.lindblads:
        val += np.linalg.norm(l_op @ x) ** 2
    return val


class TestDriftGenerator:
    def test_sigma_x_channel(self):
        g = build_gksl_generator(SIGMA_Z, [SIGMA_X])
        assert np.allclose(g, -1j * SIGMA_Z - 0.5 * np.eye(2), atol=1e-15)

    def test_empty_model(self):
        g = build_gksl_generator(np.zeros((2, 2)), [])
        assert np.array_equal(g, np.zeros((2, 2)))

    def test_decay_channel(self):
        # sigma+ sigma- = diag(1, 0), so sqrt(2) sigma- gives -diag(1, 0)
        g = build_gksl_generator(np.zeros((2, 2)), [np.sqrt(2) * SIGMA_MINUS])
        assert np.allclose(g, -np.diag([1.0, 0.0]), atol=1e-15)

    def test_rejects_non_hermitian_h(self):
        with pytest.raises(NotHermitianError):
            build_gksl_generator(SIGMA_MINUS, [])

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            build_gksl_generator(SIGMA_Z, [np.eye(3)])


class TestRabiModel:
    def test_quadrature_channel_hops_fock_levels(self):
        m = rabi_model(RabiParams(omega1=1, omega2=1, g=0, alpha=1, n_fock=2))
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 2] = expected[1, 3] = 1.0
        expected[2, 0] = expected[3, 1] = 1.0
        assert np.allclose(m.lindblads[0], expected, atol=1e-15)

    def test_qubit_splitting_term(self):
        # with g = 0 the Hamiltonian is omega1 sigma_z/2 + omega2 n
        m = rabi_model(RabiParams(omega1=2, omega2=1, g=0, alpha=1, n_fock=2))
        assert np.allclose(m.hamiltonian, np.diag([1.0, -1.0, 2.0, 0.0]),
                           atol=1e-15)

    def test_positivity_enforced(self):
        with pytest.raises(ValueError):
            RabiParams(omega1=-1, omega2=1, g=0, alpha=1)
        with pytest.raises(ValueError):
            RabiParams(omega1=1, omega2=0, g=0, alpha=1)
        with pytest.raises(ValueError):
            RabiParams(omega1=1, omega2=1, g=0, alpha=1, n_fock=1)

    def test_dissipativity_identity(self):
        m = rabi_model(
            RabiParams(omega1=1, omega2=1.2, g=0.3, alpha=0.5, psi=0.4,
                       n_fock=4)
        )
        rng = np.random.default_rng(42)
        vectors = list(np.eye(m.dim, dtype=complex))
        for _ in range(20):
            x = rng.normal(size=m.dim) + 1j * rng.normal(size=m.dim)
            vectors.append(x / np.linalg.norm(x))
        for x in vectors:
            assert abs(dissipativity_on_vector(m, x)) <= 1e-10

    def test_hamiltonian_hermitian(self):
        m = rabi_model(
            RabiParams(omega1=1, omega2=2, g=0.7, alpha=1, psi=1.1, n_fock=3)
        )
        assert np.max(np.abs(m.hamiltonian - m.hamiltonian.conj().T)) <= 1e-12

    def test_truncated_commutator(self):
        # [a, a^dag] = 1 except in the last Fock level
        n_fock = 5
        a = annihilation(n_fock)
        comm = a @ a.conj().T - a.conj().T @ a
        keep = n_fock - 1
        assert np.allclose(comm[:keep, :keep], np.eye(keep), atol=1e-14)


class TestBoxModel:
    def test_laplacian_structure(self):
        m = box_model(BoxParams(alpha_kin=1, gamma=1, x_min=0, x_max=4, n_grid=3))
        expected = -np.array([[-2, 1, 0], [1, -2, 1], [0, 1, -2]], dtype=float)
        assert np.allclose(m.hamiltonian, expected, atol=1e-14)

    def test_zero_coupling_is_closed(self):
        m = box_model(BoxParams(alpha_kin=1, gamma=0, x_min=0, x_max=4, n_grid=3))
        assert np.array_equal(m.lindblads[0], np.zeros((3, 3)))
        assert np.allclose(m.drift_generator, -1j * m.hamiltonian, atol=1e-15)

    def test_position_channel(self):
        m = box_model(BoxParams(alpha_kin=1, gamma=2, x_min=0, x_max=4, n_grid=3))
        assert np.allclose(m.lindblads[0], np.diag([2.0, 4.0, 6.0]), atol=1e-14)

    def test_real_symmetric(self):
        pot = lambda x: 0.3 * x**2
        m = box_model(
            BoxParams(alpha_kin=0.5, gamma=0.2, x_min=-1, x_max=1, n_grid=8,
                      potential=pot)
        )
        assert np.max(np.abs(m.hamiltonian.imag)) == 0.0
        assert np.allclose(m.hamiltonian, m.hamiltonian.T)
        l1 = m.lindblads[0]
        assert np.max(np.abs(l1.imag)) == 0.0
        assert np.allclose(l1, np.diag(np.diag(l1)))

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            BoxParams(alpha_kin=1, gamma=1, x_min=1, x_max=0, n_grid=5)
        with pytest.raises(ValueError):
            BoxParams(alpha_kin=1, gamma=1, x_min=0, x_max=1, n_grid=2)


class TestValidateModel:
    def test_constructed_models_pass(self):
        for m in (
            qubit_model(1.0, 1.0, "z"),
            rabi_model(RabiParams(1, 1.2, 0.1, 0.5, 0, 3)),
            box_model(BoxParams(1, 0.5, -1, 1, 8)),
        ):
            diag = validate_model(m)
            assert diag.passed
            assert diag.drift_residual <= 1e-12

    def test_perturbed_generator_fails(self):
        m = qubit_model(1.0, 1.0, "z")
        broken = ModelSpec(
            dim=m.dim,
            hamiltonian=m.hamiltonian,
            lindblads=m.lindblads,
            drift_generator=m.drift_generator + 0.01 * np.eye(2),
            meta=m.meta,
        )
        diag = validate_model(broken)
        assert not diag.passed
        assert diag.dissipativity_residual == pytest.approx(0.02, rel=1e-9)

    def test_closed_system_residual_zero(self):
        m = make_model(SIGMA_Z, [])
        diag = validate_model(m)
        assert diag.passed
        assert diag.dissipativity_residual == 0.0

    def test_qubit_dissipativity_random_vectors(self):
        m = qubit_model(0.7, 1.3, "minus")
        rng = np.random.default_rng(1)
        for _ in range(20):
            x = rng.normal(size=2) + 1j * rng.normal(size=2)
            x /= np.linalg.norm(x)
            assert abs(dissipativity_on_vector(m, x)) <= 1e-10


def _random_custom_model(d, m, seed):
    rng = np.random.default_rng(seed)

    def gaussian():
        return rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))

    h = gaussian()
    return make_model(0.5 * (h + h.conj().T),
                      [0.5 * gaussian() for _ in range(m)],
                      meta={"kind": "custom"})


class TestLiouvillian:
    @pytest.mark.parametrize("model", [
        qubit_model(1.0, 1.0, "z"),
        qubit_model(0.0, 1.0, "minus"),
        rabi_model(RabiParams(1.0, 1.2, 0.1, 0.5, 0.0, 3)),
        box_model(BoxParams(0.5, 0.5, -4.0, 4.0, 16)),
        _random_custom_model(3, 2, 5),
    ], ids=["qubit", "damping-qubit", "rabi", "box", "custom"])
    def test_matches_gksl_rhs(self, model):
        rng = np.random.default_rng(model.dim)
        rho = (rng.normal(size=(model.dim,) * 2)
               + 1j * rng.normal(size=(model.dim,) * 2))
        got = liouvillian(model) @ rho.ravel()
        assert np.max(np.abs(got - gksl_rhs(model, rho).ravel())) <= 1e-13

    def test_closed_system_is_a_commutator(self):
        model = make_model(SIGMA_Z, [])
        expected = -1j * (np.kron(SIGMA_Z, np.eye(2))
                          - np.kron(np.eye(2), SIGMA_Z.T))
        assert np.array_equal(liouvillian(model), expected)
