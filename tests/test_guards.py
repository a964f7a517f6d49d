"""Every invariant guard, just inside and just outside its threshold.

The thresholds are fixed: 1e-10 on Hermiticity, 1e-8 on the trace and the
most negative eigenvalue of a state (a stack's total weight is the trace of
its state), and ten times that per step (a state may carry one step's
rounding into the next).  Each case violates its invariant by 0.9 and 1.1
times the threshold, so moving a threshold by more than 10 % fails here.
"""

import numpy as np
import pytest

from siwf.errors import DensityMatrixError, NormViolationError, NotHermitianError
from siwf.linalg import assert_density_matrix, hermitian_eig
from siwf.model import (
    SIGMA_Z,
    ModelSpec,
    build_gksl_generator,
    make_model,
    validate_model,
)
from siwf.states import assemble_density
from siwf.steppers import StepContext, step_belavkin, step_nonlinear_sse, step_siwf

E1 = np.array([1, 0], dtype=complex)
SZ_MONITOR = make_model(np.zeros((2, 2)), [SIGMA_Z])

#: (factor on the threshold, whether the guard lets the value through)
SIDES = [(0.9, True), (1.1, False)]


def guarded(call, error, passes):
    if passes:
        call()
    else:
        with pytest.raises(error):
            call()


def upper_offset(eps):
    """0.5 I plus eps in the upper corner: Hermiticity defect exactly eps."""
    return np.array([[0.5, eps], [0.0, 0.5]], dtype=complex)


@pytest.mark.parametrize("factor, passes", SIDES)
class TestHermiticity:
    def test_make_model(self, factor, passes):
        guarded(lambda: make_model(upper_offset(factor * 1e-10), []),
                NotHermitianError, passes)

    def test_build_gksl_generator(self, factor, passes):
        guarded(lambda: build_gksl_generator(upper_offset(factor * 1e-10), []),
                NotHermitianError, passes)

    def test_hermitian_eig(self, factor, passes):
        guarded(lambda: hermitian_eig(upper_offset(factor * 1e-10)),
                NotHermitianError, passes)

    def test_assert_density_matrix(self, factor, passes):
        guarded(lambda: assert_density_matrix(upper_offset(factor * 1e-10)),
                DensityMatrixError, passes)

    def test_validate_model(self, factor, passes):
        h = upper_offset(factor * 1e-10)
        g = -1j * (h + h.conj().T) / 2
        model = ModelSpec(dim=2, hamiltonian=h, lindblads=(), drift_generator=g)
        diag = validate_model(model)
        assert diag.threshold == 1e-10
        assert diag.passed == passes


@pytest.mark.parametrize("factor, passes", SIDES)
class TestDensityMatrix:
    def test_trace(self, factor, passes):
        rho = np.diag([0.5, 0.5]).astype(complex) * (1 + factor * 1e-8)
        guarded(lambda: assert_density_matrix(rho), DensityMatrixError, passes)

    def test_negativity(self, factor, passes):
        neg = factor * 1e-8
        rho = np.diag([1.0 + neg, -neg]).astype(complex)
        guarded(lambda: assert_density_matrix(rho), DensityMatrixError, passes)

    def test_assemble_density_always_checks(self, factor, passes):
        psi = np.sqrt(1 + factor * 1e-8) * E1[None]
        guarded(lambda: assemble_density(psi), DensityMatrixError, passes)


@pytest.mark.parametrize("factor, passes", SIDES)
class TestEnsembleWeight:
    def test_step_siwf(self, factor, passes):
        ctx = StepContext(SZ_MONITOR, dt=0.01)
        psi = np.sqrt(1 + factor * 1e-7) * E1[None]
        guarded(lambda: step_siwf(ctx, psi, [0.0]), NormViolationError, passes)


@pytest.mark.parametrize("factor, passes", SIDES)
class TestStepDrift:
    def test_nonlinear_renormalized(self, factor, passes):
        ctx = StepContext(SZ_MONITOR, dt=0.01, renormalize=True)
        phi = (1 + factor * 1e-7) * E1
        guarded(lambda: step_nonlinear_sse(ctx, phi, [0.0]),
                NormViolationError, passes)

    def test_nonlinear_unrenormalized_carries_drift(self, factor, passes):
        ctx = StepContext(SZ_MONITOR, dt=0.01, renormalize=False)
        step_nonlinear_sse(ctx, (1 + factor * 1e-7) * E1, [0.0])

    def test_belavkin_unrenormalized(self, factor, passes):
        ctx = StepContext(SZ_MONITOR, dt=0.01, renormalize=False)
        rho = np.diag([1 + factor * 1e-7, 0.0]).astype(complex)
        guarded(lambda: step_belavkin(ctx, rho, [0.0]),
                DensityMatrixError, passes)

    def test_belavkin_renormalized_rescales(self, factor, passes):
        ctx = StepContext(SZ_MONITOR, dt=0.01, renormalize=True)
        rho = np.diag([1 + factor * 1e-7, 0.0]).astype(complex)
        assert np.trace(step_belavkin(ctx, rho, [0.0])).real == pytest.approx(1.0)
