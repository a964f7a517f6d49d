import itertools

import numpy as np
import pytest
import scipy.linalg

from siwf.errors import NormViolationError
from siwf.model import SIGMA_MINUS, SIGMA_Z, make_model, qubit_model, rabi_model, RabiParams
from siwf.noise import coarsen, generate_noise
from siwf.steppers import (
    StepContext,
    belavkin_step_batch,
    gksl_rhs,
    linear_step_batch,
    siwf_step_batch,
    step_gksl,
    step_nonlinear_sse,
)

E1 = np.array([1, 0], dtype=complex)
E2 = np.array([0, 1], dtype=complex)
FREE = make_model(np.zeros((2, 2)), [])
SZ_MONITOR = make_model(np.zeros((2, 2)), [SIGMA_Z])


class TestLinearStep:
    def test_zero_generator_identity(self):
        ctx = StepContext(FREE, dt=0.01)
        phi = np.array([0.6, 0.8j])
        out = linear_step_batch(ctx, phi[None, None], np.zeros((1, 0)))[0, 0]
        assert np.array_equal(out, phi)

    def test_deterministic_drift(self):
        model = make_model(SIGMA_Z, [])
        ctx = StepContext(model, dt=0.01)
        out = linear_step_batch(ctx, E1[None, None], np.zeros((1, 0)))[0, 0]
        assert np.allclose(out, np.array([1 - 0.01j, 0]), atol=1e-15)

    def test_single_step_arithmetic(self):
        # G = -I/2, so phi' = (1 - 0.005 + 0.1) e1 = 1.095 e1
        ctx = StepContext(SZ_MONITOR, dt=0.01)
        out = linear_step_batch(ctx, E1[None, None], np.array([[0.1]]))[0, 0]
        assert np.allclose(out, np.array([1.095, 0]), atol=1e-15)

    def test_exponential_scheme_scalar_oracle(self):
        # on the sigma_z eigenstate: phi' = e^{-dt/2} (1 + dB) phi
        ctx = StepContext(SZ_MONITOR, scheme="exponential_em", dt=0.01)
        out = linear_step_batch(ctx, E1[None, None], np.array([[0.1]]))[0, 0]
        assert out[0] == pytest.approx(np.exp(-0.005) * 1.1, abs=1e-12)

    def test_never_normalizes(self):
        ctx = StepContext(SZ_MONITOR, dt=0.01, renormalize=True)
        out = linear_step_batch(ctx, E1[None, None], np.array([[0.5]]))[0, 0]
        assert np.linalg.norm(out) != pytest.approx(1.0)


class TestNonlinearStep:
    def test_free_identity(self):
        ctx = StepContext(FREE, dt=0.01)
        phi = np.array([0.6, 0.8], dtype=complex)
        assert np.array_equal(step_nonlinear_sse(ctx, phi, []), phi)

    def test_eigenstate_is_fixed_point(self):
        ctx = StepContext(SZ_MONITOR, dt=0.01, renormalize=False)
        out = step_nonlinear_sse(ctx, E1, [0.1])
        assert np.allclose(out, E1, atol=1e-15)

    def test_single_step_scalar_oracle(self):
        # independent componentwise arithmetic for the superposition state
        dt, dw = 0.01, 0.1
        a = b = 1 / np.sqrt(2)
        m = a * a - b * b  # Re<phi, sz phi> = 0
        # drift: -phi/2 + m sz phi - m^2/2 phi ; diffusion: (sz phi - m phi) dw
        exp_a = a + (-0.5 * a + m * a - 0.5 * m * m * a) * dt + (a - m * a) * dw
        exp_b = b + (-0.5 * b - m * b - 0.5 * m * m * b) * dt + (-b - m * b) * dw
        ctx = StepContext(SZ_MONITOR, dt=dt, renormalize=False)
        out = step_nonlinear_sse(ctx, np.array([a, b], dtype=complex), [dw])
        assert out[0] == pytest.approx(exp_a, abs=1e-15)
        assert out[1] == pytest.approx(exp_b, abs=1e-15)

    def test_renormalizes_when_asked(self):
        ctx = StepContext(SZ_MONITOR, dt=0.01, renormalize=True)
        phi = np.array([1, 1], dtype=complex) / np.sqrt(2)
        out = step_nonlinear_sse(ctx, phi, [0.3])
        assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-14)

    def test_rejects_zero_state(self):
        ctx = StepContext(SZ_MONITOR, dt=0.01)
        with pytest.raises(NormViolationError):
            step_nonlinear_sse(ctx, np.zeros(2, dtype=complex), [0.1])

    def test_rejects_unnormalized(self):
        ctx = StepContext(SZ_MONITOR, dt=0.01)
        with pytest.raises(NormViolationError):
            step_nonlinear_sse(ctx, 1.5 * E1, [0.1])


class TestSiwfStep:
    def test_single_component_reduces_to_nonlinear(self):
        model = qubit_model(0.8, 1.0, "z")
        ctx = StepContext(model, dt=1e-3, renormalize=True)
        rng = np.random.default_rng(0)
        phi = rng.normal(size=2) + 1j * rng.normal(size=2)
        phi /= np.linalg.norm(phi)
        for _ in range(50):
            dw = rng.normal(scale=np.sqrt(1e-3), size=1)
            psi = siwf_step_batch(ctx, phi[None, None], dw[None])[0][0]
            single = nonlinear_loop_reference(ctx, phi, dw)
            assert np.max(np.abs(psi[0] - single)) <= 1e-8
            phi = single

    def test_zero_component_stays_zero(self):
        model = qubit_model(1.0, 1.0, "z")
        ctx = StepContext(model, dt=1e-3)
        psi = np.stack([E1, np.zeros(2, dtype=complex)])
        for dw in ([0.1], [-0.2], [0.03]):
            psi = siwf_step_batch(ctx, psi[None], np.array([dw]))[0][0]
            assert np.array_equal(psi[1], np.zeros(2))

    def test_coupling_cancellation_gives_linear_steps(self):
        # components e1/sqrt2, e2/sqrt2 have opposite sigma_z means, so the
        # coupling vanishes and each component takes an independent linear step
        ctx = StepContext(SZ_MONITOR, dt=0.01, renormalize=False)
        stack = np.stack([E1, E2]) / np.sqrt(2)
        dw = np.array([0.1])
        out = siwf_step_batch(ctx, stack[None], dw[None])[0][0]
        lin1 = linear_step_batch(ctx, stack[None, :1], dw[None])[0, 0]
        lin2 = linear_step_batch(ctx, stack[None, 1:], dw[None])[0, 0]
        assert np.allclose(out[0], lin1, atol=1e-15)
        assert np.allclose(out[1], lin2, atol=1e-15)

    def test_global_renormalization_preserves_relative_weights(self):
        model = qubit_model(1.0, 0.6, "z")
        ctx = StepContext(model, dt=1e-3, renormalize=True)
        stack = np.stack([np.sqrt(0.7) * E1, np.sqrt(0.3) * E2])
        out = siwf_step_batch(ctx, stack[None], np.array([[0.05]]))[0][0]
        raw, _, norm_sq = siwf_step_batch(
            StepContext(model, dt=1e-3, renormalize=False), stack[None],
            np.array([[0.05]]),
        )
        assert np.allclose(out, raw[0] / np.sqrt(norm_sq[0]),
                           atol=1e-15)

    def test_renormalization_factor_small_alpha(self):
        # the pre-rescale weight drifts from 1 only at O(dt) per step
        model = rabi_model(RabiParams(1.0, 1.2, 0.1, 0.1, 0.0, 3))
        dt = 1e-3
        ctx = StepContext(model, dt=dt, renormalize=True)
        noise = generate_noise(17, 1, dt, 1000)
        psi = np.zeros((1, 2, model.dim), dtype=complex)
        psi[0, 0, 0] = np.sqrt(0.7)
        psi[0, 1, 1] = np.sqrt(0.3)
        worst = 0.0
        for k in range(1000):
            psi, _, norm_sq = siwf_step_batch(ctx, psi, noise.increments[k][None])
            worst = max(worst, abs(1.0 - norm_sq[0]))
        assert worst <= 50 * dt


class TestBelavkinStep:
    def test_free_identity(self):
        ctx = StepContext(FREE, dt=0.01)
        rho = np.diag([0.3, 0.7]).astype(complex)
        out = belavkin_step_batch(ctx, rho[None], np.zeros((1, 0)))[0][0]
        assert np.array_equal(out, rho)

    def test_maximally_mixed_drift_vanishes(self):
        # tr(sz rho) = 0 and sz rho sz = rho: the noiseless step is exact
        ctx = StepContext(SZ_MONITOR, dt=0.01)
        rho = 0.5 * np.eye(2, dtype=complex)
        out = belavkin_step_batch(ctx, rho[None], np.array([[0.0]]))[0][0]
        assert np.allclose(out, rho, atol=1e-15)

    def test_eigenstate_is_stationary(self):
        ctx = StepContext(SZ_MONITOR, dt=0.01)
        rho = np.diag([1.0, 0.0]).astype(complex)
        out = belavkin_step_batch(ctx, rho[None], np.array([[0.4]]))[0][0]
        assert np.allclose(out, rho, atol=1e-14)

    def test_hermitian_after_step(self):
        model = qubit_model(1.3, 0.9, "x")
        ctx = StepContext(model, dt=1e-3)
        rho = np.array([[0.6, 0.2 + 0.1j], [0.2 - 0.1j, 0.4]])
        out = belavkin_step_batch(ctx, rho[None], np.array([[0.21]]))[0][0]
        assert np.array_equal(out, out.conj().T)


def linear_einsum_reference(ctx, phi, dw):
    """The per-channel loop form of the linear step, kept as a reference."""
    ls = ctx.model.lindblads
    stoch = np.zeros_like(phi)
    for l, l_op in enumerate(ls):
        stoch += (phi @ l_op.T) * dw[:, l, None, None]
    if ctx.scheme == "exponential_em":
        return (phi + stoch) @ ctx.propagator.T
    return phi + (phi @ ctx.model.drift_generator.T) * ctx.dt + stoch


def siwf_einsum_reference(ctx, psi, dw):
    """The per-channel loop form of the ensemble step, kept as a reference."""
    ls = ctx.model.lindblads
    n_ch = len(ls)
    b = psi.shape[0]
    p = np.empty((b, n_ch))
    lpsi = []
    for l, l_op in enumerate(ls):
        lp = psi @ l_op.T
        lpsi.append(lp)
        p[:, l] = np.einsum("bni,bni->b", psi.conj(), lp).real
    nl_drift = np.zeros_like(psi)
    diffusion = np.zeros_like(psi)
    for l in range(n_ch):
        pl = p[:, l, None, None]
        nl_drift += pl * lpsi[l] - 0.5 * pl**2 * psi
        diffusion += (lpsi[l] - pl * psi) * dw[:, l, None, None]
    if ctx.scheme == "exponential_em":
        new = (psi + nl_drift * ctx.dt + diffusion) @ ctx.propagator.T
    else:
        new = (
            psi
            + (psi @ ctx.model.drift_generator.T + nl_drift) * ctx.dt
            + diffusion
        )
    norm_sq = np.einsum("bni,bni->b", new.conj(), new).real
    if ctx.renormalize:
        new = new / np.sqrt(norm_sq)[:, None, None]
    return new, p, norm_sq


def nonlinear_loop_reference(ctx, v, dwv):
    """The per-channel loop form of the nonlinear step, kept as a reference."""
    nl_drift = np.zeros_like(v)
    diffusion = np.zeros_like(v)
    for l, l_op in enumerate(ctx.model.lindblads):
        lv = l_op @ v
        m = float(np.real(np.vdot(v, lv)))
        nl_drift += m * lv - 0.5 * m * m * v
        diffusion += (lv - m * v) * dwv[l]
    if ctx.scheme == "exponential_em":
        new = ctx.propagator @ (v + nl_drift * ctx.dt + diffusion)
    else:
        new = v + (ctx.model.drift_generator @ v + nl_drift) * ctx.dt + diffusion
    if ctx.renormalize:
        new = new / np.linalg.norm(new)
    return new


class TestNonlinearKernel:
    @pytest.mark.parametrize("scheme", ["euler_maruyama", "exponential_em"])
    @pytest.mark.parametrize("n_ch", [0, 1, 2])
    @pytest.mark.parametrize("renormalize", [True, False])
    def test_matches_loop_reference(self, scheme, n_ch, renormalize):
        rng = np.random.default_rng(13)
        cplx = lambda *shape: rng.normal(size=shape) + 1j * rng.normal(size=shape)
        for d in (2, 6, 16):
            h = cplx(d, d)
            model = make_model(h + h.conj().T, [cplx(d, d) / d for _ in range(n_ch)])
            ctx = StepContext(model, scheme, 1e-3, renormalize)
            phi = cplx(d)
            # without renormalization a non-unit state is carried as it is
            phi *= (1.0 if renormalize else 1.3) / np.linalg.norm(phi)
            for _ in range(5):
                dw = rng.normal(scale=0.03, size=n_ch)
                got = step_nonlinear_sse(ctx, phi, dw)
                ref = nonlinear_loop_reference(ctx, phi, dw)
                assert got.shape == ref.shape == (d,)
                assert np.max(np.abs(got - ref)) <= 1e-13, d
                phi = ref


class TestSiwfLinearKernels:
    @pytest.mark.parametrize("scheme", ["euler_maruyama", "exponential_em"])
    @pytest.mark.parametrize("n_ch", [0, 1, 2])
    @pytest.mark.parametrize("renormalize", [True, False])
    def test_match_einsum_references(self, scheme, n_ch, renormalize):
        rng = np.random.default_rng(11)
        cplx = lambda *shape: rng.normal(size=shape) + 1j * rng.normal(size=shape)
        # extra > 0: a wider increment is read in its first n_ch columns
        for d, b, n, extra in itertools.product((2, 6, 16), (1, 5, 256),
                                                (1, 2, 3), (0, 2)):
            h = cplx(d, d)
            model = make_model(h + h.conj().T, [cplx(d, d) / d for _ in range(n_ch)])
            ctx = StepContext(model, scheme, 1e-3, renormalize)
            psi = cplx(b, n, d)
            psi /= np.sqrt(np.einsum("bni,bni->b", psi.conj(), psi).real)[:, None, None]
            dw = rng.normal(scale=0.03, size=(b, n_ch + extra))
            got = siwf_step_batch(ctx, psi, dw) + (linear_step_batch(ctx, psi, dw),)
            ref = siwf_einsum_reference(ctx, psi, dw) + (
                linear_einsum_reference(ctx, psi, dw),)
            for x, y, shape in zip(got, ref, [(b, n, d), (b, n_ch), (b,), (b, n, d)]):
                assert x.shape == y.shape == shape, (b, n, d)
                assert np.max(np.abs(x - y), initial=0.0) <= 1e-13, (b, n, d)


def belavkin_einsum_reference(ctx, rho, dw, renormalize):
    """The per-channel einsum form of the Belavkin step, kept as a reference."""
    ls = ctx.model.lindblads
    tr = np.empty((rho.shape[0], len(ls)))
    hop = np.zeros_like(rho)
    diffusion = np.zeros_like(rho)
    for l, l_op in enumerate(ls):
        lrho = np.einsum("ij,bjk->bik", l_op, rho)
        rhold = lrho.conj().transpose(0, 2, 1)
        tr[:, l] = np.einsum("bii->b", lrho).real
        hop += np.einsum("bij,kj->bik", lrho, l_op.conj())
        diffusion += (lrho + rhold - 2.0 * tr[:, l, None, None] * rho) * dw[
            :, l, None, None
        ]
    if ctx.scheme == "exponential_em":
        inner = rho + hop * ctx.dt + diffusion
        prop = ctx.propagator
        new = np.einsum("ij,bjk,lk->bil", prop, inner, prop.conj())
    else:
        g = ctx.model.drift_generator
        grho = np.einsum("ij,bjk->bik", g, rho)
        new = rho + (grho + grho.conj().transpose(0, 2, 1) + hop) * ctx.dt + diffusion
    new = (new + new.conj().transpose(0, 2, 1)) / 2.0
    if renormalize:
        new = new / np.einsum("bii->b", new).real[:, None, None]
    return new, tr


class TestBelavkinKernel:
    @pytest.mark.parametrize("scheme", ["euler_maruyama", "exponential_em"])
    @pytest.mark.parametrize("n_ch", [0, 1, 2])
    @pytest.mark.parametrize("renormalize", [True, False])
    def test_matches_einsum_reference(self, scheme, n_ch, renormalize):
        rng = np.random.default_rng(7)
        cplx = lambda *shape: rng.normal(size=shape) + 1j * rng.normal(size=shape)
        for b in (1, 5, 32):
            for d in (2, 6, 16):
                h = cplx(d, d)
                model = make_model(h + h.conj().T, [cplx(d, d) / d for _ in range(n_ch)])
                ctx = StepContext(model, scheme, 1e-3, renormalize)
                x = cplx(b, d, d)
                rho = x @ x.conj().transpose(0, 2, 1)
                rho = rho / np.einsum("bii->b", rho).real[:, None, None]
                dw = rng.normal(scale=0.03, size=(b, n_ch))
                new, tr = belavkin_step_batch(ctx, rho, dw)
                ref, ref_tr = belavkin_einsum_reference(ctx, rho, dw, renormalize)
                assert new.shape == ref.shape and tr.shape == ref_tr.shape == (b, n_ch)
                assert np.max(np.abs(new - ref)) <= 1e-13, (b, d)
                assert np.max(np.abs(tr - ref_tr), initial=0.0) <= 1e-13, (b, d)


class TestGkslStep:
    def test_free_constant(self):
        ctx = StepContext(FREE, dt=0.01)
        rho = np.diag([0.2, 0.8]).astype(complex)
        assert np.array_equal(step_gksl(ctx, rho), rho)

    def test_amplitude_damping_analytic(self):
        model = make_model(np.zeros((2, 2)), [SIGMA_MINUS])
        ctx = StepContext(model, dt=1e-3)
        rho = np.diag([1.0, 0.0]).astype(complex)
        for _ in range(1000):
            rho = step_gksl(ctx, rho)
        assert rho[0, 0].real == pytest.approx(np.exp(-1.0), abs=1e-10)

    def test_rhs_is_traceless(self):
        rng = np.random.default_rng(2)
        h = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        model = make_model((h + h.conj().T) / 2,
                           [rng.normal(size=(3, 3)) + 0j])
        rho = np.eye(3, dtype=complex) / 3
        assert abs(np.trace(gksl_rhs(model, rho))) <= 1e-14

    def test_trace_conserved_long_run(self):
        model = qubit_model(1.0, 1.0, "minus")
        ctx = StepContext(model, dt=1e-3)
        rho = np.array([[0.6, 0.2], [0.2, 0.4]], dtype=complex)
        for _ in range(1000):
            rho = step_gksl(ctx, rho)
        assert abs(np.trace(rho) - 1.0) <= 1e-10


class TestSchemeAgreement:
    def test_exponential_vs_euler_linear_sse(self):
        model = qubit_model(1.0, 0.8, "z")
        dt = 1e-3
        noise = generate_noise(3, 1, dt, 1000)
        ctx_e = StepContext(model, "euler_maruyama", dt)
        ctx_x = StepContext(model, "exponential_em", dt)
        phi_e = E1.copy()
        phi_x = E1.copy()
        worst = 0.0
        for k in range(1000):
            dw = noise.increments[k]
            phi_e = linear_step_batch(ctx_e, phi_e[None, None], dw[None])[0, 0]
            phi_x = linear_step_batch(ctx_x, phi_x[None, None], dw[None])[0, 0]
            worst = max(worst, float(np.max(np.abs(phi_e - phi_x))))
        g_norm = np.linalg.norm(model.drift_generator, 2)
        assert worst <= 10.0 * g_norm * dt

    def test_exponential_closed_system_unitary(self):
        model = make_model(SIGMA_Z, [])
        ctx = StepContext(model, "exponential_em", dt=0.05, renormalize=False)
        phi = np.array([0.6, 0.8], dtype=complex)
        for _ in range(200):
            phi = step_nonlinear_sse(ctx, phi, [])
        assert abs(np.linalg.norm(phi) - 1.0) <= 1e-12

    def test_propagator_matches_expm(self):
        model = qubit_model(0.9, 1.1, "minus")
        ctx = StepContext(model, "exponential_em", dt=0.02)
        assert np.allclose(
            ctx.propagator,
            scipy.linalg.expm(model.drift_generator * 0.02),
            atol=1e-14,
        )


class TestStrongConvergence:
    def test_order_half_ratio(self):
        # same Brownian path at dt, dt/2, dt/4: the dt-vs-dt/2 gap must
        # shrink by >= 1.3 per halving, averaged over 50 seeds
        model = qubit_model(1.0, 1.0, "z")
        t_final = 0.5
        dt0 = 4e-3
        stack0 = np.stack([np.sqrt(0.6) * E1, np.sqrt(0.4) * E2])
        errs = {dt0: [], dt0 / 2: []}
        for seed in range(50):
            fine = generate_noise(seed, 1, dt0 / 4, round(t_final / (dt0 / 4)))
            finals = {}
            for factor in (1, 2, 4):
                path = coarsen(fine, 4 // factor)
                ctx = StepContext(model, dt=path.dt, renormalize=True)
                psi = stack0[None].copy()
                for k in range(path.n_steps):
                    psi, _, _ = siwf_step_batch(ctx, psi, path.increments[k][None])
                finals[factor] = psi[0]
            errs[dt0].append(np.linalg.norm(finals[1] - finals[2]))
            errs[dt0 / 2].append(np.linalg.norm(finals[2] - finals[4]))
        ratio = np.mean(errs[dt0]) / np.mean(errs[dt0 / 2])
        assert ratio >= 1.3
