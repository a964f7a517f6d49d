import contextlib
import hashlib
import os
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import siwf.trajectories as traj
from siwf.errors import (ConfigError, SiwfError, StepFailureError,
                         TrajectoryExtinctError)
from siwf.model import (
    BoxParams,
    RabiParams,
    SIGMA_MINUS,
    SIGMA_Z,
    box_model,
    make_model,
    qubit_model,
    rabi_model,
)
from siwf.noise import NoisePath, generate_noise, generate_noise_block
from siwf.recordio import record_to_csv
from siwf.states import (InitialDecomposition, decompose_density,
                         init_ensemble)
from siwf.steppers import StepContext, linear_step_batch
from siwf.trajectories import (
    BLOCK_SIZE,
    EXTINCTION_THRESHOLD,
    MC_EQUATIONS,
    gksl_solve,
    monte_carlo_mean,
    run_belavkin_trajectory,
    run_linear_route,
    run_nonlinear_trajectory,
    resolve_steps,
    run_siwf_trajectory,
    sample_functionals,
    save_indices,
    weight_paths,
)

E1 = np.array([1, 0], dtype=complex)
E2 = np.array([0, 1], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)


def mixture(weights, vectors):
    return InitialDecomposition(weights=np.asarray(weights, dtype=float),
                                vectors=np.stack(vectors))


class TestSiwfTrajectory:
    def test_free_system_is_constant(self):
        model = make_model(np.zeros((2, 2)), [])
        dec = mixture([0.5, 0.5], [E1, E2])
        noise = generate_noise(1, 0, 1e-3, 100)
        rec = run_siwf_trajectory(model, dec, noise, save_stride=10)
        for k in range(rec.n_saved):
            assert np.allclose(rec.ensembles[k], rec.ensembles[0], atol=1e-14)
        assert np.array_equal(rec.records, rec.innovations)

    def test_pure_state_matches_nonlinear_run(self):
        model = qubit_model(1.0, 1.0, "z")
        psi0 = (E1 + E2) / np.sqrt(2)
        dec = mixture([1.0], [psi0])
        noise = generate_noise(5, 1, 1e-3, 1000)
        rec_e = run_siwf_trajectory(model, dec, noise, save_stride=100)
        rec_n = run_nonlinear_trajectory(model, psi0, noise, save_stride=100)
        assert np.max(np.abs(rec_e.ensembles[:, 0] - rec_n.ensembles[:, 0])) <= 1e-8
        assert np.max(np.abs(rec_e.densities - rec_n.densities)) <= 1e-8

    def test_pure_state_matches_nonlinear_run_without_renormalization(self):
        model = rabi_model(RabiParams(omega1=1.0, omega2=1.2, g=0.1, alpha=0.5,
                                      n_fock=3))
        psi0 = np.zeros(model.dim, dtype=complex)
        psi0[[0, 3]] = 1 / np.sqrt(2)
        noise = generate_noise(5, model.n_channels, 1e-3, 1000)
        rec_e = run_siwf_trajectory(model, mixture([1.0], [psi0]), noise,
                                    renormalize=False)
        rec_n = run_nonlinear_trajectory(model, psi0, noise, renormalize=False)
        assert np.max(np.abs(rec_e.ensembles[:, 0] - rec_n.ensembles[:, 0])) <= 1e-12
        assert np.max(np.abs(rec_e.records - rec_n.records)) <= 1e-12

    @pytest.mark.parametrize("case", ["rabi", "box"])
    @pytest.mark.parametrize("renormalize", [True, False])
    def test_pure_state_matches_nonlinear_run_exactly(self, case, renormalize):
        # the nonlinear equation is the ensemble equation of one component,
        # so both runners make the same floating-point operations
        if case == "rabi":
            model = rabi_model(RabiParams(omega1=1.0, omega2=1.2, g=0.1,
                                          alpha=0.5, n_fock=3))
            psi0 = np.zeros(model.dim, dtype=complex)
            psi0[[0, 3]] = 1 / np.sqrt(2)
            scheme = "euler_maruyama"
        else:
            model = box_model(BoxParams(alpha_kin=0.5, gamma=0.5, x_min=-4.0,
                                        x_max=4.0, n_grid=16))
            psi0 = np.exp(-0.5 * np.asarray(model.meta["grid"]) ** 2)
            psi0 = (psi0 / np.linalg.norm(psi0)).astype(complex)
            scheme = "exponential_em"
        noise = generate_noise(9, model.n_channels, 1e-3, 300)
        kwargs = dict(scheme=scheme, renormalize=renormalize)
        rec_e = run_siwf_trajectory(model, mixture([1.0], [psi0]), noise,
                                    **kwargs)
        rec_n = run_nonlinear_trajectory(model, psi0, noise, **kwargs)
        assert np.array_equal(rec_e.densities, rec_n.densities)
        assert np.array_equal(rec_e.records, rec_n.records)
        assert np.array_equal(rec_e.innovations, rec_n.innovations)

    @pytest.mark.parametrize("scale, renormalize, violation", [
        (0.0, True, "nonzero state"),
        (0.0, False, "nonzero state"),
        (1.5, True, "unit state"),
    ])
    def test_nonlinear_run_rejects_bad_initial_state(self, scale, renormalize,
                                                     violation):
        model = qubit_model(1.0, 1.0, "z")
        psi0 = scale * (E1 + E2) / np.sqrt(2)
        noise = generate_noise(5, 1, 1e-3, 10)
        with pytest.raises(SiwfError, match=violation):
            run_nonlinear_trajectory(model, psi0, noise,
                                     renormalize=renormalize)

    def test_zero_components_stay_zero(self):
        model = qubit_model(1.0, 1.0, "z")
        dec = mixture([0.7, 0.3, 0.0], [E1, E2, (E1 + E2) / np.sqrt(2)])
        noise = generate_noise(6, 1, 1e-3, 200)
        rec = run_siwf_trajectory(model, dec, noise)
        assert np.array_equal(rec.ensembles[:, 2], np.zeros_like(rec.ensembles[:, 2]))

    def test_norm_constraint_with_renormalization(self):
        model = rabi_model(RabiParams(1.0, 1.2, 0.1, 0.5, 0.0, 3))
        dec = decompose_density(np.diag([0.7, 0.3] + [0.0] * 4).astype(complex))
        noise = generate_noise(7, 1, 1e-3, 1000)
        rec = run_siwf_trajectory(model, dec, noise, save_stride=50)
        totals = np.sum(np.abs(rec.ensembles) ** 2, axis=(1, 2))
        assert np.max(np.abs(totals - 1.0)) <= 1e-8

    def test_observable_series(self):
        model = qubit_model(1.0, 1.0, "z")
        dec = mixture([1.0], [E1])
        noise = generate_noise(8, 1, 1e-3, 100)
        rec = run_siwf_trajectory(model, dec, noise,
                                  observables={"sz": SZ})
        assert rec.observables["sz"][0] == pytest.approx(1.0)


class TestLinearRoute:
    def test_closed_system_weight_is_one(self):
        model = make_model(SIGMA_Z, [])
        dec = mixture([0.5, 0.5], [E1, E2])
        noise = generate_noise(2, 0, 1e-3, 500)
        rec, weights = run_linear_route(
            model, dec, noise, save_stride=50, scheme="exponential_em"
        )
        assert np.max(np.abs(weights - 1.0)) <= 1e-12
        # unitary evolution of a sigma_z mixture leaves it invariant
        assert np.max(np.abs(rec.densities - 0.5 * np.eye(2))) <= 1e-12

    def test_eigenstate_scalar_recursion(self):
        # phi stays along e1 and its amplitude follows the scalar recursion
        # phi_{k+1} = phi_k (1 - dt/2 + dB_k)
        model = make_model(np.zeros((2, 2)), [SIGMA_Z])
        dec = mixture([1.0], [E1])
        dt = 1e-3
        noise = generate_noise(3, 1, dt, 400)
        rec, weights = run_linear_route(model, dec, noise)
        amp = 1.0
        for k in range(noise.n_steps):
            assert weights[k] == pytest.approx(amp * amp, rel=1e-12)
            assert np.max(np.abs(rec.densities[k] - np.diag([1.0, 0.0]))) <= 1e-12
            amp *= 1.0 - dt / 2 + noise.increments[k, 0]
        assert weights[-1] == pytest.approx(amp * amp, rel=1e-12)

    def test_weight_paths_match_linear_route(self):
        model = qubit_model(0.7, 0.9, "z")
        dec = decompose_density(
            np.array([[0.65, 0.15], [0.15, 0.35]], dtype=np.complex128)
        )
        dt = 1e-3
        noise = generate_noise(11, 1, dt, 500, stream=0)
        _, weights = run_linear_route(model, dec, noise)
        times, w = weight_paths(model, dec, 1, 11, [0.25, 0.5], dt=dt,
                                t_final=0.5)
        assert w.shape == (1, 2)
        assert w[0, 0] == pytest.approx(weights[250], rel=1e-12)
        assert w[0, 1] == pytest.approx(weights[500], rel=1e-12)

    def test_martingale_smoke(self):
        model = qubit_model(1.0, 1.0, "z")
        dec = decompose_density(np.diag([0.6, 0.4]).astype(complex))
        _, w = weight_paths(model, dec, 2000, 13, [1.0], dt=1e-3, t_final=1.0)
        mean = w[:, 0].mean()
        se = w[:, 0].std(ddof=1) / np.sqrt(2000)
        assert abs(mean - 1.0) <= 4 * se

    @pytest.mark.parametrize("stride", [1, 7])
    def test_extinction_raises(self, stride):
        # the weight is (1 - dt/2 - 0.1)^(2k), below 1e-12 first at k = 131;
        # an extinct state between two saves is reported at its own step
        model = make_model(np.zeros((2, 2)), [SIGMA_Z])
        dec = mixture([1.0], [E1])
        dt = 1e-3
        inc = np.full((300, 1), -0.1)
        noise = NoisePath(seed=0, n_channels=1, dt=dt, n_steps=300,
                          increments=inc, stream=7)
        with pytest.raises(TrajectoryExtinctError) as err:
            run_linear_route(model, dec, noise, save_stride=stride)
        assert err.value.trajectory == 7
        assert err.value.step == 131
        assert "trajectory 7 " in str(err.value)

    @pytest.mark.parametrize("stride", [1, 7])
    def test_nan_increment_reports_its_step(self, stride):
        # a NaN increment at step 40 makes state 41 non-finite
        model = make_model(np.zeros((2, 2)), [SIGMA_Z])
        dec = mixture([1.0], [E1])
        inc = generate_noise(8, 1, 1e-3, 100).increments.copy()
        inc[40, 0] = np.nan
        noise = NoisePath(seed=8, n_channels=1, dt=1e-3, n_steps=100,
                          increments=inc)
        with pytest.raises(StepFailureError) as err:
            run_linear_route(model, dec, noise, save_stride=stride)
        assert err.value.step == 41

    @pytest.mark.parametrize("run, saved", [
        (lambda m, d: monte_carlo_mean(m, d, 512, 4, "linear_weighted",
                                       dt=0.01, t_final=0.08), list(range(9))),
        (lambda m, d: weight_paths(m, d, 512, 4, [0.08], dt=0.01,
                                   t_final=0.08), [8]),
    ], ids=["monte_carlo_mean", "weight_paths"])
    def test_monte_carlo_extinction_names_trajectory(self, run, saved):
        # L = 10 I at dt = 0.01 scales the weight by (0.5 + Z)^2 per step;
        # on seed 4 the first block holds no extinct path and the second two
        # (278 and 435, the lightest).  The error names the lightest path of
        # the first block that holds one, at its first saved extinct step.
        model = make_model(np.zeros((2, 2)), [10.0 * np.eye(2)])
        dec = mixture([1.0], [E1])
        ctx = StepContext(model, "euler_maruyama", 0.01, renormalize=False)
        w = np.ones((9, 512))
        for start in range(0, 512, BLOCK_SIZE):
            streams = range(start, start + BLOCK_SIZE)
            dw = generate_noise_block(4, 1, 0.01, 8, streams)
            phi = np.zeros((BLOCK_SIZE, 1, 2), dtype=complex)
            phi[:, 0, 0] = 1.0
            for k in range(8):
                phi = linear_step_batch(ctx, phi, dw[:, k, :])
                w[k + 1, streams] = np.einsum("bni,bni->b", phi.conj(),
                                              phi).real
        assert np.array_equal(np.flatnonzero(w[8] < EXTINCTION_THRESHOLD),
                              [278, 435])
        blocks = w[saved].reshape(len(saved), 2, BLOCK_SIZE)
        extinct = blocks < EXTINCTION_THRESHOLD
        first = int(np.flatnonzero(extinct.any(axis=(0, 2)))[0])
        row = int(np.flatnonzero(extinct[:, first].any(axis=1))[0])
        step = saved[row]
        expected = first * BLOCK_SIZE + int(np.argmin(blocks[row, first]))
        assert expected == 435
        with pytest.raises(TrajectoryExtinctError) as err:
            run(model, dec)
        assert err.value.trajectory == expected
        assert err.value.step == step
        assert err.value.weight == w[step, expected]
        assert f"trajectory {expected} " in str(err.value)

    def test_monte_carlo_extinction_reports_first_saved_step(self):
        # seed 1: path 144 is extinct at step 8 and path 34 is the lightest
        # at t_final, step 16; the first saved extinct step wins
        model = make_model(np.zeros((2, 2)), [10.0 * np.eye(2)])
        dec = mixture([1.0], [E1])
        with pytest.raises(TrajectoryExtinctError) as err:
            monte_carlo_mean(model, dec, 256, 1, "linear_weighted", dt=0.01,
                             t_final=0.16, save_stride=8)
        assert err.value.step == 8
        assert err.value.trajectory == 144


class TestRecordSums:
    @pytest.mark.parametrize("stride", [1, 7])
    def test_sums_match_running_totals(self, stride):
        # the path driver's record series must round exactly like the
        # running totals w += dw; b += dw + drift dt
        from siwf.trajectories import _run_stack
        n_steps, n_ch = 50, 2
        model = make_model(np.zeros((2, 2)), [SIGMA_Z, SIGMA_MINUS])
        noise = generate_noise(4, 3, 1e-3, n_steps)
        drifts = np.random.default_rng(0).normal(size=(n_steps, n_ch))
        idx, _, driving, other = _run_stack(
            model, noise, stride, np.zeros((1, 2), dtype=complex),
            lambda k, s, dw: (s, drifts[k]),
        )
        assert np.array_equal(idx, save_indices(n_steps, stride))
        w, b = np.zeros(n_ch), np.zeros(n_ch)
        w_ref, b_ref = [w], [b]
        for k in range(n_steps):
            dw = noise.increments[k, :n_ch]
            w = w + dw
            b = b + dw + drifts[k] * noise.dt
            w_ref.append(w)
            b_ref.append(b)
        assert np.array_equal(driving, np.array(w_ref)[idx])
        assert np.array_equal(other, np.array(b_ref)[idx])


class TestFailurePropagation:
    def test_divergent_run_reports_step_index(self):
        # explicit Euler on a stiff grid Hamiltonian blows up; the driver
        # must surface the failing step rather than emit NaNs
        from siwf.model import BoxParams, box_model
        model = box_model(BoxParams(1.0, 0.5, -1.0, 1.0, 16))
        grid = np.asarray(model.meta["grid"])
        psi = np.exp(-8.0 * grid**2).astype(complex)
        psi /= np.linalg.norm(psi)
        rho0 = np.outer(psi, psi.conj())
        noise = generate_noise(1, 1, 1e-3, 1000)
        with np.errstate(all="ignore"), pytest.raises(StepFailureError) as err:
            run_belavkin_trajectory(model, rho0, noise)
        assert 0 < err.value.step <= 1000

    @pytest.mark.parametrize("stride", [1, 7])
    @pytest.mark.parametrize("run", [
        lambda m, noise, s: run_siwf_trajectory(
            m, mixture([0.6, 0.4], [E1, E2]), noise, save_stride=s),
        lambda m, noise, s: run_nonlinear_trajectory(
            m, E1, noise, save_stride=s),
        lambda m, noise, s: run_belavkin_trajectory(
            m, np.diag([0.6, 0.4]).astype(complex), noise, save_stride=s),
    ], ids=["siwf", "nonlinear", "belavkin"])
    def test_nan_increment_reports_its_step(self, run, stride):
        # a NaN increment at step 40 makes state 41 non-finite, which is
        # not a saved state at stride 7
        model = make_model(np.zeros((2, 2)), [SIGMA_Z])
        inc = generate_noise(8, 1, 1e-3, 100).increments.copy()
        inc[40, 0] = np.nan
        noise = NoisePath(seed=8, n_channels=1, dt=1e-3, n_steps=100,
                          increments=inc)
        with np.errstate(invalid="ignore"), \
                pytest.raises(StepFailureError) as err:
            run(model, noise, stride)
        assert err.value.step == 41

    def test_channel_mismatch_rejected(self):
        from siwf.errors import DimensionMismatchError
        model = qubit_model(1.0, 1.0, "z")
        dec = decompose_density(np.diag([1.0, 0.0]).astype(complex))
        noise = generate_noise(1, 0, 1e-3, 10)
        with pytest.raises(DimensionMismatchError):
            run_siwf_trajectory(model, dec, noise)


class TestBelavkinTrajectory:
    def test_matches_siwf_pathwise_at_order_dt(self):
        model = qubit_model(1.0, 1.0, "z")
        rho0 = np.array([[0.65, 0.15], [0.15, 0.35]], dtype=np.complex128)
        dec = decompose_density(rho0)
        dt = 1e-3
        noise = generate_noise(21, 1, dt, 1000)
        rec_e = run_siwf_trajectory(model, dec, noise, save_stride=100)
        rec_b = run_belavkin_trajectory(model, rho0, noise, save_stride=100)
        assert np.max(np.abs(rec_e.densities - rec_b.densities)) <= 20 * dt

    def test_record_columns_present(self):
        model = qubit_model(1.0, 1.0, "z")
        rho0 = 0.5 * np.eye(2, dtype=complex)
        noise = generate_noise(22, 1, 1e-3, 100)
        rec = run_belavkin_trajectory(model, rho0, noise)
        assert rec.ensembles is None
        assert rec.innovations.shape == (rec.n_saved, 1)


class TestGksl:
    def test_amplitude_damping(self):
        model = make_model(np.zeros((2, 2)), [SIGMA_MINUS])
        times, rhos = gksl_solve(model, np.diag([1.0, 0.0]), 1e-3, 1000, 100)
        assert rhos[-1][0, 0].real == pytest.approx(np.exp(-1.0), abs=1e-10)
        assert times[-1] == pytest.approx(1.0)

    def test_diverging_run_raises(self):
        # RK4 at dt = 1e-3 is unstable on the stiff alpha_kin = 50 box;
        # the first saved non-finite state is step 50
        model = box_model(BoxParams(50.0, 1.0, 0.0, 1.0, 32))
        rho0 = np.zeros((32, 32), dtype=complex)
        rho0[3, 3] = 1.0
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(StepFailureError) as err:
                gksl_solve(model, rho0, 1e-3, 200, 50)
        assert err.value.step == 50


class TestMonteCarlo:
    def test_single_trajectory_equals_mc_of_one(self):
        model = qubit_model(1.0, 1.0, "z")
        dec = decompose_density(np.diag([0.6, 0.4]).astype(complex))
        noise = generate_noise(30, 1, 1e-3, 200, stream=0)
        rec = run_siwf_trajectory(model, dec, noise, save_stride=100)
        series = monte_carlo_mean(model, dec, 1, 30, "siwf", dt=1e-3,
                                  t_final=0.2, save_stride=100)
        assert np.max(np.abs(series.mean - rec.densities)) <= 1e-12
        assert np.max(series.se) == 0.0

    def test_closed_system_mean_is_deterministic(self):
        model = make_model(SIGMA_Z, [])
        dec = decompose_density(
            np.array([[0.5, 0.25], [0.25, 0.5]], dtype=np.complex128)
        )
        series = monte_carlo_mean(model, dec, 8, 1, "siwf", dt=1e-3,
                                  t_final=0.1, save_stride=100,
                                  scheme="exponential_em")
        _, oracle = gksl_solve(model, dec.density(), 1e-3, 100, 100)
        assert np.max(np.abs(series.mean - oracle)) <= 1e-8
        # identical paths: SE is pure one-pass cancellation noise
        assert np.max(series.se) <= 1e-7

    def test_amplitude_damping_mean(self):
        model = qubit_model(0.0, 1.0, "minus")
        dec = decompose_density(np.diag([1.0, 0.0]).astype(complex))
        series = monte_carlo_mean(model, dec, 2000, 77, "siwf", dt=1e-3,
                                  t_final=1.0, save_stride=1000)
        ree = series.mean[-1][0, 0].real
        se = max(series.se[-1][0, 0], 1e-4)
        assert abs(ree - np.exp(-1.0)) <= 4 * se

    def test_belavkin_equation_mean(self):
        model = qubit_model(0.0, 1.0, "minus")
        dec = decompose_density(np.diag([1.0, 0.0]).astype(complex))
        series = monte_carlo_mean(model, dec, 1000, 80, "belavkin", dt=1e-3,
                                  t_final=0.5, save_stride=500)
        _, oracle = gksl_solve(model, dec.density(), 1e-3, 500, 500)
        gap = np.abs(series.mean[-1] - oracle[-1])
        assert np.max(gap / (4 * series.se[-1] + 1e-3)) <= 1.0

    def test_weighted_linear_route_mean(self):
        model = qubit_model(1.0, 1.0, "z")
        dec = decompose_density(np.diag([0.6, 0.4]).astype(complex))
        series = monte_carlo_mean(model, dec, 2000, 81, "linear_weighted",
                                  dt=1e-3, t_final=0.5, save_stride=500,
                                  observables={"sz": SZ})
        direct = monte_carlo_mean(model, dec, 2000, 82, "siwf", dt=1e-3,
                                  t_final=0.5, save_stride=500,
                                  observables={"sz": SZ})
        m_w, se_w = series.observable_stats["sz"]
        m_d, se_d = direct.observable_stats["sz"]
        combined = np.sqrt(se_w**2 + se_d**2)
        assert np.all(np.abs(m_w - m_d) <= 5 * combined + 1e-6)

    @pytest.mark.parametrize("equation", ["siwf", "linear_weighted"])
    def test_observable_names_stay_out_of_the_sums(self, equation):
        # observables named like the estimator's own sums read exactly as
        # the same matrix under a neutral name, and leave the density alone
        model = qubit_model(1.0, 1.0, "z")
        dec = decompose_density(np.diag([0.6, 0.4]).astype(complex))
        kwargs = dict(dt=1e-3, t_final=0.05, save_stride=10)
        names = ("w", "w2", "rho", "neutral")
        got = monte_carlo_mean(model, dec, 300, 5, equation,
                               observables={n: SZ for n in names}, **kwargs)
        plain = monte_carlo_mean(model, dec, 300, 5, equation, **kwargs)
        assert list(got.observable_stats) == list(names)
        m_ref, se_ref = got.observable_stats["neutral"]
        for name in names[:-1]:
            m, se = got.observable_stats[name]
            assert m.tobytes() == m_ref.tobytes()
            assert se.tobytes() == se_ref.tobytes()
        assert got.mean.tobytes() == plain.mean.tobytes()
        assert got.se.tobytes() == plain.se.tobytes()

    def test_weighted_mean_weighs_each_save_by_its_own_weight(self):
        # a hand loop over the same two blocks (256 + 44) and substreams:
        # at each save, sum sigma = phi phi^dagger and w = ||phi||^2
        model = qubit_model(1.0, 1.0, "z")
        dec = decompose_density(np.diag([0.6, 0.4]).astype(complex))
        dt, n_steps, stride = 1e-3, 20, 5
        ctx = StepContext(model, "euler_maruyama", dt, renormalize=False)
        saves = range(0, n_steps + 1, stride)
        sigma = np.zeros((len(saves), 2, 2), dtype=complex)
        w = np.zeros(len(saves))
        psi0 = init_ensemble(dec)
        for start in (0, BLOCK_SIZE):
            streams = range(start, min(start + BLOCK_SIZE, 300))
            dw = generate_noise_block(5, 1, dt, n_steps, streams)
            phi = np.broadcast_to(psi0, (len(streams),) + psi0.shape).copy()
            for k in range(n_steps + 1):
                if k % stride == 0:
                    sigma[k // stride] += np.einsum("bni,bnj->ij", phi,
                                                    phi.conj())
                    w[k // stride] += np.sum(np.abs(phi) ** 2)
                if k < n_steps:
                    phi = linear_step_batch(ctx, phi, dw[:, k, :])
        series = monte_carlo_mean(model, dec, 300, 5, "linear_weighted",
                                  dt=dt, t_final=n_steps * dt,
                                  save_stride=stride)
        assert np.max(np.abs(series.mean - sigma / w[:, None, None])) <= 1e-12

    @pytest.mark.parametrize("equation", MC_EQUATIONS)
    def test_rows_do_not_depend_on_t_final(self, equation):
        # the saved rows up to t = 0.02 are the same bits whether the run
        # stops there or goes on to 0.04
        model = qubit_model(1.0, 1.0, "z")
        rho0 = (np.diag([0.0, 1.0]) if equation == "nonlinear"
                else np.diag([0.6, 0.4]))
        dec = decompose_density(rho0.astype(complex))
        short, long = (
            monte_carlo_mean(model, dec, 300, 5, equation, dt=1e-3,
                             t_final=t_final, save_stride=5,
                             observables={"sz": SZ})
            for t_final in (0.02, 0.04)
        )
        rows = len(short.times)
        assert rows == 5
        assert np.array_equal(short.times, long.times[:rows])
        assert short.mean.tobytes() == long.mean[:rows].tobytes()
        assert short.se.tobytes() == long.se[:rows].tobytes()
        for got, full in zip(short.observable_stats["sz"],
                             long.observable_stats["sz"]):
            assert got.tobytes() == full[:rows].tobytes()

    def test_sample_functionals_shapes_and_purity(self):
        model = qubit_model(1.0, 1.0, "z")
        dec = decompose_density(np.diag([0.6, 0.4]).astype(complex))
        purity = lambda rho: np.einsum("bij,bji->b", rho, rho).real
        got = sample_functionals(
            model, dec, 50, 9, "siwf", {"sz": SZ, "purity": purity},
            [0.1, 0.2], dt=1e-3, t_final=0.2,
        )
        assert got.samples["sz"].shape == (50, 2)
        assert got.samples["purity"].shape == (50, 2)
        assert np.all(got.samples["purity"] <= 1.0 + 1e-9)
        assert got.weights is None

    def test_sampled_weights_are_the_weight_paths(self):
        # 300 paths: two blocks, so the samples are joined across blocks
        model, mixed, _, obs = _mc_golden_setup()
        times = [0.01, 0.025, 0.04]
        got = sample_functionals(model, mixed, 300, 8, "linear_weighted",
                                 {"x01": obs["x01"]}, times, dt=1e-3,
                                 t_final=0.04)
        t, w = weight_paths(model, mixed, 300, 8, times, dt=1e-3,
                            t_final=0.04)
        assert got.times.tobytes() == t.tobytes()
        assert got.weights.shape == (300, 3)
        for k in range(len(times)):
            assert got.weights[:, k].tobytes() == w[:, k].tobytes()

    def test_last_sampled_weights_are_the_final_weights(self):
        # a hand loop over the one block's substreams: w = ||phi||^2 at t_final
        model = qubit_model(1.0, 1.0, "z")
        dec = decompose_density(np.diag([0.6, 0.4]).astype(complex))
        dt, n_steps = 1e-3, 20
        ctx = StepContext(model, "euler_maruyama", dt, renormalize=False)
        dw = generate_noise_block(5, 1, dt, n_steps, range(40))
        psi0 = np.sqrt(dec.weights)[:, None] * dec.vectors
        phi = np.broadcast_to(psi0, (40, 2, 2)).copy()
        for k in range(n_steps):
            phi = linear_step_batch(ctx, phi, dw[:, k, :])
        got = sample_functionals(model, dec, 40, 5, "linear_weighted",
                                 {"sz": SZ}, [0.01, 0.02], dt=dt,
                                 t_final=n_steps * dt)
        assert np.allclose(got.weights[:, -1], np.sum(np.abs(phi) ** 2,
                                                      axis=(1, 2)),
                           rtol=1e-13, atol=0.0)

    def test_weighted_mean_keeps_no_per_path_weights(self):
        # 1024 paths at 501 saves: a (saves, n_traj) float array of the
        # weights alone would take 4.1 MB
        model = qubit_model(1.0, 1.0, "z")
        dec = decompose_density(np.diag([0.6, 0.4]).astype(complex))
        tracemalloc.start()
        try:
            monte_carlo_mean(model, dec, 1024, 3, "linear_weighted",
                             dt=1e-3, t_final=0.5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 501 * 1024 * 8

    @pytest.mark.parametrize("entry", [
        lambda m, d: monte_carlo_mean(m, d, 0, 1, dt=0.01, t_final=0.1),
        lambda m, d: sample_functionals(m, d, 0, 1, "siwf", {"sz": SZ}, [0.1],
                                        dt=0.01, t_final=0.1),
        lambda m, d: weight_paths(m, d, 0, 1, [0.1], dt=0.01, t_final=0.1),
    ], ids=["monte_carlo_mean", "sample_functionals", "weight_paths"])
    def test_no_trajectories_rejected(self, entry):
        with pytest.raises(ValueError, match="n_traj must be >= 1"):
            entry(qubit_model(1.0, 1.0, "z"), mixture([1.0], [E1]))


GOLDEN_HASH_FILE = Path(__file__).parent / "data" / "golden_rabi_record.sha256"


class TestTimeGrid:
    @pytest.mark.parametrize("dt, t_final", [(0.02, 0.07), (0.02, 0.05),
                                             (0.02, 0.01)])
    def test_off_grid_t_final_rejected(self, dt, t_final):
        with pytest.raises(ConfigError) as err:
            monte_carlo_mean(qubit_model(1.0, 1.0, "z"), mixture([1.0], [E1]),
                             4, 1, dt=dt, t_final=t_final)
        assert err.value.key == "t_final"

    def test_on_grid_t_final_accepted(self):
        # 0.3 / 0.1 is 2.9999999999999996 in floating point
        assert resolve_steps(0.1, 0.3) == 3
        assert resolve_steps(1e-3, 0.03) == 30
        s = monte_carlo_mean(qubit_model(1.0, 1.0, "z"), mixture([1.0], [E1]),
                             4, 1, dt=0.1, t_final=0.3)
        assert s.times[-1] == pytest.approx(0.3)

    def test_save_indices_match_list_construction(self):
        for n_steps in range(1, 61):
            for stride in range(1, 71):
                ref = list(range(0, n_steps + 1, stride))
                if ref[-1] != n_steps:
                    ref.append(n_steps)
                ref = np.asarray(ref, dtype=int)
                idx = save_indices(n_steps, stride)
                assert idx.dtype == ref.dtype
                assert np.array_equal(idx, ref), (n_steps, stride)

    def test_off_grid_sample_time_rejected(self):
        with pytest.raises(ConfigError, match="0.03") as err:
            sample_functionals(qubit_model(1.0, 1.0, "z"), mixture([1.0], [E1]),
                               4, 1, "siwf", {"sz": SZ}, [0.0, 0.03],
                               dt=0.02, t_final=0.04)
        assert err.value.key == "sample_times"


class TestGoldenRecord:
    def test_rabi_record_regression(self):
        model = rabi_model(RabiParams(1.0, 1.2, 0.1, 0.5, 0.0, 3))
        dec = decompose_density(
            np.diag([0.7, 0.3] + [0.0] * 4).astype(complex)
        )
        noise = generate_noise(424242, 1, 1e-3, 250)
        rec = run_siwf_trajectory(model, dec, noise, save_stride=25)
        csv = record_to_csv(rec)
        digest = hashlib.sha256(csv.encode()).hexdigest()
        expected = GOLDEN_HASH_FILE.read_text().strip()
        assert digest == expected, (
            "record bytes changed; if intentional, regenerate the golden hash"
        )


MC_GOLDEN_FILE = Path(__file__).parent / "data" / "golden_mc.sha256"


def _mc_golden_setup():
    # three levels, two monitored channels, a rank-2 start: 600 paths make
    # three blocks (256, 256, 88)
    h = np.array([[0.0, 0.6, 0.0], [0.6, 0.3, 0.4j], [0.0, -0.4j, -0.2]])
    l1 = np.diag([1.0, 0.0, -0.5]).astype(complex)
    l2 = np.array([[0.0, 0.7, 0.0], [0.0, 0.0, 0.3], [0.0, 0.0, 0.0]],
                  dtype=complex)
    model = make_model(h, [l1, l2])
    mixed = decompose_density(np.diag([0.55, 0.45, 0.0]).astype(complex))
    pure = decompose_density(np.diag([0.0, 1.0, 0.0]).astype(complex))
    obs = {"x01": np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]], dtype=complex)}
    return model, mixed, pure, obs


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _record_digest(rec, *extra) -> str:
    series = [rec.ensembles, rec.innovations, rec.records]
    return _digest(rec.times, rec.densities,
                   *[a for a in series if a is not None],
                   *rec.observables.values(), *extra)


def mc_golden_digests() -> dict:
    """sha256 of every Monte Carlo result array, of the single-path runs
    under the exponential scheme and of the linear route under both
    schemes, keyed by case."""
    model, mixed, pure, obs = _mc_golden_setup()
    kwargs = dict(dt=1e-3, t_final=0.04, save_stride=7, observables=obs)
    out = {}
    for equation in MC_EQUATIONS:
        dec = pure if equation == "nonlinear" else mixed
        s = monte_carlo_mean(model, dec, 600, 31, equation, **kwargs)
        m, se = s.observable_stats["x01"]
        out[f"mean-{equation}-t1"] = _digest(s.times, s.mean, s.se, m, se)
    purity = lambda rho: np.einsum("bij,bji->b", rho, rho).real
    got = sample_functionals(
        model, mixed, 600, 32, "linear_weighted",
        {"x01": obs["x01"], "purity": purity}, [0.01, 0.025, 0.04],
        dt=1e-3, t_final=0.04,
    )
    out["sample-functionals"] = _digest(
        got.times, got.samples["x01"], got.samples["purity"], got.weights
    )
    times, w = weight_paths(model, mixed, 600, 33, [0.0, 0.02, 0.04],
                            dt=1e-3, t_final=0.04)
    out["weight-paths"] = _digest(times, w)
    # a repeated sample time: two sample slots read one saved state
    got = sample_functionals(
        model, mixed, 600, 37, "siwf",
        {"x01": obs["x01"], "purity": purity}, [0.025, 0.01, 0.025, 0.04],
        dt=1e-3, t_final=0.04,
    )
    out["sample-functionals-siwf"] = _digest(
        got.times, got.samples["x01"], got.samples["purity"]
    )
    for equation in ("siwf", "linear_weighted"):
        s = monte_carlo_mean(model, mixed, 1, 36, equation, **kwargs)
        m, se = s.observable_stats["x01"]
        out[f"mean-{equation}-n1"] = _digest(s.times, s.mean, s.se, m, se)
    unnormalized = dict(scheme="exponential_em", renormalize=False)
    noise = generate_noise(34, model.n_channels, 1e-3, 40)
    out["path-siwf-expm"] = _record_digest(run_siwf_trajectory(
        model, mixed, noise, 7, observables=obs, **unnormalized))
    out["path-nonlinear-expm"] = _record_digest(run_nonlinear_trajectory(
        model, pure.vectors[0], noise, 7, observables=obs, **unnormalized))
    out["path-belavkin-expm"] = _record_digest(run_belavkin_trajectory(
        model, mixed.density(), noise, 7, observables=obs, **unnormalized))
    for name, stride, scheme in (("expm", 7, "exponential_em"),
                                 ("em", 1, "euler_maruyama")):
        rec, weights = run_linear_route(model, mixed, noise, stride,
                                        scheme=scheme, observables=obs)
        out[f"path-linear-{name}"] = _record_digest(rec, weights)
    s = monte_carlo_mean(model, mixed, 600, 35, "siwf", **kwargs,
                         **unnormalized)
    m, se = s.observable_stats["x01"]
    out["mean-siwf-expm"] = _digest(s.times, s.mean, s.se, m, se)
    return out


class TestGoldenMonteCarlo:
    def test_mc_results_regression(self):
        expected = dict(
            line.split() for line in MC_GOLDEN_FILE.read_text().splitlines()
        )
        assert mc_golden_digests() == expected, (
            "Monte Carlo result bytes changed; if intentional, regenerate "
            "tests/data/golden_mc.sha256 with mc_golden_digests()"
        )

    def test_weighted_route_steps_each_block_once(self, monkeypatch):
        import siwf.trajectories as traj
        # the counter sees only this process's kernel calls, so the blocks
        # run serially here
        monkeypatch.setattr(traj, "_worker_count", lambda n_blocks: 1)
        calls = []
        kernel = traj.linear_step_batch

        def counted(ctx, phi, dw):
            calls.append(phi.shape[0])
            return kernel(ctx, phi, dw)

        monkeypatch.setattr(traj, "linear_step_batch", counted)
        model, mixed, _, _ = _mc_golden_setup()
        monte_carlo_mean(model, mixed, 300, 5, "linear_weighted", dt=1e-3,
                         t_final=0.02, save_stride=5)
        assert calls == [256] * 20 + [44] * 20


def _set_cpus(monkeypatch, n):
    """Let this process run on ``n`` CPUs, whatever the machine has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)),
                        raising=False)


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@contextlib.contextmanager
def _nothing_left_behind():
    """The body leaves no child process, open file descriptor or thread
    behind it."""
    before = len(os.listdir("/proc/self/fd")), threading.active_count()
    yield
    _no_child_left()
    assert (len(os.listdir("/proc/self/fd")),
            threading.active_count()) == before


def _exact(obj):
    """``obj`` with each array replaced by its dtype, shape and bytes and
    each dict by its (key, value) list, so that == compares two results bit
    for bit, keys and their order included."""
    if isinstance(obj, np.ndarray):
        return obj.dtype.str, obj.shape, obj.tobytes()
    if isinstance(obj, dict):
        return [(key, _exact(v)) for key, v in obj.items()]
    if isinstance(obj, (list, tuple)):
        return type(obj)(map(_exact, obj))
    return obj


class TestForkJoin:
    """Monte Carlo blocks shared among forked workers give the serial
    loop's results and errors, and leave no process behind."""

    @staticmethod
    def _results():
        model, mixed, pure, obs = _mc_golden_setup()
        out = []
        for equation in MC_EQUATIONS:
            dec = pure if equation == "nonlinear" else mixed
            s = monte_carlo_mean(model, dec, 1600, 41, equation, dt=1e-3,
                                 t_final=0.02, save_stride=5,
                                 observables=obs)
            out.append((s.mean, s.se, s.observable_stats))
        for equation in ("siwf", "linear_weighted"):
            got = sample_functionals(model, mixed, 1600, 42, equation, obs,
                                     [0.01, 0.02], dt=1e-3, t_final=0.02)
            out.append((got.samples, got.weights))
        return _exact(out)

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_forked_results_equal_serial_bytes(self, monkeypatch, cpus):
        _set_cpus(monkeypatch, cpus)
        # 1600 paths are seven blocks, enough for a worker per CPU
        assert traj._worker_count(7) == cpus
        forked = self._results()
        _no_child_left()
        monkeypatch.setattr(traj, "_worker_count", lambda n_blocks: 1)
        assert forked == self._results()

    @pytest.mark.parametrize("failing, raised", [
        ({1, 2}, 1),
        ({2, 3}, 2),
        ({3}, 3),
    ])
    def test_lowest_failing_block_raises(self, monkeypatch, failing, raised):
        _set_cpus(monkeypatch, 2)

        def work(streams):
            block = streams[0] // BLOCK_SIZE
            if block in failing:
                raise TrajectoryExtinctError(0.0, block, streams[0])
            return block

        with _nothing_left_behind(), \
                pytest.raises(TrajectoryExtinctError) as err:
            traj._map_blocks(4 * BLOCK_SIZE, work)
        assert err.value.step == raised
        assert err.value.trajectory == raised * BLOCK_SIZE

    def test_workers_run_serially(self, monkeypatch):
        _set_cpus(monkeypatch, 2)
        # every block runs in one of the two workers, which never fork
        with _nothing_left_behind():
            got = traj._map_blocks(4 * BLOCK_SIZE,
                                   lambda streams: traj._worker_count(4))
        assert got == [1, 1, 1, 1]

    @pytest.mark.parametrize("cpus, counts", [
        (2, [1, 1, 1, 2, 2, 2]),
        (3, [1, 1, 1, 2, 2, 3]),
    ])
    def test_each_process_gets_min_share(self, monkeypatch, cpus, counts):
        _set_cpus(monkeypatch, cpus)
        assert [traj._worker_count(n) for n in (1, 2, 3, 4, 5, 6)] == counts
        # three blocks stay in the caller
        assert traj._map_blocks(3 * BLOCK_SIZE, lambda streams: os.getpid()) \
            == [os.getpid()] * 3

    def test_no_worker_off_linux(self, monkeypatch):
        _set_cpus(monkeypatch, 2)
        monkeypatch.setattr(traj.sys, "platform", "darwin")
        assert traj._worker_count(4) == 1
        assert traj._map_blocks(4 * BLOCK_SIZE, lambda streams: os.getpid()) \
            == [os.getpid()] * 4

    def test_broken_worker_raises_siwf_error(self, monkeypatch):
        _set_cpus(monkeypatch, 2)

        def work(streams):
            # the worker running block 1 dies partway through it
            if traj._IN_WORKER and streams[0] == BLOCK_SIZE:
                os._exit(3)
            return streams

        with _nothing_left_behind(), \
                pytest.raises(SiwfError, match="Monte Carlo worker died"):
            traj._map_blocks(4 * BLOCK_SIZE, work)

    def test_extinction_raised_in_a_worker(self, monkeypatch):
        _set_cpus(monkeypatch, 2)
        model = make_model(np.zeros((2, 2)), [10.0 * np.eye(2)])
        with pytest.raises(TrajectoryExtinctError) as err:
            weight_paths(model, mixture([1.0], [E1]), 1024, 4, [0.08],
                         dt=0.01, t_final=0.08)
        # the second block, run by a worker, holds the extinct paths (see
        # test_monte_carlo_extinction_names_trajectory)
        assert (err.value.trajectory, err.value.step) == (435, 8)
        _no_child_left()
