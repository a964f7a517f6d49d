import hashlib
from pathlib import Path

import numpy as np
import pytest

from siwf.errors import TrajectoryExtinctError
from siwf.model import (
    RabiParams,
    SIGMA_MINUS,
    SIGMA_Z,
    make_model,
    qubit_model,
    rabi_model,
)
from siwf.noise import NoisePath, generate_noise
from siwf.recordio import record_to_csv
from siwf.states import InitialDecomposition, decompose_density
from siwf.trajectories import (
    MC_EQUATIONS,
    gksl_solve,
    monte_carlo_mean,
    run_belavkin_trajectory,
    run_linear_route,
    run_nonlinear_trajectory,
    run_siwf_trajectory,
    sample_functionals,
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

    def test_extinction_raises(self):
        model = make_model(np.zeros((2, 2)), [SIGMA_Z])
        dec = mixture([1.0], [E1])
        dt = 1e-3
        inc = np.full((300, 1), -0.1)
        noise = NoisePath(seed=0, n_channels=1, dt=dt, n_steps=300,
                          increments=inc)
        with pytest.raises(TrajectoryExtinctError):
            run_linear_route(model, dec, noise)


class TestRecordSums:
    @pytest.mark.parametrize("stride", [1, 7])
    def test_sums_match_running_totals(self, stride):
        # the path driver's record series must round exactly like the
        # running totals w += dw; b += dw + drift dt
        from siwf.trajectories import _run_path, save_indices
        n_steps, n_ch = 50, 2
        noise = generate_noise(4, 3, 1e-3, n_steps)
        drifts = np.random.default_rng(0).normal(size=(n_steps, n_ch))
        idx = save_indices(n_steps, stride)
        driving, other = _run_path(
            noise, n_ch, 0, idx,
            lambda k, dw: (k + 1, drifts[k]), lambda j, k, s: None,
        )
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
        from siwf.errors import StepFailureError
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

    def test_thread_count_invariance(self):
        model = qubit_model(1.0, 1.0, "z")
        dec = decompose_density(np.diag([0.6, 0.4]).astype(complex))
        kwargs = dict(dt=1e-3, t_final=0.2, save_stride=100,
                      observables={"sz": SZ})
        a = monte_carlo_mean(model, dec, 600, 5, "siwf", threads=1, **kwargs)
        b = monte_carlo_mean(model, dec, 600, 5, "siwf", threads=4, **kwargs)
        assert np.array_equal(a.mean, b.mean)
        assert np.array_equal(a.se, b.se)
        assert np.array_equal(a.observable_stats["sz"][0],
                              b.observable_stats["sz"][0])

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


GOLDEN_HASH_FILE = Path(__file__).parent / "data" / "golden_rabi_record.sha256"


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


def mc_golden_digests() -> dict:
    """sha256 of every Monte Carlo result array, keyed by case."""
    model, mixed, pure, obs = _mc_golden_setup()
    kwargs = dict(dt=1e-3, t_final=0.04, save_stride=7, observables=obs)
    out = {}
    for equation in MC_EQUATIONS:
        dec = pure if equation == "nonlinear" else mixed
        for threads in (1, 2):
            s = monte_carlo_mean(model, dec, 600, 31, equation,
                                 threads=threads, **kwargs)
            m, se = s.observable_stats["x01"]
            out[f"mean-{equation}-t{threads}"] = _digest(s.times, s.mean,
                                                        s.se, m, se)
    purity = lambda rho: np.einsum("bij,bji->b", rho, rho).real
    got = sample_functionals(
        model, mixed, 600, 32, "linear_weighted",
        {"x01": obs["x01"], "purity": purity}, [0.01, 0.025, 0.04],
        dt=1e-3, t_final=0.04, threads=2,
    )
    out["sample-functionals"] = _digest(
        got.times, got.samples["x01"], got.samples["purity"], got.weights
    )
    times, w = weight_paths(model, mixed, 600, 33, [0.0, 0.02, 0.04],
                            dt=1e-3, t_final=0.04, threads=2)
    out["weight-paths"] = _digest(times, w)
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
