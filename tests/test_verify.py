import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siwf.errors import ConfigError, ReconstructionError, SiwfError
from siwf.model import (
    BoxParams,
    ModelSpec,
    RabiParams,
    SIGMA_X,
    SIGMA_Z,
    box_model,
    make_model,
    qubit_model,
    rabi_model,
)
import siwf.trajectories as traj
from siwf.noise import generate_noise
from siwf.states import InitialDecomposition, decompose_density
from siwf.trajectories import (gksl_solve, run_linear_route,
                               run_siwf_trajectory)
from siwf.verify import (
    CONVERGENCE_PATH_SEED,
    DECOMPOSITION_TOL,
    SUITE_DEFAULTS,
    _gksl_exact,
    _pathwise_report,
    _suite_models,
    as_negative_control,
    check_decomposition_invariance,
    check_gksl_mean,
    check_linear_route_equivalence,
    check_martingale,
    check_model_identities,
    check_norm_conservation,
    check_record_consistency,
    check_siwf_vs_belavkin,
    default_suite,
    format_table,
)

SZ = np.diag([1.0, -1.0]).astype(complex)


def qubit_mixed_dec():
    rho0 = np.array([[0.65, 0.15], [0.15, 0.35]], dtype=np.complex128)
    return decompose_density(rho0), rho0


class TestNormConservation:
    def test_closed_system_exponential_exact(self):
        model = make_model(SIGMA_Z, [])
        dec = decompose_density(np.diag([0.6, 0.4]).astype(complex))
        noise = generate_noise(1, 0, 1e-3, 500)
        rec = run_siwf_trajectory(model, dec, noise, save_stride=50,
                                  scheme="exponential_em", renormalize=False)
        rep = check_norm_conservation(rec, 1e-3, renormalized=False)
        assert rep.passed
        assert rep.statistic <= 1e-12

    def test_renormalized_run_passes_tight(self):
        model = rabi_model(RabiParams(1.0, 1.2, 0.1, 0.5, 0.0, 3))
        dec = decompose_density(np.diag([0.7, 0.3] + [0.0] * 4).astype(complex))
        noise = generate_noise(2, 1, 1e-3, 1000)
        rec = run_siwf_trajectory(model, dec, noise, save_stride=50)
        rep = check_norm_conservation(rec, 1e-3, renormalized=True)
        assert rep.passed
        assert rep.threshold == 1e-8

    def test_unrenormalized_run_drifts_within_bound(self):
        model = rabi_model(RabiParams(1.0, 1.2, 0.1, 0.5, 0.0, 3))
        dec = decompose_density(np.diag([0.7, 0.3] + [0.0] * 4).astype(complex))
        noise = generate_noise(3, 1, 1e-3, 1000)
        rec = run_siwf_trajectory(model, dec, noise, save_stride=50,
                                  renormalize=False)
        rep = check_norm_conservation(rec, 1e-3, renormalized=False)
        assert rep.passed
        assert rep.threshold == pytest.approx(0.1)

    def test_requires_ensembles(self):
        from siwf.states import TrajectoryRecord
        rec = TrajectoryRecord(times=np.zeros(1),
                               densities=np.zeros((1, 2, 2), dtype=complex))
        with pytest.raises(SiwfError):
            check_norm_conservation(rec, 1e-3)


class TestRecordConsistency:
    def test_siwf_record(self):
        model = qubit_model(1.0, 1.0, "z")
        dec, _ = qubit_mixed_dec()
        noise = generate_noise(4, 1, 1e-3, 1000)
        rec = run_siwf_trajectory(model, dec, noise, save_stride=1)
        rep = check_record_consistency(rec, model)
        assert rep.passed

    def test_linear_record(self):
        model = qubit_model(1.0, 1.0, "z")
        dec, _ = qubit_mixed_dec()
        noise = generate_noise(5, 1, 1e-3, 1000)
        rec, _ = run_linear_route(model, dec, noise, save_stride=1)
        rep = check_record_consistency(rec, model)
        assert rep.passed

    def test_closed_system_trivial(self):
        model = make_model(SIGMA_Z, [])
        dec, _ = qubit_mixed_dec()
        noise = generate_noise(6, 0, 1e-3, 100)
        rec = run_siwf_trajectory(model, dec, noise)
        rep = check_record_consistency(rec, model)
        assert rep.passed
        assert rep.statistic == 0.0

    def test_corrupted_record_fails(self):
        model = qubit_model(1.0, 1.0, "z")
        dec, _ = qubit_mixed_dec()
        noise = generate_noise(7, 1, 1e-3, 500)
        rec = run_siwf_trajectory(model, dec, noise, save_stride=1)
        rec.records = rec.records + 0.05
        rec.records[0] = rec.innovations[0]  # keep t=0 aligned
        rep = check_record_consistency(rec, model)
        assert not rep.passed


class TestGkslMean:
    def test_amplitude_damping(self):
        model = qubit_model(0.0, 1.0, "minus")
        dec = decompose_density(np.diag([1.0, 0.0]).astype(complex))
        rep = check_gksl_mean(model, dec, 1500, [1.0], base_seed=8)
        assert rep.passed

    def test_rabi(self):
        model = rabi_model(RabiParams(1.0, 1.2, 0.1, 0.5, 0.0, 3))
        dec = decompose_density(np.diag([0.7, 0.3] + [0.0] * 4).astype(complex))
        rep = check_gksl_mean(model, dec, 800, [0.5], base_seed=9)
        assert rep.passed

    @pytest.mark.parametrize("which, rho0, stride, n", [
        (1, np.diag([1.0, 0.0]), 1000, 1),
        (2, np.diag([0.7, 0.3] + [0.0] * 4), 500, 2),
    ], ids=["damping-qubit", "rabi"])
    def test_exact_oracle_matches_rk4(self, which, rho0, stride, n):
        # the suite's grids: t = 1 for the damping qubit, 0.5 and 1 for Rabi
        model = _suite_models()[which]
        _, rk4 = gksl_solve(model, rho0, 1e-3, stride * n, stride)
        exact = _gksl_exact(model, rho0, stride * 1e-3, n)
        assert np.max(np.abs(exact - rk4)) <= 1e-12

    def test_requires_minimum_paths(self):
        model = qubit_model(0.0, 1.0, "minus")
        dec = decompose_density(np.diag([1.0, 0.0]).astype(complex))
        with pytest.raises(ValueError):
            check_gksl_mean(model, dec, 10, [1.0])

    def test_rejects_off_grid_time(self):
        model = qubit_model(0.0, 1.0, "minus")
        dec = decompose_density(np.diag([1.0, 0.0]).astype(complex))
        with pytest.raises(ConfigError, match="0.03"):
            check_gksl_mean(model, dec, 100, [0.03, 0.04], dt=0.02)


class TestSiwfVsBelavkin:
    def test_rabi_ratio(self):
        model = rabi_model(RabiParams(1.0, 1.2, 0.1, 0.5, 0.0, 3))
        dec = decompose_density(np.diag([0.7, 0.3] + [0.0] * 4).astype(complex))
        rep = check_siwf_vs_belavkin(model, dec,
                                     base_seed=CONVERGENCE_PATH_SEED,
                                     t_final=1.0)
        assert rep.passed

    def test_box_ratio(self):
        # explicit Euler is unstable on this grid; the box runs use the
        # exponential scheme
        model = box_model(BoxParams(0.5, 0.5, -4.0, 4.0, 16))
        grid = np.asarray(model.meta["grid"])
        psi = np.exp(-0.5 * grid**2).astype(complex)
        psi /= np.linalg.norm(psi)
        dec = InitialDecomposition(weights=np.array([1.0]),
                                   vectors=psi[None, :])
        rep = check_siwf_vs_belavkin(model, dec,
                                     base_seed=CONVERGENCE_PATH_SEED,
                                     t_final=1.0, scheme="exponential_em")
        assert rep.passed

    def test_rabi_seed_averaged_rate(self):
        # the pathwise gap between the two discretizations shrinks with dt;
        # averaged over paths the halving factor concentrates near sqrt(2)
        from siwf.noise import coarsen, generate_noise
        from siwf.trajectories import (
            resolve_steps,
            run_belavkin_trajectory,
            run_siwf_trajectory,
        )
        model = rabi_model(RabiParams(1.0, 1.2, 0.1, 0.5, 0.0, 3))
        dec = decompose_density(np.diag([0.7, 0.3] + [0.0] * 4).astype(complex))
        rho0 = dec.density()
        coarse, fine_ = [], []
        for seed in range(20):
            fine = generate_noise(seed, 1, 5e-4, resolve_steps(5e-4, 0.5))
            for path, bucket in ((coarsen(fine, 2), coarse), (fine, fine_)):
                rec_e = run_siwf_trajectory(model, dec, path,
                                            save_stride=path.n_steps)
                rec_b = run_belavkin_trajectory(model, rho0, path,
                                                save_stride=path.n_steps)
                bucket.append(np.max(np.abs(rec_e.densities[-1]
                                            - rec_b.densities[-1])))
        ratio = np.mean(coarse) / np.mean(fine_)
        assert ratio >= 1.3

    def test_stationary_state_trivial(self):
        # eigenstate of the monitored observable with H = 0: both constant
        model = make_model(np.zeros((2, 2)), [SIGMA_Z])
        dec = decompose_density(np.diag([1.0, 0.0]).astype(complex))
        rep = check_siwf_vs_belavkin(model, dec, base_seed=12, t_final=0.2)
        assert rep.passed
        assert rep.statistic == 0.0


class TestMartingale:
    def test_closed_system_exact(self):
        # the exact unitary flow keeps every weight at exactly 1
        model = make_model(SIGMA_Z, [])
        dec, _ = qubit_mixed_dec()
        rep = check_martingale(model, dec, 200, [0.25, 0.5], base_seed=13,
                               scheme="exponential_em")
        assert rep.passed
        from siwf.trajectories import weight_paths
        _, w = weight_paths(model, dec, 200, 13, [0.25, 0.5],
                            t_final=0.5, scheme="exponential_em")
        assert np.max(np.abs(w - 1.0)) <= 1e-12

    def test_monitored_qubit(self):
        model = qubit_model(1.0, 1.0, "z")
        dec, _ = qubit_mixed_dec()
        rep = check_martingale(model, dec, 3000, [0.25, 0.5, 1.0],
                               base_seed=14)
        assert rep.passed

    def test_rabi(self):
        model = rabi_model(RabiParams(1.0, 1.2, 0.1, 0.5, 0.0, 3))
        dec = decompose_density(np.diag([0.7, 0.3] + [0.0] * 4).astype(complex))
        rep = check_martingale(model, dec, 2000, [0.25, 0.5, 1.0],
                               base_seed=99)
        assert rep.passed

    def test_reads_library_estimator(self, monkeypatch):
        # the check takes its mean and SE from the library's estimator:
        # shifting that mean by 10 SE must fail it at the suite's qubit
        # settings
        import siwf.verify as ver
        assert ver._estimate is traj._estimate
        estimate = traj._estimate

        def shifted(sums, n_traj, w=None):
            mean, se = estimate(sums, n_traj, w)
            return mean + 10.0 * se, se

        dec, _ = qubit_mixed_dec()
        args = (qubit_model(1.0, 1.0, "z"), dec, 512, [0.25, 0.5, 1.0])
        kwargs = dict(base_seed=SUITE_DEFAULTS["seed"] + 61, dt=1e-3)
        assert check_martingale(*args, **kwargs).passed
        monkeypatch.setattr(ver, "_estimate", shifted)
        assert not check_martingale(*args, **kwargs).passed


class TestDecompositionInvariance:
    def test_same_state_two_decompositions(self):
        model = qubit_model(1.0, 1.0, "z")
        half = 0.5 * np.eye(2, dtype=complex)
        dec_eigen = decompose_density(half)
        rot = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
        dec_rot = decompose_density(half, mode="given", weights=[0.5, 0.5],
                                    vectors=rot)
        # the comparison is exact on every path, so one block of paths
        # checks what more blocks would
        rep = check_decomposition_invariance(
            model, half, dec_eigen, dec_rot, traj.BLOCK_SIZE, SZ, base_seed=16
        )
        assert rep.passed

    def test_mismatched_rho0_rejected(self):
        model = qubit_model(1.0, 1.0, "z")
        half = 0.5 * np.eye(2, dtype=complex)
        dec_eigen = decompose_density(half)
        dec_other = decompose_density(np.diag([0.7, 0.3]).astype(complex))
        with pytest.raises(ReconstructionError):
            check_decomposition_invariance(
                model, half, dec_eigen, dec_other, 100, SZ
            )

    def test_negative_control_detects_different_states(self):
        # the same pathwise comparison, on deliberately different states
        model = qubit_model(1.0, 1.0, "z")
        half = 0.5 * np.eye(2, dtype=complex)
        biased = np.diag([0.7, 0.3]).astype(complex)
        rep = check_decomposition_invariance(
            model, half, decompose_density(half), decompose_density(half),
            256, SZ, base_seed=17,
        )
        assert rep.passed and rep.statistic == 0.0
        rep = _pathwise_report(
            model, (decompose_density(half), decompose_density(biased)), 256,
            SZ, 0.5, 18, 1e-3, "euler_maruyama", "mismatched",
        )
        assert not rep.passed and rep.statistic > 0.5
        assert rep.kind == "exact" and "256 shared paths" in rep.details

    def test_fails_on_per_component_coupling(self, monkeypatch):
        # a kernel that couples each component only to its own p (each
        # normalised component runs its own nonlinear step and keeps its
        # norm) breaks the invariance, and the check must see it
        step = traj.siwf_step_batch

        def per_component(ctx, psi, dw):
            b, n, d = psi.shape
            norms = np.linalg.norm(psi, axis=2, keepdims=True)
            new, p, _ = step(ctx, (psi / norms).reshape(b * n, 1, d),
                             np.repeat(dw, n, axis=0))
            new = new.reshape(b, n, d) * norms
            p = np.einsum("bn,bnl->bl", norms[..., 0] ** 2,
                          p.reshape(b, n, -1))
            return new, p, np.einsum("bni,bni->b", new.conj(), new).real

        model = qubit_model(1.0, 1.0, "z")
        half = 0.5 * np.eye(2, dtype=complex)
        rot = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
        args = (model, half, decompose_density(half),
                decompose_density(half, mode="given", weights=[0.5, 0.5],
                                  vectors=rot), 256, SZ)
        kwargs = dict(t_check=0.5, base_seed=SUITE_DEFAULTS["seed"] + 73)
        assert check_decomposition_invariance(*args, **kwargs).passed
        monkeypatch.setattr(traj, "siwf_step_batch", per_component)
        assert not check_decomposition_invariance(*args, **kwargs).passed

    @settings(max_examples=25, derandomize=True, deadline=None)
    @given(data=st.data(), d=st.integers(2, 4), m=st.integers(0, 2),
           scheme=st.sampled_from(["euler_maruyama", "exponential_em"]),
           renormalize=st.booleans())
    def test_shared_path_identity(self, data, d, m, scheme, renormalize):
        # Hughston-Jozsa-Wootters: any isometry U maps the components a_k of
        # rho = sum_k |a_k><a_k| to b_j = sum_k U_jk a_k with the same rho,
        # and the siwf run must not tell the two apart on one path
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        rng = np.random.default_rng(seed)

        def gaussian(*shape):
            return rng.normal(size=shape) + 1j * rng.normal(size=shape)

        h = gaussian(d, d)
        model = make_model(0.5 * (h + h.conj().T),
                           [0.5 * gaussian(d, d) for _ in range(m)])
        k = data.draw(st.integers(1, d), label="components")
        a = gaussian(k, d)
        a /= np.linalg.norm(a)
        rho0 = a.T @ a.conj()
        extra = data.draw(st.integers(0, 2), label="extra components")
        u = np.linalg.qr(gaussian(k + extra, k))[0]
        b = u @ a
        decs = [
            decompose_density(rho0, mode="given",
                              weights=np.sum(np.abs(c) ** 2, axis=1),
                              vectors=c / np.linalg.norm(c, axis=1)[:, None])
            for c in (a, b)
        ]
        noise = generate_noise(seed, m, 1e-2, 100)
        rec_a, rec_b = (
            run_siwf_trajectory(model, dec, noise, save_stride=10,
                                scheme=scheme, renormalize=renormalize)
            for dec in decs
        )
        assert np.max(np.abs(rec_a.densities - rec_b.densities)) \
            <= DECOMPOSITION_TOL
        assert np.max(np.abs(rec_a.records - rec_b.records),
                      initial=0.0) <= 1e-12


class TestLinearRouteEquivalence:
    def test_monitored_qubit(self):
        model = qubit_model(1.0, 1.0, "z")
        dec, _ = qubit_mixed_dec()
        purity = lambda rho: np.einsum("bij,bji->b", rho, rho).real
        sx = np.array([[0, 1], [1, 0]], dtype=complex)
        rep = check_linear_route_equivalence(
            model, dec, 3000,
            {"sz": SZ, "sx": sx, "purity": purity},
            base_seed=20,
        )
        assert rep.passed

    def test_closed_system_deterministic(self):
        # both routes collapse to the same deterministic evolution; the
        # statistic is rounding noise over the error floor
        model = make_model(SIGMA_Z, [])
        dec, _ = qubit_mixed_dec()
        rep = check_linear_route_equivalence(model, dec, 50, {"sz": SZ},
                                             base_seed=21)
        assert rep.passed

    def test_single_path_fails(self):
        # one path has no error estimate; the gap must not read as a pass
        dec, _ = qubit_mixed_dec()
        rep = check_linear_route_equivalence(
            qubit_model(1.0, 1.0, "z"), dec, 1, {"f": SZ}, t_grid=[0.1],
            dt=0.01,
        )
        assert not rep.passed

    def test_no_functionals_rejected(self):
        # an empty comparison must not pass
        dec, _ = qubit_mixed_dec()
        with pytest.raises(ValueError, match="at least one readout"):
            check_linear_route_equivalence(
                qubit_model(1.0, 1.0, "z"), dec, 4, {}, t_grid=[0.1], dt=0.01,
            )

    def test_reads_library_estimator(self, monkeypatch):
        # shifting the reweighted means that monte_carlo_mean reports by
        # 10 SE must fail the check at the suite's qubit settings
        estimate = traj._estimate

        def shifted(sums, n_traj, w=None):
            mean, se = estimate(sums, n_traj, w)
            return (mean, se) if w is None else (mean + 10.0 * se, se)

        dec, _ = qubit_mixed_dec()
        kwargs = dict(base_seed=SUITE_DEFAULTS["seed"] + 71, dt=1e-3)
        model = qubit_model(1.0, 1.0, "z")
        assert check_linear_route_equivalence(
            model, dec, 512, {"tr_rho_sz": SZ}, **kwargs).passed
        monkeypatch.setattr(traj, "_estimate", shifted)
        assert not check_linear_route_equivalence(
            model, dec, 512, {"tr_rho_sz": SZ}, **kwargs).passed


class TestNegativeControlWrapper:
    def test_inverts_pass_and_fail(self):
        model = qubit_model(1.0, 1.0, "z")
        good = check_model_identities(model)
        assert good.passed
        broken = ModelSpec(
            dim=2, hamiltonian=model.hamiltonian, lindblads=model.lindblads,
            drift_generator=model.drift_generator + 0.01 * np.eye(2),
            meta=model.meta,
        )
        bad = check_model_identities(broken)
        assert not bad.passed
        assert as_negative_control(bad).passed
        assert not as_negative_control(good).passed

    def test_report_invariant(self):
        model = qubit_model(1.0, 1.0, "z")
        rep = check_model_identities(model)
        assert rep.passed == (rep.statistic <= rep.threshold)

    def test_drift_defect_counts(self):
        model = qubit_model(1.0, 1.0, "z")
        broken = ModelSpec(
            dim=2, hamiltonian=model.hamiltonian, lindblads=model.lindblads,
            drift_generator=model.drift_generator - 0.5j * SIGMA_X,
            meta=model.meta,
        )
        rep = check_model_identities(broken)
        assert rep.statistic == pytest.approx(0.5, rel=1e-12)
        assert not rep.passed


class TestSuite:
    def test_subset_runs_and_reports(self):
        reports = default_suite(
            base_seed=100, n_traj=400, checks=["model_identities",
                                               "norm_conservation"],
        )
        assert len(reports) > 0
        for rep in reports:
            assert rep.passed == (rep.statistic <= rep.threshold)
        table = format_table(reports)
        assert "PASS" in table

    def test_reproducible_reports(self):
        kwargs = dict(base_seed=101, n_traj=400,
                      checks=["record_consistency"])
        a = [r.to_dict() for r in default_suite(**kwargs)]
        b = [r.to_dict() for r in default_suite(**kwargs)]
        assert a == b

    def test_off_grid_dt_names_dt(self):
        # 0.003 does not divide the suite's 0.25 time grid
        with pytest.raises(ConfigError) as exc:
            default_suite(dt=0.003, n_traj=100, checks=["norm_conservation"])
        assert exc.value.key == "dt"

    def test_unknown_check_rejected(self):
        # a misspelt name must not leave an empty battery that passes
        with pytest.raises(ConfigError) as exc:
            default_suite(n_traj=100, checks=["martingal"])
        assert exc.value.key == "checks"
        assert "unknown check 'martingal'" in str(exc.value)
