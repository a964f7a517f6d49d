"""Acceptance suite: one test per exit criterion, each printing a pass/fail
line with its runtime.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import json
import time

import numpy as np

from siwf.cli import main
from siwf.model import BoxParams, RabiParams, box_model, qubit_model, rabi_model
from siwf.noise import coarsen, generate_noise
from siwf.states import InitialDecomposition, decompose_density
from siwf.trajectories import (
    monte_carlo_mean,
    resolve_steps,
    run_belavkin_trajectory,
    run_linear_route,
    run_nonlinear_trajectory,
    run_siwf_trajectory,
    weight_paths,
)
from siwf.verify import (
    CONVERGENCE_PATH_SEED,
    DECOMPOSITION_TOL,
    _pathwise_report,
    check_decomposition_invariance,
    check_linear_route_equivalence,
    check_record_consistency,
)

SZ = np.diag([1.0, -1.0]).astype(complex)
DT = 1e-3


def rabi_fixture():
    model = rabi_model(RabiParams(omega1=1.0, omega2=1.2, g=0.1, alpha=0.5,
                                  psi=0.0, n_fock=3))
    dec = decompose_density(np.diag([0.7, 0.3] + [0.0] * 4).astype(complex))
    return model, dec


def box_fixture():
    model = box_model(BoxParams(alpha_kin=0.5, gamma=0.5, x_min=-4.0,
                                x_max=4.0, n_grid=16))
    grid = np.asarray(model.meta["grid"])
    psi = np.exp(-0.5 * grid**2).astype(complex)
    psi /= np.linalg.norm(psi)
    dec = InitialDecomposition(weights=np.array([1.0]), vectors=psi[None, :])
    return model, dec


def report(number, label, passed, detail, elapsed, limit):
    mark = "PASS" if passed and elapsed < limit else "FAIL"
    print(f"criterion {number} [{mark}] {label}: {detail} "
          f"({elapsed:.1f}s, limit {limit:.0f}s)")
    assert passed, f"criterion {number} failed: {detail}"
    assert elapsed < limit, f"criterion {number} exceeded {limit}s ({elapsed:.1f}s)"


def test_criterion_1_norm_constraint():
    model, dec = rabi_fixture()
    t0 = time.time()
    noise = generate_noise(11, 1, DT, 1000)
    worst = {}
    for renorm in (True, False):
        rec = run_siwf_trajectory(model, dec, noise, save_stride=1,
                                  renormalize=renorm)
        totals = np.sum(np.abs(rec.ensembles) ** 2, axis=(1, 2))
        worst[renorm] = float(np.max(np.abs(totals - 1.0)))
    elapsed = time.time() - t0
    passed = worst[True] <= 1e-8 and worst[False] <= 0.1
    report(1, "ensemble weight conservation", passed,
           f"renormalized drift {worst[True]:.2e} (<=1e-8), "
           f"free drift {worst[False]:.2e} (<=0.1)", elapsed, 5.0)


def test_criterion_2_pure_state_reduction():
    model, _ = rabi_fixture()
    psi0 = np.zeros(model.dim, dtype=complex)
    psi0[0] = 1.0
    dec = InitialDecomposition(weights=np.array([1.0]), vectors=psi0[None, :])
    t0 = time.time()
    noise = generate_noise(7, 1, DT, 1000)
    rec_e = run_siwf_trajectory(model, dec, noise, save_stride=1)
    rec_n = run_nonlinear_trajectory(model, psi0, noise, save_stride=1)
    gap = float(np.max(np.abs(rec_e.ensembles[:, 0] - rec_n.ensembles[:, 0])))
    elapsed = time.time() - t0
    report(2, "one-component ensemble reduces to the pure-state equation",
           gap <= 1e-8, f"max pathwise gap {gap:.2e} (<=1e-8)", elapsed, 5.0)


def test_criterion_3_ensemble_vs_direct_density():
    t0 = time.time()
    details = []
    passed = True
    for label, (model, dec), scheme in (
        ("rabi", rabi_fixture(), "euler_maruyama"),
        ("box", box_fixture(), "exponential_em"),
    ):
        rho0 = dec.density()

        def final_gap(noise):
            rec_e = run_siwf_trajectory(model, dec, noise,
                                        save_stride=noise.n_steps,
                                        scheme=scheme)
            rec_b = run_belavkin_trajectory(model, rho0, noise,
                                            save_stride=noise.n_steps,
                                            scheme=scheme)
            return float(np.max(np.abs(rec_e.densities[-1]
                                       - rec_b.densities[-1])))

        fine = generate_noise(CONVERGENCE_PATH_SEED, 1, DT / 2,
                              resolve_steps(DT / 2, 1.0))
        d_coarse = final_gap(coarsen(fine, 2))
        d_fine = final_gap(fine)
        ratio = d_coarse / d_fine
        passed = passed and ratio >= 1.5
        details.append(f"{label}: D({DT:g})={d_coarse:.2e}, "
                       f"D({DT / 2:g})={d_fine:.2e}, ratio {ratio:.2f}")
    elapsed = time.time() - t0
    report(3, "assembled ensemble density converges to the direct integration",
           passed, "; ".join(details) + " (ratio>=1.5)", elapsed, 30.0)


def test_criterion_4_mean_matches_deterministic_evolution():
    model = qubit_model(omega=0.0, gamma=1.0, monitor="minus")
    dec = decompose_density(np.diag([1.0, 0.0]).astype(complex))
    t0 = time.time()
    series = monte_carlo_mean(model, dec, 10_000, 101, "siwf", dt=DT,
                              t_final=1.0, save_stride=1000)
    ree = float(series.mean[-1][0, 0].real)
    se = float(series.se[-1][0, 0])
    target = float(np.exp(-1.0))
    gap = abs(ree - target)
    elapsed = time.time() - t0
    report(4, "trajectory mean reproduces the decay law", gap <= 3 * se,
           f"excited population {ree:.6f} vs e^-1={target:.6f}, "
           f"|gap|={gap:.2e} <= 3SE={3 * se:.2e}", elapsed, 60.0)


def test_criterion_5_weight_martingale():
    model = qubit_model(omega=1.0, gamma=1.0, monitor="z")
    dec = decompose_density(
        np.array([[0.65, 0.15], [0.15, 0.35]], dtype=complex)
    )
    t0 = time.time()
    times = [0.25, 0.5, 1.0]
    _, w = weight_paths(model, dec, 10_000, 303, times, dt=DT, t_final=1.0)
    mean = w.mean(axis=0)
    se = w.std(axis=0, ddof=1) / np.sqrt(w.shape[0])
    z = np.abs(mean - 1.0) / se
    elapsed = time.time() - t0
    detail = ", ".join(f"t={t:g}: {m:.4f} (z={zz:.2f})"
                       for t, m, zz in zip(times, mean, z))
    report(5, "importance weight averages to one", bool(np.all(z <= 3.0)),
           detail + " (|z|<=3)", elapsed, 60.0)


def test_criterion_6_reweighted_route_equivalence():
    model = qubit_model(omega=1.0, gamma=1.0, monitor="z")
    dec = decompose_density(
        np.array([[0.65, 0.15], [0.15, 0.35]], dtype=complex)
    )
    t0 = time.time()
    rep = check_linear_route_equivalence(
        model, dec, 10_000, {"tr_sz": SZ}, t_grid=(0.25, 0.5, 1.0),
        base_seed=505, dt=DT,
    )
    elapsed = time.time() - t0
    report(6, "reweighted linear route matches the direct ensemble route",
           rep.passed, f"normalized max gap {rep.statistic:.3f} (<=1, "
           "4 combined SE)", elapsed, 120.0)


def test_criterion_7_decomposition_invariance():
    model = qubit_model(omega=1.0, gamma=1.0, monitor="z")
    half = 0.5 * np.eye(2, dtype=complex)
    dec_eigen = decompose_density(half)
    rot = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    dec_rot = decompose_density(half, mode="given", weights=[0.5, 0.5],
                                vectors=rot)
    biased = decompose_density(np.diag([0.7, 0.3]).astype(complex))
    t0 = time.time()
    same = check_decomposition_invariance(model, half, dec_eigen, dec_rot,
                                          256, SZ, base_seed=707, dt=DT)
    diff = _pathwise_report(model, (dec_eigen, biased), 256, SZ, 0.5, 709,
                            DT, "euler_maruyama", "biased rho0")
    elapsed = time.time() - t0
    passed = same.statistic <= DECOMPOSITION_TOL and diff.statistic >= 0.5
    report(7, "readout independent of the state decomposition on every path",
           passed, f"same state max gap {same.statistic:.2e} <= "
           f"{DECOMPOSITION_TOL:.0e}; negative control max gap "
           f"{diff.statistic:.3f} >= 0.5 (256 shared paths)", elapsed, 120.0)


def test_criterion_8_record_consistency():
    t0 = time.time()
    rabi, rdec = rabi_fixture()
    box, bdec = box_fixture()
    qubit = qubit_model(1.0, 1.0, "z")
    qdec = decompose_density(
        np.array([[0.65, 0.15], [0.15, 0.35]], dtype=complex)
    )
    records = []
    noise = generate_noise(21, 1, DT, 1000)
    records.append(("rabi siwf",
                    run_siwf_trajectory(rabi, rdec, noise, save_stride=1),
                    rabi))
    records.append(("box siwf",
                    run_siwf_trajectory(box, bdec, noise, save_stride=1,
                                        scheme="exponential_em"), box))
    records.append(("qubit belavkin",
                    run_belavkin_trajectory(qubit, qdec.density(), noise,
                                            save_stride=1), qubit))
    rec_lin, _ = run_linear_route(qubit, qdec, noise, save_stride=1)
    records.append(("qubit linear", rec_lin, qubit))
    details = []
    passed = True
    for label, rec, model in records:
        rep = check_record_consistency(rec, model)
        passed = passed and rep.passed
        details.append(f"{label}: {rep.statistic:.2e} <= {rep.threshold:.2e}")
    elapsed = time.time() - t0
    report(8, "measurement record matches the innovation identity", passed,
           "; ".join(details), elapsed, 60.0)


def test_criterion_9_repeat_run_determinism(tmp_path):
    t0 = time.time()
    cfg = {
        "model": {"preset": "qubit", "omega": 1.0, "gamma": 1.0,
                  "monitor": "z"},
        "initial_state": {"kind": "mixed",
                          "matrix": [[[0.65, 0.0], [0.15, 0.0]],
                                     [[0.15, 0.0], [0.35, 0.0]]]},
        "dt": 1e-3,
        "t_final": 0.5,
        "seed": 12,
        "equation": "siwf",
        "observables": ["sigma_z"],
        "save_stride": 50,
        "dump_densities": True,
    }
    outputs = {}
    for label, n_traj in (("small-a", 8), ("small-b", 8),
                          ("big-a", 600), ("big-b", 600)):
        path = tmp_path / f"cfg_{label}.json"
        outdir = tmp_path / f"out_{label}"
        doc = dict(cfg, n_trajectories=n_traj, output_dir=str(outdir))
        path.write_text(json.dumps(doc))
        assert main(["simulate", "--config", str(path)]) == 0
        outputs[label] = {
            p.name: p.read_bytes()
            for p in sorted(outdir.iterdir())
            if p.name != "manifest.json"
        }
    passed = (outputs["small-a"] == outputs["small-b"]
              and outputs["big-a"] == outputs["big-b"])
    elapsed = time.time() - t0
    report(9, "outputs are byte-identical on a repeated run", passed,
           "two runs each at 8 and 600 trajectories", elapsed, 60.0)
