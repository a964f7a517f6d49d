"""The three workloads: the siwf CLI calls of one round and their checks.

A workload is built from the benchmark seed alone.  The seed draws the
initial states and the simulation seeds that go into the generated config
files; siwf only ever sees those files.  Every round repeats the same CLI
calls on the same files, so the work per round does not depend on the seed
or on the run length.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks
import oracle

DT = 1e-3

QUBIT = {"preset": "qubit", "omega": 1.0, "gamma": 1.0, "monitor": "z"}
RABI = {"preset": "rabi", "omega1": 1.0, "omega2": 1.2, "g": 0.1,
        "alpha": 0.5, "psi": 0.0, "n_fock": 3}
BOX = {"preset": "box", "alpha_kin": 0.5, "gamma": 0.5, "x_min": -4.0,
       "x_max": 4.0, "n_grid": 16}

#: the seventeen reports of the full default battery with negative controls
VERIFY_REPORTS = [
    "model-identities[qubit]",
    "model-identities[rabi]",
    "model-identities[box]",
    "model-identities[perturbed-generator negative control]",
    "norm-conservation[rabi, renormalize on]",
    "norm-conservation[rabi, renormalize off]",
    "record-consistency[rabi]",
    "record-consistency[box]",
    "gksl-mean[amplitude-damping qubit]",
    "gksl-mean[rabi]",
    "siwf-vs-belavkin[rabi]",
    "siwf-vs-belavkin[box]",
    "martingale[qubit]",
    "martingale[rabi]",
    "linear-route-equivalence[qubit]",
    "decomposition-invariance[qubit, half-identity]",
    "decomposition-invariance[mismatched rho0 negative control]",
]

#: verify-battery trajectory count: two 256-blocks per Monte Carlo check so
#: the thread pool has work for both threads
VERIFY_N_TRAJ = 512


@dataclass
class Op:
    """One siwf CLI call: its arguments and the steps it requests."""

    name: str
    argv: list
    steps: int
    config: dict | None = None


@dataclass
class Workload:
    name: str
    ops: list
    check: Callable[[dict], list]
    #: corrupts outputs in memory; returns the corruptions no check caught
    controls: Callable[[dict], list]
    #: the configs whose set-up a fresh process repeats (setup_s probe)
    setup_configs: list


def undetected(controls: dict) -> list:
    """Names of negative controls whose check reported nothing."""
    return [name for name, failures in controls.items() if not failures]


def pairs(m) -> list:
    return np.stack([np.real(m), np.imag(m)], axis=-1).tolist()


def _steps(t_final: float) -> int:
    return max(1, round(t_final / DT))


def _initial_states(rng) -> dict:
    """Seeded initial states of the three models (fixed component counts)."""
    p = rng.uniform(0.55, 0.8)
    c = rng.uniform(-0.6, 0.6) * np.sqrt(p * (1 - p))
    qubit_mixed = {"kind": "mixed",
                   "matrix": pairs(np.array([[p, c], [c, 1 - p]], complex))}
    q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    a = np.zeros(6, complex)
    b = np.zeros(6, complex)
    a[:2], b[2:4] = q[:, 0], q[:, 1]
    w = rng.uniform(0.55, 0.8)
    rabi_mixture = {"kind": "mixture", "weights": [w, 1 - w],
                    "vectors": [pairs(a), pairs(b)]}
    v = np.zeros(6, complex)
    v[:4] = rng.normal(size=4) + 1j * rng.normal(size=4)
    rabi_pure = {"kind": "pure", "vector": pairs(v / np.linalg.norm(v))}
    x, _ = oracle.box_grid(BOX["x_min"], BOX["x_max"], BOX["n_grid"])
    g = np.exp(-0.5 * ((x - rng.uniform(-1, 1)) / rng.uniform(0.8, 1.3)) ** 2)
    box_pure = {"kind": "pure", "vector": pairs(g / np.linalg.norm(g))}
    return {"qubit_mixed": qubit_mixed, "rabi_mixture": rabi_mixture,
            "rabi_pure": rabi_pure, "box_pure": box_pure}


def _write(path: Path, doc) -> str:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, sort_keys=True, indent=1))
    return str(path)


def _simulate(work: Path, name: str, cfg: dict) -> Op:
    cfg = dict(cfg, output_dir=str(work / "out" / name), dump_densities=True)
    path = _write(work / "configs" / f"{name}.json", cfg)
    steps = cfg.get("n_trajectories", 1) * _steps(cfg["t_final"])
    return Op(name, ["simulate", "--config", path], steps, cfg)


# ---------------------------------------------------------------------------
# mc-mix
# ---------------------------------------------------------------------------

def mc_mix(seed: int, work: Path, smoke: bool = False) -> Workload:
    rng = np.random.default_rng([seed, 1])
    init = _initial_states(rng)
    n = 32 if smoke else 256
    scale = 0.1 if smoke else 1.0
    runs = [
        # name, model, initial, equation, n_traj, t_final, stride, scheme
        ("qubit-siwf-dense", QUBIT, "qubit_mixed", "siwf", 2 * n, 1.0, 1,
         "euler_maruyama"),
        ("qubit-linear", QUBIT, "qubit_mixed", "linear", n, 1.0, 50,
         "euler_maruyama"),
        ("rabi-siwf", RABI, "rabi_mixture", "siwf", n, 0.5, 50,
         "euler_maruyama"),
        ("rabi-belavkin", RABI, "rabi_mixture", "belavkin", n, 0.5, 50,
         "euler_maruyama"),
        ("rabi-nonlinear", RABI, "rabi_pure", "nonlinear", n, 0.5, 50,
         "euler_maruyama"),
        ("box-nonlinear", BOX, "box_pure", "nonlinear", n, 0.25, 50,
         "exponential_em"),
        # the d=16 Belavkin kernel costs ~250x the others per step
        ("box-belavkin", BOX, "box_pure", "belavkin", 32 if not smoke else 8,
         0.1, 20, "exponential_em"),
    ]
    obs = {"qubit": ["sigma_z"], "rabi": ["number", "sigma_z"],
           "box": ["position"]}
    ops = []
    for name, model, init_key, eq, n_traj, t_final, stride, scheme in runs:
        t_final = max(t_final * scale, 10 * DT)
        cfg = {"model": model, "initial_state": init[init_key], "dt": DT,
               "t_final": t_final, "n_trajectories": n_traj,
               "seed": int(rng.integers(2**31)), "equation": eq,
               "scheme": scheme, "save_stride": stride,
               "observables": obs[model["preset"]]}
        ops.append(_simulate(work, name, cfg))

    def load(op):
        cfg = op.config
        out = Path(cfg["output_dir"])
        h, ls = oracle.ops_for(cfg["model"])
        return {"cfg": cfg, "h": h, "ls": ls,
                "rho0": oracle.density(cfg["initial_state"], h.shape[0]),
                "mean": checks.read_mean(out / "mean_densities.json"),
                "rows": checks.read_csv(out / "mean.csv"),
                "obs": observables(cfg["model"], cfg["observables"])}

    def verdicts(op, o) -> list:
        m = o["mean"]
        return (checks.mean_vs_gksl(m, o["h"], o["ls"], o["rho0"], DT,
                                    o["cfg"]["scheme"], op.name)
                + checks.observables_match(o["rows"], m["times"], m["mean"],
                                           o["obs"], op.name))

    def check(_results) -> list:
        return [msg for op in ops for msg in verdicts(op, load(op))]

    def controls(_results) -> list:
        op = ops[0]
        o = load(op)
        m = o["mean"]
        # the final-time entry with the largest SE, pushed 10 SE further
        # from the oracle
        k = len(m["times"]) - 1
        i, j = np.unravel_index(int(np.argmax(m["se"][k])), m["se"][k].shape)
        ref = oracle.gksl_mean(o["h"], o["ls"], o["rho0"], m["times"][k:])[0]
        shifted = copy_mean(m)
        direction = np.sign((m["mean"][k, i, j] - ref[i, j]).real) or 1.0
        shift = 10.0 * m["se"][k, i, j] * direction
        shifted["mean"][k, i, j] += shift
        # keep the shifted mean Hermitian with trace 1, so only the
        # comparison with the oracle can catch it
        if i != j:
            shifted["mean"][k, j, i] += shift
        else:
            other = (i + 1) % shifted["mean"].shape[1]
            shifted["mean"][k, other, other] -= shift
        scaled = copy_mean(m)
        scaled["mean"][k] *= 1.1
        bent = {**o["rows"], o["cfg"]["observables"][0]:
                o["rows"][o["cfg"]["observables"][0]] + 1e-6}
        return undetected({
            "mean shifted by 10 SE": verdicts(op, {**o, "mean": shifted}),
            "mean density with trace 1.1": verdicts(op, {**o, "mean": scaled}),
            "observable column off by 1e-6": verdicts(op, {**o, "rows": bent}),
        })

    return Workload("mc-mix", ops, check, controls,
                    [op.config for op in ops])


def copy_mean(m: dict) -> dict:
    return {**m, "mean": m["mean"].copy()}


# ---------------------------------------------------------------------------
# path-io
# ---------------------------------------------------------------------------

def path_io(seed: int, work: Path, smoke: bool = False) -> Workload:
    rng = np.random.default_rng([seed, 2])
    init = _initial_states(rng)
    rabi_t = 0.1 if smoke else 1.0
    box_t = 0.05 if smoke else 0.5
    rabi_seed = int(rng.integers(2**31))
    box_seed = int(rng.integers(2**31))
    rabi_obs = ["sigma_z", "number", "quadrature_x"]
    box_obs = ["position", "momentum"]
    runs = [
        # name, model, initial, equation, stride, t_final, seed, scheme, obs
        ("rabi-siwf", RABI, "rabi_mixture", "siwf", 1),
        ("rabi-nonlinear", RABI, "rabi_pure", "nonlinear", 1),
        ("rabi-linear", RABI, "rabi_mixture", "linear", 1),
        ("rabi-belavkin", RABI, "rabi_mixture", "belavkin", 5),
        ("rabi-gksl", RABI, "rabi_mixture", "gksl", 5),
        ("box-siwf", BOX, "box_pure", "siwf", 1),
        ("box-nonlinear", BOX, "box_pure", "nonlinear", 10),
        ("box-linear", BOX, "box_pure", "linear", 10),
        ("box-belavkin", BOX, "box_pure", "belavkin", 10),
        ("box-gksl", BOX, "box_pure", "gksl", 10),
    ]
    ops = []
    for name, model, init_key, eq, stride in runs:
        rabi = model is RABI
        cfg = {"model": model, "initial_state": init[init_key], "dt": DT,
               "t_final": rabi_t if rabi else box_t, "equation": eq,
               "seed": rabi_seed if rabi else box_seed,
               "scheme": "euler_maruyama" if rabi else "exponential_em",
               "save_stride": stride,
               "observables": rabi_obs if rabi else box_obs}
        ops.append(_simulate(work, name, cfg))

    # one compare on a dt axis: the siwf Rabi run at 4 dt against dt; its
    # convergence block adds dt / 2
    base = dict(ops[0].config)
    coarse = _write(work / "configs" / "compare-a.json",
                    dict(base, dt=4 * DT, output_dir=str(work / "out" / "cmp-a")))
    fine = _write(work / "configs" / "compare-b.json",
                  dict(base, output_dir=str(work / "out" / "cmp-b")))
    report = str(work / "out" / "compare.json")
    n_fine = _steps(rabi_t)
    # requested: the integrations at 4 dt and dt, and the convergence run
    # at dt / 2
    ops.append(Op("compare-dt", ["compare", "--a", coarse, "--b", fine,
                                 "--output", report],
                  n_fine // 4 + n_fine + 2 * n_fine))

    def load() -> dict:
        runs = {}
        for op in ops[:-1]:
            cfg = op.config
            out = Path(cfg["output_dir"])
            h, ls = oracle.ops_for(cfg["model"])
            times, dens = checks.read_densities(out / "densities.json")
            csv_name = "mean.csv" if cfg["equation"] == "gksl" else "trajectory.csv"
            runs[op.name] = {
                "cfg": cfg, "h": h, "ls": ls, "times": times, "dens": dens,
                "rows": checks.read_csv(out / csv_name),
                "rho0": oracle.density(cfg["initial_state"], h.shape[0]),
                "obs": observables(cfg["model"], cfg["observables"])}
        return {"runs": runs, "compare": json.loads(Path(report).read_text())}

    def verdicts(name, r) -> list:
        eq = r["cfg"]["equation"]
        bad = checks.density_series(
            r["dens"], psd=eq in ("siwf", "nonlinear", "linear"), label=name)
        bad += checks.observables_match(r["rows"], r["times"], r["dens"],
                                        r["obs"], name)
        if eq == "gksl":
            return bad + checks.gksl_vs_oracle(r["times"], r["dens"], r["h"],
                                               r["ls"], r["rho0"], name)
        if r["cfg"]["save_stride"] == 1:
            bad += checks.record_integral(r["rows"], r["times"], r["dens"],
                                          r["ls"], name)
        if eq == "linear":
            bad += checks.positive_weights(r["rows"], name)
        return bad

    def pair_verdicts(siwf_run, bel_run, rep) -> list:
        gap = checks.max_gap(siwf_run["times"], siwf_run["dens"],
                             bel_run["times"], bel_run["dens"])
        return (checks.compare_shrinks(rep, "compare-dt")
                + checks.siwf_vs_belavkin(gap, rep, "rabi siwf/belavkin"))

    def check(_results) -> list:
        data = load()
        runs = data["runs"]
        bad = [msg for name, r in runs.items() for msg in verdicts(name, r)]
        return bad + pair_verdicts(runs["rabi-siwf"], runs["rabi-belavkin"],
                                   data["compare"])

    def controls(_results) -> list:
        data = load()
        runs = data["runs"]
        siwf_run = runs["rabi-siwf"]

        def edit(run, **changes):
            return {**run, **changes}

        dens = siwf_run["dens"].copy()
        dens[-1] *= 1.1
        not_psd = siwf_run["dens"].copy()
        d = not_psd.shape[1]
        not_psd[-1] = np.diag([1.05, -0.05] + [0.0] * (d - 2))
        rows = dict(siwf_run["rows"])
        rows["B_1"] = rows["B_1"].copy()
        rows["B_1"][-1] += 1e-6
        lin = runs["rabi-linear"]
        lin_rows = dict(lin["rows"])
        lin_rows["weight"] = lin_rows["weight"].copy()
        lin_rows["weight"][-1] *= -1.0
        gk = runs["rabi-gksl"]
        gk_dens = gk["dens"].copy()
        gk_dens[-1, 0, 0] += 1e-6
        gk_dens[-1, 1, 1] -= 1e-6
        conv = dict(data["compare"]["convergence"])
        conv["fine_vs_finer"] = 4.0 * conv["coarse_vs_fine"]
        conv["ratio"] = 0.25
        bel = runs["rabi-belavkin"]
        d = bel["dens"].shape[1]
        mixed = edit(bel, dens=np.broadcast_to(np.eye(d) / d, bel["dens"].shape))
        return undetected({
            "density with trace 1.1": verdicts("rabi-siwf", edit(siwf_run, dens=dens)),
            "density with a negative eigenvalue":
                verdicts("rabi-siwf", edit(siwf_run, dens=not_psd)),
            "record B off by 1e-6": verdicts("rabi-siwf", edit(siwf_run, rows=rows)),
            "negative importance weight":
                verdicts("rabi-linear", edit(lin, rows=lin_rows)),
            "gksl density off by 1e-6": verdicts("rabi-gksl", edit(gk, dens=gk_dens)),
            "compare discrepancy growing with dt": pair_verdicts(
                siwf_run, bel, {**data["compare"], "convergence": conv}),
            "belavkin series replaced by the maximally mixed state":
                pair_verdicts(siwf_run, mixed, data["compare"]),
        })

    return Workload("path-io", ops, check, controls,
                    [op.config for op in ops[:-1]])


# ---------------------------------------------------------------------------
# verify-battery
# ---------------------------------------------------------------------------

def verify_battery(seed: int, work: Path, smoke: bool = False) -> Workload:
    """The full battery at a reduced trajectory count.

    The suite keeps siwf's default seed: its statistical checks are
    calibrated on that seed only (see CHANGES.md), so drawing the suite
    seed from the benchmark seed would make the failed count seed-dependent.
    The benchmark seed still names the run; the battery's work is fixed.
    """
    del seed
    suite = {"n_traj": 256 if smoke else VERIFY_N_TRAJ,
             "include_negative_controls": True}
    path = _write(work / "configs" / "suite.json", suite)
    report = work / "out" / "verify.json"
    report.parent.mkdir(parents=True, exist_ok=True)
    op = Op("verify", ["verify", "--suite", path, "--output", str(report)], 0)

    def check(results) -> list:
        reports = json.loads(report.read_text())
        rc = max(r for r in results["verify"])
        return checks.verify_reports(rc, reports, VERIFY_REPORTS)

    def controls(_results) -> list:
        reports = json.loads(report.read_text())
        flipped = [dict(r) for r in reports]
        flipped[0]["passed"] = False
        flipped[0]["statistic"] = 2.0 * flipped[0]["threshold"] + 1.0
        return undetected({
            "one report failing": checks.verify_reports(0, flipped,
                                                        VERIFY_REPORTS),
            "one report missing": checks.verify_reports(0, reports[1:],
                                                        VERIFY_REPORTS),
            "nonzero exit": checks.verify_reports(1, reports, VERIFY_REPORTS),
        })

    return Workload("verify-battery", [op], check,
                    controls, [])


WORKLOADS = {"mc-mix": mc_mix, "verify-battery": verify_battery,
             "path-io": path_io}


# ---------------------------------------------------------------------------
# observables, rebuilt from their definitions
# ---------------------------------------------------------------------------

def observables(model: dict, names: list) -> dict:
    kind = model["preset"]
    out = {}
    for name in names:
        if kind == "rabi":
            n = model["n_fock"]
            a = oracle.lower(n)
            mode = {"number": a.conj().T @ a, "quadrature_x": a + a.conj().T}
            out[name] = (np.kron(np.eye(n), oracle.SZ) if name == "sigma_z"
                         else np.kron(mode[name], np.eye(2)))
        elif kind == "qubit":
            out[name] = oracle.SZ
        else:
            x, step = oracle.box_grid(model["x_min"], model["x_max"],
                                      model["n_grid"])
            if name == "position":
                out[name] = np.diag(x).astype(complex)
            else:
                out[name] = (np.diag(np.full(x.size - 1, -0.5j / step), 1)
                             + np.diag(np.full(x.size - 1, 0.5j / step), -1))
    return out
