"""Self-tests of the benchmark's references and checks.

Usage: python3 perfbench/selftest.py [src dir]

The references are compared with siwf's own model matrices (so a
convention mismatch shows here rather than as a failed output check), and
each check is run on a correct synthetic output, which must pass, and on a
corrupted one, which must fail.  Exits non-zero on the first failure.
"""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, sys.argv[1] if len(sys.argv) > 1 else str(Path.cwd() / "src"))

import checks  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402
from siwf.config import parse_config_dict  # noqa: E402


def expect(cond, what):
    if not cond:
        raise SystemExit(f"selftest FAILED: {what}")
    print(f"ok  {what}")


def random_density(rng, d, rank):
    v = rng.normal(size=(rank, d)) + 1j * rng.normal(size=(rank, d))
    w = rng.uniform(0.2, 1.0, size=rank)
    rho = sum(wi * np.outer(vi, vi.conj()) for wi, vi in zip(w, v))
    return rho / np.trace(rho).real


def test_models_match_siwf():
    rng = np.random.default_rng(0)
    init = workloads._initial_states(rng)
    for model, key in ((workloads.QUBIT, "qubit_mixed"),
                       (workloads.RABI, "rabi_mixture"),
                       (workloads.BOX, "box_pure")):
        cfg = parse_config_dict({"model": model, "initial_state": init[key]})
        h, ls = oracle.ops_for(model)
        gap = max(np.max(np.abs(h - cfg.model.hamiltonian)),
                  max(np.max(np.abs(a - b))
                      for a, b in zip(ls, cfg.model.lindblads)))
        expect(gap < 1e-12, f"{model['preset']}: H and L equal siwf's")
        rho0 = oracle.density(init[key], h.shape[0])
        expect(np.max(np.abs(rho0 - cfg.decomposition().density())) < 1e-12,
               f"{model['preset']}: initial density equals siwf's")
        names = {"qubit": ["sigma_z"], "rabi": ["number", "sigma_z",
                                                "quadrature_x"],
                 "box": ["position", "momentum"]}[model["preset"]]
        cfg = parse_config_dict({"model": model, "initial_state": init[key],
                                 "observables": names})
        mine = workloads.observables(model, names)
        expect(all(np.max(np.abs(mine[n] - a)) < 1e-12
                   for n, a in cfg.observables().items()),
               f"{model['preset']}: observables equal siwf's")


def test_oracle():
    rng = np.random.default_rng(1)
    h, ls = oracle.rabi_ops(1.0, 1.2, 0.1, 0.5, 0.0, 3)
    rho = random_density(rng, 6, 3)
    s = oracle.superoperator(h, ls)
    g = -1j * h - 0.5 * sum(l.conj().T @ l for l in ls)
    direct = g @ rho + rho @ g.conj().T + sum(l @ rho @ l.conj().T for l in ls)
    expect(np.allclose((s @ rho.reshape(-1)).reshape(6, 6), direct,
                       atol=1e-13), "superoperator acts as the Lindbladian")
    path = oracle.gksl_mean(h, ls, rho, [0.0, 0.5, 1.0])
    expect(np.allclose(path[0], rho, atol=1e-14), "oracle starts at rho0")
    expect(np.max(np.abs(np.trace(path, axis1=1, axis2=2) - 1)) < 1e-12,
           "oracle preserves the trace")
    # two half steps equal one full step (semigroup)
    half = oracle.gksl_mean(h, ls, path[1], [0.5])[0]
    expect(np.allclose(half, path[2], atol=1e-12), "oracle is a semigroup")


def test_density_checks():
    rng = np.random.default_rng(2)
    dens = np.stack([random_density(rng, 4, 2) for _ in range(5)])
    expect(not checks.density_series(dens, True, "x"), "valid densities pass")
    bad = dens.copy()
    bad[2] *= 1.1
    expect(checks.density_series(bad, False, "x"), "trace 1.1 fails")
    bad = dens.copy()
    bad[1, 0, 1] += 1e-6
    expect(checks.density_series(bad, False, "x"), "non-Hermitian fails")
    bad = dens.copy()
    bad[3] = np.diag([1.1, -0.1, 0, 0])
    expect(not checks.density_series(bad, False, "x")
           and checks.density_series(bad, True, "x"),
           "negative eigenvalue fails only the PSD check")


def test_mean_check():
    rng = np.random.default_rng(3)
    h, ls = oracle.qubit_ops(1.0, 1.0)
    rho0 = np.array([[0.7, 0.2], [0.2, 0.3]], dtype=complex)
    times = np.linspace(0, 1, 11)
    exact = oracle.gksl_mean(h, ls, rho0, times)
    se = np.full(exact.shape, 0.01)
    se[0] = 0.0
    noise = rng.normal(size=exact.shape) * 0.01
    noise = 0.5 * (noise + np.swapaxes(noise, 1, 2))
    noise[:, 1, 1] = -noise[:, 0, 0]
    noise[0] = 0.0
    mean = {"times": times, "mean": exact + noise, "se": se, "n": 512}
    expect(not checks.mean_vs_gksl(mean, h, ls, rho0, 1e-3, "euler_maruyama",
                                   "x"), "unbiased mean within its SE passes")
    shifted = dict(mean, mean=mean["mean"].copy())
    shifted["mean"][-1, 0, 1] += 0.1
    shifted["mean"][-1, 1, 0] += 0.1
    expect(checks.mean_vs_gksl(shifted, h, ls, rho0, 1e-3, "euler_maruyama",
                               "x"), "mean shifted by 10 SE fails")
    expect(checks.critical_value(32, 100) > checks.critical_value(512, 100)
           > checks.critical_value(512, 10), "critical values order")


def test_record_and_pair_checks():
    dt = 1e-3
    times = np.arange(0, 101) * dt
    l_op = np.diag([1.0, -1.0]).astype(complex)
    p = 0.5 + 0.3 * np.sin(5 * times)
    dens = np.zeros((times.size, 2, 2), dtype=complex)
    dens[:, 0, 0], dens[:, 1, 1] = p, 1 - p
    f = 2.0 * (2 * p - 1)
    rng = np.random.default_rng(4)
    w = np.concatenate([[0.0], np.cumsum(rng.normal(size=100) * 0.03)])
    b = w + np.concatenate([[0.0], np.cumsum(f[:-1] * dt)])
    rows = {"time": times, "W_1": w, "B_1": b}
    expect(not checks.record_integral(rows, times, dens, [l_op], "x"),
           "left-point record passes")
    bent = dict(rows, B_1=b + 1e-6 * (times > 0.05))
    expect(checks.record_integral(bent, times, dens, [l_op], "x"),
           "record off by 1e-6 fails")
    rep = {"convergence": {"coarse_vs_fine": 2e-3, "fine_vs_finer": 1e-3,
                           "ratio": 2.0}}
    expect(not checks.compare_shrinks(rep, "x"), "shrinking compare passes")
    grow = {"convergence": {"coarse_vs_fine": 1e-3, "fine_vs_finer": 4e-3,
                            "ratio": 0.25}}
    expect(checks.compare_shrinks(grow, "x"), "growing compare fails")
    expect(not checks.siwf_vs_belavkin(1e-2, rep, "x")
           and checks.siwf_vs_belavkin(1.0, rep, "x"), "halving bound")
    expect(checks.positive_weights({"weight": np.array([1.0, -1.0])}, "x")
           and not checks.positive_weights({"weight": np.ones(3)}, "x"),
           "weight positivity")


def test_verify_check():
    reports = [{"name": n, "statistic": 0.5, "threshold": 1.0, "passed": True}
               for n in workloads.VERIFY_REPORTS]
    expect(not checks.verify_reports(0, reports, workloads.VERIFY_REPORTS),
           "17 passing reports pass")
    expect(checks.verify_reports(0, reports[:-1], workloads.VERIFY_REPORTS),
           "a missing report fails")
    bad = [dict(r) for r in reports]
    bad[3]["passed"] = False
    expect(checks.verify_reports(0, bad, workloads.VERIFY_REPORTS),
           "a failing report fails")


if __name__ == "__main__":
    test_models_match_siwf()
    test_oracle()
    test_density_checks()
    test_mean_check()
    test_record_and_pair_checks()
    test_verify_check()
    print("selftest passed")
