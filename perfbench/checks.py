"""Output checks of the benchmark, computed apart from siwf.

Every check takes plain arrays read back from the files siwf wrote and
returns a list of failure messages (empty when the output is correct).
selftest.py feeds each check a corrupted output and requires a failure.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np
from scipy.special import stdtrit

from oracle import gksl_mean, rate_scale

#: family-wise false-fail rate allowed to one Monte Carlo mean check
MEAN_FWER = 1e-5

#: rounding allowances for quantities that are exact in exact arithmetic
HERM_TOL = 1e-12
TRACE_TOL = 1e-9
PSD_TOL = 1e-9
RECORD_TOL = 1e-9

#: RK4 at dt = 1e-3 against the exponential: the error is ~1e-10 on these
#: models, so 1e-7 is tight and still far from rounding trouble
GKSL_TOL = 1e-7


def read_pairs(nested) -> np.ndarray:
    arr = np.asarray(nested, dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]


def read_densities(path) -> tuple[np.ndarray, np.ndarray]:
    doc = json.loads(open(path).read())
    return np.asarray(doc["times"]), read_pairs(doc["densities"])


def read_mean(path) -> dict:
    doc = json.loads(open(path).read())
    return {
        "times": np.asarray(doc["times"]),
        "mean": read_pairs(doc["mean"]),
        "se": np.asarray(doc["se"], dtype=float),
        "n": int(doc["n_trajectories"]),
    }


def read_csv(path) -> dict:
    rows = list(csv.reader(io.StringIO(open(path).read())))
    cols = np.asarray(rows[1:], dtype=float)
    return {name: cols[:, i] for i, name in enumerate(rows[0])}


def density_series(dens, psd: bool, label: str) -> list[str]:
    """Hermitian, trace 1 and (when ``psd``) positive semi-definite."""
    bad = []
    herm = float(np.max(np.abs(dens - np.conj(np.swapaxes(dens, 1, 2)))))
    if herm > HERM_TOL:
        bad.append(f"{label}: not Hermitian ({herm:.2e})")
    trace = float(np.max(np.abs(np.trace(dens, axis1=1, axis2=2) - 1.0)))
    if trace > TRACE_TOL:
        bad.append(f"{label}: trace differs from 1 by {trace:.2e}")
    if psd:
        low = float(np.min(np.linalg.eigvalsh(
            0.5 * (dens + np.conj(np.swapaxes(dens, 1, 2))))))
        if low < -PSD_TOL:
            bad.append(f"{label}: negative eigenvalue {low:.2e}")
    return bad


def mean_vs_gksl(mean: dict, h, ls, rho0, dt: float, scheme: str,
                 label: str) -> list[str]:
    """Monte Carlo mean against exp(tS) rho0.

    Tolerance per entry: t_{n-1} critical value x SE, Bonferroni-corrected
    over the distinct real entries of all saved Hermitian means, plus the
    scheme's weak-error slack t dt lambda^2 (first-order Euler bias bound
    with lambda the norm of the Euler-stepped part of the generator).
    """
    times, m, se, n = mean["times"], mean["mean"], mean["se"], mean["n"]
    d = m.shape[1]
    bad = density_series(m, psd=False, label=f"{label} mean")
    z = critical_value(n, len(times) * d * d)
    lam = rate_scale(h, ls, scheme)
    slack = dt * times[:, None, None] * lam**2
    err = np.abs(m - gksl_mean(h, ls, rho0, times))
    excess = err - (z * se + slack + 1e-12)
    if np.max(excess) > 0:
        k, i, j = np.unravel_index(int(np.argmax(excess)), excess.shape)
        bad.append(
            f"{label}: mean[{times[k]:g}][{i},{j}] off the oracle by "
            f"{err[k, i, j]:.3e} > {z:.2f} SE ({se[k, i, j]:.2e}) "
            f"+ slack {slack[k, 0, 0]:.2e}"
        )
    return bad


def critical_value(n_traj: int, n_entries: int) -> float:
    """Two-sided Student-t quantile for one entry out of ``n_entries``."""
    p = MEAN_FWER / (2.0 * n_entries)
    return float(stdtrit(max(n_traj - 1, 1), 1.0 - p))


def record_integral(rows: dict, times, dens, ls, label: str) -> list[str]:
    """B - W against the integral of 2 Re tr(L rho) on a stride-1 record.

    The integral is recomputed from the saved densities.  B - W must equal
    either its trapezoid sum or its left-point (Ito) sum, which differ by
    exactly (f_k - f_0) dt / 2; any other value is a wrong record.
    """
    bad = []
    dt = float(times[1] - times[0])
    if np.max(np.abs(np.diff(times) - dt)) > 1e-12:
        return [f"{label}: record is not on a uniform stride-1 grid"]
    if not np.allclose(rows["time"], times, rtol=0, atol=1e-12):
        return [f"{label}: trajectory.csv and densities.json times differ"]
    for c, l_op in enumerate(ls, start=1):
        f = 2.0 * np.einsum("kij,ji->k", dens, l_op).real
        trap = np.concatenate([[0.0], np.cumsum(0.5 * (f[1:] + f[:-1]) * dt)])
        left = trap - 0.5 * dt * (f - f[0])
        got = rows[f"B_{c}"] - rows[f"W_{c}"]
        gap = np.minimum(np.abs(got - trap), np.abs(got - left))
        if np.any(gap > RECORD_TOL):
            k = int(np.argmax(gap))
            bad.append(f"{label}: B_{c}-W_{c} misses the integral of "
                       f"2 Re tr(L rho) at t={times[k]:g} by {gap[k]:.3e}")
    return bad


def observables_match(rows: dict, times, dens, mats: dict,
                      label: str) -> list[str]:
    """CSV observable columns equal Re tr(rho A) of the saved densities."""
    bad = []
    if not np.allclose(rows["time"], times, rtol=0, atol=1e-12):
        return [f"{label}: CSV and density times differ"]
    for name, a in mats.items():
        want = np.einsum("kij,ji->k", dens, a).real
        gap = float(np.max(np.abs(rows[name] - want)))
        if gap > 1e-9 * max(1.0, float(np.max(np.abs(want)))):
            bad.append(f"{label}: observable {name} differs from "
                       f"Re tr(rho A) by {gap:.3e}")
    return bad


def positive_weights(rows: dict, label: str) -> list[str]:
    w = rows.get("weight")
    if w is None:
        return [f"{label}: no weight column"]
    if not np.all(np.isfinite(w)) or np.min(w) <= 0:
        return [f"{label}: non-positive importance weight {np.min(w):.3e}"]
    return []


def gksl_vs_oracle(times, dens, h, ls, rho0, label: str) -> list[str]:
    err = float(np.max(np.abs(dens - gksl_mean(h, ls, rho0, times))))
    if err > GKSL_TOL:
        return [f"{label}: gksl differs from exp(tS) rho0 by {err:.3e}"]
    return []


def max_gap(times_a, dens_a, times_b, dens_b) -> float:
    """Max entry difference at the saved times two records share."""
    ta, tb = np.round(times_a, 9), np.round(times_b, 9)
    common = np.intersect1d(ta, tb)
    ia, ib = np.searchsorted(ta, common), np.searchsorted(tb, common)
    return float(np.max(np.abs(dens_a[ia] - dens_b[ib])))


#: the siwf/belavkin gap on one path may exceed the siwf step-halving
#: change at dt by at most this factor: both are scheme errors of the same
#: order.  A 60-path sweep on the path-io Rabi run saw at most 6.8.
HALVING_FACTOR = 20.0

#: a single path's step-halving ratio is a noisy statistic (strong order
#: 1/2): with the coarse run at 4 dt a 60-path sweep saw ratios from 0.81
#: (median 2.2), so a path fails the check only when refining dt doubles
#: the discrepancy
MIN_HALVING_RATIO = 0.5


def siwf_vs_belavkin(gap: float, report: dict, label: str) -> list[str]:
    """Pathwise siwf/belavkin gap within a dt-halving bound from compare."""
    conv = report.get("convergence")
    if conv is None:
        return [f"{label}: compare report has no convergence block"]
    bound = HALVING_FACTOR * conv["fine_vs_finer"]
    if not gap <= bound:
        return [f"{label}: siwf/belavkin gap {gap:.3e} exceeds "
                f"{HALVING_FACTOR:g} x halving change {bound:.3e}"]
    return []


def compare_shrinks(report: dict, label: str) -> list[str]:
    """The dt-axis compare must not show the discrepancy growing as dt
    shrinks, and its ratio must be the quotient it reports."""
    conv = report.get("convergence")
    if conv is None:
        return [f"{label}: compare report has no convergence block"]
    d1, d2 = conv["coarse_vs_fine"], conv["fine_vs_finer"]
    if not (d1 > 0 and d2 > 0 and math.isclose(conv["ratio"], d1 / d2)):
        return [f"{label}: inconsistent convergence block {conv}"]
    if not d1 / d2 > MIN_HALVING_RATIO:
        return [f"{label}: discrepancy grows as dt shrinks "
                f"({d1:.3e} -> {d2:.3e})"]
    return []


def verify_reports(rc: int, reports: list, expected: list[str]) -> list[str]:
    """Exit 0, exactly the expected report names, every report passing."""
    bad = []
    if rc != 0:
        bad.append(f"siwf verify exited {rc}")
    names = [r["name"] for r in reports]
    if sorted(names) != sorted(expected):
        missing = sorted(set(expected) - set(names))
        extra = sorted(set(names) - set(expected))
        bad.append(f"verify reports differ: missing {missing}, extra {extra}")
    for r in reports:
        ok = r["statistic"] <= r["threshold"]
        if not (r["passed"] and ok) or not math.isfinite(r["threshold"]):
            bad.append(f"verify report {r['name']} failed "
                       f"({r['statistic']:.3e} vs {r['threshold']:.3e})")
    return bad
