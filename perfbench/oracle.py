"""Reference computations made apart from siwf.

The models are rebuilt here from their published definitions (see the siwf
README) with plain numpy, and the mean evolution is the matrix exponential
of the Lindblad superoperator, so none of siwf's own code (its RK4 solver,
steppers or model builders) enters a reference value.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def lower(n: int) -> np.ndarray:
    """Truncated annihilation operator on n levels."""
    return np.diag(np.sqrt(np.arange(1, n)), 1).astype(complex)


def qubit_ops(omega: float, gamma: float, monitor: str = "z"):
    """H = omega sigma_z / 2 and L = sqrt(gamma) sigma_<monitor>."""
    ops = {"z": SZ, "x": SX, "minus": np.array([[0, 0], [1, 0]], dtype=complex)}
    return 0.5 * omega * SZ, [math.sqrt(gamma) * ops[monitor]]


def rabi_ops(omega1, omega2, g, alpha, psi, n_fock):
    """Mode (slow factor) x qubit; L = sqrt(alpha)(e^{i psi} a^+ + e^{-i psi} a)."""
    a = lower(n_fock)
    ad = a.conj().T
    i_f, i_q = np.eye(n_fock), np.eye(2)
    h = (0.5 * omega1 * np.kron(i_f, SZ) + omega2 * np.kron(ad @ a, i_q)
         + g * np.kron(ad + a, SX))
    l1 = math.sqrt(alpha) * np.kron(
        np.exp(1j * psi) * ad + np.exp(-1j * psi) * a, i_q)
    return h, [l1]


def box_grid(x_min, x_max, n_grid):
    step = (x_max - x_min) / (n_grid + 1)
    return x_min + step * np.arange(1, n_grid + 1), step


def box_ops(alpha_kin, gamma, x_min, x_max, n_grid):
    """Dirichlet finite differences: H = -alpha_kin d^2/dx^2, L = gamma x."""
    x, step = box_grid(x_min, x_max, n_grid)
    lap = (np.diag(-2.0 * np.ones(n_grid)) + np.diag(np.ones(n_grid - 1), 1)
           + np.diag(np.ones(n_grid - 1), -1)) / step**2
    return (-alpha_kin * lap).astype(complex), [np.diag(gamma * x).astype(complex)]


def ops_for(model: dict):
    """(H, [L]) for a siwf config's model block."""
    p = dict(model)
    kind = p.pop("preset")
    if kind == "qubit":
        return qubit_ops(p["omega"], p["gamma"], p.get("monitor", "z"))
    if kind == "rabi":
        return rabi_ops(p["omega1"], p["omega2"], p["g"], p["alpha"],
                        p["psi"], p["n_fock"])
    if kind == "box":
        return box_ops(p["alpha_kin"], p["gamma"], p["x_min"], p["x_max"],
                       p["n_grid"])
    raise ValueError(f"no reference model for preset {kind!r}")


def superoperator(h, ls) -> np.ndarray:
    """Matrix S with vec(L[rho]) = S vec(rho), row-major vec."""
    d = h.shape[0]
    eye = np.eye(d)
    g = -1j * h - 0.5 * sum(l.conj().T @ l for l in ls)
    s = np.kron(g, eye) + np.kron(eye, g.conj())
    for l in ls:
        s = s + np.kron(l, l.conj())
    return s


def gksl_mean(h, ls, rho0, times) -> np.ndarray:
    """exp(t S) rho0 at each time: shape (len(times), d, d)."""
    s = superoperator(h, ls)
    d = rho0.shape[0]
    v0 = np.asarray(rho0, dtype=complex).reshape(-1)
    return np.stack([(scipy.linalg.expm(t * s) @ v0).reshape(d, d)
                     for t in times])


def rate_scale(h, ls, scheme: str) -> float:
    """Spectral norm of the part of S the scheme integrates by Euler steps.

    Euler-Maruyama steps the whole generator; exponential_em propagates
    exp(G dt) exactly and steps only the jump term sum_l L rho L^+.
    """
    if scheme == "exponential_em":
        d = h.shape[0]
        s = sum(np.kron(l, l.conj()) for l in ls) + np.zeros((d * d, d * d))
    else:
        s = superoperator(h, ls)
    return float(np.linalg.norm(s, 2))


def density(entry: dict, d: int) -> np.ndarray:
    """The initial density matrix a config's initial_state block stands for."""
    kind = entry["kind"]
    if kind == "basis":
        rho = np.zeros((d, d), dtype=complex)
        rho[entry["index"], entry["index"]] = 1.0
        return rho
    if kind == "pure":
        v = np.array([re + 1j * im for re, im in entry["vector"]])
        return np.outer(v, v.conj())
    if kind == "mixed":
        return np.array([[re + 1j * im for re, im in row]
                         for row in entry["matrix"]])
    if kind == "mixture":
        vs = [np.array([re + 1j * im for re, im in v]) for v in entry["vectors"]]
        return sum(w * np.outer(v, v.conj())
                   for w, v in zip(entry["weights"], vs))
    raise ValueError(f"unknown initial state kind {kind!r}")
