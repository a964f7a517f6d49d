"""Trajectory drivers: single-path runs, the reweighted linear route, and
deterministic-thread-count Monte Carlo averaging.

Monte Carlo runs are vectorized over fixed-size blocks of trajectories.
Each trajectory owns the noise substream (base_seed, trajectory_index), and
block partial sums are combined in block order, so results are bit-identical
for any worker-thread count.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatchError,
    SiwfError,
    StepFailureError,
    TrajectoryExtinctError,
)
from .linalg import DEFAULT_TOLS, Tolerances
from .model import ModelSpec
from .noise import NoisePath, generate_noise_block
from .states import (
    InitialDecomposition,
    TrajectoryRecord,
    init_ensemble,
)
from .steppers import (
    StepContext,
    belavkin_step_batch,
    linear_step_batch,
    siwf_step_batch,
    step_gksl,
    step_nonlinear_sse,
)

#: trajectories per vectorized block; fixed so that reductions do not depend
#: on the worker-thread count
BLOCK_SIZE = 256

#: reweighted trajectories whose total weight falls below this are aborted
EXTINCTION_THRESHOLD = 1e-12

MC_EQUATIONS = ("siwf", "nonlinear", "belavkin", "linear_weighted")


def resolve_steps(dt: float, t_final: float) -> int:
    """Number of steps covering [0, t_final]; dt >= t_final means one step."""
    if dt <= 0 or t_final <= 0:
        raise ValueError("dt and t_final must be positive")
    return max(1, round(t_final / dt))


def save_indices(n_steps: int, save_stride: int) -> np.ndarray:
    """Step indices retained in a record: every stride-th plus the last."""
    if save_stride < 1:
        raise ValueError("save_stride must be >= 1")
    idx = list(range(0, n_steps + 1, save_stride))
    if idx[-1] != n_steps:
        idx.append(n_steps)
    return np.asarray(idx, dtype=int)


def observable_series(densities: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """Re tr(rho_t A) along a density time series."""
    return np.einsum("kij,ji->k", densities, matrix).real


def _check_noise(model: ModelSpec, noise: NoisePath) -> None:
    if noise.n_channels < model.n_channels:
        raise DimensionMismatchError(
            f"noise has {noise.n_channels} channels, model needs "
            f"{model.n_channels}"
        )


def _record(times, densities, observables, **series) -> TrajectoryRecord:
    """A TrajectoryRecord with the named observable series filled in."""
    return TrajectoryRecord(
        times=times,
        densities=densities,
        observables={
            name: observable_series(densities, matrix)
            for name, matrix in (observables or {}).items()
        },
        **series,
    )


def _ensure_finite(state: np.ndarray, step: int) -> None:
    if not np.all(np.isfinite(state)):
        raise StepFailureError(
            step,
            FloatingPointError(
                "state diverged (non-finite entries); a stiff Hamiltonian "
                "usually needs the exponential scheme or a smaller dt"
            ),
        )


def _integrate(state, n_steps, idx, step, save):
    """The time loop every driver runs: ``save(j, k, state)`` at step
    k = idx[j], then ``state = step(k, state)``; returns the final state."""
    j = 0
    for k in range(n_steps + 1):
        if j < idx.size and idx[j] == k:
            save(j, k, state)
            j += 1
        if k == n_steps:
            return state
        state = step(k, state)


def _run_path(noise, n_ch, state, idx, advance, save, settle=None):
    """Integrate one noise path; returns the (driving, other) record series
    at the saved steps.

    ``advance(state, dw)`` returns the next state and the signed record drift
    +-2 Re tr(L_l rho) of the pre-step state; the other series adds
    ``drift * dt`` after each increment.  Kernel failures are reported with
    their step; ``settle(state, k)`` then post-processes the new state.
    """
    dws = noise.increments[:, :n_ch]
    drift = np.empty((noise.n_steps, n_ch))

    def step(k, state):
        try:
            state, drift[k] = advance(state, dws[k])
        except Exception as exc:
            raise StepFailureError(k, exc) from exc
        return state if settle is None else settle(state, k + 1)

    _integrate(state, noise.n_steps, idx, step, save)
    # both sums run step by step (a leading zero row, then increment and
    # drift interleaved), exactly as a running total would round them
    seq = np.zeros((2 * noise.n_steps + 1, n_ch))
    seq[1::2] = dws
    driving = np.cumsum(seq, axis=0)[0::2]
    seq[2::2] = drift * noise.dt
    other = np.cumsum(seq, axis=0)[0::2]
    return driving[idx], other[idx]


def run_siwf_trajectory(
    model: ModelSpec,
    dec: InitialDecomposition,
    noise: NoisePath,
    save_stride: int = 1,
    scheme: str = "euler_maruyama",
    renormalize: bool = True,
    observables: dict | None = None,
    tols: Tolerances = DEFAULT_TOLS,
) -> TrajectoryRecord:
    """Integrate the interacting-ensemble equations along one noise path.

    Saves the ensemble, the assembled density, the cumulative driving noise
    W_l and the measurement record B_l every ``save_stride`` steps.
    """
    _check_noise(model, noise)
    ctx = StepContext(model, scheme, noise.dt, renormalize, tols)
    idx = save_indices(noise.n_steps, save_stride)
    psi = init_ensemble(dec).components[None].copy()
    ens_out = np.empty((idx.size,) + psi.shape[1:], dtype=np.complex128)

    def save(j, k, psi):
        _ensure_finite(psi, k)
        ens_out[j] = psi[0]

    def advance(psi, dw):
        psi, p, _ = siwf_step_batch(ctx, psi, dw[None, :])
        return psi, 2.0 * p[0]

    w_out, b_out = _run_path(noise, model.n_channels, psi, idx, advance, save)
    densities = np.einsum("kni,knj->kij", ens_out, ens_out.conj())
    return _record(idx * noise.dt, densities, observables,
                   ensembles=ens_out, innovations=w_out, records=b_out)


def run_nonlinear_trajectory(
    model: ModelSpec,
    psi0,
    noise: NoisePath,
    save_stride: int = 1,
    scheme: str = "euler_maruyama",
    renormalize: bool = True,
    observables: dict | None = None,
    tols: Tolerances = DEFAULT_TOLS,
) -> TrajectoryRecord:
    """Integrate the pure-state conditioned equation along one noise path."""
    _check_noise(model, noise)
    ctx = StepContext(model, scheme, noise.dt, renormalize, tols)
    idx = save_indices(noise.n_steps, save_stride)
    psi = np.asarray(psi0, dtype=np.complex128).copy()
    ens_out = np.empty((idx.size, 1, psi.shape[0]), dtype=np.complex128)

    def save(j, k, psi):
        _ensure_finite(psi, k)
        ens_out[j, 0] = psi

    def advance(psi, dw):
        m = np.array(
            [np.real(np.vdot(psi, l_op @ psi)) for l_op in model.lindblads]
        )
        return step_nonlinear_sse(ctx, psi, dw), 2.0 * m

    w_out, b_out = _run_path(noise, model.n_channels, psi, idx, advance, save)
    densities = np.einsum("kni,knj->kij", ens_out, ens_out.conj())
    return _record(idx * noise.dt, densities, observables,
                   ensembles=ens_out, innovations=w_out, records=b_out)


def run_linear_route(
    model: ModelSpec,
    dec: InitialDecomposition,
    noise: NoisePath,
    save_stride: int = 1,
    scheme: str = "euler_maruyama",
    observables: dict | None = None,
    tols: Tolerances = DEFAULT_TOLS,
) -> tuple[TrajectoryRecord, np.ndarray]:
    """Integrate the unnormalized linear equation driven by record noise B.

    Each component phi_t(sqrt(p_n) phi_n) evolves linearly with no
    normalization; the record holds the normalized state rho_hat_t =
    sum |phi_n><phi_n| / w_t and the normalized stack, where
    w_t = sum_k ||phi_k||^2 is the importance weight relating the reference
    measure to the physical one.  The innovations W_l = B_l
    - integral 2 Re tr(L_l rho_hat_s) ds are accumulated alongside.

    Returns (record, weight path at the saved times).
    """
    _check_noise(model, noise)
    ctx = StepContext(model, scheme, noise.dt, renormalize=False, tols=tols)
    idx = save_indices(noise.n_steps, save_stride)
    phi = init_ensemble(dec).components[None].copy()
    ens_out = np.empty((idx.size,) + phi.shape[1:], dtype=np.complex128)
    dens_out = np.empty((idx.size, model.dim, model.dim), dtype=np.complex128)
    weights = np.empty(idx.size)

    def weigh(phi, k):
        # the state is carried as (phi, weight, rho_hat)
        weight = float(np.sum(np.abs(phi) ** 2))
        if not np.isfinite(weight):
            _ensure_finite(phi, k)
        if weight < EXTINCTION_THRESHOLD:
            raise TrajectoryExtinctError(weight, k)
        rho_hat = np.einsum("ni,nj->ij", phi[0], phi[0].conj()) / weight
        return phi, weight, rho_hat

    def save(j, k, state):
        phi, weight, dens_out[j] = state
        weights[j] = weight
        ens_out[j] = phi[0] / np.sqrt(weight)

    def advance(state, db):
        phi, _, rho_hat = state
        tr = np.array(
            [np.trace(l_op @ rho_hat).real for l_op in model.lindblads]
        )
        return linear_step_batch(ctx, phi, db[None, :]), -2.0 * tr

    b_out, w_out = _run_path(
        noise, model.n_channels, weigh(phi, 0), idx, advance, save, weigh
    )
    record = _record(idx * noise.dt, dens_out, observables,
                     ensembles=ens_out, innovations=w_out, records=b_out)
    return record, weights


def run_belavkin_trajectory(
    model: ModelSpec,
    rho0,
    noise: NoisePath,
    save_stride: int = 1,
    scheme: str = "euler_maruyama",
    renormalize: bool = True,
    observables: dict | None = None,
    tols: Tolerances = DEFAULT_TOLS,
) -> TrajectoryRecord:
    """Integrate the conditioned master equation directly along one path."""
    _check_noise(model, noise)
    ctx = StepContext(model, scheme, noise.dt, renormalize, tols)
    idx = save_indices(noise.n_steps, save_stride)
    rho = np.asarray(rho0, dtype=np.complex128)[None].copy()
    dens_out = np.empty((idx.size, model.dim, model.dim), dtype=np.complex128)

    def save(j, k, rho):
        _ensure_finite(rho, k)
        dens_out[j] = rho[0]

    def advance(rho, dw):
        rho, tr = belavkin_step_batch(ctx, rho, dw[None, :])
        return rho, 2.0 * tr[0]

    w_out, b_out = _run_path(noise, model.n_channels, rho, idx, advance, save)
    return _record(idx * noise.dt, dens_out, observables,
                   innovations=w_out, records=b_out)


def gksl_solve(
    model: ModelSpec,
    rho0,
    dt: float,
    n_steps: int,
    save_stride: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """RK4 solution of the mean master equation: (times, densities)."""
    ctx = StepContext(model, "euler_maruyama", dt, renormalize=False)
    idx = save_indices(n_steps, save_stride)
    out = np.empty((idx.size, model.dim, model.dim), dtype=np.complex128)

    def save(j, k, rho):
        out[j] = rho

    _integrate(
        np.asarray(rho0, dtype=np.complex128), n_steps, idx,
        lambda k, rho: step_gksl(ctx, rho), save,
    )
    return idx * dt, out


def run_gksl_trajectory(
    model: ModelSpec,
    rho0,
    dt: float,
    n_steps: int,
    save_stride: int = 1,
    observables: dict | None = None,
) -> TrajectoryRecord:
    """Deterministic mean evolution packaged as a record (no noise series)."""
    times, densities = gksl_solve(model, rho0, dt, n_steps, save_stride)
    return _record(times, densities, observables)


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------


@dataclass
class MeanSeries:
    """Entrywise Monte Carlo mean of the density series with standard errors.

    ``se`` holds the per-entry standard error of the (possibly weighted)
    mean; ``observable_stats`` maps a name to (mean, se) arrays over the
    saved times.
    """

    times: np.ndarray
    mean: np.ndarray
    se: np.ndarray
    n_traj: int
    equation: str
    observable_stats: dict = field(default_factory=dict)


@dataclass
class FunctionalSamples:
    """Per-trajectory functional values at selected times.

    ``samples[name][i, k]`` is the functional on trajectory i at
    ``times[k]``; ``weights`` carries final-time importance weights for the
    reweighted linear route (None otherwise).
    """

    times: np.ndarray
    samples: dict
    weights: np.ndarray | None
    equation: str


class _Accumulator:
    """Streaming per-block reductions combined in block order."""

    def __init__(self, n_saved, dim, weighted, func_names, n_func):
        shape = (n_saved, dim, dim)
        self.weighted = weighted
        self.sum_rho = np.zeros(shape, dtype=np.complex128)
        self.sum_rho2 = np.zeros(shape)
        self.sum_w = 0.0
        self.sum_w2 = 0.0
        self.sum_w2rho = np.zeros(shape, dtype=np.complex128)
        self.sum_f = {n: np.zeros(n_saved) for n in func_names}
        self.sum_f2 = {n: np.zeros(n_saved) for n in func_names}
        self.sum_w2f = {n: np.zeros(n_saved) for n in func_names}
        self.sum_w2f2 = {n: np.zeros(n_saved) for n in func_names}
        self.raw = {n: [] for n in func_names} if n_func else {}
        self.weights_final = []

    def add(self, part):
        if self.weighted:
            self.sum_w += part["sum_w"]
            self.sum_w2 += part["sum_w2"]
            self.sum_rho += part["sum_wrho"]
            self.sum_rho2 += part["sum_w2rho2"]
            self.sum_w2rho += part["sum_w2rho"]
            self.weights_final.append(part["weights_final"])
        else:
            self.sum_rho += part["sum_rho"]
            self.sum_rho2 += part["sum_rho2"]
        for name, val in part.get("func_sums", {}).items():
            self.sum_f[name] += val[0]
            self.sum_f2[name] += val[1]
            if self.weighted:
                self.sum_w2f[name] += val[2]
                self.sum_w2f2[name] += val[3]
        for name, arr in (part.get("func_raw") or {}).items():
            self.raw[name].append(arr)

    def density_stats(self, n_traj):
        if self.weighted:
            mean = self.sum_rho / self.sum_w
            dev2 = (
                self.sum_rho2
                - 2.0 * np.real(mean.conj() * self.sum_w2rho)
                + np.abs(mean) ** 2 * self.sum_w2
            )
            se = np.sqrt(np.clip(dev2, 0.0, None)) / self.sum_w
            return mean, se
        mean = self.sum_rho / n_traj
        if n_traj > 1:
            var = (self.sum_rho2 - n_traj * np.abs(mean) ** 2) / (n_traj - 1)
            se = np.sqrt(np.clip(var, 0.0, None) / n_traj)
        else:
            se = np.zeros_like(self.sum_rho2)
        return mean, se

    def functional_stats(self, n_traj):
        out = {}
        for name in self.sum_f:
            if self.weighted:
                m = self.sum_f[name] / self.sum_w
                dev2 = (
                    self.sum_w2f2[name]
                    - 2.0 * m * self.sum_w2f[name]
                    + m * m * self.sum_w2
                )
                s = np.sqrt(np.clip(dev2, 0.0, None)) / self.sum_w
            else:
                m = self.sum_f[name] / n_traj
                if n_traj > 1:
                    var = (self.sum_f2[name] - n_traj * m * m) / (n_traj - 1)
                    s = np.sqrt(np.clip(var, 0.0, None) / n_traj)
                else:
                    s = np.zeros_like(m)
            out[name] = (m, s)
        return out


def _evaluate_functionals(functionals, rho_b):
    out = {}
    for name, spec in functionals.items():
        if callable(spec):
            out[name] = np.asarray(spec(rho_b), dtype=float)
        else:
            out[name] = np.einsum("bij,ji->b", rho_b, spec).real
    return out


def _initial_stack(dec, block):
    psi0 = init_ensemble(dec).components
    return np.broadcast_to(psi0, (block,) + psi0.shape).copy()


def _propagate_block(
    model,
    ctx,
    equation,
    dec,
    seed,
    streams,
    n_steps,
    idx,
    functionals,
    func_positions,
):
    """Advance one block of trajectories and return its partial sums.

    The unweighted equations reduce each saved state as it is reached.  The
    reweighted route keeps references to its saved stacks (every kernel
    returns a fresh array) until the final importance weights are known,
    then checks and reduces them in save order.
    """
    block = len(streams)
    dim = model.dim
    dw = generate_noise_block(seed, model.n_channels, ctx.dt, n_steps, streams)
    weighted = equation == "linear_weighted"

    if equation == "belavkin":
        state = np.broadcast_to(dec.density(), (block, dim, dim)).copy()
        step = lambda k, s: belavkin_step_batch(ctx, s, dw[:, k, :])[0]
    else:
        state = _initial_stack(dec, block)
        if equation == "nonlinear" and state.shape[1] != 1:
            raise SiwfError(
                "the pure-state equation needs a single-component initial state"
            )
        if weighted:
            step = lambda k, s: linear_step_batch(ctx, s, dw[:, k, :])
        else:
            step = lambda k, s: siwf_step_batch(ctx, s, dw[:, k, :])[0]

    n_saved = idx.size
    shape = (n_saved, dim, dim)
    part = {}
    func_sums = {n: [np.zeros(n_saved) for _ in range(4)] for n in functionals}
    func_raw = (
        {n: np.empty((block, len(func_positions))) for n in functionals}
        if func_positions is not None
        else None
    )

    def reduce(j, rho_b, w_final):
        if weighted:
            part["sum_wrho"][j] = np.einsum("b,bij->ij", w_final, rho_b)
            part["sum_w2rho"][j] = np.einsum("b,bij->ij", w_final**2, rho_b)
            part["sum_w2rho2"][j] = np.einsum(
                "b,bij->ij", w_final**2, np.abs(rho_b) ** 2
            ).real
        else:
            part["sum_rho"][j] = rho_b.sum(axis=0)
            part["sum_rho2"][j] = (np.abs(rho_b) ** 2).sum(axis=0)
        for name, v in _evaluate_functionals(functionals, rho_b).items():
            if weighted:
                func_sums[name][0][j] = float(np.sum(w_final * v))
                func_sums[name][2][j] = float(np.sum(w_final**2 * v))
                func_sums[name][3][j] = float(np.sum(w_final**2 * v * v))
            else:
                func_sums[name][0][j] = float(np.sum(v))
            func_sums[name][1][j] = float(np.sum(v * v))
            if func_raw is not None:
                for slot, pos in enumerate(func_positions):
                    if pos == j:
                        func_raw[name][:, slot] = v

    if weighted:
        saved = []
        phi = _integrate(
            state, n_steps, idx, step, lambda j, k, s: saved.append(s)
        )
        w_final = np.einsum("bni,bni->b", phi.conj(), phi).real
        if np.any(w_final < EXTINCTION_THRESHOLD):
            bad = int(np.argmin(w_final))
            raise TrajectoryExtinctError(float(w_final[bad]), n_steps)
        part["sum_w"] = float(np.sum(w_final))
        part["sum_w2"] = float(np.sum(w_final**2))
        part["sum_wrho"] = np.zeros(shape, dtype=np.complex128)
        part["sum_w2rho"] = np.zeros(shape, dtype=np.complex128)
        part["sum_w2rho2"] = np.zeros(shape)
        part["weights_final"] = w_final
        for j, (k, phi) in enumerate(zip(idx.tolist(), saved)):
            _ensure_finite(phi, k)
            w = np.einsum("bni,bni->b", phi.conj(), phi).real
            if np.any(w < EXTINCTION_THRESHOLD):
                bad = int(np.argmin(w))
                raise TrajectoryExtinctError(float(w[bad]), k)
            rho_b = np.einsum("bni,bnj->bij", phi, phi.conj()) / w[:, None, None]
            reduce(j, rho_b, w_final)
    else:
        part["sum_rho"] = np.zeros(shape, dtype=np.complex128)
        part["sum_rho2"] = np.zeros(shape)

        def save(j, k, s):
            _ensure_finite(s, k)
            if equation != "belavkin":
                s = np.einsum("bni,bnj->bij", s, s.conj())
            reduce(j, s, None)

        _integrate(state, n_steps, idx, step, save)

    part["func_sums"] = func_sums
    part["func_raw"] = func_raw
    return part


def _map_blocks(n_traj, threads, work):
    """``work(streams)`` on each BLOCK_SIZE block of trajectory indices;
    the results come back in block order whatever the thread count."""
    blocks = [
        list(range(start, min(start + BLOCK_SIZE, n_traj)))
        for start in range(0, n_traj, BLOCK_SIZE)
    ]
    if threads > 1 and len(blocks) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(work, blocks))
    return [work(b) for b in blocks]


def _sample_schedule(sample_times, dt, n_steps):
    """Snap sample times to the step grid: (requested steps, save schedule
    including the last step, position of each request in the schedule)."""
    req = [round(float(t) / dt) for t in np.atleast_1d(sample_times)]
    if any(k < 0 or k > n_steps for k in req):
        raise ValueError("sample time outside [0, t_final]")
    idx = np.unique(np.asarray(req + [n_steps], dtype=int))
    return req, idx, [int(np.searchsorted(idx, k)) for k in req]


def _run_blocks(
    model, dec, n_traj, base_seed, equation, dt, n_steps, idx,
    scheme, renormalize, threads, functionals, func_positions,
):
    if equation not in MC_EQUATIONS:
        raise SiwfError(
            f"unknown Monte Carlo equation '{equation}', "
            f"choose from {MC_EQUATIONS}"
        )
    ctx = StepContext(model, scheme, dt, renormalize)

    def work(streams):
        return _propagate_block(
            model, ctx, equation, dec, base_seed, streams,
            n_steps, idx, functionals, func_positions,
        )

    acc = _Accumulator(
        idx.size, model.dim, equation == "linear_weighted",
        list(functionals), func_positions is not None,
    )
    for p in _map_blocks(n_traj, threads, work):
        acc.add(p)
    return acc


def monte_carlo_mean(
    model: ModelSpec,
    dec: InitialDecomposition,
    n_traj: int,
    base_seed: int,
    equation: str = "siwf",
    dt: float = 1e-3,
    t_final: float = 1.0,
    save_stride: int = 1,
    scheme: str = "euler_maruyama",
    renormalize: bool = True,
    observables: dict | None = None,
    threads: int = 1,
) -> MeanSeries:
    """Average the conditioned state over independent trajectories.

    ``siwf``/``nonlinear``/``belavkin`` average rho_t directly; the
    ``linear_weighted`` route averages the normalized linear-route state
    weighted by the final-time importance weight.  Per-entry standard
    errors accompany the mean; named observables get (mean, se) series too.
    """
    if n_traj < 1:
        raise ValueError("n_traj must be >= 1")
    n_steps = resolve_steps(dt, t_final)
    idx = save_indices(n_steps, save_stride)
    functionals = dict(observables or {})
    acc = _run_blocks(
        model, dec, n_traj, base_seed, equation, dt, n_steps, idx,
        scheme, renormalize, threads, functionals, None,
    )
    mean, se = acc.density_stats(n_traj)
    return MeanSeries(
        times=idx * dt,
        mean=mean,
        se=se,
        n_traj=n_traj,
        equation=equation,
        observable_stats=acc.functional_stats(n_traj),
    )


def sample_functionals(
    model: ModelSpec,
    dec: InitialDecomposition,
    n_traj: int,
    base_seed: int,
    equation: str,
    functionals: dict,
    sample_times,
    dt: float = 1e-3,
    t_final: float = 1.0,
    scheme: str = "euler_maruyama",
    renormalize: bool = True,
    threads: int = 1,
) -> FunctionalSamples:
    """Collect per-trajectory values of Re tr(rho_t A) at selected times.

    ``functionals`` maps names to matrices A, or to callables on a
    (B, d, d) stack of densities (for nonlinear readouts such as purity).
    Sample times are snapped to the step grid.
    """
    n_steps = resolve_steps(dt, t_final)
    req, idx, func_positions = _sample_schedule(sample_times, dt, n_steps)
    acc = _run_blocks(
        model, dec, n_traj, base_seed, equation, dt, n_steps, idx,
        scheme, renormalize, threads, dict(functionals), func_positions,
    )
    samples = {
        name: np.concatenate(chunks, axis=0) for name, chunks in acc.raw.items()
    }
    weights = (
        np.concatenate(acc.weights_final) if acc.weights_final else None
    )
    return FunctionalSamples(
        times=np.asarray(req, dtype=float) * dt,
        samples=samples,
        weights=weights,
        equation=equation,
    )


def weight_paths(
    model: ModelSpec,
    dec: InitialDecomposition,
    n_traj: int,
    base_seed: int,
    sample_times,
    dt: float = 1e-3,
    t_final: float = 1.0,
    scheme: str = "euler_maruyama",
    threads: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-trajectory linear-route importance weights w_t at selected times.

    Returns (times, weights) with weights of shape (n_traj, len(times)).
    """
    n_steps = resolve_steps(dt, t_final)
    req, idx, pos = _sample_schedule(sample_times, dt, n_steps)
    ctx = StepContext(model, scheme, dt, renormalize=False)

    def work(streams):
        dw = generate_noise_block(
            base_seed, model.n_channels, dt, n_steps, streams
        )
        out = np.empty((idx.size, len(streams)))

        def save(j, k, phi):
            out[j] = np.einsum("bni,bni->b", phi.conj(), phi).real

        _integrate(
            _initial_stack(dec, len(streams)), n_steps, idx,
            lambda k, phi: linear_step_batch(ctx, phi, dw[:, k, :]), save,
        )
        return out

    all_w = np.concatenate(_map_blocks(n_traj, threads, work), axis=1)
    return np.asarray(req, dtype=float) * dt, all_w[pos].T
