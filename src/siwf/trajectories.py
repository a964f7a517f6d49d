"""Trajectory drivers: single-path runs, the reweighted linear route, and
blocked Monte Carlo averaging.

The four stochastic single-path runners (siwf, nonlinear, the linear
route and Belavkin) share one body, ``_run_stack``: each integrates a
one-trajectory stack with the batched kernels.  The nonlinear runner is the
siwf runner on a one-component stack; the linear route normalizes its saved
stacks after the run.  Monte Carlo runs are vectorized over fixed-size
blocks of trajectories.  Each trajectory owns the noise substream
(base_seed, trajectory_index).  One save body serves all four Monte Carlo
routes: it reduces each saved state as the block reaches it, the
reweighted route's by the importance weight of that time.  A block returns
plain data, (sums, samples): the per-saved-time sums of the density and of
each functional (``_save_sums``), and per-trajectory samples of each
functional at the requested times, the reweighted route's importance
weight among them.  On Linux ``_map_blocks`` runs the blocks on a pool of
forked worker processes, one per usable CPU and at most one per
``MIN_SHARE`` blocks, which claim them one at a time while the caller
waits; the results go back in block order and the sums are added with a
plain left-to-right ``sum``.  The fixed partition and the fixed addition
order make every result reproducible bit for bit, whatever the number of
processes.  One estimator, ``_estimate``, turns summed sums into every
Monte Carlo mean and standard error: the density's and each observable's
in ``monte_carlo_mean``, and the weight martingale's in ``siwf.verify``.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import (ConfigError, DimensionMismatchError, SiwfError,
                     StepFailureError, TrajectoryExtinctError)
from .model import ModelSpec
from .noise import NoisePath, generate_noise_block
from .states import InitialDecomposition, TrajectoryRecord, init_ensemble
# the kernels, StepContext and generate_noise_block are looked up in this
# module's namespace at call time, so a tracer can wrap them here;
# step_nonlinear_sse stays importable from here though no runner calls it
from .steppers import (StepContext, _check_pure_state, belavkin_step_batch,
                       linear_step_batch, siwf_step_batch, step_gksl,
                       step_nonlinear_sse)

#: trajectories per vectorized block; fixed because the block results and
#: their order-fixed sums are what makes a Monte Carlo result reproducible
BLOCK_SIZE = 256

#: reweighted trajectories whose total weight falls below this are aborted
EXTINCTION_THRESHOLD = 1e-12

MC_EQUATIONS = ("siwf", "nonlinear", "belavkin", "linear_weighted")


def off_grid(t: float, dt: float) -> bool:
    """Whether t is not a whole number of dt steps within a relative 1e-9;
    rounding such a time to the step grid would run past or short of it."""
    steps = t / dt
    return abs(steps - round(steps)) > 1e-9 * abs(steps)


def resolve_steps(dt: float, t_final: float) -> int:
    """Number of steps covering [0, t_final], which must be on the dt grid."""
    if dt <= 0 or t_final <= 0:
        raise ValueError("dt and t_final must be positive")
    if off_grid(t_final, dt):
        raise ConfigError("t_final", f"must be a whole number of dt {dt} steps, "
                          f"got {t_final} ({t_final / dt:.6g} steps)")
    return round(t_final / dt)


def save_indices(n_steps: int, save_stride: int) -> np.ndarray:
    """Step indices retained in a record: every stride-th plus the last."""
    if save_stride < 1:
        raise ValueError("save_stride must be >= 1")
    idx = np.arange(0, n_steps + 1, save_stride)
    return idx if idx[-1] == n_steps else np.append(idx, n_steps)


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


def _ensure_finite(state: np.ndarray, step: int,
                   remedy: str = "the exponential scheme or a smaller dt") -> None:
    """Raise ``StepFailureError`` at ``step`` if ``state`` is not finite,
    naming the ``remedy`` the driver's scheme allows.  The single-path
    drivers call it at every step, so it uses the ndarray method, which
    skips ``np.all``'s Python-level dispatch (about 2 us against 3.5 us on
    a one-trajectory stack)."""
    if not np.isfinite(state).all():
        raise StepFailureError(
            step,
            FloatingPointError(
                "state diverged (non-finite entries); a stiff Hamiltonian "
                f"usually needs {remedy}"
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


def _run_stack(model, noise, save_stride, stack, advance):
    """Integrate a one-trajectory stack (leading axis of one) along ``noise``;
    returns (saved step indices, saved stacks without the leading axis,
    driving series, other series).

    ``advance(k, state, dw)`` returns state k + 1 and the signed record drift
    +-2 Re tr(L_l rho) of state k.  The driving series sums the increments;
    the other series adds ``drift * dt`` after each increment.  Every state,
    saved or not, must be finite, so a non-finite state is reported at its
    own step whatever the ``save_stride``.  A ``SiwfError`` raised by
    ``advance`` carries its own step and propagates as it is; any other
    exception becomes ``StepFailureError(k, ...)``.
    """
    _check_noise(model, noise)
    idx = save_indices(noise.n_steps, save_stride)
    dws = noise.increments[:, :model.n_channels]
    drift = np.empty(dws.shape)
    out = np.empty((idx.size,) + stack.shape[1:], dtype=np.complex128)

    def save(j, k, s):
        out[j] = s[0]

    def step(k, s):
        _ensure_finite(s, k)
        try:
            s, drift[k] = advance(k, s, dws[k])
        except SiwfError:
            raise
        except Exception as exc:
            raise StepFailureError(k, exc) from exc
        return s

    last = _integrate(stack, noise.n_steps, idx, step, save)
    _ensure_finite(last, noise.n_steps)
    # both sums run step by step (a leading zero row, then increment and
    # drift interleaved), exactly as a running total would round them
    seq = np.zeros((2 * noise.n_steps + 1, model.n_channels))
    seq[1::2] = dws
    driving = np.cumsum(seq, axis=0)[0::2]
    seq[2::2] = drift * noise.dt
    other = np.cumsum(seq, axis=0)[0::2]
    return idx, out, driving[idx], other[idx]


def _run_ensemble(ctx, noise, save_stride, observables, psi):
    """``run_siwf_trajectory`` from the (1, N, d) stack ``psi``."""

    def advance(k, psi, dw):
        psi, p, _ = siwf_step_batch(ctx, psi, dw[None, :])
        return psi, 2.0 * p[0]

    idx, ens, w_out, b_out = _run_stack(ctx.model, noise, save_stride, psi,
                                        advance)
    densities = np.einsum("kni,knj->kij", ens, ens.conj())
    return _record(idx * noise.dt, densities, observables,
                   ensembles=ens, innovations=w_out, records=b_out)


def run_siwf_trajectory(
    model: ModelSpec,
    dec: InitialDecomposition,
    noise: NoisePath,
    save_stride: int = 1,
    scheme: str = "euler_maruyama",
    renormalize: bool = True,
    observables: dict | None = None,
) -> TrajectoryRecord:
    """Integrate the interacting-ensemble equations along one noise path.

    Saves the ensemble, the assembled density, the cumulative driving noise
    W_l and the measurement record B_l every ``save_stride`` steps.
    """
    ctx = StepContext(model, scheme, noise.dt, renormalize)
    return _run_ensemble(ctx, noise, save_stride, observables,
                         init_ensemble(dec)[None])


def run_nonlinear_trajectory(
    model: ModelSpec,
    psi0,
    noise: NoisePath,
    save_stride: int = 1,
    scheme: str = "euler_maruyama",
    renormalize: bool = True,
    observables: dict | None = None,
) -> TrajectoryRecord:
    """Integrate the pure-state conditioned equation along one noise path:
    the ensemble equations of the one-component stack [psi0]."""
    ctx = StepContext(model, scheme, noise.dt, renormalize)
    psi = _check_pure_state(ctx, psi0)
    return _run_ensemble(ctx, noise, save_stride, observables, psi[None, None])


def run_linear_route(
    model: ModelSpec,
    dec: InitialDecomposition,
    noise: NoisePath,
    save_stride: int = 1,
    scheme: str = "euler_maruyama",
    observables: dict | None = None,
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
    ctx = StepContext(model, scheme, noise.dt, renormalize=False)

    def advance(k, phi, db):
        # state k is weighed before its step, so an extinct state is
        # reported at its own step, saved or not
        weight = float(np.sum(np.abs(phi) ** 2))
        if weight < EXTINCTION_THRESHOLD:
            raise TrajectoryExtinctError(weight, k, noise.stream)
        rho_hat = np.einsum("ni,nj->ij", phi[0], phi[0].conj()) / weight
        tr = np.array(
            [np.trace(l_op @ rho_hat).real for l_op in model.lindblads]
        )
        return linear_step_batch(ctx, phi, db[None, :]), -2.0 * tr

    idx, phi, b_out, w_out = _run_stack(
        model, noise, save_stride, init_ensemble(dec)[None], advance,
    )
    # the last state is the one advance never weighed
    weights = np.sum(np.abs(phi) ** 2, axis=(1, 2))
    if weights[-1] < EXTINCTION_THRESHOLD:
        raise TrajectoryExtinctError(float(weights[-1]), noise.n_steps,
                                     noise.stream)
    dens = np.einsum("kni,knj->kij", phi, phi.conj()) / weights[:, None, None]
    record = _record(idx * noise.dt, dens, observables,
                     ensembles=phi / np.sqrt(weights)[:, None, None],
                     innovations=w_out, records=b_out)
    return record, weights


def run_belavkin_trajectory(
    model: ModelSpec,
    rho0,
    noise: NoisePath,
    save_stride: int = 1,
    scheme: str = "euler_maruyama",
    renormalize: bool = True,
    observables: dict | None = None,
) -> TrajectoryRecord:
    """Integrate the conditioned master equation directly along one path."""
    ctx = StepContext(model, scheme, noise.dt, renormalize)

    def advance(k, rho, dw):
        rho, tr = belavkin_step_batch(ctx, rho, dw[None, :])
        return rho, 2.0 * tr[0]

    idx, dens, w_out, b_out = _run_stack(
        model, noise, save_stride, np.asarray(rho0, dtype=np.complex128)[None],
        advance,
    )
    return _record(idx * noise.dt, dens, observables, innovations=w_out,
                   records=b_out)


def gksl_solve(
    model: ModelSpec,
    rho0,
    dt: float,
    n_steps: int,
    save_stride: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """RK4 solution of the mean master equation: (times, densities).

    A non-finite saved state raises ``StepFailureError`` at its step.
    """
    ctx = StepContext(model, "euler_maruyama", dt, renormalize=False)
    idx = save_indices(n_steps, save_stride)
    out = np.empty((idx.size, model.dim, model.dim), dtype=np.complex128)

    def save(j, k, rho):
        # RK4 is the only scheme here, so only a smaller dt helps
        _ensure_finite(rho, k, remedy="a smaller dt")
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
    ``times[k]``; on the reweighted linear route ``weights[i, k]`` is the
    importance weight of trajectory i at ``times[k]`` (None otherwise).
    """

    times: np.ndarray
    samples: dict
    weights: np.ndarray | None
    equation: str


class _Key(Enum):
    """The keys of the density's sums and of the importance weights' sums
    and samples, which no observable name can equal; as enum members they
    keep their identity through the pickle of a worker's results."""

    DENSITY = "density"
    WEIGHT = "weight"


_DENSITY, _WEIGHT = _Key.DENSITY, _Key.WEIGHT


def _estimate(sums, n_traj, w=None):
    """(mean, se) of one per-trajectory value from its summed sums.

    Plain: ``sums`` = (sum v, sum |v|^2) over ``n_traj`` trajectories, the
    sample mean with its sample-variance standard error.  Reweighted: ``sums``
    = (sum w v, sum w^2 v, sum w^2 |v|^2) and ``w`` = (sum w, sum w^2), each
    over the saved times and taken with the importance weights of that time;
    the ratio estimate sum w v / sum w with its delta-method standard error.
    """
    if w is not None:
        wv, w2v, w2v2 = sums
        # one (sum w, sum w^2) per saved time, broadcast over the value's axes
        sw, sw2 = (np.reshape(x, np.shape(x) + (1,) * (wv.ndim - 1)) for x in w)
        mean = wv / sw
        dev2 = w2v2 - 2.0 * np.real(mean.conj() * w2v) + np.abs(mean) ** 2 * sw2
        return mean, np.sqrt(np.clip(dev2, 0.0, None)) / sw
    total, total2 = sums
    mean = total / n_traj
    if n_traj > 1:
        var = (total2 - n_traj * np.abs(mean) ** 2) / (n_traj - 1)
        return mean, np.sqrt(np.clip(var, 0.0, None) / n_traj)
    return mean, np.zeros_like(total2)


def _weights(phi, k, streams):
    """Importance weights ||phi||^2 of a finite (B, N, d) block at step k; an
    extinct trajectory raises, naming the block's lightest stream."""
    w = np.einsum("bni,bni->b", phi.conj(), phi).real
    if np.any(w < EXTINCTION_THRESHOLD):
        bad = int(np.argmin(w))
        raise TrajectoryExtinctError(float(w[bad]), k, streams[bad])
    return w


def _save_sums(values, w):
    """Sums over one save of each per-trajectory value in ``values`` (leading
    axis: the block's trajectories).  Plain: (sum v, sum |v|^2).  Reweighted
    by the save's importance weights w: (sum w v, sum w^2 v, sum w^2 |v|^2),
    and (sum w, sum w^2) under ``_WEIGHT``."""
    if w is None:
        return {key: (v.sum(axis=0), (np.abs(v) ** 2).sum(axis=0))
                for key, v in values.items()}
    w2 = w**2
    return {
        **{key: tuple(np.einsum("b,b...->...", weight, x)
                      for weight, x in ((w, v), (w2, v), (w2, np.abs(v) ** 2)))
           for key, v in values.items()},
        _WEIGHT: (w.sum(), w2.sum()),
    }


def _propagate_block(model, ctx, equation, dec, seed, streams, n_steps, idx,
                     functionals, func_positions):
    """Advance one block of trajectories: (sums, samples), all plain arrays.

    ``sums`` maps each functional's name, and ``_DENSITY`` the density, to
    its ``_save_sums`` tuple, each entry an array over the saved times; the
    reweighted route adds ``_WEIGHT``, the sums (sum w, sum w^2) of each
    save's importance weights.  ``samples`` maps each functional, and on
    the reweighted route ``_WEIGHT`` the importance weight, to its
    (B, slots) values, slot i read at save ``func_positions[i]``.
    ``_run_blocks`` adds the sums of all blocks in block order.

    Every route reduces each saved state as it is reached, in one pass.  The
    reweighted route weighs its stack phi at each save, w = ||phi||^2, and
    reduces rho_hat = phi phi^dagger / w by that same w: the weight is a
    martingale, so the mean at time t needs only the weight at t and does
    not depend on ``t_final``.  A non-finite or extinct trajectory raises at
    the first saved step that holds one; an extinct one names the block's
    lightest trajectory at that step.
    """
    block = len(streams)
    dim = model.dim
    dw = generate_noise_block(seed, model.n_channels, ctx.dt, n_steps, streams)
    weighted = equation == "linear_weighted"

    if equation == "belavkin":
        state = np.broadcast_to(dec.density(), (block, dim, dim)).copy()
        step = lambda k, s: belavkin_step_batch(ctx, s, dw[:, k, :])[0]
    else:
        psi0 = init_ensemble(dec)
        state = np.broadcast_to(psi0, (block,) + psi0.shape).copy()
        if equation == "nonlinear" and state.shape[1] != 1:
            raise SiwfError(
                "the pure-state equation needs a single-component initial state"
            )
        if weighted:
            step = lambda k, s: linear_step_batch(ctx, s, dw[:, k, :])
        else:
            step = lambda k, s: siwf_step_batch(ctx, s, dw[:, k, :])[0]

    rows = []
    keys = [*functionals, _WEIGHT] if weighted else list(functionals)
    samples = {key: np.empty((block, len(func_positions))) for key in keys}

    def save(j, k, s):
        _ensure_finite(s, k)
        w = None
        rho_b = (s if equation == "belavkin"
                 else np.einsum("bni,bnj->bij", s, s.conj()))
        if weighted:
            w = _weights(s, k, streams)
            rho_b = rho_b / w[:, None, None]
        values = {
            name: np.asarray(spec(rho_b), dtype=float) if callable(spec)
            else observable_series(rho_b, spec)
            for name, spec in functionals.items()
        }
        readouts = values if w is None else {**values, _WEIGHT: w}
        for slot, pos in enumerate(func_positions):
            if pos == j:
                for key, v in readouts.items():
                    samples[key][:, slot] = v
        rows.append(_save_sums({_DENSITY: rho_b, **values}, w))

    _integrate(state, n_steps, idx, step, save)
    sums = {key: tuple(map(np.array, zip(*(row[key] for row in rows))))
            for key in rows[0]}
    return sums, samples


#: set in a forked worker by ``_start_worker``: the worker runs its blocks
#: serially, never forks, and finds the ``work`` of the ``_map_blocks`` call
#: that forked it in ``_WORK``
_IN_WORKER = False
_WORK = None

#: blocks per worker process: a call of n blocks forks at most
#: n // MIN_SHARE workers.  A worker with one block saves at most one
#: block's time, and on a host whose CPUs are shared with other load that
#: saving comes and goes with the load, so a two- or three-block call stays
#: in the caller
MIN_SHARE = 2


def _worker_count(n_blocks: int) -> int:
    """Processes to run ``n_blocks`` blocks on: one per CPU this process
    may run on (its affinity set where the platform reports one, else the
    machine's count) and at most one per ``MIN_SHARE`` blocks.  One means
    the caller runs every block, as it always does off Linux, where forking
    a process that may hold other threads has not been measured or tested,
    and in a worker; more means a pool of that many workers."""
    if _IN_WORKER or sys.platform != "linux":
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return max(1, min(n_blocks // MIN_SHARE, cpus))


def _start_worker(work):
    """Pool initializer of a forked worker.  ``work`` is a closure, which
    does not pickle; it reaches the worker through the fork."""
    global _IN_WORKER, _WORK
    _IN_WORKER, _WORK = True, work


def _run_block(streams):
    return _WORK(streams)


def _map_blocks(n_traj, work):
    """``work(streams)`` on each BLOCK_SIZE block of trajectory indices; the
    results in block order.

    With one process (``_worker_count``) the caller runs the blocks one
    after another.  Otherwise a pool of forked workers claims them one at
    a time while the caller waits, and the results go back in block order,
    so they are the serial loop's whatever the number of processes.  If
    blocks fail, the lowest failing block's exception is raised, as the
    serial loop would raise it; a worker that dies raises SiwfError.  Every
    worker is joined before the call returns.  fork, not spawn: a forked
    worker starts with the package imported and the call's ``work``, where
    spawn would pay a fresh interpreter and import on every call.
    """
    if n_traj < 1:
        raise ValueError("n_traj must be >= 1")
    blocks = [list(range(start, min(start + BLOCK_SIZE, n_traj)))
              for start in range(0, n_traj, BLOCK_SIZE)]
    n_workers = _worker_count(len(blocks))
    if n_workers == 1:
        return [work(streams) for streams in blocks]
    # imported here, so that start-up does not pay for them
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool
    try:
        with ProcessPoolExecutor(n_workers, multiprocessing.get_context("fork"),
                                 _start_worker, (work,)) as pool:
            return list(pool.map(_run_block, blocks))
    except BrokenProcessPool as exc:
        raise SiwfError(f"a Monte Carlo worker died before returning its "
                        f"blocks: {exc}") from exc


def _sample_schedule(sample_times, dt, n_steps):
    """Sample times as steps of the grid: (requested steps, save schedule
    including the last step, position of each request in the schedule)."""
    times = [float(t) for t in np.atleast_1d(sample_times)]
    bad = [t for t in times if off_grid(t, dt)]
    if bad:
        raise ConfigError("sample_times", f"{bad} not on the dt {dt} grid")
    req = [round(t / dt) for t in times]
    if any(k < 0 or k > n_steps for k in req):
        raise ValueError("sample time outside [0, t_final]")
    idx = np.unique(np.asarray(req + [n_steps], dtype=int))
    return req, idx, [int(np.searchsorted(idx, k)) for k in req]


def _run_blocks(
    model, dec, n_traj, base_seed, equation, dt, n_steps, idx,
    scheme, renormalize, functionals, func_positions,
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

    # the plain left-to-right sums over the block-ordered results round the
    # same way on every run
    sums, samples = zip(*_map_blocks(n_traj, work))
    return (
        {key: tuple(map(sum, zip(*(s[key] for s in sums)))) for key in sums[0]},
        {key: np.concatenate([s[key] for s in samples]) for key in samples[0]},
    )


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
) -> MeanSeries:
    """Average the conditioned state over independent trajectories.

    ``siwf``/``nonlinear``/``belavkin`` average rho_t directly; the
    ``linear_weighted`` route averages the normalized linear-route state
    weighted by the importance weight at each saved time.  Per-entry standard
    errors accompany the mean; named observables get (mean, se) series too.
    """
    n_steps = resolve_steps(dt, t_final)
    idx = save_indices(n_steps, save_stride)
    functionals = dict(observables or {})
    sums, _ = _run_blocks(
        model, dec, n_traj, base_seed, equation, dt, n_steps, idx,
        scheme, renormalize, functionals, [],
    )
    w_sums = sums.pop(_WEIGHT, None)
    mean, se = _estimate(sums.pop(_DENSITY), n_traj, w_sums)
    return MeanSeries(
        times=idx * dt,
        mean=mean,
        se=se,
        n_traj=n_traj,
        equation=equation,
        observable_stats={name: _estimate(s, n_traj, w_sums)
                          for name, s in sums.items()},
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
) -> FunctionalSamples:
    """Collect per-trajectory values of Re tr(rho_t A) at selected times.

    ``functionals`` maps names to matrices A, or to callables on a
    (B, d, d) stack of densities (for nonlinear readouts such as purity).
    Sample times must be on the step grid.  The reweighted linear route
    samples each trajectory's importance weight at the same times.
    """
    n_steps = resolve_steps(dt, t_final)
    req, idx, func_positions = _sample_schedule(sample_times, dt, n_steps)
    _, samples = _run_blocks(
        model, dec, n_traj, base_seed, equation, dt, n_steps, idx,
        scheme, renormalize, dict(functionals), func_positions,
    )
    weights = samples.pop(_WEIGHT, None)
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
) -> tuple[np.ndarray, np.ndarray]:
    """Per-trajectory linear-route importance weights w_t at selected times.

    Returns (times, weights) with weights of shape (n_traj, len(times)):
    those of ``sample_functionals`` on the reweighted route, so a
    trajectory whose weight falls below ``EXTINCTION_THRESHOLD`` at a
    sample time or at t_final raises ``TrajectoryExtinctError``.
    """
    run = sample_functionals(
        model, dec, n_traj, base_seed, "linear_weighted", {}, sample_times,
        dt=dt, t_final=t_final, scheme=scheme, renormalize=False,
    )
    return run.times, run.weights
