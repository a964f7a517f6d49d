"""Time-stepping kernels for the five dynamical equations.

All steppers are pure functions of (context, state, noise increment).  Each
has an Euler-Maruyama form and an exponential variant that propagates the
linear drift by the exact matrix flow exp(G dt) (computed once per context
by scaling-and-squaring) while keeping the nonlinear and noise terms
explicit; for a closed system the exponential variant is exactly unitary.

The batched kernels advance whole stacks of independent trajectories at
once and are the stepping API: one state steps as a one-row stack,
``siwf_step_batch(ctx, psi[None], dw[None])``.  The nonlinear pure-state
equation is the ensemble equation of a one-component stack; its checked
single-state step ``step_nonlinear_sse`` wraps ``siwf_step_batch`` and stays
because the benchmark's tracer looks it up by name.  ``step_gksl`` is the
RK4 step of the mean master equation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError, NormViolationError
from .linalg import NORM_TOL, as_state, expm, frozen, hermitize
from .model import ModelSpec

SCHEMES = ("euler_maruyama", "exponential_em")


@dataclass(frozen=True)
class StepContext:
    """Everything a stepper needs besides the state and the noise."""

    model: ModelSpec
    scheme: str = "euler_maruyama"
    dt: float = 1e-3
    renormalize: bool = True
    # exp(G dt) under exponential_em, None otherwise
    propagator: np.ndarray | None = field(init=False, compare=False, repr=False)
    # stacked operators of the batched kernels, built once per context
    _left_ops: np.ndarray = field(init=False, compare=False, repr=False)
    _sandwich_ops: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme '{self.scheme}', choose from {SCHEMES}")
        prop = None
        if self.scheme == "exponential_em":
            prop = frozen(expm(self.model.drift_generator * self.dt))
        object.__setattr__(self, "propagator", prop)
        d = self.model.dim
        left = list(self.model.lindblads)
        right = [l_op.conj().T for l_op in left]
        if self.scheme == "euler_maruyama":
            # dt G rides along as operator 0; its zero block keeps it out of
            # the sandwich sum
            left.insert(0, self.model.drift_generator * self.dt)
            right.insert(0, np.zeros((d, d)))
        # np.array, not np.concatenate: a model may have no channels
        stack = lambda ops: np.array(ops, dtype=np.complex128).reshape(-1, d)
        object.__setattr__(self, "_left_ops", frozen(stack(left)))
        object.__setattr__(self, "_sandwich_ops", frozen(self.dt * stack(right)))


def _check_dw(ctx: StepContext, dw) -> np.ndarray:
    dw = np.asarray(dw, dtype=float)
    if dw.ndim != 1 or dw.shape[0] < ctx.model.n_channels:
        raise DimensionMismatchError(
            f"noise increment has {dw.shape} entries, model has "
            f"{ctx.model.n_channels} channels"
        )
    return dw[: ctx.model.n_channels]


# ---------------------------------------------------------------------------
# batched kernels: states carry a leading batch axis
# ---------------------------------------------------------------------------

def linear_step_batch(ctx: StepContext, phi: np.ndarray, dw: np.ndarray) -> np.ndarray:
    """One step of the linear equation d phi = G phi dt + sum_l L_l phi dB_l.

    ``phi`` has shape (B, N, d), ``dw`` shape (B, >= M).  Never normalizes:
    the growing/shrinking norm is the reweighting density.  One product of
    the (B N, d) row block with the context's stack [dt G; L_1; ...; L_M]
    (transposed; under exponential_em without dt G) gives every dt G phi and
    L_l phi; the step is phi + sum_l dB_l L_l phi + dt G phi, or under
    exponential_em P (phi + sum_l dB_l L_l phi), P = exp(G dt).
    """
    b, n, d = phi.shape
    em = int(ctx.scheme == "euler_maruyama")  # stack index of L_1
    prods = (phi.reshape(b * n, d) @ ctx._left_ops.T).reshape(b, n, -1, d)
    dw = dw[:, : ctx.model.n_channels]
    new = phi + np.einsum("bl,bnli->bni", dw, prods[:, :, em:])
    if em:
        return new + prods[:, :, 0]
    return (new.reshape(b * n, d) @ ctx.propagator.T).reshape(b, n, d)


def siwf_step_batch(ctx: StepContext, psi: np.ndarray, dw: np.ndarray):
    """One step of the interacting-ensemble equations.

    ``psi`` has shape (B, N, d), ``dw`` shape (B, >= M).  The coupling
    p_l = sum_n Re<psi_n, L_l psi_n> is evaluated once from the pre-step
    stack (non-anticipating), every component is advanced with drift
    G psi_n + sum_l (p_l L_l psi_n - p_l^2/2 psi_n) and diffusion
    sum_l (L_l psi_n - p_l psi_n) dW_l, and, if ``ctx.renormalize``, the
    whole stack is rescaled by one common factor.

    As in ``linear_step_batch``, one product of the (B N, d) row block with
    the stack [dt G; L_1; ...; L_M] gives every dt G psi_n and L_l psi_n, and
    p_l is read off it.  The step is psi (1 - sum_l (p_l^2 dt/2 + p_l dW_l))
    + sum_l (p_l dt + dW_l) L_l psi + dt G psi, with P = exp(G dt) applied
    in place of dt G psi under exponential_em.

    Returns (new stack, couplings p (B, M), pre-rescale squared norms (B,)).
    """
    b, n, d = psi.shape
    em = int(ctx.scheme == "euler_maruyama")  # stack index of L_1
    prods = (psi.reshape(b * n, d) @ ctx._left_ops.T).reshape(b, n, -1, d)
    lpsi = prods[:, :, em:]
    p = np.einsum("bni,bnli->bl", psi.conj(), lpsi).real
    dw = dw[:, : ctx.model.n_channels]
    new = np.einsum("bl,bnli->bni", p * ctx.dt + dw, lpsi)
    new += psi * (1.0 - np.einsum("bl,bl->b", p, 0.5 * ctx.dt * p + dw))[:, None, None]
    if em:
        new += prods[:, :, 0]
    else:
        new = (new.reshape(b * n, d) @ ctx.propagator.T).reshape(b, n, d)
    norm_sq = np.einsum("bni,bni->b", new.conj(), new).real
    if ctx.renormalize:
        new /= np.sqrt(norm_sq)[:, None, None]
    return new, p, norm_sq


def belavkin_step_batch(ctx: StepContext, rho: np.ndarray, dw: np.ndarray):
    """One step of the diffusive conditioned master equation.

    ``rho`` has shape (B, d, d), ``dw`` shape (B, M).  Drift is
    G rho + rho G^dag + sum_l L_l rho L_l^dag and diffusion
    sum_l (L_l rho + rho L_l^dag - 2 Re tr(L_l rho) rho) dW_l.  The result
    is re-Hermitized and, if ``ctx.renormalize``, divided by its trace.

    Every matrix product is one 2-D product on a reshaped stack, with the
    stacked operators built once per context.  The batch is laid out as
    the (d, B d) column block [rho_1 ... rho_B]; one product with the
    (K d, d) stack [A_1; ...; A_K] = [dt G; L_1; ...; L_M] (under
    exponential_em without dt G) gives every A_k rho_b.  Regrouped as the
    (B d, K d) row block of [A_1 rho_b ... A_K rho_b], one product with
    dt [0; L_1^dag; ...; L_M^dag] gives dt sum_l L_l rho_b L_l^dag.
    rho A^dag is taken as (A rho)^dag, which holds for Hermitian rho.
    Under exponential_em the result is P X P^dag with P = exp(G dt): X P^dag
    is one product on the row block and P (X P^dag) one on the column block.

    Returns (new stack, Re tr(L_l rho) per channel (B, M)).
    """
    b, d, _ = rho.shape
    em = int(ctx.scheme == "euler_maruyama")  # stack index of L_1
    cols = rho.transpose(1, 0, 2).reshape(d, b * d)
    # prods[k, i, b, j] = (A_k rho_b)[i, j]
    prods = (ctx._left_ops @ cols).reshape(-1, d, b, d)
    tr = np.einsum("kibi->bk", prods[em:]).real
    sandwich = prods.transpose(2, 1, 0, 3).reshape(b * d, -1) @ ctx._sandwich_ops
    # half + half^dag = dt (G rho + rho G^dag)
    #     + sum_l (L_l rho + rho L_l^dag - 2 Re tr(L_l rho) rho) dW_l
    half = -np.einsum("bl,bl->b", tr, dw)[:, None, None] * rho
    for l in range(ctx.model.n_channels):
        half += prods[em + l].transpose(1, 0, 2) * dw[:, l, None, None]
    if em:
        half += prods[0].transpose(1, 0, 2)
    new = rho + sandwich.reshape(b, d, d) + half + half.conj().transpose(0, 2, 1)
    if not em:
        prop = ctx.propagator
        right = new.reshape(b * d, d) @ prop.conj().T
        cols = right.reshape(b, d, d).transpose(1, 0, 2).reshape(d, b * d)
        new = (prop @ cols).reshape(d, b, d).transpose(1, 0, 2)
    new = (new + new.conj().transpose(0, 2, 1)) / 2.0
    if ctx.renormalize:
        traces = np.einsum("bii->b", new).real
        new = new / traces[:, None, None]
    return new, tr


def gksl_rhs(model: ModelSpec, rho: np.ndarray) -> np.ndarray:
    """Right-hand side of the mean (unconditioned) master equation."""
    g = model.drift_generator
    out = g @ rho + rho @ g.conj().T
    for l_op in model.lindblads:
        out += l_op @ rho @ l_op.conj().T
    return out


# ---------------------------------------------------------------------------
# public single-trajectory steps
# ---------------------------------------------------------------------------

def _check_pure_state(ctx: StepContext, phi_hat) -> np.ndarray:
    """``phi_hat`` as a state vector: nonzero, and unit when renormalizing."""
    v = as_state(phi_hat, ctx.model.dim)
    norm = float(np.linalg.norm(v))
    if norm == 0.0:
        raise NormViolationError("nonlinear step requires a nonzero state", 1.0)
    if ctx.renormalize and abs(norm - 1.0) > 10 * NORM_TOL:
        raise NormViolationError("nonlinear step requires a unit state", abs(norm - 1.0))
    return v


def step_nonlinear_sse(ctx: StepContext, phi_hat, dw) -> np.ndarray:
    """Advance one normalized pure state by the conditioned state equation.

    With m_l = Re<phi, L_l phi>: drift G phi + sum_l (m_l L_l phi
    - m_l^2/2 phi), diffusion sum_l (L_l phi - m_l phi) dW_l.  This is the
    ensemble step of the one-component stack [phi], so without
    renormalization the scheme's own norm drift is carried forward.
    """
    v = _check_pure_state(ctx, phi_hat)
    dwv = _check_dw(ctx, dw)
    return siwf_step_batch(ctx, v[None, None, :], dwv[None, :])[0][0, 0]


def step_gksl(ctx: StepContext, rho) -> np.ndarray:
    """Classical 4th-order Runge-Kutta step of the mean master equation."""
    r = np.asarray(rho, dtype=np.complex128)
    if r.shape != (ctx.model.dim, ctx.model.dim):
        raise DimensionMismatchError(
            f"density shape {r.shape} does not match model dim {ctx.model.dim}"
        )
    dt = ctx.dt
    k1 = gksl_rhs(ctx.model, r)
    k2 = gksl_rhs(ctx.model, r + 0.5 * dt * k1)
    k3 = gksl_rhs(ctx.model, r + 0.5 * dt * k2)
    k4 = gksl_rhs(ctx.model, r + dt * k3)
    new = r + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return hermitize(new)
