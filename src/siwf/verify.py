"""Executable oracles for the structural properties of the dynamics.

Each check returns a CheckReport with a scalar statistic and a threshold;
a report passes iff statistic <= threshold.  Statistical checks normalize
their statistic by the Monte Carlo error, so the threshold is 1.  Exact
checks compare quantities that agree up to rounding (or up to a stated
discretisation error) and carry their own threshold.  Negative controls
are reported with an inverted margin: they pass exactly when the
underlying comparison fails.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .config import check_step_count
from .errors import ConfigError, ReconstructionError, SiwfError
from .linalg import expm
from .model import (
    ModelSpec,
    RabiParams,
    BoxParams,
    box_model,
    liouvillian,
    qubit_model,
    rabi_model,
    validate_model,
)
from .noise import coarsen, generate_noise
from .states import InitialDecomposition, TrajectoryRecord, decompose_density
from .trajectories import (
    BLOCK_SIZE,
    _estimate,
    _sample_schedule,
    # no check calls gksl_solve; the benchmark's tracers patch it here by
    # name, and without it every traced or step-counted verify run fails
    gksl_solve,
    monte_carlo_mean,
    off_grid,
    resolve_steps,
    run_belavkin_trajectory,
    run_siwf_trajectory,
    sample_functionals,
    weight_paths,
)

#: guards 0/0 when both the discrepancy and its error estimate vanish
STAT_FLOOR = 1e-14

#: absolute slack on exact-record comparisons (pure rounding accumulation)
RECORD_FLOOR = 1e-12

#: Brownian path used by the dt-halving cross-checks (see default_suite)
CONVERGENCE_PATH_SEED = 15

#: factor by which halving dt must shrink the siwf-Belavkin discrepancy
REQUIRED_HALVING_RATIO = 1.5

#: bound on |f_a - f_b| between two decompositions of one state on a shared
#: path: a siwf step sees the decomposition only through rho, so the gap is
#: rounding (at most 4.3e-14 on the suite's qubit over base_seed 0-29)
DECOMPOSITION_TOL = 1e-10

#: standard errors a linear-route estimate may sit from the direct one
LINEAR_ROUTE_N_SE = 4.0

#: the check families of ``default_suite``, in run order
SUITE_CHECKS = (
    "model_identities",
    "norm_conservation",
    "record_consistency",
    "gksl_mean",
    "siwf_vs_belavkin",
    "martingale",
    "linear_route_equivalence",
    "decomposition_invariance",
)

#: the keys of a suite document and their defaults, which are also
#: ``default_suite``'s; ``seed`` is its ``base_seed``
SUITE_DEFAULTS = {
    "seed": 20_240_501,
    "n_traj": 10_000,
    "dt": 1e-3,
    "include_negative_controls": True,
    "checks": None,
}

#: ``default_suite``'s fixed times are multiples of this; its dt must divide it
SUITE_TIME_GRID = 0.25


def validate_suite_args(dt: float, checks) -> None:
    """Reject a suite ``dt`` that is not positive or does not divide
    SUITE_TIME_GRID, and a ``checks`` entry not in SUITE_CHECKS, with a
    ConfigError naming the suite key."""
    if not dt > 0:
        raise ConfigError("dt", "must be positive")
    # the suite's longest run: siwf-vs-belavkin's path at dt / 2 to t = 1
    check_step_count(2.0 / dt)
    if off_grid(SUITE_TIME_GRID, dt):
        raise ConfigError(
            "dt", f"must divide {SUITE_TIME_GRID}, the grid of the suite's times"
        )
    for name in checks or ():
        if name not in SUITE_CHECKS:
            raise ConfigError(
                "checks", f"unknown check '{name}' (known: {list(SUITE_CHECKS)})"
            )


@dataclass
class CheckReport:
    """Outcome of one verification check: passed iff statistic <= threshold."""

    name: str
    kind: str  # "exact" | "statistical"
    statistic: float
    threshold: float
    passed: bool
    details: str = ""

    def to_dict(self) -> dict:
        return asdict(self)


def _report(name, kind, statistic, threshold, details="") -> CheckReport:
    statistic = float(statistic)
    threshold = float(threshold)
    return CheckReport(
        name=name,
        kind=kind,
        statistic=statistic,
        threshold=threshold,
        passed=bool(statistic <= threshold),
        details=details,
    )


def as_negative_control(report: CheckReport, name: str | None = None) -> CheckReport:
    """Invert a report: the control passes iff the wrapped check failed."""
    if report.statistic > 0:
        stat = report.threshold / report.statistic
    else:
        stat = math.inf
    return _report(
        name or f"{report.name} [negative control]",
        report.kind,
        stat,
        1.0,
        details=f"inverted margin; underlying statistic {report.statistic:.4e}",
    )


def _grid_mean(model, dec, n_traj, base_seed, equation, t_grid, dt, scheme,
               observables=None):
    """``monte_carlo_mean`` saved at the coarsest stride that holds every
    ``t_grid`` time: (series, stride, the series row of each time)."""
    t_grid = np.atleast_1d(np.asarray(t_grid, dtype=float))
    t_final = float(np.max(t_grid))
    steps = _sample_schedule(t_grid, dt, resolve_steps(dt, t_final))[0]
    stride = math.gcd(*steps)
    series = monte_carlo_mean(
        model, dec, n_traj, base_seed, equation,
        dt=dt, t_final=t_final, save_stride=stride, scheme=scheme,
        observables=observables,
    )
    return series, stride, [k // stride for k in steps]


def _pathwise_report(model, decs, n_traj, observable, t_check, seed, dt,
                     scheme, name):
    """Exact report on f = Re tr(rho_t A) at ``t_check`` between the siwf
    runs of two decompositions on shared paths: both runs use ``seed``, so
    path i of each draws stream (seed, i).  Statistic: max_i |f_a,i - f_b,i|."""
    a, b = (
        sample_functionals(
            model, dec, n_traj, seed, "siwf", {"f": observable}, [t_check],
            dt=dt, t_final=t_check, scheme=scheme,
        ).samples["f"][:, 0]
        for dec in decs
    )
    gaps = np.abs(a - b)
    worst = int(np.argmax(gaps))
    return _report(
        name, "exact", gaps[worst], DECOMPOSITION_TOL,
        details=(f"{n_traj} shared paths at t={t_check:g}; worst path "
                 f"{worst} (stream {worst}) gap {gaps[worst]:.3e}"),
    )


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def check_norm_conservation(
    record: TrajectoryRecord,
    dt: float,
    renormalized: bool = True,
    name: str = "norm-conservation",
) -> CheckReport:
    """Max over saved times of |sum_n ||psi_n||^2 - 1| on an ensemble record."""
    if record.ensembles is None:
        raise SiwfError("norm conservation needs a record with ensembles")
    totals = np.sum(np.abs(record.ensembles) ** 2, axis=(1, 2))
    stat = float(np.max(np.abs(totals - 1.0)))
    threshold = 1e-8 if renormalized else 100.0 * dt
    return _report(
        name,
        "exact",
        stat,
        threshold,
        details=f"renormalized={renormalized}, {record.n_saved} saved times",
    )


def check_record_consistency(
    record: TrajectoryRecord,
    model: ModelSpec,
    name: str = "record-consistency",
) -> CheckReport:
    """B_l - W_l must equal the trapezoidal integral of 2 Re tr(L_l rho_s)."""
    if record.records is None or record.innovations is None:
        raise SiwfError("record consistency needs W and B series")
    times = record.times
    spacing = float(np.max(np.diff(times))) if times.size > 1 else 0.0
    stat = 0.0
    bound = 0.0
    for l, l_op in enumerate(model.lindblads):
        tr_complex = np.einsum("kij,ji->k", record.densities, l_op)
        integrand = 2.0 * tr_complex.real
        quad = np.concatenate(
            [
                [0.0],
                np.cumsum(
                    0.5 * (integrand[1:] + integrand[:-1]) * np.diff(times)
                ),
            ]
        )
        lhs = record.records[:, l] - record.innovations[:, l]
        stat = max(stat, float(np.max(np.abs(lhs - quad))))
        bound = max(bound, float(np.max(np.abs(tr_complex))))
    threshold = 10.0 * spacing * bound + RECORD_FLOOR
    return _report(
        name,
        "exact",
        stat,
        threshold,
        details=f"{len(model.lindblads)} channel(s), max|tr(L rho)| = {bound:.3e}",
    )


def _gksl_exact(model: ModelSpec, rho0, t_step: float, n: int) -> np.ndarray:
    """The GKSL solution exp(t L) rho0 at t = 0, t_step, ..., n t_step:
    (n + 1, d, d) densities, by n products with exp(t_step L)."""
    step = expm(t_step * liouvillian(model))
    vec = np.asarray(rho0, dtype=np.complex128).ravel()
    out = [vec]
    for _ in range(n):
        out.append(step @ out[-1])
    return np.reshape(out, (n + 1, model.dim, model.dim))


def check_gksl_mean(
    model: ModelSpec,
    dec: InitialDecomposition,
    n_traj: int,
    t_grid,
    base_seed: int = 0,
    dt: float = 1e-3,
    scheme: str = "euler_maruyama",
    name: str = "gksl-mean",
) -> CheckReport:
    """Trajectory average must reproduce the deterministic mean evolution.

    The oracle is the exact GKSL solution exp(t L) rho0, with L the model's
    ``liouvillian``, at every saved time of the mean; its error is rounding.
    Statistic: max over the time grid and matrix entries of
    |mean - rho_gksl| / (3 SE + STAT_FLOOR).
    """
    if n_traj < 100:
        raise ValueError("n_traj must be >= 100 for a meaningful comparison")
    mean, stride, rows = _grid_mean(
        model, dec, n_traj, base_seed, "siwf", t_grid, dt, scheme
    )
    oracle = _gksl_exact(model, dec.density(), stride * dt, max(rows))
    denom = 3.0 * mean.se[rows] + STAT_FLOOR
    stat = float(np.max(np.abs(mean.mean[rows] - oracle[rows]) / denom))
    return _report(
        name,
        "statistical",
        stat,
        1.0,
        details=f"{n_traj} paths, exact oracle exp(t L) rho0",
    )


def check_siwf_vs_belavkin(
    model: ModelSpec,
    dec: InitialDecomposition,
    base_seed: int = 0,
    dt: float = 1e-3,
    t_final: float = 1.0,
    scheme: str = "euler_maruyama",
    name: str = "siwf-vs-belavkin",
) -> CheckReport:
    """Ensemble and direct conditioned-density integration must converge to
    each other pathwise as the step is refined.

    Runs both integrators on the same Brownian path at dt and dt/2 and
    requires the max-norm discrepancy over the final time to shrink by
    REQUIRED_HALVING_RATIO.  Statistic is REQUIRED_HALVING_RATIO /
    observed_ratio.
    """
    n_fine = resolve_steps(dt / 2, t_final)
    fine = generate_noise(base_seed, model.n_channels, dt / 2, n_fine)
    rho0 = dec.density()

    def discrepancy(noise):
        stride = max(1, noise.n_steps // 20)
        rec_e = run_siwf_trajectory(
            model, dec, noise, save_stride=stride, scheme=scheme
        )
        rec_b = run_belavkin_trajectory(
            model, rho0, noise, save_stride=stride, scheme=scheme
        )
        return float(np.max(np.abs(rec_e.densities - rec_b.densities)))

    d_coarse = discrepancy(coarsen(fine, 2))
    d_fine = discrepancy(fine)
    ratio = d_coarse / d_fine if d_fine > 0 else math.inf
    stat = 0.0 if d_coarse <= RECORD_FLOOR else REQUIRED_HALVING_RATIO / ratio
    return _report(
        name,
        "exact",
        stat,
        1.0,
        details=(
            f"D(dt)={d_coarse:.3e}, D(dt/2)={d_fine:.3e}, ratio={ratio:.2f}"
        ),
    )


def check_martingale(
    model: ModelSpec,
    dec: InitialDecomposition,
    n_traj: int,
    t_grid,
    base_seed: int = 0,
    dt: float = 1e-3,
    scheme: str = "euler_maruyama",
    name: str = "martingale",
) -> CheckReport:
    """The linear-route weight must average to 1 at every time.

    Statistic: max over the grid of |mean(w_t) - 1| / (3 SE), with the mean
    and SE of the ``weight_paths`` samples from the library's Monte Carlo
    estimator.
    """
    t_grid = np.atleast_1d(np.asarray(t_grid, dtype=float))
    _, w = weight_paths(
        model, dec, n_traj, base_seed, t_grid,
        dt=dt, t_final=float(np.max(t_grid)), scheme=scheme,
    )
    # one contiguous row per time: numpy sums along a row pairwise
    w = np.ascontiguousarray(w.T)
    mean, se = _estimate((w.sum(axis=1), (w * w).sum(axis=1)), n_traj)
    stat = float(np.max(np.abs(mean - 1.0) / (3.0 * se + STAT_FLOOR)))
    detail = ", ".join(
        f"t={t:g}: {m:.5f}+-{s:.5f}" for t, m, s in zip(t_grid, mean, se)
    )
    return _report(name, "statistical", stat, 1.0, details=detail)


def check_decomposition_invariance(
    model: ModelSpec,
    rho0,
    dec_a: InitialDecomposition,
    dec_b: InitialDecomposition,
    n_traj: int,
    observable,
    t_check: float = 0.5,
    base_seed: int = 0,
    dt: float = 1e-3,
    scheme: str = "euler_maruyama",
    name: str = "decomposition-invariance",
) -> CheckReport:
    """Two decompositions of the same initial state must give the same
    conditioned readout on every path.

    Both decompositions must reconstruct rho0; the check then runs both on
    the same ``n_traj`` paths and compares Re tr(rho_t A) at ``t_check``
    path by path, against DECOMPOSITION_TOL.
    """
    rho0 = np.asarray(rho0, dtype=np.complex128)
    for tag, dec in (("a", dec_a), ("b", dec_b)):
        residual = float(np.max(np.abs(dec.density() - rho0)))
        if residual > 1e-8:
            raise ReconstructionError(
                f"decomposition '{tag}' does not reconstruct rho0", residual
            )
    return _pathwise_report(
        model, (dec_a, dec_b), n_traj, observable, t_check, base_seed, dt,
        scheme, name,
    )


def check_linear_route_equivalence(
    model: ModelSpec,
    dec: InitialDecomposition,
    n_traj: int,
    functionals: dict | None = None,
    t_grid=(0.25, 0.5, 1.0),
    base_seed: int = 0,
    dt: float = 1e-3,
    scheme: str = "euler_maruyama",
    name: str = "linear-route-equivalence",
) -> CheckReport:
    """Reweighted linear-route estimates must match direct ensemble ones.

    Statistic: max over functionals and times of
    |weighted - direct| / (LINEAR_ROUTE_N_SE * combined SE), with each
    route's (mean, se) as ``monte_carlo_mean`` reports it.
    """
    if functionals is None:
        functionals = {"f": np.diag([1.0, -1.0]).astype(np.complex128)}
    if not functionals:
        raise ValueError("functionals must name at least one readout")
    (direct, _, rows), (weighted, _, _) = (
        _grid_mean(model, dec, n_traj, seed, equation, t_grid, dt, scheme,
                   functionals)
        for seed, equation in ((base_seed, "siwf"),
                               (base_seed + 1_700_000_003, "linear_weighted"))
    )
    gaps = {}
    for fname in functionals:
        m_a, se_a = direct.observable_stats[fname]
        m_b, se_b = weighted.observable_stats[fname]
        combined = np.sqrt(se_a[rows] ** 2 + se_b[rows] ** 2)
        gaps[fname] = np.abs(m_a[rows] - m_b[rows]) / (
            LINEAR_ROUTE_N_SE * combined + STAT_FLOOR
        )
    return _report(
        name, "statistical", np.max(list(gaps.values())), 1.0,
        details="; ".join(
            f"{fname}: max gap {np.max(gap):.3f}" for fname, gap in gaps.items()
        ),
    )


def check_model_identities(model: ModelSpec, name: str = "model-identities") -> CheckReport:
    """The drift generator must satisfy the dissipativity identity and be
    -iH - 1/2 sum_l L_l^dag L_l of the model's H and L_l; the statistic is
    the largest of ``validate_model``'s three residuals."""
    diag = validate_model(model)
    stat = max(diag.dissipativity_residual, diag.hermiticity_residual,
               diag.drift_residual)
    return _report(name, "exact", stat, diag.threshold, details=diag.summary())


# ---------------------------------------------------------------------------
# default suite
# ---------------------------------------------------------------------------

def _suite_models():
    qubit = qubit_model(omega=1.0, gamma=1.0, monitor="z")
    damping = qubit_model(omega=0.0, gamma=1.0, monitor="minus")
    rabi = rabi_model(
        RabiParams(omega1=1.0, omega2=1.2, g=0.1, alpha=0.5, psi=0.0, n_fock=3)
    )
    # explicit Euler is unstable for the unitary part once ||H|| dt gets
    # large (||H|| ~ 4 alpha/h^2 on a grid), so the box runs below use the
    # exponential scheme and a box wide enough to keep the grid gentle
    box = box_model(
        BoxParams(alpha_kin=0.5, gamma=0.5, x_min=-4.0, x_max=4.0, n_grid=16)
    )
    return qubit, damping, rabi, box


def _mixed_qubit_dec():
    rho0 = np.array([[0.65, 0.15], [0.15, 0.35]], dtype=np.complex128)
    return decompose_density(rho0), rho0


def _rabi_dec(model):
    w = np.zeros(model.dim)
    w[0], w[1] = 0.7, 0.3
    return decompose_density(np.diag(w).astype(np.complex128))


def _box_dec(model):
    grid = np.asarray(model.meta["grid"])
    psi = np.exp(-0.5 * grid**2).astype(np.complex128)
    psi /= np.linalg.norm(psi)
    return InitialDecomposition(
        weights=np.array([1.0]), vectors=psi[None, :]
    )


def default_suite(
    base_seed: int = SUITE_DEFAULTS["seed"],
    n_traj: int = SUITE_DEFAULTS["n_traj"],
    dt: float = SUITE_DEFAULTS["dt"],
    include_negative_controls: bool = (
        SUITE_DEFAULTS["include_negative_controls"]),
    checks: list | None = SUITE_DEFAULTS["checks"],
) -> list[CheckReport]:
    """Run the standard battery on the qubit, Rabi and box test models.

    ``checks`` restricts to a subset of SUITE_CHECKS; None means all.
    Arguments that ``validate_suite_args`` rejects raise before any check runs.
    """
    validate_suite_args(dt, checks)
    qubit, damping, rabi, box = _suite_models()
    sz = np.array([[1.0, 0], [0, -1.0]], dtype=np.complex128)
    qdec, qrho0 = _mixed_qubit_dec()
    rdec = _rabi_dec(rabi)
    bdec = _box_dec(box)
    pure_e = decompose_density(np.diag([1.0, 0.0]).astype(np.complex128))
    reports: list[CheckReport] = []

    wanted = {c: checks is None or c in checks for c in SUITE_CHECKS}

    if wanted["model_identities"]:
        for tag, m in (("qubit", qubit), ("rabi", rabi), ("box", box)):
            reports.append(check_model_identities(m, name=f"model-identities[{tag}]"))
        if include_negative_controls:
            broken = ModelSpec(
                dim=qubit.dim,
                hamiltonian=qubit.hamiltonian,
                lindblads=qubit.lindblads,
                drift_generator=qubit.drift_generator
                + 0.01 * np.eye(qubit.dim),
                meta=qubit.meta,
            )
            reports.append(
                as_negative_control(
                    check_model_identities(broken),
                    name="model-identities[perturbed-generator negative control]",
                )
            )

    if wanted["norm_conservation"]:
        noise = generate_noise(base_seed + 11, rabi.n_channels, dt,
                               resolve_steps(dt, 1.0))
        for renorm, thresh_tag in ((True, "on"), (False, "off")):
            rec = run_siwf_trajectory(
                rabi, rdec, noise, save_stride=10, renormalize=renorm
            )
            reports.append(
                check_norm_conservation(
                    rec, dt, renormalized=renorm,
                    name=f"norm-conservation[rabi, renormalize {thresh_tag}]",
                )
            )

    if wanted["record_consistency"]:
        for tag, m, dec, scheme in (
            ("rabi", rabi, rdec, "euler_maruyama"),
            ("box", box, bdec, "exponential_em"),
        ):
            noise = generate_noise(base_seed + 23, m.n_channels, dt,
                                   resolve_steps(dt, 1.0))
            rec = run_siwf_trajectory(m, dec, noise, save_stride=1,
                                      scheme=scheme)
            reports.append(
                check_record_consistency(rec, m, name=f"record-consistency[{tag}]")
            )

    if wanted["gksl_mean"]:
        reports.append(
            check_gksl_mean(
                damping, pure_e, n_traj, [1.0],
                base_seed=base_seed + 37, dt=dt,
                name="gksl-mean[amplitude-damping qubit]",
            )
        )
        reports.append(
            check_gksl_mean(
                rabi, rdec, n_traj, [0.5, 1.0],
                base_seed=base_seed + 41, dt=dt,
                name="gksl-mean[rabi]",
            )
        )

    if wanted["siwf_vs_belavkin"]:
        # the halving ratio is a noisy statistic concentrated near sqrt(2);
        # these fixed paths give stable margins over the 1.5 requirement
        reports.append(
            check_siwf_vs_belavkin(
                rabi, rdec, CONVERGENCE_PATH_SEED, dt=dt,
                name="siwf-vs-belavkin[rabi]",
            )
        )
        reports.append(
            check_siwf_vs_belavkin(
                box, bdec, CONVERGENCE_PATH_SEED, dt=dt,
                scheme="exponential_em",
                name="siwf-vs-belavkin[box]",
            )
        )

    if wanted["martingale"]:
        reports.append(
            check_martingale(
                qubit, qdec, n_traj, [0.25, 0.5, 1.0],
                base_seed=base_seed + 61, dt=dt,
                name="martingale[qubit]",
            )
        )
        reports.append(
            check_martingale(
                rabi, rdec, n_traj, [0.25, 0.5, 1.0],
                base_seed=base_seed + 67, dt=dt,
                name="martingale[rabi]",
            )
        )

    if wanted["linear_route_equivalence"]:
        reports.append(
            check_linear_route_equivalence(
                qubit, qdec, n_traj, {"tr_rho_sz": sz},
                base_seed=base_seed + 71, dt=dt,
                name="linear-route-equivalence[qubit]",
            )
        )

    if wanted["decomposition_invariance"]:
        half = 0.5 * np.eye(2, dtype=np.complex128)
        dec_eigen = decompose_density(half)
        rot = np.array(
            [[1.0, 1.0], [1.0, -1.0]], dtype=np.complex128
        ) / np.sqrt(2.0)
        dec_rot = decompose_density(
            half, mode="given", weights=[0.5, 0.5], vectors=rot
        )
        # the comparison is exact on every path, so one block of shared
        # paths checks it whatever n_traj is
        reports.append(
            check_decomposition_invariance(
                qubit, half, dec_eigen, dec_rot, BLOCK_SIZE, sz,
                t_check=0.5, base_seed=base_seed + 73, dt=dt,
                name="decomposition-invariance[qubit, half-identity]",
            )
        )
        if include_negative_controls:
            dec_biased = decompose_density(
                np.diag([0.7, 0.3]).astype(np.complex128)
            )
            mismatch = _pathwise_report(
                qubit, (dec_biased, dec_eigen), BLOCK_SIZE, sz, 0.5,
                base_seed + 79, dt, "euler_maruyama",
                "decomposition-invariance[mismatched rho0]",
            )
            reports.append(
                as_negative_control(
                    mismatch,
                    name="decomposition-invariance[mismatched rho0 negative control]",
                )
            )

    return reports


def format_table(reports) -> str:
    lines = [f"{'check':58s} {'kind':12s} {'statistic':>12s} {'threshold':>12s} result"]
    for r in reports:
        lines.append(
            f"{r.name[:58]:58s} {r.kind:12s} {r.statistic:12.4e} "
            f"{r.threshold:12.4e} {'PASS' if r.passed else 'FAIL'}"
        )
    n_fail = sum(0 if r.passed else 1 for r in reports)
    lines.append(f"{len(reports)} checks, {n_fail} failed")
    return "\n".join(lines)
