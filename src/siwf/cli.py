"""Command-line surface: simulate, verify, compare.

On Linux with two or more CPUs, a Monte Carlo run of four or more blocks
runs them on a pool of forked worker processes, one per usable CPU, which
claim the blocks one at a time while the caller waits; the results are
merged in block order, so outputs are a pure function of the config (or
suite) and its seed, whatever the number of CPUs.  A worker that dies is
a SiwfError (exit 2).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .config import (
    EQUATIONS,
    SimConfig,
    _check_keys,
    _number,
    _require,
    _seed,
    parse_config_dict,
    unwrap_manifest,
)
from .errors import ConfigError, SiwfError
from .noise import coarsen, generate_noise
from .recordio import (
    densities_to_json,
    manifest_json,
    mean_densities_to_json,
    mean_to_csv,
    record_to_csv,
    reports_to_json,
)
from .steppers import SCHEMES
from .trajectories import (
    monte_carlo_mean,
    off_grid,
    resolve_steps,
    run_belavkin_trajectory,
    run_gksl_trajectory,
    run_linear_route,
    run_nonlinear_trajectory,
    run_siwf_trajectory,
)
from .verify import (SUITE_DEFAULTS, default_suite, format_table,
                     validate_suite_args)


def _load_config(path: str, overrides: dict) -> SimConfig:
    try:
        doc = json.loads(Path(path).read_text())
    except OSError as exc:
        raise SiwfError(f"cannot read config '{path}': {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError("<root>", f"invalid JSON in '{path}': {exc}") from exc
    doc = dict(unwrap_manifest(doc))
    doc.update(overrides)
    return parse_config_dict(doc)


#: characters encoded per write, so a record's text is never copied whole
_WRITE_CHUNK = 1 << 20


def _write(path, text: str) -> None:
    try:
        with open(path, "wb") as out:
            for start in range(0, len(text), _WRITE_CHUNK):
                out.write(text[start:start + _WRITE_CHUNK].encode())
    except OSError as exc:
        raise SiwfError(f"cannot write '{path}': {exc}") from exc


#: simulate flags that, when given, override the config key of their name
_OVERRIDES = ("seed", "dt", "t_final", "n_trajectories", "equation", "scheme",
              "save_stride", "output_dir", "renormalize", "dump_densities")


def cmd_simulate(args) -> int:
    cfg = _load_config(args.config, {
        key: getattr(args, key) for key in _OVERRIDES
        if getattr(args, key) is not None
    })
    n_steps = resolve_steps(cfg.dt, cfg.t_final)
    outdir = Path(cfg.output_dir)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise SiwfError(f"cannot create output_dir '{outdir}': {exc}") from exc
    written = []

    def emit(name: str, text: str):
        _write(outdir / name, text)
        written.append(outdir / name)

    emit("manifest.json", manifest_json(cfg, __version__))

    if cfg.equation == "gksl" or cfg.n_trajectories == 1:
        noise = generate_noise(cfg.seed, cfg.model.n_channels, cfg.dt, n_steps)
        record, weights = _run_single_on_noise(cfg, noise)
        # the deterministic mean evolution is a mean, not a trajectory
        name = "mean.csv" if cfg.equation == "gksl" else "trajectory.csv"
        emit(name, record_to_csv(record, weights))
        if cfg.dump_densities:
            emit("densities.json",
                 densities_to_json(record.times, record.densities))
    else:
        mc_equation = {"linear": "linear_weighted"}.get(cfg.equation, cfg.equation)
        series = monte_carlo_mean(
            cfg.model, cfg.decomposition(), cfg.n_trajectories, cfg.seed,
            mc_equation, dt=cfg.dt, t_final=cfg.t_final,
            save_stride=cfg.save_stride, scheme=cfg.scheme,
            renormalize=cfg.renormalize, observables=cfg.observables(),
        )
        emit("mean.csv", mean_to_csv(series))
        if cfg.dump_densities:
            emit("mean_densities.json", mean_densities_to_json(series))

    for path in written:
        print(path)
    return 0


def _load_suite(path: str) -> dict:
    """Validate a verify suite document, filling in the defaults."""
    try:
        doc = json.loads(Path(path).read_text())
    except OSError as exc:
        raise SiwfError(f"cannot read suite '{path}': {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError("<root>", f"invalid JSON: {exc}") from exc
    _require(isinstance(doc, dict), "<root>", "suite must be a JSON object")
    _check_keys(doc, set(SUITE_DEFAULTS), "")
    suite = {**SUITE_DEFAULTS, **doc}
    _seed(suite["seed"])
    n_traj = suite["n_traj"]
    _require(isinstance(n_traj, int) and not isinstance(n_traj, bool)
             and n_traj >= 100, "n_traj", "must be an integer >= 100")
    suite["dt"] = _number(suite, "dt", "dt")
    _require(isinstance(suite["include_negative_controls"], bool),
             "include_negative_controls", "must be a boolean")
    _require(suite["checks"] is None or isinstance(suite["checks"], list),
             "checks", "must be a list of check names")
    validate_suite_args(suite["dt"], suite["checks"])
    return suite


def cmd_verify(args) -> int:
    suite = _load_suite(args.suite) if args.suite else dict(SUITE_DEFAULTS)
    if args.output and not Path(args.output).parent.is_dir():
        raise SiwfError(
            f"--output '{args.output}': directory does not exist"
        )
    if suite["checks"] == []:
        print("warning: empty suite, nothing to check", file=sys.stderr)
        if args.output:
            _write(args.output, reports_to_json([]))
        return 0
    reports = default_suite(base_seed=suite.pop("seed"), **suite)
    print(format_table(reports))
    if args.output:
        _write(args.output, reports_to_json(reports))
        print(f"report written to {args.output}")
    return 0 if all(r.passed for r in reports) else 1


_COMPARE_AXES = {"dt", "scheme", "equation", "output_dir"}


def cmd_compare(args) -> int:
    cfg_a = _load_config(args.a, {})
    cfg_b = _load_config(args.b, {})
    doc_a = cfg_a.resolved_dict()
    doc_b = cfg_b.resolved_dict()
    differing = {k for k in doc_a if doc_a[k] != doc_b[k]}
    illegal = differing - _COMPARE_AXES
    if illegal:
        raise SiwfError(
            f"configs differ outside the comparable axes {sorted(_COMPARE_AXES)}: "
            f"{sorted(illegal)}"
        )
    dt_fine = min(cfg_a.dt, cfg_b.dt)
    ratio_a = round(cfg_a.dt / dt_fine)
    ratio_b = round(cfg_b.dt / dt_fine)
    for tag, cfg in (("a", cfg_a), ("b", cfg_b)):
        if off_grid(cfg.dt, dt_fine):
            raise SiwfError(
                f"config {tag} dt {cfg.dt} is not an integer multiple of the "
                f"finer dt {dt_fine}; paths cannot be shared"
            )
    extra_refine = 2 if "dt" in differing else 1
    n_base = extra_refine * resolve_steps(dt_fine, cfg_a.t_final)
    if n_base % (max(ratio_a, ratio_b) * extra_refine):
        raise SiwfError(
            f"t_final {cfg_a.t_final} is not a whole number of steps of both "
            f"dt {cfg_a.dt} (config a) and dt {cfg_b.dt} (config b); paths "
            f"cannot be shared"
        )
    base = generate_noise(
        cfg_a.seed, cfg_a.model.n_channels, dt_fine / extra_refine, n_base
    )

    def run(cfg: SimConfig, noise):
        one = replace(cfg, dt=noise.dt, n_trajectories=1, save_stride=1)
        return _run_single_on_noise(one, noise)[0]

    rec_a = run(cfg_a, coarsen(base, ratio_a * extra_refine))
    rec_b = run(cfg_b, coarsen(base, ratio_b * extra_refine))
    rows = _difference_rows(rec_a, rec_b)
    report = {
        "axes": sorted(differing & {"dt", "scheme", "equation"}),
        "rows": rows,
        "max_density_difference": max((r["density_diff"] for r in rows), default=0.0),
    }
    if differing & {"dt"} and not differing & {"scheme", "equation"}:
        finer_cfg, fine_rec = ((cfg_a, rec_a) if cfg_a.dt < cfg_b.dt
                               else (cfg_b, rec_b))
        # one more halving: the finer config on the un-coarsened base path
        d1 = report["max_density_difference"]
        d2 = max(r["density_diff"] for r in
                 _difference_rows(fine_rec, run(finer_cfg, base)))
        report["convergence"] = {
            "coarse_vs_fine": d1,
            "fine_vs_finer": d2,
            "ratio": d1 / d2 if d2 > 0 else float("inf"),
        }
    print(json.dumps(report, sort_keys=True, indent=2))
    if args.output:
        _write(args.output, json.dumps(report, sort_keys=True, indent=2) + "\n")
    return 0


def _run_single_on_noise(cfg: SimConfig, noise):
    """The one place an equation meets its single-path runner: (record,
    importance weights or None) along ``noise``; ``gksl`` reads only the
    path's step count."""
    model = cfg.model
    dec = cfg.decomposition()
    observables = cfg.observables()
    if cfg.equation == "siwf":
        return run_siwf_trajectory(
            model, dec, noise, cfg.save_stride, cfg.scheme,
            cfg.renormalize, observables,
        ), None
    if cfg.equation == "nonlinear":
        return run_nonlinear_trajectory(
            model, dec.vectors[0], noise, cfg.save_stride, cfg.scheme,
            cfg.renormalize, observables,
        ), None
    if cfg.equation == "linear":
        return run_linear_route(
            model, dec, noise, cfg.save_stride, cfg.scheme, observables,
        )
    if cfg.equation == "belavkin":
        return run_belavkin_trajectory(
            model, dec.density(), noise, cfg.save_stride, cfg.scheme,
            cfg.renormalize, observables,
        ), None
    return run_gksl_trajectory(
        model, dec.density(), cfg.dt, noise.n_steps, cfg.save_stride,
        observables,
    ), None


def _difference_rows(rec_a, rec_b):
    """Density and observable discrepancies at the saved times both share."""
    ta = np.round(rec_a.times, 12)
    tb = np.round(rec_b.times, 12)
    common = np.intersect1d(ta, tb)
    ia = np.searchsorted(ta, common)
    ib = np.searchsorted(tb, common)
    shared_obs = sorted(set(rec_a.observables) & set(rec_b.observables))
    rows = []
    for t, ka, kb in zip(common, ia, ib):
        row = {
            "time": float(t),
            "density_diff": float(
                np.max(np.abs(rec_a.densities[ka] - rec_b.densities[kb]))
            ),
        }
        for name in shared_obs:
            row[f"obs_diff:{name}"] = float(
                abs(rec_a.observables[name][ka] - rec_b.observables[name][kb])
            )
        rows.append(row)
    return rows


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="siwf",
        description="Simulate and verify continuously monitored open "
        "quantum systems via interacting wave-function ensembles.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a simulation from a config")
    sim.add_argument("--config", required=True, help="JSON config or manifest")
    sim.add_argument("--seed", type=int)
    sim.add_argument("--dt", type=float)
    sim.add_argument("--t-final", dest="t_final", type=float)
    sim.add_argument("--n-trajectories", dest="n_trajectories", type=int)
    sim.add_argument("--equation", choices=EQUATIONS)
    sim.add_argument("--scheme", choices=SCHEMES)
    sim.add_argument("--save-stride", dest="save_stride", type=int)
    sim.add_argument("--output-dir", dest="output_dir")
    sim.add_argument("--renormalize", dest="renormalize", action="store_true",
                     default=None)
    sim.add_argument("--no-renormalize", dest="renormalize",
                     action="store_false", default=None)
    sim.add_argument("--dump-densities", dest="dump_densities",
                     action="store_true", default=None)
    sim.set_defaults(func=cmd_simulate)

    ver = sub.add_parser("verify", help="run the verification suite")
    ver.add_argument("--suite", help="JSON suite description")
    ver.add_argument("--output", help="write the JSON report here")
    ver.set_defaults(func=cmd_verify)

    cmp_ = sub.add_parser("compare", help="compare two configs pathwise")
    cmp_.add_argument("--a", required=True)
    cmp_.add_argument("--b", required=True)
    cmp_.add_argument("--output", help="write the JSON report here")
    cmp_.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # a diverging run is reported once, at its step, by the drivers'
        # finiteness checks; numpy's per-operation warnings would repeat it
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return args.func(args)
    except SiwfError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # a dt that makes more steps than memory holds fails at its first
        # step-sized allocation
        print(f"error: out of memory, raise dt for fewer steps: {exc}",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
