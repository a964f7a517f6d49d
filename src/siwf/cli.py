"""Command-line surface: simulate, verify, compare.

Worker-thread count is taken from the SIWF_THREADS environment variable
(default 1); results are bit-identical for any value.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import (
    EQUATIONS,
    SimConfig,
    _check_keys,
    _number,
    _require,
    parse_config_dict,
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
    resolve_steps,
    run_belavkin_trajectory,
    run_gksl_trajectory,
    run_linear_route,
    run_nonlinear_trajectory,
    run_siwf_trajectory,
)
from .verify import default_suite, format_table

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

#: suite keys and their defaults; ``seed`` is default_suite's ``base_seed``
_SUITE_DEFAULTS = {
    "seed": 20_240_501,
    "n_traj": 10_000,
    "dt": 1e-3,
    "include_negative_controls": True,
    "checks": None,
}


def _threads() -> int:
    raw = os.environ.get("SIWF_THREADS", "1")
    try:
        n = int(raw)
    except ValueError:
        raise SiwfError(f"SIWF_THREADS must be an integer, got '{raw}'")
    return max(1, n)


def _load_config(path: str, overrides: dict) -> SimConfig:
    try:
        doc = json.loads(Path(path).read_text())
    except OSError as exc:
        raise SiwfError(f"cannot read config '{path}': {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError("<root>", f"invalid JSON in '{path}': {exc}") from exc
    if isinstance(doc, dict) and {"artifact", "version", "config"} <= set(doc):
        doc = doc["config"]
    if not isinstance(doc, dict):
        raise ConfigError("<root>", "config must be a JSON object")
    doc = dict(doc)
    doc.update(overrides)
    return parse_config_dict(doc)


def _write(path, text: str) -> None:
    try:
        Path(path).write_bytes(text.encode())
    except OSError as exc:
        raise SiwfError(f"cannot write '{path}': {exc}") from exc


def _collect_overrides(args) -> dict:
    overrides = {}
    for key, attr in (
        ("seed", "seed"),
        ("dt", "dt"),
        ("t_final", "t_final"),
        ("n_trajectories", "n_trajectories"),
        ("equation", "equation"),
        ("scheme", "scheme"),
        ("save_stride", "save_stride"),
        ("output_dir", "output_dir"),
    ):
        val = getattr(args, attr, None)
        if val is not None:
            overrides[key] = val
    if getattr(args, "renormalize", None) is not None:
        overrides["renormalize"] = args.renormalize
    if getattr(args, "dump_densities", False):
        overrides["dump_densities"] = True
    return overrides


def _run_single(cfg: SimConfig):
    n_steps = resolve_steps(cfg.dt, cfg.t_final)
    noise = generate_noise(cfg.seed, cfg.model.n_channels, cfg.dt, n_steps,
                           stream=0)
    return _run_single_on_noise(cfg, noise)


def cmd_simulate(args) -> int:
    cfg = _load_config(args.config, _collect_overrides(args))
    threads = _threads()
    outdir = Path(cfg.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    written = []

    def emit(name: str, text: str):
        _write(outdir / name, text)
        written.append(outdir / name)

    emit("manifest.json", manifest_json(cfg, __version__))
    obs_order = [
        e if isinstance(e, str) else str(e["name"])
        for e in cfg.observable_entries
    ]

    if cfg.equation == "gksl":
        record = run_gksl_trajectory(
            cfg.model, cfg.decomposition().density(), cfg.dt,
            resolve_steps(cfg.dt, cfg.t_final), cfg.save_stride,
            cfg.observables(),
        )
        emit("mean.csv", record_to_csv(record, obs_order))
        if cfg.dump_densities:
            emit("densities.json",
                 densities_to_json(record.times, record.densities))
    elif cfg.n_trajectories == 1:
        record, weights = _run_single(cfg)
        emit("trajectory.csv", record_to_csv(record, obs_order, weights))
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
            threads=threads,
        )
        emit("mean.csv", mean_to_csv(series, obs_order))
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
    _check_keys(doc, set(_SUITE_DEFAULTS), "")
    suite = {**_SUITE_DEFAULTS, **doc}
    seed, n_traj = suite["seed"], suite["n_traj"]
    _require(isinstance(seed, int) and not isinstance(seed, bool),
             "seed", "must be an integer")
    _require(isinstance(n_traj, int) and not isinstance(n_traj, bool)
             and n_traj >= 100, "n_traj", "must be an integer >= 100")
    suite["dt"] = _number(suite, "dt", "dt")
    _require(suite["dt"] > 0, "dt", "must be positive")
    _require(isinstance(suite["include_negative_controls"], bool),
             "include_negative_controls", "must be a boolean")
    checks = suite["checks"]
    if checks is not None:
        _require(isinstance(checks, list), "checks",
                 "must be a list of check names")
        for name in checks:
            _require(name in SUITE_CHECKS, "checks",
                     f"unknown check '{name}' (known: {list(SUITE_CHECKS)})")
    return suite


def cmd_verify(args) -> int:
    threads = _threads()
    suite = _load_suite(args.suite) if args.suite else dict(_SUITE_DEFAULTS)
    if args.output and not Path(args.output).parent.is_dir():
        raise SiwfError(
            f"--output '{args.output}': directory does not exist"
        )
    if suite["checks"] == []:
        print("warning: empty suite, nothing to check", file=sys.stderr)
        if args.output:
            _write(args.output, reports_to_json([]))
        return 0
    reports = default_suite(
        base_seed=suite.pop("seed"), threads=threads, **suite
    )
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
    for tag, cfg, ratio in (("a", cfg_a, ratio_a), ("b", cfg_b, ratio_b)):
        if abs(cfg.dt - ratio * dt_fine) > 1e-12 * dt_fine:
            raise SiwfError(
                f"config {tag} dt {cfg.dt} is not an integer multiple of the "
                f"finer dt {dt_fine}; paths cannot be shared"
            )
    model = cfg_a.model
    t_final = cfg_a.t_final
    extra_refine = 2 if "dt" in differing else 1
    n_fine = resolve_steps(dt_fine / extra_refine, t_final)
    base = generate_noise(
        cfg_a.seed, model.n_channels, dt_fine / extra_refine, n_fine
    )

    def run(cfg: SimConfig, ratio: int):
        noise = coarsen(base, ratio * extra_refine)
        if cfg.equation == "gksl":
            return run_gksl_trajectory(
                cfg.model, cfg.decomposition().density(), cfg.dt,
                noise.n_steps, 1, cfg.observables(),
            )
        record, _ = _run_single_on_noise(_single_variant(cfg), noise)
        return record

    rec_a = run(cfg_a, ratio_a)
    rec_b = run(cfg_b, ratio_b)
    rows = _difference_rows(rec_a, rec_b)
    report = {
        "axes": sorted(differing & {"dt", "scheme", "equation"}),
        "rows": rows,
        "max_density_difference": max((r["density_diff"] for r in rows), default=0.0),
    }
    if differing & {"dt"} and not differing & {"scheme", "equation"}:
        finer_cfg = cfg_a if cfg_a.dt < cfg_b.dt else cfg_b
        coarse_rec = rec_a if cfg_a.dt > cfg_b.dt else rec_b
        fine_rec = rec_b if cfg_a.dt > cfg_b.dt else rec_a
        d1 = _max_common_density_diff(coarse_rec, fine_rec)
        # one more halving: finer config on the un-coarsened base path
        rec_half = _run_half(finer_cfg, base)
        d2 = _max_common_density_diff(fine_rec, rec_half)
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
    raise SiwfError(f"equation '{cfg.equation}' is not path-comparable")


def _single_variant(cfg: SimConfig) -> SimConfig:
    one = SimConfig(**{**cfg.__dict__, "_model": None})
    one.n_trajectories = 1
    one.save_stride = 1
    return one


def _run_half(cfg: SimConfig, base_noise):
    one = _single_variant(cfg)
    one.dt = base_noise.dt
    record, _ = _run_single_on_noise(one, base_noise)
    return record


def _common_indices(rec_a, rec_b):
    ta = np.round(rec_a.times, 12)
    tb = np.round(rec_b.times, 12)
    common = np.intersect1d(ta, tb)
    ia = np.searchsorted(ta, common)
    ib = np.searchsorted(tb, common)
    return common, ia, ib


def _difference_rows(rec_a, rec_b):
    common, ia, ib = _common_indices(rec_a, rec_b)
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


def _max_common_density_diff(rec_a, rec_b) -> float:
    _, ia, ib = _common_indices(rec_a, rec_b)
    return float(
        np.max(np.abs(rec_a.densities[ia] - rec_b.densities[ib]))
    )


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
                     action="store_true", default=False)
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
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SiwfError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
