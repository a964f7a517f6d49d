"""siwf benchmark: one workload per run, checked outputs, one JSON line.

    python3 perfbench/run.py --workload mc-mix --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --smoke

Run it from the root of a siwf source tree: the package is imported from
./src.  A run generates the workload's config files from --seed, measures
set-up in fresh processes, then repeats whole rounds of the workload's
siwf CLI calls for about --seconds, checks the outputs against
the benchmark's own references and prints the metrics.  --trace 1 splits
the time between untraced and traced rounds and prints per-layer metrics
instead.  --smoke runs the self-tests and every workload at tiny sizes.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"

#: fresh processes per run for setup_s (median), after one warm-up
SETUP_SAMPLES = 7

#: the BLAS thread settings pinned for single-threaded workloads
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1"}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=("mc-mix", "verify-battery",
                                          "path-io"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="self-tests plus every workload at tiny sizes")
    p.add_argument("--tiny", action="store_true",
                   help="run the workload at smoke-test sizes")
    args = p.parse_args(argv)
    if not args.smoke and args.workload is None:
        p.error("--workload is required unless --smoke is given")
    return args


def set_thread_env(workload: str) -> dict:
    """Thread settings of a workload; must run before numpy is imported."""
    env = dict(os.environ)
    if workload == "verify-battery":
        env["SIWF_THREADS"] = "2"
        for k in PINNED:
            env.pop(k, None)
    else:
        env["SIWF_THREADS"] = "1"
        env.update(PINNED)
    os.environ.clear()
    os.environ.update(env)
    return env


def find_source() -> None:
    if not (SRC / "siwf" / "__init__.py").is_file():
        sys.exit(f"error: no siwf source tree at {SRC}; run from the repo root")
    sys.path.insert(0, str(SRC))


# ---------------------------------------------------------------------------
# set-up probes
# ---------------------------------------------------------------------------

def measure_setup(workload, work: Path, samples: int, trace: bool) -> dict:
    """Median set-up of ``samples`` fresh processes (after one warm-up)."""
    if workload.setup_configs:
        plan = {"kind": "configs", "configs": workload.setup_configs}
    else:
        plan = {"kind": "suite", "suite": workload.ops[0].argv[2]}
    plan_path = work / "setup_plan.json"
    plan_path.write_text(json.dumps(plan))
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(SRC),
           str(plan_path), "1" if trace else "0"]
    results = []
    for i in range(samples + 1):
        t0 = time.monotonic()
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr[-2000:]}")
        doc = json.loads(proc.stdout.strip().splitlines()[-1])
        doc["setup_s"] = doc["ready"] - t0
        if i:
            results.append(doc)
    keys = [k for k in results[0] if k not in ("ready", "start")]
    return {k: statistics.median(r[k] for r in results) for k in keys}


# ---------------------------------------------------------------------------
# rounds
# ---------------------------------------------------------------------------

def call_cli(main, argv) -> int:
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            rc = main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # a crash is a failed operation, not a crash of the run
        print(f"{argv[0]} raised {type(exc).__name__}: {exc}", file=sys.stderr)
        rc = 1
    return rc


def run_rounds(workload, seconds: float, results: dict, main) -> list:
    """Whole rounds for about ``seconds``; returns round walls.

    A new round starts only while it is expected to end less than half a
    round past ``seconds``, so the measured time stays close to ``seconds``
    even where one round takes ~10 s (verify-battery).
    """
    walls = []
    start = time.perf_counter()
    while not walls or (time.perf_counter() - start
                        + statistics.median(walls) / 2 < seconds):
        t0 = time.perf_counter()
        for op in workload.ops:
            results.setdefault(op.name, []).append(call_cli(main, op.argv))
        walls.append(time.perf_counter() - t0)
    return walls


def run_workload(name, seed, seconds, trace, work: Path, smoke=False):
    """One benchmark run; returns the result document."""
    import siwf.cli as cli

    import tracer as tr
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed, work, smoke=smoke)
    setup = measure_setup(workload, work, 2 if smoke else SETUP_SAMPLES, trace)
    results = {}
    counter = None
    # an op with no steps from its config (the verify battery) has its
    # requested steps counted where it calls the integrators
    if workload.ops[0].steps == 0:
        counter = tr.StepCounter()
        counter.install()
    try:
        walls = run_rounds(workload, seconds / 2 if trace else seconds,
                           results, cli.main)
    finally:
        if counter is not None:
            counter.uninstall()
    traced_walls, spans = [], None
    if trace:
        spans = tr.Tracer()
        spans.install()
        main = spans.wrap(cli.main, "cli.main")
        try:
            traced_walls = run_rounds(workload, seconds / 2, results, main)
        finally:
            spans.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    n_rounds = len(walls) + len(traced_walls)
    attempted = len(workload.ops) * n_rounds
    failed = sum(1 for codes in results.values() for rc in codes if rc != 0)
    # the checks read the outputs of operations that all succeeded; a
    # failed operation is counted in ``failed`` instead
    problems = []
    if failed == 0:
        problems = workload.check(results) + [
            f"negative control not detected: {c}"
            for c in workload.controls(results)]

    if counter is not None:
        steps_per_round = counter.count["traj_steps"] / len(walls)
    else:
        steps_per_round = sum(op.steps for op in workload.ops)
    wall = statistics.median(walls)
    if trace:
        metrics = layer_metrics(spans, traced_walls, walls, setup,
                                int(os.environ["SIWF_THREADS"]))
    else:
        metrics = {
            "wall_s": (wall, "s"),
            "traj_steps_per_s": (steps_per_round / wall, "1/s"),
            "setup_s": (setup["setup_s"], "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }, problems, walls


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

#: shapes (batch, components, dim) the three workloads create
SHAPES = {
    "siwf_step_batch": ["b256_n2_d2", "b256_n1_d2", "b256_n2_d6",
                        "b256_n1_d6", "b256_n1_d16", "b1_n2_d6", "b1_n1_d16"],
    "belavkin_step_batch": ["b256_d6", "b32_d16", "b1_d6", "b1_d16"],
    "linear_step_batch": ["b256_n2_d2", "b256_n2_d6", "b1_n2_d6", "b1_n1_d16"],
}


def layer_metrics(spans, traced_walls, walls, setup, threads) -> dict:
    """Per-round averages of the traced rounds, by layer."""
    import tracer as tr

    rounds = len(traced_walls)
    total = {k: v / rounds for k, v in spans.total.items()}
    self_t = {k: v / rounds for k, v in spans.self_time.items()}
    calls = {k: v / rounds for k, v in spans.calls.items()}
    count = {k: v / rounds for k, v in spans.count.items()}
    traced_wall = statistics.median(traced_walls)
    m = {}
    for kern, shapes in SHAPES.items():
        for shape in shapes:
            key = f"steppers.{kern}.{shape}"
            width = count.get("kernel.traj_calls:" + key, 0.0)
            m[f"{key}.us_per_traj_step"] = (
                1e6 * total.get(key, 0.0) / width if width else 0.0, "us")
    for kern in tr.KERNELS:
        m[f"steppers.{kern}.calls"] = (sum(
            v for k, v in calls.items()
            if k == f"steppers.{kern}" or k.startswith(f"steppers.{kern}.")),
            "count")
    for kern in ("step_nonlinear_sse", "step_gksl"):
        key = f"steppers.{kern}"
        n = calls.get(key, 0)
        m[f"{key}.us_per_call"] = (1e6 * total.get(key, 0.0) / n if n else 0.0,
                                   "us")
    busy = count.get("busy_s", 0.0)
    m["steppers.busy_s"] = (busy, "s")
    m["steppers.busy_per_core"] = (busy / (traced_wall * threads), "ratio")
    incs = count.get("noise.increments", 0.0)
    block = total.get("noise.generate_noise_block", 0.0)
    block_incs = count.get("noise.block_increments", 0.0)
    m["noise.generate_noise_block.ns_per_increment"] = (
        1e9 * block / block_incs if block and block_incs else 0.0, "ns")
    m["noise.generate_noise.s"] = (total.get("noise.generate_noise", 0.0), "s")
    m["noise.coarsen.s"] = (total.get("noise.coarsen", 0.0), "s")
    m["noise.increments"] = (incs, "count")
    mc_total = 0.0
    for name in tr.MC_ENTRIES:
        t = total.get(f"trajectories.{name}", 0.0)
        m[f"trajectories.{name}.s"] = (t, "s")
        mc_total += t
    m["trajectories.mc_self_s"] = (
        mc_total - count.get("mc_child_s", 0.0) / threads, "s")
    for name in tr.SINGLE_PATHS + ("gksl_solve",):
        keys = [f"trajectories.{name}"]
        if name == "gksl_solve":
            keys.append("verify.gksl_solve")
        steps = count.get(f"steps:{name}", 0.0)
        selft = sum(self_t.get(k, 0.0) for k in keys)
        m[f"trajectories.{name}.self_us_per_step"] = (
            1e6 * selft / steps if steps else 0.0, "us")
    m["trajectories.traj_steps"] = (count.get("traj_steps", 0.0), "count")
    io_s = 0.0
    for name in tr.RECORDIO:
        t = total.get(f"recordio.{name}", 0.0)
        io_s += t
        if name != "manifest_json":
            m[f"recordio.{name}.s"] = (t, "s")
    nbytes = count.get("recordio.bytes", 0.0)
    m["recordio.bytes"] = (nbytes, "count")
    m["recordio.mb_per_s"] = (nbytes / 1e6 / io_s if io_s else 0.0, "MB/s")
    for family in tr.CHECK_FAMILIES:
        m[f"verify.check_{family}.s"] = (
            total.get(f"verify.check_{family}", 0.0), "s")
    m["verify.gksl_solve.s"] = (total.get("verify.gksl_solve", 0.0), "s")
    m["cli.import_s"] = (setup["cli.import_s"], "s")
    for key in ("config.parse_config_dict.ms", "model.build.ms",
                "states.decompose_density.ms", "steppers.StepContext.ms"):
        m[key] = (setup[key], "ms")
    m["cli.main.s"] = (total.get("cli.main", 0.0), "s")
    m["cli.self_s"] = (self_t.get("cli.main", 0.0), "s")
    untraced = statistics.median(walls)
    m["trace.overhead_s"] = (traced_wall - untraced, "s")
    m["trace.overhead_pct"] = (100.0 * (traced_wall - untraced) / untraced, "%")
    return m


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

def print_result(doc, problems, name, walls):
    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    print(f"# {name}: {len(walls)} untraced round(s), "
          f"attempted {doc['attempted']}, failed {doc['failed']}, "
          f"correct {doc['correct']}")
    for k, v in doc["metrics"].items():
        print(f"# {k} = {v['value']:.6g} {v['unit']}")
    print(json.dumps(doc))


def work_dir(name: str) -> Path:
    path = HERE / ".work" / f"{name}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def main(argv=None) -> int:
    args = parse_args(argv)
    find_source()
    if args.smoke:
        return smoke(args)
    set_thread_env(args.workload)
    work = work_dir(args.workload)
    try:
        doc, problems, walls = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), work,
            smoke=args.tiny)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print_result(doc, problems, args.workload, walls)
    return 0


def smoke(args) -> int:
    """Self-tests, then each workload at tiny sizes, traced and untraced,
    each in a fresh process so its thread settings apply."""
    rc = subprocess.run([sys.executable, str(HERE / "selftest.py"), str(SRC)],
                        cwd=ROOT).returncode
    for name in ("mc-mix", "path-io", "verify-battery"):
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(args.seed), "--seconds", "0", "--trace",
                 str(trace), "--tiny"], capture_output=True, text=True,
                cwd=ROOT, timeout=600)
            last = proc.stdout.strip().splitlines()[-1] if proc.stdout else ""
            ok = proc.returncode == 0 and json.loads(last or "{}").get("correct")
            print(f"smoke {name} trace={trace}: {'ok' if ok else 'FAILED'}")
            if not ok:
                sys.stderr.write(proc.stdout[-3000:] + proc.stderr[-3000:])
                rc = 1
    return rc


if __name__ == "__main__":
    sys.exit(main())
