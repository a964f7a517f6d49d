"""Spans around siwf's public functions, recorded from outside the package.

A traced call is wrapped where the calling module looks the name up (for
example ``siwf.trajectories.siwf_step_batch``), so nothing under src/
changes.  Each span adds its duration to its key and to the self time of
the span that encloses it on the same thread; counters (steps, noise
increments, bytes) are read from the call's arguments or result.
"""

from __future__ import annotations

import inspect
import threading
import time
from collections import defaultdict

KERNELS = ("siwf_step_batch", "belavkin_step_batch", "linear_step_batch",
           "step_nonlinear_sse", "step_gksl")
MC_ENTRIES = ("monte_carlo_mean", "sample_functionals", "weight_paths")
SINGLE_PATHS = ("run_siwf_trajectory", "run_nonlinear_trajectory",
                "run_linear_route", "run_belavkin_trajectory")
RECORDIO = ("record_to_csv", "densities_to_json", "mean_to_csv",
            "mean_densities_to_json", "reports_to_json", "manifest_json")
CHECK_FAMILIES = ("model_identities", "norm_conservation",
                  "record_consistency", "gksl_mean", "siwf_vs_belavkin",
                  "martingale", "linear_route_equivalence",
                  "decomposition_invariance")


def _bound(fn):
    sig = inspect.signature(fn)

    def args_of(args, kwargs):
        b = sig.bind(*args, **kwargs)
        b.apply_defaults()
        return b.arguments
    return args_of


def _shape_key(name):
    def key(args, kwargs):
        shape = args[1].shape
        if name == "belavkin_step_batch":
            return f"steppers.{name}.b{shape[0]}_d{shape[1]}", shape[0]
        return f"steppers.{name}.b{shape[0]}_n{shape[1]}_d{shape[2]}", shape[0]
    return key


class Tracer:
    """Accumulates span times and counters; ``install`` patches siwf."""

    def __init__(self):
        self.lock = threading.Lock()
        self.local = threading.local()
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.count = defaultdict(float)
        self.mc_active = 0
        self._undo = []

    # -- spans -------------------------------------------------------------

    def wrap(self, fn, key, kind="", counter=None):
        """Wrap ``fn`` in a span named ``key`` (or ``key(args, kwargs)``
        returning (name, trajectories per call)).  ``counter(arguments,
        result)`` returns {counter key: amount} to add."""
        args_of = _bound(fn) if counter is not None else None
        tracer = self

        def traced(*args, **kwargs):
            if callable(key):
                name, width = key(args, kwargs)
            else:
                name, width = key, 1
            stack = tracer._stack()
            frame = [0.0]
            stack.append(frame)
            if kind == "mc":
                with tracer.lock:
                    tracer.mc_active += 1
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                with tracer.lock:
                    tracer.total[name] += dur
                    tracer.self_time[name] += dur - frame[0]
                    tracer.calls[name] += 1
                    if kind == "kernel":
                        tracer.count["kernel.traj_calls:" + name] += width
                        tracer.count["busy_s"] += dur
                    if kind in ("kernel", "noise") and tracer.mc_active:
                        tracer.count["mc_child_s"] += dur
                    if kind == "mc":
                        tracer.mc_active -= 1
            if counter is not None:
                amounts = counter(args_of(args, kwargs), result)
                with tracer.lock:
                    for k, v in amounts.items():
                        tracer.count[k] += v
            return result
        traced.__wrapped__ = fn
        return traced

    def _stack(self):
        stack = getattr(self.local, "stack", None)
        if stack is None:
            stack = self.local.stack = []
        return stack

    def patch(self, module, attr, key, kind="", counter=None):
        orig = getattr(module, attr)
        setattr(module, attr, self.wrap(orig, key, kind, counter))
        self._undo.append((module, attr, orig))

    def uninstall(self):
        for module, attr, orig in reversed(self._undo):
            setattr(module, attr, orig)
        self._undo.clear()

    # -- the siwf call graph -----------------------------------------------

    def install(self):
        import siwf.cli as cli
        import siwf.trajectories as traj
        import siwf.verify as ver
        from siwf.trajectories import resolve_steps

        def mc_steps(a, _):
            return {"traj_steps": a["n_traj"] * resolve_steps(a["dt"], a["t_final"])}

        def steps_of(name, field):
            def count(a, _):
                n = a[field].n_steps if field == "noise" else a[field]
                return {"traj_steps": n, f"steps:{name}": n}
            return count

        gksl_steps = steps_of("gksl_solve", "n_steps")

        def block_increments(a, _):
            n = len(list(a["streams"])) * a["n_steps"] * a["n_channels"]
            return {"noise.increments": n, "noise.block_increments": n}

        def path_increments(a, _):
            return {"noise.increments": a["n_steps"] * a["n_channels"]}

        def text_bytes(a, result):
            return {"recordio.bytes": len(result)}

        for name in KERNELS:
            key = (_shape_key(name) if name.endswith("_batch")
                   else f"steppers.{name}")
            self.patch(traj, name, key, kind="kernel")
        self.patch(traj, "generate_noise_block", "noise.generate_noise_block",
                   kind="noise", counter=block_increments)
        self.patch(traj, "StepContext", "steppers.StepContext")
        self.patch(traj, "gksl_solve", "trajectories.gksl_solve",
                   counter=gksl_steps)
        for mod in (cli, ver):
            self.patch(mod, "generate_noise", "noise.generate_noise",
                       counter=path_increments)
            self.patch(mod, "coarsen", "noise.coarsen")
        self.patch(cli, "monte_carlo_mean", "trajectories.monte_carlo_mean",
                   kind="mc", counter=mc_steps)
        for name in SINGLE_PATHS:
            self.patch(cli, name, f"trajectories.{name}",
                       counter=steps_of(name, "noise"))
        for name in RECORDIO:
            self.patch(cli, name, f"recordio.{name}", counter=text_bytes)
        self.patch(cli, "parse_config_dict", "config.parse_config_dict")
        self.patch(cli, "default_suite", "verify.default_suite")
        for name in MC_ENTRIES:
            self.patch(ver, name, f"trajectories.{name}", kind="mc",
                       counter=mc_steps)
        for name in ("run_siwf_trajectory", "run_belavkin_trajectory"):
            self.patch(ver, name, f"trajectories.{name}",
                       counter=steps_of(name, "noise"))
        self.patch(ver, "gksl_solve", "verify.gksl_solve", counter=gksl_steps)
        for family in CHECK_FAMILIES:
            self.patch(ver, f"check_{family}", f"verify.check_{family}")


class StepCounter(Tracer):
    """Only the integration entry points, counting requested steps.

    Used on untraced runs of workloads whose step count is not fixed by
    their configs (the verify battery): a few dozen calls per round.
    """

    def install(self):
        import siwf.verify as ver
        from siwf.trajectories import resolve_steps

        def mc_steps(a, _):
            return {"traj_steps": a["n_traj"] * resolve_steps(a["dt"], a["t_final"])}

        for name in MC_ENTRIES:
            self.patch(ver, name, name, counter=mc_steps)
        for name in ("run_siwf_trajectory", "run_belavkin_trajectory"):
            self.patch(ver, name, name, counter=lambda a, _: {
                "traj_steps": a["noise"].n_steps})
        self.patch(ver, "gksl_solve", "gksl_solve",
                   counter=lambda a, _: {"traj_steps": a["n_steps"]})
