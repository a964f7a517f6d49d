"""A fresh siwf process that does a workload's set-up and stops before the
first step: import, config parse and validation, model build,
decomposition and StepContext (with its expm for exponential_em).

Usage: python3 setup_probe.py <src dir> <plan.json> <trace 0|1>

The plan lists the config documents (or, for the verify battery, the
suite).  The last line of stdout is JSON with ``ready``, the
time.monotonic() reading when set-up finished, and per-phase times.
"""

import json
import sys
import time

t_start = time.monotonic()
src, plan_path, trace = sys.argv[1], sys.argv[2], sys.argv[3] == "1"
sys.path.insert(0, src)

import siwf.cli  # noqa: E402

t_imported = time.monotonic()

from siwf import config, model, states, steppers  # noqa: E402

phases = {"model.build": 0.0, "states.decompose_density": 0.0}


def timed(fn, phase):
    def wrapper(*args, **kwargs):
        t0 = time.monotonic()
        try:
            return fn(*args, **kwargs)
        finally:
            phases[phase] += time.monotonic() - t0
    return wrapper


plan = json.loads(open(plan_path).read())
builders = {"qubit": model.qubit_model, "rabi": model.rabi_model,
            "box": model.box_model}
decompose = states.decompose_density
if trace:
    for name in ("qubit_model", "rabi_model", "box_model"):
        setattr(config, name, timed(getattr(config, name), "model.build"))
        builders[name[:-6]] = timed(builders[name[:-6]], "model.build")
    config.decompose_density = timed(config.decompose_density,
                                     "states.decompose_density")
    decompose = timed(decompose, "states.decompose_density")

parse_s = 0.0
context_s = 0.0
if plan["kind"] == "configs":
    for doc in plan["configs"]:
        t0 = time.monotonic()
        cfg = config.parse_config_dict(json.loads(json.dumps(doc)))
        t1 = time.monotonic()
        if cfg.equation != "gksl":
            steppers.StepContext(cfg.model, cfg.scheme, cfg.dt, cfg.renormalize)
        parse_s += t1 - t0
        context_s += time.monotonic() - t1
else:
    # the verify battery: its suite file, the three test models, their
    # initial decompositions and the exponential-scheme context of the box
    import numpy as np

    t0 = time.monotonic()
    suite = json.loads(open(plan["suite"]).read())
    parse_s += time.monotonic() - t0
    rabi = builders["rabi"](model.RabiParams(1.0, 1.2, 0.1, 0.5, 0.0, 3))
    box = builders["box"](model.BoxParams(0.5, 0.5, -4.0, 4.0, 16))
    builders["qubit"](1.0, 1.0, "z")
    builders["qubit"](0.0, 1.0, "minus")
    decompose(np.array([[0.65, 0.15], [0.15, 0.35]], dtype=complex))
    decompose(np.diag([0.7, 0.3, 0, 0, 0, 0]).astype(complex))
    t1 = time.monotonic()
    steppers.StepContext(box, "exponential_em", suite.get("dt", 1e-3), True)
    steppers.StepContext(rabi, "euler_maruyama", suite.get("dt", 1e-3), True)
    context_s += time.monotonic() - t1

ready = time.monotonic()
print(json.dumps({
    "ready": ready,
    "start": t_start,
    "cli.import_s": t_imported - t_start,
    "config.parse_config_dict.ms": 1e3 * parse_s,
    "model.build.ms": 1e3 * phases["model.build"],
    "states.decompose_density.ms": 1e3 * phases["states.decompose_density"],
    "steppers.StepContext.ms": 1e3 * context_s,
}))
