"""Strict configuration parsing for simulation runs.

Configs are JSON documents with a closed schema: unknown keys are rejected,
every violation names the offending key and the constraint it broke.
Complex matrices and vectors are nested arrays of [re, im] pairs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NotHermitianError
from .linalg import HERMITICITY_TOL, hermiticity_defect
from .model import (
    BoxParams,
    ModelSpec,
    RabiParams,
    box_model,
    make_model,
    qubit_model,
    rabi_model,
)
from .observables import KNOWN_OBSERVABLES, resolve_observable
from .states import InitialDecomposition, decompose_density
from .steppers import SCHEMES

EQUATIONS = ("siwf", "nonlinear", "linear", "belavkin", "gksl")

_DEFAULTS = {
    "initial_state": {"kind": "basis", "index": 0},
    "dt": 1e-3,
    "t_final": 1.0,
    "n_trajectories": 1,
    "seed": 0,
    "scheme": "euler_maruyama",
    "equation": "siwf",
    "save_stride": 1,
    "observables": [],
    "output_dir": "out",
    "renormalize": True,
    "dump_densities": False,
}

_TOP_KEYS = {"model", *_DEFAULTS}


def _require(cond: bool, key: str, constraint: str) -> None:
    if not cond:
        raise ConfigError(key, constraint)


def _check_keys(block: dict, allowed: set, prefix: str) -> None:
    for k in block:
        if k not in allowed:
            raise ConfigError(
                f"{prefix}{k}", f"unknown key (allowed: {sorted(allowed)})"
            )


def _numeric(data, key: str, constraint: str) -> np.ndarray:
    """``data`` as a float array; ConfigError naming ``key`` if it is not
    a nested list of finite JSON numbers (``json`` reads NaN and Infinity)."""
    try:
        arr = np.asarray(data, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(key, constraint) from None
    _require(all(map(_finite, np.asarray(data, dtype=object).ravel())),
             key, "entries must be finite numbers")
    return arr


def parse_complex_vector(data, key: str) -> np.ndarray:
    arr = _numeric(data, key, "must be an array of [re, im] pairs")
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ConfigError(key, "must be an array of [re, im] pairs")
    return arr[:, 0] + 1j * arr[:, 1]


def parse_complex_matrix(data, key: str) -> np.ndarray:
    arr = _numeric(data, key, "must be a nested array of [re, im] pairs")
    if arr.ndim != 3 or arr.shape[2] != 2 or arr.shape[0] != arr.shape[1]:
        raise ConfigError(
            key, "must be a square nested array of [re, im] pairs"
        )
    return arr[..., 0] + 1j * arr[..., 1]


def _finite(val) -> bool:
    """True for a JSON number (not a boolean) with a finite float value."""
    if not isinstance(val, (int, float)) or isinstance(val, bool):
        return False
    try:
        return math.isfinite(val)
    except OverflowError:  # an integer beyond the float range
        return False


def _number(block, key, path, default=None) -> float:
    val = block.get(key, default)
    _require(val is not None, path, "is required")
    _require(_finite(val), path, "must be a finite number")
    return float(val)


def _seed(val) -> int:
    """A seed in [0, 2**64): the noise key keeps only 64 bits, so a seed
    outside would alias one inside."""
    _require(isinstance(val, int) and not isinstance(val, bool)
             and 0 <= val < 2**64, "seed", "must be an integer in [0, 2**64)")
    return val


def _numbers(val, path: str, length: int | None = None) -> list:
    """A list of finite numbers, of ``length`` entries if given."""
    count = "" if length is None else f"{length} "
    _require(isinstance(val, list) and all(_finite(x) for x in val)
             and length in (None, len(val)),
             path, f"must be a list of {count}finite numbers")
    return val


def _build_model(block) -> ModelSpec:
    _require(isinstance(block, dict), "model", "must be an object")
    preset = block.get("preset")
    _require(preset is not None, "model.preset", "is required")
    if preset == "qubit":
        _check_keys(block, {"preset", "omega", "gamma", "monitor"}, "model.")
        omega = _number(block, "omega", "model.omega", 1.0)
        gamma = _number(block, "gamma", "model.gamma", 1.0)
        _require(gamma >= 0, "model.gamma", "must be >= 0")
        monitor = block.get("monitor", "z")
        _require(monitor in ("z", "minus", "x"), "model.monitor",
                 "must be one of 'z', 'minus', 'x'")
        return qubit_model(omega, gamma, monitor)
    if preset == "rabi":
        _check_keys(
            block,
            {"preset", "omega1", "omega2", "g", "alpha", "psi", "n_fock"},
            "model.",
        )
        omega1 = _number(block, "omega1", "model.omega1", 1.0)
        omega2 = _number(block, "omega2", "model.omega2", 1.0)
        g = _number(block, "g", "model.g", 0.0)
        alpha = _number(block, "alpha", "model.alpha", 1.0)
        psi = _number(block, "psi", "model.psi", 0.0)
        n_fock = block.get("n_fock", 2)
        _require(isinstance(n_fock, int) and not isinstance(n_fock, bool),
                 "model.n_fock", "must be an integer")
        _require(omega1 > 0, "model.omega1", "must be > 0")
        _require(omega2 > 0, "model.omega2", "must be > 0")
        _require(g >= 0, "model.g", "must be >= 0")
        _require(alpha > 0, "model.alpha", "must be > 0")
        _require(psi >= 0, "model.psi", "must be >= 0")
        _require(n_fock >= 2, "model.n_fock", "must be >= 2")
        return rabi_model(RabiParams(omega1, omega2, g, alpha, psi, n_fock))
    if preset == "box":
        _check_keys(
            block,
            {"preset", "alpha_kin", "gamma", "x_min", "x_max", "n_grid",
             "potential"},
            "model.",
        )
        alpha_kin = _number(block, "alpha_kin", "model.alpha_kin", 1.0)
        gamma = _number(block, "gamma", "model.gamma", 1.0)
        x_min = _number(block, "x_min", "model.x_min", 0.0)
        x_max = _number(block, "x_max", "model.x_max", 1.0)
        n_grid = block.get("n_grid", 16)
        _require(isinstance(n_grid, int) and not isinstance(n_grid, bool),
                 "model.n_grid", "must be an integer")
        _require(x_min < x_max, "model.x_min", "must be < x_max")
        _require(n_grid >= 3, "model.n_grid", "must be >= 3")
        potential = block.get("potential")
        if potential is not None:
            _numbers(potential, "model.potential", n_grid)
        return box_model(
            BoxParams(alpha_kin, gamma, x_min, x_max, n_grid, potential)
        )
    if preset == "custom":
        _check_keys(block, {"preset", "hamiltonian", "lindblads"}, "model.")
        _require("hamiltonian" in block, "model.hamiltonian", "is required")
        h = parse_complex_matrix(block["hamiltonian"], "model.hamiltonian")
        entries = block.get("lindblads", [])
        _require(isinstance(entries, list), "model.lindblads",
                 "must be a list of matrices")
        ls = [
            parse_complex_matrix(entry, f"model.lindblads[{i}]")
            for i, entry in enumerate(entries)
        ]
        for i, l_op in enumerate(ls):
            _require(
                l_op.shape == h.shape,
                f"model.lindblads[{i}]",
                f"must match hamiltonian shape {h.shape}",
            )
        try:
            return make_model(h, ls, meta={"kind": "custom"})
        except NotHermitianError as exc:
            raise ConfigError("model.hamiltonian", str(exc)) from exc
    raise ConfigError(
        "model.preset", "must be one of 'qubit', 'rabi', 'box', 'custom'"
    )


def _build_decomposition(block, model: ModelSpec) -> InitialDecomposition:
    _require(isinstance(block, dict), "initial_state", "must be an object")
    kind = block.get("kind", "basis")
    d = model.dim
    if kind == "basis":
        _check_keys(block, {"kind", "index"}, "initial_state.")
        index = block.get("index", 0)
        _require(isinstance(index, int) and not isinstance(index, bool),
                 "initial_state.index", "must be an integer")
        _require(0 <= index < d, "initial_state.index",
                 f"must be in [0, {d})")
        vec = np.zeros(d, dtype=np.complex128)
        vec[index] = 1.0
        return InitialDecomposition(
            weights=np.array([1.0]), vectors=vec[None, :]
        )
    if kind == "pure":
        _check_keys(block, {"kind", "vector"}, "initial_state.")
        _require("vector" in block, "initial_state.vector", "is required")
        vec = parse_complex_vector(block["vector"], "initial_state.vector")
        _require(vec.shape[0] == d, "initial_state.vector",
                 f"must have dimension {d}")
        norm = float(np.linalg.norm(vec))
        _require(abs(norm - 1.0) < 1e-6, "initial_state.vector",
                 "must be normalized to 1 within 1e-6")
        return InitialDecomposition(
            weights=np.array([1.0]), vectors=(vec / norm)[None, :]
        )
    if kind == "mixed":
        _check_keys(block, {"kind", "matrix"}, "initial_state.")
        _require("matrix" in block, "initial_state.matrix", "is required")
        rho = parse_complex_matrix(block["matrix"], "initial_state.matrix")
        _require(rho.shape == (d, d), "initial_state.matrix",
                 f"must be {d}x{d}")
        try:
            return decompose_density(rho)
        except Exception as exc:
            raise ConfigError("initial_state.matrix", str(exc)) from exc
    if kind == "mixture":
        _check_keys(block, {"kind", "weights", "vectors"}, "initial_state.")
        _require("weights" in block and "vectors" in block,
                 "initial_state", "mixture needs weights and vectors")
        weights = np.asarray(
            _numbers(block["weights"], "initial_state.weights"), dtype=float
        )
        vectors = block["vectors"]
        _require(isinstance(vectors, list) and vectors,
                 "initial_state.vectors", "must be a non-empty list of vectors")
        vecs = np.empty((len(vectors), d), dtype=np.complex128)
        for i, v in enumerate(vectors):
            vec = parse_complex_vector(v, f"initial_state.vectors[{i}]")
            _require(vec.shape[0] == d, f"initial_state.vectors[{i}]",
                     f"must have dimension {d}")
            vecs[i] = vec
        try:
            return InitialDecomposition(weights=weights, vectors=vecs)
        except Exception as exc:
            raise ConfigError("initial_state", str(exc)) from exc
    raise ConfigError(
        "initial_state.kind",
        "must be one of 'basis', 'pure', 'mixed', 'mixture'",
    )


def _build_observables(entries, model: ModelSpec) -> dict:
    """Observables by name, in config order.  A name must not repeat or
    clash with another column of the CSV outputs."""
    reserved = {"time", "weight"} | {
        f"{series}_{l + 1}" for series in "WB" for l in range(model.n_channels)
    }
    out = {}
    for i, entry in enumerate(entries):
        key = f"observables[{i}]"
        if isinstance(entry, str):
            if entry not in KNOWN_OBSERVABLES:
                raise ConfigError(
                    key,
                    f"unknown observable '{entry}' "
                    f"(known: {list(KNOWN_OBSERVABLES)})",
                )
            try:
                name, mat = entry, resolve_observable(entry, model)
            except Exception as exc:
                raise ConfigError(key, str(exc)) from exc
        elif isinstance(entry, dict):
            _check_keys(entry, {"name", "matrix"}, f"{key}.")
            _require("name" in entry and "matrix" in entry,
                     key, "needs 'name' and 'matrix'")
            mat = parse_complex_matrix(entry["matrix"], f"{key}.matrix")
            _require(mat.shape == (model.dim, model.dim), f"{key}.matrix",
                     f"must be {model.dim}x{model.dim}")
            defect = hermiticity_defect(mat)
            _require(defect <= HERMITICITY_TOL, f"{key}.matrix",
                     f"must be Hermitian (hermiticity defect {defect:.3e})")
            name = entry["name"]
            _require(isinstance(name, str), f"{key}.name", "must be a string")
            # a CSV header field: unquoted, so none of the field separators
            _require(name != "" and not any(c in name for c in ',"\r\n'),
                     f"{key}.name",
                     "must be non-empty, without a comma, quote or line break")
        else:
            raise ConfigError(
                key, "must be an observable name or a {name, matrix} object"
            )
        _require(name not in out, key, f"duplicate observable name '{name}'")
        _require(name not in reserved, key,
                 f"name '{name}' is already a CSV column")
        out[name] = mat
    for i, name in enumerate(out):
        _require(not (name.endswith("_se") and name[:-3] in out),
                 f"observables[{i}]",
                 f"name '{name}' is the standard-error column of "
                 f"'{name[:-3]}'")
    return out


@dataclass(frozen=True)
class SimConfig:
    """Fully validated simulation configuration.

    The model, the initial decomposition and the observables are built
    once, when the config is made; a malformed block raises ConfigError.
    """

    model_block: dict
    initial_block: dict
    dt: float
    t_final: float
    n_trajectories: int
    seed: int
    scheme: str
    equation: str
    save_stride: int
    observable_entries: list
    output_dir: str
    renormalize: bool
    dump_densities: bool
    model: ModelSpec = field(init=False, repr=False, compare=False)
    _decomposition: InitialDecomposition = field(
        init=False, repr=False, compare=False)
    _observables: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        model = _build_model(self.model_block)
        object.__setattr__(self, "model", model)
        object.__setattr__(self, "_decomposition",
                           _build_decomposition(self.initial_block, model))
        object.__setattr__(self, "_observables",
                           _build_observables(self.observable_entries, model))

    def decomposition(self) -> InitialDecomposition:
        return self._decomposition

    def observables(self) -> dict:
        return self._observables

    def resolved_dict(self) -> dict:
        return {
            "model": self.model_block,
            "initial_state": self.initial_block,
            "dt": self.dt,
            "t_final": self.t_final,
            "n_trajectories": self.n_trajectories,
            "seed": self.seed,
            "scheme": self.scheme,
            "equation": self.equation,
            "save_stride": self.save_stride,
            "observables": self.observable_entries,
            "output_dir": self.output_dir,
            "renormalize": self.renormalize,
            "dump_densities": self.dump_densities,
        }


def unwrap_manifest(doc) -> dict:
    """The config object of a decoded config document or of a manifest
    around one; a manifest around another manifest is refused."""
    if not isinstance(doc, dict):
        raise ConfigError("<root>", "config must be a JSON object")
    manifest = {"artifact", "version", "config"}
    if manifest <= doc.keys():
        doc = doc["config"]
        if not isinstance(doc, dict) or manifest <= doc.keys():
            raise ConfigError("config",
                              "manifest 'config' must be a config object")
    return doc


def parse_config_dict(doc: dict) -> SimConfig:
    """Validate a decoded config document (or manifest) into a SimConfig."""
    doc = unwrap_manifest(doc)
    _check_keys(doc, _TOP_KEYS, "")
    _require("model" in doc, "model", "is required")

    merged = dict(_DEFAULTS)
    merged.update(doc)

    dt = _number(merged, "dt", "dt")
    _require(dt > 0, "dt", "must be positive")
    t_final = _number(merged, "t_final", "t_final")
    _require(t_final > 0, "t_final", "must be positive")
    _require(dt <= t_final, "dt", "must be <= t_final")
    _require(math.isfinite(t_final / dt), "t_final",
             "t_final / dt must be finite")
    n_traj = merged["n_trajectories"]
    _require(isinstance(n_traj, int) and not isinstance(n_traj, bool)
             and n_traj >= 1, "n_trajectories", "must be an integer >= 1")
    seed = _seed(merged["seed"])
    scheme = merged["scheme"]
    _require(scheme in SCHEMES, "scheme", f"must be one of {SCHEMES}")
    equation = merged["equation"]
    _require(equation in EQUATIONS, "equation", f"must be one of {EQUATIONS}")
    stride = merged["save_stride"]
    _require(isinstance(stride, int) and not isinstance(stride, bool)
             and stride >= 1, "save_stride", "must be an integer >= 1")
    _require(isinstance(merged["renormalize"], bool), "renormalize",
             "must be a boolean")
    _require(isinstance(merged["dump_densities"], bool), "dump_densities",
             "must be a boolean")
    _require(isinstance(merged["output_dir"], str), "output_dir",
             "must be a string")
    _require(isinstance(merged["observables"], list), "observables",
             "must be a list")

    cfg = SimConfig(
        model_block=merged["model"],
        initial_block=merged["initial_state"],
        dt=dt,
        t_final=t_final,
        n_trajectories=n_traj,
        seed=seed,
        scheme=scheme,
        equation=equation,
        save_stride=stride,
        observable_entries=merged["observables"],
        output_dir=merged["output_dir"],
        renormalize=merged["renormalize"],
        dump_densities=merged["dump_densities"],
    )
    if cfg.equation == "nonlinear":
        _require(cfg.decomposition().n_components == 1, "initial_state",
                 "the nonlinear equation needs a pure initial state")
    return cfg


def parse_config(text: str) -> SimConfig:
    """Parse and validate a JSON config document."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError("<root>", f"invalid JSON: {exc}") from exc
    return parse_config_dict(doc)
