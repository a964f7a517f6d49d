import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from siwf.cli import _load_suite, main
from siwf.config import (parse_complex_matrix, parse_complex_vector,
                         parse_config, parse_config_dict)
from siwf.errors import ConfigError
from siwf.verify import validate_suite_args

SRC = Path(__file__).resolve().parents[1] / "src"


def cfg_text(**overrides):
    doc = {"model": {"preset": "qubit"}}
    doc.update(overrides)
    return json.dumps(doc)


class TestParseConfig:
    def test_minimal_defaults(self):
        cfg = parse_config(cfg_text())
        assert cfg.dt == 1e-3
        assert cfg.scheme == "euler_maruyama"
        assert cfg.renormalize is True
        assert cfg.equation == "siwf"
        assert cfg.save_stride == 1
        assert cfg.model.dim == 2

    def test_zero_dt_rejected(self):
        with pytest.raises(ConfigError) as err:
            parse_config(cfg_text(dt=0))
        assert err.value.key == "dt"
        assert "positive" in err.value.constraint

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_64_bits_rejected(self, seed):
        with pytest.raises(ConfigError) as err:
            parse_config(cfg_text(seed=seed))
        assert err.value.key == "seed"
        assert parse_config(cfg_text(seed=2**64 - 1)).seed == 2**64 - 1

    def test_step_count_bounded_by_array_index(self):
        # 2**59 steps pass; at 2**60 one float64 per step is 2**63 bytes,
        # one more than an array can address.  Only parsed: nothing of that
        # size is made
        assert parse_config(cfg_text(dt=2.0**-59, t_final=1.0)).dt == 2.0**-59
        with pytest.raises(ConfigError) as err:
            parse_config(cfg_text(dt=2.0**-60, t_final=1.0))
        assert err.value.key == "dt"
        # the suite's longest run steps dt / 2 to t = 1
        validate_suite_args(2.0**-58, None)
        with pytest.raises(ConfigError) as err:
            validate_suite_args(2.0**-59, None)
        assert err.value.key == "dt"

    def test_dt_beyond_t_final_rejected(self):
        with pytest.raises(ConfigError) as err:
            parse_config(cfg_text(dt=2.0, t_final=1.0))
        assert err.value.key == "dt"

    def test_rabi_negative_frequency_rejected(self):
        with pytest.raises(ConfigError) as err:
            parse_config(json.dumps(
                {"model": {"preset": "rabi", "omega1": -1}}
            ))
        assert err.value.key == "model.omega1"
        assert "> 0" in err.value.constraint

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigError) as err:
            parse_config(cfg_text(tomato=1))
        assert err.value.key == "tomato"

    def test_unknown_model_key_rejected(self):
        with pytest.raises(ConfigError) as err:
            parse_config(json.dumps(
                {"model": {"preset": "qubit", "omgea": 1.0}}
            ))
        assert err.value.key == "model.omgea"

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ConfigError) as err:
            parse_config(cfg_text(scheme="milstein"))
        assert err.value.key == "scheme"

    def test_custom_model_round_trip(self):
        h = [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]
        l1 = [[[0.0, 0.0], [0.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]
        cfg = parse_config(json.dumps({
            "model": {"preset": "custom", "hamiltonian": h, "lindblads": [l1]},
        }))
        assert np.allclose(cfg.model.hamiltonian,
                           np.array([[0, 1], [1, 0]], dtype=complex))
        assert np.allclose(cfg.model.lindblads[0],
                           np.array([[0, 0], [1, 0]], dtype=complex))

    def test_custom_model_requires_hermitian(self):
        h = [[[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
        with pytest.raises(Exception):
            parse_config(json.dumps(
                {"model": {"preset": "custom", "hamiltonian": h}}
            ))

    @pytest.mark.parametrize("entry", [
        float("nan"), float("inf"), -float("inf"), None, "1", True, 10**400,
    ], ids=["nan", "inf", "-inf", "null", "string", "true", "huge-int"])
    def test_complex_array_entries_must_be_finite_numbers(self, entry):
        # json reads NaN, Infinity and -Infinity as floats
        with pytest.raises(ConfigError) as err:
            parse_complex_vector([[1.0, 0.0], [entry, 0.0]], "v")
        assert err.value.key == "v"
        with pytest.raises(ConfigError) as err:
            parse_complex_matrix([[[1.0, entry]]], "m")
        assert err.value.key == "m"

    def test_mixture_initial_state(self):
        cfg = parse_config(json.dumps({
            "model": {"preset": "qubit"},
            "initial_state": {
                "kind": "mixture",
                "weights": [0.5, 0.5],
                "vectors": [[[1.0, 0.0], [0.0, 0.0]],
                            [[0.0, 0.0], [1.0, 0.0]]],
            },
        }))
        dec = cfg.decomposition()
        assert dec.n_components == 2

    def test_pure_vector_must_be_normalized(self):
        with pytest.raises(ConfigError) as err:
            parse_config(json.dumps({
                "model": {"preset": "qubit"},
                "initial_state": {"kind": "pure",
                                  "vector": [[2.0, 0.0], [0.0, 0.0]]},
            }))
        assert err.value.key == "initial_state.vector"

    def test_basis_index_bounds(self):
        with pytest.raises(ConfigError):
            parse_config(json.dumps({
                "model": {"preset": "qubit"},
                "initial_state": {"kind": "basis", "index": 5},
            }))

    def test_observable_names_resolved(self):
        cfg = parse_config(cfg_text(observables=["sigma_z", "sigma_x"]))
        obs = cfg.observables()
        assert set(obs) == {"sigma_z", "sigma_x"}

    def test_unknown_observable_rejected(self):
        with pytest.raises(ConfigError) as err:
            parse_config(cfg_text(observables=["sigma_q"]))
        assert "sigma_q" in err.value.constraint

    def test_custom_observable_matrix(self):
        entry = {"name": "proj0",
                 "matrix": [[[1.0, 0.0], [0.0, 0.0]],
                            [[0.0, 0.0], [0.0, 0.0]]]}
        cfg = parse_config(cfg_text(observables=[entry]))
        assert np.allclose(cfg.observables()["proj0"], np.diag([1.0, 0.0]))

    def test_nonlinear_needs_pure_state(self):
        with pytest.raises(ConfigError) as err:
            parse_config(json.dumps({
                "model": {"preset": "qubit"},
                "equation": "nonlinear",
                "initial_state": {
                    "kind": "mixture",
                    "weights": [0.5, 0.5],
                    "vectors": [[[1.0, 0.0], [0.0, 0.0]],
                                [[0.0, 0.0], [1.0, 0.0]]],
                },
            }))
        assert err.value.key == "initial_state"

    def test_manifest_unwrapped(self):
        inner = json.loads(cfg_text(seed=9))
        manifest = {"artifact": "siwf", "version": "0", "config": inner}
        cfg = parse_config(json.dumps(manifest))
        assert cfg.seed == 9

    def test_doubly_nested_manifest_names_config(self):
        inner = {"artifact": "siwf", "version": "0",
                 "config": json.loads(cfg_text(seed=3))}
        manifest = {"artifact": "siwf", "version": "0", "config": inner}
        for parse in (lambda: parse_config(json.dumps(manifest)),
                      lambda: parse_config_dict(manifest)):
            with pytest.raises(ConfigError) as err:
                parse()
            assert err.value.key == "config"


UNIT = [[1.0, 0.0], [0.0, 0.0]]
H_X = [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]
H_UPPER = [[[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
NAN, INF = float("nan"), float("inf")


def write_config(tmp_path, name="cfg.json", **overrides):
    path = tmp_path / name
    doc = {
        "model": {"preset": "qubit"},
        "dt": 1e-3,
        "t_final": 0.05,
        "seed": 3,
        "observables": ["sigma_z"],
        "save_stride": 10,
    }
    doc.update(overrides)
    path.write_text(json.dumps(doc))
    return path


def stiff_gksl_config(tmp_path):
    """A gksl run that diverges: RK4 at dt = 1e-3 is unstable on the stiff
    alpha_kin = 50 box, and the first saved non-finite state is step 50."""
    return write_config(
        tmp_path, model={"preset": "box", "alpha_kin": 50, "n_grid": 32},
        initial_state={"kind": "basis", "index": 3}, equation="gksl",
        t_final=0.2, save_stride=50, observables=[],
        output_dir=str(tmp_path / "out"),
    )


def read_outputs(outdir):
    return {p.name: p.read_bytes() for p in sorted(outdir.iterdir())}


class TestSimulateCli:
    def test_repeat_run_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, output_dir=str(tmp_path / "out1"))
        assert main(["simulate", "--config", str(cfg)]) == 0
        first = read_outputs(tmp_path / "out1")
        assert main(["simulate", "--config", str(cfg)]) == 0
        second = read_outputs(tmp_path / "out1")
        assert first == second
        assert "trajectory.csv" in first
        assert "manifest.json" in first

    def test_gksl_single_file(self, tmp_path):
        cfg = write_config(tmp_path, equation="gksl",
                           output_dir=str(tmp_path / "out"))
        assert main(["simulate", "--config", str(cfg)]) == 0
        files = read_outputs(tmp_path / "out")
        assert set(files) == {"manifest.json", "mean.csv"}

    def test_monte_carlo_rerun_identity(self, tmp_path):
        # 600 paths span three blocks; a rerun into a fresh directory
        # reproduces the mean bytes
        cfg = write_config(tmp_path, n_trajectories=600,
                           output_dir=str(tmp_path / "o1"))
        assert main(["simulate", "--config", str(cfg)]) == 0
        first = read_outputs(tmp_path / "o1")
        assert main(["simulate", "--config", str(cfg),
                     "--output-dir", str(tmp_path / "o2")]) == 0
        second = read_outputs(tmp_path / "o2")
        assert first["mean.csv"] == second["mean.csv"]

    def test_diverging_gksl_run_exit_code(self, tmp_path, capsys):
        # the run must fail rather than write NaN rows
        cfg = stiff_gksl_config(tmp_path)
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["simulate", "--config", str(cfg)]) == 2
        assert "step 50" in capsys.readouterr().err
        assert not (tmp_path / "out" / "mean.csv").exists()

    def test_diverging_gksl_run_names_only_dt(self, tmp_path, capsys):
        # gksl_solve runs RK4 whatever the scheme, so only dt is a remedy
        assert main(["simulate", "--config",
                     str(stiff_gksl_config(tmp_path))]) == 2
        err = capsys.readouterr().err
        assert "a smaller dt" in err
        assert "exponential" not in err

    def test_diverging_run_writes_one_error_line(self, tmp_path):
        # numpy's overflow warnings stay quiet; the error names the step
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
        out = subprocess.run(
            [sys.executable, "-m", "siwf", "simulate", "--config",
             str(stiff_gksl_config(tmp_path))],
            env=env, capture_output=True, text=True,
        )
        assert out.returncode == 2
        lines = out.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), out.stderr
        assert "step 50" in lines[0]

    def test_seed_flag_outside_64_bits_rejected(self, tmp_path, capsys):
        # -1 would key the same noise as 2**64 - 1 under another name
        cfg = write_config(tmp_path, output_dir=str(tmp_path / "out"))
        assert main(["simulate", "--config", str(cfg), "--seed", "-1"]) == 2
        assert "seed" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_manifest_rerun_reproduces(self, tmp_path):
        cfg = write_config(tmp_path, output_dir=str(tmp_path / "a"),
                           dump_densities=True)
        assert main(["simulate", "--config", str(cfg)]) == 0
        a = read_outputs(tmp_path / "a")
        assert main(["simulate", "--config", str(tmp_path / "a" / "manifest.json"),
                     "--output-dir", str(tmp_path / "b")]) == 0
        b = read_outputs(tmp_path / "b")
        assert a["trajectory.csv"] == b["trajectory.csv"]
        assert a["densities.json"] == b["densities.json"]

    def test_flag_overrides_config(self, tmp_path):
        cfg = write_config(tmp_path, output_dir=str(tmp_path / "o"))
        assert main(["simulate", "--config", str(cfg), "--seed", "77"]) == 0
        manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
        assert manifest["config"]["seed"] == 77

    def test_linear_equation_emits_weight_column(self, tmp_path):
        cfg = write_config(tmp_path, equation="linear",
                           output_dir=str(tmp_path / "o"))
        assert main(["simulate", "--config", str(cfg)]) == 0
        header = (tmp_path / "o" / "trajectory.csv").read_text().splitlines()[0]
        assert header.split(",")[-1] == "weight"

    def test_t_final_on_the_dt_grid_accepted(self, tmp_path):
        # 0.3 / 0.1 is 2.9999999999999996 in floating point
        cfg = write_config(tmp_path, dt=0.1, t_final=0.3, save_stride=1,
                           output_dir=str(tmp_path / "o"))
        assert main(["simulate", "--config", str(cfg)]) == 0
        rows = (tmp_path / "o" / "trajectory.csv").read_text().splitlines()
        assert [float(r.split(",")[0]) for r in rows[1:]] == pytest.approx(
            [0.0, 0.1, 0.2, 0.3])

    def test_invalid_config_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"model": {"preset": "qubit"}, "dt": -1}))
        assert main(["simulate", "--config", str(path)]) == 2
        assert "dt" in capsys.readouterr().err

    @pytest.mark.parametrize("command, doc, key", [
        ("simulate", {"initial_state": {"kind": "mixture", "weights": "ab",
                                        "vectors": [UNIT]}},
         "initial_state.weights"),
        ("simulate", {"initial_state": {"kind": "mixture", "weights": [1.0],
                                        "vectors": 3}},
         "initial_state.vectors"),
        ("simulate", {"initial_state": {"kind": "mixture", "weights": [],
                                        "vectors": []}},
         "initial_state.vectors"),
        ("simulate", {"model": {"preset": "box", "n_grid": 3,
                                "potential": ["a", "b", "c"]}},
         "model.potential"),
        ("simulate", {"model": {"preset": "custom", "hamiltonian": H_X,
                                "lindblads": 5}},
         "model.lindblads"),
        ("simulate", {"model": {"preset": "custom", "hamiltonian": H_UPPER}},
         "model.hamiltonian"),
        ("simulate", {"observables": [{"name": [1], "matrix": H_X}]},
         "observables[0].name"),
        ("simulate", {"observables": [{"name": "up", "matrix": H_UPPER}]},
         "observables[0].matrix"),
        ("simulate", {"observables": [{"name": "a,b", "matrix": H_X}]},
         "observables[0].name"),
        ("simulate", {"observables": ["sigma_z", {"name": "", "matrix": H_X}]},
         "observables[1].name"),
        ("simulate", {"observables": ["sigma_z", "sigma_z",
                                      {"name": "time", "matrix": H_X}]},
         "observables[1]"),
        ("simulate", {"observables": ["sigma_z",
                                      {"name": "time", "matrix": H_X}]},
         "observables[1]"),
        ("simulate", {"observables": [{"name": "B_1", "matrix": H_X}]},
         "observables[0]"),
        ("simulate", {"equation": "linear",
                      "observables": [{"name": "weight", "matrix": H_X}]},
         "observables[0]"),
        ("simulate", {"observables": [{"name": "sigma_z_se", "matrix": H_X},
                                      "sigma_z"]},
         "observables[0]"),
        ("simulate", {"model": {"preset": "custom",
                                "hamiltonian": [[[NAN, 0.0], [1.0, 0.0]],
                                                [[1.0, 0.0], [0.0, 0.0]]]}},
         "model.hamiltonian"),
        ("simulate", {"model": {"preset": "custom", "hamiltonian": H_X,
                                "lindblads": [[[[INF, 0.0], [0.0, 0.0]],
                                               [[0.0, 0.0], [0.0, 0.0]]]]}},
         "model.lindblads[0]"),
        ("simulate", {"initial_state": {"kind": "mixture", "weights": [1.0],
                                        "vectors": [[[1.0, 0.0], [NAN, 0.0]]]}},
         "initial_state.vectors[0]"),
        ("simulate", {"t_final": float("inf")}, "t_final"),
        ("simulate", {"dt": 1e-10, "t_final": 1e300}, "t_final"),
        ("simulate", {"dt": 0.02, "t_final": 0.07}, "t_final"),
        ("simulate", {"dt": 0.02, "t_final": 0.05}, "t_final"),
        ("verify", {"dt": float("inf"), "checks": ["norm_conservation"]},
         "dt"),
        ("verify", {"dt": 0.003, "checks": ["norm_conservation"]}, "dt"),
        ("verify", {"dt": 1e-300, "checks": ["norm_conservation"]}, "dt"),
        ("verify", {"dt": 5e-324, "checks": ["norm_conservation"]}, "dt"),
    ], ids=["weights-string", "vectors-number", "vectors-empty",
            "potential-strings", "lindblads-number", "non-hermitian",
            "observable-name-list", "observable-non-hermitian",
            "observable-name-comma", "observable-name-empty",
            "observable-duplicate", "observable-named-time",
            "observable-named-record", "observable-named-weight",
            "observable-named-se-column", "hamiltonian-nan",
            "lindblad-infinity", "mixture-vector-nan", "t_final-inf",
            "steps-overflow",
            "t_final-off-grid-up", "t_final-off-grid-down", "suite-dt-inf",
            "suite-dt-off-grid", "suite-steps-beyond-index",
            "suite-steps-infinite"])
    def test_malformed_config_names_key(self, tmp_path, capsys, command, doc,
                                        key):
        if command == "simulate":
            path = write_config(tmp_path, output_dir=str(tmp_path / "o"),
                                **doc)
            argv = ["simulate", "--config", str(path)]
        else:
            path = tmp_path / "suite.json"
            path.write_text(json.dumps(doc))
            argv = ["verify", "--suite", str(path)]
        assert main(argv) == 2
        assert f"config key '{key}'" in capsys.readouterr().err
        # refused before anything is written
        assert not (tmp_path / "o" / "manifest.json").exists()

    def test_manifest_config_not_an_object_names_key(self, tmp_path, capsys):
        # the CLI unwraps a manifest as the library does
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(
            {"artifact": "siwf", "version": "0", "config": [1, 2]}))
        assert main(["simulate", "--config", str(path)]) == 2
        assert "config key 'config'" in capsys.readouterr().err
        with pytest.raises(ConfigError) as err:
            parse_config(path.read_text())
        assert err.value.key == "config"

    def test_doubly_nested_manifest_names_config(self, tmp_path, capsys):
        # a manifest inside a manifest is refused before the flags apply,
        # so nothing runs under the inner seed and output_dir
        inner = json.loads(write_config(
            tmp_path, output_dir=str(tmp_path / "o1")).read_text())
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(
            {"artifact": "siwf", "version": "0",
             "config": {"artifact": "siwf", "version": "0", "config": inner}}))
        assert main(["simulate", "--config", str(path), "--seed", "99",
                     "--output-dir", str(tmp_path / "o2")]) == 2
        assert "config key 'config'" in capsys.readouterr().err
        assert not (tmp_path / "o1").exists()
        assert not (tmp_path / "o2").exists()

    @pytest.mark.parametrize("flags", [[], ["--n-trajectories", "300"]],
                             ids=["single-path", "monte-carlo"])
    def test_tiny_dt_flag_names_dt(self, tmp_path, capsys, flags):
        # 5e298 steps: once a noise array of that many rows was requested
        # after manifest.json was written
        cfg = write_config(tmp_path, output_dir=str(tmp_path / "o"))
        argv = ["simulate", "--config", str(cfg), "--dt", "1e-300", *flags]
        assert main(argv) == 2
        assert "config key 'dt'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("flags", [[], ["--n-trajectories", "300"]],
                             ids=["single-path", "monte-carlo"])
    def test_out_of_memory_dt_names_dt(self, tmp_path, capsys, flags):
        # 5e16 steps: an array can index them but memory cannot hold them
        cfg = write_config(tmp_path, output_dir=str(tmp_path / "o"))
        argv = ["simulate", "--config", str(cfg), "--dt", "1e-18", *flags]
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err
        assert "dt" in err[0]

    def test_failed_run_writes_nothing(self, tmp_path, capsys):
        # the manifest waits for the records, so a diverging run leaves
        # its output directory empty
        assert main(["simulate", "--config",
                     str(stiff_gksl_config(tmp_path))]) == 2
        assert "step 50" in capsys.readouterr().err
        assert list((tmp_path / "out").iterdir()) == []

    def test_unaddressable_step_count_names_dt(self, tmp_path, capsys):
        # 5e18 steps: one float64 per step is more bytes than an array can
        # address.  Only parsed: nothing of that size is made
        cfg = write_config(tmp_path, output_dir=str(tmp_path / "o"))
        assert main(["simulate", "--config", str(cfg), "--dt", "1e-20"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "config key 'dt'" in err[0], err
        assert not (tmp_path / "o").exists()

    def test_unaddressable_noise_block_is_out_of_memory(self, tmp_path,
                                                        capsys):
        # 2**55 steps pass the step bound, but a 256-path block of their
        # noise is 2**66 bytes, more than numpy can address; saving only
        # the ends keeps every other array small, so nothing is made
        cfg = write_config(tmp_path, t_final=1.0, save_stride=2**55,
                           n_trajectories=300,
                           output_dir=str(tmp_path / "o"))
        assert main(["simulate", "--config", str(cfg), "--dt",
                     str(2.0**-55)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1, err
        assert err[0].startswith("error: out of memory, raise dt"), err
        assert list((tmp_path / "o").iterdir()) == []

    def test_output_dir_below_file_exit_code(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        cfg = write_config(tmp_path, output_dir=str(blocker / "sub"))
        assert main(["simulate", "--config", str(cfg)]) == 2
        assert str(blocker / "sub") in capsys.readouterr().err


class TestVerifyCli:
    def test_empty_suite_warns_and_passes(self, tmp_path, capsys):
        suite = tmp_path / "suite.json"
        suite.write_text(json.dumps({"checks": []}))
        assert main(["verify", "--suite", str(suite)]) == 0
        assert "empty suite" in capsys.readouterr().err

    def test_unknown_check_rejected(self, tmp_path):
        suite = tmp_path / "suite.json"
        suite.write_text(json.dumps({"checks": ["not_a_check"]}))
        assert main(["verify", "--suite", str(suite)]) == 2

    @pytest.mark.parametrize("doc, key", [
        ({"n_traj": 50, "checks": ["gksl_mean"]}, "n_traj"),
        ({"dt": "x", "checks": ["model_identities"]}, "dt"),
        ({"seed": 1.5, "checks": ["model_identities"]}, "seed"),
        ({"include_negative_controls": "yes"}, "include_negative_controls"),
        ({"checks": "martingale"}, "checks"),
        ({"checks": ["model_identities"], "output": "missing/r.json"},
         "--output"),
        # the noise key keeps 64 bits: these would alias seeds inside
        ({"seed": -1, "checks": ["model_identities"]}, "seed"),
        ({"seed": 2**64, "checks": ["model_identities"]}, "seed"),
    ])
    def test_malformed_suite_names_key(self, tmp_path, capsys, doc, key):
        doc = dict(doc)
        output = doc.pop("output", None)
        suite = tmp_path / "suite.json"
        suite.write_text(json.dumps(doc))
        argv = ["verify", "--suite", str(suite)]
        if output:
            argv += ["--output", str(tmp_path / output)]
        assert main(argv) == 2
        assert key in capsys.readouterr().err

    def test_out_of_memory_dt_names_dt(self, tmp_path, capsys):
        # 1e15 steps for the unit-time checks
        suite = tmp_path / "suite.json"
        suite.write_text(json.dumps({"dt": 1e-15}))
        assert main(["verify", "--suite", str(suite)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err
        assert "dt" in err[0]

    def test_small_suite_report(self, tmp_path, capsys):
        suite = tmp_path / "suite.json"
        suite.write_text(json.dumps({
            "checks": ["model_identities", "record_consistency"],
            "n_traj": 200,
            "seed": 42,
        }))
        out = tmp_path / "report.json"
        code = main(["verify", "--suite", str(suite), "--output", str(out)])
        assert code == 0
        reports = json.loads(out.read_text())
        assert all(r["passed"] == (r["statistic"] <= r["threshold"])
                   for r in reports)
        assert any(not r["passed"] is None for r in reports)
        table = capsys.readouterr().out
        assert "PASS" in table


class TestCompareCli:
    def test_identical_configs_zero_difference(self, tmp_path, capsys):
        a = write_config(tmp_path, "a.json", output_dir=str(tmp_path / "oa"))
        b = write_config(tmp_path, "b.json", output_dir=str(tmp_path / "ob"))
        assert main(["compare", "--a", str(a), "--b", str(b)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["max_density_difference"] == 0.0

    def test_tiny_dt_names_dt(self, tmp_path, capsys):
        a = write_config(tmp_path, "a.json", output_dir=str(tmp_path / "oa"))
        b = write_config(tmp_path, "b.json", dt=1e-300,
                         output_dir=str(tmp_path / "ob"))
        assert main(["compare", "--a", str(a), "--b", str(b)]) == 2
        assert "config key 'dt'" in capsys.readouterr().err

    def test_dt_halving_reports_convergence(self, tmp_path, capsys):
        a = write_config(tmp_path, "a.json", dt=2e-3, t_final=0.1,
                         output_dir=str(tmp_path / "oa"))
        b = write_config(tmp_path, "b.json", dt=1e-3, t_final=0.1,
                         output_dir=str(tmp_path / "ob"))
        assert main(["compare", "--a", str(a), "--b", str(b)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["axes"] == ["dt"]
        assert "convergence" in report
        assert report["convergence"]["ratio"] > 0

    def test_gksl_dt_axis_reports_convergence(self, tmp_path, capsys):
        model = {"preset": "qubit", "monitor": "x"}
        a = write_config(tmp_path, "a.json", equation="gksl", dt=0.02,
                         t_final=0.2, model=model, output_dir=str(tmp_path / "oa"))
        b = write_config(tmp_path, "b.json", equation="gksl", dt=0.01,
                         t_final=0.2, model=model, output_dir=str(tmp_path / "ob"))
        assert main(["compare", "--a", str(a), "--b", str(b)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["axes"] == ["dt"]
        conv = report["convergence"]
        # RK4: halving the step cuts the discrepancy about 16-fold
        assert 0 < conv["fine_vs_finer"] < conv["coarse_vs_fine"]
        assert conv["ratio"] > 8

    def test_equation_axis(self, tmp_path, capsys):
        a = write_config(tmp_path, "a.json", equation="siwf",
                         output_dir=str(tmp_path / "oa"))
        b = write_config(tmp_path, "b.json", equation="belavkin",
                         output_dir=str(tmp_path / "ob"))
        assert main(["compare", "--a", str(a), "--b", str(b)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["axes"] == ["equation"]
        assert report["max_density_difference"] < 0.05

    def test_dt_multiple_uses_the_simulate_grid_rule(self, tmp_path, capsys):
        # 4 dt within the relative 1e-9 that simulate accepts on its grid
        a = write_config(tmp_path, "a.json", dt=0.00400000000004, t_final=0.2,
                         output_dir=str(tmp_path / "oa"))
        b = write_config(tmp_path, "b.json", dt=0.001, t_final=0.2,
                         output_dir=str(tmp_path / "ob"))
        assert main(["simulate", "--config", str(a)]) == 0
        capsys.readouterr()
        assert main(["compare", "--a", str(a), "--b", str(b)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["axes"] == ["dt"]

    def test_dt_not_a_multiple_rejected(self, tmp_path, capsys):
        a = write_config(tmp_path, "a.json", dt=0.0025, t_final=0.1)
        b = write_config(tmp_path, "b.json", dt=0.001, t_final=0.1)
        assert main(["compare", "--a", str(a), "--b", str(b)]) == 2
        assert "not an integer multiple of the finer dt 0.001" in (
            capsys.readouterr().err)

    def test_t_final_off_the_coarse_grid_rejected(self, tmp_path, capsys):
        a = write_config(tmp_path, "a.json", dt=0.02, t_final=0.05)
        b = write_config(tmp_path, "b.json", dt=0.01, t_final=0.05)
        assert main(["compare", "--a", str(a), "--b", str(b)]) == 2
        err = capsys.readouterr().err
        assert "t_final 0.05" in err and "dt 0.02" in err and "dt 0.01" in err

    def test_t_final_off_the_shared_grid_rejected(self, tmp_path, capsys):
        a = write_config(tmp_path, "a.json", dt=0.02, t_final=0.07)
        b = write_config(tmp_path, "b.json", dt=0.02, t_final=0.07,
                         scheme="exponential_em")
        assert main(["compare", "--a", str(a), "--b", str(b)]) == 2
        assert "config key 't_final'" in capsys.readouterr().err

    def test_incomparable_configs_rejected(self, tmp_path, capsys):
        a = write_config(tmp_path, "a.json", seed=1)
        b = write_config(tmp_path, "b.json", seed=2)
        assert main(["compare", "--a", str(a), "--b", str(b)]) == 2
        assert "axes" in capsys.readouterr().err


CLI_GOLDEN_FILE = Path(__file__).parent / "data" / "golden_cli.sha256"

MIXED_QUBIT = {"kind": "mixed",
               "matrix": [[[0.65, 0.0], [0.15, 0.05]],
                          [[0.15, -0.05], [0.35, 0.0]]]}
PURE_QUBIT = {"kind": "pure", "vector": [[0.8, 0.0], [0.0, 0.6]]}
PROJ0 = {"name": "proj0", "matrix": [[[1.0, 0.0], [0.0, 0.0]],
                                     [[0.0, 0.0], [0.0, 0.0]]]}


def cli_golden_digests(root: Path, monkeypatch) -> dict:
    """sha256 of every file the CLI writes for the golden cases, keyed by
    its path below ``root``.  Output directories are relative, so the
    manifests do not depend on ``root``."""
    base = {
        "model": {"preset": "qubit", "omega": 1.0, "gamma": 0.8,
                  "monitor": "x"},
        "initial_state": MIXED_QUBIT,
        "dt": 1e-3, "t_final": 0.03, "seed": 11, "save_stride": 4,
        "observables": ["sigma_z", "sigma_x", PROJ0],
        "dump_densities": True,
    }
    configs = root / "configs"
    configs.mkdir()

    def config(name, **changes):
        path = configs / f"{name}.json"
        path.write_text(json.dumps(dict(base, output_dir=name, **changes)))
        return str(path)

    def simulate(name, equation, **changes):
        if equation == "nonlinear":
            changes["initial_state"] = PURE_QUBIT
        path = config(name, equation=equation, **changes)
        assert main(["simulate", "--config", path]) == 0

    (root / "t1").mkdir()
    monkeypatch.chdir(root / "t1")
    for equation in ("siwf", "nonlinear", "linear", "belavkin"):
        simulate(f"mc-{equation}", equation, n_trajectories=300)
    for equation in ("siwf", "nonlinear", "linear", "belavkin", "gksl"):
        simulate(f"path-{equation}", equation)
    a = config("cmp-a", dt=2e-3, save_stride=1)
    b = config("cmp-b", dt=1e-3, save_stride=1)
    assert main(["compare", "--a", a, "--b", b,
                 "--output", "compare.json"]) == 0
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted((root / "t1").rglob("*"))
        if p.is_file()
    }


class TestGoldenCli:
    def test_cli_output_regression(self, tmp_path, monkeypatch, capsys):
        expected = dict(
            line.split() for line in CLI_GOLDEN_FILE.read_text().splitlines()
        )
        assert cli_golden_digests(tmp_path, monkeypatch) == expected, (
            "CLI output bytes changed; if intentional, regenerate "
            "tests/data/golden_cli.sha256 with cli_golden_digests()"
        )


README = Path(__file__).parents[1] / "README.md"


def test_readme_examples_parse(tmp_path):
    blocks = [json.loads(text) for text in
              re.findall(r"```json\n(.*?)```", README.read_text(), re.S)]
    configs = [doc for doc in blocks if "model" in doc]
    suites = [doc for doc in blocks if "checks" in doc]
    assert configs and suites
    for doc in configs:
        parse_config_dict(doc)
    for doc in suites:
        path = tmp_path / "suite.json"
        path.write_text(json.dumps(doc))
        _load_suite(str(path))
