import json

import numpy as np
import pytest

from siwf.cli import main
from siwf.config import parse_config
from siwf.errors import ConfigError


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

    def test_thread_count_invariance(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path, n_trajectories=600,
                           output_dir=str(tmp_path / "o1"))
        monkeypatch.setenv("SIWF_THREADS", "1")
        assert main(["simulate", "--config", str(cfg)]) == 0
        one = read_outputs(tmp_path / "o1")
        monkeypatch.setenv("SIWF_THREADS", "8")
        assert main(["simulate", "--config", str(cfg),
                     "--output-dir", str(tmp_path / "o8")]) == 0
        eight = read_outputs(tmp_path / "o8")
        assert one["mean.csv"] == eight["mean.csv"]

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

    def test_invalid_config_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"model": {"preset": "qubit"}, "dt": -1}))
        assert main(["simulate", "--config", str(path)]) == 2
        assert "dt" in capsys.readouterr().err


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

    def test_equation_axis(self, tmp_path, capsys):
        a = write_config(tmp_path, "a.json", equation="siwf",
                         output_dir=str(tmp_path / "oa"))
        b = write_config(tmp_path, "b.json", equation="belavkin",
                         output_dir=str(tmp_path / "ob"))
        assert main(["compare", "--a", str(a), "--b", str(b)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["axes"] == ["equation"]
        assert report["max_density_difference"] < 0.05

    def test_incomparable_configs_rejected(self, tmp_path, capsys):
        a = write_config(tmp_path, "a.json", seed=1)
        b = write_config(tmp_path, "b.json", seed=2)
        assert main(["compare", "--a", str(a), "--b", str(b)]) == 2
        assert "axes" in capsys.readouterr().err
