import json
import tracemalloc

import numpy as np
import pytest

from siwf import cli
from siwf.recordio import densities_to_json, mean_densities_to_json
from siwf.trajectories import MeanSeries

#: doubles whose shortest repr is easy to get wrong: a signed zero, the
#: smallest subnormal, and the first magnitudes repr writes with an exponent
EDGE_VALUES = [-0.0, 5e-324, 1e16, 1.2345678901234567e17]


def reference(doc: dict) -> str:
    """The writers' format, from one nested list of the whole document."""

    def nest(value):
        if np.iscomplexobj(value):
            return np.stack([value.real, value.imag], -1).tolist()
        return value.tolist() if isinstance(value, np.ndarray) else value

    doc = {key: nest(value) for key, value in doc.items()}
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def stack(n_saved: int, dim: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    out = rng.normal(size=(n_saved, dim, dim)) + 1j * rng.normal(
        size=(n_saved, dim, dim))
    edge = np.resize(EDGE_VALUES, out.size)
    out.real.flat[::3] = edge[::3]
    out.imag.flat[1::3] = -edge[1::3]
    return out


CASES = {
    "edge-values": lambda: stack(5, 3),
    "one-saved-time": lambda: stack(1, 4),
    "one-dimensional": lambda: stack(6, 1),
    "strided": lambda: stack(9, 3)[::2],
    "transposed": lambda: stack(5, 3).transpose(0, 2, 1),
}


def times_for(rho: np.ndarray) -> np.ndarray:
    times = np.arange(rho.shape[0]) * 1e-3
    times[:len(EDGE_VALUES)] = EDGE_VALUES[:rho.shape[0]]
    return times


class TestDensityWriters:
    @pytest.mark.parametrize("case", CASES)
    def test_densities_match_one_shot_dump(self, case):
        rho = CASES[case]()
        times = times_for(rho)
        text = densities_to_json(times, rho)
        assert text == reference({"times": times, "densities": rho})

    @pytest.mark.parametrize("case", CASES)
    def test_mean_densities_match_one_shot_dump(self, case):
        rho = CASES[case]()
        times = times_for(rho)
        se = np.abs(rho.real)
        series = MeanSeries(times=times, mean=rho, se=se, n_traj=300,
                            equation="linear_weighted")
        text = mean_densities_to_json(series)
        assert text == reference({
            "times": times, "mean": rho, "se": se, "n_trajectories": 300,
            "equation": "linear_weighted"})

    def test_peak_memory_is_about_twice_the_text(self):
        # the record of a 16-level system at 501 saved times, ~5.8 MB of
        # text; one nested list of the whole record peaked near 5x the text
        rho = stack(501, 16)
        times = np.arange(501) * 1e-3
        tracemalloc.start()
        try:
            text = densities_to_json(times, rho)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * len(text)


class TestWrite:
    def test_slices_join_to_the_text(self, tmp_path, monkeypatch):
        # slices are cut between characters, so a multi-byte character on a
        # slice boundary is written whole
        monkeypatch.setattr(cli, "_WRITE_CHUNK", 4)
        text = "time,ψ_1\n0.001,2\n" * 3
        cli._write(tmp_path / "out.csv", text)
        assert (tmp_path / "out.csv").read_bytes() == text.encode()
