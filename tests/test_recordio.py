import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siwf import cli, recordio
from siwf.recordio import (densities_to_json, mean_densities_to_json,
                           mean_to_csv, record_to_csv)
from siwf.states import TrajectoryRecord
from siwf.trajectories import MeanSeries

#: doubles whose shortest repr is easy to get wrong: a signed zero, the
#: smallest subnormal, and the first magnitudes repr writes with an exponent
EDGE_VALUES = [-0.0, 5e-324, 1e16, 1.2345678901234567e17]

#: doubles json spells apart from repr: NaN (with either sign bit),
#: Infinity and -Infinity
NONFINITE = [math.nan, math.copysign(math.nan, -1.0), math.inf, -math.inf]


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


def signs_across_chunks() -> np.ndarray:
    """A stack of three and a half 2048-float chunks whose first entry is
    0.3 and whose last is -0.3, with NaN and Infinity of both signs."""
    out = stack(224, 4)
    out[0, 0, 0] = 0.3 + 1j * math.inf
    out[-1, -1, -1] = -0.3 - 1j * math.inf
    out[100, 1, 2] = complex(NONFINITE[0], NONFINITE[1])
    return out


CASES = {
    "edge-values": lambda: stack(5, 3),
    "one-saved-time": lambda: stack(1, 4),
    "one-dimensional": lambda: stack(6, 1),
    "strided": lambda: stack(9, 3)[::2],
    "transposed": lambda: stack(5, 3).transpose(0, 2, 1),
    "no-saved-times": lambda: stack(0, 3),
    "signs-across-chunks": signs_across_chunks,
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


#: the magnitudes a drawn stack is built from: a stack of few magnitudes
#: with both signs repeats them within and across chunks
MAGNITUDES = st.one_of(
    st.sampled_from(EDGE_VALUES + NONFINITE + [2.2250738585072014e-308,
                                               1e-310, 0.1]),
    st.floats(width=64),
)


@st.composite
def stacks(draw) -> np.ndarray:
    """A complex stack over 0-11 saved times of d x d matrices, d = 1-4:
    Hermitian or not, contiguous, every other saved time, or transposed."""
    n_saved = draw(st.integers(0, 11))
    dim = draw(st.integers(1, 4))
    pool = np.array(draw(st.lists(MAGNITUDES, min_size=1, max_size=6)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    layout = draw(st.sampled_from(["contiguous", "strided", "transposed"]))
    rows = 2 * n_saved if layout == "strided" else n_saved
    shape = (rows, dim, dim, 2)
    parts = rng.choice(pool, size=shape) * rng.choice([-1.0, 1.0], size=shape)
    # a view, as complex arithmetic would turn 1j * inf into nan + inf j
    out = parts.view(np.complex128)[..., 0]
    if draw(st.booleans()):
        diag = out.real.diagonal(axis1=1, axis2=2).copy()
        out = np.triu(out, 1)
        out += out.conj().transpose(0, 2, 1)
        out[:, range(dim), range(dim)] = diag
    if layout == "strided":
        return out[::2]
    return out.transpose(0, 2, 1) if layout == "transposed" else out


class TestDrawnStacks:
    @settings(max_examples=50, derandomize=True, deadline=None)
    @given(rho=stacks(), chunk=st.sampled_from([1, 5, 16, 2048]))
    def test_writers_match_one_shot_dump(self, rho, chunk):
        # small chunks put one magnitude's two signs in different chunks
        # and end the stack mid-chunk; the imaginary parts are a strided
        # real view, as an SE stack may be
        times = times_for(rho)
        se = rho.imag
        with mock.patch.object(recordio, "_CHUNK_FLOATS", chunk):
            dens = densities_to_json(times, rho)
            series = MeanSeries(times=times, mean=rho, se=se, n_traj=7,
                                equation="siwf")
            mean = mean_densities_to_json(series)
        assert dens == reference({"times": times, "densities": rho})
        assert mean == reference({
            "times": times, "mean": rho, "se": se, "n_trajectories": 7,
            "equation": "siwf"})


def csv_reference(header: list, columns: list) -> str:
    """Each entry formatted on its own, as the CSV writers once did."""
    rows = [",".join(header)]
    for k in range(len(columns[0])):
        rows.append(",".join(format(float(c[k]), ".17g") for c in columns))
    return "\n".join(rows) + "\n"


def csv_values(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.resize(EDGE_VALUES + NONFINITE, n) * rng.normal(size=n)


class TestCsvWriters:
    @pytest.mark.parametrize("n_ch", [0, 1, 2])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_record_matches_per_entry_format(self, n_ch, weighted):
        # no channels is the deterministic gksl mean's record
        n = 9
        inn = csv_values(n * n_ch, 1).reshape(n, n_ch) if n_ch else None
        rec = csv_values(n * n_ch, 2).reshape(n, n_ch) if n_ch else None
        obs = {"sigma_z": csv_values(n, 3), "number": csv_values(n, 4)}
        record = TrajectoryRecord(times=times_for(np.zeros(n)),
                                  densities=np.zeros((n, 2, 2)),
                                  innovations=inn, records=rec,
                                  observables=obs)
        weights = csv_values(n, 5) if weighted else None
        header = ["time"]
        header += [f"W_{l + 1}" for l in range(n_ch)]
        header += [f"B_{l + 1}" for l in range(n_ch)]
        header += list(obs)
        columns = [record.times]
        columns += [inn[:, l] for l in range(n_ch)]
        columns += [rec[:, l] for l in range(n_ch)]
        columns += list(obs.values())
        if weighted:
            header.append("weight")
            columns.append(weights)
        assert record_to_csv(record, weights) == csv_reference(header, columns)

    def test_mean_matches_per_entry_format(self):
        n = 7
        stats = {"sigma_z": (csv_values(n, 1), csv_values(n, 2)),
                 "number": (csv_values(n, 3), csv_values(n, 4))}
        series = MeanSeries(times=times_for(np.zeros(n)),
                            mean=np.zeros((n, 2, 2)), se=np.zeros((n, 2, 2)),
                            n_traj=300, equation="siwf",
                            observable_stats=stats)
        header = ["time", "sigma_z", "sigma_z_se", "number", "number_se"]
        columns = [series.times, *stats["sigma_z"], *stats["number"]]
        assert mean_to_csv(series) == csv_reference(header, columns)


class TestWrite:
    def test_slices_join_to_the_text(self, tmp_path, monkeypatch):
        # slices are cut between characters, so a multi-byte character on a
        # slice boundary is written whole
        monkeypatch.setattr(cli, "_WRITE_CHUNK", 4)
        text = "time,ψ_1\n0.001,2\n" * 3
        cli._write(tmp_path / "out.csv", text)
        assert (tmp_path / "out.csv").read_bytes() == text.encode()
