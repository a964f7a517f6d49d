"""Deterministic serialization of records, means and manifests.

Every number is written so that the double reads back exactly and repeated
runs are byte-identical.  A CSV row is one ``"%.17g,..." % row`` call,
which writes each float as ``format(x, ".17g")`` does.  The JSON records
are ``json.dumps`` byte for byte, each float in Python's shortest
round-trip repr (a time reads ``0.001``).  The density writers take a
stack a chunk of whole saved times at a time and format each distinct
magnitude of a chunk once: a Hermitian density holds each off-diagonal
magnitude twice.  They hold about twice the text at their peak.
"""

from __future__ import annotations

import json

import numpy as np

from .config import SimConfig
from .states import TrajectoryRecord
from .trajectories import MeanSeries


_encode = json.JSONEncoder(separators=(",", ":")).encode

#: floats formatted per chunk of a stack, rounded down to whole saved times
#: (at least one)
_CHUNK_FLOATS = 1 << 11

#: json's spelling of a non-finite magnitude and of its negation; json
#: writes no sign on a NaN
_NONFINITE = {"inf": ("Infinity", "-Infinity"), "nan": ("NaN", "NaN")}


def _stack_parts(value: np.ndarray):
    """``_encode`` of a stack over the saved times nested as lists, complex
    entries as [re, im] pairs, in pieces.

    The stack is cut into chunks of whole saved times.  Each chunk's floats
    are formatted once per distinct magnitude, a sign prefixed where the
    float has one: a Hermitian density repeats every off-diagonal
    magnitude.  The brackets and commas around them are cut from
    ``_encode`` of one saved time of zeros."""
    pairs = np.iscomplexobj(value)
    zeros = np.zeros(value.shape[1:] + ((2,) if pairs else ()))
    # one saved time with a %s for each float; json writes no "%" there
    time_fmt = "%s".join(_encode(zeros.tolist()).split("0.0"))
    n_times = max(1, _CHUNK_FLOATS // zeros.size)
    dtype = np.complex128 if pairs else np.float64
    yield "["
    for start in range(0, len(value), n_times):
        chunk = np.ascontiguousarray(value[start:start + n_times], dtype=dtype)
        flat = chunk.view(np.float64).ravel()
        mags, inv = np.unique(np.abs(flat), return_inverse=True)
        text = list(map(float.__repr__, mags.tolist()))
        neg = ["-" + s for s in text]
        # unique sorts the finite magnitudes first
        for i in range(np.count_nonzero(np.isfinite(mags)), len(text)):
            text[i], neg[i] = _NONFINITE[text[i]]
        table = np.array(text + neg, dtype=object)
        signed = table[inv + np.signbit(flat) * len(text)]
        if start:
            yield ","
        yield ",".join([time_fmt] * len(chunk)) % tuple(signed.tolist())
    yield "]"


def _record_json(doc: dict) -> str:
    """``json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\\n"``
    byte for byte, for a doc whose array values are stacks over the saved
    times.  A stack is encoded a chunk of saved times at a time and every
    piece is joined once at the end, so the peak is about twice the text,
    against about five times for one nested list of the whole record.
    """
    parts = []
    for key in sorted(doc):
        parts += ["," if parts else "{", _encode(key), ":"]
        value = doc[key]
        if isinstance(value, np.ndarray):
            parts += _stack_parts(value)
        else:
            parts.append(_encode(value))
    parts.append("}\n")
    return "".join(parts)


def _csv(header: list, columns: list) -> str:
    """The header, then one row per entry of the columns, each float with
    17 significant digits as ``format(float(x), ".17g")`` writes it."""
    table = np.column_stack(columns)
    row = ",".join(["%.17g"] * table.shape[1])
    lines = [",".join(header)]
    lines += [row % tuple(values) for values in table.tolist()]
    return "\n".join(lines) + "\n"


def record_to_csv(
    record: TrajectoryRecord, weights: np.ndarray | None = None
) -> str:
    """One row per saved time: time, W_l, B_l, observables [, weight].

    Observable columns follow the record's own (config) order."""
    n_ch = record.innovations.shape[1] if record.innovations is not None else 0
    header = ["time"]
    header += [f"W_{l + 1}" for l in range(n_ch)]
    header += [f"B_{l + 1}" for l in range(n_ch)]
    header += list(record.observables)
    columns = [record.times]
    if n_ch:
        columns += [record.innovations, record.records]
    columns += list(record.observables.values())
    if weights is not None:
        header.append("weight")
        columns.append(weights)
    return _csv(header, columns)


def mean_to_csv(series: MeanSeries) -> str:
    """Aggregate Monte Carlo output: time plus mean and SE per observable,
    in the series' own (config) order."""
    header = ["time"]
    columns = [series.times]
    for name, (m, s) in series.observable_stats.items():
        header += [name, f"{name}_se"]
        columns += [m, s]
    return _csv(header, columns)


def densities_to_json(times: np.ndarray, densities: np.ndarray) -> str:
    """Full complex density matrices per saved time as [re, im] pairs."""
    return _record_json({"times": times.tolist(), "densities": densities})


def mean_densities_to_json(series: MeanSeries) -> str:
    """The Monte Carlo mean density per saved time as [re, im] pairs and
    its entrywise standard error."""
    return _record_json({
        "times": series.times.tolist(),
        "mean": series.mean,
        "se": series.se,
        "n_trajectories": series.n_traj,
        "equation": series.equation,
    })


def manifest_json(cfg: SimConfig, version: str) -> str:
    doc = {
        "artifact": "siwf",
        "version": version,
        "config": cfg.resolved_dict(),
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def reports_to_json(reports) -> str:
    return (
        json.dumps(
            [r.to_dict() for r in reports], sort_keys=True, indent=2
        )
        + "\n"
    )
