"""Deterministic serialization of records, means and manifests.

Every number is written so that the double reads back exactly and repeated
runs are byte-identical: the CSVs with 17 significant digits (``fmt``), the
JSON files with Python's shortest round-trip repr (a time reads ``0.001``).
The density writers encode one saved time at a time, so they hold about
twice the text at their peak.
"""

from __future__ import annotations

import json

import numpy as np

from .config import SimConfig
from .states import TrajectoryRecord
from .trajectories import MeanSeries


def fmt(x: float) -> str:
    return format(float(x), ".17g")


def _pairs(m: np.ndarray) -> list:
    """Complex entries as nested [re, im] lists."""
    return np.stack([m.real, m.imag], -1).tolist()


_encode = json.JSONEncoder(separators=(",", ":")).encode


def _record_json(doc: dict) -> str:
    """``json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\\n"``
    byte for byte, for a doc whose array values are stacks over the saved
    times.  A stack is encoded one saved time at a time, complex entries as
    [re, im] pairs, and every piece is joined once at the end, so only one
    saved time's nested lists exist at once: the peak is about twice the
    text, against about five times for one nested list of the whole record.
    """
    parts = []
    for key in sorted(doc):
        parts += ["," if parts else "{", _encode(key), ":"]
        value = doc[key]
        if not isinstance(value, np.ndarray):
            parts.append(_encode(value))
            continue
        nest = _pairs if np.iscomplexobj(value) else np.ndarray.tolist
        parts.append("[")
        for k, row in enumerate(value):
            if k:
                parts.append(",")
            parts.append(_encode(nest(row)))
        parts.append("]")
    parts.append("}\n")
    return "".join(parts)


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
    if weights is not None:
        header.append("weight")
    lines = [",".join(header)]
    for k in range(record.n_saved):
        row = [fmt(record.times[k])]
        if n_ch:
            row += [fmt(record.innovations[k, l]) for l in range(n_ch)]
            row += [fmt(record.records[k, l]) for l in range(n_ch)]
        row += [fmt(series[k]) for series in record.observables.values()]
        if weights is not None:
            row.append(fmt(weights[k]))
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def mean_to_csv(series: MeanSeries) -> str:
    """Aggregate Monte Carlo output: time plus mean and SE per observable,
    in the series' own (config) order."""
    header = ["time"]
    for name in series.observable_stats:
        header += [name, f"{name}_se"]
    lines = [",".join(header)]
    for k in range(series.times.shape[0]):
        row = [fmt(series.times[k])]
        for m, s in series.observable_stats.values():
            row += [fmt(m[k]), fmt(s[k])]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


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
