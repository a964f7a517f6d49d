"""Seeded Brownian increments shared across integrators.

Streams are keyed by (seed, stream index) through a counter-based Philox
generator, so per-trajectory substreams are collision-free and bit-stable
whichever block of trajectories draws them.  Gaussian variates come
from the inverse normal CDF applied to Philox uniforms: one uniform per
increment, no rejection sampling, so the draw count per step is fixed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class NoisePath:
    """Brownian increments for one trajectory.

    ``increments[k, l]`` is the increment of channel l over step k, drawn
    N(0, dt).  The array is a pure function of (seed, stream, n_channels,
    dt, n_steps): regenerating with the same tuple is bit-identical.
    """

    seed: int
    n_channels: int
    dt: float
    n_steps: int
    increments: np.ndarray
    stream: int = 0

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.increments.shape != (self.n_steps, self.n_channels):
            raise ValueError(
                f"increments shape {self.increments.shape} does not match "
                f"(n_steps, n_channels) = ({self.n_steps}, {self.n_channels})"
            )


def _uniforms(seed: int, stream: int, shape: tuple[int, ...]) -> np.ndarray:
    key = np.array([int(seed) & _MASK64, int(stream) & _MASK64], dtype=np.uint64)
    gen = np.random.Generator(np.random.Philox(key=key))
    return gen.random(shape)


def _gaussians(seed: int, stream: int, shape: tuple[int, ...]) -> np.ndarray:
    u = _uniforms(seed, stream, shape)
    # random() samples [0, 1); guard the measure-zero endpoint for ndtri
    np.clip(u, 2.0**-64, None, out=u)
    return ndtri(u)


def generate_noise(
    seed: int, n_channels: int, dt: float, n_steps: int, stream: int = 0
) -> NoisePath:
    """Deterministic N(0, dt) increments for substream (seed, stream)."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    if n_steps < 0 or n_channels < 0:
        raise ValueError("n_steps and n_channels must be non-negative")
    inc = generate_noise_block(seed, n_channels, dt, n_steps, [stream])[0]
    inc.setflags(write=False)
    return NoisePath(
        seed=seed,
        n_channels=n_channels,
        dt=dt,
        n_steps=n_steps,
        increments=inc,
        stream=stream,
    )


def generate_noise_block(
    seed: int, n_channels: int, dt: float, n_steps: int, streams
) -> np.ndarray:
    """Increments for many substreams at once: shape (len(streams), n_steps, M).

    Row b equals generate_noise(seed, ..., stream=streams[b]).increments.
    """
    streams = list(streams)
    out = np.empty((len(streams), n_steps, n_channels))
    for b, s in enumerate(streams):
        out[b] = _gaussians(seed, s, (n_steps, n_channels))
    out *= np.sqrt(dt)
    return out


def coarsen(path: NoisePath, factor: int) -> NoisePath:
    """Sum consecutive groups of ``factor`` increments: the same Brownian
    path sampled on a grid ``factor`` times coarser."""
    if factor < 1:
        raise ValueError("factor must be >= 1")
    if path.n_steps % factor != 0:
        raise ValueError(
            f"n_steps {path.n_steps} is not divisible by factor {factor}"
        )
    if factor == 1:
        return path
    n_coarse = path.n_steps // factor
    inc = path.increments.reshape(n_coarse, factor, path.n_channels).sum(axis=1)
    inc.setflags(write=False)
    return NoisePath(
        seed=path.seed,
        n_channels=path.n_channels,
        dt=path.dt * factor,
        n_steps=n_coarse,
        increments=inc,
        stream=path.stream,
    )
