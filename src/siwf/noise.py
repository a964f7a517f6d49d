"""Seeded Brownian increments shared across integrators.

Streams are keyed by (seed, stream index) through a counter-based Philox
generator, so per-trajectory substreams are collision-free and bit-stable
whichever block of trajectories draws them.  Gaussian variates come
from the inverse normal CDF applied to Philox uniforms: one uniform per
increment, no rejection sampling, so the draw count per step is fixed.

The inverse CDF is ``_ndtri``, a numpy port of the Cephes ``ndtri``.  Its
central branch is rational arithmetic only and matches the C ``ndtri`` bit
for bit; the tail branch (about 27 % of draws) calls numpy's ``log``, so
the last bits of tail draws follow numpy's ``log``, not the C library's
(a few ulp apart at most).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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


# Cephes ndtri (S. L. Moshier, Cephes Math Library), its coefficients,
# branches and order of operations.  P0/Q0 serve |y - 1/2| <= 1/2 - exp(-2),
# P1/Q1 the tail with z = sqrt(-2 log y) in [2, 8) and P2/Q2 z in [8, 64),
# that is y below exp(-32) = 1.27e-14.  Q0/Q1/Q2 omit their leading 1.
_EXPM2 = 0.13533528323661269189  # exp(-2)
_S2PI = 2.50662827463100050242  # sqrt(2 pi)
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1,
       -5.66762857469070293439e1, 1.39312609387279679503e1,
       -1.23916583867381258016e0)
_Q0 = (1.95448858338141759834e0, 4.67627912898881538453e0,
       8.63602421390890590575e1, -2.25462687854119370527e2,
       2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1,
       5.71628192246421288162e1, 4.40805073893200834700e1,
       1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2,
       -8.57456785154685413611e-4)
_Q1 = (1.57799883256466749731e1, 4.53907635128879210584e1,
       4.13172038254672030440e1, 1.50425385692907503408e1,
       2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0,
       3.93881025292474443415e0, 1.33303460815807542389e0,
       2.01485389549179081538e-1, 1.23716634817820021358e-2,
       3.01581553508235416007e-4, 2.65806974686737550832e-6,
       6.23974539184983293730e-9)
_Q2 = (6.02427039364742014255e0, 3.67983563856160859403e0,
       1.37702099489081330271e0, 2.16236993594496635890e-1,
       1.34204006088543189037e-2, 3.28014464682127739104e-4,
       2.89247864745380683936e-6, 6.79019408009981274425e-9)

# values per _ndtri call: its four working arrays (1 MiB) stay in L2.  On a
# 2-vCPU Xeon (48 KiB L1d, 2 MiB L2 per core) a 256k-value block costs, per
# value, 53 ns in one call, 31 ns in 32k-value chunks, 33 ns in 16k and
# 47 ns in 4k ones (per-call overhead).
_CHUNK = 1 << 15


def _polevl(x, coef, out):
    """Cephes polevl: coef[0] x^N + ... + coef[N] by Horner, into ``out``."""
    np.multiply(x, coef[0], out=out)
    for c in coef[1:-1]:
        out += c
        out *= x
    out += coef[-1]
    return out


def _p1evl(x, coef, out):
    """Cephes p1evl: polevl with an implied leading coefficient 1."""
    np.add(x, coef[0], out=out)
    for c in coef[1:]:
        out *= x
        out += c
    return out


def _ndtri(u: np.ndarray) -> np.ndarray:
    """Inverse standard normal CDF of a 1-d float64 array, in place.

    Cephes ``ndtri`` vectorised: the central branch runs over the whole
    array and the tail subset is then overwritten.  Inputs are uniforms in
    [0, 1); a 0 is read as 2**-64, so the result is finite.
    """
    hi = u > 1.0 - _EXPM2
    idx = np.flatnonzero(hi | (u <= _EXPM2))
    y = u[idx]
    flip = hi[idx]
    np.subtract(1.0, y, out=y, where=flip)
    np.maximum(y, 2.0**-64, out=y)

    # central branch: sqrt(2 pi) (y + y (y2 P0(y2) / Q0(y2))), y = u - 1/2
    u -= 0.5
    y2 = u * u
    num = _polevl(y2, _P0, np.empty_like(u))
    num *= y2
    num /= _p1evl(y2, _Q0, y2.copy())
    num *= u
    u += num
    u *= _S2PI

    # tail: x0 - x1 with x = sqrt(-2 log y), x0 = x - log x / x, z = 1 / x and
    # x1 = z P(z) / Q(z); negative where y = u (below 1/2)
    if idx.size:
        x = np.log(y)
        x *= -2.0
        np.sqrt(x, out=x)
        z = 1.0 / x
        x1 = _rational_tail(z, _P1, _Q1)
        far = np.flatnonzero(x >= 8.0)
        if far.size:
            x1[far] = _rational_tail(z[far], _P2, _Q2)
        lx = np.log(x)
        lx /= x
        x -= lx
        x -= x1
        np.negative(x, out=x, where=~flip)
        u[idx] = x
    return u


def _rational_tail(z, p, q):
    """z P(z) / Q(z), the tail correction x1 of Cephes ndtri."""
    num = _polevl(z, p, np.empty_like(z))
    num *= z
    num /= _p1evl(z, q, np.empty_like(z))
    return num


def _uniforms(seed: int, streams: list, out: np.ndarray) -> None:
    """Fill ``out[b]`` with the [0, 1) uniforms of Philox key (seed, streams[b]).

    One bit generator serves the block and is rekeyed per stream: a state
    reset (3.3 us) costs about a quarter of constructing a Philox (12 us).
    """
    bitgen = np.random.Philox(key=0)
    gen = np.random.Generator(bitgen)
    key = np.array([int(seed) & _MASK64, 0], dtype=np.uint64)
    state = bitgen.state  # counter 0, empty buffer: a fresh generator's
    state["state"]["key"] = key
    for b, s in enumerate(streams):
        key[1] = int(s) & _MASK64
        bitgen.state = state
        gen.random(out=out[b])


def generate_noise(
    seed: int, n_channels: int, dt: float, n_steps: int, stream: int = 0
) -> NoisePath:
    """Deterministic N(0, dt) increments for substream (seed, stream)."""
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
    if not dt > 0:
        raise ValueError("dt must be positive")
    if n_steps < 0 or n_channels < 0:
        raise ValueError("n_steps and n_channels must be non-negative")
    streams = list(streams)
    out = np.empty((len(streams), n_steps, n_channels))
    _uniforms(seed, streams, out)
    flat = out.reshape(-1)
    scale = np.sqrt(dt)
    for start in range(0, flat.size, _CHUNK):
        chunk = _ndtri(flat[start : start + _CHUNK])
        chunk *= scale
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
