"""Deterministic, platform-independent random streams based on SplitMix64.

Every stochastic choice in the package (synthetic extraction, parameter
initialization, subsampling, cluster generation) draws from a SplitMix64
stream so results are reproducible from a seed alone, independent of numpy
version or platform.

The generator is fully specified here so an independent implementation can
reproduce every draw:

* ``mix64(z)``: ``z ^= z >> 30; z *= 0xBF58476D1CE4E5B9; z ^= z >> 27;
  z *= 0x94D049BB133111EB; z ^= z >> 31`` with all arithmetic mod 2**64.
* next output: ``state = (state + 0x9E3779B97F4A7C15) mod 2**64`` then
  ``mix64(state)``.
* stream keying (see :func:`stream`): ``h = mix64(seed)``; for each token,
  take its bytes (UTF-8 for strings, 8-byte little-endian for ints), then
  ``h = mix64(h ^ len(bytes))`` followed by ``h = mix64(h ^ b)`` per byte.
* float: ``u64 / 2**64``, the u64 rounded to the nearest float64 (ties to
  even) and scaled exactly. This lies in ``[0, 1)`` except for the top
  ``2**10`` outputs, which round up to exactly ``1.0``.

Bulk draws (:meth:`SplitMix64.floats`) equal ``n`` scalar draws bit for
bit and leave the stream where those ``n`` draws would. They compute state
``i`` as ``state + i * 0x9E3779B97F4A7C15`` and run :func:`mix64` on numpy
uint64 arrays, whose arithmetic wraps mod 2**64, in chunks of 4,096
draws written into one preallocated output, so the uint64 temporaries
stay a few tens of kilobytes whatever ``n`` is. Callers derive
every other range with exact IEEE-754 operations on the floats, e.g.
``2 * f - 1`` for a signed unit.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ArgumentError

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_TWO64 = 2.0**64
_CHUNK = 4096


def mix64(z):
    """SplitMix64 finalizer: avalanche a 64-bit value, or each entry of a
    uint64 array in place (one temporary per step keeps bulk draws lean)."""
    z &= _MASK64
    z ^= z >> 30
    z *= 0xBF58476D1CE4E5B9
    z &= _MASK64
    z ^= z >> 27
    z *= 0x94D049BB133111EB
    z &= _MASK64
    z ^= z >> 31
    return z


class SplitMix64:
    """A SplitMix64 stream. ``seed`` selects the stream deterministically."""

    __slots__ = ("_state", "_spare")

    def __init__(self, seed: int):
        self._state = seed & _MASK64
        self._spare: float | None = None

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        return mix64(self._state)

    def floats(self, n: int) -> np.ndarray:
        """The next ``n`` outputs as float64 ``u64 / 2**64``, bit-identical to
        ``n`` calls of ``next_u64() / 2**64``; a pending gaussian spare is kept."""
        if n < 0:
            raise ArgumentError(f"cannot draw a negative number of floats, got {n}")
        out = np.empty(n)
        for start in range(0, n, _CHUNK):
            m = min(_CHUNK, n - start)
            z = np.arange(1, m + 1, dtype=np.uint64)
            z *= _GOLDEN
            z += self._state
            np.divide(mix64(z), _TWO64, out=out[start : start + m])
            self._state = (self._state + m * _GOLDEN) & _MASK64
        return out

    def next_below(self, n: int) -> int:
        """Unbiased integer in [0, n) via rejection sampling."""
        if n <= 0:
            raise ArgumentError(f"next_below requires n >= 1, got {n}")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            u = self.next_u64()
            if u < limit:
                return u % n

    def next_gaussian(self) -> float:
        """Standard normal via Box-Muller; consumes two u64 per pair."""
        if self._spare is not None:
            z = self._spare
            self._spare = None
            return z
        u1 = (self.next_u64() + 1) / _TWO64  # (0, 1], keeps log finite
        u2 = self.next_u64() / _TWO64
        r = math.sqrt(-2.0 * math.log(u1))
        theta = 2.0 * math.pi * u2
        self._spare = r * math.sin(theta)
        return r * math.cos(theta)


def stream(seed: int, *tokens: str | int) -> SplitMix64:
    """Derive an independent child stream keyed by (seed, tokens).

    Distinct token sequences yield distinct streams with overwhelming
    probability; identical inputs always yield the identical stream.
    """
    h = mix64(seed & _MASK64)
    for tok in tokens:
        if isinstance(tok, str):
            data = tok.encode("utf-8")
        else:
            data = int(tok).to_bytes(8, "little", signed=False)
        h = mix64(h ^ len(data))
        for b in data:
            h = mix64(h ^ b)
    return SplitMix64(h)
