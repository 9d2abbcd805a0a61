"""Tests of the documented SplitMix64 streams.

The reference implementation below follows the documented algorithm
independently of the package code; the frozen constants were computed
offline from the same description before the package was written.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from emodub.errors import ArgumentError
from emodub.rng import _CHUNK, SplitMix64, mix64, stream
from emodub.synthetic import ClusterSpec, generate_clustered_library

M64 = (1 << 64) - 1


def ref_mix64(z):
    z &= M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & M64
    return (z ^ (z >> 31)) & M64


def ref_stream_state(seed, *tokens):
    h = ref_mix64(seed & M64)
    for tok in tokens:
        data = tok.encode("utf-8") if isinstance(tok, str) else int(tok).to_bytes(8, "little")
        h = ref_mix64(h ^ len(data))
        for b in data:
            h = ref_mix64(h ^ b)
    return h


def ref_draw(state, n):
    out = []
    for _ in range(n):
        state = (state + 0x9E3779B97F4A7C15) & M64
        out.append(ref_mix64(state))
    return out


# Frozen from the offline reference run of the documented algorithm.
SEED42_U64 = [
    0x989B3F130A063869,
    0x290DB4BF2570DED7,
    0x2A990BE63A01B2D5,
    0x0C4B6B24EF01890E,
]


def test_mix64_matches_reference():
    for z in (0, 1, 42, 0xDEADBEEF, M64):
        assert mix64(z) == ref_mix64(z)


def test_stream_no_tokens_matches_frozen_values():
    gen = stream(42)
    assert [gen.next_u64() for _ in range(4)] == SEED42_U64


def test_keyed_stream_matches_reference():
    gen = stream(7, "a", "scene")
    expected = ref_draw(ref_stream_state(7, "a", "scene"), 8)
    assert [gen.next_u64() for _ in range(8)] == expected


def test_streams_are_deterministic_and_keyed():
    a1 = [stream(9, "x").next_u64() for _ in range(3)]
    a2 = [stream(9, "x").next_u64() for _ in range(3)]
    b = [stream(9, "y").next_u64() for _ in range(3)]
    assert a1 == a2
    assert a1 != b
    assert [stream(10, "x").next_u64() for _ in range(3)] != a1


def test_int_tokens_key_streams():
    assert stream(1, 5).next_u64() != stream(1, 6).next_u64()
    assert stream(1, 5).next_u64() == stream(1, 5).next_u64()


def test_float_ranges():
    floats = SplitMix64(123).floats(1000)
    assert floats.dtype == np.float64 and floats.shape == (1000,)
    assert ((0.0 <= floats) & (floats < 1.0)).all()
    units = 2.0 * SplitMix64(123).floats(1000) - 1.0
    assert ((-1.0 <= units) & (units < 1.0)).all()


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, M64),
    n=st.sampled_from([0, 1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 7]),
)
def test_bulk_floats_equal_scalar_draws(seed, n):
    bulk, scalar = SplitMix64(seed), SplitMix64(seed)
    expected = np.array([scalar.next_u64() / 2**64 for _ in range(n)])
    assert bulk.floats(n).tobytes() == expected.tobytes()
    assert bulk.next_u64() == scalar.next_u64()


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, M64), n=st.sampled_from([0, 1, _CHUNK + 1]))
def test_bulk_draw_keeps_gaussian_spare(seed, n):
    ref = SplitMix64(seed)
    ref.next_gaussian()
    spare = ref.next_gaussian()
    skipped = np.array([ref.next_u64() / 2**64 for _ in range(n)])
    gen = SplitMix64(seed)
    gen.next_gaussian()
    assert gen.floats(n).tobytes() == skipped.tobytes()
    assert gen.next_gaussian() == spare
    assert gen.next_u64() == ref.next_u64()


def test_negative_bulk_draw_is_rejected():
    gen = SplitMix64(5)
    with pytest.raises(ArgumentError, match="negative number of floats"):
        gen.floats(-1)
    assert gen.next_u64() == SplitMix64(5).next_u64()  # the stream did not move


def unshift(y, s):
    """Invert ``y = x ^ (x >> s)`` on 64-bit values."""
    x = y
    for _ in range(64 // s + 1):
        x = y ^ (x >> s)
    return x


def unmix64(z):
    """The state whose :func:`mix64` is ``z``."""
    z = unshift(z, 31)
    z = (z * pow(0x94D049BB133111EB, -1, 2**64)) & M64
    z = unshift(z, 27)
    z = (z * pow(0xBF58476D1CE4E5B9, -1, 2**64)) & M64
    return unshift(z, 30)


@pytest.mark.parametrize(
    "u",
    [0, 1, M64, 2**53 + 1, 2**63 + 2**10, 2**63 + 3 * 2**10, 2**64 - 2**10, 2**64 - 2**10 - 1],
)
@pytest.mark.parametrize("position", [0, 5, _CHUNK - 1, _CHUNK, 2 * _CHUNK + 3])
def test_bulk_float_rounding_matches_python(u, position):
    # Round-to-nearest-even ties: 2**53 + 1, 2**63 + 2**10 and 2**63 + 3 * 2**10
    # sit halfway between float64 neighbours; the top 2**10 outputs round to 1.0.
    assert mix64(unmix64(u)) == u
    state = (unmix64(u) - (position + 1) * 0x9E3779B97F4A7C15) & M64
    out = SplitMix64(state).floats(position + 1)
    assert out[position].hex() == (u / 2**64).hex()


def test_next_below_bounds_and_rejection():
    gen = SplitMix64(5)
    draws = [gen.next_below(7) for _ in range(2000)]
    assert set(draws) == set(range(7))
    with pytest.raises(ArgumentError):
        gen.next_below(0)


def test_gaussian_moments():
    gen = SplitMix64(77)
    xs = [gen.next_gaussian() for _ in range(20000)]
    mean = sum(xs) / len(xs)
    var = sum((x - mean) ** 2 for x in xs) / len(xs)
    assert abs(mean) < 0.03
    assert abs(var - 1.0) < 0.05



@pytest.mark.parametrize("seed", [-1, 1 << 64])
def test_seed_outside_the_64_bit_range_is_refused(seed):
    # keyed on its low 64 bits, it would alias a seed inside the range
    refused = functools.partial(pytest.raises, ArgumentError, match=rf"seed must be in \[0, 2\*\*64\), got {seed}")
    with refused():
        stream(seed, "x")
    with refused():
        SplitMix64(seed)
    with refused():
        generate_clustered_library(ClusterSpec(n=8, seed=seed))
    lib = generate_clustered_library(ClusterSpec(n=8))
    with refused():
        lib.subsample(0.5, seed)


def test_largest_seed_still_works():
    seed = M64
    assert stream(seed, "x").next_u64() == ref_draw(ref_stream_state(seed, "x"), 1)[0]
    assert SplitMix64(seed).next_u64() == ref_draw(seed, 1)[0]
    lib = generate_clustered_library(ClusterSpec(n=8, seed=seed))
    assert lib != generate_clustered_library(ClusterSpec(n=8, seed=0))
    assert len(lib.subsample(0.5, seed)) == 4
