import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elip import rng as rng_module
from elip.errors import ConfigError
from elip.rng import Rng

MASK = 0xFFFFFFFFFFFFFFFF
GAMMA = 0x9E3779B97F4A7C15
TWO53 = float(1 << 53)
CHUNK = rng_module._CHUNK


def reference_splitmix64(seed, count):
    """Independent transcription of the SplitMix64 recurrence."""
    out = []
    state = seed
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & MASK
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        out.append(z ^ (z >> 31))
    return out


def test_matches_reference_stream():
    rng = Rng(0)
    assert [rng.next_u64() for _ in range(5)] == reference_splitmix64(0, 5)
    rng = Rng(1234567)
    assert [rng.next_u64() for _ in range(100)] == reference_splitmix64(1234567, 100)


def test_same_seed_same_stream():
    a, b = Rng(42), Rng(42)
    assert [a.next_u64() for _ in range(50)] == [b.next_u64() for _ in range(50)]


def test_different_seeds_differ():
    assert Rng(1).next_u64() != Rng(2).next_u64()


def test_uniform_range_and_determinism():
    rng = Rng(3)
    values = [rng.uniform() for _ in range(1000)]
    assert all(0.0 <= v < 1.0 for v in values)
    replay = Rng(3)
    assert values == [replay.uniform() for _ in range(1000)]


def test_gaussian_consumes_two_uniforms():
    rng = Rng(9)
    g = rng.gaussian()
    ref = Rng(9)
    u1 = ((ref.next_u64() >> 11) + 1) / float(1 << 53)
    u2 = (ref.next_u64() >> 11) / float(1 << 53)
    expected = math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)
    assert g == expected


def test_gaussian_moments():
    rng = Rng(11)
    xs = np.array([rng.gaussian() for _ in range(20000)])
    assert abs(xs.mean()) < 0.03
    assert abs(xs.std() - 1.0) < 0.03


def test_gaussian_matrix_row_major_order():
    flat = Rng(5)
    seq = [flat.gaussian() for _ in range(6)]
    mat = Rng(5).gaussian_matrix(2, 3)
    assert mat.shape == (2, 3)
    assert list(mat.reshape(-1)) == seq


def test_sample_without_replacement():
    rng = Rng(7)
    picked = rng.sample_without_replacement(10, 4)
    assert len(picked) == 4
    assert len(set(picked)) == 4
    assert all(0 <= p < 10 for p in picked)
    assert Rng(7).sample_without_replacement(10, 4) == picked
    assert sorted(Rng(7).sample_without_replacement(5, 5)) == list(range(5))
    with pytest.raises(ValueError):
        rng.sample_without_replacement(3, 4)


# ---------------------------------------------------------------------------
# block Gaussians against a scalar oracle
# ---------------------------------------------------------------------------


class ScalarRng:
    """Independent one-draw-at-a-time transcription of the pinned stream:
    SplitMix64, 53-bit uniforms, Box-Muller with libm log, cos and sqrt."""

    def __init__(self, seed):
        self.state = seed & MASK

    def next_u64(self):
        (out,) = reference_splitmix64(self.state, 1)
        self.state = (self.state + GAMMA) & MASK
        return out

    def uniform(self):
        return (self.next_u64() >> 11) / TWO53

    def gaussian(self):
        u1 = ((self.next_u64() >> 11) + 1) / TWO53
        u2 = (self.next_u64() >> 11) / TWO53
        return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)

    def gaussian_matrix(self, rows, cols, scale=1.0):
        flat = [self.gaussian() * float(scale) for _ in range(rows * cols)]
        return np.array(flat, dtype=np.float64).reshape(rows, cols)

    def sample_without_replacement(self, n, k):
        pool = list(range(n))
        for i in range(k):
            j = i + self.next_u64() % (n - i)
            pool[i], pool[j] = pool[j], pool[i]
        return pool[:k]


# a seed whose state lands within 2 of 0 at output j, inside one of the first blocks
wrapping_seeds = st.builds(
    lambda j, d: (d - j * GAMMA) % (1 << 64), st.integers(1, 2 * CHUNK + 2), st.integers(-2, 2)
)
seeds = st.one_of(st.sampled_from([0, 1, MASK]), st.integers(0, MASK), wrapping_seeds)
shapes = st.one_of(
    st.sampled_from([(1, 1), (1, CHUNK - 1), (1, CHUNK), (1, CHUNK + 1), (320, 128)]),
    st.tuples(st.just(0), st.integers(0, 50)),
    st.tuples(st.integers(0, 50), st.just(0)),
    st.tuples(st.integers(1, 70), st.integers(1, 70)),
)
finite = st.floats(-1e3, 1e3, allow_nan=False)
scales = st.one_of(st.just(1.0), finite, finite.map(np.float64))


@settings(max_examples=80, deadline=None)
@given(seeds, shapes, scales)
def test_gaussian_matrix_matches_scalar_oracle(seed, shape, scale):
    """Every block draw carries the bytes of the scalar loop, and the state
    moves on by exactly two outputs per draw; a uint64 overflow warning
    (a scalar numpy op in the integer path) fails the test."""
    rows, cols = shape
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rng = Rng(seed)
        got = rng.gaussian_matrix(rows, cols, scale)
    want = ScalarRng(seed).gaussian_matrix(rows, cols, scale)
    assert got.shape == (rows, cols) and got.dtype == np.float64
    assert got.tobytes() == want.tobytes()
    assert rng.state == (seed + 2 * rows * cols * GAMMA) & MASK


ops = st.lists(
    st.one_of(
        st.tuples(st.just("gaussian_matrix"), st.integers(0, 9), st.integers(0, 9), scales),
        st.tuples(st.just("gaussian")),
        st.tuples(st.just("uniform")),
        st.tuples(st.just("next_u64")),
        st.integers(0, 12).flatmap(
            lambda n: st.tuples(st.just("sample_without_replacement"), st.just(n), st.integers(0, n))
        ),
    ),
    max_size=12,
)


@settings(max_examples=80, deadline=None)
@given(seeds, ops)
def test_block_draws_interleave_with_the_scalar_stream(seed, calls):
    """Block Gaussians between uniform, next_u64 and sampling draws replay
    the scalar stream call for call."""
    rng, oracle = Rng(seed), ScalarRng(seed)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for name, *args in calls:
            got = getattr(rng, name)(*args)
            want = getattr(oracle, name)(*args)
            if isinstance(want, np.ndarray):
                assert got.tobytes() == want.tobytes(), name
            else:
                assert type(got) is type(want) and got == want, name
            assert rng.state == oracle.state, name


def test_gaussian_draws_are_libm_log_and_cos():
    """The mapper.l3.weight shape at seed 7 equals the libm oracle bit for
    bit. numpy's vectorised log is not correctly rounded and differs from
    libm on some of these draws, so a block path built on np.log or np.cos
    fails here by name rather than through every golden digest."""
    got = Rng(7).gaussian_matrix(320, 128)
    assert got.tobytes() == ScalarRng(7).gaussian_matrix(320, 128).tobytes()


@pytest.mark.parametrize("dtype", [np.float16, np.float32, np.longdouble])
def test_gaussian_matrix_refuses_a_numpy_scale_other_than_float64(dtype):
    """A numpy float scale of another width would round every product to
    that width (a float32 one does under NEP 50), so it is refused before
    any draw."""
    rng = Rng(5)
    with pytest.raises(ConfigError, match="float64"):
        rng.gaussian_matrix(2, 3, dtype(0.5))
    assert rng.state == 5
    assert Rng(5).gaussian_matrix(2, 3, np.float64(0.5)).tobytes() == (
        ScalarRng(5).gaussian_matrix(2, 3, 0.5).tobytes()
    )
