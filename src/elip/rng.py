"""Deterministic RNG: SplitMix64 stream with Box-Muller Gaussians.

The generator is pinned bit-for-bit so that weights, datasets and subset
draws replay identically across platforms and language implementations.
Every draw convention below (53-bit uniforms, one Gaussian per pair of
uniforms, partial Fisher-Yates for sampling) is part of that contract.

Gaussians are drawn in blocks. Output i of the stream depends only on
`state + i * gamma`, so the integer work of up to _CHUNK draws runs as
numpy uint64 arithmetic, which wraps modulo 2**64 like the scalar
recurrence. The log and the cosine stay one libm call (`math.log`,
`math.cos`) per draw: numpy's vectorised float64 log is not correctly
rounded, and on an AVX-512 x86-64 box (numpy 2.4) it changed 70 of the
40,960 Gaussians of a 320x128 matrix at seed 7, which would move every
weight and dataset byte. The remaining steps (the uniforms, the multiply
by -2, sqrt, the product and the scale) are exact IEEE operations done in
the scalar formula's order.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError

_MASK64 = 0xFFFFFFFFFFFFFFFF
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

_TWO53 = float(1 << 53)
_TWO_PI = 2.0 * math.pi

# Gaussians per numpy block: bounds the block's temporaries, not the result.
_CHUNK = 4096
# i * gamma for the 2 * _CHUNK outputs of a block, wrapped modulo 2**64
_STEPS = np.arange(1, 2 * _CHUNK + 1, dtype=np.uint64) * np.uint64(_GAMMA)


class Rng:
    """SplitMix64 pseudo-random stream seeded with a u64."""

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def uniform(self) -> float:
        """Uniform double in [0, 1) from the top 53 bits."""
        return (self.next_u64() >> 11) / _TWO53

    def gaussian(self) -> float:
        """One standard normal: gaussian_matrix(1, 1)."""
        return float(self.gaussian_matrix(1, 1)[0, 0])

    def gaussian_matrix(self, rows: int, cols: int, scale: float = 1.0) -> np.ndarray:
        """(rows, cols) float64 matrix of scaled normals, row-major draw order.

        Each normal is Box-Muller on two consecutive uniforms: u1 is shifted
        into (0, 1] so the log is always finite, and only the cosine branch
        is used (no pair caching). A numpy float other than float64 as
        `scale` is refused: it would round each product to its own width.
        """
        if isinstance(scale, np.floating) and scale.dtype != np.float64:
            raise ConfigError(f"gaussian scale must be a float64, got {scale.dtype}")
        out = np.empty((rows, cols), dtype=np.float64)
        flat = out.reshape(-1)
        for start in range(0, flat.size, _CHUNK):
            seg = flat[start:start + _CHUNK]
            n = seg.size
            z = _STEPS[:2 * n] + np.uint64(self.state)
            self.state = (self.state + 2 * n * _GAMMA) & _MASK64
            z ^= z >> np.uint64(30)
            z *= np.uint64(_MIX1)
            z ^= z >> np.uint64(27)
            z *= np.uint64(_MIX2)
            z ^= z >> np.uint64(31)
            z >>= np.uint64(11)
            u1 = (z[0::2] + np.uint64(1)) / _TWO53
            u2 = z[1::2] / _TWO53
            u2 *= _TWO_PI
            # libm per draw; a memoryview hands map Python floats, no list
            log_u1 = np.fromiter(map(math.log, memoryview(u1)), np.float64, n)
            np.multiply(log_u1, -2.0, out=seg)
            np.sqrt(seg, out=seg)
            seg *= np.fromiter(map(math.cos, memoryview(u2)), np.float64, n)
            seg *= scale
        return out

    def sample_without_replacement(self, n: int, k: int) -> list[int]:
        """k distinct indices from range(n) via partial Fisher-Yates."""
        if not 0 <= k <= n:
            raise ValueError(f"cannot sample {k} from {n}")
        pool = list(range(n))
        for i in range(k):
            j = i + self.next_u64() % (n - i)
            pool[i], pool[j] = pool[j], pool[i]
        return pool[:k]
