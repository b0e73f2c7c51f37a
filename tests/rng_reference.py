"""Reference forms of latbal.rng's streams, for tests only.

The library keeps only the forms it draws with.  These are the
straightforward ones its block functions must reproduce: a scalar SplitMix64
stream that shares no code with latbal.rng, uniforms with one temporary per
operation, and Acklam's approximation over a fresh array.
"""

import numpy as np

from latbal import rng

_MASK64 = (1 << 64) - 1


def _finalize(z: int) -> int:
    """The published SplitMix64 output function, one 64-bit integer at a time."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class SplitMix64:
    """Scalar reference stream for one seed: output n is finalize(state_n),
    state_n = (seed + (n + 1) * GOLDEN) mod 2^64, one counter step at a time.

    It shares no code with latbal.rng, whose block generators must reproduce
    it exactly; the sampler tests use it too.
    """

    GOLDEN = 0x9E3779B97F4A7C15

    def __init__(self, seed: int):
        self.seed = seed & _MASK64
        self.counter = 0

    def next_u64(self) -> int:
        out = _finalize(self.seed + (self.counter + 1) * self.GOLDEN)
        self.counter += 1
        return out

    def below(self, n: int) -> int:
        """Unbiased integer in [0, n) by rejection sampling."""
        if n <= 0:
            raise ValueError("below() needs n >= 1")
        limit = ((1 << 64) // n) * n
        while True:
            x = self.next_u64()
            if x < limit:
                return x % n


def uniforms(seed: int, n: int, start: int = 0) -> np.ndarray:
    """n doubles (k + 0.5) * 2^-53 in (0, 1), k the top 53 bits of each output,
    clamped below 1 (k = 2^53 - 1 would round to exactly 1.0)."""
    k = rng.u64_block(seed, n, start) >> np.uint64(11)
    return np.minimum((k.astype(np.float64) + 0.5) * 2.0**-53, 1.0 - 2.0**-53)


def acklam_ppf(p) -> np.ndarray:
    """Acklam's inverse normal CDF over a copy of p, any shape."""
    x = np.array(p, dtype=np.float64)
    flat = x.reshape(-1)                         # a view: x gets the results
    rng._acklam_inplace(flat, np.empty_like(flat), np.empty_like(flat), np.empty_like(flat))
    return x
