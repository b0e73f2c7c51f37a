"""Portable, seedable randomness.

Every random choice in this library flows through SplitMix64, a counter-based
64-bit generator (Steele, Lea & Flood 2014) defined by pure integer
arithmetic modulo 2^64.  It was chosen over platform RNGs because the whole
stream is pinned down by ~10 lines of arithmetic: the same seed produces the
same draws on any machine, any Python version, and is easy to re-implement
in another language when results need to be cross-checked.

Output at counter n (zero-based) for a given seed:

    state_n = (seed + (n + 1) * GOLDEN) mod 2^64
    out_n   = finalize(state_n)

where GOLDEN = 0x9E3779B97F4A7C15 and ``finalize`` is the standard SplitMix64
mixing function.  Because the state is an affine function of the counter, the
scalar generator and the vectorized numpy block generator produce identical
streams (tested).

Substreams are derived with :func:`derive_seed`, which folds integer path
components into the seed through the same finalizer.  Uniform doubles, drawn
in vectorized blocks, map the top 53 bits to (0, 1) via (k + 0.5) * 2^-53, and
normal variates apply an inverse normal CDF (Acklam's rational approximation)
to those uniforms.
"""

from __future__ import annotations

import math

import numpy as np

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15

_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

ALGORITHM = "splitmix64-counter-v1"

_NORMALS_BLOCK = 1 << 16


def _finalize(z: int) -> int:
    z &= MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & MASK64
    return z ^ (z >> 31)


def derive_seed(seed: int, *path: int) -> int:
    """Derive a child seed from ``seed`` and a path of integer tags.

    Deterministic and order-sensitive: derive_seed(s, 1, 2) != derive_seed(s, 2, 1).
    """
    s = seed & MASK64
    for k in path:
        s = _finalize(s ^ _finalize(((k & MASK64) + 1) * GOLDEN))
    return s


class SplitMix64:
    """Scalar stream over the counter-based sequence for one seed."""

    def __init__(self, seed: int):
        self.seed = seed & MASK64
        self.counter = 0

    def next_u64(self) -> int:
        out = _finalize(self.seed + (self.counter + 1) * GOLDEN)
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


def u64_block(seed: int, n: int, start: int = 0) -> np.ndarray:
    """Vectorized outputs at counters start .. start+n-1 (same stream as SplitMix64)."""
    if n == 0:
        return np.empty(0, dtype=np.uint64)
    ctr = np.arange(start + 1, start + n + 1, dtype=np.uint64)
    z = np.uint64(seed & MASK64) + ctr * np.uint64(GOLDEN)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    return z ^ (z >> np.uint64(31))


def below_block(seed: int, bounds, start: int = 0) -> tuple[np.ndarray, int]:
    """Successive SplitMix64(seed).below(b) for b in bounds, from counter start.

    Returns the values (uint64) and the counter after the last draw, exactly
    as the scalar calls would leave them.  Outputs are drawn one block at a
    time; an output at or above the largest multiple of its bound below 2^64
    is rejected, and the draw resumes from the next counter with the same
    bound.  Each rejection redraws the rest of the block; at bounds far below
    2^64 rejections are vanishingly rare (probability < b / 2^64 per draw).
    """
    b = np.asarray(bounds)
    if b.size and (b.dtype.kind not in "iu" or b.min() < 1):
        raise ValueError("below_block() needs integer bounds >= 1")
    b = b.astype(np.uint64)
    zero = np.uint64(0)
    out = np.empty(b.size, dtype=np.uint64)
    pos = 0
    while pos < b.size:
        bb = b[pos:]
        x = u64_block(seed, bb.size, start)
        r = (zero - bb) % bb                     # 2^64 mod b
        bad = (r != zero) & (x >= zero - r)      # x >= (2^64 // b) * b
        k = int(bad.argmax()) if bad.any() else bb.size
        out[pos:pos + k] = x[:k] % bb[:k]
        pos += k
        start += k + (pos < b.size)              # step past the rejected output
    return out, start


def uniforms(seed: int, n: int, start: int = 0) -> np.ndarray:
    """n doubles (k + 0.5) * 2^-53 in (0, 1), k the top 53 bits of each output."""
    bits = u64_block(seed, n, start) >> np.uint64(11)
    return (bits.astype(np.float64) + 0.5) * 2.0**-53


def normals(seed: int, n: int) -> np.ndarray:
    """n standard normal variates via inverse-CDF of the uniform stream."""
    out = np.empty(n, dtype=np.float64)
    # every step is elementwise, so blocks give the same bits as one call
    # while their temporaries stay small
    for a in range(0, n, _NORMALS_BLOCK):
        k = min(_NORMALS_BLOCK, n - a)
        out[a:a + k] = _acklam_ppf(uniforms(seed, k, a))
    return out


# Acklam's rational approximation to the inverse standard normal CDF.
# Relative error < 1.15e-9 over (0, 1); adequate for variate generation.
_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
      1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
      6.680131188771972e+01, -1.328068155288572e+01)
_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
      -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
      3.754408661907416e+00)
_P_LOW = 0.02425


def _acklam_ppf(p: np.ndarray) -> np.ndarray:
    p = np.asarray(p, dtype=np.float64)
    x = np.empty_like(p)

    lo = p < _P_LOW
    hi = p > 1.0 - _P_LOW
    mid = ~(lo | hi)

    if np.any(mid):
        q = p[mid] - 0.5
        r = q * q
        num = ((((_A[0] * r + _A[1]) * r + _A[2]) * r + _A[3]) * r + _A[4]) * r + _A[5]
        den = ((((_B[0] * r + _B[1]) * r + _B[2]) * r + _B[3]) * r + _B[4]) * r + 1.0
        x[mid] = num * q / den

    for mask, sign in ((lo, 1.0), (hi, -1.0)):
        if np.any(mask):
            pp = p[mask] if sign > 0 else 1.0 - p[mask]
            q = np.sqrt(-2.0 * np.log(pp))
            num = ((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5]
            den = (((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0
            x[mask] = sign * num / den

    return x


def norm_ppf(p: float) -> float:
    """High-accuracy inverse standard normal CDF (scalar).

    Acklam's approximation polished with two Halley steps against erfc;
    absolute error is at the few-ulp level across (0, 1).  The upper tail
    reflects to the lower one (1 - p is exact there), where erfc keeps full
    relative precision.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"norm_ppf requires p in (0, 1), got {p}")
    if p > 0.5:
        return -norm_ppf(1.0 - p)
    x = float(_acklam_ppf(np.array([p]))[0])
    for _ in range(2):
        e = 0.5 * math.erfc(-x / math.sqrt(2.0)) - p
        u = e * math.sqrt(2.0 * math.pi) * math.exp(x * x / 2.0)
        x = x - u / (1.0 + x * u / 2.0)
    return x