"""Portable, seedable randomness.

Every random choice in this library flows through SplitMix64, a counter-based
64-bit generator (Steele, Lea & Flood 2014) defined by pure integer
arithmetic modulo 2^64.  It was chosen over platform RNGs because the whole
stream is pinned down by ~10 lines of arithmetic: the same seed produces the
same integer draws on any machine, any Python version, and is easy to
re-implement in another language when results need to be cross-checked.
The float variates keep their bits only as far as numpy's SIMD ``log`` (in
the normals' tail branch) does; its last bit differs between CPU targets.

Output at counter n (zero-based) for a given seed:

    state_n = (seed + (n + 1) * GOLDEN) mod 2^64
    out_n   = finalize(state_n)

where GOLDEN = 0x9E3779B97F4A7C15 and ``finalize`` is the standard SplitMix64
mixing function.  The state is affine in the counter: at start + i it is
(seed + start * GOLDEN) + (i + 1) * GOLDEN, which one function computes for
both :func:`u64_block` and :func:`normals`, so they equal a scalar loop.
A block's count ``n`` and first counter ``start`` must be integers >= 0;
a float, a bool or a negative counter (which would wrap mod 2^64) is refused
by name.

Substreams are derived with :func:`derive_seed`, which folds integer path
components into the seed through the same finalizer.  Uniform doubles, drawn
in vectorized blocks, map the top 53 bits to (0, 1) via (k + 0.5) * 2^-53,
clamped below 1, and normal variates apply an inverse normal CDF (Acklam's
rational approximation) to those uniforms.

The block functions work in place: :func:`normals` reuses one set of scratch
arrays for every block, evaluates Acklam's central branch over the whole
block and then recomputes only the tail elements (about 4.85% of them).
Every floating-point operation runs in the order of the straightforward form
(one temporary per operation, masks per branch), so the bits are the same as
that form's.  Only the forms the library draws with live here (the world's
biases take their scalar quantile from the standard library, in oracle); the
reference forms, the scalar ``SplitMix64`` stream and that straightforward
``acklam_ppf(uniforms(seed, n))``, live in ``tests/rng_reference.py``, and
``tests/test_rng.py`` holds the equalities and pins the bits.
"""

from __future__ import annotations

import numpy as np

from .core import check_integer, check_seed

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
    A seed that is not an integer in [0, 2**64 - 1] (a bool or a float
    included) is refused; the path tags are taken mod 2^64.
    """
    s = check_seed("seed", seed)
    for k in path:
        s = _finalize(s ^ _finalize(((k & MASK64) + 1) * GOLDEN))
    return s


def _steps(n: int) -> np.ndarray:
    """(i + 1) * GOLDEN mod 2^64 for i < n, the state's offset from a block's base."""
    steps = np.arange(1, n + 1, dtype=np.uint64)
    steps *= np.uint64(GOLDEN)  # in place: a temporary product raised synth's peak RSS
    return steps


def _outputs(seed: int, start: int, steps: np.ndarray, z: np.ndarray,
             t: np.ndarray) -> np.ndarray:
    """SplitMix64 outputs at counters start .. start+len(z)-1, into z (which may
    be steps): the finalizer, in place, of each state (seed + start * GOLDEN) +
    steps[i], where steps is _steps(n)[:len(z)].  t is scratch of z's size."""
    np.add(steps, np.uint64((seed + start * GOLDEN) & MASK64), out=z)
    for shift, mix in ((30, _MIX1), (27, _MIX2)):
        z ^= np.right_shift(z, np.uint64(shift), out=t)
        z *= np.uint64(mix)
    z ^= np.right_shift(z, np.uint64(31), out=t)
    return z


def u64_block(seed: int, n: int, start: int = 0) -> np.ndarray:
    """Vectorized SplitMix64 outputs at counters start .. start+n-1."""
    n, start = check_integer("n", n, 0), check_integer("start", start, 0)
    z = _steps(n)
    return _outputs(seed, start, z, z, np.empty_like(z))


def below_block(seed: int, bounds, start: int = 0) -> tuple[np.ndarray, int]:
    """Unbiased integers in [0, b) for b in bounds, from counter start.

    Returns the values (uint64) and the counter after the last draw, exactly
    as successive scalar ``SplitMix64(seed).below(b)`` calls (the reference in
    tests/rng_reference.py) would leave them.  Outputs are drawn one block at a
    time; an output at or above the largest multiple of its bound below 2^64
    is rejected, and the draw resumes from the next counter with the same
    bound.  Each rejection redraws the rest of the block; at bounds far below
    2^64 rejections are vanishingly rare (probability < b / 2^64 per draw).

    Scratch: the outputs are reduced in place, so beside the returned array
    the call holds the finalizer's scratch (one uint64 array of the same
    length, freed before the scan) and then a boolean mask of that length,
    plus a uint64 copy of bounds unless they are uint64 already.
    """
    start = check_integer("start", start, 0)
    b = np.asarray(bounds)
    if b.size and (b.dtype.kind not in "iu" or b.min() < 1):
        raise ValueError("below_block() needs integer bounds >= 1")
    b = b.astype(np.uint64, copy=False)
    x = u64_block(seed, b.size, start)
    # an output for bound b is rejected above ~(2^64 mod b), the largest one
    # accepted, which is at least 2^64 - b; so every rejected output is at or
    # above one scalar floor, and only the rare outputs there need their
    # bound's exact limit
    floor = np.uint64(2**64 - int(b.max(initial=1)))
    pos = 0                                     # x[pos:] are counters start, start + 1, ...
    while True:
        bad = np.flatnonzero(x[pos:] >= floor)
        if bad.size:
            near = b[pos + bad]
            bad = bad[x[pos + bad] > ~((np.uint64(0) - near) % near)]
        if not bad.size:
            break
        # x[pos + i] is rejected: it and the rest redraw from the next counter
        i = int(bad[0])
        pos, start = pos + i, start + i + 1
        x[pos:] = u64_block(seed, b.size - pos, start)
    x %= b
    return x, start + b.size - pos


def _unit(bits: np.ndarray, out: np.ndarray) -> np.ndarray:
    """(k + 0.5) * 2^-53, clamped below 1, into out; k the top 53 bits of each of
    bits (which it shifts)."""
    bits >>= np.uint64(11)
    np.add(bits, 0.5, out=out)  # k < 2^53 converts exactly, then one rounding
    out *= 2.0**-53
    # k = 2^53 - 1 rounds (ties to even) to exactly 1.0, where the inverse CDF
    # is infinite; every other k stays below 1 - 2^-53
    return np.minimum(out, 1.0 - 2.0**-53, out=out)


def normals(seed: int, n: int, start: int = 0, out: np.ndarray | None = None) -> np.ndarray:
    """n standard normal variates via inverse-CDF of the uniform stream at
    counters start .. start+n-1, written into out (n float64s) or a new array."""
    n, start = check_integer("n", n, 0), check_integer("start", start, 0)
    if out is None:
        out = np.empty(n, dtype=np.float64)
    elif out.shape != (n,):
        raise ValueError(f"out must have shape ({n},), got {out.shape}")
    # Every step is elementwise, so blocks give the same bits as one call.
    # All blocks share one set of scratch arrays: the allocator hands freed
    # temporaries of this size back to the OS, and faulting in fresh pages
    # for every block cost more than the arithmetic.
    size = min(n, _NORMALS_BLOCK)
    z, t = np.empty(size, np.uint64), np.empty(size, np.uint64)
    den = np.empty(size, np.float64)
    steps = _steps(size)
    for a in range(0, n, _NORMALS_BLOCK):
        k = min(_NORMALS_BLOCK, n - a)
        x = _unit(_outputs(seed, start + a, steps[:k], z[:k], t[:k]), out[a:a + k])
        _acklam_inplace(x, t[:k].view(np.float64), z[:k].view(np.float64), den[:k])
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


def _acklam_inplace(x: np.ndarray, r: np.ndarray, num: np.ndarray,
                    den: np.ndarray) -> None:
    """Acklam's approximation applied to x in place; r, num and den are scratch
    of x's size.

    The central branch runs over every element, in the operation order of
    ((A0*r + A1)*r + ...)*q / den; its denominator stays above 1e-4 for any
    p in [0, 1], so on tail elements it raises no warning.  The tails (about
    4.85% of uniform input) are then computed apart and written over them.
    """
    lo = np.flatnonzero(x < _P_LOW)
    hi = np.flatnonzero(x > 1.0 - _P_LOW)
    tails = ((lo, x[lo], 1.0), (hi, 1.0 - x[hi], -1.0))

    x -= 0.5                                     # q
    np.multiply(x, x, out=r)
    np.multiply(r, _A[0], out=num)
    for a in _A[1:-1]:
        num += a
        num *= r
    num += _A[-1]
    np.multiply(r, _B[0], out=den)
    for b in _B[1:]:
        den += b
        den *= r
    den += 1.0
    x *= num
    x /= den

    for idx, pp, sign in tails:
        if idx.size:
            q = np.sqrt(-2.0 * np.log(pp))
            num_t = ((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5]
            den_t = (((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0
            x[idx] = sign * num_t / den_t
