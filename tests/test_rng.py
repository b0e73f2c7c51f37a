import hashlib
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import latbal.evaluation
import latbal.oracle
import latbal.sampler
from latbal import rng
from rng_reference import SplitMix64, _finalize, acklam_ppf, unfinalize, uniforms


def test_splitmix64_reference_stream():
    # first outputs for seed 0 of the published SplitMix64 algorithm
    g = SplitMix64(0)
    assert g.next_u64() == 0xE220A8397B1DCDAF
    assert g.next_u64() == 0x6E789E6AA1B965F4
    assert g.next_u64() == 0x06C45D188009454F


@given(seed=st.integers(0, 2**64 - 1), n=st.integers(0, 200), start=st.integers(0, 500))
@settings(max_examples=50, deadline=None)
def test_scalar_and_vectorized_streams_agree(seed, n, start):
    g = SplitMix64(seed)
    scalar = [g.next_u64() for _ in range(start + n)][start:]
    block = rng.u64_block(seed, n, start=start)
    assert scalar == [int(x) for x in block]


@given(z=st.integers(0, 2**64 - 1))
@settings(max_examples=200, deadline=None)
def test_unfinalize_undoes_the_finalizer(z):
    assert unfinalize(_finalize(z)) == z


@pytest.mark.parametrize("seed", [0, 12345, 2**64 - 1])
@pytest.mark.parametrize("start", [0, 2**40 + 3, 2**64 - 500])  # the last wraps
@pytest.mark.parametrize("n", [1, 2, 499, 501, 70_001])
def test_block_outputs_invert_to_their_own_states(seed, start, n):
    # each output is the finalizer of its own counter's state, and the states
    # of distinct counters differ, so no block repeats a value
    block = rng.u64_block(seed, n, start=start)
    states = [(seed + (start + i + 1) * rng.GOLDEN) % 2**64 for i in range(n)]
    assert unfinalize(block).tolist() == states
    assert np.unique(block).size == n


def test_empty_block_is_an_empty_uint64_array():
    for block in (rng.u64_block(5, 0), rng.u64_block(5, 0, start=2**70)):
        assert block.dtype == np.uint64 and block.shape == (0,)


@given(seed=st.integers(0, 2**64 - 1))
@settings(max_examples=50, deadline=None)
def test_uniforms_open_interval(seed):
    u = uniforms(seed, 100)
    assert np.all(u > 0.0) and np.all(u < 1.0)


@given(seed=st.integers(0, 2**64 - 1), n=st.integers(1, 1000))
@settings(max_examples=50, deadline=None)
def test_below_in_range_and_deterministic(seed, n):
    a = SplitMix64(seed)
    b = SplitMix64(seed)
    xs = [a.below(n) for _ in range(20)]
    assert xs == [b.below(n) for _ in range(20)]
    assert all(0 <= x < n for x in xs)


def test_below_rejects_nonpositive():
    with pytest.raises(ValueError):
        SplitMix64(0).below(0)


def test_derive_seed_is_path_sensitive():
    s = 123456789
    seen = {rng.derive_seed(s), rng.derive_seed(s, 1), rng.derive_seed(s, 2),
            rng.derive_seed(s, 1, 2), rng.derive_seed(s, 2, 1)}
    assert len(seen) == 5


@pytest.mark.parametrize("seed", [2.5, True, "3", None])
def test_derive_seed_refuses_a_non_integer_seed_by_name(seed):
    # a float or a string used to escape as a TypeError from seed & MASK64
    with pytest.raises(ValueError, match=f"^seed must be an integer, got {seed!r}$"):
        rng.derive_seed(seed, 1)
    assert rng.derive_seed(np.int64(3), 1) == rng.derive_seed(3, 1)


@pytest.mark.parametrize("seed", [2**64, -1, -2**64])
def test_derive_seed_refuses_a_seed_outside_64_bits_by_name(seed):
    # 2**64 and -2**64 used to be masked to 0 and draw seed 0's stream
    with pytest.raises(ValueError, match=rf"^seed must be in \[0, 2\*\*64 - 1\], got {seed}$"):
        rng.derive_seed(seed, 1)
    assert rng.derive_seed(2**64 - 1, 1) != rng.derive_seed(0, 1)
    # path tags are internal, and stay taken mod 2^64
    assert rng.derive_seed(5, 2**64 + 1) == rng.derive_seed(5, 1)


def test_stream_tags_are_distinct_across_modules():
    # one seed reaches synth, sample and eval in the README walkthrough, so two
    # modules deriving a stream with the same tag would correlate their draws
    tags = {f"{module.__name__}.{name}": value
            for module in (latbal.sampler, latbal.oracle, latbal.evaluation)
            for name, value in vars(module).items() if name.startswith("_STREAM_")}
    assert len(tags) == 7 and len(set(tags.values())) == len(tags), tags


def _cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def _ppf_bisect(p: float) -> float:
    # independent inversion of the erfc-based CDF; the upper tail reflects to
    # the lower one where the CDF keeps full relative precision
    if p > 0.5:
        return -_ppf_bisect(1.0 - p)
    lo, hi = -40.0, 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _cdf(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("p", [1e-9, 1e-4, 0.02, 0.1587, 0.25, 0.5, 0.7, 0.8413,
                               0.97, 0.999, 1 - 1e-6])
def test_world_bias_matches_bisection_oracle(p):
    # a world's bias inverts 1 - rate, which need not round back to p
    rate = 1.0 - p
    world = latbal.oracle.make_world(dim=1, gram=np.eye(1), positive_rates=(rate,))
    assert world.biases[0] == pytest.approx(_ppf_bisect(1.0 - rate), abs=1e-12)


def test_acklam_accuracy_against_refined():
    p = np.linspace(1e-6, 1 - 1e-6, 2001)
    raw = acklam_ppf(p)
    exact = np.array([_ppf_bisect(v) for v in p[::100]])
    assert np.abs(raw[::100] - exact).max() < 5e-8


def test_normal_moments():
    # mean and variance of 200k variates within 3 sigma of their sampling noise
    x = rng.normals(99, 200_000)
    assert abs(x.mean()) < 3.0 / math.sqrt(200_000)
    assert abs(x.var() - 1.0) < 3.0 * math.sqrt(2.0 / 200_000)


def test_normals_deterministic():
    assert np.array_equal(rng.normals(5, 1000), rng.normals(5, 1000))
    assert not np.array_equal(rng.normals(5, 1000), rng.normals(6, 1000))


@pytest.mark.parametrize("n", [3 * 2**16 + 5, 0, 2**16],
                         ids=["three-blocks-and-a-bit", "empty", "one-block"])
def test_blockwise_normals_equal_one_shot_transform(n):
    reference = acklam_ppf(uniforms(2024, n))
    assert np.array_equal(rng.normals(2024, n), reference)


@pytest.mark.parametrize("start,n", [(0, 10), (7, 2**16 + 3), (3 * 2**16 - 1, 5)],
                         ids=["from-zero", "across-a-block", "mid-block"])
def test_normals_from_a_counter_into_a_buffer_equal_the_stream(start, n):
    out = np.full(n, np.nan)
    assert rng.normals(2024, n, start=start, out=out) is out
    assert out.tobytes() == rng.normals(2024, start + n)[start:].tobytes()
    with pytest.raises(ValueError, match=r"^out must have shape \(5,\), got \(4,\)$"):
        rng.normals(2024, 5, out=np.empty(4))


def _sha256(values) -> str:
    return hashlib.sha256(values.tobytes()).hexdigest()


# Digests of the little-endian output bytes, recorded from the straightforward
# (one temporary per operation) implementation; any rewrite must keep them.
_BLOCK_PINS = [
    ((0, 3 * 2**16 + 5, 0),
     "1dc9f42471fd248628bc090f0c06e1adb4f3c03cf3277a9dfe2a2a6b70819030",
     "eda41323b0a6e1ddf9f7e5452d5b00ab713aa581fd58484abf8c48b286ab0f8b"),
    ((7, 1000, 12345),
     "f804fc8f14d1792afa2c52d2cf7d802d34188afb8fcf9af9579c40a7047b5b6c",
     "94a61708af654a60b6fca1fbd2809c0a15df2264cc929ed32b88d55a48e74cc2"),
    ((2**64 - 1, 70001, 2**40 + 3),
     "7f4c83a34408138e46822e6182c685de7f2f537da0ed7fb09b71201cbce1be1c",
     "b8c833195cab4856816dea71603685af73c2147537beddfa626282abb3d9fa7a"),
]


@pytest.mark.parametrize("args,u64_digest,uniform_digest", _BLOCK_PINS,
                         ids=["seed0-three-blocks-and-a-bit", "seed7-start12345",
                              "seedmax-start2^40"])
def test_block_streams_keep_their_bits(args, u64_digest, uniform_digest):
    assert _sha256(rng.u64_block(*args).astype("<u8")) == u64_digest
    assert _sha256(uniforms(*args).astype("<f8")) == uniform_digest


@pytest.mark.parametrize("seed,n,digest", [
    (0, 3 * 2**16 + 5, "59c56218644292184dc222c67c57632152a50cfd30713ac9b247ae285ef03a28"),
    (7, 1000, "edb075a812a7d4af4bf7274bfd1d529f6f58848602c7456fd6a9464a51c96528"),
    (2**64 - 1, 2**17, "1441b8a8c76d9ba25276bf1bc667e503f352159a92b09e2042aa819b9ddaf048"),
], ids=["seed0-three-blocks-and-a-bit", "seed7-short", "seedmax-two-blocks"])
def test_normals_keep_their_bits(seed, n, digest):
    assert _sha256(rng.normals(seed, n).astype("<f8")) == digest


def test_acklam_raises_no_floating_point_warning_at_the_extremes():
    # the central branch also runs on tail inputs, so its denominator must stay
    # clear of zero there; 1 - 2^-53 is the largest double below 1
    p = np.array([2.0**-54, 0.02425, 0.5, 1.0 - 2.0**-53])
    with np.errstate(all="raise"):
        x = acklam_ppf(p)
    assert np.all(np.isfinite(x)) and x[2] == 0.0
    assert np.array_equal(x[[0, 3]] < 0, [True, False])


def test_top_output_maps_below_one_and_to_a_finite_normal():
    # k = 2^53 - 1: (k + 0.5) * 2^-53 rounds to exactly 1.0 unless clamped
    u = rng._unit(np.array([2**64 - 1], dtype=np.uint64), np.empty(1))
    assert u[0] == 1.0 - 2.0**-53
    with np.errstate(all="raise"):
        assert np.isfinite(acklam_ppf(u)).all()


def _scalar_below(seed, bounds, start):
    g = SplitMix64(seed)
    g.counter = start
    return [g.below(int(b)) for b in bounds], g.counter


@pytest.mark.parametrize("bounds", [
    [2**63 + 1] * 300,                     # rejects about half of the outputs
    [1] * 40,
    list(range(500, 0, -1)),
    [],
    [2**64 - 1, 3, 2**63 + 1, 7] * 30,     # mixed bounds around rejections
], ids=["reject-half", "bound-one", "decreasing", "empty", "mixed"])
@pytest.mark.parametrize("seed", [0, 99, 2**64 - 1])
@pytest.mark.parametrize("start", [0, 17])
def test_below_block_equals_scalar_below(bounds, seed, start):
    values, counter = rng.below_block(seed, np.array(bounds, dtype=np.uint64), start)
    expected, expected_counter = _scalar_below(seed, bounds, start)
    assert [int(v) for v in values] == expected
    assert counter == expected_counter


def test_below_block_rejection_actually_happens():
    # with bound 2^63 + 1 the stream must skip outputs, or the test above
    # would not exercise the resume path
    _, counter = rng.below_block(5, np.full(300, 2**63 + 1, dtype=np.uint64))
    assert counter > 300 + 100


@given(seed=st.integers(0, 2**64 - 1), start=st.integers(0, 10**6),
       bounds=st.lists(st.integers(1, 2**64 - 1), max_size=60))
@settings(max_examples=50, deadline=None)
def test_below_block_equals_scalar_below_random_bounds(seed, start, bounds):
    values, counter = rng.below_block(seed, np.array(bounds, dtype=np.uint64), start)
    assert ([int(v) for v in values], counter) == _scalar_below(seed, bounds, start)


def test_below_block_rejects_nonpositive_bounds():
    with pytest.raises(ValueError):
        rng.below_block(0, np.array([3, 0, 2]))


@pytest.mark.parametrize("call,message", [
    (lambda: rng.normals(1, 2.5), "n must be an integer, got 2.5"),
    (lambda: rng.normals(1, True), "n must be an integer, got True"),
    (lambda: rng.normals(1, -1), "n must be >= 0, got -1"),
    (lambda: rng.normals(1, 3, 1.5), "start must be an integer, got 1.5"),
    (lambda: rng.normals(1, 3, -1), "start must be >= 0, got -1"),
    (lambda: rng.u64_block(1, 2.0), "n must be an integer, got 2.0"),
    (lambda: rng.u64_block(1, 3, -1), "start must be >= 0, got -1"),
    (lambda: rng.u64_block(1, 3, "0"), "start must be an integer, got '0'"),
    (lambda: rng.below_block(1, [3, 2], -1), "start must be >= 0, got -1"),
    (lambda: rng.below_block(1, [3, 2], False), "start must be an integer, got False"),
], ids=["normals-n-float", "normals-n-bool", "normals-n-negative", "normals-start-float",
        "normals-start-negative", "u64-n-float", "u64-start-negative", "u64-start-str",
        "below-start-negative", "below-start-bool"])
def test_block_counts_and_counters_refused_by_name(call, message):
    # a float or bool count escaped as numpy's TypeError, a float start as a
    # TypeError from &, and a negative start was taken mod 2^64
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_numpy_integer_counts_and_counters_draw_the_same_bits():
    assert np.array_equal(rng.normals(1, np.int64(5), np.uint64(7)), rng.normals(1, 5, 7))
    assert np.array_equal(rng.u64_block(1, np.int32(5), np.int64(7)), rng.u64_block(1, 5, 7))
