import dataclasses
import math

import numpy as np
import pytest

import latbal as lb
from latbal.oracle import _LABEL_ROWS, _sigmoid, world_from_dict, world_to_dict
from latbal.rng import normals

from conftest import traced_peak


def _cdf(x):
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


class TestMakeWorld:
    def test_half_rate_gives_zero_bias(self):
        world = lb.make_world(dim=8, gram=np.eye(2), positive_rates=(0.5, 0.5), seed=1)
        assert world.biases.tolist() == [0.0, 0.0]

    def test_identity_gram_gives_orthogonal_vectors(self):
        world = lb.make_world(dim=16, gram=np.eye(4),
                              positive_rates=(0.5,) * 4, seed=2)
        gram = world.vectors @ world.vectors.T
        assert np.abs(gram - np.eye(4)).max() <= 1e-10

    def test_bias_for_8413_rate(self):
        # P(N(0,1) > b) = 0.8413 -> b ~ -1.0
        world = lb.make_world(dim=4, gram=np.eye(1), positive_rates=(0.8413,), seed=3)
        assert world.biases[0] == pytest.approx(-1.0, abs=1e-3)
        # and the bias inverts the CDF exactly
        assert _cdf(world.biases[0]) == pytest.approx(1 - 0.8413, abs=1e-12)

    def test_gram_fidelity_for_correlated_world(self, world42):
        realized = world42.vectors @ world42.vectors.T
        assert np.abs(realized - world42.gram).max() <= 1e-10
        assert np.allclose(np.linalg.norm(world42.vectors, axis=1), 1.0, atol=1e-12)

    def test_non_psd_gram_rejected(self):
        gram = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues -1 and 3
        with pytest.raises(ValueError, match="positive semi-definite"):
            lb.make_world(dim=4, gram=gram, positive_rates=(0.5, 0.5), seed=0)

    def test_asymmetric_gram_rejected(self):
        gram = np.array([[1.0, 0.2], [0.3, 1.0]])
        with pytest.raises(ValueError, match="symmetric"):
            lb.make_world(dim=4, gram=gram, positive_rates=(0.5, 0.5), seed=0)

    def test_dim_must_cover_m(self):
        with pytest.raises(ValueError, match="dim"):
            lb.make_world(dim=2, gram=np.eye(3), positive_rates=(0.5,) * 3, seed=0)

    @pytest.mark.parametrize("rate", [0.0, 1.0, -0.2, 1.3, float("nan")])
    def test_rates_must_be_interior(self, rate):
        with pytest.raises(ValueError, match="rates"):
            lb.make_world(dim=4, gram=np.eye(1), positive_rates=(rate,), seed=0)

    @pytest.mark.parametrize("sharpness", [0.0, -1.0, float("nan"), float("inf")])
    def test_sharpness_must_be_finite_and_positive(self, sharpness):
        with pytest.raises(ValueError, match="sharpness"):
            lb.make_world(dim=4, gram=np.eye(1), positive_rates=(0.5,),
                          sharpness=sharpness, seed=0)

    @pytest.mark.parametrize("kwargs,message", [
        (dict(gram=np.eye(3)), r"gram must be 2x2, got \(3, 3\)"),
        (dict(gram=np.diag([1.0, 2.0])), "gram matrix must have unit diagonal"),
        # the 1e-12 tolerances are absolute, not relative
        (dict(gram=[[1.0, 0.6], [0.600001, 1.0]]), "gram matrix must be symmetric"),
        (dict(gram=np.diag([1.000005, 1.0])), "gram matrix must have unit diagonal"),
        (dict(names=("a", "b", "c")), "expected 2 names, got 3"),
    ], ids=["gram-shape", "gram-diagonal", "gram-nearly-symmetric", "gram-diagonal-near-1",
            "names-count"])
    def test_bad_gram_or_names_count_rejected(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            lb.make_world(**{"dim": 4, "gram": np.eye(2),
                             "positive_rates": (0.5, 0.5), "seed": 0, **kwargs})

    @pytest.mark.parametrize("names,message", [("ab", "got the string 'ab'"),
                                               (("a", "a"), "unique")])
    def test_names_must_be_a_sequence_of_unique_names(self, names, message):
        with pytest.raises(ValueError, match=message):
            lb.make_world(dim=4, gram=np.eye(2), positive_rates=(0.5, 0.5),
                          seed=0, names=names)


class TestSampleWorld:
    def test_empty_sample(self, world42):
        ds = lb.sample_world(world42, 0, seed=1)
        assert ds.n == 0
        assert lb.validate_dataset(ds) == []

    def test_identity_gram_half_rates_fill_cells_uniformly(self):
        world = lb.make_world(dim=16, gram=np.eye(4),
                              positive_rates=(0.5,) * 4, seed=42)
        ds = lb.sample_world(world, 100_000, seed=42)
        counts = lb.build_contingency(ds).counts
        expected = 100_000 / 16
        sigma = math.sqrt(100_000 * (1 / 16) * (15 / 16))
        assert np.abs(counts - expected).max() <= 3 * sigma

    def test_orthant_agreement_probability(self):
        # P(bit0 == bit1) = 1 - arccos(rho)/pi for 50% rates
        gram = np.array([[1.0, 0.8], [0.8, 1.0]])
        world = lb.make_world(dim=8, gram=gram, positive_rates=(0.5, 0.5), seed=42)
        ds = lb.sample_world(world, 100_000, seed=42)
        agree = (ds.labels[:, 0] == ds.labels[:, 1]).mean()
        expected = 1 - math.acos(0.8) / math.pi
        sigma = math.sqrt(expected * (1 - expected) / 100_000)
        assert abs(agree - expected) <= 3 * sigma

    def test_marginal_rates_hit(self, world42):
        ds = lb.sample_world(world42, 100_000, seed=7)
        for k, rate in enumerate(world42.rates):
            sigma = math.sqrt(rate * (1 - rate) / 100_000)
            assert abs(ds.labels[:, k].mean() - rate) <= 4 * sigma

    def test_deterministic(self, world42):
        a = lb.sample_world(world42, 100, seed=9)
        b = lb.sample_world(world42, 100, seed=9)
        assert np.array_equal(a.codes, b.codes)
        assert np.array_equal(a.labels, b.labels)

    def test_negative_n_rejected(self, world42):
        with pytest.raises(ValueError):
            lb.sample_world(world42, -1, seed=0)

    @pytest.mark.parametrize("n", [2.5, True, "3"])
    def test_non_integer_n_rejected_naming_n(self, world42, n):
        # 2.5 used to escape from reshape as a TypeError, and True passed for 1
        with pytest.raises(ValueError, match=f"^n must be an integer, got {n!r}$"):
            lb.sample_world(world42, n, seed=0)
        assert lb.sample_world(world42, np.int64(3), seed=0).n == 3

    @pytest.mark.parametrize("seed", [2.5, True])
    def test_non_integer_seed_rejected_naming_seed(self, world42, seed):
        # 2.5 used to escape as a TypeError from seed & MASK64
        match = f"^seed must be an integer, got {seed!r}$"
        with pytest.raises(ValueError, match=match):
            lb.sample_world(world42, 3, seed=seed)
        with pytest.raises(ValueError, match=match):
            lb.default_world(seed)

    @pytest.mark.parametrize("n", [0, 1, _LABEL_ROWS - 1, _LABEL_ROWS, _LABEL_ROWS + 1, 20_000])
    def test_block_labels_equal_the_whole_array_labels(self, world42, n):
        ds = lb.sample_world(world42, n, seed=5)
        expected = (world42.margins(ds.codes) > 0).astype(np.uint8)
        assert ds.labels.dtype == np.uint8
        assert ds.labels.tobytes() == expected.tobytes() and ds.labels.shape == (n, 4)

    def test_labelling_holds_no_copy_beyond_codes_and_labels(self):
        # at m=16 an n x m float64 margin array is 1/4 of the codes; the row
        # blocks keep the labelling pass, and the contingency build after it,
        # within 4 MiB of what they return
        world = lb.make_world(dim=64, gram=np.eye(16), positive_rates=(0.3,) * 16, seed=1)
        ds, sampled = traced_peak(lb.sample_world, world, 200_000, seed=3)
        _, built = traced_peak(lb.build_contingency, ds)
        assert sampled <= ds.codes.nbytes + ds.labels.nbytes + 4 * 2**20
        assert built <= 4 * 2**20


class TestOracleScore:
    def test_midpoint_score(self):
        world = lb.make_world(dim=8, gram=np.eye(1), positive_rates=(0.3,), seed=5)
        z = world.biases[0] * world.vectors[0]  # margin exactly ~0
        score = world.score(z)
        assert score[0] == pytest.approx(0.5, abs=1e-12)

    def test_saturation_at_high_sharpness(self):
        world = lb.make_world(dim=8, gram=np.eye(1), positive_rates=(0.5,),
                              sharpness=1000.0, seed=5)
        z = 0.1 * world.vectors[0]
        assert world.score(z)[0] > 0.999

    def test_closed_form_logistic_value(self):
        world = lb.make_world(dim=8, gram=np.eye(2), positive_rates=(0.3, 0.7), seed=6)
        z = (world.biases[0] + 1.0) * world.vectors[0]
        expected = 1.0 / (1.0 + math.exp(-1.0))  # ~0.7311
        assert world.score(z)[0] == pytest.approx(expected, abs=1e-10)

    def test_scores_match_labels(self, world42):
        ds = lb.sample_world(world42, 10_000, seed=8)
        scores = world42.score(ds.codes)
        assert np.array_equal(scores > 0.5, ds.labels.astype(bool))

    def test_dimension_mismatch(self, world42):
        with pytest.raises(ValueError, match="dimension"):
            world42.score(np.zeros(5))


def test_logit_shift_is_exactly_linear(world42):
    # logit(score(z + a u)) - logit(score(z)) = kappa * a * <v_k, u>
    z = normals(55, 10 * world42.dim).reshape(10, world42.dim)
    u = normals(56, world42.dim)
    u /= np.linalg.norm(u)
    alpha = 0.2
    shift = world42.logits(z + alpha * u) - world42.logits(z)
    expected = world42.sharpness * alpha * (world42.vectors @ u)
    assert np.abs(shift - expected).max() <= 1e-10
    # and through the sigmoid scores as well
    s0, s1 = world42.score(z), world42.score(z + alpha * u)
    logit = lambda s: np.log(s / (1.0 - s))
    assert np.abs((logit(s1) - logit(s0)) - expected).max() <= 1e-9


def test_sigmoid_equals_the_masked_formula_bit_for_bit():
    # the masked formula takes exp(-x) where x >= 0 and exp(x) elsewhere
    special = [0.0, -0.0, np.inf, -np.inf, 800.0, -800.0, 1e-300, -1e-300]
    x = np.concatenate([normals(57, 2000 * 4), special]).reshape(-1, 4)
    pos = x >= 0
    masked = np.empty_like(x)
    masked[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    masked[~pos] = ex / (1.0 + ex)
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        out = _sigmoid(x)
    assert out.shape == x.shape
    assert np.array_equal(out.view(np.uint64), masked.view(np.uint64))


def test_world_json_roundtrip_bit_exact(tmp_path, world42):
    path = str(tmp_path / "world.json")
    lb.save_world(world42, path)
    loaded = lb.load_world(path)
    assert np.array_equal(loaded.vectors, world42.vectors)
    assert np.array_equal(loaded.biases, world42.biases)
    assert loaded.names == world42.names
    assert loaded.sharpness == world42.sharpness
    # reloaded world scores identically
    z = normals(57, 3 * world42.dim).reshape(3, world42.dim)
    assert np.array_equal(loaded.score(z), world42.score(z))


def test_world_dict_schema_version_checked(world42):
    obj = world_to_dict(world42)
    obj["schema_version"] = 2
    with pytest.raises(ValueError, match="schema_version"):
        world_from_dict(obj)


def test_world_dict_dim_below_m_rejected(world42):
    obj = world_to_dict(world42)
    obj["dim"], obj["vectors"] = 2, [row[:2] for row in obj["vectors"]]
    with pytest.raises(ValueError, match=r"dim \(2\) must be >= m \(4\)"):
        world_from_dict(obj)


@pytest.mark.parametrize("field,value", [("biases", np.zeros(4)), ("dim", 8),
                                         ("rates", np.full(4, 0.5)), ("sharpness", 2.0)])
def test_world_is_frozen(world42, field, value):
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(world42, field, value)


@pytest.mark.parametrize("field", ["vectors", "gram", "rates", "biases"])
def test_world_arrays_are_read_only(field):
    # a writable rates array would leave the derived biases stale
    world = lb.default_world(seed=42)  # not the shared fixture, which a failure would change
    with pytest.raises(ValueError, match="read-only"):
        getattr(world, field)[0] = 0.9
    assert world.rates.tolist() == [0.5, 0.3, 0.5, 0.2]


def test_world_leaves_the_callers_arrays_writable():
    gram, rates = np.eye(2), np.array([0.5, 0.5])
    world = lb.make_world(dim=8, gram=gram, positive_rates=rates, seed=1)
    vectors = world.vectors.copy()
    lb.LinearAttributeWorld(vectors=vectors, gram=gram, rates=rates, sharpness=1.0,
                            seed=1, names=world.names)
    for arr in (gram, rates, vectors):
        assert arr.flags.writeable
    gram[0, 0] = 2.0
    assert world.gram[0, 0] == 1.0


def test_world_vectors_must_be_a_matrix(world42):
    fields = {f: getattr(world42, f) for f in ("gram", "rates", "sharpness", "seed", "names")}
    for vectors in (world42.vectors[0], world42.vectors[None]):
        with pytest.raises(ValueError, match=r"^vectors must be an m x d matrix, got shape"):
            lb.LinearAttributeWorld(vectors=vectors, **fields)


@pytest.mark.parametrize("sharpness", ["x", True, float("inf"), 0.0])
def test_world_sharpness_must_be_a_finite_positive_number(world42, sharpness):
    # "x" used to raise numpy's TypeError from isfinite, and True passed as 1.0
    fields = {f: getattr(world42, f) for f in ("vectors", "gram", "rates", "seed", "names")}
    with pytest.raises(ValueError,
                       match=f"^sharpness must be a finite positive number, got {sharpness}$"):
        lb.LinearAttributeWorld(sharpness=sharpness, **fields)
    assert lb.LinearAttributeWorld(sharpness=np.float64(2.0), **fields).sharpness == 2.0


@pytest.mark.parametrize("field", ["biases", "dim"])
def test_world_derives_biases_and_dim(world42, field):
    fields = {f: getattr(world42, f)
              for f in ("vectors", "gram", "rates", "sharpness", "seed", "names")}
    built = lb.LinearAttributeWorld(**fields)
    assert built.dim == world42.vectors.shape[1]
    assert np.array_equal(built.biases, world42.biases)
    with pytest.raises(TypeError, match=field):
        lb.LinearAttributeWorld(**fields, **{field: getattr(world42, field)})


def test_world_dict_biases_must_follow_the_rates(world42):
    obj = world_to_dict(world42)
    obj["biases"][1] += 1e-11
    with pytest.raises(ValueError, match="field 'biases' does not match"):
        world_from_dict(obj)
    obj["biases"][1] -= 1e-11  # within 1e-12 of the derived bias loads
    assert np.array_equal(world_from_dict(obj).biases, world42.biases)


def test_default_world_shape(world42):
    assert world42.dim == 64 and world42.m == 4
    assert world42.gram[0, 1] == 0.6 and world42.gram[2, 3] == 0.6
    assert world42.gram[0, 2] == 0.0
    assert world42.rates.tolist() == [0.5, 0.3, 0.5, 0.2]
