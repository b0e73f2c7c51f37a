import dataclasses
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import latbal as lb
from latbal.contingency import bits_string, cell_indices
from latbal.core import check_number
from conftest import tiny_dataset
from rng_reference import uniforms


class TestAttributeSchema:
    def test_valid(self):
        s = lb.AttributeSchema(("glasses", "gender", "smile", "age"))
        assert s.m == 4

    @pytest.mark.parametrize("names", [(), ("a",) * 21, ("a", "a"), ("a", "")])
    def test_invalid(self, names):
        with pytest.raises(ValueError):
            lb.AttributeSchema(names)

    def test_bare_string_rejected(self):
        # tuple("ab") would be two one-letter names
        with pytest.raises(ValueError, match="got the string 'ab'"):
            lb.AttributeSchema("ab")
        # nor may a name that is not a string become one
        with pytest.raises(ValueError, match="attribute names must be strings, got 1"):
            lb.AttributeSchema(["a", 1])

    def test_twenty_attributes_allowed(self):
        assert lb.AttributeSchema(tuple(f"a{k}" for k in range(20))).m == 20


class TestLabelCombination:
    def test_lsb_first_indexing(self):
        # attribute 0 is the least significant bit: 1 -> "10", 2 -> "01"
        assert [bits_string(c, 2) for c in range(4)] == ["00", "10", "01", "11"]
        ds = tiny_dataset([[0, 0], [1, 0], [0, 1], [1, 1]])
        assert cell_indices(ds).tolist() == [0, 1, 2, 3]

    @given(bits=st.lists(st.integers(0, 1), min_size=1, max_size=20))
    @settings(max_examples=200, deadline=None)
    def test_encode_decode_bijection(self, bits):
        index = int(cell_indices(tiny_dataset([bits]))[0])
        assert index == sum(b << j for j, b in enumerate(bits))
        assert bits_string(index, len(bits)) == "".join(map(str, bits))


class TestValidateDataset:
    def test_nan_code_reported_with_row(self):
        ds = tiny_dataset([[0, 1], [1, 0]], dim=2)
        codes = ds.codes.copy()
        codes[1, 0] = math.nan
        bad = lb.LatentDataset(codes=codes, labels=ds.labels, schema=ds.schema)
        violations = lb.validate_dataset(bad)
        assert violations
        assert any("row 1" in v for v in violations)

    @pytest.mark.parametrize("rows,expected", [
        ([[1e308, 1e308], [1e308, 1e308], [-1e308, 1.0]], []),
        ([[math.inf, 1.0], [0.0, 0.0], [-math.inf, 2.0], [math.nan, -math.inf]],
         ["codes row 0: non-finite component", "codes row 2: non-finite component",
          "codes row 3: non-finite component"]),
    ], ids=["finite-sum-overflows", "mixed-infinities"])
    def test_non_finite_codes_named_without_warnings(self, rows, expected):
        ds = tiny_dataset([[0]] * len(rows), dim=2)
        ds = lb.LatentDataset(codes=np.array(rows), labels=ds.labels, schema=ds.schema)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert lb.validate_dataset(ds) == expected

    def test_bad_labels_named_by_row(self):
        # the constructor names the first bad row; no dataset holds one
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as exc:
                tiny_dataset([[0, 1], [1, 1], [2, 0], [0, 0], [1, 7], [0, 0]])
        assert str(exc.value) == "label row 2 holds a value that is not 0 or 1"

    def test_empty_dataset_is_ok(self):
        schema = lb.AttributeSchema(tuple(f"a{k}" for k in range(4)))
        ds = lb.LatentDataset(codes=np.zeros((0, 512)),
                              labels=np.zeros((0, 4), np.uint8), schema=schema)
        assert ds.dim == 512
        assert lb.validate_dataset(ds) == []

    def test_row_count_mismatch(self):
        schema = lb.AttributeSchema(("a", "b"))
        with pytest.raises(ValueError, match=r"labels have shape \(2, 2\), expected \(3, 2\)"):
            lb.LatentDataset(codes=np.zeros((3, 2)),
                             labels=np.zeros((2, 2), np.uint8), schema=schema)

    def test_label_values_checked(self):
        ds = tiny_dataset([[0, 1]])
        labels = ds.labels.copy()
        labels[0, 0] = 3
        with pytest.raises(ValueError, match="label row 0 holds a value that is not 0 or 1"):
            lb.LatentDataset(codes=ds.codes, labels=labels, schema=ds.schema)

    @pytest.mark.parametrize("labels,message", [
        ([[0.9]], "label row 0 holds a value that is not 0 or 1"),
        ([[-1]], "label row 0 holds a value that is not 0 or 1"),
        ([[2]], "label row 0 holds a value that is not 0 or 1"),
        ([[1.0], [math.nan]], "label row 1 holds a value that is not 0 or 1"),
        ([[1, 0]], r"labels have shape \(1, 2\), expected \(1, 1\)"),
        ([1], r"labels have shape \(1,\), expected \(1, 1\)"),
    ], ids=["0.9", "-1", "2", "nan", "columns", "1-d"])
    def test_constructor_refuses_bad_labels(self, labels, message):
        with pytest.raises(ValueError, match=message):
            lb.LatentDataset(codes=np.zeros((len(labels), 2)), labels=labels,
                             schema=lb.AttributeSchema(("a",)))

    @pytest.mark.parametrize("codes,message", [
        (np.zeros(3), r"codes must be 2-d with dim > 0, got shape \(3,\)"),
        (np.zeros((3, 0)), r"codes must be 2-d with dim > 0, got shape \(3, 0\)"),
    ], ids=["1-d", "dim-0"])
    def test_constructor_refuses_bad_codes(self, codes, message):
        with pytest.raises(ValueError, match=message):
            lb.LatentDataset(codes=codes, labels=np.zeros((3, 1), np.uint8),
                             schema=lb.AttributeSchema(("a",)))

    def test_float_and_bool_labels_of_0_and_1_are_kept_as_uint8(self):
        for labels in ([[1.0], [0.0]], [[True], [False]]):
            ds = lb.LatentDataset(codes=np.zeros((2, 2)), labels=labels,
                                  schema=lb.AttributeSchema(("a",)))
            assert ds.labels.dtype == np.uint8 and ds.labels.tolist() == [[1], [0]]

    def test_dataset_is_frozen(self):
        ds = tiny_dataset([[0, 1]])
        with pytest.raises(dataclasses.FrozenInstanceError):
            ds.labels = np.array([[2, 2]], np.uint8)
        with pytest.raises(ValueError):
            ds.labels[0, 0] = 2

    def test_valid_oracle_sample(self, dataset20k):
        assert lb.validate_dataset(dataset20k) == []


class TestSplitByAttribute:
    def test_basic_partition(self):
        # label rows "10", "11", "00" (attribute 0 is the first character)
        ds = tiny_dataset([[1, 0], [1, 1], [0, 0]])
        pos, neg = lb.split_by_attribute(ds, 0)
        assert pos.n == 2 and neg.n == 1
        assert np.array_equal(pos.labels, [[1, 0], [1, 1]])

    def test_all_positive_gives_empty_negatives(self):
        ds = tiny_dataset([[1, 1], [1, 1]])
        pos, neg = lb.split_by_attribute(ds, 1)
        assert pos.n == 2 and neg.n == 0

    def test_index_out_of_range(self):
        ds = tiny_dataset([[1, 0]])
        with pytest.raises(IndexError):
            lb.split_by_attribute(ds, 2)

    def test_planted_positive_rate(self):
        # m=1 world with a 30% positive rate; binomial 3-sigma check
        world = lb.make_world(dim=8, gram=np.eye(1), positive_rates=(0.3,), seed=42)
        ds = lb.sample_world(world, 10_000, seed=42)
        pos, neg = lb.split_by_attribute(ds, 0)
        assert pos.n + neg.n == ds.n
        sigma = math.sqrt(0.3 * 0.7 / 10_000)
        assert abs(pos.n / ds.n - 0.3) <= 3 * sigma

    @given(seed=st.integers(0, 2**32), j=st.integers(0, 3))
    @settings(max_examples=25, deadline=None)
    def test_partition_property(self, seed, j):
        labels = (uniforms(seed, 30 * 4).reshape(30, 4) > 0.5).astype(np.uint8)
        ds = tiny_dataset(labels)
        pos, neg = lb.split_by_attribute(ds, j)
        assert pos.n + neg.n == ds.n
        assert np.all(pos.labels[:, j] == 1)
        assert np.all(neg.labels[:, j] == 0)


class TestSemanticDirection:
    def test_rejects_non_unit(self):
        with pytest.raises(ValueError, match="unit"):
            lb.SemanticDirection(attribute=0, vector=np.array([1.0, 1.0]), method="centroid")

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="unit"):
            lb.SemanticDirection(attribute=0, vector=np.array([bad, 0.0, 0.0]),
                                 method="centroid")

    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError, match="method"):
            lb.SemanticDirection(attribute=0, vector=np.array([1.0, 0.0]), method="pca")

    @pytest.mark.parametrize("vector", [[[1.0, 0.0]], [], 1.0], ids=["2-d", "empty", "0-d"])
    def test_rejects_a_vector_that_is_not_1d_and_non_empty(self, vector):
        with pytest.raises(ValueError, match="must be 1-d and non-empty"):
            lb.SemanticDirection(attribute=0, vector=vector, method="centroid")

    def test_rejects_a_negative_attribute(self):
        with pytest.raises(ValueError, match="attribute must be >= 0, got -3"):
            lb.SemanticDirection(attribute=-3, vector=[1.0, 0.0], method="centroid")


def test_select_preserves_order_and_repeats():
    ds = tiny_dataset([[0, 0], [1, 0], [0, 1]])
    sub = ds.select([2, 0, 2])
    assert np.array_equal(sub.labels, [[0, 1], [0, 0], [0, 1]])


@pytest.mark.parametrize("indices", [[0.5, 1.5], np.array([True, False, True]),
                                     np.arange(0.0, 2.0)], ids=["floats", "bool", "whole-floats"])
def test_select_refuses_non_integer_indices_naming_the_dtype(indices):
    # [0.5, 1.5] used to select rows 0 and 1, and a mask rows 1, 0, 1
    ds = tiny_dataset([[0, 0], [1, 0], [0, 1]])
    dtype = np.asarray(indices).dtype
    with pytest.raises(ValueError, match=f"^row indices must be integers, got dtype {dtype}$"):
        ds.select(indices)
    assert ds.select(np.array([2, 0], dtype=np.uint8)).labels.tolist() == [[0, 1], [0, 0]]


def test_dataset_arrays_are_readonly(dataset20k):
    with pytest.raises(ValueError):
        dataset20k.codes[0, 0] = 1.0


@pytest.mark.parametrize("value,positive,kind", [
    (True, False, "finite number"), ("1", False, "finite number"),
    (None, False, "finite number"), (float("nan"), False, "finite number"),
    (-float("inf"), False, "finite number"), (np.float32("inf"), True, "finite positive number"),
    (0.0, True, "finite positive number"), (-2, True, "finite positive number"),
    # an integer beyond the float range used to escape as OverflowError
    (10**400, False, "finite number"), (-10**400, True, "finite positive number"),
], ids=["bool", "str", "none", "nan", "-inf", "numpy-inf", "zero", "negative", "huge-int",
        "huge-negative-int"])
def test_check_number_refuses_by_name(value, positive, kind):
    with pytest.raises(ValueError, match=f"^x must be a {kind}, got {re.escape(repr(value))}$"):
        check_number("x", value, positive=positive)


@pytest.mark.parametrize("value", [2, np.float32(0.5), np.int64(-3), 1e-300])
def test_check_number_returns_a_float(value):
    # a numpy scalar kept as given would not serialize to JSON
    checked = check_number("x", value)
    assert type(checked) is float and checked == value
