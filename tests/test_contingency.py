import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import latbal as lb
from latbal.contingency import bits_string, cell_dtype, cell_indices, write_contingency_csv
from conftest import tiny_dataset, traced_peak
from rng_reference import uniforms


def test_counts_for_known_labels():
    # rows "00", "01", "01", "11" -> counts [1, 0, 2, 1] under LSB-first indexing
    ds = tiny_dataset([[0, 0], [0, 1], [0, 1], [1, 1]])
    table = lb.build_contingency(ds)
    assert table.counts.tolist() == [1, 0, 2, 1]


def test_empty_dataset_all_zero():
    ds = tiny_dataset(np.zeros((0, 3), np.uint8))
    table = lb.build_contingency(ds)
    assert table.counts.tolist() == [0] * 8


def test_counts_are_bincounts_int64_array_without_a_copy():
    # at m=20 the 2^20 counts take 8 MiB; a re-cast copy of them doubles the peak
    ds = tiny_dataset((uniforms(20, 1000 * 20).reshape(1000, 20) > 0.5).astype(np.uint8))
    table, peak = traced_peak(lb.build_contingency, ds)
    assert table.counts.dtype == np.int64 and table.counts.sum() == 1000
    assert peak <= 9 * 2**20


def test_members_partition_rows():
    ds = tiny_dataset([[0, 0], [0, 1], [0, 1], [1, 1], [0, 0]])
    table = lb.build_contingency(ds)
    # cells 0, 2, 3 hold rows {0, 4}, {1, 2}, {3}, in row order
    assert table.order.tolist() == [0, 4, 1, 2, 3]


@pytest.mark.parametrize("m", [1, 8, 9, 16, 17, 20])
@pytest.mark.parametrize("rows", [None, [5, 0, 5, 999, 3]], ids=["all", "rows"])
def test_cell_indices_equal_the_int64_matmul_in_the_narrow_dtype(m, rows):
    labels = (uniforms(m + 1, 1000 * m).reshape(1000, m) > 0.5).astype(np.uint8)
    labels[0], labels[1] = 1, 0  # the highest and the lowest cell
    ds = tiny_dataset(labels)
    cells = cell_indices(ds, rows)
    picked = labels if rows is None else labels[rows]
    assert cells.dtype == cell_dtype(2 ** m)
    assert np.array_equal(cells, picked.astype(np.int64) @ (1 << np.arange(m, dtype=np.int64)))


@pytest.mark.parametrize("m", [3, 17, 20])
def test_order_is_the_stable_int64_order(m):
    # the cells are sorted as uint8 at m=3 and as uint32 at m=17 and m=20;
    # mostly-zero labels put many rows in the same cell, so an unstable order
    # would show
    labels = (uniforms(m, 4000 * m).reshape(4000, m) > 0.85).astype(np.uint8)
    ds = tiny_dataset(labels)
    table = lb.build_contingency(ds)
    cells = cell_indices(ds)
    assert np.array_equal(table.order, np.argsort(cells, kind="stable"))
    start = np.cumsum(table.counts) - table.counts
    for c in np.flatnonzero(table.counts).tolist():
        rows = table.order[start[c]:start[c] + table.counts[c]]
        assert np.array_equal(rows, np.flatnonzero(cells == c))


def test_permutation_leaves_counts_unchanged():
    labels = (uniforms(3, 50 * 3).reshape(50, 3) > 0.4).astype(np.uint8)
    ds = tiny_dataset(labels)
    perm = np.argsort(uniforms(4, 50))
    shuffled = tiny_dataset(labels[perm])
    assert np.array_equal(lb.build_contingency(ds).counts,
                          lb.build_contingency(shuffled).counts)


@given(seed=st.integers(0, 2**32), m=st.integers(1, 5))
@settings(max_examples=30, deadline=None)
def test_conservation(seed, m):
    labels = (uniforms(seed, 40 * m).reshape(40, m) > 0.5).astype(np.uint8)
    table = lb.build_contingency(tiny_dataset(labels))
    assert table.counts.sum() == 40


class TestImbalanceStats:
    def test_uniform_counts(self):
        table = lb.ContingencyTable(m=2, counts=np.array([250] * 4), order=np.empty(0, np.int64))
        stats = lb.imbalance_stats(table)
        assert stats.max_min_ratio == 1.0
        assert stats.chi_square_vs_uniform == 0.0

    def test_small_example(self):
        table = lb.ContingencyTable(m=2, counts=np.array([1, 0, 2, 1]),
                                    order=np.empty(0, np.int64))
        stats = lb.imbalance_stats(table)
        assert stats.nonempty_cells == 3
        assert stats.max_min_ratio == 2.0
        assert stats.min_cell == 0 and stats.max_cell == 2

    def test_empty_table(self):
        table = lb.ContingencyTable(m=1, counts=np.zeros(2, np.int64), order=np.empty(0, np.int64))
        stats = lb.imbalance_stats(table)
        assert stats.max_min_ratio is None
        assert stats.chi_square_vs_uniform == 0.0

    def test_chi_square_value(self):
        table = lb.ContingencyTable(m=1, counts=np.array([30, 10]), order=np.empty(0, np.int64))
        # expected 20 per cell: (10^2 + 10^2) / 20 = 10
        assert lb.imbalance_stats(table).chi_square_vs_uniform == pytest.approx(10.0)

    def test_balanced_subsample_concentration(self, dataset100k):
        # each of the 16 cells gets a quota of 62 or 63 slots, and every cell of
        # this dataset holds more than 63 rows, so the ratio is at most 63/62
        table = lb.build_contingency(dataset100k)
        result = lb.balanced_subsample(dataset100k, table,
                                       lb.SamplePlan(n0=1000, policy="skip", seed=42))
        sub_table = lb.build_contingency(dataset100k.select(result.indices))
        ratio = lb.imbalance_stats(sub_table).max_min_ratio
        assert ratio is not None and ratio <= 63 / 62


def test_correlated_pair_concentrates_on_agreeing_cells():
    # cos(v0, v1) = 0.8 at 50% rates: P(bits agree) = 1 - arccos(0.8)/pi ~ 0.795
    gram = np.array([[1.0, 0.8], [0.8, 1.0]])
    world = lb.make_world(dim=16, gram=gram, positive_rates=(0.5, 0.5), seed=42)
    ds = lb.sample_world(world, 100_000, seed=42)
    counts = lb.build_contingency(ds).counts
    agree = (counts[0] + counts[3]) / counts.sum()
    expected = 1.0 - math.acos(0.8) / math.pi
    sigma = math.sqrt(expected * (1 - expected) / 100_000)
    assert abs(agree - expected) <= 3 * sigma
    assert agree > 0.75


def test_bits_string_attribute0_first():
    assert bits_string(2, 2) == "01"
    assert bits_string(1, 2) == "10"
    assert bits_string(5, 4) == "1010"


def test_csv_roundtrip(tmp_path):
    ds = tiny_dataset([[0, 0], [0, 1], [0, 1], [1, 1]])
    table = lb.build_contingency(ds)
    path = str(tmp_path / "table.csv")
    write_contingency_csv(table, path)
    text = (tmp_path / "table.csv").read_text()
    assert text.splitlines()[0] == "cell_index,bits,count"
    assert text.splitlines()[1:] == ["0,00,1", "1,10,0", "2,01,2", "3,11,1"]
