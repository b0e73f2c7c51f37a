import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import latbal as lb
from latbal.contingency import cell_indices
from latbal.rng import derive_seed, u64_block
from latbal.sampler import (_STREAM_CELLS, _STREAM_MEMBERS, _STREAM_UNIFORM,
                            _distinct_below, read_subsample_indices, write_subsample)
from conftest import tiny_dataset
from rng_reference import SplitMix64, uniforms


def _dataset_with_cells(per_cell: dict[tuple[int, int], int]):
    """m=2 dataset whose cells hold the given number of rows."""
    rows = []
    for bits, count in per_cell.items():
        rows.extend([list(bits)] * count)
    return tiny_dataset(rows)


def _prepared(per_cell):
    ds = _dataset_with_cells(per_cell)
    return ds, lb.build_contingency(ds)


class TestBalancedSubsample:
    def test_rich_cells_draw_full_quota(self):
        # every cell holds far more than its quota: no skips possible
        ds, table = _prepared({(0, 0): 2000, (1, 0): 2000, (0, 1): 2000, (1, 1): 2000})
        res = lb.balanced_subsample(ds, table, lb.SamplePlan(1000, "skip", 42))
        assert res.size == 1000
        assert res.skipped_iterations == 0
        # 4 divides 1000: every cell's quota is exactly 250
        assert res.per_cell_counts.tolist() == [250, 250, 250, 250]
        assert len(set(res.indices.tolist())) == res.size

    def test_draw_order_interleaves_cells(self):
        # slots are visited in shuffled order, not cell by cell: the first 100
        # of 1000 draws hold each cell about 25 times (hypergeometric sd ~4.1)
        ds, table = _prepared({(0, 0): 2000, (1, 0): 2000, (0, 1): 2000, (1, 1): 2000})
        res = lb.balanced_subsample(ds, table, lb.SamplePlan(1000, "skip", 42))
        head = np.bincount(cell_indices(ds)[res.indices[:100]], minlength=4)
        assert all(10 <= c <= 40 for c in head)

    def test_supply_equal_to_demand_exhausts(self):
        # total supply == n0 and each cell's quota (250) equals its supply:
        # every cell is drawn dry and no slot is skipped
        ds, table = _prepared({(0, 0): 250, (1, 0): 250, (0, 1): 250, (1, 1): 250})
        res = lb.balanced_subsample(ds, table, lb.SamplePlan(1000, "skip", 42))
        assert res.size + res.skipped_iterations == 1000
        assert all(res.per_cell_counts[c] <= table.counts[c] for c in range(4))
        assert len(set(res.indices.tolist())) == res.size
        assert res.skipped_iterations == 0
        assert sorted(res.indices.tolist()) == list(range(1000))

    def test_oversample_fills_quota_with_duplicates(self):
        ds, table = _prepared({(0, 0): 1000, (1, 0): 1000, (0, 1): 1000, (1, 1): 3})
        res = lb.balanced_subsample(ds, table, lb.SamplePlan(1000, "oversample", 42))
        assert res.size == 1000
        rare_rows = set(np.flatnonzero(cell_indices(ds) == 3).tolist())
        drawn_rare = [i for i in res.indices.tolist() if i in rare_rows]
        assert len(drawn_rare) > len(rare_rows)  # pigeonhole: duplicates exist

    def test_empty_cell_skips_under_both_policies(self):
        # m=1, one cell empty, the other holds exactly 8 rows
        ds = tiny_dataset([[1]] * 8)
        table = lb.build_contingency(ds)
        for policy in ("skip", "oversample"):
            res = lb.balanced_subsample(ds, table, lb.SamplePlan(8, policy, 42))
            assert res.size + res.skipped_iterations == 8
            assert res.per_cell_counts[0] == 0
            if policy == "skip":
                assert len(set(res.indices.tolist())) == res.size

    def test_fully_empty_dataset(self):
        ds = tiny_dataset(np.zeros((0, 2), np.uint8))
        table = lb.build_contingency(ds)
        for policy in ("skip", "oversample"):
            res = lb.balanced_subsample(ds, table, lb.SamplePlan(5, policy, 0))
            assert res.size == 0
            assert res.skipped_iterations == 5

    def test_deterministic(self, dataset20k):
        table = lb.build_contingency(dataset20k)
        plan = lb.SamplePlan(500, "skip", 7)
        a = lb.balanced_subsample(dataset20k, table, plan)
        b = lb.balanced_subsample(dataset20k, table, plan)
        assert np.array_equal(a.indices, b.indices)
        assert np.array_equal(a.per_cell_counts, b.per_cell_counts)

    @given(seed=st.integers(0, 2**32))
    @settings(max_examples=20, deadline=None)
    def test_skip_never_repeats_and_respects_supply(self, seed):
        ds, table = _prepared({(0, 0): 9, (1, 0): 2, (0, 1): 5, (1, 1): 0})
        res = lb.balanced_subsample(ds, table, lb.SamplePlan(30, "skip", seed))
        idx = res.indices.tolist()
        assert len(set(idx)) == len(idx)
        assert all(res.per_cell_counts[c] <= table.counts[c] for c in range(4))
        assert res.per_cell_counts.sum() == res.size
        assert res.size + res.skipped_iterations == 30

    @given(seed=st.integers(0, 2**32))
    @settings(max_examples=20, deadline=None)
    def test_oversample_hits_n0_when_no_cell_is_empty(self, seed):
        ds, table = _prepared({(0, 0): 9, (1, 0): 2, (0, 1): 5, (1, 1): 1})
        res = lb.balanced_subsample(ds, table, lb.SamplePlan(40, "oversample", seed))
        assert res.size == 40
        assert res.per_cell_counts.sum() == 40

    def test_per_cell_mean_is_uniform_across_seeds(self):
        # every cell holds >= n0 rows: expected count per cell is n0/4; the
        # mean over 100 seeds must sit within 5% of it
        ds, table = _prepared({(0, 0): 400, (1, 0): 400, (0, 1): 400, (1, 1): 400})
        totals = np.zeros(4)
        for seed in range(100):
            res = lb.balanced_subsample(ds, table, lb.SamplePlan(400, "skip", seed))
            totals += res.per_cell_counts
        means = totals / 100
        assert np.all(np.abs(means - 100.0) < 5.0)

    @given(seed=st.integers(0, 2**64 - 1))
    @settings(max_examples=20, deadline=None)
    def test_quota_is_floor_or_ceil_when_supply_suffices(self, seed):
        # n0=50 over 4 cells: quotas 12 or 13, and every cell holds >= 13 rows
        ds, table = _prepared({(0, 0): 13, (1, 0): 40, (0, 1): 13, (1, 1): 20})
        res = lb.balanced_subsample(ds, table, lb.SamplePlan(50, "skip", seed))
        assert sorted(res.per_cell_counts.tolist()) == [12, 12, 13, 13]
        assert res.per_cell_counts.sum() == res.size == 50
        assert res.skipped_iterations == 0

    def test_extra_slots_go_to_every_cell_equally_often(self):
        # n0=42 over 4 cells: two cells get a 11th slot, each with chance 1/2;
        # over 400 seeds a cell gets it 200 +- 10 (binomial sd) times
        ds, table = _prepared({(0, 0): 20, (1, 0): 20, (0, 1): 20, (1, 1): 20})
        extra = np.zeros(4, dtype=np.int64)
        for seed in range(400):
            counts = lb.balanced_subsample(ds, table, lb.SamplePlan(42, "skip", seed)).per_cell_counts
            assert set(counts.tolist()) == {10, 11}
            extra += counts == 11
        assert extra.sum() == 800
        assert np.all(np.abs(extra - 200) <= 40)

    @given(seed=st.integers(0, 2**64 - 1))
    @settings(max_examples=20, deadline=None)
    def test_skips_equal_the_short_cells_shortfall(self, seed):
        # quota 12 per cell; cell 3 holds 5 rows, so skip forfeits exactly 7
        # slots and oversample fills them with repeats
        ds, table = _prepared({(0, 0): 30, (1, 0): 30, (0, 1): 30, (1, 1): 5})
        res = lb.balanced_subsample(ds, table, lb.SamplePlan(48, "skip", seed))
        assert res.skipped_iterations == 7
        assert res.per_cell_counts.tolist() == [12, 12, 12, 5]
        res = lb.balanced_subsample(ds, table, lb.SamplePlan(48, "oversample", seed))
        assert res.skipped_iterations == 0
        assert res.per_cell_counts.tolist() == [12, 12, 12, 12]

    def test_provenance_recorded(self, dataset20k):
        table = lb.build_contingency(dataset20k)
        res = lb.balanced_subsample(dataset20k, table, lb.SamplePlan(100, "skip", 1))
        assert res.meta["rng"] == "splitmix64-counter-v1"
        assert res.meta["policy"] == "skip"

    @pytest.mark.parametrize("labels", [[[1, 1]] * 5000, [[0, 0, 1]] * 200],
                             ids=["rows", "attributes"])
    def test_table_of_another_dataset_rejected(self, labels):
        # a 5000-row table would hand a 200-row dataset row indices past its end
        ds = _dataset_with_cells({(0, 0): 100, (1, 1): 100})
        table = lb.build_contingency(tiny_dataset(labels))
        shapes = (f"table of {len(labels)} rows over {len(labels[0])} attributes does not "
                  "match a dataset of 200 rows over 2 attributes")
        with pytest.raises(ValueError, match=shapes):
            lb.balanced_subsample(ds, table, lb.SamplePlan(10, "skip", 1))

    def test_plan_validation(self):
        with pytest.raises(ValueError):
            lb.SamplePlan(0, "skip", 1)
        with pytest.raises(ValueError):
            lb.SamplePlan(10, "refill", 1)

    @pytest.mark.parametrize("n0", [10.7, 10.0, True, "10"])
    def test_non_integer_n0_rejected_naming_n0(self, n0):
        # 10.7 used to fail inside below_block, and True passed as 1
        ds = tiny_dataset([[0, 0]] * 20)
        with pytest.raises(ValueError, match=f"^n0 must be an integer, got {n0!r}$"):
            lb.SamplePlan(n0, "skip", 1)
        with pytest.raises(ValueError, match=f"^n0 must be an integer, got {n0!r}$"):
            lb.uniform_subsample(ds, n0, seed=1)
        assert lb.uniform_subsample(ds, np.int64(3), seed=1).size == 3
        assert lb.SamplePlan(np.int32(3), "skip", 1).n0 == 3


    @pytest.mark.parametrize("seed", [2.5, True])
    def test_non_integer_seed_rejected_naming_seed(self, seed):
        # 2.5 used to escape as a TypeError from seed & MASK64
        ds = tiny_dataset([[0, 0]] * 20)
        with pytest.raises(ValueError, match=f"^seed must be an integer, got {seed!r}$"):
            lb.SamplePlan(10, "skip", seed)
        with pytest.raises(ValueError, match=f"^seed must be an integer, got {seed!r}$"):
            lb.uniform_subsample(ds, 3, seed)


    @pytest.mark.parametrize("seed", [2**64, -1, -2**64])
    def test_seed_outside_64_bits_rejected_naming_seed(self, seed):
        # 2**64 and -2**64 used to draw the rows of seed 0
        ds = tiny_dataset([[0, 0]] * 20)
        match = rf"^seed must be in \[0, 2\*\*64 - 1\], got {seed}$"
        with pytest.raises(ValueError, match=match):
            lb.SamplePlan(10, "skip", seed)
        with pytest.raises(ValueError, match=match):
            lb.uniform_subsample(ds, 3, seed)


class TestUniformSubsample:
    def test_full_draw_selects_every_row(self):
        ds = tiny_dataset([[0, 0]] * 50)
        res = lb.uniform_subsample(ds, 50, seed=3)
        assert sorted(res.indices.tolist()) == list(range(50))

    def test_empty_draw(self):
        ds = tiny_dataset([[0, 0]] * 10)
        res = lb.uniform_subsample(ds, 0, seed=3)
        assert res.size == 0

    def test_oversize_rejected(self):
        ds = tiny_dataset([[0, 0]] * 10)
        with pytest.raises(ValueError):
            lb.uniform_subsample(ds, 11, seed=3)

    def test_distinct_and_deterministic(self, dataset20k):
        a = lb.uniform_subsample(dataset20k, 1000, seed=5)
        b = lb.uniform_subsample(dataset20k, 1000, seed=5)
        assert np.array_equal(a.indices, b.indices)
        assert len(set(a.indices.tolist())) == 1000
        assert lb.uniform_subsample(dataset20k, 1000, seed=6).indices.tolist() != a.indices.tolist()

    def test_reproduces_source_imbalance(self):
        # cos(v0, v1) = 0.8 world: agreeing cells hold ~80% of the mass, so a
        # uniform subsample stays strongly imbalanced
        gram = np.array([[1.0, 0.8], [0.8, 1.0]])
        world = lb.make_world(dim=16, gram=gram, positive_rates=(0.5, 0.5), seed=42)
        ds = lb.sample_world(world, 50_000, seed=42)
        res = lb.uniform_subsample(ds, 1000, seed=42)
        counts = res.per_cell_counts
        assert counts.max() / counts[counts > 0].min() >= 3.0

    @pytest.mark.parametrize("n0", [0, 1, 17, 1000, 20_000])
    def test_cell_counts_equal_the_full_array_formula(self, dataset20k, n0):
        # only the drawn rows' cells are computed; the counts must equal
        # indexing the cell of every source row by the draws
        for seed in (0, 5, 42):
            res = lb.uniform_subsample(dataset20k, n0, seed)
            cells = cell_indices(dataset20k)[res.indices]
            want = np.bincount(cells, minlength=1 << dataset20k.m)
            assert res.per_cell_counts.dtype == np.int64
            assert res.per_cell_counts.tolist() == want.tolist()


@pytest.mark.parametrize("text", ["position,row_index\r\n0,7\r\n1,3\r\n",
                                  "position,row_index\r0,7\r1,3",
                                  '"position","row_index"\n"0","7"\n1,"3"\n'],
                         ids=["crlf", "cr-only", "quoted"])
def test_subsample_reader_reads_standard_csv(tmp_path, text):
    (tmp_path / "sub.csv").write_bytes(text.encode("utf-8"))
    assert read_subsample_indices(str(tmp_path / "sub.csv"), 8).tolist() == [7, 3]


def test_subsample_files_roundtrip(tmp_path, dataset20k):
    table = lb.build_contingency(dataset20k)
    res = lb.balanced_subsample(dataset20k, table, lb.SamplePlan(200, "skip", 9))
    base = str(tmp_path / "sub")
    csv_path, json_path = write_subsample(res, base)
    assert np.array_equal(read_subsample_indices(csv_path, dataset20k.n), res.indices)
    import json
    sidecar = json.loads((tmp_path / "sub.json").read_text())
    assert sidecar["policy"] == "skip"
    assert sidecar["per_cell_counts"] == res.per_cell_counts.tolist()
    assert sidecar["skipped_iterations"] == res.skipped_iterations


# Reference: the sampler as a scalar loop, one SplitMix64.below call per
# draw.  The block-drawn sampler must reproduce it exactly.

def _reference_distinct_below(rng, n, k):
    swapped = {}
    out = []
    for t in range(k):
        r = t + rng.below(n - t)
        out.append(swapped.get(r, r))
        swapped[r] = swapped.get(t, t)
    return out


def _reference_balanced(ds, plan):
    n_cells = 1 << ds.m
    pools = [[] for _ in range(n_cells)]  # each cell's rows, in row order
    for row, c in enumerate(cell_indices(ds).tolist()):
        pools[c].append(row)
    used = [0] * n_cells
    cell_rng = SplitMix64(derive_seed(plan.seed, _STREAM_CELLS))
    member_rngs = {}
    indices = []
    per_cell = np.zeros(n_cells, dtype=np.int64)
    skipped = 0
    base, extra = divmod(plan.n0, n_cells)
    slots = np.concatenate([np.tile(np.arange(n_cells), base),
                            np.asarray(_reference_distinct_below(cell_rng, n_cells, extra),
                                       np.int64)])
    keys = u64_block(cell_rng.seed, plan.n0, start=cell_rng.counter)
    for c in slots[np.argsort(keys, kind="stable")].tolist():
        pool = pools[c]
        size = len(pool)
        if size and c not in member_rngs:
            member_rngs[c] = SplitMix64(derive_seed(plan.seed, _STREAM_MEMBERS, c))
        if used[c] < size:
            r = used[c] + member_rngs[c].below(size - used[c])
            pool[r], pool[used[c]] = pool[used[c]], pool[r]
            pick = pool[used[c]]
            used[c] += 1
        elif plan.policy == "oversample" and size > 0:
            pick = pool[member_rngs[c].below(size)]
        else:
            skipped += 1
            continue
        indices.append(pick)
        per_cell[c] += 1
    return indices, per_cell.tolist(), skipped


@given(seed=st.integers(0, 2**64 - 1),
       nk=st.integers(1, 2000).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n))))
@example(seed=0, nk=(5, 0))
@example(seed=2**64 - 1, nk=(1, 1))
@example(seed=7, nk=(1 << 16, 1 << 16))  # a full shuffle has the longest chains
@settings(max_examples=100, deadline=None)
def test_distinct_below_equals_the_scalar_reference(seed, nk):
    n, k = nk
    rng = SplitMix64(seed)
    ref = _reference_distinct_below(rng, n, k)
    out, counter = _distinct_below(seed, n, k)
    assert out.dtype == np.int64
    assert out.tolist() == ref
    assert counter == rng.counter


def _reference_uniform(n, n0, seed):
    return _reference_distinct_below(SplitMix64(derive_seed(seed, _STREAM_UNIFORM)), n, n0)


class TestMatchesScalarReference:
    # three rich cells and one of 11 rows, which runs dry once its quota
    # exceeds 11 (n0 = 1000 and 100000 here)
    CELLS = {(0, 0): 40_000, (1, 0): 35_000, (0, 1): 25_000, (1, 1): 11}

    @pytest.fixture(scope="class")
    def prepared(self):
        return _prepared(self.CELLS)

    @pytest.mark.parametrize("n0", [1, 15, 16, 17, 1000, 100_000])
    @pytest.mark.parametrize("policy", ["skip", "oversample"])
    @pytest.mark.parametrize("seed", [0, 42, 2**64 - 1])
    def test_balanced(self, prepared, n0, policy, seed):
        ds, table = prepared
        plan = lb.SamplePlan(n0, policy, seed)
        res = lb.balanced_subsample(ds, table, plan)
        indices, per_cell, skipped = _reference_balanced(ds, plan)
        assert res.indices.dtype == np.int64
        assert res.indices.tolist() == indices
        assert res.per_cell_counts.tolist() == per_cell
        assert res.skipped_iterations == skipped

    # m=3: cells 5 and 7 are empty, cell 6 holds 2 rows
    NARROW = [[0, 0, 0]] * 900 + [[1, 0, 0]] * 700 + [[0, 1, 0]] * 60 + \
             [[1, 1, 0]] * 30 + [[0, 0, 1]] * 500 + [[0, 1, 1]] * 2
    # m=12: 4096 cells over 20000 rows with each bit set at rate 0.3, from
    # ~280 rows in cell 0 down to many empty cells; n0 = 20000 gives every
    # cell a quota of 4 or 5, so thousands of cells are sliced and many run dry
    WIDE = (uniforms(12, 20_000 * 12).reshape(20_000, 12) > 0.7).astype(np.uint8)

    @pytest.mark.parametrize("n0", [1, 15, 16, 17, 1000, 20_000])
    @pytest.mark.parametrize("policy", ["skip", "oversample"])
    def test_balanced_with_empty_cells(self, n0, policy):
        plan = lb.SamplePlan(n0, policy, 9)
        for rows in (self.NARROW, self.WIDE):
            ds = tiny_dataset(rows)
            res = lb.balanced_subsample(ds, lb.build_contingency(ds), plan)
            indices, per_cell, skipped = _reference_balanced(ds, plan)
            assert res.indices.tolist() == indices
            assert res.per_cell_counts.tolist() == per_cell
            assert res.skipped_iterations == skipped

    @pytest.mark.parametrize("n0", [0, 1, 15, 16, 17, 1000, 100_000])
    def test_uniform(self, dataset100k, n0):
        for seed in (0, 5):
            res = lb.uniform_subsample(dataset100k, n0, seed)
            assert res.indices.tolist() == _reference_uniform(dataset100k.n, n0, seed)

    # digests of the little-endian int64 indices, recorded with the scalar
    # sampler
    @pytest.mark.parametrize("seed,n0,policy,size,digest", [
        (42, 1000, "skip", 1000,
         "b9cd4301a58f35359799701b9f1be014b34e4fc1fd5df3f16a8097da7f323323"),
        (7, 100_000, "skip", 61463,
         "a1cc3b573d102e50a464f29645765a008af42b100849dd7e9d88c3550dcd516d"),
        (11, 100_000, "oversample", 100_000,
         "e92d2e678df20ad417aeb272318570a1a0a63e000a578792d14269af4374bc0d"),
    ])
    def test_pinned_digests(self, dataset100k, seed, n0, policy, size, digest):
        table = lb.build_contingency(dataset100k)
        res = lb.balanced_subsample(dataset100k, table, lb.SamplePlan(n0, policy, seed))
        assert res.size == size
        assert hashlib.sha256(res.indices.astype("<i8").tobytes()).hexdigest() == digest
