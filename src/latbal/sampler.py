"""Multi-attribute balanced subsampling, plus the uniform baseline.

Balanced sampling is stratified cell scheduling.  A schedule of exactly
n0 slots gives each of the 2^m cells a quota of floor(n0/2^m) or
ceil(n0/2^m) slots: the n0 mod 2^m cells that get the extra slot are a
seeded uniform choice of distinct cells, so every cell's expected count is
n0/2^m.  The slots are in shuffled order, so draws stay interleaved across
cells.  Each slot draws one member of its cell uniformly without
replacement.  When a slot's cell has no members left:

  skip        the slot is forfeited (counted in skipped_iterations), so the
              result can hold fewer than n0 indices; skipped_iterations is
              exactly the sum over cells of max(0, quota_c - supply_c),
              which is nonzero only for cells with too few rows;
  oversample  the draw falls back to sampling with replacement from the
              cell's full member list.  Cells that still have unused
              members keep drawing without replacement.  A cell that is
              empty in the source has nothing to resample, so those slots
              are skipped under either policy.

So a cell with quota q and s members draws, in closed form, min(q, s) rows
under skip, and under oversample q rows if s > 0 and none if s = 0.

Randomness: one SplitMix64 stream (_STREAM_CELLS) drives the schedule: it
picks the extra-slot cells, then its next n0 outputs are random sort keys
that shuffle the slots.  One stream per cell drives member draws: a cell
with quota q and s members draws min(q, s) members without replacement (a
partial Fisher-Yates shuffle over its member list), then, under oversample,
q - s more with replacement from the shuffled list, filling its slots in
schedule order.  All derive from the plan seed (see rng.derive_seed).  Each
stream's draws come from one vectorized block (rng.below_block), with
rejection sampling handled exactly, so the values equal successive calls
of the scalar reference SplitMix64.below in tests/rng_reference.py.  The partial
Fisher-Yates shuffle is resolved as whole arrays too (see _distinct_below):
there is no per-draw loop, and its output equals the scalar shuffle in
tests/test_sampler.py draw for draw.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .contingency import ContingencyTable, cell_dtype, cell_indices
from .core import LatentDataset, check_integer, check_seed
from .dataio import atomic_write_text, csv_text, read_csv, write_json
from .rng import ALGORITHM, below_block, derive_seed, u64_block

POLICIES = ("skip", "oversample")

_STREAM_CELLS = 1
_STREAM_MEMBERS = 2
_STREAM_UNIFORM = 3


@dataclass(frozen=True)
class SamplePlan:
    n0: int
    policy: str
    seed: int

    def __post_init__(self):
        # a float or a bool n0 would reach the draw as a bound, or count as 1
        check_integer("n0", self.n0, 1)
        check_seed("seed", self.seed)
        if self.policy not in POLICIES:
            raise ValueError(f"policy must be one of {POLICIES}, got {self.policy!r}")


@dataclass
class SubsampleResult:
    indices: np.ndarray           # dataset row indices, draw order
    per_cell_counts: np.ndarray
    skipped_iterations: int
    meta: dict = field(default_factory=dict)

    @property
    def size(self) -> int:
        return int(self.indices.shape[0])


def _distinct_below(seed: int, n: int, k: int) -> tuple[np.ndarray, int]:
    """k distinct integers in [0, n) by a partial Fisher-Yates shuffle.

    Also returns the counter of seed's stream after the k draws.

    Step t swaps positions t and r_t = t + d_t of the identity array, so
    out[t] is the value at r_t just before step t: r_t itself if no earlier
    step targeted r_t, else pre(s) for the latest such step s, where pre(s)
    is the value position s held before step s.  pre(s) is s unless an
    earlier step u < s targeted s, in which case it is pre(u) for the latest
    such u; those chains run to strictly smaller steps, so pointer jumping
    resolves every one in O(log length) whole-array passes.

    The steps are grouped by target with one in-place sort of the keys
    r_t * k + t, whose entries read back as step key % k and target
    key // k.  Where step s's own key s * k + s would sort among them is
    counted from the targets before the sort; nothing searches the sorted
    keys.  Scratch: the call holds at most four int64 arrays of length k and
    a boolean mask at once, the returned array among them.
    """
    key, counter = below_block(seed, np.arange(n, n - k, -1, dtype=np.uint64))
    key = key.view(np.int64)                    # exact: d_t < n - t
    t = np.arange(k, dtype=np.int64)
    key += t                                    # r_t
    # below[s]: the position, once sorted, of the largest key below s * k + s.
    # The keys below it are r_u * k + u with r_u < s, or with r_u = s and
    # u < s; as r_u >= u, that is every u with r_u <= s, less s itself when
    # r_s = s.
    below = np.bincount(key[key < k], minlength=k)
    np.cumsum(below, out=below)
    below -= key == t
    below -= 1
    # the keys r_t * k + t: distinct, since t < k, and below n^2 as r_t < n,
    # so they fit int64
    key *= k
    key += t
    key.sort()
    # root[s]: the latest step u < s with r_u = s, or s itself; following it
    # to a fixed point gives pre(s).  If the largest key below s * k + s is
    # such a u's, d = key - s * k is u, in [0, s); otherwise d is negative,
    # or at least s when no key lies below (index -1 wraps to the largest).
    # So, compared as unsigned integers, root = min(d, s).
    root = np.take(key, below, mode="wrap")
    root -= np.multiply(t, k, out=below)
    np.minimum(root.view(np.uint64), t.view(np.uint64), out=root.view(np.uint64))
    nxt = np.take(root, root, out=below, mode="wrap")  # "raise" would buffer the take
    while not np.array_equal(nxt, root):
        root, nxt = nxt, np.take(nxt, nxt, out=root, mode="wrap")
    # out[t] = r_t, except that a step whose target an earlier step already
    # swapped takes pre() of the latest such step, its predecessor in the
    # sorted group; nxt, a copy of root, holds those pre() values until it
    # becomes out
    value = np.floor_divide(key, k, out=t)      # each entry's target
    key %= k                                    # and its step
    same = value[1:] == value[:-1]
    np.copyto(value[1:], np.take(root, key[:-1], out=nxt[1:], mode="wrap"), where=same)
    out = nxt
    out[key] = value
    return out, counter


def balanced_subsample(dataset: LatentDataset, table: ContingencyTable,
                       plan: SamplePlan) -> SubsampleResult:
    rows = int(table.counts.sum())
    if table.m != dataset.m or rows != dataset.n:
        raise ValueError(f"table of {rows} rows over {table.m} attributes does not match "
                         f"a dataset of {dataset.n} rows over {dataset.m} attributes")
    n_cells = table.n_cells
    cell_seed = derive_seed(plan.seed, _STREAM_CELLS)

    # quotas: every cell gets `base` slots and `extra` distinct cells one more
    base, extra = divmod(plan.n0, n_cells)
    extra_cells, counter = _distinct_below(cell_seed, n_cells, extra)
    # narrow cells keep the stable by_cell sort below fast (see cell_dtype)
    cell_type = cell_dtype(n_cells)
    slots = np.concatenate([np.tile(np.arange(n_cells, dtype=cell_type), base),
                            extra_cells.astype(cell_type)])
    # shuffle the slots by sorting them on the stream's next n0 outputs; any
    # sort gives the stable order unless two keys are equal (odds ~n0^2/2^65)
    keys = u64_block(cell_seed, plan.n0, start=counter)
    order = np.argsort(keys)
    keys.sort()                                 # finds equal keys without a gathered copy
    if np.any(keys[1:] == keys[:-1]):
        order = np.argsort(u64_block(cell_seed, plan.n0, start=counter), kind="stable")
    schedule = slots[order]
    del keys, order, slots                      # only the schedule outlives the shuffle

    # each cell's slots in schedule order; its k-th draw fills its k-th slot,
    # and it draws the closed-form count of the module docstring
    quotas = np.bincount(schedule, minlength=n_cells)
    per_cell = (np.where(table.counts > 0, quotas, 0) if plan.policy == "oversample"
                else np.minimum(quotas, table.counts))
    by_cell = np.argsort(schedule, kind="stable")
    first = np.cumsum(quotas) - quotas
    start = np.cumsum(table.counts) - table.counts
    picks = np.full(plan.n0, -1, dtype=np.int64)
    for c in np.flatnonzero(per_cell).tolist():
        size, count = int(table.counts[c]), int(per_cell[c])
        members = table.order[start[c]:start[c] + size]
        seed = derive_seed(plan.seed, _STREAM_MEMBERS, c)
        drawn, counter = _distinct_below(seed, size, min(count, size))
        drawn = members[drawn]
        if count > size:
            # the cell ran dry, so `drawn` is its whole shuffled member list
            again, _ = below_block(seed, np.full(count - size, size, np.uint64), counter)
            drawn = np.concatenate([drawn, drawn[again]])
        picks[by_cell[first[c]:first[c] + count]] = drawn
    del by_cell                                 # freed before the result's copy
    indices = picks[picks >= 0]

    return SubsampleResult(
        indices=indices,
        per_cell_counts=per_cell,
        skipped_iterations=plan.n0 - indices.size,
        meta={"kind": "balanced", "n0": plan.n0, "policy": plan.policy,
              "seed": plan.seed, "rng": ALGORITHM},
    )


def uniform_subsample(dataset: LatentDataset, n0: int, seed: int) -> SubsampleResult:
    """n0 distinct rows drawn uniformly without replacement."""
    n = dataset.n
    check_integer("n0", n0)
    if n0 < 0 or n0 > n:
        raise ValueError(f"n0 must be in [0, {n}], got {n0}")
    out, _ = _distinct_below(derive_seed(seed, _STREAM_UNIFORM), n, n0)

    cells = cell_indices(dataset, out)  # the drawn rows only
    return SubsampleResult(
        indices=out,
        per_cell_counts=np.bincount(cells, minlength=1 << dataset.m),
        skipped_iterations=0,
        meta={"kind": "uniform", "n0": n0, "seed": seed, "rng": ALGORITHM},
    )


def write_subsample(result: SubsampleResult, path_base: str) -> tuple[str, str]:
    """CSV of draws plus a JSON sidecar with plan and per-cell counts."""
    csv_path = path_base + ".csv"
    json_path = path_base + ".json"
    atomic_write_text(csv_path, csv_text([("position", "row_index"),
                                          *enumerate(result.indices.tolist())]))
    sidecar = dict(result.meta)
    sidecar["per_cell_counts"] = [int(c) for c in result.per_cell_counts]
    sidecar["skipped_iterations"] = result.skipped_iterations
    sidecar["size"] = result.size
    write_json(json_path, sidecar)
    return csv_path, json_path


def read_subsample_indices(csv_path: str, n: int) -> np.ndarray:
    """Row indices of a subsample CSV for a dataset of n rows; every row after
    the header is POSITION,ROW_INDEX with 0 <= ROW_INDEX < n."""
    def row_index(row):
        try:
            _, index = (int(t) for t in row)
        except ValueError:
            raise ValueError(f"expected POSITION,ROW_INDEX, got {','.join(row)!r}") from None
        if not 0 <= index < n:
            raise ValueError(f"row index {index} is outside 0..{n - 1}")
        return index
    header, indices = read_csv(csv_path, row_index)
    if header != ["position", "row_index"]:
        raise ValueError(f"{csv_path}: unexpected header {','.join(header)!r}")
    return np.array(indices, dtype=np.int64)
