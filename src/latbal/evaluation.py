"""Re-scoring metrics and experiment sweeps.

rescore measures, per direction, the mean change in each attribute's score
after pushing evaluation codes a step alpha along the direction.  The sign
convention is edited-minus-original (recorded in the JSON), so a direction
that works shows a positive diagonal.  A row's target is the attribute its
direction was fit for (direction_attributes), so rows may come in any order:
effect is the row's entry for its target, and overall_entanglement averages
|delta| over the row's other attributes.

fit_directions fits one direction per attribute on rows of a dataset: every
row, or the row indices a subsample drew.  A centroid fit streams those
rows through one small gathered buffer, summing every attribute's two
classes in one pass (two einsums over 0/1 masks, label 1 then the rest,
and exact counts from a 0/1 matrix-vector product), and copies neither a
fit set nor class rows; an SVM fit gathers the rows once, orders them once
by content, and hands them to svm_direction with each attribute's +1/-1
labels.

Both sweeps run on one engine, _sweep, over grid points (parameter,
method, policy, n0, C, seed key).  Each run draws its evaluation codes once
from the standard Gaussian prior (never reused from fitting data), scores
them once, and shares both across grid points, so comparisons between
methods are paired; a point's rescore scores only its edited codes.  A point
fits on the rows of the subsample seeded derive_seed(seed, _STREAM_FIT,
*key, run), passed to fit_directions as indices, with no fit set built.
The size sweep keys each point by its grid position (si, mi, pi); the C
sweep keys every point, centroid reference included, by (), so within a run
all of them draw the same subsample.  Every SVM fit of a sweep stops at a
duality gap of _SWEEP_SVM_TOL or after _SWEEP_SVM_MAX_ITER Newton steps.
Rows hold effect/entanglement means and standard deviations across runs, or
NaN and the point's first error.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .contingency import build_contingency
from .core import (LatentDataset, SemanticDirection, check_integer, check_number,
                   check_seed, nonfinite_rows, row_indices)
from .dataio import atomic_write_text, block_rows, csv_text, write_json
from .directions import _centroid_from_sums, svm_direction
# Nothing here calls these two; they stay bound in this module because
# perfbench/tracing.py wraps them here by name.
from .core import split_by_attribute  # noqa: F401
from .directions import centroid_direction  # noqa: F401
from .rng import derive_seed, normals
from .sampler import POLICIES, SamplePlan, balanced_subsample, uniform_subsample

_STREAM_EVAL = 31
_STREAM_FIT = 32
_SWEEP_SVM_TOL, _SWEEP_SVM_MAX_ITER = 1e-4, 300

RESCORE_CONVENTION = "edited_minus_original"
METHODS = ("centroid", "svm")             # fit_directions methods
SWEEP_POLICIES = POLICIES + ("uniform",)  # a sweep point's sampling policies

# scorer: callable mapping an (n, d) batch of codes to (n, m) attribute scores
Scorer = Callable[[np.ndarray], np.ndarray]


@dataclass
class RescoreMatrix:
    values: np.ndarray                 # rows: applied direction, cols: measured attribute
    alpha: float
    n: int
    direction_attributes: tuple[int, ...]  # the target attribute of each row

    @property
    def m(self) -> int:
        return self.values.shape[1]


@dataclass
class SweepRow:
    parameter: Optional[float]         # N0 or C; None for the centroid reference rows
    method: str
    policy: str
    attribute: str
    effect: float
    effect_std: float
    entanglement: float
    entanglement_std: float
    runs: int
    error: Optional[str] = None


@dataclass
class SweepReport:
    rows: list[SweepRow] = field(default_factory=list)


def rescore(scorer: Scorer, directions: Sequence[SemanticDirection],
            latents: np.ndarray, alpha: float) -> RescoreMatrix:
    alpha = check_number("alpha", alpha)
    latents = np.asarray(latents, dtype=np.float64)
    if latents.ndim != 2 or latents.shape[0] == 0:
        raise ValueError("latents must be a non-empty (n, d) array")
    bad = nonfinite_rows(latents)
    if bad.size:  # NaN codes would give an all-NaN matrix that reads as measured
        raise ValueError(f"latents row {bad[0]}: non-finite component")
    if not directions:
        raise ValueError("need at least one direction")
    d = latents.shape[1]
    base = np.asarray(scorer(latents), dtype=np.float64)
    for u in directions:
        if u.dim != d:
            raise ValueError(f"dimension mismatch: latents d={d}, direction d={u.dim}")
        if not 0 <= u.attribute < base.shape[1]:
            raise ValueError(f"direction attribute {u.attribute} is outside the scorer's "
                             f"{base.shape[1]} attributes")
    values = np.empty((len(directions), base.shape[1]))
    for row, u in enumerate(directions):
        edited = np.asarray(scorer(latents + alpha * u.vector), dtype=np.float64)
        values[row] = (edited - base).mean(axis=0)
    return RescoreMatrix(values=values, alpha=alpha, n=latents.shape[0],
                         direction_attributes=tuple(u.attribute for u in directions))


def _row(matrix: RescoreMatrix, row: int) -> tuple[np.ndarray, int]:
    """The score changes of the direction in the given row, and its target attribute."""
    if not 0 <= row < len(matrix.direction_attributes):
        raise IndexError(f"direction row {row} out of range")
    return matrix.values[row], matrix.direction_attributes[row]


def effect(matrix: RescoreMatrix, row: int) -> float:
    """Score change on the target attribute of the direction in the given row."""
    values, j = _row(matrix, row)
    return float(values[j])


def overall_entanglement(matrix: RescoreMatrix, row: int) -> float:
    """Mean |score change| over the other attributes for the direction in the given row."""
    if matrix.m < 2:
        raise ValueError("overall entanglement needs at least two attributes")
    values, j = _row(matrix, row)
    return float(np.abs(np.delete(values, j)).mean())


def fit_directions(dataset: LatentDataset, method: str, c: float = 1.0,
                   tol: float = 1e-6, max_iter: int = 1000, seed: int = 0,
                   rows=None) -> list[SemanticDirection]:
    """One direction per schema attribute, fit on rows of dataset.

    ``rows`` holds row indices in order, repeats allowed, as
    LatentDataset.select takes them; None means every row.  An index outside
    [-n, n) raises IndexError, as select does.  No fit set is built, and the
    directions are bit for bit those of a fit on dataset.select(rows).

    Both methods split attribute j's rows as split_by_attribute does
    (label 1 against the rest) but build no dataset per class.  The centroid
    fit reads the rows once, taking the m label-1 class sums as one einsum
    over 0/1 masks and the m others as a second: every product is exact and
    each class's rows are added in row order, the order mean(axis=0) adds a
    gathered class in when dim >= 2, so the directions are bit-identical to
    centroid_direction on the split classes.  (At dim 1 mean sums pairwise
    and raw_norm may differ in the last bits; a BLAS product, masks.T @
    codes, sums in another order at every dim.)  The label-1 counts are a
    0/1 matrix-vector product, exact in any order.

    The rows stream through in chunks of dataio.block_rows(dim) rows (1 MiB
    of codes, which stays in cache), each gathered into one buffer below the
    2m running sums; above the chunk's rows, each mask holds the identity on
    its own m sums and 0 on the other m.  So each
    class sum first adds its own running value (exactly; the other sums'
    rows add 0 * sum, also exact while the sums are finite), then the
    chunk's rows in order: it carries on row by row from the previous chunk,
    in the order the einsum over every row at once adds, and ends with the
    same bits, whatever the chunk size.  The two masks are contiguous
    (block_rows(dim) + 2m) x m arrays, filled from each chunk's labels by
    one cast and one subtraction, so beside ``rows`` a centroid fit holds
    that one (block_rows(dim) + 2m) x dim buffer, its two masks and a
    vector of ones, whatever the number of rows.

    An SVM fit gathers the rows once and sorts them once by content, so it
    ignores row order (equal codes repeat one row, with equal labels); fit j
    labels them +1 where label j is 1 and -1 elsewhere.

    ``seed`` is accepted and unused: neither fit draws random numbers.
    """
    codes, labels = dataset.codes, dataset.labels
    if rows is not None:
        rows = row_indices(rows)
    m = dataset.m
    if method == "centroid":
        rows = range(dataset.n) if rows is None else rows
        sums, n_pos = _class_sums(codes, labels, rows)
        n_neg = len(rows) - n_pos
        return [_centroid_from_sums(sums[j], n_pos[j], sums[m + j], n_neg[j], j)
                for j in range(m)]
    if method == "svm":
        if rows is not None:
            # IndexError for any row outside [-n, n), as select raises
            codes, labels = codes[rows], labels[rows]
        order = np.lexsort(codes.T[::-1])
        x, pos = codes[order], labels[order] == 1
        return [svm_direction(x, np.where(pos[:, j], 1.0, -1.0), j, c=c, tol=tol,
                              max_iter=max_iter)
                for j in range(m)]
    raise ValueError(f"unknown fit method {method!r}")


def _class_sums(codes: np.ndarray, labels: np.ndarray, rows) -> tuple[np.ndarray, np.ndarray]:
    """(2m, dim) sums of codes[rows], label j = 1 rows then the rest for each
    attribute j, and the (m,) int64 counts of label-1 rows.

    Each class's rows are added in row order, chunk by chunk, by two einsums
    that write into the running sums' own rows (see fit_directions).  A row
    outside [-n, n) raises IndexError, as select does.
    """
    m, step = labels.shape[1], block_rows(codes.shape[1])
    k = 2 * m
    size = k + min(step, len(rows))
    buf = np.zeros((size, codes.shape[1]))
    # pos[i, j] is 1 where row i has label j = 1, neg[i, j] where it has not;
    # on top, each mask is the identity on its own running sums, 0 on the others
    pos, neg = np.zeros((size, m)), np.zeros((size, m))
    pos[:m], neg[m:k] = np.eye(m), np.eye(m)
    ones = np.ones(size - k)
    n_pos = np.zeros(m)
    for start in range(0, len(rows), step):
        chunk = rows[start:start + step]
        if isinstance(chunk, range):  # every row: one chunk's indices at a time
            chunk = np.arange(chunk.start, chunk.stop)
        stop = k + chunk.size
        chunk_labels = np.take(labels, chunk, axis=0)  # raises on a row out of range
        # "wrap" maps -n..-1 as indexing does; the default "raise" would
        # buffer the gather instead of writing to out directly
        np.take(codes, chunk, axis=0, out=buf[k:stop], mode="wrap")
        pos[k:stop] = chunk_labels
        np.subtract(1.0, pos[k:stop], out=neg[k:stop])
        n_pos += ones[:chunk.size] @ pos[k:stop]  # sums of 0s and 1s: exact
        # out overlaps the operands: einsum then reads them as they were
        np.einsum("ik,ij->kj", pos[:stop], buf[:stop], out=buf[:m])
        np.einsum("ik,ij->kj", neg[:stop], buf[:stop], out=buf[m:k])
    return buf[:k], n_pos.astype(np.int64)


def _eval_latents(dim: int, n_eval: int, seed: int, run: int) -> np.ndarray:
    return normals(derive_seed(seed, _STREAM_EVAL, run), n_eval * dim).reshape(n_eval, dim)


def _base_once(scorer: Scorer, latents: np.ndarray) -> Scorer:
    """scorer, except that called on latents itself (the object, not an equal
    copy) it scores them once and then returns those same scores."""
    base = None

    def scored(codes: np.ndarray) -> np.ndarray:
        nonlocal base
        if codes is not latents:
            return scorer(codes)
        if base is None:
            base = scorer(codes)
        return base
    return scored


def _subsample(dataset, table, policy: str, n0: int, seed: int):
    if policy == "uniform":
        return uniform_subsample(dataset, n0, seed)
    return balanced_subsample(dataset, table, SamplePlan(n0=n0, policy=policy, seed=seed))


def _sweep(dataset: LatentDataset, scorer: Scorer, points: list[tuple], runs: int,
           alpha: float, n_eval: int, seed: int) -> SweepReport:
    """Refit and re-score every grid point in every run (see the module docstring).

    A point's first ValueError or IndexError ends it and becomes its NaN rows.
    """
    for name, count in (("runs", runs), ("n_eval", n_eval)):
        check_integer(name, count, 1)
    check_seed("seed", seed)
    alpha = check_number("alpha", alpha)
    if dataset.m < 2:  # every point would fail in overall_entanglement
        raise ValueError(f"a sweep needs at least two attributes, got {dataset.m}")
    table = build_contingency(dataset)
    names = dataset.schema.names
    js = range(len(names))
    results: list[list] = [[] for _ in points]
    errors: list[Optional[str]] = [None] * len(points)
    for run in range(runs):
        latents = _eval_latents(dataset.dim, n_eval, seed, run)
        scored = _base_once(scorer, latents)
        for p, (_, method, policy, n0, c, key) in enumerate(points):
            if errors[p] is not None:
                continue
            try:
                fit_seed = derive_seed(seed, _STREAM_FIT, *key, run)
                rows = _subsample(dataset, table, policy, n0, fit_seed).indices
                dirs = fit_directions(dataset, method, c=c, tol=_SWEEP_SVM_TOL,
                                      max_iter=_SWEEP_SVM_MAX_ITER, rows=rows)
                matrix = rescore(scored, dirs, latents, alpha)
                results[p].append([[effect(matrix, j) for j in js],
                                   [overall_entanglement(matrix, j) for j in js]])
            except (ValueError, IndexError) as exc:
                errors[p] = f"run {run}: {exc}"

    report = SweepReport()
    nan = float("nan")
    for (parameter, method, policy, *_), err, per_run in zip(points, errors, results):
        if err is not None:
            report.rows += [SweepRow(parameter, method, policy, name, nan, nan, nan, nan,
                                     runs, error=err) for name in names]
            continue
        eff, ent = np.array(per_run).transpose(1, 2, 0)  # (attribute, run) each
        report.rows += [SweepRow(parameter, method, policy, name,
                                 float(eff[k].mean()), float(eff[k].std()),
                                 float(ent[k].mean()), float(ent[k].std()), runs)
                        for k, name in enumerate(names)]
    return report


def _grid(name: str, values, check) -> list:
    """check(value) for each value; an empty grid, or one whose points repeat, is refused."""
    values = [check(v) for v in values]
    if not values or any(v in values[:k] for k, v in enumerate(values)):
        raise ValueError(f"{name} must be non-empty without repeats, got {values}")
    return values


def _choice(name: str, value, choices: tuple):
    if value not in choices:
        raise ValueError(f"{name} must be one of {choices}, got {value!r}")
    return value


def sweep_sample_size(dataset: LatentDataset, scorer: Scorer, sizes: Sequence[int],
                      methods: Sequence[str] = ("centroid",),
                      policies: Sequence[str] = ("skip",),
                      runs: int = 5, alpha: float = 0.2, n_eval: int = 2000,
                      c: float = 1.0, seed: int = 0) -> SweepReport:
    """Refit and re-score across subsample sizes, methods, and sampling policies."""
    sizes = _grid("sizes", sizes, lambda n0: check_integer("n0", n0, 1))
    c = check_number("C", c, positive=True)  # whatever the methods, as alpha is
    methods = _grid("methods", methods, lambda v: _choice("method", v, METHODS))
    policies = _grid("policies", policies, lambda v: _choice("policy", v, SWEEP_POLICIES))
    points = [(float(n0), method, policy, n0, c, (si, mi, pi))
              for si, n0 in enumerate(sizes)
              for mi, method in enumerate(methods)
              for pi, policy in enumerate(policies)]
    return _sweep(dataset, scorer, points, runs, alpha, n_eval, seed)


def sweep_regularization(dataset: LatentDataset, scorer: Scorer,
                         c_values: Sequence[float], n0: int = 1000, runs: int = 5,
                         alpha: float = 0.2, n_eval: int = 2000,
                         seed: int = 0) -> SweepReport:
    """SVM directions across a C grid on balanced skip subsamples, plus centroid rows.

    Within a run the same balanced subsample feeds every C value and the
    centroid reference, so differences along the grid are attributable to C.
    """
    c_values = _grid("c_values", c_values, lambda c: check_number("c_values", c, positive=True))
    n0 = check_integer("n0", n0, 1)
    points = [(c, "svm", "skip", n0, c, ()) for c in c_values]
    points.append((None, "centroid", "skip", n0, 1.0, ()))
    return _sweep(dataset, scorer, points, runs, alpha, n_eval, seed)


def rescore_to_csv(matrix: RescoreMatrix, names: Sequence[str]) -> str:
    """Long format: direction,attribute,value."""
    rows = [("direction", "attribute", "value")]
    for row, j in enumerate(matrix.direction_attributes):
        rows += [(names[j], names[k], repr(float(matrix.values[row, k])))
                 for k in range(matrix.m)]
    return csv_text(rows)


def rescore_to_dict(matrix: RescoreMatrix, names: Sequence[str]) -> dict:
    return {
        "alpha": matrix.alpha,
        "n": matrix.n,
        "convention": RESCORE_CONVENTION,
        "attributes": list(names),
        "direction_attributes": list(matrix.direction_attributes),
        "values": [[float(x) for x in row] for row in matrix.values],
    }


SWEEP_CSV_HEADER = ("parameter", "attribute", "effect", "entanglement",
                    "effect_std", "entanglement_std", "method", "policy", "runs")


def sweep_to_csv(report: SweepReport) -> str:
    rows = [SWEEP_CSV_HEADER]
    for r in report.rows:
        rows.append(["" if r.parameter is None else repr(r.parameter), r.attribute,
                     repr(r.effect), repr(r.entanglement), repr(r.effect_std),
                     repr(r.entanglement_std), r.method, r.policy, str(r.runs)])
    return csv_text(rows)


def save_rescore(matrix: RescoreMatrix, path_base: str,
                 names: Sequence[str]) -> tuple[str, str]:
    csv_path, json_path = path_base + ".csv", path_base + ".json"
    atomic_write_text(csv_path, rescore_to_csv(matrix, names))
    write_json(json_path, rescore_to_dict(matrix, names))
    return csv_path, json_path
