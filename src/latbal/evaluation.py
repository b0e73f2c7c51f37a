"""Re-scoring metrics and experiment sweeps.

rescore measures, per direction, the mean change in each attribute's score
after pushing evaluation codes a step alpha along the direction.  The sign
convention is edited-minus-original (recorded on the matrix), so a direction
that works shows a positive diagonal.  effect is the diagonal entry;
overall_entanglement averages |delta| over the non-target attributes.

fit_directions fits one direction per attribute on a fit set.  A centroid
fit reads the fit set's codes once, summing every attribute's two classes
in one pass, and copies no class rows; an SVM fit hands each attribute's
two classes to svm_direction as plain arrays.

Both sweeps run on one engine, _sweep, over grid points (parameter,
method, policy, n0, C, seed key).  Each run draws its evaluation codes once
from the standard Gaussian prior (never reused from fitting data) and shares
them across grid points, so comparisons between methods are paired.  A point
fits on the subsample seeded derive_seed(seed, _STREAM_FIT, *key, run);
consecutive points with the same policy, n0 and fit seed share one draw.
The size sweep keys each point by its grid position (si, mi, pi); the C
sweep keys every point, centroid reference included, by (), so within a run
all of them fit on one subsample.  Rows hold effect/entanglement means and
standard deviations across runs, or NaN and the point's first error.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .contingency import build_contingency
from .core import LatentDataset, SemanticDirection
from .dataio import csv_text
from .directions import _centroid_from_sums, svm_direction
# Nothing here calls these two; they stay bound in this module because
# perfbench/tracing.py wraps them here by name.
from .core import split_by_attribute  # noqa: F401
from .directions import centroid_direction  # noqa: F401
from .rng import derive_seed, normals
from .sampler import SamplePlan, balanced_subsample, uniform_subsample

_STREAM_EVAL = 31
_STREAM_FIT = 32

RESCORE_CONVENTION = "edited_minus_original"

# scorer: callable mapping an (n, d) batch of codes to (n, m) attribute scores
Scorer = Callable[[np.ndarray], np.ndarray]


@dataclass
class RescoreMatrix:
    values: np.ndarray                 # rows: applied direction, cols: measured attribute
    alpha: float
    n: int
    convention: str = RESCORE_CONVENTION
    direction_attributes: tuple[int, ...] = ()
    names: tuple[str, ...] = ()

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
    kind: str                          # "sample_size" or "regularization"
    rows: list[SweepRow] = field(default_factory=list)


def rescore(scorer: Scorer, directions: Sequence[SemanticDirection],
            latents: np.ndarray, alpha: float) -> RescoreMatrix:
    latents = np.asarray(latents, dtype=np.float64)
    if latents.ndim != 2 or latents.shape[0] == 0:
        raise ValueError("latents must be a non-empty (n, d) array")
    if not directions:
        raise ValueError("need at least one direction")
    d = latents.shape[1]
    for u in directions:
        if u.dim != d:
            raise ValueError(f"dimension mismatch: latents d={d}, direction d={u.dim}")

    base = np.asarray(scorer(latents), dtype=np.float64)
    values = np.empty((len(directions), base.shape[1]))
    for row, u in enumerate(directions):
        edited = np.asarray(scorer(latents + alpha * u.vector), dtype=np.float64)
        values[row] = (edited - base).mean(axis=0)
    return RescoreMatrix(values=values, alpha=alpha, n=latents.shape[0],
                         direction_attributes=tuple(u.attribute for u in directions))


def effect(matrix: RescoreMatrix, j: int) -> float:
    """Score change on the target attribute for the direction in row j."""
    if not 0 <= j < matrix.values.shape[0] or j >= matrix.m:
        raise IndexError(f"attribute index {j} out of range")
    return float(matrix.values[j, j])


def overall_entanglement(matrix: RescoreMatrix, j: int) -> float:
    """Mean |score change| over non-target attributes for the direction in row j."""
    if matrix.m < 2:
        raise ValueError("overall entanglement needs at least two attributes")
    if not 0 <= j < matrix.values.shape[0] or j >= matrix.m:
        raise IndexError(f"direction row {j} out of range")
    off = np.delete(matrix.values[j], j)
    return float(np.abs(off).mean())


def fit_directions(dataset: LatentDataset, method: str, c: float = 1.0,
                   tol: float = 1e-6, max_iter: int = 1000,
                   seed: int = 0) -> list[SemanticDirection]:
    """One direction per schema attribute, fit on the given rows.

    Both methods split attribute j's rows as split_by_attribute does
    (label 1 against the rest) but build no dataset per class.  The centroid
    fit reads the codes once, taking all 2m class sums as one einsum over
    the 0/1 class masks [pos, ~pos]: every product is exact and each class's
    rows are added in row order, the order mean(axis=0) adds a gathered
    class in when dim >= 2, so the directions are bit-identical to
    centroid_direction on the split classes.  (At dim 1 mean sums pairwise
    and raw_norm may differ in the last bits; a BLAS product, masks.T @
    codes, sums in another order at every dim.)

    ``seed`` is accepted and unused: neither fit draws random numbers.
    """
    codes = dataset.codes
    pos = dataset.labels == 1
    if method == "centroid":
        masks = np.hstack([pos, ~pos])
        sums = np.einsum("ik,ij->kj", masks.astype(np.float64), codes)
        counts = masks.sum(axis=0)
        m = dataset.m
        return [_centroid_from_sums(sums[j], counts[j], sums[m + j], counts[m + j], j)
                for j in range(m)]
    if method == "svm":
        return [svm_direction(codes[pos[:, j]], codes[~pos[:, j]], j, c=c, tol=tol,
                              max_iter=max_iter)
                for j in range(dataset.m)]
    raise ValueError(f"unknown fit method {method!r}")


def _eval_latents(dim: int, n_eval: int, seed: int, run: int) -> np.ndarray:
    return normals(derive_seed(seed, _STREAM_EVAL, run), n_eval * dim).reshape(n_eval, dim)


def _subsample(dataset, table, policy: str, n0: int, seed: int):
    if policy == "uniform":
        return uniform_subsample(dataset, min(n0, dataset.n), seed)
    return balanced_subsample(dataset, table, SamplePlan(n0=n0, policy=policy, seed=seed))


def _sweep(kind: str, dataset: LatentDataset, scorer: Scorer, points: list[tuple],
           runs: int, alpha: float, n_eval: int, svm_tol: float, svm_max_iter: int,
           seed: int) -> SweepReport:
    """Refit and re-score every grid point in every run (see the module docstring).

    A point's first ValueError or IndexError ends it and becomes its NaN rows.
    """
    if runs < 1:
        raise ValueError("runs must be >= 1")
    table = build_contingency(dataset)
    names = dataset.schema.names
    js = range(len(names))
    results: list[list] = [[] for _ in points]
    errors: list[Optional[str]] = [None] * len(points)
    for run in range(runs):
        latents = _eval_latents(dataset.dim, n_eval, seed, run)
        fit_key = fit_set = None  # hold one fit set at a time, not one per key
        for p, (_, method, policy, n0, c, key) in enumerate(points):
            if errors[p] is not None:
                continue
            try:
                sub_key = (policy, n0, derive_seed(seed, _STREAM_FIT, *key, run))
                if sub_key != fit_key:
                    sub = _subsample(dataset, table, *sub_key)
                    fit_key, fit_set = sub_key, dataset.select(sub.indices)
                dirs = fit_directions(fit_set, method, c=c, tol=svm_tol,
                                      max_iter=svm_max_iter)
                matrix = rescore(scorer, dirs, latents, alpha)
                results[p].append([[effect(matrix, j) for j in js],
                                   [overall_entanglement(matrix, j) for j in js]])
            except (ValueError, IndexError) as exc:
                errors[p] = f"run {run}: {exc}"

    report = SweepReport(kind=kind)
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


def sweep_sample_size(dataset: LatentDataset, scorer: Scorer, sizes: Sequence[int],
                      methods: Sequence[str] = ("centroid",),
                      policies: Sequence[str] = ("skip",),
                      runs: int = 5, alpha: float = 0.2, n_eval: int = 2000,
                      c: float = 1.0, svm_tol: float = 1e-4,
                      svm_max_iter: int = 300, seed: int = 0) -> SweepReport:
    """Refit and re-score across subsample sizes, methods, and sampling policies."""
    if not sizes:
        raise ValueError("sizes must be non-empty")
    points = [(float(n0), method, policy, n0, c, (si, mi, pi))
              for si, n0 in enumerate(sizes)
              for mi, method in enumerate(methods)
              for pi, policy in enumerate(policies)]
    return _sweep("sample_size", dataset, scorer, points, runs, alpha, n_eval,
                  svm_tol, svm_max_iter, seed)


def sweep_regularization(dataset: LatentDataset, scorer: Scorer,
                         c_values: Sequence[float], n0: int = 1000,
                         policy: str = "skip", runs: int = 5, alpha: float = 0.2,
                         n_eval: int = 2000, svm_tol: float = 1e-4,
                         svm_max_iter: int = 300, seed: int = 0) -> SweepReport:
    """SVM directions across a C grid on balanced subsamples, plus centroid rows.

    Within a run the same balanced subsample feeds every C value and the
    centroid reference, so differences along the grid are attributable to C.
    """
    if not c_values:
        raise ValueError("c_values must be non-empty")
    if any(c <= 0 for c in c_values):
        raise ValueError("c_values must be positive")
    points = [(float(c), "svm", policy, n0, c, ()) for c in c_values]
    points.append((None, "centroid", policy, n0, 1.0, ()))
    return _sweep("regularization", dataset, scorer, points, runs, alpha, n_eval,
                  svm_tol, svm_max_iter, seed)


def rescore_to_csv(matrix: RescoreMatrix, names: Sequence[str] | None = None) -> str:
    """Long format: direction,attribute,value."""
    m = matrix.m
    names = list(names) if names else [f"attr{k}" for k in range(m)]
    rows = [("direction", "attribute", "value")]
    for row, j in enumerate(matrix.direction_attributes or range(matrix.values.shape[0])):
        dir_name = names[j] if 0 <= j < m else str(j)
        for k in range(m):
            rows.append((dir_name, names[k], repr(float(matrix.values[row, k]))))
    return csv_text(rows)


def rescore_to_dict(matrix: RescoreMatrix, names: Sequence[str] | None = None) -> dict:
    m = matrix.m
    names = list(names) if names else [f"attr{k}" for k in range(m)]
    return {
        "alpha": matrix.alpha,
        "n": matrix.n,
        "convention": matrix.convention,
        "attributes": names,
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
                 names: Sequence[str] | None = None) -> tuple[str, str]:
    from .dataio import atomic_write_text

    csv_path, json_path = path_base + ".csv", path_base + ".json"
    atomic_write_text(csv_path, rescore_to_csv(matrix, names))
    atomic_write_text(json_path, json.dumps(rescore_to_dict(matrix, names), indent=2) + "\n")
    return csv_path, json_path
