"""Re-scoring metrics and experiment sweeps.

rescore measures, per direction, the mean change in each attribute's score
after pushing evaluation codes a step alpha along the direction.  The sign
convention is edited-minus-original (recorded on the matrix), so a direction
that works shows a positive diagonal.  effect is the diagonal entry;
overall_entanglement averages |delta| over the non-target attributes.

Sweeps refit directions on fresh subsamples per run and aggregate
effect/entanglement means and standard deviations across runs.  Evaluation
codes are drawn fresh from the standard Gaussian prior (never reused from
fitting data) and shared across grid points within a run so comparisons
between methods are paired.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .contingency import build_contingency
from .core import LatentDataset, SemanticDirection, split_by_attribute
from .dataio import csv_text
from .directions import centroid_direction, svm_direction
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


def embedding_similarity(before, after) -> tuple[float, float]:
    """Mean and std of per-pair cosine similarity between two embedding lists."""
    before = np.atleast_2d(np.asarray(before, dtype=np.float64))
    after = np.atleast_2d(np.asarray(after, dtype=np.float64))
    if before.shape != after.shape:
        raise ValueError(f"shape mismatch: {before.shape} vs {after.shape}")
    if before.shape[0] == 0:
        raise ValueError("need at least one embedding pair")
    nb = np.linalg.norm(before, axis=1)
    na = np.linalg.norm(after, axis=1)
    if np.any(nb < 1e-300) or np.any(na < 1e-300):
        raise ValueError("zero-norm embedding vector")
    cos = (before * after).sum(axis=1) / (nb * na)
    return float(cos.mean()), float(cos.std())


def fit_directions(dataset: LatentDataset, method: str, c: float = 1.0,
                   tol: float = 1e-6, max_iter: int = 1000,
                   seed: int = 0) -> list[SemanticDirection]:
    """One direction per schema attribute, fit on the given rows.

    ``seed`` is accepted and unused: neither fit draws random numbers.
    """
    dirs = []
    for j in range(dataset.m):
        pos, neg = split_by_attribute(dataset, j)
        if method == "centroid":
            dirs.append(centroid_direction(pos.codes, neg.codes, j))
        elif method == "svm":
            dirs.append(svm_direction(pos.codes, neg.codes, j, c=c, tol=tol,
                                      max_iter=max_iter))
        else:
            raise ValueError(f"unknown fit method {method!r}")
    return dirs


def _eval_latents(dim: int, n_eval: int, seed: int, run: int) -> np.ndarray:
    return normals(derive_seed(seed, _STREAM_EVAL, run), n_eval * dim).reshape(n_eval, dim)


def _subsample(dataset, table, policy: str, n0: int, seed: int):
    if policy == "uniform":
        return uniform_subsample(dataset, min(n0, dataset.n), seed)
    return balanced_subsample(dataset, table, SamplePlan(n0=n0, policy=policy, seed=seed))


def _aggregate(rows_per_run: list[tuple[np.ndarray, np.ndarray]],
               names: Sequence[str]) -> list[tuple[str, float, float, float, float]]:
    effects = np.array([e for e, _ in rows_per_run])
    entangles = np.array([t for _, t in rows_per_run])
    out = []
    for k, name in enumerate(names):
        out.append((name,
                    float(effects[:, k].mean()), float(effects[:, k].std()),
                    float(entangles[:, k].mean()), float(entangles[:, k].std())))
    return out


def sweep_sample_size(dataset: LatentDataset, scorer: Scorer, sizes: Sequence[int],
                      methods: Sequence[str] = ("centroid",),
                      policies: Sequence[str] = ("skip",),
                      runs: int = 5, alpha: float = 0.2, n_eval: int = 2000,
                      c: float = 1.0, svm_tol: float = 1e-4,
                      svm_max_iter: int = 300, seed: int = 0) -> SweepReport:
    """Refit and re-score across subsample sizes, methods, and sampling policies."""
    if not sizes:
        raise ValueError("sizes must be non-empty")
    if runs < 1:
        raise ValueError("runs must be >= 1")
    table = build_contingency(dataset)
    names = dataset.schema.names
    report = SweepReport(kind="sample_size")

    for si, n0 in enumerate(sizes):
        for mi, method in enumerate(methods):
            for pi, policy in enumerate(policies):
                per_run, err = [], None
                for run in range(runs):
                    try:
                        fit_seed = derive_seed(seed, _STREAM_FIT, si, mi, pi, run)
                        sub = _subsample(dataset, table, policy, n0, fit_seed)
                        fit_set = dataset.select(sub.indices)
                        dirs = fit_directions(fit_set, method, c=c, tol=svm_tol,
                                              max_iter=svm_max_iter)
                        latents = _eval_latents(dataset.dim, n_eval, seed, run)
                        matrix = rescore(scorer, dirs, latents, alpha)
                        per_run.append((
                            np.array([effect(matrix, j) for j in range(len(names))]),
                            np.array([overall_entanglement(matrix, j) for j in range(len(names))]),
                        ))
                    except (ValueError, IndexError) as exc:
                        err = f"run {run}: {exc}"
                        break
                if err is not None:
                    for name in names:
                        report.rows.append(SweepRow(float(n0), method, policy, name,
                                                    float("nan"), float("nan"),
                                                    float("nan"), float("nan"),
                                                    runs, error=err))
                    continue
                for name, eff, eff_sd, ent, ent_sd in _aggregate(per_run, names):
                    report.rows.append(SweepRow(float(n0), method, policy, name,
                                                eff, eff_sd, ent, ent_sd, runs))
    return report


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
    if runs < 1:
        raise ValueError("runs must be >= 1")
    table = build_contingency(dataset)
    names = dataset.schema.names
    report = SweepReport(kind="regularization")

    per_c: dict[float, list] = {c: [] for c in c_values}
    errors: dict[float | None, str] = {}
    centroid_runs = []
    for run in range(runs):
        fit_seed = derive_seed(seed, _STREAM_FIT, run)
        sub = _subsample(dataset, table, policy, n0, fit_seed)
        fit_set = dataset.select(sub.indices)
        latents = _eval_latents(dataset.dim, n_eval, seed, run)

        try:
            dirs = fit_directions(fit_set, "centroid")
            matrix = rescore(scorer, dirs, latents, alpha)
            centroid_runs.append((
                np.array([effect(matrix, j) for j in range(len(names))]),
                np.array([overall_entanglement(matrix, j) for j in range(len(names))]),
            ))
        except (ValueError, IndexError) as exc:
            errors.setdefault(None, f"run {run}: {exc}")
        for c in c_values:
            try:
                dirs = fit_directions(fit_set, "svm", c=c, tol=svm_tol,
                                      max_iter=svm_max_iter)
                matrix = rescore(scorer, dirs, latents, alpha)
                per_c[c].append((
                    np.array([effect(matrix, j) for j in range(len(names))]),
                    np.array([overall_entanglement(matrix, j) for j in range(len(names))]),
                ))
            except (ValueError, IndexError) as exc:
                errors.setdefault(c, f"run {run}: {exc}")

    def _emit(parameter, method, results):
        err = errors.get(parameter)
        if err is not None or not results:
            for name in names:
                report.rows.append(SweepRow(parameter, method, policy, name,
                                            float("nan"), float("nan"),
                                            float("nan"), float("nan"), runs,
                                            error=err or "no successful runs"))
            return
        for name, eff, eff_sd, ent, ent_sd in _aggregate(results, names):
            report.rows.append(SweepRow(parameter, method, policy, name,
                                        eff, eff_sd, ent, ent_sd, runs))

    for c in c_values:
        _emit(float(c), "svm", per_c[c])
    _emit(None, "centroid", centroid_runs)
    return report


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


def sweep_to_dict(report: SweepReport) -> dict:
    return {
        "kind": report.kind,
        "rows": [
            {"parameter": r.parameter, "method": r.method, "policy": r.policy,
             "attribute": r.attribute, "effect": r.effect, "effect_std": r.effect_std,
             "entanglement": r.entanglement, "entanglement_std": r.entanglement_std,
             "runs": r.runs, "error": r.error}
            for r in report.rows
        ],
    }


def save_rescore(matrix: RescoreMatrix, path_base: str,
                 names: Sequence[str] | None = None) -> tuple[str, str]:
    from .dataio import atomic_write_text

    csv_path, json_path = path_base + ".csv", path_base + ".json"
    atomic_write_text(csv_path, rescore_to_csv(matrix, names))
    atomic_write_text(json_path, json.dumps(rescore_to_dict(matrix, names), indent=2) + "\n")
    return csv_path, json_path
