"""Attribute direction estimation, projection, and latent editing.

Two estimators produce a unit direction for an attribute: the normalized
difference of class centroids, and the normal of a linear SVM boundary.
The SVM normal is oriented so the positive-class centroid sits on its
positive side, fixing the sign ambiguity of a hyperplane normal.

conditional_project removes from a direction its component in the span of
other attributes' directions (modified Gram-Schmidt, re-orthogonalized),
yielding an edit that leaves those attributes' scores unchanged to first
order.
"""

from __future__ import annotations

import numpy as np

from .core import SemanticDirection
from .dataio import read_json, write_json
from .svm import train_svm

DIRECTION_SCHEMA_VERSION = 1


def _as_matrix(vectors) -> np.ndarray:
    arr = np.atleast_2d(np.asarray(vectors, dtype=np.float64))
    return arr


def centroid_direction(pos, neg, j: int) -> SemanticDirection:
    """Unit vector from the negative-class centroid toward the positive one."""
    pos = _as_matrix(pos)
    neg = _as_matrix(neg)
    return _centroid_from_sums(pos.sum(axis=0), pos.shape[0], neg.sum(axis=0), neg.shape[0], j)


def _check_classes(j: int, n_pos, n_neg) -> None:
    if n_pos == 0 or n_neg == 0:
        raise ValueError(f"attribute {j}: both classes must be non-empty, "
                         f"got {n_pos} positive and {n_neg} negative rows")


def _centroid_from_sums(pos_sum: np.ndarray, n_pos, neg_sum: np.ndarray, n_neg,
                        j: int) -> SemanticDirection:
    """Centroid direction from each class's row sum and row count.

    sum / count is bit for bit what mean(axis=0) returns on the class rows.
    """
    _check_classes(j, n_pos, n_neg)
    if pos_sum.shape != neg_sum.shape:
        raise ValueError(f"dimension mismatch: pos d={pos_sum.shape[0]}, "
                         f"neg d={neg_sum.shape[0]}")
    diff = pos_sum / n_pos - neg_sum / n_neg
    norm = float(np.linalg.norm(diff))
    if norm < 1e-12:
        raise ValueError("class centroids coincide; no direction defined")
    return SemanticDirection(
        attribute=j,
        vector=diff / norm,
        method="centroid",
        meta={"n_pos": int(n_pos), "n_neg": int(n_neg), "raw_norm": norm},
    )


def svm_direction(x, y, j: int, c: float = 1.0, tol: float = 1e-6,
                  max_iter: int = 1000) -> SemanticDirection:
    """Unit normal of the SVM boundary on (x, y), the y = +1 class on its + side."""
    x = _as_matrix(x)
    y = np.asarray(y)
    pos = y > 0
    n_pos = int(pos.sum())
    n_neg = pos.size - n_pos
    _check_classes(j, n_pos, n_neg)
    model = train_svm(x, y, c=c, tol=tol, max_iter=max_iter)
    norm = float(np.linalg.norm(model.weights))
    if norm < 1e-12:
        raise ValueError("SVM weight vector is numerically zero; no direction defined")
    u = model.weights / norm
    side = x @ u
    if side[pos].mean() < side[~pos].mean():
        u = -u
    return SemanticDirection(
        attribute=j,
        vector=u,
        method="svm",
        meta={"c": c, "duality_gap": model.duality_gap, "iterations": model.iterations,
              "converged": model.converged,
              "n_pos": n_pos, "n_neg": n_neg},
    )


def _project_out(v: np.ndarray, basis) -> np.ndarray:
    """A float64 copy of v less its components along the orthonormal rows of basis."""
    u = v.astype(np.float64)
    for _ in range(2):  # second pass mops up cancellation error
        for b in basis:
            u -= (u @ b) * b
    return u


def orthonormal_basis(vectors: np.ndarray) -> np.ndarray:
    """Modified Gram-Schmidt with re-orthogonalization; drops dependent rows."""
    basis: list[np.ndarray] = []
    for v in _as_matrix(vectors):
        u = _project_out(v, basis)
        norm = float(np.linalg.norm(u))
        if norm > 1e-12 * max(1.0, float(np.linalg.norm(v))):
            basis.append(u / norm)
    return np.array(basis) if basis else np.empty((0, vectors.shape[1]))


def conditional_project(target: SemanticDirection,
                        others: list[SemanticDirection]) -> SemanticDirection:
    """Project target onto the orthogonal complement of the other directions."""
    if not others:
        raise ValueError("need at least one other direction to project against")
    dims = {target.dim} | {o.dim for o in others}
    if len(dims) != 1:
        raise ValueError(f"direction dimensions disagree: {sorted(dims)}")
    u = _project_out(target.vector, orthonormal_basis(np.array([o.vector for o in others])))
    norm = float(np.linalg.norm(u))
    if norm < 1e-10:
        raise ValueError("target direction lies in the span of the others")
    return SemanticDirection(
        attribute=target.attribute,
        vector=u / norm,
        method="conditional",
        meta={"parents": [o.attribute for o in others],
              "source_method": target.method, "residual_norm": norm},
    )


def edit_latent(z: np.ndarray, direction: SemanticDirection, alpha: float) -> np.ndarray:
    """z + alpha * u, for a single code or a batch of codes."""
    z = np.asarray(z, dtype=np.float64)
    if z.shape[-1] != direction.dim:
        raise ValueError(f"dimension mismatch: code d={z.shape[-1]}, direction d={direction.dim}")
    return z + alpha * direction.vector


def direction_to_dict(direction: SemanticDirection) -> dict:
    return {
        "schema_version": DIRECTION_SCHEMA_VERSION,
        "attribute": direction.attribute,
        "method": direction.method,
        "dim": direction.dim,
        "vector": [float(x) for x in direction.vector],
        "meta": direction.meta,
    }


def direction_from_dict(obj: dict) -> SemanticDirection:
    if obj["schema_version"] != DIRECTION_SCHEMA_VERSION:
        raise ValueError(f"unsupported direction schema_version {obj['schema_version']!r}")
    vec = np.asarray(obj["vector"], dtype=np.float64)
    if vec.shape != (obj["dim"],):
        raise ValueError(f"field 'vector' has shape {vec.shape}, expected ({obj['dim']},)")
    return SemanticDirection(
        attribute=int(obj["attribute"]),
        vector=vec,
        method=obj["method"],
        meta=dict(obj.get("meta", {})),
    )


def save_direction(direction: SemanticDirection, path: str) -> None:
    write_json(path, direction_to_dict(direction))


def load_direction(path: str) -> SemanticDirection:
    return read_json(path, direction_from_dict)
