"""Domain types: attribute schemas, labeled latent datasets, directions.

A dataset is N latent codes in R^d plus an N x m binary label matrix (one
column per attribute).  Datasets are treated as immutable after
construction: the arrays are flagged read-only and every operation returns
a new dataset, so concurrent readers are safe.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

MAX_ATTRIBUTES = 20  # contingency tables are dense over 2^m cells

DIRECTION_METHODS = ("centroid", "svm", "conditional")


@dataclass(frozen=True)
class AttributeSchema:
    """Ordered list of named binary attributes."""

    names: tuple[str, ...]

    def __post_init__(self):
        if isinstance(self.names, str):  # a bare string would split into one-letter names
            raise ValueError(f"attribute names must be a sequence of names, "
                             f"got the string {self.names!r}")
        names = tuple(str(n) for n in self.names)
        object.__setattr__(self, "names", names)
        if not 1 <= len(names) <= MAX_ATTRIBUTES:
            raise ValueError(
                f"attribute count must be in [1, {MAX_ATTRIBUTES}], got {len(names)}")
        if len(set(names)) != len(names):
            raise ValueError("attribute names must be unique")
        if any(not n for n in names):
            raise ValueError("attribute names must be non-empty")

    @property
    def m(self) -> int:
        return len(self.names)


@dataclass
class LatentDataset:
    """N latent codes with per-code binary labels."""

    codes: np.ndarray
    labels: np.ndarray
    schema: AttributeSchema
    # Not a field: no constructor sets it.  perfbench/workloads.py still
    # compares edited.confidences with demo.confidences; ROADMAP item 1
    # deletes that check, and then this line.
    confidences = None

    def __post_init__(self):
        self.codes = np.ascontiguousarray(self.codes, dtype=np.float64)
        self.labels = np.ascontiguousarray(self.labels, dtype=np.uint8)
        self.codes.setflags(write=False)
        self.labels.setflags(write=False)

    @property
    def n(self) -> int:
        return self.codes.shape[0]

    @property
    def dim(self) -> int:
        return self.codes.shape[1]

    @property
    def m(self) -> int:
        return self.schema.m

    def select(self, indices) -> "LatentDataset":
        """New dataset holding the given rows, in the given order (repeats allowed)."""
        idx = np.asarray(indices, dtype=np.int64)
        return LatentDataset(codes=self.codes[idx], labels=self.labels[idx], schema=self.schema)


@dataclass(frozen=True)
class SemanticDirection:
    """Unit vector controlling one attribute, with fit provenance in meta."""

    attribute: int
    vector: np.ndarray
    method: str
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        vec = np.ascontiguousarray(self.vector, dtype=np.float64)
        vec.setflags(write=False)
        object.__setattr__(self, "vector", vec)
        if self.method not in DIRECTION_METHODS:
            raise ValueError(f"unknown direction method {self.method!r}")
        norm = float(np.linalg.norm(vec))
        if not abs(norm - 1.0) <= 1e-12:  # a NaN norm fails too
            raise ValueError(f"direction vector must be unit-norm, got ||v|| = {norm!r}")

    @property
    def dim(self) -> int:
        return self.vector.shape[0]


def nonfinite_rows(codes: np.ndarray) -> np.ndarray:
    """Indices of the rows of a 2-d float array that hold a NaN or an infinity."""
    # a finite sum means finite components, so only a non-finite sum needs
    # the row scan (finite rows can overflow it, and then the scan finds none)
    with np.errstate(over="ignore", invalid="ignore"):
        total = codes.sum()
    if np.isfinite(total):
        return np.empty(0, dtype=np.intp)
    return np.flatnonzero(~np.isfinite(codes).all(axis=1))


def validate_dataset(dataset: LatentDataset) -> list[str]:
    """Check every dataset invariant; returns the violations instead of raising."""
    v: list[str] = []
    codes, labels = dataset.codes, dataset.labels
    m = dataset.m

    if codes.ndim != 2:
        v.append(f"codes must be 2-d, got ndim={codes.ndim}")
        return v
    n = codes.shape[0]
    if dataset.dim <= 0:
        v.append(f"dim must be positive, got {dataset.dim}")

    # Each check reduces its whole array to one value and scans the rows, to
    # name them, only when that value shows a violation.
    for row in nonfinite_rows(codes):
        v.append(f"codes row {row}: non-finite component")

    if labels.ndim != 2 or labels.shape[1] != m:
        v.append(f"labels must have shape (N, {m}), got {labels.shape}")
    elif labels.shape[0] != n:
        v.append(f"row-count mismatch: {n} codes vs {labels.shape[0]} label rows")
    elif labels.size and labels.max() > 1:
        for row in np.flatnonzero((labels > 1).any(axis=1)):
            v.append(f"labels row {row}: value outside {{0, 1}}")

    return v


def split_by_attribute(dataset: LatentDataset, j: int) -> tuple[LatentDataset, LatentDataset]:
    """Partition into (positive, negative) subsets for attribute j."""
    if not 0 <= j < dataset.m:
        raise IndexError(f"attribute index {j} out of range for m={dataset.m}")
    mask = dataset.labels[:, j] == 1
    return dataset.select(np.flatnonzero(mask)), dataset.select(np.flatnonzero(~mask))
