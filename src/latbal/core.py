"""Domain types: attribute schemas, labeled latent datasets, directions.

A dataset is N latent codes in R^d plus an N x m binary label matrix (one
column per attribute).  It is valid once built: the constructor refuses
codes that are not 2-d with d > 0 and labels that are not an N x m matrix
of 0s and 1s.  Datasets are frozen: the fields cannot be reassigned, the
arrays are flagged read-only and every operation returns a new dataset, so
concurrent readers are safe.
"""

from __future__ import annotations

import numbers
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
        names = tuple(self.names)
        bad = [n for n in names if not isinstance(n, str)]
        if bad:
            raise ValueError(f"attribute names must be strings, got {bad[0]!r}")
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


@dataclass(frozen=True)
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
        codes = np.ascontiguousarray(self.codes, dtype=np.float64)
        if codes.ndim != 2 or codes.shape[1] == 0:
            raise ValueError(f"codes must be 2-d with dim > 0, got shape {codes.shape}")
        labels = checked_labels(self.labels, codes.shape[0], self.schema.m)
        codes.setflags(write=False)
        labels.setflags(write=False)
        object.__setattr__(self, "codes", codes)
        object.__setattr__(self, "labels", labels)

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
        idx = row_indices(indices)
        return LatentDataset(codes=self.codes[idx], labels=self.labels[idx], schema=self.schema)


@dataclass(frozen=True)
class SemanticDirection:
    """Unit vector controlling one attribute, with fit provenance in meta."""

    attribute: int
    vector: np.ndarray
    method: str
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        vec = np.asarray(self.vector, dtype=np.float64, order="C")  # a 0-d vector stays 0-d
        vec.setflags(write=False)
        object.__setattr__(self, "vector", vec)
        if self.method not in DIRECTION_METHODS:
            raise ValueError(f"unknown direction method {self.method!r}")
        if vec.ndim != 1 or vec.size == 0:
            raise ValueError(f"direction vector must be 1-d and non-empty, got shape {vec.shape}")
        object.__setattr__(self, "attribute", check_integer("direction attribute",
                                                            self.attribute, 0))
        norm = float(np.linalg.norm(vec))
        if not abs(norm - 1.0) <= 1e-12:  # a NaN norm fails too
            raise ValueError(f"direction vector must be unit-norm, got ||v|| = {norm!r}")

    @property
    def dim(self) -> int:
        return self.vector.shape[0]


def check_integer(name: str, value, minimum: int | None = None) -> int:
    """value as an int; a bool, a float or any other non-integer is refused by
    name, and so is a value below minimum when one is given."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return int(value)


def checked_labels(labels, n: int, m: int) -> np.ndarray:
    """labels as a C-contiguous n x m uint8 matrix; a matrix of another shape,
    or one holding a value that is not 0 or 1, is refused."""
    labels = np.asarray(labels)
    if labels.shape != (n, m):
        raise ValueError(f"labels have shape {labels.shape}, expected ({n}, {m})")
    # checked before the cast, so 0.5, -1, NaN and 2 are refused; an
    # unsigned or bool matrix is scanned only when its max shows a bad row
    if labels.size and (labels.dtype.kind not in "bu" or labels.max() > 1):
        bad = np.flatnonzero(((labels != 0) & (labels != 1)).any(axis=1))
        if bad.size:
            raise ValueError(f"label row {bad[0]} holds a value that is not 0 or 1")
    return np.ascontiguousarray(labels, dtype=np.uint8)


def row_indices(indices) -> np.ndarray:
    """indices as int64 row indices; a non-integer dtype, bool and float
    included, is refused, not cast, unless empty (numpy reads [] as float64)."""
    idx = np.asarray(indices)
    if idx.size and idx.dtype.kind not in "iu":
        raise ValueError(f"row indices must be integers, got dtype {idx.dtype}")
    return idx.astype(np.int64, copy=False)


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
    """One message per codes row that holds a NaN or an infinity, [] when none does."""
    return [f"codes row {row}: non-finite component" for row in nonfinite_rows(dataset.codes)]


def split_by_attribute(dataset: LatentDataset, j: int) -> tuple[LatentDataset, LatentDataset]:
    """Partition into (positive, negative) subsets for attribute j."""
    if not 0 <= j < dataset.m:
        raise IndexError(f"attribute index {j} out of range for m={dataset.m}")
    mask = dataset.labels[:, j] == 1
    return dataset.select(np.flatnonzero(mask)), dataset.select(np.flatnonzero(~mask))
