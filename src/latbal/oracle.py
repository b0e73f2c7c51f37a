"""Synthetic linear attribute world: a stand-in generator plus scorer.

The world plants m ground-truth unit vectors v_k in R^d whose pairwise
cosines match a requested Gram matrix, so inter-attribute correlation is
controlled exactly.  Latent codes are standard Gaussian; attribute k is
positive when <v_k, z> exceeds a bias b_k chosen so the marginal positive
rate is hit exactly (b_k = Phi^-1(1 - rate), as <v_k, z> is standard
normal).  Scores are logistic in the margin:

    score_k(z) = sigmoid(kappa * (<v_k, z> - b_k))

which makes score responses to edits exactly linear in logit space:
logit(score_k(z + a*u)) - logit(score_k(z)) = kappa * a * <v_k, u>.
Entanglement in this world is therefore pure direction misalignment, with
no scorer noise to hide behind.

Construction: a seeded Gaussian m x d matrix is orthonormalized (modified
Gram-Schmidt) into a frame E, and V = sqrt(Gram) @ E, so V V^T equals the
requested Gram.  Codes come from the portable SplitMix64 + inverse-CDF
pipeline in rng, so a given (world, n, seed) reproduces bit-identically.
One block function draws _LABEL_ROWS rows from the codes stream at counter
row * d and labels them from their own margins, into slices of sample_world's
arrays or into the one buffer sample_blocks reuses; the bits are one pass's.

A world is valid once built: it is frozen, holds only what it cannot derive
(vectors, gram, rates, sharpness, seed, names) and derives the biases from
the rates and d from the vectors.  It keeps read-only copies of the arrays
it is given, so the biases cannot go stale.  A world file still carries dim
and biases for other readers; on load they must agree with the vectors and
the rates (biases within 1e-12), or the file is refused.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .core import AttributeSchema, LatentDataset, check_integer
from .dataio import json_array, json_int, json_number, read_json, write_json
from .directions import orthonormal_basis
from .rng import derive_seed, norm_ppf, normals

WORLD_SCHEMA_VERSION = 1

_STREAM_FRAME = 21
_STREAM_CODES = 22
_LABEL_ROWS = 8192  # codes drawn and labelled per block


@dataclass(frozen=True)
class LinearAttributeWorld:
    vectors: np.ndarray          # m x d, unit rows
    gram: np.ndarray             # m x m, as requested
    rates: np.ndarray            # m marginal positive rates
    sharpness: float             # logistic slope kappa
    seed: int
    names: tuple[str, ...]
    dim: int = field(init=False)            # d, the width of vectors
    biases: np.ndarray = field(init=False)  # m, Phi^-1(1 - rate) for each rate

    def __post_init__(self):
        """Refuse a world make_world would not build, so a loaded world gets its checks."""
        object.__setattr__(self, "names", AttributeSchema(self.names).names)
        for name in ("vectors", "gram", "rates"):  # copies, so a caller's arrays stay writable
            object.__setattr__(self, name, np.array(getattr(self, name), dtype=np.float64))
        if self.vectors.ndim != 2:
            raise ValueError(f"vectors must be an m x d matrix, got shape {self.vectors.shape}")
        object.__setattr__(self, "dim", self.vectors.shape[1])
        s = self.sharpness
        if isinstance(s, bool) or not isinstance(s, numbers.Real) or not (
                math.isfinite(s) and s > 0):
            raise ValueError(f"sharpness must be a finite positive number, got {s}")
        m = len(self.names)
        _check_spec(self.dim, m, self.gram, self.rates)
        if self.vectors.shape[0] != m or not np.all(
                np.abs(np.linalg.norm(self.vectors, axis=1) - 1.0) <= 1e-12):
            raise ValueError(f"vectors must be {m} unit-norm rows of dim {self.dim}")
        if not np.all(np.abs(self.vectors @ self.vectors.T - self.gram) <= 1e-9):
            raise ValueError("vectors @ vectors.T does not match gram within 1e-9")
        object.__setattr__(self, "biases", np.array([norm_ppf(1.0 - r) for r in self.rates]))
        for name in ("vectors", "gram", "rates", "biases"):
            getattr(self, name).setflags(write=False)

    @property
    def m(self) -> int:
        return self.vectors.shape[0]

    @property
    def schema(self) -> AttributeSchema:
        return AttributeSchema(self.names)

    def margins(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=np.float64)
        if z.shape[-1] != self.dim:
            raise ValueError(f"dimension mismatch: code d={z.shape[-1]}, world d={self.dim}")
        return z @ self.vectors.T - self.biases

    def logits(self, z: np.ndarray) -> np.ndarray:
        return self.sharpness * self.margins(z)

    def score(self, z: np.ndarray) -> np.ndarray:
        return _sigmoid(self.logits(z))


def _sigmoid(x: np.ndarray) -> np.ndarray:
    e = np.exp(-np.abs(x))  # never overflows; each branch takes its own formula
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _sym_sqrt(gram: np.ndarray) -> np.ndarray:
    eigvals, eigvecs = np.linalg.eigh(gram)
    if eigvals.min() < -1e-10:
        raise ValueError(f"gram matrix is not positive semi-definite "
                         f"(min eigenvalue {eigvals.min():.3e})")
    return (eigvecs * np.sqrt(np.clip(eigvals, 0.0, None))) @ eigvecs.T


def _check_spec(dim: int, m: int, gram: np.ndarray, rates: np.ndarray) -> None:
    """The checks on a world's dim, gram and rates that make_world runs before it
    builds the vectors and every world, built or loaded, runs again."""
    if gram.shape != (m, m):
        raise ValueError(f"gram must be {m}x{m}, got {gram.shape}")
    if not np.allclose(gram, gram.T, rtol=0.0, atol=1e-12):
        raise ValueError("gram matrix must be symmetric")
    if not np.allclose(np.diag(gram), 1.0, rtol=0.0, atol=1e-12):
        raise ValueError("gram matrix must have unit diagonal")
    if dim < m:
        raise ValueError(f"dim ({dim}) must be >= m ({m})")
    if rates.shape != (m,) or not np.all((rates > 0.0) & (rates < 1.0)):
        raise ValueError(f"positive rates must be {m} values strictly inside (0, 1), "
                         f"got {rates.tolist()}")


def make_world(dim: int, gram: np.ndarray, positive_rates, sharpness: float = 1.0,
               seed: int = 0, names: tuple[str, ...] | None = None) -> LinearAttributeWorld:
    gram = np.asarray(gram, dtype=np.float64)
    rates = np.asarray(positive_rates, dtype=np.float64)
    m = rates.size
    _check_spec(dim, m, gram, rates)
    if names is None:
        names = tuple(f"attr{k}" for k in range(m))
    if len(names) != m:
        raise ValueError(f"expected {m} names, got {len(names)}")

    raw = normals(derive_seed(seed, _STREAM_FRAME), m * dim).reshape(m, dim)
    frame = orthonormal_basis(raw)
    if frame.shape[0] != m:
        raise ValueError("could not build an orthonormal frame (degenerate draw)")
    vectors = _sym_sqrt(gram) @ frame
    vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
    return LinearAttributeWorld(vectors=vectors, gram=gram, rates=rates,
                                sharpness=float(sharpness), seed=seed, names=names)


def _sample_block(world: LinearAttributeWorld, seed: int, row: int, codes: np.ndarray,
                  labels: np.ndarray) -> np.ndarray:
    """Fill codes (a C-contiguous k x d block) with rows row .. row+k-1 of the
    codes sample_world draws at seed, and labels (k x m) with their labels."""
    normals(derive_seed(seed, _STREAM_CODES), codes.size, start=row * world.dim,
            out=codes.reshape(-1))
    np.greater(world.margins(codes), 0, out=labels)
    return codes


def sample_world(world: LinearAttributeWorld, n: int, seed: int) -> LatentDataset:
    """n codes from the standard Gaussian prior, labeled by the world."""
    n = check_integer("n", n, 0)
    codes, labels = np.empty((n, world.dim)), np.empty((n, world.m), dtype=np.uint8)
    for i in range(0, n, _LABEL_ROWS):
        _sample_block(world, seed, i, codes[i:i + _LABEL_ROWS], labels[i:i + _LABEL_ROWS])
    return LatentDataset(codes=codes, labels=labels, schema=world.schema)


def sample_blocks(world: LinearAttributeWorld, n: int, seed: int):
    """(labels, blocks): the labels of sample_world(world, n, seed) and a generator
    of its codes, _LABEL_ROWS rows at a time in one reused buffer, that fills them
    in; a caller that writes each block out holds one block of codes, not n rows."""
    n = check_integer("n", n, 0)
    labels = np.empty((n, world.m), dtype=np.uint8)
    rows = np.empty((min(n, _LABEL_ROWS), world.dim))
    return labels, (_sample_block(world, seed, i, rows[:n - i], labels[i:i + _LABEL_ROWS])
                    for i in range(0, n, _LABEL_ROWS))


def default_world(seed: int = 0) -> LinearAttributeWorld:
    """The documented demo world: d=64, four attributes, two correlated pairs.

    Cosine 0.6 between attributes (0,1) and (2,3), marginal positive rates
    (0.5, 0.3, 0.5, 0.2), sharpness 1 - a compact imitation of the skewed
    joint distributions real generators exhibit.
    """
    gram = np.eye(4)
    gram[0, 1] = gram[1, 0] = 0.6
    gram[2, 3] = gram[3, 2] = 0.6
    return make_world(dim=64, gram=gram, positive_rates=(0.5, 0.3, 0.5, 0.2),
                      sharpness=1.0, seed=seed)


def world_to_dict(world: LinearAttributeWorld) -> dict:
    return {
        "schema_version": WORLD_SCHEMA_VERSION,
        "dim": world.dim,
        "names": list(world.names),
        "vectors": [[float(x) for x in row] for row in world.vectors],
        "biases": [float(b) for b in world.biases],
        "gram": [[float(x) for x in row] for row in world.gram],
        "rates": [float(r) for r in world.rates],
        "sharpness": world.sharpness,
        "seed": world.seed,
    }


def world_from_dict(obj: dict) -> LinearAttributeWorld:
    if json_int(obj, "schema_version") != WORLD_SCHEMA_VERSION:
        raise ValueError(f"unsupported world schema_version {obj['schema_version']!r}")
    dim, names = json_int(obj, "dim"), AttributeSchema(obj["names"]).names
    m = len(names)
    arrays = {key: json_array(obj, key, shape) for key, shape in (
        ("vectors", (m, dim)), ("gram", (m, m)), ("rates", (m,)))}
    world = LinearAttributeWorld(sharpness=json_number(obj, "sharpness"),
                                 seed=json_int(obj, "seed"), names=names, **arrays)
    if not np.all(np.abs(json_array(obj, "biases", (m,)) - world.biases) <= 1e-12):
        raise ValueError("field 'biases' does not match the biases its rates give within 1e-12")
    return world


def save_world(world: LinearAttributeWorld, path: str) -> None:
    write_json(path, world_to_dict(world))


def load_world(path: str) -> LinearAttributeWorld:
    return read_json(path, world_from_dict)
