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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import AttributeSchema, LatentDataset
from .dataio import read_json, write_json
from .directions import orthonormal_basis
from .rng import derive_seed, norm_ppf, normals

WORLD_SCHEMA_VERSION = 1

_STREAM_FRAME = 21
_STREAM_CODES = 22


@dataclass
class LinearAttributeWorld:
    dim: int
    vectors: np.ndarray          # m x d, unit rows
    biases: np.ndarray           # m
    sharpness: float             # logistic slope kappa
    seed: int
    gram: np.ndarray             # m x m, as requested
    rates: np.ndarray            # m marginal positive rates
    names: tuple[str, ...]

    def __post_init__(self):
        self.names = AttributeSchema(self.names).names
        if not (np.isfinite(self.sharpness) and self.sharpness > 0):
            raise ValueError(f"sharpness must be a finite positive number, got {self.sharpness}")

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


def make_world(dim: int, m: int, gram: np.ndarray, positive_rates,
               sharpness: float = 1.0, seed: int = 0,
               names: tuple[str, ...] | None = None) -> LinearAttributeWorld:
    gram = np.asarray(gram, dtype=np.float64)
    rates = np.asarray(positive_rates, dtype=np.float64)
    if gram.shape != (m, m):
        raise ValueError(f"gram must be {m}x{m}, got {gram.shape}")
    if not np.allclose(gram, gram.T, atol=1e-12):
        raise ValueError("gram matrix must be symmetric")
    if not np.allclose(np.diag(gram), 1.0, atol=1e-12):
        raise ValueError("gram matrix must have unit diagonal")
    if dim < m:
        raise ValueError(f"dim ({dim}) must be >= m ({m})")
    if rates.shape != (m,) or not np.all((rates > 0.0) & (rates < 1.0)):
        raise ValueError("positive_rates must be m values strictly inside (0, 1)")
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

    biases = np.array([norm_ppf(1.0 - r) for r in rates])
    return LinearAttributeWorld(dim=dim, vectors=vectors, biases=biases,
                                sharpness=float(sharpness), seed=seed,
                                gram=gram, rates=rates, names=names)


def sample_world(world: LinearAttributeWorld, n: int, seed: int) -> LatentDataset:
    """n codes from the standard Gaussian prior, labeled by the world."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    codes = normals(derive_seed(seed, _STREAM_CODES), n * world.dim).reshape(n, world.dim)
    labels = (world.margins(codes) > 0).astype(np.uint8)
    return LatentDataset(codes=codes, labels=labels, schema=world.schema)


def default_world(seed: int = 0) -> LinearAttributeWorld:
    """The documented demo world: d=64, four attributes, two correlated pairs.

    Cosine 0.6 between attributes (0,1) and (2,3), marginal positive rates
    (0.5, 0.3, 0.5, 0.2), sharpness 1 - a compact imitation of the skewed
    joint distributions real generators exhibit.
    """
    gram = np.eye(4)
    gram[0, 1] = gram[1, 0] = 0.6
    gram[2, 3] = gram[3, 2] = 0.6
    return make_world(dim=64, m=4, gram=gram, positive_rates=(0.5, 0.3, 0.5, 0.2),
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
    if obj["schema_version"] != WORLD_SCHEMA_VERSION:
        raise ValueError(f"unsupported world schema_version {obj['schema_version']!r}")
    dim, names = int(obj["dim"]), AttributeSchema(obj["names"]).names
    m = len(names)
    arrays = {key: _array_field(obj, key, shape) for key, shape in (
        ("vectors", (m, dim)), ("biases", (m,)), ("gram", (m, m)), ("rates", (m,)))}
    return LinearAttributeWorld(dim=dim, sharpness=float(obj["sharpness"]),
                                seed=int(obj["seed"]), names=names, **arrays)


def _array_field(obj: dict, key: str, shape: tuple) -> np.ndarray:
    """obj[key] as a finite float64 array, which must have the given shape."""
    try:
        arr = np.asarray(obj[key], dtype=np.float64)
    except (TypeError, ValueError):  # ragged, or not numbers
        raise ValueError(f"field {key!r} is not an array of numbers") from None
    if arr.shape != shape:
        raise ValueError(f"field {key!r} has shape {arr.shape}, expected {shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"field {key!r} holds a non-finite value")
    return arr


def save_world(world: LinearAttributeWorld, path: str) -> None:
    write_json(path, world_to_dict(world))


def load_world(path: str) -> LinearAttributeWorld:
    return read_json(path, world_from_dict)
