"""Soft-margin linear SVM trained by dual coordinate descent.

Solves the L1-hinge primal

    min_w  1/2 ||w||^2 + C * sum_i max(0, 1 - y_i (w . x_i + b))

through its dual, one exact single-variable update per visited example
(Hsieh et al., ICML 2008).  The bias is folded in as a constant feature of
value 1, which perturbs the geometric bias slightly at small C; downstream
consumers only use the normal direction, where the effect is negligible.
Labels are folded into the rows (y_i x_i) once, before the first epoch.

Each epoch visits the active examples in a random order: the argsort of one
vectorized block of SplitMix64 outputs from the epoch's own stream.

Shrinking (Hsieh et al. §3.2; Fan et al., "LIBLINEAR", JMLR 9, 2008): after
each epoch the full gradient G = Q alpha - 1 is evaluated anyway, for the
duality gap.  The next epoch skips the examples whose coordinate step would
be a no-op, those with alpha_i = 0 and G_i >= 0 or alpha_i = C and
G_i <= 0, and visits all examples if none is left.  The set is recomputed
from the full gradient every epoch, so no example stays out for more than
one epoch without a recheck, and there is no threshold to tune.  Every step
is still an exact maximisation, so the dual objective never decreases.
``iterations`` counts epochs over the active set, not full passes.

Convergence is declared on the true duality gap over all examples: the
primal objective above minus the dual objective sum(alpha) - 1/2 ||w||^2,
evaluated after each epoch.

Examples are canonically reordered (sorted by coordinate bytes, then label)
before training, so the fit depends on the two point sets and not on the
order they were supplied in.  A useful consequence: swapping the positive
and negative sets negates weights and bias exactly, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .rng import derive_seed, u64_block

_STREAM_EPOCH = 11


@dataclass
class SvmModel:
    weights: np.ndarray
    bias: float
    c: float
    duality_gap: float
    iterations: int              # epochs completed, each over the active set
    converged: bool              # duality_gap <= tol before hitting max_iter
    hinge_loss: float            # total hinge at the returned iterate
    alphas: np.ndarray           # dual variables, canonical example order
    objective_history: list[float] = field(default_factory=list)  # primal per epoch
    dual_history: list[float] = field(default_factory=list)       # dual per epoch

    def decision(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x, dtype=np.float64) @ self.weights + self.bias


def canonical_order(x: np.ndarray, y: np.ndarray) -> list[int]:
    """Content-based example order: by coordinate bytes, label as tie-break."""
    return sorted(range(x.shape[0]), key=lambda i: (x[i].tobytes(), y[i]))


def train_svm(pos: np.ndarray, neg: np.ndarray, c: float = 1.0, tol: float = 1e-6,
              max_iter: int = 1000, seed: int = 0) -> SvmModel:
    pos = np.atleast_2d(np.asarray(pos, dtype=np.float64))
    neg = np.atleast_2d(np.asarray(neg, dtype=np.float64))
    if pos.shape[0] == 0 or neg.shape[0] == 0:
        raise ValueError("both classes must be non-empty")
    if pos.shape[1] != neg.shape[1]:
        raise ValueError(f"dimension mismatch: pos d={pos.shape[1]}, neg d={neg.shape[1]}")
    if c <= 0:
        raise ValueError(f"C must be positive, got {c}")

    d = pos.shape[1]
    x_raw = np.vstack([pos, neg])
    y_raw = np.concatenate([np.ones(pos.shape[0]), -np.ones(neg.shape[0])])

    order = canonical_order(x_raw, y_raw)
    x = np.ascontiguousarray(np.hstack([x_raw[order], np.ones((x_raw.shape[0], 1))]))
    y = y_raw[order]
    n = x.shape[0]

    yx = y[:, None] * x
    rows = list(yx)
    inv_q = (1.0 / (x * x).sum(axis=1)).tolist()  # q_ii >= 1 thanks to the bias feature
    alpha = [0.0] * n
    w = np.zeros(d + 1)

    gap = np.inf
    hinge = np.inf
    primal_history: list[float] = []
    dual_history: list[float] = []
    epochs = 0
    converged = False
    active = np.arange(n)

    for epoch in range(max_iter):
        keys = u64_block(derive_seed(seed, _STREAM_EPOCH, epoch), active.size)
        for i in active[np.argsort(keys, kind="stable")].tolist():
            r = rows[i]
            g = float(r @ w) - 1.0
            a = alpha[i]
            a_new = min(max(a - g * inv_q[i], 0.0), c)
            if a_new != a:
                w += (a_new - a) * r
                alpha[i] = a_new
        epochs = epoch + 1

        alpha_arr = np.array(alpha)
        grad = yx @ w - 1.0
        hinge = float(np.clip(-grad, 0.0, None).sum())
        w_sq = float(w @ w)
        primal = 0.5 * w_sq + c * hinge
        dual = float(alpha_arr.sum()) - 0.5 * w_sq
        gap = max(primal - dual, 0.0)
        primal_history.append(primal)
        dual_history.append(dual)
        if gap <= tol:
            converged = True
            break

        at_bound = ((alpha_arr <= 0.0) & (grad >= 0.0)) | ((alpha_arr >= c) & (grad <= 0.0))
        active = np.flatnonzero(~at_bound)
        if active.size == 0:
            active = np.arange(n)

    return SvmModel(
        weights=w[:d].copy(),
        bias=float(w[d]),
        c=c,
        duality_gap=float(gap),
        iterations=epochs,
        converged=converged,
        hinge_loss=hinge,
        alphas=np.array(alpha),
        objective_history=primal_history,
        dual_history=dual_history,
    )
