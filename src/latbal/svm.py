"""Soft-margin linear SVM: primal finite Newton, certified by a dual point.

Solves min_w 1/2 ||w||^2 + C * sum_i max(0, 1 - y_i (w . x_i + b)), the bias
folded in as a constant feature 1.  With z_i = y_i [x_i, 1], v = [w, b] has
only d + 1 entries, so the solver stays in the primal (Chapelle, Neural
Comput. 19, 2007, §4; Keerthi & DeCoste, JMLR 6, 2005).  A stage smooths the
hinge to the Huber loss L_h (zero above margin 1 + h, linear below 1 - h,
quadratic between) and takes Newton steps on I + C/(2h) sum_quad z z^T with
Armijo backtracking.  A full step that keeps every example on its piece lands
on the exact minimiser; h then drops tenfold, from 0.5 down to _H_MIN.  A
stage cut at _STAGE_STEPS steps resumes at the same h: a smaller h would
freeze an iterate that still has many examples in the band.

At v = 0 and after every stage the iterate gives dual points in [0, C]^n:
alpha_i = -C L_h'(z_i . v) and, when the quadratic piece F is small, a
polished one (OSQP, Stellato et al. 2020): C below the band, 0 above, and on
F the solution of Z_F Z_F^T a = 1 - Z_F w_B clipped to [0, C].  The gap is
exact: the primal at w = Z^T alpha minus sum(alpha) - 1/2 ||w||^2.  The model
is the (w, alpha) of smallest gap seen, converged when that gap is <= tol;
``iterations`` counts Newton steps, one or more per stage, so an unreachable
tol stops after exactly max_iter.  Examples are sorted by content and F is
solved through its Gram matrix, so swapping the two point sets negates weights
and bias bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

_H_START, _H_MIN, _STAGE_STEPS, _POLISH_ROWS = 0.5, 1e-12, 25, 2  # polish |F| <= 2 (d+1)


@dataclass
class SvmModel:
    weights: np.ndarray
    bias: float
    c: float
    duality_gap: float
    iterations: int              # Newton steps over all stages
    converged: bool              # duality_gap <= tol
    hinge_loss: float            # total hinge at the returned weights
    alphas: np.ndarray           # dual variables, canonical example order
    objective_history: list[float] = field(default_factory=list)  # primal per certificate
    dual_history: list[float] = field(default_factory=list)       # dual per certificate
    smoothed_history: list[list[float]] = field(default_factory=list)  # per stage and step

    def decision(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x, dtype=np.float64) @ self.weights + self.bias


def canonical_order(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Content-based example order: by coordinates, label as tie-break."""
    return np.lexsort(np.vstack([y, x.T[::-1]]))


def _smoothed(margin, vv, c, h):
    """The h-smoothed primal from margins z_i . v and ||v||^2, and -L_h' in [0, 1]."""
    a = np.minimum(np.maximum((1.0 + h - margin) * (0.5 / h), 0.0), 1.0)
    return 0.5 * vv + c * float(np.where(a < 1.0, h * a * a, 1.0 - margin).sum()), a


def _newton_stage(z, v, c, h, steps):
    """Up to ``steps`` steps: (v, smoothed primal per step, minimiser reached)."""
    margin = z @ v
    f, a = _smoothed(margin, float(v @ v), c, h)
    history = [f]
    for _ in range(steps):
        zq = z[(a > 0.0) & (a < 1.0)]
        grad = v - c * (z.T @ a)
        delta = np.linalg.solve(np.eye(v.size) + (c / (2.0 * h)) * (zq.T @ zq), -grad)
        q, vd, dd = z @ delta, float(v @ delta), float(delta @ delta)
        vv, slope = float(v @ v), float(grad @ delta)
        t, (f_new, a_new) = 1.0, _smoothed(margin + q, vv + 2.0 * vd + dd, c, h)
        # piece per example: 0 above the band, 1 in it, 2 below
        done = np.array_equal(np.ceil(a) + (a == 1.0), np.ceil(a_new) + (a_new == 1.0))
        while not done and f_new > f + 1e-4 * t * slope and t > 1e-10:
            t *= 0.5
            f_new, a_new = _smoothed(margin + t * q, vv + t * (2.0 * vd + t * dd), c, h)
        v = v + t * delta
        margin, f, a = z @ v, f_new, a_new
        history.append(f)
        if done:
            return v, history, True
    return v, history, False


def _dual_gap(z, alpha, c):
    """(gap, primal, dual, hinge, w, alpha) for the dual point alpha."""
    w = z.T @ alpha
    w_sq = float(w @ w)
    hinge = float(np.clip(1.0 - z @ w, 0.0, None).sum())
    primal, dual = 0.5 * w_sq + c * hinge, float(alpha.sum()) - 0.5 * w_sq
    return max(primal - dual, 0.0), primal, dual, hinge, w, alpha


def _certificate(z, v, c, h):
    _, a = _smoothed(z @ v, 0.0, c, h)
    points = [c * a]
    near = (a > 0.0) & (a < 1.0)
    if 0 < np.count_nonzero(near) <= _POLISH_ROWS * v.size:
        alpha, zf = c * (a == 1.0), z[near]
        sol = np.linalg.lstsq(zf @ zf.T, 1.0 - zf @ (z.T @ alpha), rcond=None)[0]
        alpha[near] = np.clip(sol, 0.0, c)
        points.append(alpha)
    return min((_dual_gap(z, alpha, c) for alpha in points), key=lambda g: g[0])


def train_svm(pos: np.ndarray, neg: np.ndarray, c: float = 1.0, tol: float = 1e-6,
              max_iter: int = 1000) -> SvmModel:
    pos = np.atleast_2d(np.asarray(pos, dtype=np.float64))
    neg = np.atleast_2d(np.asarray(neg, dtype=np.float64))
    if pos.shape[0] == 0 or neg.shape[0] == 0:
        raise ValueError("both classes must be non-empty")
    if pos.shape[1] != neg.shape[1]:
        raise ValueError(f"dimension mismatch: pos d={pos.shape[1]}, neg d={neg.shape[1]}")
    if c <= 0:
        raise ValueError(f"C must be positive, got {c}")

    x = np.vstack([pos, neg])
    y = np.concatenate([np.ones(pos.shape[0]), -np.ones(neg.shape[0])])
    order = canonical_order(x, y)
    z = y[order, None] * np.hstack([x[order], np.ones((x.shape[0], 1))])

    v, h, steps = np.zeros(z.shape[1]), _H_START, 0
    best = _certificate(z, v, c, h)
    certs, smoothed = [best[1:3]], []
    while best[0] > tol and steps < max_iter:
        v, history, done = _newton_stage(z, v, c, h, min(_STAGE_STEPS, max_iter - steps))
        smoothed.append(history)
        steps += len(history) - 1
        cert = _certificate(z, v, c, h)
        certs.append(cert[1:3])
        best = min(best, cert, key=lambda g: g[0])
        if done:
            h = max(h / 10.0, _H_MIN)

    gap, _, _, hinge, w, alpha = best
    return SvmModel(weights=w[:-1].copy(), bias=float(w[-1]), c=c, duality_gap=gap,
                    iterations=steps, converged=gap <= tol, hinge_loss=hinge, alphas=alpha,
                    objective_history=[p for p, _ in certs],
                    dual_history=[q for _, q in certs], smoothed_history=smoothed)
