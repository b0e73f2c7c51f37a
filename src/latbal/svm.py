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
exact: the primal at w = Z^T alpha minus sum(alpha) - 1/2 ||w||^2.  SvmModel
holds only the certificate of smallest gap seen (w as weights and bias, its
alphas, C, the gap, converged when gap <= tol) and ``iterations``, the Newton
steps, one or more per stage, so an unreachable tol stops after exactly
max_iter; no per-stage record is kept.  Examples are used in the order given;
F is solved through its Gram matrix, so negating the labels (train_svm(x, -y))
negates weights and bias bit for bit.

A row of x with a NaN or an infinity is refused before the solve, naming
the row.  The arithmetic runs with numpy overflow and invalid operations
raised.  At a C so large that the Newton system goes numerically singular
or a value overflows, train_svm raises ValueError naming C; no warning is
issued.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import check_integer, check_number, nonfinite_rows

_H_START, _H_MIN, _STAGE_STEPS, _POLISH_ROWS = 0.5, 1e-12, 25, 2  # polish |F| <= 2 (d+1)


@dataclass
class SvmModel:
    weights: np.ndarray
    bias: float
    c: float
    duality_gap: float
    iterations: int              # Newton steps over all stages
    converged: bool              # duality_gap <= tol
    alphas: np.ndarray           # dual variables, in the order of x


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
    """(gap, w, alpha) for the dual point alpha."""
    w = z.T @ alpha
    w_sq = float(w @ w)
    hinge = float(np.clip(1.0 - z @ w, 0.0, None).sum())
    primal, dual = 0.5 * w_sq + c * hinge, float(alpha.sum()) - 0.5 * w_sq
    return max(primal - dual, 0.0), w, alpha


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


def _solve(z, c, tol, max_iter):
    """(the certificate of smallest gap, Newton steps taken)."""
    v, h, steps = np.zeros(z.shape[1]), _H_START, 0
    best = _certificate(z, v, c, h)
    while best[0] > tol and steps < max_iter:
        v, history, done = _newton_stage(z, v, c, h, min(_STAGE_STEPS, max_iter - steps))
        if not np.isfinite(history[-1]):  # >= ||v||^2 / 2, so the iterate is finite too
            raise FloatingPointError("non-finite objective")
        steps += len(history) - 1
        best = min(best, _certificate(z, v, c, h), key=lambda g: g[0])
        if done:
            h = max(h / 10.0, _H_MIN)
    return best, steps


def train_svm(x: np.ndarray, y: np.ndarray, c: float = 1.0, tol: float = 1e-6,
              max_iter: int = 1000) -> SvmModel:
    """Fit on the rows of x (n, d) with labels y (n,) in {+1, -1}, in the order given."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (x.shape[0],) or not np.all((y == 1.0) | (y == -1.0)):
        raise ValueError(f"labels must be a ({x.shape[0]},) array of +1 and -1")
    if not (np.any(y > 0) and np.any(y < 0)):
        raise ValueError("both classes must be non-empty")
    bad = nonfinite_rows(x)
    if bad.size:  # NaN would return NaN weights as a fit; inf would blame C
        raise ValueError(f"x row {bad[0]}: non-finite component")
    c = check_number("C", c, positive=True)
    if check_number("tol", tol) < 0:
        raise ValueError(f"tol must be a finite number >= 0, got {tol!r}")
    max_iter = check_integer("max_iter", max_iter, 0)

    z = np.empty((x.shape[0], x.shape[1] + 1))  # z_i = y_i [x_i, 1]
    np.multiply(x, y[:, None], out=z[:, :-1])
    z[:, -1] = y

    try:
        with np.errstate(over="raise", invalid="raise"):
            (gap, w, alpha), steps = _solve(z, c, tol, max_iter)
    except (np.linalg.LinAlgError, FloatingPointError) as exc:
        raise ValueError(f"SVM at C = {c:g} is numerically unstable ({exc}); "
                         "try a smaller C") from None

    return SvmModel(weights=w[:-1].copy(), bias=float(w[-1]), c=c, duality_gap=gap,
                    iterations=steps, converged=gap <= tol, alphas=alpha)
