import re

import numpy as np
import pytest

import latbal as lb
from latbal import svm
from latbal.rng import derive_seed, normals
from latbal.svm import train_svm

from conftest import stacked


def _blobs(n_per_side=500, d=64, half_gap=2.0, seed=7):
    """Two Gaussian blobs at +-mu with ||2 mu|| = 2 * half_gap * ... fixed geometry."""
    mu = np.full(d, half_gap / np.sqrt(d))
    z = normals(derive_seed(seed, 103), 2 * n_per_side * d).reshape(2 * n_per_side, d)
    return z[:n_per_side] + mu, z[n_per_side:] - mu


def _hinge(x, y, model):
    """Total hinge loss of the model's weights and bias on the rows of x."""
    return float(np.clip(1.0 - y * (x @ model.weights + model.bias), 0.0, None).sum())


@pytest.fixture
def solver_log(monkeypatch):
    """Every certificate the solver makes, as (z, c, gap, w, alpha), and every
    Newton stage's smoothed primal, one value at the start and one per step."""
    log = {"certs": [], "stages": []}
    certificate, newton_stage = svm._certificate, svm._newton_stage

    def record_certificate(z, v, c, h):
        cert = certificate(z, v, c, h)
        log["certs"].append((z, c, *cert))
        return cert

    def record_stage(*args):
        out = newton_stage(*args)
        log["stages"].append(out[1])
        return out

    monkeypatch.setattr(svm, "_certificate", record_certificate)
    monkeypatch.setattr(svm, "_newton_stage", record_stage)
    return log


def _primal_dual(z, c, alpha):
    """Primal at w = Z^T alpha and dual objective of alpha, recomputed from alpha alone."""
    w = z.T @ alpha
    hinge = float(np.clip(1.0 - z @ w, 0.0, None).sum())
    return 0.5 * float(w @ w) + c * hinge, float(alpha.sum()) - 0.5 * float(w @ w)


@pytest.fixture(scope="module")
def blobs_model():
    pos, neg = _blobs()
    return pos, neg, train_svm(*stacked(pos, neg), c=1.0, tol=1e-4, max_iter=1000)


def test_symmetric_separable_case():
    pos = np.array([[1.0, 0.0], [1.0, 1.0]])
    neg = np.array([[-1.0, 0.0], [-1.0, 1.0]])
    x, y = stacked(pos, neg)
    model = train_svm(x, y, c=1.0, tol=1e-8, max_iter=2000)
    w = model.weights / np.linalg.norm(model.weights)
    assert np.allclose(w, [1.0, 0.0], atol=1e-6)
    assert abs(model.bias) < 1e-6
    assert _hinge(x, y, model) < 1e-9
    assert model.converged


def test_degenerate_identical_point_both_classes():
    point = np.array([[1.0, 2.0]])
    x, y = stacked(point, point)
    model = train_svm(x, y, c=1.0, tol=1e-8, max_iter=100)
    assert np.linalg.norm(model.weights) < 1e-9
    assert _hinge(x, y, model) >= 1.0  # non-separable shows up as residual hinge loss
    assert model.converged


def test_blob_training_accuracy(blobs_model):
    # means +-mu with ||2 mu|| = 4: Bayes accuracy Phi(2) ~ 0.977
    pos, neg, model = blobs_model
    x, y = stacked(pos, neg)
    accuracy = (np.sign(x @ model.weights + model.bias) == y).mean()
    assert accuracy >= 0.97


def _slackness_residual(pos, neg, model):
    x, y = stacked(pos, neg)
    s = y * (x @ model.weights + model.bias) - 1.0
    # complementary slackness: alpha * max(0, yf-1) and (C-alpha) * max(0, 1-yf)
    r1 = model.alphas * np.clip(s, 0.0, None)
    r2 = (model.c - model.alphas) * np.clip(-s, 0.0, None)
    return float((r1 + r2).sum())


def test_alpha_bounds_and_slackness_identity(blobs_model):
    pos, neg, model = blobs_model
    assert np.all(model.alphas >= 0.0) and np.all(model.alphas <= model.c)
    # the total slackness residual IS the duality gap
    assert _slackness_residual(pos, neg, model) == pytest.approx(model.duality_gap, abs=1e-8)


def test_kkt_residual_below_tol_at_convergence():
    pos, neg = _blobs(n_per_side=150)
    model = train_svm(*stacked(pos, neg), c=1.0, tol=1e-6, max_iter=4000)
    assert model.converged
    assert np.all(model.alphas >= 0.0) and np.all(model.alphas <= model.c)
    assert _slackness_residual(pos, neg, model) <= 1e-6 + 1e-9


def test_duality_gap_certifies_convergence(solver_log):
    pos, neg = _blobs(n_per_side=150)
    model = train_svm(*stacked(pos, neg), c=1.0, tol=1e-6, max_iter=4000)
    assert model.converged
    assert model.duality_gap <= 1e-6
    # weak duality throughout
    pd = [_primal_dual(z, c, alpha) for z, c, _, _, alpha in solver_log["certs"]]
    assert len(pd) >= 2 and all(p >= d - 1e-9 for p, d in pd)


def test_stage_iterates_obey_weak_duality_and_descent(solver_log):
    # every certificate is a feasible dual point, so its dual objective is at
    # most the primal at its own w; within a stage the Armijo condition (or an
    # exact minimiser) makes the smoothed primal non-increasing step by step
    train_svm(*stacked(*_blobs()), c=1.0, tol=1e-4, max_iter=1000)
    certs, stages = solver_log["certs"], solver_log["stages"]
    assert len(certs) == len(stages) + 1 and stages
    for z, c, _, _, alpha in certs:
        assert np.all(alpha >= 0.0) and np.all(alpha <= c)
        primal, dual = _primal_dual(z, c, alpha)
        assert primal >= dual - 1e-9 * max(1.0, abs(primal))
    for stage in stages:
        f = np.array(stage)
        assert f.size >= 2  # every stage takes at least one step
        assert np.all(np.diff(f) <= 1e-12 * max(1.0, np.abs(f).max()))


def _reference_dual_cd(pos, neg, c, tol, max_iter):
    """Plain dual coordinate descent: every example, in index order, every epoch."""
    x, y = stacked(pos, neg)
    x = np.hstack([x, np.ones((len(y), 1))])
    q = (x * x).sum(axis=1)
    alpha = np.zeros(len(y))
    w = np.zeros(x.shape[1])
    for _ in range(max_iter):
        for i in range(len(y)):
            g = y[i] * (x[i] @ w) - 1.0
            a_new = min(max(alpha[i] - g / q[i], 0.0), c)
            w += (a_new - alpha[i]) * y[i] * x[i]
            alpha[i] = a_new
        hinge = np.clip(1.0 - y * (x @ w), 0.0, None).sum()
        gap = max(0.5 * (w @ w) + c * hinge - (alpha.sum() - 0.5 * (w @ w)), 0.0)
        if gap <= tol:
            break
    return w, gap


@pytest.mark.parametrize("c", [1.0, 1e-2])
def test_newton_reaches_the_reference_optimum(c):
    # the primal is 1-strongly convex in [w, b], so any iterate with duality
    # gap g lies within sqrt(2 g) of the unique optimum
    pos, neg = _blobs(n_per_side=100)
    model = train_svm(*stacked(pos, neg), c=c, tol=1e-9, max_iter=2000)
    w_ref, gap_ref = _reference_dual_cd(pos, neg, c, tol=1e-9, max_iter=2000)
    dist = np.linalg.norm(np.append(model.weights, model.bias) - w_ref)
    assert dist <= np.sqrt(2.0 * model.duality_gap) + np.sqrt(2.0 * gap_ref)


def test_repeat_fit_is_bit_identical():
    pos, neg = _blobs(n_per_side=100)
    a = train_svm(*stacked(pos, neg), c=1.0, tol=1e-6, max_iter=200)
    b = train_svm(*stacked(pos, neg), c=1.0, tol=1e-6, max_iter=200)
    assert np.array_equal(a.weights, b.weights) and a.bias == b.bias
    assert np.array_equal(a.alphas, b.alphas)
    assert a.iterations == b.iterations


def test_stop_at_max_iter_reports_full_set_gap():
    pos, neg = _blobs(n_per_side=100)
    model = train_svm(*stacked(pos, neg), c=1.0, tol=1e-6, max_iter=3)
    assert not model.converged
    assert model.iterations == 3
    assert model.duality_gap == pytest.approx(_slackness_residual(pos, neg, model), abs=1e-8)


def test_label_swap_negates_exactly():
    x, y = stacked(*_blobs(n_per_side=60))
    a = train_svm(x, y, c=0.5, tol=1e-8, max_iter=300)
    b = train_svm(x, -y, c=0.5, tol=1e-8, max_iter=300)
    assert np.array_equal(a.weights, -b.weights)
    assert a.bias == -b.bias
    assert a.duality_gap == b.duality_gap


def test_separable_large_c_drives_hinge_to_zero():
    x, y = stacked(*_blobs(n_per_side=50, half_gap=4.0))  # wide gap: cleanly separable
    model = train_svm(x, y, c=100.0, tol=1e-6, max_iter=3000)
    assert _hinge(x, y, model) < 1e-8


def test_small_c_limit_matches_centroid_direction(world42):
    # balanced classes, C -> 0: all alphas saturate at C, so w is proportional
    # to the difference of class sums; with equal class sizes that is the
    # centroid difference
    ds = lb.sample_world(world42, 20_000, seed=5)
    table = lb.build_contingency(ds)
    res = lb.balanced_subsample(ds, table, lb.SamplePlan(1000, "skip", 5))
    sub = ds.select(res.indices)
    for j in range(4):
        pos, neg = lb.split_by_attribute(sub, j)
        k = min(pos.n, neg.n)
        centroid = lb.centroid_direction(pos.codes[:k], neg.codes[:k], j)
        svm_dir = lb.svm_direction(*stacked(pos.codes[:k], neg.codes[:k]), j,
                                   c=1e-6, tol=1e-9, max_iter=50)
        assert float(centroid.vector @ svm_dir.vector) >= 0.999


def test_unbalanced_small_c_fit_certifies_within_fifty_steps(world42):
    # 4000 rows with the world's skewed rates (attr3 is about 20% positive):
    # the near-margin set is large at the first stages, so the certificate
    # must come from the smoothing's own dual point, not a big solve
    ds = lb.sample_world(world42, 4000, seed=13)
    for j in range(ds.m):
        pos, neg = lb.split_by_attribute(ds, j)
        model = train_svm(*stacked(pos.codes, neg.codes), c=0.01, tol=1e-3, max_iter=50)
        assert model.converged and model.duality_gap <= 1e-3
        assert model.iterations <= 50


@pytest.mark.filterwarnings("error")
def test_zero_tol_stops_at_exactly_max_iter():
    # tol 0 is unreachable here: h reaches its floor and every later stage
    # still takes a step, so the loop ends on the step cap with no overflow
    pos, neg = _blobs(n_per_side=60)
    with np.errstate(all="raise"):
        model = train_svm(*stacked(pos, neg), c=1.0, tol=0.0, max_iter=120)
    assert model.iterations == 120
    assert not model.converged
    assert 0.0 < model.duality_gap < 1e-9 and np.isfinite(model.duality_gap)


def test_returned_gap_is_the_smallest_certificate_gap(solver_log):
    pos, neg = _blobs(n_per_side=60)
    model = train_svm(*stacked(pos, neg), c=1.0, tol=0.0, max_iter=120)
    gaps = [gap for _, _, gap, _, _ in solver_log["certs"]]
    assert model.duality_gap == min(gaps)
    # here the last stage, cut short by max_iter, certifies far worse than the best
    assert gaps[-1] > 1e6 * model.duality_gap


def test_max_iter_zero_returns_the_start_certificate(solver_log):
    # no Newton step: the start point v = 0 gives alpha = C everywhere, so
    # w = C * (sum of positives - sum of negatives), bias included
    pos, neg = _blobs(n_per_side=50)
    model = train_svm(*stacked(pos, neg), c=0.5, tol=1e-6, max_iter=0)
    assert model.iterations == 0 and not model.converged
    assert np.all(model.alphas == 0.5)
    assert np.allclose(model.weights, 0.5 * (pos.sum(axis=0) - neg.sum(axis=0)))
    assert model.bias == pytest.approx(0.0, abs=1e-12)
    assert solver_log["stages"] == [] and len(solver_log["certs"]) == 1
    assert model.duality_gap == pytest.approx(_slackness_residual(pos, neg, model), rel=1e-9)


def test_max_iter_one_takes_one_step(solver_log):
    pos, neg = _blobs(n_per_side=50)
    start = train_svm(*stacked(pos, neg), c=0.5, tol=1e-6, max_iter=0)
    model = train_svm(*stacked(pos, neg), c=0.5, tol=1e-6, max_iter=1)
    assert model.iterations == 1 and not model.converged
    assert [len(stage) for stage in solver_log["stages"]] == [2]
    assert model.duality_gap < start.duality_gap
    assert model.duality_gap == pytest.approx(_slackness_residual(pos, neg, model), rel=1e-9)


@pytest.mark.parametrize("pos,neg,err", [
    (np.empty((0, 2)), np.array([[1.0, 2.0]]), "non-empty"),
    (np.array([[1.0, 2.0]]), np.empty((0, 2)), "non-empty"),
])
def test_input_validation(pos, neg, err):
    with pytest.raises(ValueError, match=err):
        train_svm(*stacked(pos, neg))


@pytest.mark.parametrize("y", [[1.0, -1.0], [[1.0], [-1.0], [1.0]], [1.0, 0.0, -1.0],
                               [1.0, -1.0, np.nan], [2.0, -1.0, -1.0]],
                         ids=["short", "column", "zero", "nan", "two"])
def test_labels_must_be_plus_or_minus_one_per_row(y):
    with pytest.raises(ValueError, match=r"^labels must be a \(3,\) array of \+1 and -1$"):
        train_svm(np.eye(3), y)


def test_c_must_be_positive():
    x = np.array([[1.0]])
    with pytest.raises(ValueError, match="positive"):
        train_svm(*stacked(x, -x), c=0.0)


@pytest.mark.parametrize("kwargs,err", [
    ({"c": float("nan")}, "C must"), ({"c": float("inf")}, "C must"),
    ({"tol": float("nan")}, "tol must"), ({"tol": float("inf")}, "tol must"),
    ({"tol": -1.0}, "tol must"),
], ids=["c-nan", "c-inf", "tol-nan", "tol-inf", "tol-negative"])
def test_non_finite_c_or_tol_rejected(kwargs, err):
    x = np.array([[1.0]])
    with pytest.raises(ValueError, match=err):
        train_svm(*stacked(x, -x), **kwargs)


@pytest.mark.parametrize("kwargs,message", [
    ({"c": True}, "C must be a finite positive number, got True"),
    ({"c": "1"}, "C must be a finite positive number, got '1'"),
    ({"tol": None}, "tol must be a finite number, got None"),
    ({"max_iter": -1}, "max_iter must be >= 0, got -1"),
    ({"max_iter": 2.5}, "max_iter must be an integer, got 2.5"),
], ids=["c-bool", "c-str", "tol-none", "max_iter-negative", "max_iter-fraction"])
def test_bad_scalar_settings_named(kwargs, message):
    # max_iter=-1 used to take 0 steps and 2.5 to escape as a TypeError
    x = np.array([[1.0]])
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        train_svm(*stacked(x, -x), **kwargs)


def test_c_is_kept_as_the_checked_float():
    x = np.array([[1.0]])
    model = train_svm(*stacked(x, -x), c=np.float32(0.5))
    assert type(model.c) is float and model.c == 0.5


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_a_non_finite_row_is_refused_before_the_solve(value, solver_log):
    # NaN used to come back as NaN weights with no error, and an infinity as
    # a numerically unstable C
    x = normals(derive_seed(5, 103), 60).reshape(20, 3)
    x[3, 1] = value
    y = np.where(np.arange(20) % 2 == 0, 1.0, -1.0)
    with pytest.raises(ValueError, match=r"^x row 3: non-finite component$"):
        train_svm(x, y)
    with pytest.raises(ValueError, match=r"^attribute 1: x row 3: non-finite component$"):
        lb.svm_direction(x, y, 1)
    assert solver_log["certs"] == []


@pytest.mark.parametrize("c,cause", [(1e12, "Singular matrix"),
                                     (1e300, "overflow encountered in matmul")])
def test_huge_c_is_a_value_error_naming_c_without_warnings(c, cause):
    # the Newton system I + C/(2h) Zq^T Zq goes singular, or the arithmetic
    # overflows; pytest turns any RuntimeWarning into an error
    pos, neg = _blobs(50, 8)
    message = f"SVM at C = {c:g} is numerically unstable ({cause}); try a smaller C"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        train_svm(*stacked(pos, neg), c=c)
