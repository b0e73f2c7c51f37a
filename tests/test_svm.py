import numpy as np
import pytest

import latbal as lb
from latbal.rng import derive_seed, normals
from latbal.svm import canonical_order, train_svm


def _blobs(n_per_side=500, d=64, half_gap=2.0, seed=7):
    """Two Gaussian blobs at +-mu with ||2 mu|| = 2 * half_gap * ... fixed geometry."""
    mu = np.full(d, half_gap / np.sqrt(d))
    z = normals(derive_seed(seed, 103), 2 * n_per_side * d).reshape(2 * n_per_side, d)
    return z[:n_per_side] + mu, z[n_per_side:] - mu


@pytest.fixture(scope="module")
def blobs_model():
    pos, neg = _blobs()
    return pos, neg, train_svm(pos, neg, c=1.0, tol=1e-4, max_iter=1000)


def test_symmetric_separable_case():
    pos = np.array([[1.0, 0.0], [1.0, 1.0]])
    neg = np.array([[-1.0, 0.0], [-1.0, 1.0]])
    model = train_svm(pos, neg, c=1.0, tol=1e-8, max_iter=2000)
    w = model.weights / np.linalg.norm(model.weights)
    assert np.allclose(w, [1.0, 0.0], atol=1e-6)
    assert abs(model.bias) < 1e-6
    assert model.hinge_loss < 1e-9
    assert model.converged


def test_degenerate_identical_point_both_classes():
    point = np.array([[1.0, 2.0]])
    model = train_svm(point, point, c=1.0, tol=1e-8, max_iter=100)
    assert np.linalg.norm(model.weights) < 1e-9
    assert model.hinge_loss >= 1.0  # non-separable shows up as residual hinge loss
    assert model.converged


def test_blob_training_accuracy(blobs_model):
    # means +-mu with ||2 mu|| = 4: Bayes accuracy Phi(2) ~ 0.977
    pos, neg, model = blobs_model
    x = np.vstack([pos, neg])
    y = np.concatenate([np.ones(len(pos)), -np.ones(len(neg))])
    accuracy = (np.sign(model.decision(x)) == y).mean()
    assert accuracy >= 0.97


def _slackness_residual(pos, neg, model):
    x_raw = np.vstack([pos, neg])
    y_raw = np.concatenate([np.ones(len(pos)), -np.ones(len(neg))])
    order = canonical_order(x_raw, y_raw)
    f = model.decision(x_raw[order])
    y = y_raw[order]
    s = y * f - 1.0
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
    model = train_svm(pos, neg, c=1.0, tol=1e-6, max_iter=4000)
    assert model.converged
    assert np.all(model.alphas >= 0.0) and np.all(model.alphas <= model.c)
    assert _slackness_residual(pos, neg, model) <= 1e-6 + 1e-9


def test_duality_gap_certifies_convergence():
    pos, neg = _blobs(n_per_side=150)
    model = train_svm(pos, neg, c=1.0, tol=1e-6, max_iter=4000)
    assert model.converged
    assert model.duality_gap <= 1e-6
    # weak duality throughout
    assert all(p >= d - 1e-9 for p, d in zip(model.objective_history, model.dual_history))


def test_stage_iterates_obey_weak_duality_and_descent(blobs_model):
    # every certificate is a feasible dual point, so its dual objective is at
    # most the primal at its own w; within a stage the Armijo condition (or an
    # exact minimiser) makes the smoothed primal non-increasing step by step
    _, _, model = blobs_model
    assert len(model.objective_history) == len(model.dual_history) == \
        len(model.smoothed_history) + 1
    for primal, dual in zip(model.objective_history, model.dual_history):
        assert primal >= dual - 1e-9 * max(1.0, abs(primal))
    for stage in model.smoothed_history:
        f = np.array(stage)
        assert f.size >= 2  # every stage takes at least one step
        assert np.all(np.diff(f) <= 1e-12 * max(1.0, np.abs(f).max()))


def _reference_dual_cd(pos, neg, c, tol, max_iter):
    """Plain dual coordinate descent: every example, in index order, every epoch."""
    x = np.hstack([np.vstack([pos, neg]), np.ones((len(pos) + len(neg), 1))])
    y = np.concatenate([np.ones(len(pos)), -np.ones(len(neg))])
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
    model = train_svm(pos, neg, c=c, tol=1e-9, max_iter=2000)
    w_ref, gap_ref = _reference_dual_cd(pos, neg, c, tol=1e-9, max_iter=2000)
    dist = np.linalg.norm(np.append(model.weights, model.bias) - w_ref)
    assert dist <= np.sqrt(2.0 * model.duality_gap) + np.sqrt(2.0 * gap_ref)


def test_repeat_fit_is_bit_identical():
    pos, neg = _blobs(n_per_side=100)
    a = train_svm(pos, neg, c=1.0, tol=1e-6, max_iter=200)
    b = train_svm(pos, neg, c=1.0, tol=1e-6, max_iter=200)
    assert np.array_equal(a.weights, b.weights) and a.bias == b.bias
    assert np.array_equal(a.alphas, b.alphas)
    assert a.iterations == b.iterations


def test_stop_at_max_iter_reports_full_set_gap():
    pos, neg = _blobs(n_per_side=100)
    model = train_svm(pos, neg, c=1.0, tol=1e-6, max_iter=3)
    assert not model.converged
    assert model.iterations == 3
    assert model.duality_gap == pytest.approx(_slackness_residual(pos, neg, model), abs=1e-8)


def test_label_swap_negates_exactly():
    pos, neg = _blobs(n_per_side=60)
    a = train_svm(pos, neg, c=0.5, tol=1e-8, max_iter=300)
    b = train_svm(neg, pos, c=0.5, tol=1e-8, max_iter=300)
    assert np.array_equal(a.weights, -b.weights)
    assert a.bias == -b.bias
    assert a.duality_gap == b.duality_gap


def test_fit_is_order_independent():
    pos, neg = _blobs(n_per_side=40)
    a = train_svm(pos, neg, c=1.0, tol=1e-8, max_iter=300)
    b = train_svm(pos[::-1], neg[::-1], c=1.0, tol=1e-8, max_iter=300)
    assert np.array_equal(a.weights, b.weights)
    assert a.bias == b.bias


def test_separable_large_c_drives_hinge_to_zero():
    pos, neg = _blobs(n_per_side=50, half_gap=4.0)  # wide gap: cleanly separable
    model = train_svm(pos, neg, c=100.0, tol=1e-6, max_iter=3000)
    assert model.hinge_loss < 1e-8


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
        svm_dir = lb.svm_direction(pos.codes[:k], neg.codes[:k], j,
                                   c=1e-6, tol=1e-9, max_iter=50)
        assert float(centroid.vector @ svm_dir.vector) >= 0.999


def test_unbalanced_small_c_fit_certifies_within_fifty_steps(world42):
    # 4000 rows with the world's skewed rates (attr3 is about 20% positive):
    # the near-margin set is large at the first stages, so the certificate
    # must come from the smoothing's own dual point, not a big solve
    ds = lb.sample_world(world42, 4000, seed=13)
    for j in range(ds.m):
        pos, neg = lb.split_by_attribute(ds, j)
        model = train_svm(pos.codes, neg.codes, c=0.01, tol=1e-3, max_iter=50)
        assert model.converged and model.duality_gap <= 1e-3
        assert model.iterations <= 50


@pytest.mark.filterwarnings("error")
def test_zero_tol_stops_at_exactly_max_iter():
    # tol 0 is unreachable here: h reaches its floor and every later stage
    # still takes a step, so the loop ends on the step cap with no overflow
    pos, neg = _blobs(n_per_side=60)
    with np.errstate(all="raise"):
        model = train_svm(pos, neg, c=1.0, tol=0.0, max_iter=120)
    assert model.iterations == 120
    assert not model.converged
    assert 0.0 < model.duality_gap < 1e-9 and np.isfinite(model.duality_gap)


def test_returned_gap_is_the_smallest_certificate_gap():
    pos, neg = _blobs(n_per_side=60)
    model = train_svm(pos, neg, c=1.0, tol=0.0, max_iter=120)
    gaps = [max(p - d, 0.0) for p, d in zip(model.objective_history, model.dual_history)]
    assert model.duality_gap == min(gaps)
    # here the last stage, cut short by max_iter, certifies far worse than the best
    assert gaps[-1] > 1e6 * model.duality_gap


def test_max_iter_zero_returns_the_start_certificate():
    # no Newton step: the start point v = 0 gives alpha = C everywhere, so
    # w = C * (sum of positives - sum of negatives), bias included
    pos, neg = _blobs(n_per_side=50)
    model = train_svm(pos, neg, c=0.5, tol=1e-6, max_iter=0)
    assert model.iterations == 0 and not model.converged
    assert np.all(model.alphas == 0.5)
    assert np.allclose(model.weights, 0.5 * (pos.sum(axis=0) - neg.sum(axis=0)))
    assert model.bias == pytest.approx(0.0, abs=1e-12)
    assert model.smoothed_history == []
    assert model.duality_gap == pytest.approx(_slackness_residual(pos, neg, model), rel=1e-9)


def test_max_iter_one_takes_one_step():
    pos, neg = _blobs(n_per_side=50)
    start = train_svm(pos, neg, c=0.5, tol=1e-6, max_iter=0)
    model = train_svm(pos, neg, c=0.5, tol=1e-6, max_iter=1)
    assert model.iterations == 1 and not model.converged
    assert [len(stage) for stage in model.smoothed_history] == [2]
    assert model.duality_gap < start.duality_gap
    assert model.duality_gap == pytest.approx(_slackness_residual(pos, neg, model), rel=1e-9)


@pytest.mark.parametrize("pos,neg,err", [
    (np.empty((0, 2)), np.array([[1.0, 2.0]]), "non-empty"),
    (np.array([[1.0, 2.0]]), np.empty((0, 2)), "non-empty"),
    (np.array([[1.0, 2.0]]), np.array([[1.0, 2.0, 3.0]]), "dimension"),
])
def test_input_validation(pos, neg, err):
    with pytest.raises(ValueError, match=err):
        train_svm(pos, neg)


def test_c_must_be_positive():
    x = np.array([[1.0]])
    with pytest.raises(ValueError, match="positive"):
        train_svm(x, -x, c=0.0)
