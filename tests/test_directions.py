import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import latbal as lb
from latbal.directions import (direction_from_dict, direction_to_dict,
                               orthonormal_basis)
from latbal.rng import derive_seed, normals
from latbal.svm import train_svm

from conftest import stacked


def _unit(v):
    v = np.asarray(v, dtype=np.float64)
    return v / np.linalg.norm(v)


def _random_direction(seed, d=8, attribute=0):
    return lb.SemanticDirection(attribute=attribute, vector=_unit(normals(seed, d)),
                                method="centroid")


class TestCentroidDirection:
    def test_collinear_means(self):
        u = lb.centroid_direction([[1.0, 0.0], [3.0, 0.0]], [[0.0, 0.0]], 0)
        assert np.allclose(u.vector, [1.0, 0.0], atol=1e-15)
        assert u.method == "centroid"
        assert u.meta["n_pos"] == 2 and u.meta["n_neg"] == 1

    def test_mirrored_classes(self):
        pos = [[1.0, 1.0], [3.0, 3.0]]          # mean (2, 2)
        neg = [[-1.0, -1.0], [-3.0, -3.0]]      # mean (-2, -2)
        u = lb.centroid_direction(pos, neg, 1)
        assert np.allclose(u.vector, [1 / math.sqrt(2)] * 2, atol=1e-15)

    def test_planted_halfspace_recovery(self):
        # labels = sign(<v, z>), z standard Gaussian in d=64, 500 per class.
        # E[z | <v,z> > 0] - E[z | <v,z> < 0] = 2 sqrt(2/pi) v; at 500/side the
        # orthogonal noise gives E[cos] ~ 0.954 with sd ~ 0.008, so 0.93 is a
        # 3-sigma floor.
        d = 64
        v = _unit(normals(derive_seed(42, 101), d))
        z = normals(derive_seed(42, 102), 3000 * d).reshape(3000, d)
        s = z @ v
        pos, neg = z[s > 0][:500], z[s <= 0][:500]
        u = lb.centroid_direction(pos, neg, 0)
        assert float(u.vector @ v) >= 0.93

    def test_zero_difference_rejected(self):
        pts = [[1.0, 2.0], [3.0, 4.0]]
        with pytest.raises(ValueError, match="coincide"):
            lb.centroid_direction(pts, pts, 0)

    def test_empty_class_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            lb.centroid_direction(np.empty((0, 2)), [[1.0, 2.0]], 0)

    def test_classes_of_different_widths_rejected(self):
        with pytest.raises(ValueError, match=r"^dimension mismatch: pos d=3, neg d=2$"):
            lb.centroid_direction([[1.0, 2.0, 3.0]], [[1.0, 2.0]], 0)

    def test_translation_equivariance(self):
        pos = normals(1, 40).reshape(10, 4)
        neg = normals(2, 40).reshape(10, 4)
        shift = normals(3, 4) * 100.0
        u1 = lb.centroid_direction(pos, neg, 0)
        u2 = lb.centroid_direction(pos + shift, neg + shift, 0)
        assert np.allclose(u1.vector, u2.vector, atol=1e-12)

    def test_duplicating_a_class_changes_nothing(self):
        pos = normals(4, 20).reshape(5, 4)
        neg = normals(5, 20).reshape(5, 4)
        u1 = lb.centroid_direction(pos, neg, 0)
        u2 = lb.centroid_direction(np.vstack([pos, pos]), neg, 0)
        assert np.allclose(u1.vector, u2.vector, atol=1e-12)

    def test_permutation_invariance(self):
        pos = normals(6, 20).reshape(5, 4)
        neg = normals(7, 20).reshape(5, 4)
        u1 = lb.centroid_direction(pos, neg, 0)
        u2 = lb.centroid_direction(pos[::-1], neg[[3, 1, 4, 0, 2]], 0)
        assert np.allclose(u1.vector, u2.vector, atol=1e-12)


class TestSvmDirection:
    def test_symmetric_separable(self):
        pos = [[1.0, 0.0], [1.0, 1.0]]
        neg = [[-1.0, 0.0], [-1.0, 1.0]]
        u = lb.svm_direction(*stacked(pos, neg), 0, tol=1e-8, max_iter=2000)
        assert np.allclose(u.vector, [1.0, 0.0], atol=1e-6)
        assert u.meta["converged"]

    def test_orientation_cancels_internal_label_flip(self):
        # training with flipped labels negates w; re-anchoring to the positive
        # class centroid restores the identical direction
        pos = normals(8, 120).reshape(30, 4) + np.array([1.0, 0, 0, 0])
        neg = normals(9, 120).reshape(30, 4) - np.array([1.0, 0, 0, 0])
        x, y = stacked(pos, neg)
        w_fwd = train_svm(x, y, c=1.0, tol=1e-8, max_iter=500).weights
        w_rev = train_svm(x, -y, c=1.0, tol=1e-8, max_iter=500).weights
        assert np.array_equal(w_rev, -w_fwd)
        diff = pos.mean(axis=0) - neg.mean(axis=0)

        def orient(w):
            u = w / np.linalg.norm(w)
            return u if diff @ u >= 0 else -u

        assert np.array_equal(orient(w_fwd), orient(w_rev))
        assert np.array_equal(lb.svm_direction(x, y, 0, tol=1e-8, max_iter=500).vector,
                              orient(w_fwd))

    def test_positive_class_is_on_positive_side(self):
        pos = normals(10, 80).reshape(20, 4) + 2.0
        neg = normals(11, 80).reshape(20, 4) - 2.0
        u = lb.svm_direction(*stacked(pos, neg), 0)
        assert (pos.mean(axis=0) - neg.mean(axis=0)) @ u.vector > 0

    def test_weights_toward_the_negative_class_are_flipped(self):
        # with no Newton step the weights stay at their start, (8, 0), which
        # points at the one negative row: the direction must turn round
        pos, neg = [[1.0, 0.0]] * 10, [[2.0, 0.0]]
        x, y = stacked(pos, neg)
        assert np.array_equal(train_svm(x, y, max_iter=0).weights, [8.0, 0.0])
        u = lb.svm_direction(x, y, 0, max_iter=0)
        assert np.array_equal(u.vector, [-1.0, 0.0])
        assert (np.mean(pos, axis=0) - np.mean(neg, axis=0)) @ u.vector == 1.0

    def test_small_c_approaches_centroid(self, world42):
        ds = lb.sample_world(world42, 5000, seed=11)
        pos, neg = lb.split_by_attribute(ds, 0)
        k = min(pos.n, neg.n)
        centroid = lb.centroid_direction(pos.codes[:k], neg.codes[:k], 0)
        svm_u = lb.svm_direction(*stacked(pos.codes[:k], neg.codes[:k]), 0,
                                 c=1e-6, tol=1e-9, max_iter=50)
        assert float(centroid.vector @ svm_u.vector) >= 0.999


@pytest.mark.parametrize("fit,message", [
    (lambda: lb.centroid_direction([[1.0, 2.0]], [[1.0, 2.0]], 2),
     "class centroids coincide; no direction defined"),
    (lambda: lb.svm_direction(*stacked([[1.0, 2.0]], [[1.0, 2.0]]), 2),
     "SVM weight vector is numerically zero; no direction defined"),
    (lambda: lb.svm_direction(*stacked([[1.0, 2.0]], [[3.0, -1.0]]), 2, c=1e300),
     r"SVM at C = 1e\+300 is numerically unstable"),
], ids=["centroids-coincide", "svm-zero-weights", "svm-huge-c"])
def test_direction_errors_name_their_attribute(fit, message):
    with pytest.raises(ValueError, match=rf"^attribute 2: {message}"):
        fit()


class TestConditionalProject:
    def test_two_dimensional_example(self):
        target = lb.SemanticDirection(0, _unit([1.0, 1.0]), "centroid")
        other = lb.SemanticDirection(1, np.array([0.0, 1.0]), "centroid")
        proj = lb.conditional_project(target, [other])
        assert np.allclose(proj.vector, [1.0, 0.0], atol=1e-15)
        assert proj.method == "conditional"
        assert proj.meta["parents"] == [1]

    def test_already_orthogonal_is_fixed_point(self):
        target = lb.SemanticDirection(0, np.array([1.0, 0.0, 0.0]), "centroid")
        other = lb.SemanticDirection(1, np.array([0.0, 1.0, 0.0]), "centroid")
        proj = lb.conditional_project(target, [other])
        assert float(proj.vector @ target.vector) >= 1.0 - 1e-12

    def test_degenerate_when_target_in_span(self):
        u = lb.SemanticDirection(0, np.array([1.0, 0.0]), "centroid")
        v = lb.SemanticDirection(1, np.array([1.0, 0.0]), "svm")
        with pytest.raises(ValueError, match="span"):
            lb.conditional_project(u, [v])

    def test_orthogonality_versus_many_parents(self):
        d = 512
        others = [_random_direction(100 + k, d=d, attribute=k + 1) for k in range(19)]
        target = _random_direction(99, d=d)
        proj = lb.conditional_project(target, others)
        for other in others:
            assert abs(float(proj.vector @ other.vector)) <= 1e-10

    def test_idempotent(self):
        others = [_random_direction(200 + k, d=32, attribute=k + 1) for k in range(5)]
        target = _random_direction(199, d=32)
        once = lb.conditional_project(target, others)
        twice = lb.conditional_project(once, others)
        assert np.allclose(once.vector, twice.vector, atol=1e-12)

    def test_requires_others(self):
        with pytest.raises(ValueError, match="other"):
            lb.conditional_project(_random_direction(1), [])


class TestEditLatent:
    def test_zero_alpha_is_identity(self):
        z = normals(13, 8)
        u = _random_direction(14)
        assert np.array_equal(lb.edit_latent(z, u, 0.0), z)

    def test_step_length_from_origin(self):
        u = _random_direction(15)
        edited = lb.edit_latent(np.zeros(8), u, 0.2)
        assert np.linalg.norm(edited) == pytest.approx(0.2, abs=1e-15)

    @given(seed=st.integers(0, 2**32), alpha=st.floats(-5, 5, allow_nan=False))
    @settings(max_examples=50, deadline=None)
    def test_edit_then_inverse_restores(self, seed, alpha):
        z = normals(seed, 8)
        u = _random_direction(seed ^ 0xABCDEF)
        back = lb.edit_latent(lb.edit_latent(z, u, alpha), u, -alpha)
        assert np.allclose(back, z, atol=1e-12)

    def test_batch_edit(self):
        z = normals(16, 24).reshape(3, 8)
        u = _random_direction(17)
        edited = lb.edit_latent(z, u, 0.5)
        assert edited.shape == z.shape
        assert np.allclose(edited - z, 0.5 * u.vector, atol=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            lb.edit_latent(np.zeros(4), _random_direction(18, d=8), 1.0)

    @pytest.mark.parametrize("alpha", [float("nan"), -float("inf"), True, "0.2", None])
    def test_alpha_must_be_a_finite_number(self, alpha):
        # True used to step by 1, and NaN to return NaN codes
        with pytest.raises(ValueError,
                           match=f"^alpha must be a finite number, got {re.escape(repr(alpha))}$"):
            lb.edit_latent(np.zeros(8), _random_direction(21), alpha)

    def test_input_untouched(self):
        z = normals(19, 8)
        snapshot = z.copy()
        lb.edit_latent(z, _random_direction(20), 1.0)
        assert np.array_equal(z, snapshot)


def test_orthonormal_basis_drops_dependent_rows():
    rows = np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    basis = orthonormal_basis(rows)
    assert basis.shape == (2, 3)
    assert np.allclose(basis @ basis.T, np.eye(2), atol=1e-12)


@pytest.mark.parametrize("rows", [[[0.0, 0.0]], np.zeros((3, 2))], ids=["list", "array"])
def test_orthonormal_basis_of_only_zero_rows_is_empty_with_their_width(rows):
    assert orthonormal_basis(rows).shape == (0, 2)


def test_direction_json_roundtrip_is_bit_exact(tmp_path):
    u = _random_direction(40, d=512)
    path = str(tmp_path / "dir.json")
    lb.save_direction(u, path)
    loaded = lb.load_direction(path)
    assert np.array_equal(loaded.vector, u.vector)
    assert loaded.attribute == u.attribute and loaded.method == u.method


@pytest.mark.parametrize("attribute", [True, np.True_, 0.5, 1.0, "0", None],
                         ids=["bool", "numpy-bool", "fraction", "whole-float", "str", "none"])
def test_direction_refuses_an_attribute_its_reader_would_refuse(attribute):
    # True used to save a file that load_direction refused, and 0.5 was kept
    with pytest.raises(ValueError, match=f"^direction attribute must be an integer, "
                                         f"got {re.escape(repr(attribute))}$"):
        lb.SemanticDirection(attribute=attribute, vector=[1.0, 0.0], method="centroid")


def test_numpy_integer_attribute_round_trips_as_int(tmp_path):
    # np.int64 used to make save_direction raise TypeError (not JSON serializable)
    u = lb.SemanticDirection(attribute=np.int64(2), vector=[0.6, 0.8], method="centroid")
    assert type(u.attribute) is int and u.attribute == 2
    path = str(tmp_path / "dir.json")
    lb.save_direction(u, path)
    loaded = lb.load_direction(path)
    assert loaded.attribute == 2 and np.array_equal(loaded.vector, u.vector)


def test_direction_dict_schema_version_checked():
    u = _random_direction(41)
    obj = direction_to_dict(u)
    obj["schema_version"] = 99
    with pytest.raises(ValueError, match="schema_version"):
        direction_from_dict(obj)
