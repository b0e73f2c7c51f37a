import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import latbal as lb
from latbal.directions import (direction_from_dict, direction_to_dict,
                               orthonormal_basis)
from latbal.rng import derive_seed, normals
from latbal.svm import train_svm


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
        u = lb.svm_direction(pos, neg, 0, tol=1e-8, max_iter=2000)
        assert np.allclose(u.vector, [1.0, 0.0], atol=1e-6)
        assert u.meta["converged"]

    def test_orientation_cancels_internal_label_flip(self):
        # training with flipped labels negates w; re-anchoring to the positive
        # class centroid restores the identical direction
        pos = normals(8, 120).reshape(30, 4) + np.array([1.0, 0, 0, 0])
        neg = normals(9, 120).reshape(30, 4) - np.array([1.0, 0, 0, 0])
        w_fwd = train_svm(pos, neg, c=1.0, tol=1e-8, max_iter=500).weights
        w_rev = train_svm(neg, pos, c=1.0, tol=1e-8, max_iter=500).weights
        assert np.array_equal(w_rev, -w_fwd)
        diff = pos.mean(axis=0) - neg.mean(axis=0)

        def orient(w):
            u = w / np.linalg.norm(w)
            return u if diff @ u >= 0 else -u

        assert np.array_equal(orient(w_fwd), orient(w_rev))
        assert np.array_equal(lb.svm_direction(pos, neg, 0, tol=1e-8, max_iter=500).vector,
                              orient(w_fwd))

    def test_positive_class_is_on_positive_side(self):
        pos = normals(10, 80).reshape(20, 4) + 2.0
        neg = normals(11, 80).reshape(20, 4) - 2.0
        u = lb.svm_direction(pos, neg, 0)
        assert (pos.mean(axis=0) - neg.mean(axis=0)) @ u.vector > 0

    def test_small_c_approaches_centroid(self, world42):
        ds = lb.sample_world(world42, 5000, seed=11)
        pos, neg = lb.split_by_attribute(ds, 0)
        k = min(pos.n, neg.n)
        centroid = lb.centroid_direction(pos.codes[:k], neg.codes[:k], 0)
        svm_u = lb.svm_direction(pos.codes[:k], neg.codes[:k], 0, c=1e-6, tol=1e-9, max_iter=50)
        assert float(centroid.vector @ svm_u.vector) >= 0.999


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

    def test_input_untouched(self):
        z = normals(19, 8)
        snapshot = z.copy()
        lb.edit_latent(z, _random_direction(20), 1.0)
        assert np.array_equal(z, snapshot)


class TestCosineMatrix:
    def test_identical_directions(self):
        u = _random_direction(21)
        mat = lb.cosine_matrix([u, u])
        assert mat[0, 1] == pytest.approx(1.0, abs=1e-12)

    def test_canonical_basis(self):
        dirs = [lb.SemanticDirection(k, np.eye(4)[k], "centroid") for k in range(4)]
        assert np.allclose(lb.cosine_matrix(dirs), np.eye(4), atol=1e-15)

    def test_diagonal_is_one(self):
        dirs = [_random_direction(30 + k, d=16, attribute=k) for k in range(5)]
        mat = lb.cosine_matrix(dirs)
        assert np.allclose(np.diag(mat), 1.0, atol=1e-12)
        assert np.allclose(mat, mat.T, atol=1e-15)


def test_orthonormal_basis_drops_dependent_rows():
    rows = np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    basis = orthonormal_basis(rows)
    assert basis.shape == (2, 3)
    assert np.allclose(basis @ basis.T, np.eye(2), atol=1e-12)


def test_direction_json_roundtrip_is_bit_exact(tmp_path):
    u = _random_direction(40, d=512)
    path = str(tmp_path / "dir.json")
    lb.save_direction(u, path)
    loaded = lb.load_direction(path)
    assert np.array_equal(loaded.vector, u.vector)
    assert loaded.attribute == u.attribute and loaded.method == u.method


def test_direction_dict_schema_version_checked():
    u = _random_direction(41)
    obj = direction_to_dict(u)
    obj["schema_version"] = 99
    with pytest.raises(ValueError, match="schema_version"):
        direction_from_dict(obj)
