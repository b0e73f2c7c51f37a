import json
import re
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import latbal as lb
import latbal.evaluation
from latbal.dataio import block_rows
from latbal.evaluation import (RescoreMatrix, rescore_to_csv, rescore_to_dict, save_rescore,
                               sweep_to_csv)
from latbal.rng import derive_seed, normals

from conftest import stacked, tiny_dataset, traced_peak


def _row_matrix(row):
    return RescoreMatrix(values=np.array([row]), alpha=0.2, n=2000,
                         direction_attributes=(0,))


def _unit(v):
    v = np.asarray(v, dtype=np.float64)
    return v / np.linalg.norm(v)


def _balanced_centroid_dirs(world, dataset, n0=1000, seed=42):
    table = lb.build_contingency(dataset)
    res = lb.balanced_subsample(dataset, table, lb.SamplePlan(n0, "skip", seed))
    return lb.fit_directions(dataset.select(res.indices), "centroid")


class TestRescore:
    def test_zero_alpha_gives_zero_matrix(self, world42):
        dirs = [lb.SemanticDirection(k, _unit(normals(60 + k, 64)), "centroid")
                for k in range(2)]
        latents = normals(61, 50 * 64).reshape(50, 64)
        matrix = lb.rescore(world42.score, dirs, latents, alpha=0.0)
        assert np.all(matrix.values == 0.0)

    def test_non_finite_latents_rejected_naming_the_first_row(self, world42):
        # NaN latents used to give an all-NaN matrix, read as measured
        dirs = [lb.SemanticDirection(0, _unit(normals(64, 64)), "centroid")]
        latents = normals(65, 10 * 64).reshape(10, 64)
        latents[7, 3], latents[4, 0] = np.nan, -np.inf
        with pytest.raises(ValueError, match="^latents row 4: non-finite component$"):
            lb.rescore(world42.score, dirs, latents, alpha=0.2)

    def test_numpy_alpha_is_saved_as_a_json_float(self, world42, tmp_path):
        # a float32 alpha used to be kept, and save_rescore then raised from
        # json after writing the CSV half of its pair
        dirs = [lb.SemanticDirection(0, _unit(normals(66, 64)), "centroid")]
        latents = normals(67, 20 * 64).reshape(20, 64)
        matrix = lb.rescore(world42.score, dirs, latents, np.float32(0.25))
        assert type(matrix.alpha) is float
        _, json_path = save_rescore(matrix, str(tmp_path / "r"), world42.names)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["r.csv", "r.json"]
        with open(json_path, encoding="utf-8") as f:
            assert json.load(f)["alpha"] == 0.25

    def test_orthogonal_direction_changes_nothing(self, world42):
        # a direction orthogonal to every planted vector shifts no logit
        from latbal.directions import orthonormal_basis
        basis = orthonormal_basis(world42.vectors)
        raw = normals(62, 64)
        for _ in range(2):
            for b in basis:
                raw -= (raw @ b) * b
        u = lb.SemanticDirection(0, _unit(raw), "centroid")
        latents = normals(63, 200 * 64).reshape(200, 64)
        matrix = lb.rescore(world42.score, [u], latents, alpha=0.2)
        assert np.abs(matrix.values).max() <= 1e-12

    def test_balanced_centroid_diagonal_dominates(self, world42, dataset100k):
        dirs = _balanced_centroid_dirs(world42, dataset100k)
        latents = normals(derive_seed(42, 31, 0), 2000 * 64).reshape(2000, 64)
        matrix = lb.rescore(world42.score, dirs, latents, alpha=0.2)
        for j in range(4):
            row = matrix.values[j]
            assert row[j] > 0
            off = np.abs(np.delete(row, j))
            assert row[j] > off.max()

    def test_convention_recorded(self, world42):
        dirs = [lb.SemanticDirection(0, _unit(normals(64, 64)), "centroid")]
        latents = normals(65, 10 * 64).reshape(10, 64)
        matrix = lb.rescore(world42.score, dirs, latents, 0.2)
        assert rescore_to_dict(matrix, world42.names)["convention"] == "edited_minus_original"
        assert matrix.n == 10 and matrix.alpha == 0.2

    def test_empty_latents_rejected(self, world42):
        dirs = [lb.SemanticDirection(0, _unit(normals(66, 64)), "centroid")]
        with pytest.raises(ValueError, match="non-empty"):
            lb.rescore(world42.score, dirs, np.empty((0, 64)), 0.2)

    def test_dimension_mismatch_rejected(self, world42):
        dirs = [lb.SemanticDirection(0, _unit(normals(67, 32)), "centroid")]
        with pytest.raises(ValueError, match="dimension"):
            lb.rescore(world42.score, dirs, np.zeros((5, 64)), 0.2)

    def test_no_directions_rejected(self, world42):
        with pytest.raises(ValueError, match="need at least one direction"):
            lb.rescore(world42.score, [], np.zeros((5, 64)), 0.2)

    def test_attribute_outside_the_scorer_rejected(self, world42):
        dirs = [lb.SemanticDirection(4, _unit(normals(68, 64)), "centroid")]
        with pytest.raises(ValueError,
                           match="direction attribute 4 is outside the scorer's 4 attributes"):
            lb.rescore(world42.score, dirs, np.zeros((5, 64)), 0.2)

    def test_reordered_rows_score_against_their_own_targets(self, world42, dataset20k):
        dirs = lb.fit_directions(dataset20k, "centroid")
        latents = normals(derive_seed(42, 31, 0), 2000 * 64).reshape(2000, 64)
        in_order = lb.rescore(world42.score, dirs, latents, alpha=0.2)
        reordered = lb.rescore(world42.score, [dirs[2], dirs[0]], latents, alpha=0.2)
        assert reordered.direction_attributes == (2, 0)
        for row, j in enumerate((2, 0)):
            assert lb.effect(reordered, row) == lb.effect(in_order, j) == in_order.values[j, j]
            assert (lb.overall_entanglement(reordered, row)
                    == lb.overall_entanglement(in_order, j))
        # the attr0 direction moves attr0 most; row 1 of the reordered matrix is its row
        assert lb.effect(reordered, 1) == max(reordered.values[1])
        lines = rescore_to_csv(reordered, world42.names).splitlines()
        assert [line.split(",")[:2] for line in lines[1:6:4]] == [["attr2", "attr0"],
                                                                ["attr0", "attr0"]]


def test_logit_domain_rescore_is_exact(world42):
    # with logit scores the matrix entry (j, k) equals kappa * alpha * <v_k, u_j>
    dirs = [lb.SemanticDirection(k, _unit(normals(70 + k, 64)), "centroid")
            for k in range(4)]
    latents = normals(74, 500 * 64).reshape(500, 64)
    alpha = 0.2
    matrix = lb.rescore(world42.logits, dirs, latents, alpha)
    expected = np.array([[world42.sharpness * alpha * (world42.vectors[k] @ u.vector)
                          for k in range(4)] for u in dirs])
    assert np.abs(matrix.values - expected).max() <= 1e-10


class TestEffectAndEntanglement:
    def test_effect_on_published_rows(self):
        assert lb.effect(_row_matrix([0.39, 0.34, -0.06, -0.29]), 0) == 0.39
        assert lb.effect(_row_matrix([0.63, 0.09, -0.07, -0.04]), 0) == 0.63
        assert lb.effect(_row_matrix([0.0, 0.0, 0.0, 0.0]), 0) == 0.0

    def test_entanglement_on_published_rows(self):
        m1 = _row_matrix([0.39, 0.34, -0.06, -0.29])
        assert lb.overall_entanglement(m1, 0) == pytest.approx(0.23, abs=1e-12)
        m2 = _row_matrix([0.32, 0.07, -0.05, -0.07])
        assert lb.overall_entanglement(m2, 0) == pytest.approx(0.19 / 3, abs=1e-12)

    def test_entanglement_ignores_sign(self):
        a = _row_matrix([0.5, 0.1, -0.2, 0.3])
        b = _row_matrix([0.5, -0.1, 0.2, -0.3])
        assert lb.overall_entanglement(a, 0) == lb.overall_entanglement(b, 0)

    def test_pure_effect_row_has_zero_entanglement(self):
        assert lb.overall_entanglement(_row_matrix([0.7, 0.0, 0.0, 0.0]), 0) == 0.0

    def test_single_attribute_rejected(self):
        matrix = RescoreMatrix(values=np.array([[0.5]]), alpha=0.2, n=10,
                               direction_attributes=(0,))
        with pytest.raises(ValueError):
            lb.overall_entanglement(matrix, 0)

    def test_index_errors(self):
        matrix = _row_matrix([0.1, 0.2, 0.3, 0.4])
        with pytest.raises(IndexError):
            lb.effect(matrix, 2)  # only one direction row
        with pytest.raises(IndexError):
            lb.overall_entanglement(matrix, -1)


class TestSweeps:
    def test_single_run_has_zero_std(self, world42, dataset20k):
        report = lb.sweep_sample_size(dataset20k, world42.score, sizes=[100],
                                      runs=1, n_eval=200, seed=1)
        assert len(report.rows) == 4
        for row in report.rows:
            assert row.effect_std == 0.0 and row.entanglement_std == 0.0
            assert row.parameter == 100.0 and row.method == "centroid"

    def test_effect_grows_with_sample_size(self, world42, dataset20k):
        report = lb.sweep_sample_size(dataset20k, world42.score, sizes=[100, 1000],
                                      runs=3, n_eval=1000, seed=42)
        by_attr = {}
        for row in report.rows:
            by_attr.setdefault(row.attribute, {})[row.parameter] = row.effect
        for attr, effects in by_attr.items():
            assert effects[1000.0] >= effects[100.0]

    def test_sweep_determinism(self, world42, dataset20k):
        kwargs = dict(sizes=[50], runs=2, n_eval=100, seed=9)
        a = lb.sweep_sample_size(dataset20k, world42.score, **kwargs)
        b = lb.sweep_sample_size(dataset20k, world42.score, **kwargs)
        assert sweep_to_csv(a) == sweep_to_csv(b)

    def test_centroid_sweep_builds_no_fit_set(self, world42, dataset100k):
        # the fit streams the drawn rows through one small buffer, so two
        # 50k-row points stay far below the size of one fit set (and so
        # below the two a sweep holding its last fit set would reach); a
        # grid repeats no size, so the second point draws one row fewer
        fit_bytes = 50_000 * (dataset100k.codes[0].nbytes + dataset100k.labels[0].nbytes)
        _, peak = traced_peak(lb.sweep_sample_size, dataset100k, world42.score,
                              sizes=[50_000, 49_999], policies=("uniform",), runs=1,
                              n_eval=100, seed=3)
        assert peak < 0.25 * fit_bytes

    @pytest.mark.parametrize("policy", ["uniform", "skip", "oversample"])
    def test_draws_hold_scratch_of_a_few_outputs(self, dataset100k, policy):
        # a draw's sort keys, bounds and resolver arrays are each the size of
        # its output; holding ten of them (uniform) or eight (skip) at once
        # set a sweep's peak.  A balanced draw's slot order (8 bytes a slot
        # of n0) held through the result's copy took it to 25-27 bytes a slot
        if policy == "uniform":
            drawn, peak = traced_peak(lb.uniform_subsample, dataset100k, 50_000, 7)
            assert peak <= 5 * drawn.indices.nbytes
        else:
            table = lb.build_contingency(dataset100k)
            drawn, peak = traced_peak(lb.balanced_subsample, dataset100k, table,
                                      lb.SamplePlan(50_000, policy, 7))
            assert peak <= 22 * 50_000
        assert drawn.indices.dtype == np.int64 and drawn.size >= 30_000

    def test_centroid_fit_holds_one_chunk_whatever_the_rows(self, dataset100k):
        # masks of every row, [pos, ~pos], took 2m bytes a row on top of the
        # chunk buffer: 2.7 times that buffer at 1e5 rows; and a fit on every
        # row (rows=None) built all their indices, 2 times that buffer
        chunk_bytes = (block_rows(dataset100k.dim) + 2 * dataset100k.m) * dataset100k.dim * 8
        for rows in (np.arange(100_000), None):
            dirs, peak = traced_peak(lb.fit_directions, dataset100k, "centroid", rows=rows)
            assert len(dirs) == dataset100k.m
            assert peak <= 1.5 * chunk_bytes, rows

    def test_sweep_calls_the_captured_names_once_per_point_and_run(self, world42, dataset20k,
                                                                   monkeypatch):
        # the benchmark's Capture rebinds latbal.evaluation.rescore and
        # fit_directions; a run scores its evaluation codes once, and each
        # point then scores only its edited codes, one batch per direction
        calls = {"rescore": [], "fit_directions": []}
        for name, sink in calls.items():
            def counting(*args, _fn=getattr(latbal.evaluation, name), _sink=sink, **kwargs):
                _sink.append(kwargs)
                return _fn(*args, **kwargs)
            monkeypatch.setattr(latbal.evaluation, name, counting)
        scored = []

        def scorer(z):
            scored.append(z)
            return world42.score(z)

        points, runs = 3 * 2, 2
        report = lb.sweep_sample_size(dataset20k, scorer, sizes=[100, 200, 400],
                                      policies=("skip", "uniform"), runs=runs, n_eval=50,
                                      seed=8)
        assert not any(r.error for r in report.rows)
        assert [len(v) for v in calls.values()] == [points * runs] * 2
        assert all(kw["rows"] is not None and kw["rows"].size > 0
                   for kw in calls["fit_directions"])
        assert len(scored) == runs * (1 + points * dataset20k.m)
        # no batch is scored twice (the list keeps each alive, so ids are unique)
        assert len({id(z) for z in scored}) == len(scored)

    def test_regularization_shape_and_small_c_limit(self, world42, dataset20k):
        report = lb.sweep_regularization(dataset20k, world42.score, c_values=[1e-6],
                                         n0=500, runs=1, n_eval=500, seed=4)
        svm_rows = [r for r in report.rows if r.method == "svm"]
        cen_rows = [r for r in report.rows if r.method == "centroid"]
        assert len(svm_rows) == 4 and len(cen_rows) == 4
        assert all(r.parameter is None for r in cen_rows)
        # same subsample per run, so the C -> 0 limit pins SVM to the centroid rows
        for s, c in zip(svm_rows, cen_rows):
            assert s.attribute == c.attribute
            assert abs(s.effect - c.effect) <= 0.005
            assert abs(s.entanglement - c.entanglement) <= 0.005

    def test_invalid_grids_rejected(self, world42, dataset20k):
        with pytest.raises(ValueError):
            lb.sweep_sample_size(dataset20k, world42.score, sizes=[], runs=1)
        for bad in (-1.0, float("inf"), float("nan")):
            with pytest.raises(ValueError, match="c_values"):
                lb.sweep_regularization(dataset20k, world42.score, c_values=[1.0, bad])

    def test_zero_runs_and_empty_c_grid_rejected(self, world42, dataset20k):
        with pytest.raises(ValueError, match="runs must be >= 1"):
            lb.sweep_sample_size(dataset20k, world42.score, sizes=[100], runs=0)
        with pytest.raises(ValueError, match="c_values must be non-empty"):
            lb.sweep_regularization(dataset20k, world42.score, c_values=[])

    @pytest.mark.parametrize("alpha", [float("nan"), float("inf"), -float("inf"), "0.2", True])
    def test_non_finite_alpha_rejected_up_front(self, world42, dataset20k, alpha):
        # a NaN alpha used to give NaN effect rows with no error, read as
        # measured; alpha=True used to be kept, and saved as "alpha": true
        match = f"^alpha must be a finite number, got {alpha!r}$"
        with pytest.raises(ValueError, match=match):
            lb.sweep_sample_size(dataset20k, world42.score, sizes=[100], runs=1, alpha=alpha)
        with pytest.raises(ValueError, match=match):
            lb.sweep_regularization(dataset20k, world42.score, c_values=[1.0], runs=1,
                                    alpha=alpha)
        dirs = lb.fit_directions(dataset20k, "centroid")
        with pytest.raises(ValueError, match=match):
            lb.rescore(world42.score, dirs, np.zeros((5, 64)), alpha)

    @pytest.mark.parametrize("kwargs,message", [
        ({"runs": True}, "runs must be an integer, got True"),
        ({"runs": 2.0}, "runs must be an integer, got 2.0"),
        ({"n_eval": 0}, "n_eval must be >= 1, got 0"),
        ({"n_eval": 2.5}, "n_eval must be an integer, got 2.5"),
        ({"n_eval": np.False_}, f"n_eval must be an integer, got {np.False_!r}"),
        ({"seed": 2.5}, "seed must be an integer, got 2.5"),
        ({"seed": True}, "seed must be an integer, got True"),
        ({"seed": 2**64}, f"seed must be in [0, 2**64 - 1], got {2**64}"),
        ({"seed": -1}, "seed must be in [0, 2**64 - 1], got -1"),
        ({"methods": ("bogus",)}, "method must be one of ('centroid', 'svm'), got 'bogus'"),
        ({"policies": ("skip", "bogus")},
         "policy must be one of ('skip', 'oversample', 'uniform'), got 'bogus'"),
    ], ids=["runs-bool", "runs-float", "n_eval-zero", "n_eval-fraction", "n_eval-numpy-bool",
            "seed-fraction", "seed-bool", "seed-past-64-bits", "seed-negative", "method",
            "policy"])
    def test_bad_sweep_arguments_rejected_up_front(self, world42, dataset20k, kwargs, message):
        # these used to give all-NaN rows, write True as the runs count, or
        # escape as a TypeError
        args = {"runs": 1, "n_eval": 50, **kwargs}
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            lb.sweep_sample_size(dataset20k, world42.score, sizes=[100], **args)
        if "methods" not in kwargs and "policies" not in kwargs:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                lb.sweep_regularization(dataset20k, world42.score, c_values=[1.0], n0=100,
                                        **args)

    @pytest.mark.parametrize("n0,message", [
        (2.5, "n0 must be an integer, got 2.5"),
        (True, "n0 must be an integer, got True"),
        (0, "n0 must be >= 1, got 0"),
        (None, "n0 must be an integer, got None"),
    ], ids=["fraction", "bool", "zero", "none"])
    def test_bad_n0_rejected_up_front(self, world42, dataset20k, n0, message):
        # these used to give all-NaN rows; sizes=[True] wrote parameter 1.0,
        # and sizes=[None] escaped as a TypeError
        match = f"^{re.escape(message)}$"
        with pytest.raises(ValueError, match=match):
            lb.sweep_sample_size(dataset20k, world42.score, sizes=[100, n0], runs=1)
        with pytest.raises(ValueError, match=match):
            lb.sweep_regularization(dataset20k, world42.score, c_values=[1.0], n0=n0, runs=1)

    @pytest.mark.parametrize("kwargs,message", [
        ({"sizes": [100, 200, 100]}, "sizes must be non-empty without repeats, "
                                     "got [100, 200, 100]"),
        ({"methods": ()}, "methods must be non-empty without repeats, got []"),
        ({"methods": ["svm", "svm"]}, "methods must be non-empty without repeats, "
                                      "got ['svm', 'svm']"),
        ({"policies": ()}, "policies must be non-empty without repeats, got []"),
        ({"policies": ("skip", "uniform", "skip")}, "policies must be non-empty without "
                                                    "repeats, got ['skip', 'uniform', 'skip']"),
    ], ids=["sizes-repeat", "methods-empty", "methods-repeat", "policies-empty",
            "policies-repeat"])
    def test_empty_or_repeating_size_grid_rejected(self, world42, dataset20k, kwargs, message):
        # an empty method or policy list used to give a 0-row report, and a
        # repeat two rows per point that no report tells apart
        args = {"sizes": [100], "runs": 1, "n_eval": 50, **kwargs}
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            lb.sweep_sample_size(dataset20k, world42.score, **args)

    @pytest.mark.parametrize("c_values,message", [
        ([1.0, 0.5, 1], "c_values must be non-empty without repeats, got [1.0, 0.5, 1.0]"),
        ([True], "c_values must be a finite positive number, got True"),
        (["1"], "c_values must be a finite positive number, got '1'"),
    ], ids=["repeat", "bool", "str"])
    def test_c_grid_entries_checked(self, world42, dataset20k, c_values, message):
        # [True] used to be written as C = 1.0, and ["1"] to escape as a TypeError
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            lb.sweep_regularization(dataset20k, world42.score, c_values=c_values, runs=1)

    def test_one_attribute_sweep_rejected_up_front(self):
        # every point would fail in overall_entanglement, leaving only NaN rows
        dataset = tiny_dataset([[0], [1]] * 50)
        match = "^a sweep needs at least two attributes, got 1$"
        with pytest.raises(ValueError, match=match):
            lb.sweep_sample_size(dataset, lambda z: z[:, :1], sizes=[10], runs=1)
        with pytest.raises(ValueError, match=match):
            lb.sweep_regularization(dataset, lambda z: z[:, :1], c_values=[1.0], n0=10)

    def test_non_finite_svm_c_rejected_up_front(self, world42, dataset20k):
        # it used to become every point's NaN error rows
        with pytest.raises(ValueError, match="^C must be a finite positive number, got inf$"):
            lb.sweep_sample_size(dataset20k, world42.score, sizes=[100],
                                 methods=("svm",), c=float("inf"), runs=1, n_eval=50)

    @pytest.mark.parametrize("methods", [("centroid",), ("svm",)], ids=["centroid", "svm"])
    @pytest.mark.parametrize("c", ["x", 0, True])
    def test_c_checked_whatever_the_methods(self, world42, dataset20k, methods, c):
        # a centroid-only sweep accepted any c and ignored it
        with pytest.raises(ValueError, match=f"^C must be a finite positive number, "
                                             f"got {re.escape(repr(c))}$"):
            lb.sweep_sample_size(dataset20k, world42.score, sizes=[100],
                                 methods=methods, c=c, runs=1, n_eval=50)

    def test_fit_errors_recorded_not_fatal(self, world42):
        # attribute 1 constant: its negative class is empty, so fits fail;
        # the sweep must record the error instead of raising
        ds = lb.sample_world(world42, 2000, seed=3)
        labels = ds.labels.copy()
        labels[:, 1] = 1
        broken = lb.LatentDataset(codes=ds.codes, labels=labels, schema=ds.schema)
        report = lb.sweep_sample_size(broken, world42.score, sizes=[100],
                                      runs=1, n_eval=50, seed=1)
        assert all(r.error is not None for r in report.rows)
        report = lb.sweep_regularization(broken, world42.score, c_values=[1e-6],
                                         n0=100, runs=1, n_eval=50, seed=1)
        assert all(r.error is not None for r in report.rows)
        assert all(np.isnan(r.effect) for r in report.rows)

    def test_failing_grid_points_leave_the_others_alone(self, world42, dataset20k):
        # one row cannot hold both classes of any attribute, so every n0=1 point fails
        kwargs = dict(policies=("skip", "uniform"), runs=2, n_eval=200, seed=5)
        report = lb.sweep_sample_size(dataset20k, world42.score, sizes=[1, 1000], **kwargs)
        assert len(report.rows) == 16
        one_row = {f"run 0: attribute 0: both classes must be non-empty, got {p} positive "
                   f"and {1 - p} negative rows" for p in (0, 1)}
        for row in report.rows[:8]:
            assert row.parameter == 1.0 and np.isnan(row.effect)
            assert row.error in one_row
        ok = report.rows[8:]
        assert all(r.parameter == 1000.0 and r.error is None for r in ok)
        assert all(np.isfinite([r.effect, r.effect_std, r.entanglement,
                                r.entanglement_std]).all() for r in ok)
        # a point's fit seed keys on its grid position, not on its neighbours' fate
        other = lb.sweep_sample_size(dataset20k, world42.score, sizes=[3000, 1000], **kwargs)
        assert other.rows[8:] == ok

    def test_uniform_point_past_the_dataset_fails_naming_its_n0(self, world42):
        # 5000 > 3000 rows: a balanced skip point still fits; a uniform one
        # fails as uniform_subsample does rather than fit every row
        ds = lb.sample_world(world42, 3000, seed=3)
        report = lb.sweep_sample_size(ds, world42.score, sizes=[5000],
                                      policies=("skip", "uniform"), runs=1, n_eval=50, seed=1)
        balanced, uniform = report.rows[:4], report.rows[4:]
        assert all(r.error is None and np.isfinite(r.effect) for r in balanced)
        assert all(r.policy == "uniform" and r.parameter == 5000.0 and np.isnan(r.effect)
                   for r in uniform)
        assert all(r.error == "run 0: n0 must be in [0, 3000], got 5000" for r in uniform)


def _random_fit_set(n, dim, m, rate, repeats, seed):
    """n Gaussian rows with Bernoulli(rate) labels, oversampled to n * repeats rows."""
    rng = np.random.default_rng(seed)
    ds = lb.LatentDataset(codes=rng.standard_normal((n, dim)) * 3.0 + 0.5,
                          labels=rng.random((n, m)) < rate,
                          schema=lb.AttributeSchema(tuple(f"a{k}" for k in range(m))))
    return ds.select(rng.integers(0, n, size=n * repeats)) if repeats > 1 else ds


def _fit_or_error(fit, ds):
    try:
        return fit(ds)
    except ValueError as exc:
        return str(exc)


def _split_centroids(ds):
    """The reference fit: centroid_direction on split_by_attribute's two classes."""
    dirs = []
    for j in range(ds.m):
        pos, neg = lb.split_by_attribute(ds, j)
        dirs.append(lb.centroid_direction(pos.codes, neg.codes, j))
    return dirs


_FIT_SETS = dict(n=st.integers(1, 300), m=st.integers(1, 20),
                 rate=st.sampled_from([0.0, 0.03, 0.3, 0.5, 0.9, 1.0]),
                 repeats=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))


class TestFitDirections:
    @settings(max_examples=150, deadline=None)
    @given(dim=st.integers(2, 130), **_FIT_SETS)
    @example(n=1, dim=8, m=3, rate=0.5, repeats=1, seed=1)      # one row: one class only
    @example(n=50, dim=4, m=2, rate=0.0, repeats=1, seed=2)     # a one-class attribute
    @example(n=300, dim=64, m=20, rate=0.3, repeats=4, seed=3)  # oversampled, m = 20
    def test_centroid_fit_is_bit_identical_to_split_classes(self, n, dim, m, rate,
                                                            repeats, seed):
        ds = _random_fit_set(n, dim, m, rate, repeats, seed)
        got = _fit_or_error(lambda d: lb.fit_directions(d, "centroid"), ds)
        want = _fit_or_error(_split_centroids, ds)
        if isinstance(want, str):
            assert got == want
            return
        assert [(u.attribute, u.method, u.meta, u.vector.tobytes()) for u in got] == \
            [(u.attribute, u.method, u.meta, u.vector.tobytes()) for u in want]

    # at dim 1 mean(axis=0) sums pairwise, so raw_norm is held to the float64
    # error bound of a sum in another order, rows * eps * mean |x| per class
    @settings(max_examples=100, deadline=None)
    @given(**_FIT_SETS)
    def test_centroid_fit_at_dim_one_is_within_rounding(self, n, m, rate, repeats, seed):
        ds = _random_fit_set(n, 1, m, rate, repeats, seed)
        got = _fit_or_error(lambda d: lb.fit_directions(d, "centroid"), ds)
        want = _fit_or_error(_split_centroids, ds)
        if isinstance(want, str):
            assert got == want
            return
        eps = np.finfo(np.float64).eps
        for j, (u, v) in enumerate(zip(got, want)):
            pos, neg = lb.split_by_attribute(ds, j)
            bound = eps * sum(c.n * np.abs(c.codes).mean() for c in (pos, neg))
            assert np.abs(u.vector - v.vector).max() <= 1e-15
            assert abs(u.meta["raw_norm"] - v.meta["raw_norm"]) <= bound
            assert (u.meta["n_pos"], u.meta["n_neg"]) == (v.meta["n_pos"], v.meta["n_neg"])

    @pytest.mark.parametrize("dim,size", [(dim, size) for dim in (3, 64) for size in (
        1, block_rows(dim) - 1, block_rows(dim), block_rows(dim) + 1, 3 * block_rows(dim) + 5)])
    def test_rows_fit_is_bit_identical_across_chunks(self, size, dim):
        # rows repeat (3000 source rows) and half of them are negative
        ds = _random_fit_set(3000, dim, 4, 0.3, 1, seed=size * dim)
        rows = np.random.default_rng(size).integers(-ds.n, ds.n, size=size)
        got = _fit_or_error(lambda d: lb.fit_directions(d, "centroid", rows=rows), ds)
        want = _fit_or_error(_split_centroids, ds.select(rows))
        if isinstance(want, str):  # one row holds one class only
            p = int(ds.labels[rows[0], 0])
            assert size == 1 and got == want == (
                f"attribute 0: both classes must be non-empty, got {p} positive "
                f"and {1 - p} negative rows")
            return
        assert [(u.attribute, u.meta, u.vector.tobytes()) for u in got] == \
            [(u.attribute, u.meta, u.vector.tobytes()) for u in want]

    @pytest.mark.parametrize("constant", [0, 1])
    @pytest.mark.parametrize("m", [1, 2, 5])
    @pytest.mark.parametrize("dim", [3, 64])
    def test_class_sums_add_each_class_in_row_order(self, dim, m, constant):
        # attribute 0 is `constant` on every row, so one of its classes is
        # empty; row 5 repeats, as 5 and as -(n - 5), across the first chunk
        # boundary, among rows that repeat and run negative throughout
        ds = _random_fit_set(3000, dim, m, 0.3, 1, seed=dim * m + constant)
        labels = ds.labels.copy()
        labels[:, 0] = constant
        ds = lb.LatentDataset(ds.codes, labels, ds.schema)
        step = block_rows(dim)
        rows = np.random.default_rng(m).integers(-ds.n, ds.n, size=2 * step + 7)
        rows[step - 2:step + 2] = [5, -(ds.n - 5), 5, -(ds.n - 5)]
        sums, n_pos = latbal.evaluation._class_sums(ds.codes, ds.labels, rows)
        x, y = ds.codes[rows], ds.labels[rows]
        assert n_pos.dtype == np.int64
        assert n_pos.tolist() == np.count_nonzero(y, axis=0).tolist()
        for j in range(m):
            # at dim >= 2, sum(axis=0) adds the rows in order, as mean does
            assert sums[j].tobytes() == x[y[:, j] == 1].sum(axis=0).tobytes()
            assert sums[m + j].tobytes() == x[y[:, j] == 0].sum(axis=0).tobytes()
        got = _fit_or_error(lambda d: lb.fit_directions(d, "centroid", rows=rows), ds)
        p = len(rows) if constant else 0
        assert got == _fit_or_error(_split_centroids, ds.select(rows)) == (
            f"attribute 0: both classes must be non-empty, got {p} positive "
            f"and {len(rows) - p} negative rows")
        if m > 1:  # the other attributes fit as on the gathered rows
            sub = lb.LatentDataset(ds.codes, ds.labels[:, 1:],
                                   lb.AttributeSchema(ds.schema.names[1:]))
            got = lb.fit_directions(sub, "centroid", rows=rows)
            assert [(u.meta, u.vector.tobytes()) for u in got] == \
                [(u.meta, u.vector.tobytes()) for u in _split_centroids(sub.select(rows))]

    @pytest.mark.parametrize("dim", [3, 64])
    @pytest.mark.parametrize("size", ["0", "1", "block-1", "block", "block+1", "halves+7"])
    def test_pipelined_class_sums_add_each_class_in_row_order(self, dim, size):
        # beyond one block the rows stream in half-blocks through two buffers
        # (5 half-blocks + 7 rows: an odd number of chunks)
        step = block_rows(dim)
        half = -(-step // 2)
        n = {"0": 0, "1": 1, "block-1": step - 1, "block": step, "block+1": step + 1,
             "halves+7": 5 * half + 7}[size]
        ds = _random_fit_set(3000, dim, 3, 0.3, 1, seed=n + dim)
        rows = np.random.default_rng(n).integers(-ds.n, ds.n, size=n)
        for b in range(half, n, half):  # row 7 twice, negative then not, across each boundary
            rows[b - 1:b + 1] = [7 - ds.n, 7]
        sums, n_pos = latbal.evaluation._class_sums(ds.codes, ds.labels, rows)
        x, y = ds.codes[rows], ds.labels[rows]
        assert n_pos.tolist() == np.count_nonzero(y, axis=0).tolist()
        for j in range(ds.m):
            assert sums[j].tobytes() == x[y[:, j] == 1].sum(axis=0).tobytes()
            assert sums[ds.m + j].tobytes() == x[y[:, j] == 0].sum(axis=0).tobytes()

    def test_pipelined_fit_leaves_no_thread_running(self, dataset20k):
        # a fit over several chunks starts no thread, and a row out of range
        # on the last chunk raises select's IndexError
        before = threading.active_count()
        rows = np.arange(-dataset20k.n, dataset20k.n, 3)
        assert rows.size > block_rows(dataset20k.dim)
        lb.fit_directions(dataset20k, "centroid", rows=rows)
        assert threading.active_count() == before
        rows[-1] = dataset20k.n
        with pytest.raises(IndexError) as want:
            dataset20k.select(rows)
        with pytest.raises(IndexError) as got:
            lb.fit_directions(dataset20k, "centroid", rows=rows)
        assert str(got.value) == str(want.value)
        assert threading.active_count() == before

    def test_rows_none_fits_every_row(self, dataset20k):
        # 20k rows span ten chunks
        got = lb.fit_directions(dataset20k, "centroid")
        for other in (_split_centroids(dataset20k),
                      lb.fit_directions(dataset20k, "centroid", rows=np.arange(dataset20k.n))):
            assert [(u.meta, u.vector.tobytes()) for u in got] == \
                [(u.meta, u.vector.tobytes()) for u in other]

    @pytest.mark.parametrize("method", ["centroid", "svm"])
    def test_rows_out_of_range_or_empty(self, dataset20k, method):
        n = dataset20k.n
        for bad in ([n], [0, -n - 1]):
            with pytest.raises(IndexError):
                lb.fit_directions(dataset20k, method, rows=bad)
        empty = "^attribute 0: both classes must be non-empty, got 0 positive and 0 negative rows$"
        with pytest.raises(ValueError, match=empty):
            lb.fit_directions(dataset20k, method, rows=[])
        with pytest.raises(ValueError, match=empty):
            lb.fit_directions(dataset20k.select([]), method)

    @pytest.mark.parametrize("method", ["centroid", "svm"])
    def test_rows_of_a_non_integer_dtype_rejected(self, dataset20k, method):
        # a centroid fit on arange(0.9, 300.9) used to equal the fit on rows 0-299
        for rows in (np.arange(0.9, 300.9), np.arange(300) % 2 == 0):
            with pytest.raises(ValueError,
                               match=f"^row indices must be integers, got dtype {rows.dtype}$"):
                lb.fit_directions(dataset20k, method, rows=rows)

    def test_svm_rows_fit_equals_select(self, dataset20k):
        rows = np.arange(-150, 150)
        got = lb.fit_directions(dataset20k, "svm", c=1e-2, max_iter=50, rows=rows)
        want = lb.fit_directions(dataset20k.select(rows), "svm", c=1e-2, max_iter=50)
        assert [(u.meta, u.vector.tobytes()) for u in got] == \
            [(u.meta, u.vector.tobytes()) for u in want]

    def test_svm_fit_uses_the_split_classes(self, dataset20k):
        # fit j sees both classes of attribute j's split, rows in content order
        ds = dataset20k.select(np.arange(300))
        got = lb.fit_directions(ds, "svm", c=1e-2, max_iter=50)
        for j, u in enumerate(got):
            x, y = stacked(*(part.codes for part in lb.split_by_attribute(ds, j)))
            order = np.lexsort(x.T[::-1])
            v = lb.svm_direction(x[order], y[order], j, c=1e-2, max_iter=50)
            assert u.vector.tobytes() == v.vector.tobytes() and u.meta == v.meta

    def test_fit_is_order_independent(self, dataset20k):
        # repeated rows included: equal codes carry equal labels, so any order
        # among them gives the same fit
        rows = np.r_[np.arange(200), np.arange(0, 200, 2)]
        shuffled = np.random.default_rng(3).permutation(rows)
        a, b = (lb.fit_directions(dataset20k, "svm", c=1.0, tol=1e-8, max_iter=300, rows=r)
                for r in (rows, shuffled))
        assert [(u.meta, u.vector.tobytes()) for u in a] == \
            [(u.meta, u.vector.tobytes()) for u in b]

    @pytest.mark.parametrize("c", [True, "0.5"])
    def test_svm_c_that_is_not_a_number_rejected(self, dataset20k, c):
        # c=True used to be saved as "c": true
        with pytest.raises(ValueError, match=f"^attribute 0: C must be a finite positive "
                                             f"number, got {re.escape(repr(c))}$"):
            lb.fit_directions(dataset20k.select(np.arange(200)), "svm", c=c)

    def test_svm_c_is_saved_as_a_json_float(self, dataset20k, tmp_path):
        # a float32 C used to be kept in meta, and save_direction then raised from json
        u = lb.fit_directions(dataset20k.select(np.arange(200)), "svm", c=np.float32(0.5),
                              tol=1e-3)[0]
        assert type(u.meta["c"]) is float
        lb.save_direction(u, str(tmp_path / "u.json"))
        assert lb.load_direction(str(tmp_path / "u.json")).meta["c"] == 0.5

    def test_unknown_method_rejected(self, dataset20k):
        with pytest.raises(ValueError, match="unknown fit method 'lda'"):
            lb.fit_directions(dataset20k.select(np.arange(10)), "lda")


class TestExports:
    def test_rescore_csv_layout(self):
        matrix = RescoreMatrix(values=np.array([[0.25, -0.5]]), alpha=0.2, n=5,
                               direction_attributes=(0,))
        text = rescore_to_csv(matrix, names=["glasses", "age"])
        lines = text.strip().splitlines()
        assert lines[0] == "direction,attribute,value"
        assert lines[1] == "glasses,glasses,0.25"
        assert lines[2] == "glasses,age,-0.5"

    def test_rescore_dict(self):
        matrix = _row_matrix([0.1, 0.2, 0.3, 0.4])
        obj = rescore_to_dict(matrix, ["a", "b", "c", "d"])
        assert obj["convention"] == "edited_minus_original"
        assert obj["attributes"] == ["a", "b", "c", "d"]
        assert obj["values"] == [[0.1, 0.2, 0.3, 0.4]]

    def test_sweep_csv_header(self, world42, dataset20k):
        report = lb.sweep_sample_size(dataset20k, world42.score, sizes=[50],
                                      runs=1, n_eval=100, seed=2)
        text = sweep_to_csv(report)
        assert text.splitlines()[0] == ("parameter,attribute,effect,entanglement,"
                                        "effect_std,entanglement_std,method,policy,runs")
