"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -s` to see every line; without -s
the lines still appear for failing criteria.  Shared inputs: the default
correlated oracle world and a 100k-code sample, both at seed 42.
"""

import struct
import time

import numpy as np
import pytest

import latbal as lb
from latbal.dataio import MAGIC, VERSION, LatdFormatError
from latbal.evaluation import RescoreMatrix, _eval_latents
from latbal.rng import derive_seed, normals
from latbal.svm import train_svm

from conftest import stacked


def _report(num: int, name: str, ok: bool, detail: str) -> bool:
    print(f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def _unit(v):
    v = np.asarray(v, dtype=np.float64)
    return v / np.linalg.norm(v)


def _row_matrix(row):
    return RescoreMatrix(values=np.array([row]), alpha=0.2, n=2000,
                         direction_attributes=(0,))


def _balanced_fit(dataset, table, n0, seed, method="centroid", **kw):
    res = lb.balanced_subsample(dataset, table, lb.SamplePlan(n0, "skip", seed))
    return lb.fit_directions(dataset.select(res.indices), method, seed=seed, **kw)


@pytest.fixture(scope="module")
def table100k(dataset100k):
    return lb.build_contingency(dataset100k)


def test_criterion_01_entanglement_metric_formula():
    m_before = _row_matrix([0.39, 0.34, -0.06, -0.29])
    m_after = _row_matrix([0.32, 0.07, -0.05, -0.07])
    e1 = lb.overall_entanglement(m_before, 0)
    e2 = lb.overall_entanglement(m_after, 0)
    ok = abs(e1 - 0.23) <= 0.005 and abs(e2 - 0.0633) <= 0.005
    assert _report(1, "overall-entanglement formula on reference rows", ok,
                   f"got {e1:.4f} (want 0.23±0.005) and {e2:.4f} (want 0.0633±0.005)")


def test_criterion_02_balanced_sampling_flattens_cells(dataset100k, table100k):
    t0 = time.time()
    uni = lb.uniform_subsample(dataset100k, 1000, seed=42)
    uc = uni.per_cell_counts
    uniform_ratio = float(uc.max() / uc[uc > 0].min())

    bal = lb.balanced_subsample(dataset100k, table100k,
                                lb.SamplePlan(n0=1000, policy="skip", seed=42))
    bc = bal.per_cell_counts
    balanced_ratio = float(bc.max() / bc[bc > 0].min())
    elapsed = time.time() - t0

    ok_uniform = _report(2, "uniform subsample keeps source imbalance",
                         uniform_ratio >= 3.0,
                         f"max/min ratio {uniform_ratio:.2f}, want >= 3")
    ok_balanced = _report(2, "balanced subsample flattens the joint distribution",
                          balanced_ratio <= 1.5,
                          f"max/min ratio {balanced_ratio:.4f}, want <= 1.5; "
                          f"elapsed {elapsed:.2f}s")
    assert elapsed < 5.0
    assert ok_uniform and ok_balanced


def test_criterion_03_balanced_centroid_beats_uniform_svm(world42, dataset100k, table100k):
    t0 = time.time()
    eff_bc, ent_bc, eff_sv, ent_sv = [], [], [], []
    for run in range(5):
        fit_seed = derive_seed(42, run)
        latents = _eval_latents(64, 2000, 42, run)
        dirs_bc = _balanced_fit(dataset100k, table100k, 1000, fit_seed)
        m_bc = lb.rescore(world42.score, dirs_bc, latents, 0.2)
        uni = lb.uniform_subsample(dataset100k, 1000, fit_seed)
        dirs_sv = lb.fit_directions(dataset100k.select(uni.indices), "svm",
                                    c=1.0, tol=1e-4, max_iter=300, seed=fit_seed)
        m_sv = lb.rescore(world42.score, dirs_sv, latents, 0.2)
        eff_bc.append([lb.effect(m_bc, j) for j in range(4)])
        ent_bc.append([lb.overall_entanglement(m_bc, j) for j in range(4)])
        eff_sv.append([lb.effect(m_sv, j) for j in range(4)])
        ent_sv.append([lb.overall_entanglement(m_sv, j) for j in range(4)])
    eff_bc, ent_bc = np.mean(eff_bc, 0), np.mean(ent_bc, 0)
    eff_sv, ent_sv = np.mean(eff_sv, 0), np.mean(ent_sv, 0)
    elapsed = time.time() - t0

    ordering = bool(np.all(ent_bc < ent_sv))
    rel = np.abs(eff_bc - eff_sv) / np.maximum(eff_bc, eff_sv)
    effect_close = bool(np.all(rel <= 0.20))
    ok = ordering and effect_close and elapsed < 60.0
    assert _report(3, "balanced centroid entangles less than uniform SVM", ok,
                   f"entanglement {np.round(ent_bc, 5).tolist()} vs "
                   f"{np.round(ent_sv, 5).tolist()}, effect rel diff "
                   f"{np.round(rel, 3).tolist()} (<=0.2), elapsed {elapsed:.1f}s")


def test_criterion_04_small_c_svm_matches_centroid(dataset100k, table100k):
    t0 = time.time()
    res = lb.balanced_subsample(dataset100k, table100k, lb.SamplePlan(1000, "skip", 42))
    sub = dataset100k.select(res.indices)
    worst = 1.0
    for j in range(4):
        pos, neg = lb.split_by_attribute(sub, j)
        k = min(pos.n, neg.n)  # balanced classes
        centroid = lb.centroid_direction(pos.codes[:k], neg.codes[:k], j)
        svm_u = lb.svm_direction(*stacked(pos.codes[:k], neg.codes[:k]), j,
                                 c=1e-6, tol=1e-9, max_iter=50)
        worst = min(worst, float(centroid.vector @ svm_u.vector))
    elapsed = time.time() - t0
    ok = worst >= 0.999 and elapsed < 30.0
    assert _report(4, "small-C SVM normal approaches the centroid direction", ok,
                   f"worst cosine {worst:.6f} (want >= 0.999), elapsed {elapsed:.1f}s")


def test_criterion_05_conditional_projection(dataset100k, table100k):
    dirs = _balanced_fit(dataset100k, table100k, 1000, 42)
    worst_dot, worst_idem = 0.0, 0.0
    for j in range(4):
        others = [d for d in dirs if d.attribute != j]
        proj = lb.conditional_project(dirs[j], others)
        worst_dot = max(worst_dot, max(abs(float(proj.vector @ o.vector)) for o in others))
        again = lb.conditional_project(proj, others)
        worst_idem = max(worst_idem, float(np.abs(again.vector - proj.vector).max()))
    ok = worst_dot <= 1e-10 and worst_idem <= 1e-12
    assert _report(5, "conditional projection is orthogonal and idempotent", ok,
                   f"max |u'.u_k| {worst_dot:.2e} (<=1e-10), "
                   f"idempotence residual {worst_idem:.2e} (<=1e-12)")


def test_criterion_06_ground_truth_direction_recovery():
    t0 = time.time()
    world = lb.make_world(dim=64, gram=np.eye(4), positive_rates=(0.5,) * 4, seed=42)
    ds = lb.sample_world(world, 30_000, seed=42)
    table = lb.build_contingency(ds)
    dirs = _balanced_fit(ds, table, 1000, 42)
    cosines = [float(dirs[j].vector @ world.vectors[j]) for j in range(4)]
    vectors = np.array([d.vector for d in dirs])
    mat = vectors @ vectors.T
    off_diag = float(np.abs(mat - np.diag(np.diag(mat))).max())
    elapsed = time.time() - t0
    ok = min(cosines) >= 0.9 and off_diag <= 0.2 and elapsed < 10.0
    assert _report(6, "balanced centroid recovers planted directions", ok,
                   f"cos(u_j, v_j) min {min(cosines):.4f} (>=0.9), "
                   f"max off-diagonal {off_diag:.4f} (<=0.2), elapsed {elapsed:.1f}s")


def test_criterion_07_sample_size_trends(world42, dataset20k):
    t0 = time.time()
    sizes = [100, 300, 1000, 3000]
    report = lb.sweep_sample_size(dataset20k, world42.score, sizes=sizes,
                                  methods=("centroid",),
                                  policies=("skip", "oversample"),
                                  runs=5, n_eval=2000, seed=42)
    rows = {(r.policy, r.parameter, r.attribute): r for r in report.rows}
    names = dataset20k.schema.names

    trend_ok, trend_notes = True, []
    for policy in ("skip", "oversample"):
        for name in names:
            eff = [rows[(policy, float(s), name)].effect for s in sizes]
            std = [rows[(policy, float(s), name)].effect_std for s in sizes]
            drops = [(i, eff[i] - eff[i + 1]) for i in range(3) if eff[i + 1] < eff[i]]
            within_std = all(d <= std[i] + std[i + 1] for i, d in drops)
            if len(drops) > 1 or not within_std:
                trend_ok = False
                trend_notes.append(f"{policy}/{name}: {drops}")

    # the rarest cell holds ~36 rows, far below the n0=3000 per-cell demand
    policy_ok = True
    for name in names:
        skip_ent = rows[("skip", 3000.0, name)].entanglement
        over_ent = rows[("oversample", 3000.0, name)].entanglement
        policy_ok &= over_ent <= skip_ent
    elapsed = time.time() - t0
    ok = trend_ok and policy_ok and elapsed < 300.0
    assert _report(7, "effect grows with sample size; oversampling curbs exhaustion", ok,
                   f"trend inversions {trend_notes or 'none'}, "
                   f"oversample<=skip at 3000: {policy_ok}, elapsed {elapsed:.1f}s")


def test_criterion_08_regularization_trend(world42, dataset100k):
    t0 = time.time()
    grid = [1e-6, 1e-4, 1e-2, 1.0]
    report = lb.sweep_regularization(dataset100k, world42.score, c_values=grid,
                                     n0=1000, runs=5, n_eval=2000, seed=42)
    rows = {(r.method, r.parameter, r.attribute): r for r in report.rows}
    names = dataset100k.schema.names

    ok, notes = True, []
    for name in names:
        # walk C downward: entanglement must not increase, one inversion <= 0.005 allowed
        ents = [rows[("svm", c, name)].entanglement for c in (1.0, 1e-2, 1e-4, 1e-6)]
        rises = [ents[i + 1] - ents[i] for i in range(3) if ents[i + 1] > ents[i]]
        if len(rises) > 1 or any(r > 0.005 for r in rises):
            ok = False
            notes.append(f"{name} entanglement rises {rises}")
        effs = [rows[("svm", c, name)].effect for c in grid]
        spread = (max(effs) - min(effs)) / max(effs)
        if spread >= 0.20:
            ok = False
            notes.append(f"{name} effect spread {spread:.3f}")
    elapsed = time.time() - t0
    assert _report(8, "stronger regularization reduces entanglement, effect stable",
                   ok and elapsed < 300.0,
                   f"{notes or 'all attributes monotone, spreads < 0.2'}, "
                   f"elapsed {elapsed:.1f}s")


def test_criterion_09_logit_rescore_identity(world42):
    dirs = [lb.SemanticDirection(k, _unit(normals(900 + k, 64)), "centroid")
            for k in range(4)]
    latents = normals(910, 500 * 64).reshape(500, 64)
    alpha = 0.2
    matrix = lb.rescore(world42.logits, dirs, latents, alpha)
    expected = np.array([[world42.sharpness * alpha * float(world42.vectors[k] @ u.vector)
                          for k in range(4)] for u in dirs])
    err = float(np.abs(matrix.values - expected).max())
    ok = err <= 1e-10
    assert _report(9, "logit-domain rescore equals kappa*alpha*<v_k, u_j>", ok,
                   f"max |error| {err:.2e} (<=1e-10)")


def test_criterion_10_svm_solver_correctness():
    pos = np.array([[1.0, 0.0], [1.0, 1.0]])
    neg = np.array([[-1.0, 0.0], [-1.0, 1.0]])
    sep = lb.svm_direction(*stacked(pos, neg), 0, tol=1e-8, max_iter=2000)
    sep_err = float(np.abs(sep.vector - np.array([1.0, 0.0])).max())

    mu = np.full(64, 2.0 / 8.0)
    z = normals(derive_seed(7, 103), 300 * 64).reshape(300, 64)
    x, y = stacked(z[:150] + mu, z[150:] - mu)
    model = train_svm(x, y, c=1.0, tol=1e-6, max_iter=4000)

    swapped = train_svm(x, -y, c=1.0, tol=1e-6, max_iter=4000)
    antisym = bool(np.array_equal(model.weights, -swapped.weights)
                   and model.bias == -swapped.bias)

    ok = sep_err <= 1e-6 and model.converged and model.duality_gap <= 1e-6 and antisym
    assert _report(10, "SVM solver: separable normal, duality gap, label-swap", ok,
                   f"separable error {sep_err:.2e} (<=1e-6), gap "
                   f"{model.duality_gap:.2e} (<=1e-6), swap antisymmetry {antisym}")


def test_criterion_11_dataset_file_roundtrip(tmp_path, world42):
    ds = lb.sample_world(world42, 1000, seed=11)
    base = str(tmp_path / "accept")
    lb.write_dataset(ds, base)
    loaded = lb.read_dataset(base)
    bit_exact = (np.array_equal(loaded.codes, ds.codes)
                 and np.array_equal(loaded.labels, ds.labels))

    (tmp_path / "t.latd").write_bytes(
        struct.pack("<4sIIQI", MAGIC, VERSION, 2, 5, 0) + b"\0" * 16)
    (tmp_path / "t.labels.csv").write_text("a,b\n" + "0,0\n" * 5)
    try:
        lb.read_dataset(str(tmp_path / "t"))
        truncation_fires = False
    except LatdFormatError as exc:
        truncation_fires = "expected" in str(exc)

    (tmp_path / "v.latd").write_bytes(struct.pack("<4sIIQI", MAGIC, 9, 2, 0, 0))
    (tmp_path / "v.labels.csv").write_text("a,b\n")
    try:
        lb.read_dataset(str(tmp_path / "v"))
        version_fires = False
    except LatdFormatError as exc:
        version_fires = "version" in str(exc)

    ok = bit_exact and truncation_fires and version_fires
    assert _report(11, "dataset files round-trip bit-exactly; corrupt files rejected", ok,
                   f"bit-exact {bit_exact}, truncation error {truncation_fires}, "
                   f"version error {version_fires}")
