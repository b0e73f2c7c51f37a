"""The benchmark's workloads: walkthrough, svm_fit and sweep_sizes.

Each workload is a closed loop, one pass at a time in one process.  It builds
its in-memory inputs from the workload seed (``build``, timed as set-up),
runs one pass (``run``, timed), and turns the pass's outputs into a digest,
quality figures and correctness checks (``inspect``, untimed).  Why each
workload exists, and which layers it loads, is written down in README.md.
"""

from __future__ import annotations

import filecmp
import hashlib
import io
import json
import math
import os
import shutil
import tempfile
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field

import numpy as np

import latbal
import latbal.cli
import latbal.evaluation
from latbal.dataio import dataset_paths, read_dataset, write_dataset
from latbal.evaluation import sweep_to_csv
from tracing import Capture

ALPHA = 0.2
N_EVAL = 2000
# Lowest cosine a fitted direction may have to its planted vector.  The
# worst direction any workload fits (centroid on a 1000-row uniform sample,
# where correlated labels pull it off axis) sits well above this.
COS_FLOOR = 0.7
UNIT_TOL = 1e-12


@dataclass
class Outcome:
    ops: int                       # calls into the program this pass
    failed_ops: int
    digest: str
    cosines: list[float]           # fitted direction vs its planted vector
    entanglement: list[float]      # overall_entanglement of every rescore row
    checks: list[tuple[str, bool, str]] = field(default_factory=list)


def _entanglement_rows(values) -> list[float]:
    values = np.asarray(values, dtype=np.float64)
    return [float(np.abs(np.delete(values[j], j)).mean()) for j in range(values.shape[0])]


def _max_min_ratio(counts) -> float:
    counts = np.asarray(counts)
    nonzero = counts[counts > 0]
    return float(nonzero.max() / nonzero.min())


def _direction_checks(directions, vectors):
    """(cosines, checks) for (attribute, unit vector) pairs against planted vectors."""
    cosines = [float(np.asarray(u) @ vectors[j]) for j, u in directions]
    worst_norm = max(abs(float(np.linalg.norm(u)) - 1.0) for _, u in directions)
    return cosines, [
        ("directions are unit-norm", worst_norm <= UNIT_TOL, f"max |norm-1| {worst_norm:.2e}"),
        ("cosine to planted vector >= floor", min(cosines) >= COS_FLOOR,
         f"min {min(cosines):.4f}, floor {COS_FLOOR}"),
    ]


def _diagonal_check(matrices):
    worst = min(float(np.diag(np.asarray(v)).min()) for v in matrices)
    return ("rescore diagonal is positive", worst > 0.0, f"min {worst:.4g}")


class Walkthrough:
    """The README command-line walkthrough at --n 200000, in-process through latbal.cli.main."""

    name = "walkthrough"
    N = 200_000
    N0 = 1000

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def build(self):
        return None

    def steps(self, d: str) -> list[list[str]]:
        seed = f"--seed={self.seed}"
        dirs = [f"{d}/dirs/attr{j}.json" for j in range(4)]
        return [
            ["synth", "--out", f"{d}/demo", "--n", str(self.N), seed],
            ["contingency", "--data", f"{d}/demo", "--out", f"{d}/table.csv",
             "--stats", f"{d}/stats.json"],
            ["sample", "--data", f"{d}/demo", "--mode", "balanced", "--n0", str(self.N0),
             "--policy", "skip", seed, "--out", f"{d}/bal"],
            ["sample", "--data", f"{d}/demo", "--mode", "uniform", "--n0", str(self.N0),
             seed, "--out", f"{d}/uni"],
            ["fit", "--data", f"{d}/demo", "--subsample", f"{d}/bal.csv",
             "--method", "centroid", "--out-dir", f"{d}/dirs", seed],
            ["eval", "--world", f"{d}/demo.world.json", "--directions", *dirs,
             "--alpha", str(ALPHA), "--n", str(N_EVAL), seed, "--out", f"{d}/rescore"],
            ["project", "--target", dirs[0], "--others", *dirs[1:],
             "--out", f"{d}/attr0_conditional.json"],
            ["edit", "--data", f"{d}/demo", "--direction", dirs[0], "--alpha", str(ALPHA),
             "--out", f"{d}/edited"],
        ]

    def run(self, state, tracer):
        d = tempfile.mkdtemp(dir=self.workdir)
        exits = []
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            for argv in self.steps(d):
                with tracer.span(f"cli.{argv[0]}", "cli") if tracer else nullcontext({}) as span:
                    code = latbal.cli.main(argv)
                    span["counts"] = {"nonzero_exit": int(code != 0)}
                exits.append(code)
        return d, exits

    def inspect(self, result, full: bool) -> Outcome:
        d, exits = result
        try:
            digest = hashlib.sha256()
            for root, _, files in sorted(os.walk(d)):
                for name in sorted(files):
                    path = os.path.join(root, name)
                    digest.update(os.path.relpath(path, d).encode())
                    with open(path, "rb") as f:
                        digest.update(hashlib.sha256(f.read()).digest())
            with open(f"{d}/demo.world.json") as f:
                vectors = np.asarray(json.load(f)["vectors"])
            fitted = [latbal.load_direction(f"{d}/dirs/attr{j}.json") for j in range(4)]
            with open(f"{d}/rescore.json") as f:
                values = json.load(f)["values"]
            cosines, checks = _direction_checks(
                [(u.attribute, u.vector) for u in fitted], vectors)
            out = Outcome(ops=len(exits), failed_ops=sum(code != 0 for code in exits),
                          digest=digest.hexdigest(), cosines=cosines,
                          entanglement=_entanglement_rows(values))
            if full:
                out.checks = checks + [_diagonal_check([values])] + self._file_checks(d, fitted)
            return out
        finally:
            shutil.rmtree(d)

    def _file_checks(self, d, fitted):
        checks = []
        with open(f"{d}/bal.json") as f:
            bal = json.load(f)
        with open(f"{d}/uni.json") as f:
            uni = json.load(f)
        ratios = _max_min_ratio(bal["per_cell_counts"]), _max_min_ratio(uni["per_cell_counts"])
        checks.append(("balanced cells flatter than uniform", ratios[0] < ratios[1],
                       f"max/min {ratios[0]:.3f} vs {ratios[1]:.3f}"))

        projected = latbal.load_direction(f"{d}/attr0_conditional.json")
        leak = max(abs(float(projected.vector @ u.vector)) for u in fitted[1:])
        checks.append(("projection is orthogonal to the others", leak <= 1e-9,
                       f"max |cos| {leak:.2e}"))

        demo = read_dataset(f"{d}/demo")
        write_dataset(demo, f"{d}/readback")
        same = all(filecmp.cmp(a, b, shallow=False) for a, b in
                   zip(dataset_paths(f"{d}/demo"), dataset_paths(f"{d}/readback")))
        checks.append(("read-back dataset rewrites bit for bit", same, f"n={demo.n}"))

        edited = read_dataset(f"{d}/edited")
        expected = demo.codes + ALPHA * fitted[0].vector
        exact = (edited.codes.tobytes() == expected.tobytes()
                 and np.array_equal(edited.labels, demo.labels)
                 and np.array_equal(edited.confidences, demo.confidences))
        checks.append(("edited codes equal codes + alpha*u bit for bit", exact, ""))
        return checks


class SvmFit:
    """SVM directions at two values of C on a balanced 500-row subsample, then rescore."""

    name = "svm_fit"
    N = 100_000
    # 400 rows, not the CLI's 1000: a pass takes 40% of the time, so a run
    # holds three or more passes even on a slow machine.  The convergence
    # pattern is the same (C=1e-2 converges, C=1 stops at max_iter); with
    # fewer rows the C=1 directions, and so cos_truth_min, vary more by seed.
    N0 = 400
    C_VALUES = (1e-2, 1.0)
    TOL = 1e-6          # latbal fit --tol default
    MAX_ITER = 1000     # latbal fit --max-iter default

    def __init__(self, seed: int, workdir: str):
        self.seed = seed

    def build(self):
        world = latbal.default_world(seed=self.seed)
        data = latbal.sample_world(world, self.N, seed=self.seed)
        picked = latbal.balanced_subsample(
            data, latbal.build_contingency(data),
            latbal.SamplePlan(n0=self.N0, policy="skip", seed=self.seed))
        latents = latbal.rng.normals(latbal.rng.derive_seed(self.seed, 1), N_EVAL * world.dim)
        return world, data.select(picked.indices), latents.reshape(N_EVAL, world.dim)

    def run(self, state, tracer):
        world, fit_set, latents = state
        out = []
        for c in self.C_VALUES:
            dirs = latbal.evaluation.fit_directions(fit_set, "svm", c=c, tol=self.TOL,
                                                    max_iter=self.MAX_ITER, seed=self.seed)
            out.append((dirs, latbal.evaluation.rescore(world.score, dirs, latents, ALPHA)))
        return world, out

    def inspect(self, result, full: bool) -> Outcome:
        world, fits = result
        digest = hashlib.sha256()
        for dirs, matrix in fits:
            for u in dirs:
                digest.update(u.vector.tobytes())
                digest.update(json.dumps(u.meta, sort_keys=True).encode())
            digest.update(matrix.values.tobytes())
        every = [u for dirs, _ in fits for u in dirs]
        cosines, checks = _direction_checks([(u.attribute, u.vector) for u in every],
                                            world.vectors)
        out = Outcome(ops=2 * len(fits), failed_ops=0, digest=digest.hexdigest(),
                      cosines=cosines,
                      entanglement=[e for _, m in fits for e in _entanglement_rows(m.values)])
        if full:
            honest = all(u.meta["converged"] == (u.meta["duality_gap"] <= self.TOL)
                         and (u.meta["converged"] or u.meta["iterations"] == self.MAX_ITER)
                         for u in every)
            out.checks = checks + [
                _diagonal_check([m.values for _, m in fits]),
                ("converged flag matches gap <= tol and the epoch count", honest, ""),
            ]
        return out


class SweepSizes:
    """sweep_sample_size on an in-memory 200k dataset over n0 x policy, centroid, 3 runs."""

    name = "sweep_sizes"
    N = 200_000
    SIZES = (1000, 10_000, 100_000)
    POLICIES = ("skip", "oversample", "uniform")
    RUNS = 3

    def __init__(self, seed: int, workdir: str):
        self.seed = seed

    def build(self):
        world = latbal.default_world(seed=self.seed)
        return world, latbal.sample_world(world, self.N, seed=self.seed)

    def run(self, state, tracer):
        world, data = state
        kept = Capture("fit_directions", "balanced_subsample", "uniform_subsample", "rescore")
        with kept.installed():
            report = latbal.evaluation.sweep_sample_size(
                data, world.score, self.SIZES, methods=("centroid",),
                policies=self.POLICIES, runs=self.RUNS, seed=self.seed)
        return world, report, kept.kept

    def inspect(self, result, full: bool) -> Outcome:
        world, report, kept = result
        errors = {(r.parameter, r.method, r.policy) for r in report.rows if r.error}
        every = [u for dirs in kept["fit_directions"] for u in dirs]
        cosines, checks = _direction_checks([(u.attribute, u.vector) for u in every],
                                            world.vectors)
        digest = hashlib.sha256(sweep_to_csv(report).encode())
        for u in every:
            digest.update(u.vector.tobytes())
        out = Outcome(ops=len(self.SIZES) * len(self.POLICIES), failed_ops=len(errors),
                      digest=digest.hexdigest(), cosines=cosines,
                      entanglement=[e for m in kept["rescore"]
                                    for e in _entanglement_rows(m.values)])
        if full:
            finite = all(math.isfinite(v) for r in report.rows
                         for v in (r.effect, r.entanglement, r.effect_std, r.entanglement_std))
            checks.append(("sweep rows are finite", finite, f"{len(report.rows)} rows"))
            checks.append(_diagonal_check([m.values for m in kept["rescore"]]))
            picks = kept["balanced_subsample"] + kept["uniform_subsample"]
            for n0 in self.SIZES:
                ratios = {kind: [_max_min_ratio(p.per_cell_counts) for p in picks
                                 if p.meta["n0"] == n0 and p.meta["kind"] == kind]
                          for kind in ("balanced", "uniform")}
                checks.append((f"balanced cells flatter than uniform at n0={n0}",
                               max(ratios["balanced"]) < min(ratios["uniform"]),
                               f"max/min {max(ratios['balanced']):.3f} vs "
                               f"{min(ratios['uniform']):.3f}"))
            out.checks = checks
        return out


WORKLOADS = {w.name: w for w in (Walkthrough, SvmFit, SweepSizes)}
