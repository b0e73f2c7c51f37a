#!/usr/bin/env python3
"""latbal benchmark runner.

    python3 perfbench/run.py --workload walkthrough --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the repository root.  latbal is imported from ``src/`` next to this
directory and nowhere else; without it the runner exits 1.  Set-up (a fresh
interpreter importing latbal, plus the workload's in-memory inputs) is
repeated and its median reported.  Then whole passes of the workload run,
one at a time, until ``--seconds`` have gone by (at least two, so the second
pass's output digest can be compared with the first's).  A fixed reference
loop runs before the first pass and after every pass; ``wall_ref`` is the
mean pass wall time over the mean reference time, which takes out most of
the speed changes of a shared machine (see README.md).

With ``--trace 0`` the last stdout line reports the end-to-end metrics; with
``--trace 1`` passes alternate traced and untraced (at least two traced) and
it reports the per-layer metrics.  Metric names and units come from
BENCHMARK.json at the repository root.  A record of the run (metadata, every
pass, every check, and in traced runs every span) goes to
``.perfbench/out/``; walkthrough files go to ``.perfbench/work/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"

# One BLAS/OpenMP thread: numpy's OpenBLAS would otherwise start up to 64,
# and on a shared two-core machine extra threads add noise, not speed.
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
# Layer metrics also reported for one traced set-up build.
SETUP_LAYER_METRICS = ("oracle.sample_world_s", "oracle.codes", "rng.normals_s",
                       "rng.variates", "sampler.balanced_s", "contingency.build_s")

MASK64 = (1 << 64) - 1
REFERENCE_ROWS = [f"{i},{i % 7},{i * 0.5}" for i in range(2000)]


def reference_seconds() -> float:
    """Wall time of a fixed loop that does no latbal work, as a measure of how
    fast the machine runs Python right now.  It mixes what the workloads do:
    64-bit integer mixing (the sampler's PRNG), small numpy operations from a
    Python loop (the SVM), and parsing text rows (dataset files).  It keeps
    no new objects, so its time does not depend on the workload's heap."""
    import numpy as np

    t0 = time.perf_counter()
    z = 12345
    for _ in range(600_000):
        z = (z + 0x9E3779B97F4A7C15) & MASK64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    x, w = np.arange(1.0, 9.0), np.zeros(8)
    for _ in range(160_000):
        if float(x @ w) < 1.0:
            w += 1e-6 * x
    total = 0.0
    for _ in range(160):
        for row in REFERENCE_ROWS:
            total += float(row.split(",")[2])
    assert z > 0 and total > 0.0
    return time.perf_counter() - t0


IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import latbal; "
                "print(time.perf_counter() - t)")


def parse_args(argv, workload_names):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workload_names + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_latbal():
    """Import latbal from this checkout's src/, or exit non-zero."""
    if not (SRC / "latbal" / "__init__.py").is_file():
        sys.exit(f"perfbench: no latbal package under {SRC}")
    sys.path.insert(0, str(SRC))
    import latbal
    if Path(latbal.__file__).resolve().parent != SRC / "latbal":
        sys.exit(f"perfbench: imported latbal from {latbal.__file__}, not {SRC}")


def import_seconds() -> float:
    """Time to import latbal in a fresh interpreter (numpy included)."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + name):
            return line.split()[0]
    return "unknown"


def run_metadata(args) -> dict:
    import numpy as np

    src_lines = sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "numpy": np.__version__, "blas_threads": {v: os.environ[v] for v in THREAD_VARS},
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(), "src_lines": src_lines,
    }


def measure_setup(workload):
    """Set-up time of SETUP_REPEATS builds; returns (samples, last state).

    One untimed import first, so that compiling src/ to bytecode in a fresh
    checkout is not counted.
    """
    import_seconds()
    samples, state = [], None
    for _ in range(SETUP_REPEATS):
        imported = import_seconds()
        state = None
        t0 = time.perf_counter()
        state = workload.build()
        samples.append(imported + time.perf_counter() - t0)
    return samples, state


class Ledger:
    """Operations attempted and failed, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.checks: list[dict] = []

    def ops(self, attempted: int, failed: int, what: str):
        self.attempted += attempted
        self.failures += [what] * failed

    def check(self, name: str, ok: bool, detail: str = ""):
        self.attempted += 1
        self.checks.append({"check": name, "ok": bool(ok), "detail": detail})
        if not ok:
            self.failures.append(f"check failed: {name} ({detail})")


def run_passes(workload, state, seconds: float, tracer, ledger: Ledger):
    """Closed loop of passes; with a tracer, even-numbered passes are traced."""
    traced = tracer is not None
    passes, first = [], None
    start = time.perf_counter()
    refs = [reference_seconds()]

    def enough():
        n_traced = sum(p["traced"] for p in passes)
        minimum = n_traced >= 2 and len(passes) >= 3 if traced else len(passes) >= 2
        # Stop once another pass would end mostly after the deadline.
        ends = time.perf_counter() - start + (passes[-1]["wall_s"] / 2 if passes else 0.0)
        return minimum and ends >= seconds

    while not enough():
        k = len(passes)
        is_traced = traced and k % 2 == 0
        try:
            if is_traced:
                with tracer.installed(pass_id=k):
                    t0 = time.perf_counter()
                    result = workload.run(state, tracer)
                    wall = time.perf_counter() - t0
            else:
                t0 = time.perf_counter()
                result = workload.run(state, None)
                wall = time.perf_counter() - t0
            outcome = workload.inspect(result, full=first is None)
        except Exception as exc:  # a pass that raises is a failed operation; stop measuring
            ledger.ops(1, 1, f"pass {k} raised {type(exc).__name__}: {exc}")
            break
        refs.append(reference_seconds())
        ledger.ops(outcome.ops, outcome.failed_ops, f"pass {k}: failed operation")
        for name, ok, detail in outcome.checks:
            ledger.check(name, ok, detail)
        if first is None:
            first = outcome
        else:
            ledger.check(f"pass {k} output digest equals pass 0", outcome.digest == first.digest)
        passes.append({"pass": k, "traced": is_traced, "wall_s": wall, "outcome": outcome})
    return passes, refs


def traced_build(workload, tracer):
    """One more set-up build, traced, so set-up's layer times can be reported."""
    with tracer.installed(pass_id="setup"):
        t0 = time.perf_counter()
        workload.build()
        wall = time.perf_counter() - t0
    return wall


def end_to_end(passes, refs, setup_samples):
    """(value, sample count) of each end-to-end metric."""
    walls = [p["wall_s"] for p in passes]
    first = passes[0]["outcome"]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "wall_ref": (statistics.fmean(walls) / statistics.fmean(refs), len(walls)),
        "wall_s": (statistics.median(walls), len(walls)),
        "ref_s": (statistics.median(refs), len(refs)),
        "setup_s": (statistics.median(setup_samples), len(setup_samples)),
        "peak_rss_mb": (rss_mb, 1),
        "cos_truth_min": (min(first.cosines), len(first.cosines)),
    }


def per_layer(passes, tracer, setup_wall, ledger):
    from tracing import EXACT_COUNTS, layer_metrics

    traced = [p for p in passes if p["traced"]]
    untraced = [p["wall_s"] for p in passes if not p["traced"]]
    if not traced or not untraced:
        return {}
    per_pass = [layer_metrics(tracer.pass_spans(p["pass"]), p["wall_s"]) for p in traced]
    for name in EXACT_COUNTS:
        seen = sorted({m[name] for m in per_pass})
        ledger.check(f"{name} repeats exactly across traced passes", len(seen) == 1, str(seen))
    out = {name: (statistics.median(m[name] for m in per_pass), len(per_pass))
           for name in per_pass[0]}
    traced_wall = statistics.median(p["wall_s"] for p in traced)
    out["trace.wall_s"] = (traced_wall, len(traced))
    out["trace.untraced_wall_s"] = (statistics.median(untraced), len(untraced))
    out["trace.overhead_s"] = (traced_wall - statistics.median(untraced), len(passes))
    first = traced[0]["outcome"]
    out["evaluation.entanglement_mean"] = (statistics.fmean(first.entanglement),
                                           len(first.entanglement))
    setup = layer_metrics(tracer.pass_spans("setup"), setup_wall)
    out["setup.wall_s"] = (setup_wall, 1)
    for name in SETUP_LAYER_METRICS:
        out[f"setup.{name}"] = (setup[name], 1)
    return out


def print_table(values: dict, units: dict):
    print(f"# {'metric':<34} {'value':>16} {'unit':<6} samples")
    for name, (value, samples) in values.items():
        print(f"# {name:<34} {value:>16.6g} {units.get(name, ''):<6} {samples}")


def run_one(args, spec) -> int:
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS  # before numpy is first imported
    import_latbal()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import WORKLOADS

    meta = run_metadata(args)
    print("# meta " + json.dumps(meta, sort_keys=True))
    (STATE / "work").mkdir(parents=True, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=STATE / "work")
    workload = WORKLOADS[args.workload](args.seed, workdir)
    ledger = Ledger()
    tracer = setup_wall = None
    try:
        setup_samples, state = measure_setup(workload)
        if args.trace:
            from tracing import Tracer
            tracer = Tracer()
            setup_wall = traced_build(workload, tracer)
        passes, refs = run_passes(workload, state, args.seconds, tracer, ledger)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = {}
    if passes:
        values = per_layer(passes, tracer, setup_wall, ledger) if args.trace else \
            end_to_end(passes, refs, setup_samples)
        missing = [m["name"] for m in wanted if m["name"] not in values]
        ledger.check("every metric in BENCHMARK.json was measured", not missing, str(missing))
        values["fail_frac"] = (len(ledger.failures) / ledger.attempted, ledger.attempted)
        print_table(values, {"wall_s": "s", "ref_s": "s", "fail_frac": "frac",
                             **{m["name"]: m["unit"] for m in wanted}})
    for reason in ledger.failures:
        print(f"# FAILED {reason}")

    record = {"meta": meta, "setup_s": setup_samples, "ref_s": refs, "checks": ledger.checks,
              "failures": ledger.failures,
              "passes": [{"pass": p["pass"], "traced": p["traced"], "wall_s": p["wall_s"],
                          "digest": p["outcome"].digest} for p in passes],
              "metrics": {k: v for k, (v, _) in values.items()}}
    if tracer is not None and tracer.spans:
        t0 = tracer.spans[0]["start"]
        record["spans"] = [dict(s, start=s["start"] - t0, end=s["end"] - t0)
                           for s in tracer.spans]
    (STATE / "out").mkdir(parents=True, exist_ok=True)
    out = STATE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")

    metrics = {m["name"]: {"value": values.get(m["name"], (0.0, 0))[0], "unit": m["unit"]}
               for m in wanted}
    print(json.dumps({"correct": not ledger.failures, "attempted": ledger.attempted,
                      "failed": len(ledger.failures), "metrics": metrics}))
    return 0


def run_all(args, workload_names) -> int:
    """Each workload in its own process, one after another; a combined last line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workload_names:
        print(f"# workload {name}", flush=True)
        proc = subprocess.run([sys.executable, __file__, "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              capture_output=True, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    args = parse_args(argv, names)
    return run_all(args, names) if args.workload == "all" else run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
