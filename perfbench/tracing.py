"""Spans around calls into latbal's layers, recorded from outside the package.

Nothing in ``src/`` knows it is being traced.  ``Tracer.installed`` rebinds
the names that callers look up at call time (``latbal.cli.read_dataset``,
``latbal.directions.train_svm``, ``LatentDataset.select`` ...) to wrappers
that record a span, and restores the originals on exit.  Spans live in memory
as plain dicts and are written out once, when the run ends.

A span's self time is its duration minus the time covered by its child
spans; summed per layer, self times add up to the time the pass spent inside
top-level spans.  Whatever is left of a pass's wall time is ``unattributed``:
benchmark glue between calls.

``Capture`` is the untraced counterpart: it keeps the return values of a few
calls that happen inside the program (the sweep's fitted directions,
subsamples and rescores) so the benchmark can check them, and records no
timing.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager

import numpy as np

import latbal
import latbal.cli
import latbal.dataio
import latbal.directions
import latbal.evaluation
import latbal.oracle
from latbal.core import LatentDataset
from latbal.oracle import LinearAttributeWorld

LAYERS = ("cli", "dataio", "oracle", "rng", "core", "contingency", "sampler",
          "svm", "directions", "evaluation")

# The C values the svm_fit workload uses; per-C svm metrics use these tags.
SVM_C_TAGS = {0.01: "c1e-2", 1.0: "c1"}


def _dataset_bytes(out, args, kwargs):
    base = args[0] if args else kwargs["path_base"]
    return {"bytes": sum(os.path.getsize(p) for p in latbal.dataio.dataset_paths(base))}


def _payload_bytes(out, args, kwargs):
    return {"bytes": len(args[1] if len(args) > 1 else kwargs["payload"])}


def _select_rows(out, args, kwargs):
    return {"rows": int(out.n)}


def _subsample_counts(out, args, kwargs):
    n0 = int(out.meta["n0"])
    return {"draws": n0, "skipped": int(out.skipped_iterations), "size": out.size}


def _svm_counts(out, args, kwargs):
    n = int(out.alphas.shape[0])
    return {"c": float(out.c), "epochs": int(out.iterations), "n": n,
            "converged": int(out.converged), "gap": float(out.duality_gap),
            "support": int(np.count_nonzero(out.alphas))}


def _variates(out, args, kwargs):
    return {"variates": int(out.size)}


def _sweep_errors(out, args, kwargs):
    return {"error_rows": sum(r.error is not None for r in out.rows)}


def _codes(out, args, kwargs):
    return {"codes": int(out.n)}


# (owner, attribute, layer, counter).  Each entry is a name some caller looks
# up at call time; a function imported into several modules is listed once
# per importing module.
TRACE_POINTS = [
    (latbal.cli, "read_dataset", "dataio", _dataset_bytes),
    (latbal.cli, "write_dataset", "dataio", None),
    (latbal.cli, "atomic_write_text", "dataio", None),
    (latbal.dataio, "atomic_write_text", "dataio", None),
    (latbal.dataio, "atomic_write_bytes", "dataio", _payload_bytes),
    (latbal.dataio, "validate_dataset", "core", None),
    (LatentDataset, "select", "core", _select_rows),
    (latbal.evaluation, "split_by_attribute", "core", None),
    (latbal.cli, "build_contingency", "contingency", None),
    (latbal.evaluation, "build_contingency", "contingency", None),
    (latbal.cli, "write_contingency_csv", "contingency", None),
    (latbal.cli, "imbalance_stats", "contingency", None),
    (latbal.cli, "balanced_subsample", "sampler", _subsample_counts),
    (latbal.cli, "uniform_subsample", "sampler", _subsample_counts),
    (latbal.evaluation, "balanced_subsample", "sampler", _subsample_counts),
    (latbal.evaluation, "uniform_subsample", "sampler", _subsample_counts),
    (latbal.cli, "write_subsample", "sampler", None),
    (latbal.cli, "read_subsample_indices", "sampler", None),
    (latbal.directions, "train_svm", "svm", _svm_counts),
    (latbal.evaluation, "centroid_direction", "directions", None),
    (latbal.evaluation, "svm_direction", "directions", None),
    (latbal.cli, "conditional_project", "directions", None),
    (latbal.cli, "edit_latent", "directions", None),
    (latbal.cli, "load_direction", "directions", None),
    (latbal.cli, "save_direction", "directions", None),
    (latbal.cli, "fit_directions", "evaluation", None),
    (latbal.cli, "rescore", "evaluation", None),
    (latbal.cli, "save_rescore", "evaluation", None),
    (latbal.cli, "_eval_latents", "evaluation", None),
    (latbal.evaluation, "fit_directions", "evaluation", None),
    (latbal.evaluation, "rescore", "evaluation", None),
    (latbal.evaluation, "_eval_latents", "evaluation", None),
    (latbal.evaluation, "sweep_sample_size", "evaluation", _sweep_errors),
    (latbal.cli, "default_world", "oracle", None),
    (latbal.cli, "make_world", "oracle", None),
    (latbal.oracle, "make_world", "oracle", None),
    (latbal.cli, "sample_world", "oracle", _codes),
    (latbal.cli, "save_world", "oracle", None),
    (latbal.cli, "load_world", "oracle", None),
    (LinearAttributeWorld, "score", "oracle", None),
    (latbal.oracle, "normals", "rng", _variates),
    (latbal.evaluation, "normals", "rng", _variates),
    # package-level names the benchmark's own set-up calls
    (latbal, "default_world", "oracle", None),
    (latbal, "sample_world", "oracle", _codes),
    (latbal, "build_contingency", "contingency", None),
    (latbal, "balanced_subsample", "sampler", _subsample_counts),
    (latbal.rng, "normals", "rng", _variates),
]


@contextmanager
def _rebound(bindings):
    """Temporarily set owner.attr = replacement for each (owner, attr, replacement)."""
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in bindings]
    try:
        for owner, attr, replacement in bindings:
            setattr(owner, attr, replacement)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


class Capture:
    """Return values of named ``latbal.evaluation`` calls made inside the program, untimed."""

    def __init__(self, *names):
        self.names = names
        self.kept = {name: [] for name in names}

    def _keep(self, fn, sink):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            sink.append(out)
            return out
        return wrapper

    @contextmanager
    def installed(self):
        ev = latbal.evaluation
        with _rebound([(ev, name, self._keep(ev.__dict__[name], self.kept[name]))
                       for name in self.names]):
            yield


class Tracer:
    """In-memory spans: id, name, layer, start, end, parent, pass id, counts."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.pass_id = None

    def _open(self, name, layer):
        span = {"id": len(self.spans), "name": name, "layer": layer,
                "start": time.perf_counter(), "end": None,
                "parent": self._stack[-1] if self._stack else None,
                "pass": self.pass_id, "counts": {}}
        self.spans.append(span)
        self._stack.append(span["id"])
        return span

    def _close(self, span):
        span["end"] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name, layer):
        span = self._open(name, layer)
        try:
            yield span
        finally:
            self._close(span)

    def _wrap(self, fn, layer, counter):
        name = f"{layer}.{fn.__name__}"

        def wrapper(*args, **kwargs):
            span = self._open(name, layer)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(span)
            if counter is not None:
                span["counts"] = counter(out, args, kwargs)
            return out
        return wrapper

    @contextmanager
    def installed(self, pass_id):
        self.pass_id = pass_id
        bindings = [(owner, attr, self._wrap(owner.__dict__[attr], layer, counter))
                    for owner, attr, layer, counter in TRACE_POINTS]
        try:
            with _rebound(bindings):
                yield
        finally:
            self.pass_id = None

    def pass_spans(self, pass_id):
        return [s for s in self.spans if s["pass"] == pass_id]


def _duration(span):
    return span["end"] - span["start"]


def _self_time(spans) -> dict[int, float]:
    """Span id -> its duration minus the durations of its child spans."""
    own = {s["id"]: _duration(s) for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= _duration(s)
    return own


def layer_metrics(spans, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass (values only; units live in BENCHMARK.json)."""
    by_id = {s["id"]: s for s in spans}
    own = _self_time(spans)

    def named(*names):
        return [s for s in spans if s["name"] in names]

    def outermost(*names):
        # time in the named spans, not counting those nested inside one another
        return sum(_duration(s) for s in named(*names)
                   if s["parent"] is None or by_id[s["parent"]]["name"] not in names)

    def self_of(name):
        return sum(own[s["id"]] for s in named(name))

    def total(name, key):
        return sum(s["counts"].get(key, 0) for s in named(name))

    m = {}
    for cmd in ("synth", "contingency", "sample", "fit", "eval", "project", "edit"):
        m[f"cli.{cmd}_s"] = sum(_duration(s) for s in named(f"cli.{cmd}"))
    m["cli.nonzero_exits"] = sum(s["counts"].get("nonzero_exit", 0)
                                 for s in spans if s["layer"] == "cli")

    m["dataio.read_s"] = outermost("dataio.read_dataset")
    m["dataio.read_calls"] = len(named("dataio.read_dataset"))
    m["dataio.read_bytes"] = total("dataio.read_dataset", "bytes")
    writes = ("dataio.write_dataset", "dataio.atomic_write_text", "dataio.atomic_write_bytes")
    m["dataio.write_s"] = outermost(*writes)
    m["dataio.write_bytes"] = total("dataio.atomic_write_bytes", "bytes")

    m["oracle.sample_world_s"] = outermost("oracle.sample_world")
    m["oracle.codes"] = total("oracle.sample_world", "codes")
    m["oracle.score_s"] = outermost("oracle.score")
    m["oracle.score_calls"] = len(named("oracle.score"))
    m["rng.normals_s"] = outermost("rng.normals")
    m["rng.variates"] = total("rng.normals", "variates")

    m["core.select_s"] = outermost("core.select")
    m["core.select_rows"] = total("core.select", "rows")
    m["core.validate_s"] = outermost("core.validate_dataset")
    m["contingency.build_s"] = outermost("contingency.build_contingency")

    m["sampler.balanced_s"] = outermost("sampler.balanced_subsample")
    m["sampler.uniform_s"] = outermost("sampler.uniform_subsample")
    draws = named("sampler.balanced_subsample", "sampler.uniform_subsample")
    m["sampler.draws"] = sum(s["counts"]["draws"] for s in draws)
    m["sampler.skipped"] = sum(s["counts"]["skipped"] for s in draws)
    size = sum(s["counts"]["size"] for s in draws)
    m["sampler.useful_frac"] = size / m["sampler.draws"] if m["sampler.draws"] else 0.0

    fits = named("svm.train_svm")
    for tag, group in [("", fits)] + [
            (f"{t}.", [s for s in fits if s["counts"]["c"] == c]) for c, t in SVM_C_TAGS.items()]:
        m.update(_svm_metrics(f"svm.{tag}", group))
    m["svm.converged_frac"] = m["svm.converged_fits"] / m["svm.fits"] if fits else 0.0

    m["directions.centroid_s"] = outermost("directions.centroid_direction")
    m["directions.svm_self_s"] = self_of("directions.svm_direction")
    m["directions.project_s"] = outermost("directions.conditional_project")
    m["evaluation.fit_directions_self_s"] = self_of("evaluation.fit_directions")
    m["evaluation.rescore_s"] = outermost("evaluation.rescore")
    m["evaluation.rescore_calls"] = len(named("evaluation.rescore"))
    m["evaluation.sweep_self_s"] = self_of("evaluation.sweep_sample_size")
    m["evaluation.sweep_error_rows"] = total("evaluation.sweep_sample_size", "error_rows")

    for layer in LAYERS:
        m[f"self.{layer}_s"] = sum(own[s["id"]] for s in spans if s["layer"] == layer)
    top = sum(_duration(s) for s in spans if s["parent"] is None)
    m["self.unattributed_s"] = wall_s - top
    m["trace.spans"] = len(spans)
    return m


def _svm_metrics(prefix, fits):
    train_s = sum(_duration(s) for s in fits)
    epochs = sum(s["counts"]["epochs"] for s in fits)
    n_total = sum(s["counts"]["n"] for s in fits)
    return {
        f"{prefix}train_s": train_s,
        f"{prefix}fits": len(fits),
        f"{prefix}epochs": epochs,
        f"{prefix}epoch_ms": 1e3 * train_s / epochs if epochs else 0.0,
        f"{prefix}coord_steps": sum(s["counts"]["epochs"] * s["counts"]["n"] for s in fits),
        f"{prefix}converged_fits": sum(s["counts"]["converged"] for s in fits),
        f"{prefix}gap_max": max((s["counts"]["gap"] for s in fits), default=0.0),
        f"{prefix}support_frac": (sum(s["counts"]["support"] for s in fits) / n_total
                                  if n_total else 0.0),
    }


# Counts that must repeat exactly between traced passes at one seed.
EXACT_COUNTS = ("svm.epochs", "svm.converged_fits", "sampler.skipped", "sampler.draws",
                "dataio.read_bytes", "dataio.write_bytes")
