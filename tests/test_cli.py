import argparse
import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import latbal as lb
from latbal.cli import build_parser, main
from latbal import dataio
from latbal.dataio import block_rows, dataset_paths

from conftest import traced_peak

_SUB = "position,row_index"  # a subsample CSV's header


def run(*argv):
    """The exit code, whether main returns it or argparse exits on a bad flag."""
    try:
        return main(list(argv))
    except SystemExit as exc:
        return exc.code


@pytest.fixture()
def synth_base(tmp_path):
    base = str(tmp_path / "data")
    assert run("synth", "--out", base, "--n", "4000", "--seed", "42") == 0
    return base


def test_synth_writes_dataset_and_world(tmp_path, synth_base):
    ds = lb.read_dataset(synth_base)
    assert ds.n == 4000 and ds.dim == 64 and ds.m == 4
    world = lb.load_world(synth_base + ".world.json")
    assert world.names == ds.schema.names


def test_synth_custom_world(tmp_path):
    base = str(tmp_path / "c")
    code = run("synth", "--out", base, "--n", "500", "--dim", "16",
               "--names", "glasses,gender", "--rates", "0.5,0.3",
               "--corr", "0,1,0.4", "--seed", "1")
    assert code == 0
    world = lb.load_world(base + ".world.json")
    assert world.names == ("glasses", "gender")
    assert world.gram[0, 1] == 0.4
    assert lb.read_dataset(base).m == 2


@pytest.mark.parametrize("n", [0, 1, 8191, 8192, 8193])
@pytest.mark.parametrize("flags", [[], ["--dim", "7"]], ids=["default", "dim-7"])
def test_synth_writes_the_bytes_of_the_sampled_dataset(tmp_path, n, flags):
    # synth draws, labels and writes 8192 rows at a time; at dim 7 a block's
    # counter offset falls inside a 2^16-variate block of the one-call stream
    base = str(tmp_path / "s")
    assert run("synth", "--out", base, "--n", str(n), "--seed", "5", *flags) == 0
    world = lb.load_world(base + ".world.json")
    lb.write_dataset(lb.sample_world(world, n, seed=5), str(tmp_path / "w"))
    for ours, theirs in zip(dataset_paths(base), dataset_paths(str(tmp_path / "w"))):
        assert Path(ours).read_bytes() == Path(theirs).read_bytes()


def test_synth_holds_one_block_of_codes(tmp_path):
    # one block_rows(64)-row block is drawn, labelled and written at a time:
    # the peak is that block (1 MiB), the labels and the normals' fixed scratch,
    # where the whole code array would be 102 MB at 200k codes
    code, peak = traced_peak(run, "synth", "--out", str(tmp_path / "s"), "--n", "200000",
                             "--seed", "3")
    assert code == 0
    assert peak < 0.1 * 200_000 * 64 * 8


def test_any_custom_world_flag_starts_from_an_uncorrelated_world(tmp_path):
    # one flag is enough to leave the demo world: every other value comes from
    # the custom-world baseline (dim 64, four attributes, identity Gram, rates
    # 0.5, sharpness 1), not from the demo world (cosine 0.6, skewed rates)
    base, world_out = str(tmp_path / "s"), tmp_path / "worlds" / "w.json"
    assert run("synth", "--out", base, "--n", "100", "--sharpness", "2",
               "--world-out", str(world_out), "--seed", "42") == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["s.labels.csv", "s.latd", "worlds"]
    world = lb.load_world(str(world_out))
    assert (world.dim, world.names, world.sharpness) == (
        64, ("attr0", "attr1", "attr2", "attr3"), 2.0)
    assert np.array_equal(world.gram, np.eye(4))
    assert world.rates.tolist() == [0.5] * 4
    assert lb.default_world(seed=42).gram[0, 1] == 0.6
    assert lb.read_dataset(base).schema.names == world.names


def test_contingency_command(tmp_path, synth_base, capsys):
    out = str(tmp_path / "table.csv")
    stats = str(tmp_path / "stats.json")
    assert run("contingency", "--data", synth_base, "--out", out, "--stats", stats) == 0
    lines = Path(out).read_text().splitlines()
    assert lines[0] == "cell_index,bits,count"
    assert len(lines) == 17
    payload = json.loads(Path(stats).read_text())
    assert payload["nonempty_cells"] >= 14
    assert payload["max_min_ratio"] > 3


def test_sample_fit_eval_pipeline(tmp_path, synth_base):
    sub = str(tmp_path / "sub")
    assert run("sample", "--data", synth_base, "--mode", "balanced",
               "--n0", "400", "--policy", "skip", "--seed", "42", "--out", sub) == 0
    sidecar = json.loads(Path(sub + ".json").read_text())
    assert sidecar["policy"] == "skip" and sidecar["size"] <= 400

    fits = str(tmp_path / "dirs")
    assert run("fit", "--data", synth_base, "--subsample", sub + ".csv",
               "--method", "centroid", "--out-dir", fits, "--seed", "42") == 0
    names = lb.read_dataset(synth_base).schema.names
    dirs = [lb.load_direction(f"{fits}/{n}.json") for n in names]
    assert [d.attribute for d in dirs] == [0, 1, 2, 3]

    out = str(tmp_path / "scores")
    assert run("eval", "--world", synth_base + ".world.json",
               "--directions", *[f"{fits}/{n}.json" for n in names],
               "--alpha", "0.2", "--n", "500", "--seed", "7", "--out", out) == 0
    lines = Path(out + ".csv").read_text().splitlines()
    assert lines[0] == "direction,attribute,value"
    assert len(lines) == 1 + 16
    payload = json.loads(Path(out + ".json").read_text())
    values = np.array(payload["values"])
    assert np.all(np.diag(values) > 0)


def test_uniform_sample_mode(tmp_path, synth_base):
    sub = str(tmp_path / "uni")
    assert run("sample", "--data", synth_base, "--mode", "uniform",
               "--n0", "100", "--seed", "3", "--out", sub) == 0
    rows = Path(sub + ".csv").read_text().splitlines()
    assert rows[0] == "position,row_index"
    assert len(rows) == 101


def test_fit_svm_and_project(tmp_path, synth_base):
    fits = str(tmp_path / "svmdirs")
    assert run("fit", "--data", synth_base, "--method", "svm", "--c", "0.01",
               "--tol", "1e-3", "--max-iter", "50", "--out-dir", fits,
               "--seed", "5") == 0
    names = lb.read_dataset(synth_base).schema.names
    target = f"{fits}/{names[0]}.json"
    others = [f"{fits}/{n}.json" for n in names[1:]]
    out = str(tmp_path / "proj.json")
    assert run("project", "--target", target, "--others", *others, "--out", out) == 0
    proj = lb.load_direction(out)
    assert proj.method == "conditional"
    for path in others:
        other = lb.load_direction(path)
        assert abs(float(proj.vector @ other.vector)) <= 1e-10


def test_unconverged_svm_fit_warns_per_attribute(tmp_path, synth_base, capsys):
    names = lb.read_dataset(synth_base).schema.names
    capsys.readouterr()
    assert run("fit", "--data", synth_base, "--method", "svm", "--max-iter", "5",
               "--out-dir", str(tmp_path / "svm"), "--seed", "5") == 0
    warnings = capsys.readouterr().err.splitlines()
    assert len(warnings) == len(names)
    for name, line in zip(names, warnings):
        gap = lb.load_direction(str(tmp_path / "svm" / f"{name}.json")).meta["duality_gap"]
        assert f"warning: {name}:" in line
        assert "5 iterations" in line and f"{gap:.3g}" in line and "tol 1e-06" in line


@pytest.mark.parametrize("c,cause", [("1e8", "Singular matrix"),
                                     ("1e300", "overflow encountered in matmul")])
def test_svm_fit_at_a_huge_c_is_data_error_naming_attribute_and_c(tmp_path, capsys, c, cause):
    base = str(tmp_path / "d")
    assert run("synth", "--out", base, "--n", "2000", "--seed", "1") == 0
    capsys.readouterr()
    out = tmp_path / "dirs"
    assert run("fit", "--data", base, "--method", "svm", "--c", c, "--out-dir", str(out)) == 2
    j = {"1e8": 3, "1e300": 0}[c]  # the first attribute whose fit fails
    assert capsys.readouterr().err == (f"latbal fit: attribute {j}: SVM at C = {float(c):g} "
                                       f"is numerically unstable ({cause}); try a smaller C\n")
    assert not out.exists()


def test_default_svm_fit_on_balanced_subsample_converges(tmp_path, synth_base, capsys):
    sub = str(tmp_path / "bal")
    assert run("sample", "--data", synth_base, "--n0", "1000", "--seed", "42",
               "--out", sub) == 0
    capsys.readouterr()
    assert run("fit", "--data", synth_base, "--subsample", sub + ".csv", "--method", "svm",
               "--out-dir", str(tmp_path / "svm")) == 0
    assert capsys.readouterr().err == ""
    for name in lb.read_dataset(synth_base).schema.names:
        meta = lb.load_direction(str(tmp_path / "svm" / f"{name}.json")).meta
        assert meta["converged"] is True and meta["duality_gap"] <= 1e-6
        assert 0 < meta["iterations"] < 1000


def test_centroid_fit_prints_no_warning(tmp_path, synth_base, capsys):
    capsys.readouterr()
    assert run("fit", "--data", synth_base, "--method", "centroid",
               "--out-dir", str(tmp_path / "c"), "--seed", "5") == 0
    assert capsys.readouterr().err == ""


def test_edit_roundtrip(tmp_path, synth_base):
    fits = str(tmp_path / "dirs")
    assert run("fit", "--data", synth_base, "--method", "centroid",
               "--out-dir", fits, "--seed", "2") == 0
    name = lb.read_dataset(synth_base).schema.names[0]
    direction = f"{fits}/{name}.json"
    fwd = str(tmp_path / "fwd")
    back = str(tmp_path / "back")
    assert run("edit", "--data", synth_base, "--direction", direction,
               "--alpha", "0.2", "--out", fwd) == 0
    assert run("edit", "--data", fwd, "--direction", direction,
               "--alpha", "-0.2", "--out", back) == 0
    original = lb.read_dataset(synth_base)
    restored = lb.read_dataset(back)
    assert np.allclose(restored.codes, original.codes, atol=1e-12)


def _unit_direction(path, dim, axis=0):
    vector = np.zeros(dim)
    vector[axis] = 1.0
    lb.save_direction(lb.SemanticDirection(attribute=0, vector=vector, method="centroid"),
                      str(path))
    return str(path)


def test_edit_onto_its_own_path_matches_a_fresh_edit(tmp_path, synth_base):
    # the output is renamed over the file the codes are mapped from; the map
    # keeps the old file, so every block still reads the unedited codes
    direction = _unit_direction(tmp_path / "u.json", 64, axis=3)
    fresh = str(tmp_path / "fresh")
    assert run("edit", "--data", synth_base, "--direction", direction,
               "--alpha", "0.7", "--out", fresh) == 0
    assert run("edit", "--data", synth_base, "--direction", direction,
               "--alpha", "0.7", "--out", synth_base) == 0
    for a, b in zip(dataset_paths(fresh), dataset_paths(synth_base)):
        assert Path(a).read_bytes() == Path(b).read_bytes()
    assert lb.read_dataset(synth_base).n == 4000  # blocks of 2048 and 1952 rows


def test_edit_streams_in_bounded_memory(tmp_path, dataset100k):
    # edit reads through a map and writes one 1 MiB block of rows at a time; an
    # edited copy of the codes would peak at about their size
    base = str(tmp_path / "big")
    lb.write_dataset(dataset100k, base)
    direction = _unit_direction(tmp_path / "u.json", dataset100k.dim)
    code, peak = traced_peak(run, "edit", "--data", base, "--direction", direction,
                             "--alpha", "0.5", "--out", str(tmp_path / "edited"))
    assert code == 0
    assert peak < 0.1 * dataset100k.codes.nbytes
    edited = lb.read_dataset(str(tmp_path / "edited"))
    expected = dataset100k.codes + 0.5 * lb.load_direction(direction).vector
    assert edited.codes.tobytes() == expected.tobytes()


def test_edit_to_non_finite_codes_is_data_error_and_writes_nothing(tmp_path, capsys):
    # 1.5e308 + 1e308 overflows to inf.  At dim 2 a block holds 65536 rows,
    # so the bad row sits in the second block, after one block was written
    codes = np.zeros((70_000, 2))
    codes[[66_000, 69_000], 0] = 1.5e308
    codes[1, 0] = -1.5e308  # stays finite: -5e307
    schema = lb.AttributeSchema(("a",))
    lb.write_dataset(lb.LatentDataset(codes=codes, labels=np.zeros((70_000, 1), np.uint8),
                                      schema=schema), str(tmp_path / "big"))
    direction = _unit_direction(tmp_path / "u.json", 2)
    before = sorted(p.name for p in tmp_path.iterdir())
    capsys.readouterr()
    assert run("edit", "--data", str(tmp_path / "big"), "--direction", direction,
               "--alpha", "1e308", "--out", str(tmp_path / "edited")) == 2
    err = capsys.readouterr().err
    assert "codes row 66000: non-finite component" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == before


def test_edit_of_an_empty_dataset_still_checks_the_direction(tmp_path, capsys):
    schema = lb.AttributeSchema(("a",))
    base = str(tmp_path / "empty")
    lb.write_dataset(lb.LatentDataset(codes=np.zeros((0, 4)), labels=np.zeros((0, 1), np.uint8),
                                      schema=schema), base)
    assert run("edit", "--data", base, "--direction", _unit_direction(tmp_path / "u4.json", 4),
               "--out", str(tmp_path / "out")) == 0
    assert lb.read_dataset(str(tmp_path / "out")).codes.shape == (0, 4)
    capsys.readouterr()
    assert run("edit", "--data", base, "--direction", _unit_direction(tmp_path / "u3.json", 3),
               "--out", str(tmp_path / "bad")) == 2
    assert "dimension mismatch" in capsys.readouterr().err
    assert not (tmp_path / "bad.latd").exists()


@pytest.mark.parametrize("dim", [8, 15, 64, 100])
def test_synth_and_edit_start_writeback_on_every_full_block(tmp_path, monkeypatch, dim):
    # each full block holds at least BLOCK_BYTES, whatever the width, so its
    # writeback starts; only the last, partial block waits for the fsync
    calls = []
    monkeypatch.setattr(dataio, "_sync_file_range",
                        lambda fd, offset, nbytes, flags: calls.append((offset, nbytes)))
    block = block_rows(dim) * dim * 8
    base, direction = str(tmp_path / "s"), _unit_direction(tmp_path / "u.json", dim)
    for out, argv in ((base, ["synth", "--n", str(2 * block_rows(dim) + 5), "--dim", str(dim),
                              "--seed", "1"]),
                      (base + "-e", ["edit", "--data", base, "--direction", direction])):
        calls.clear()
        assert run(*argv, "--out", out) == 0
        # from the end of the header, contiguous, and every code byte but the 5-row tail
        assert calls == [(24, block), (24 + block, block)], argv[0]
        assert os.path.getsize(out + ".latd") == 24 + 2 * block + 5 * dim * 8


def test_sweep_and_report(tmp_path, synth_base):
    out = str(tmp_path / "sweep.csv")
    assert run("sweep", "--data", synth_base, "--world", synth_base + ".world.json",
               "--sizes", "50,200", "--runs", "2", "--n-eval", "200",
               "--seed", "11", "--out", out) == 0
    lines = Path(out).read_text().splitlines()
    assert lines[0].startswith("parameter,attribute,effect,entanglement")
    assert len(lines) == 1 + 2 * 4

    merged = str(tmp_path / "merged.json")
    assert run("report", "--inputs", out, out, "--out", merged, "--format", "json") == 0
    rows = json.loads(Path(merged).read_text())
    assert len(rows) == 16
    assert {"parameter", "attribute", "effect"} <= set(rows[0])


def test_one_attribute_sweep_is_data_error(tmp_path, capsys):
    # it used to write only NaN rows and exit 0, the reason dropped with the rows
    base, out = str(tmp_path / "one"), tmp_path / "sweep.csv"
    assert run("synth", "--out", base, "--names", "a", "--n", "2000", "--seed", "1") == 0
    capsys.readouterr()
    for grid in (["--sizes", "100"], ["--c-grid", "1"]):
        assert run("sweep", "--data", base, "--world", base + ".world.json", *grid,
                   "--runs", "1", "--out", str(out)) == 2
        assert capsys.readouterr().err == (
            "latbal sweep: a sweep needs at least two attributes, got 1\n")
    assert not out.exists()


def test_failed_sweep_points_are_named_on_stderr(tmp_path, capsys):
    # the CSV holds a failed point's rows as NaN with no reason; stderr gives
    # one line per failed point, and the exit code stays 0
    base, out = str(tmp_path / "small"), tmp_path / "s.csv"
    assert run("synth", "--out", base, "--n", "300", "--seed", "1") == 0
    capsys.readouterr()
    assert run("sweep", "--data", base, "--world", base + ".world.json",
               "--sizes", "100,400", "--policies", "uniform", "--runs", "2",
               "--n-eval", "50", "--out", str(out), "--seed", "1") == 0
    assert capsys.readouterr().err == (
        "latbal sweep: warning: n0=400, method centroid, policy uniform failed: "
        "run 0: n0 must be in [0, 300], got 400; its rows are NaN\n")
    rows = list(csv.DictReader(out.read_text(encoding="utf-8").splitlines()))
    assert [r["effect"] for r in rows if r["parameter"] == "400.0"] == ["nan"] * 4
    assert all(r["effect"] != "nan" for r in rows if r["parameter"] == "100.0")


def test_c_grid_sweep(tmp_path, synth_base):
    out = str(tmp_path / "cgrid.csv")
    assert run("sweep", "--data", synth_base, "--world", synth_base + ".world.json",
               "--c-grid", "1e-6", "--n0", "300", "--runs", "1", "--n-eval", "100",
               "--seed", "3", "--out", out) == 0
    lines = Path(out).read_text().splitlines()
    assert len(lines) == 1 + 4 + 4  # svm rows + centroid reference rows


def test_readme_first_step_creates_the_data_directory(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run("synth", "--out", "data/demo", "--n", "100000", "--seed", "42") == 0
    assert lb.read_dataset("data/demo").n == 100_000
    assert sorted(p.name for p in (tmp_path / "data").iterdir()) == [
        "demo.labels.csv", "demo.latd", "demo.world.json"]


# sha256 of every file the README walkthrough writes (at 20k codes and a
# shorter sweep).  The CSV digests were recorded before the CSV writers moved
# to csv.writer, the others before the unused knobs and fields were deleted
# from src/: plain names must keep every byte.  The two .latd digests changed
# once more when files stopped carrying confidences: each new file is the old
# one with flags 0 and its last count*m*8 bytes removed.  The reader refuses
# the old files by their flags; rerunning their synth command rewrites them
WALKTHROUGH_SHA256 = {
    "demo.latd": "10f65056fb07f82e46dba40ae51b723b7c77c7c3b2c1179c87a72ca63af467cc",
    "demo.labels.csv": "beb7f045a867d296b358ee88a2a102a6b88208a3f97a86f3fd75e807cced8273",
    "demo.world.json": "4bc36b0f5bf9117db4065e5fe6caaab9a178df93bdae85f3593918a466c825bf",
    "table.csv": "c43e34e56f742005463e5523fbad91892e9edf54bc18874e5d16d18897826b41",
    "stats.json": "118b562111b8f7a0d0076b2d1843b305f5784520a81ba601e2784d472db209f3",
    "bal.csv": "4c0be95a3e9c7fd9a65500f8e3cad8c1666623a78d72e61fb86f62f27c09f445",
    "bal.json": "2b587ae8ac464341afb1a3a2229046129aca5cfd6ce3c3531f11604f4c710254",
    "uni.csv": "95e38fd77e345a8f434d201f2fe76586da57fdf0934446292970f5f4c0594ace",
    "uni.json": "d36bd5c5f51d348ae461ed2f52b421ff2a0f13d983942abcfe6a7a58637624fd",
    "dirs/attr0.json": "01acd6bfec22987d553300142292f9a360ab6a48de94a2de3abced2691072d0a",
    "dirs/attr1.json": "45df4774aad035827f6e8d8980bda8031ba447050a929d8bc7445846ca790714",
    "dirs/attr2.json": "b2f4b16b416275b49afeaff2a41808cec4dc8b524cdaee31cfec13d1990c590e",
    "dirs/attr3.json": "1f356e3d70b0be55404abbc2c96e105065f0409f265573d35c5b55c78696c74c",
    "rescore.csv": "77487fb573aa922e6be4e854fb9afc453e4fcf555ba1e0f0923e2f5eaae7c9a3",
    "rescore.json": "5ab433c6ac9b27dd2a37bca48823d2231ad44bf6ac86e97e50a41b915fdf5c03",
    "attr0_conditional.json":
        "7923feab61b01fb819189c955e1a42d4b53062d7ce195b603ff167164b59ce67",
    "edited.latd": "838a44a5b77334599718def388011670875fae363b858d81a8c6f6a96dfd5d12",
    "edited.labels.csv": "beb7f045a867d296b358ee88a2a102a6b88208a3f97a86f3fd75e807cced8273",
    "sizes.csv": "b771470d270da24a84f6b4da15b6c8dee55c852074fdaf26e127a5fc1b93984e",
    "cs.csv": "a861f13224c6c083a128378c5cd6675d0b632eaf0f9b4223676021406ed6b3c2",
    "all.csv": "085fc8b9697b4e008b74241bbe73dbbacd472cf3479bcbafd5a61a9facf7aa00",
    "all.json": "1edbd92b58c43715c76c2cbc8777ac7323ea06fbd7d7a0eae969d751beeb073c",
}


def test_walkthrough_csvs_keep_their_bytes(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "data").mkdir()
    dirs = " ".join(f"data/dirs/attr{k}.json" for k in range(4))
    for line in [
        "synth --out data/demo --n 20000 --seed 42",
        "contingency --data data/demo --out data/table.csv --stats data/stats.json",
        "sample --data data/demo --mode balanced --n0 1000 --policy skip --seed 42 "
        "--out data/bal",
        "sample --data data/demo --mode uniform --n0 1000 --seed 42 --out data/uni",
        "fit --data data/demo --subsample data/bal.csv --method centroid "
        "--out-dir data/dirs --seed 42",
        f"eval --world data/demo.world.json --directions {dirs} "
        "--alpha 0.2 --n 2000 --seed 7 --out data/rescore",
        "project --target data/dirs/attr0.json --others " + dirs.split(" ", 1)[1]
        + " --out data/attr0_conditional.json",
        "edit --data data/demo --direction data/dirs/attr0.json --alpha 0.2 "
        "--out data/edited",
        "sweep --data data/demo --world data/demo.world.json --sizes 100,300,1000 "
        "--runs 2 --n-eval 500 --seed 42 --out data/sizes.csv",
        "sweep --data data/demo --world data/demo.world.json --c-grid 1e-6,1e-4,1e-2,1 "
        "--n0 1000 --runs 2 --n-eval 500 --seed 42 --out data/cs.csv",
        "report --inputs data/sizes.csv data/sizes.csv --out data/all.csv",
        "report --inputs data/sizes.csv data/cs.csv --out data/all.json --format json",
    ]:
        assert run(*line.split()) == 0, line
    written = sorted(str(p.relative_to(tmp_path / "data"))
                     for p in (tmp_path / "data").rglob("*") if p.is_file())
    assert written == sorted(WALKTHROUGH_SHA256)
    for name, digest in WALKTHROUGH_SHA256.items():
        assert hashlib.sha256((tmp_path / "data" / name).read_bytes()).hexdigest() == digest, \
            name


# sha256 of an SVM-bearing size sweep over every policy and of two C sweeps on the
# 20k-code walkthrough dataset, recorded before the two sweeps shared one engine;
# the 1e-2,1 sweep changes when the sweep's SVM stop rule (duality gap 1e-4,
# 300 Newton steps) does
SWEEP_CSV_SHA256 = {
    "--c-grid 1e-4,1 --n0 500":
        "e0754ff1891b71cc8e33622ffe0a7357b224f4f5145d1378c7987f22303f70ce",
    "--c-grid 1e-2,1 --n0 1000":
        "ba30d37f0ee95f93f4772a20cc324ea80ffee3735519e9c51b9055330f8a5eed",
    "--sizes 100,1000 --methods centroid,svm --policies skip,oversample,uniform":
        "45ddc5332d9d24ec62dacaeb64608b0561bcd7b6db249715ef705332d5426e06",
}


def test_sweep_csvs_keep_their_bytes(tmp_path):
    base = str(tmp_path / "demo")
    assert run("synth", "--out", base, "--n", "20000", "--seed", "42") == 0
    for k, (grid, digest) in enumerate(SWEEP_CSV_SHA256.items()):
        out = tmp_path / f"sweep{k}.csv"
        assert run("sweep", "--data", base, "--world", base + ".world.json", *grid.split(),
                   "--runs", "2", "--n-eval", "500", "--seed", "42", "--out", str(out)) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, grid


# sha256 of the SVM directions that `latbal fit` writes at its defaults (gap
# 1e-6, 1000 Newton steps) on the walkthrough's balanced subsample
SVM_FIT_SHA256 = [
    "d1e065c0d12ae7db5e2b0ac26e24f33c54158dcede17d3816201679b90b534b4",
    "319790a37ed687d15bf27e29fe12266a1719ed0f8f889f21149c56589ef2332d",
    "f5277f70469c546111f9eb6fa8a077a653f140a81e5c5afbe990e046bee21c91",
    "6252aaa7eda43e072e6276afda9332b5fd91ffaeb7e103b0796f7b259798d4f6",
]


def test_svm_fit_keeps_its_bytes(tmp_path):
    base, bal, out = str(tmp_path / "demo"), str(tmp_path / "bal"), tmp_path / "dirs"
    assert run("synth", "--out", base, "--n", "20000", "--seed", "42") == 0
    assert run("sample", "--data", base, "--n0", "1000", "--seed", "42", "--out", bal) == 0
    assert run("fit", "--data", base, "--subsample", bal + ".csv", "--method", "svm",
               "--out-dir", str(out)) == 0
    assert [hashlib.sha256((out / f"attr{k}.json").read_bytes()).hexdigest()
            for k in range(4)] == SVM_FIT_SHA256


def test_csv_outputs_quote_names_that_need_it(tmp_path):
    names = ("eye,glasses", 'smile "wide"')
    world = lb.make_world(dim=8, gram=np.eye(2), positive_rates=[0.5, 0.4],
                          seed=3, names=names)
    base = str(tmp_path / "q")
    lb.write_dataset(lb.sample_world(world, 3000, seed=3), base)
    lb.save_world(world, base + ".world.json")
    sweep, rescore, merged = (str(tmp_path / f) for f in ("s.csv", "r", "m.csv"))
    assert run("sweep", "--data", base, "--world", base + ".world.json", "--sizes", "100",
               "--runs", "1", "--n-eval", "50", "--seed", "1", "--out", sweep) == 0
    assert run("fit", "--data", base, "--out-dir", str(tmp_path / "d")) == 0
    assert run("eval", "--world", base + ".world.json", "--directions",
               *(str(tmp_path / "d" / f"{n}.json") for n in names),
               "--n", "50", "--seed", "1", "--out", rescore) == 0
    assert run("report", "--inputs", sweep, sweep, "--out", merged) == 0

    def rows(path):
        with open(path, newline="") as f:
            return list(csv.reader(f))

    sweep_rows = rows(sweep)
    assert all(len(r) == 9 for r in sweep_rows)
    assert [r[1] for r in sweep_rows[1:]] == list(names)
    assert rows(merged) == sweep_rows + sweep_rows[1:]
    rescore_rows = rows(rescore + ".csv")
    assert all(len(r) == 3 for r in rescore_rows)
    assert [tuple(r[:2]) for r in rescore_rows[1:]] == [(a, b) for a in names for b in names]


def test_byte_identical_reruns(tmp_path):
    a = str(tmp_path / "a")
    b = str(tmp_path / "b")
    for base in (a, b):
        assert run("synth", "--out", base, "--n", "300", "--seed", "9") == 0
    assert Path(a + ".latd").read_bytes() == Path(b + ".latd").read_bytes()
    assert Path(a + ".labels.csv").read_text() == Path(b + ".labels.csv").read_text()
    assert Path(a + ".world.json").read_text() == Path(b + ".world.json").read_text()


def test_commands_without_a_seed_use_seed_zero(tmp_path):
    # outside --strict a missing --seed means seed 0, for every seeded command
    def outputs(tag, *seed):
        d = tmp_path / tag
        base, world = str(d / "data"), str(d / "data.world.json")
        assert run("synth", "--out", base, "--n", "2000", *seed) == 0
        assert run("sample", "--data", base, "--n0", "200", "--out", str(d / "sub"), *seed) == 0
        assert run("fit", "--data", base, "--out-dir", str(d / "dirs")) == 0
        assert run("eval", "--world", world, "--directions", str(d / "dirs" / "attr0.json"),
                   "--n", "100", "--out", str(d / "scores"), *seed) == 0
        assert run("sweep", "--data", base, "--world", world, "--sizes", "100", "--runs", "1",
                   "--n-eval", "100", "--out", str(d / "sweep.csv"), *seed) == 0
        return {p.relative_to(d): p.read_bytes() for p in sorted(d.rglob("*")) if p.is_file()}

    default = outputs("default")
    assert len(default) == 12 and default == outputs("zero", "--seed", "0")


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--bogus"])
        assert exc.value.code == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_command_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 1

    def test_strict_requires_seed(self, tmp_path, capsys):
        code = run("--strict", "synth", "--out", str(tmp_path / "x"))
        assert code == 1
        assert "--seed" in capsys.readouterr().err

    def test_strict_with_seed_is_fine(self, tmp_path):
        assert run("--strict", "synth", "--out", str(tmp_path / "y"),
                   "--n", "100", "--seed", "1") == 0

    def test_missing_data_file_is_data_error(self, tmp_path, capsys):
        code = run("contingency", "--data", str(tmp_path / "nope"),
                   "--out", str(tmp_path / "t.csv"))
        assert code == 2

    def test_corrupt_dataset_is_data_error(self, tmp_path, capsys):
        (tmp_path / "bad.latd").write_bytes(b"JUNKJUNKJUNKJUNKJUNKJUNK")
        (tmp_path / "bad.labels.csv").write_text("a\n")
        code = run("contingency", "--data", str(tmp_path / "bad"),
                   "--out", str(tmp_path / "t.csv"))
        assert code == 2
        assert "magic" in capsys.readouterr().err

    @pytest.mark.parametrize("header,named", [
        ("a,a,b,c", "attribute names must be unique"),
        ("a,,b,c", "attribute names must be non-empty"),
        (",".join(f"a{k}" for k in range(21)), "attribute count must be in [1, 20], got 21"),
        ('attr0,"attr1"x,attr2,attr3', "',' expected after '\"'"),
        ('"attr0,attr1,attr2,attr3', "unexpected end of data"),
    ], ids=["repeated", "empty", "21-names", "text-after-quote", "unterminated-quote"])
    def test_bad_labels_header_names_the_file(self, tmp_path, synth_base, capsys, header,
                                              named):
        labels = Path(synth_base + ".labels.csv")
        labels.write_text(header + "\n" + labels.read_text().split("\n", 1)[1])
        code = run("contingency", "--data", synth_base, "--out", str(tmp_path / "t.csv"))
        assert code == 2
        assert capsys.readouterr().err == f"latbal contingency: {labels}:1: {named}\n"
        assert not (tmp_path / "t.csv").exists()

    @pytest.mark.parametrize("bad", ["not-json", "list", "missing-field", "schema-version",
                                     "vectors-shape", "non-finite", "vectors-text",
                                     "vectors-ragged", "version-bool", "dim-float",
                                     "int-float", "int-bool", "number-string", "number-bool",
                                     "number-nan"])
    @pytest.mark.parametrize("slot", ["project-target", "eval-directions", "eval-world",
                                      "sweep-world"])
    def test_malformed_json_artifact_is_data_error(self, tmp_path, synth_base, capsys,
                                                   slot, bad):
        direction, world = str(tmp_path / "good.json"), synth_base + ".world.json"
        lb.save_direction(lb.fit_directions(lb.read_dataset(synth_base), "centroid")[0],
                          direction)
        is_world = slot.endswith("world")
        good = json.loads(Path(world if is_world else direction).read_text())
        missing = "dim" if is_world else "vector"
        vectors = "vectors" if is_world else "vector"
        # integer fields must be JSON integers, and sharpness a finite JSON number
        typed = {"version-bool": ("schema_version", True), "dim-float": ("dim", 64.0),
                 "int-float": ("seed", 1.5) if is_world else ("attribute", 1.9),
                 "int-bool": ("seed", True) if is_world else ("attribute", True),
                 "number-string": ("sharpness", "2") if is_world else ("dim", "64"),
                 "number-bool": ("sharpness", True) if is_world else ("dim", True),
                 "number-nan": ("sharpness", np.nan) if is_world else ("dim", np.nan)}
        path = tmp_path / "bad.json"
        path.write_text({"not-json": '{"schema_version": 1,',
                         "list": json.dumps([good]),
                         "missing-field": json.dumps({k: v for k, v in good.items()
                                                      if k != missing}),
                         "schema-version": json.dumps({**good, "schema_version": 99}),
                         # one level too deep: each entry in a list of its own
                         "vectors-shape": json.dumps({**good, vectors: [
                             [row] for row in good[vectors]]}),
                         "non-finite": json.dumps({**good, vectors: (
                             np.array(good[vectors]) * np.nan).tolist()}),
                         "vectors-text": json.dumps({**good, vectors: "x"}),
                         "vectors-ragged": json.dumps({**good, vectors: [
                             good[vectors][0], good[vectors]]}),
                         **{k: json.dumps({**good, key: value})
                            for k, (key, value) in typed.items()}}[bad])
        out = str(tmp_path / "out")
        argv = {"project-target": ["project", "--target", str(path), "--others", direction],
                "eval-directions": ["eval", "--world", world, "--directions", str(path)],
                "eval-world": ["eval", "--world", str(path), "--directions", direction],
                "sweep-world": ["sweep", "--data", synth_base, "--world", str(path),
                                "--sizes", "100", "--runs", "1"]}[slot]
        if slot != "project-target":
            argv += ["--seed", "1"]
        assert run(*argv, "--out", out) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and str(path) in err and "Traceback" not in err
        named = {"list": "expected a JSON object, got list",
                 "vectors-shape": f"field '{vectors}' has shape",
                 "non-finite": f"field '{vectors}' holds a non-finite value",
                 "vectors-text": f"field '{vectors}' is not an array of numbers",
                 "vectors-ragged": f"field '{vectors}' is not an array of numbers"}.get(bad, "")
        if bad in typed:
            key, value = typed[bad]
            kind = "a finite number" if key == "sharpness" else "an integer"
            named = f"{path}: field '{key}' must be {kind}, got {value!r}\n"
            assert err.endswith(named)
        assert named in err
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "bad.json", "data.labels.csv", "data.latd", "data.world.json", "good.json"]

    @pytest.mark.parametrize("command", ["project", "edit"])
    def test_direction_file_with_a_negative_attribute_is_data_error(self, tmp_path, synth_base,
                                                                    capsys, command):
        good = tmp_path / "good.json"
        lb.save_direction(lb.fit_directions(lb.read_dataset(synth_base), "centroid")[0],
                          str(good))
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**json.loads(good.read_text()), "attribute": -3}))
        argv = {"project": ["project", "--target", str(path), "--others", str(good)],
                "edit": ["edit", "--data", synth_base, "--direction", str(path),
                         "--alpha", "1"]}[command]
        assert run(*argv, "--out", str(tmp_path / "out")) == 2
        assert capsys.readouterr().err == (
            f"latbal {command}: {path}: direction attribute must be >= 0, got -3\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "bad.json", "data.labels.csv", "data.latd", "data.world.json", "good.json"]

    @pytest.mark.parametrize("field,value,named", [
        ("names", "abcd", "attribute names must be a sequence of names, got the string 'abcd'"),
        ("names", ["a", "a", "b", "c"], "attribute names must be unique"),
        ("names", [1, 2, 3, 4], "attribute names must be strings, got 1"),
        ("sharpness", -1, "sharpness must be a finite positive number, got -1.0"),
        # a NaN is no finite number, so the file's field is named before any world is built
        ("sharpness", float("nan"), "field 'sharpness' must be a finite number, got nan"),
        # a 401-digit JSON integer has no float; it used to end in a traceback
        ("sharpness", 10**400, f"field 'sharpness' must be a finite number, got {10**400}"),
        ("rates", [1.5, -2, 0.5, 0.5],
         "positive rates must be 4 values strictly inside (0, 1), got [1.5, -2.0, 0.5, 0.5]"),
        ("rates", [1e-17, 0.3, 0.5, 0.2],
         "positive rates must be 4 values strictly inside (0, 1), got [1e-17, 0.3, 0.5, 0.2]"),
        ("seed", 2**64, f"field 'seed' must be in [0, 2**64 - 1], got {2**64}"),
        ("gram", [[1, 0.6, 0, 0], [0.5, 1, 0, 0], [0, 0, 1, 0.6], [0, 0, 0.6, 1]],
         "gram matrix must be symmetric"),
        ("gram", [[2, 0.6, 0, 0], [0.6, 1, 0, 0], [0, 0, 1, 0.6], [0, 0, 0.6, 1]],
         "gram matrix must have unit diagonal"),
        ("gram", np.eye(4).tolist(), "vectors @ vectors.T does not match gram within 1e-9"),
        ("vectors", lambda good: (2 * np.array(good["vectors"])).tolist(),
         "vectors must be 4 unit-norm rows of dim 64"),
        ("biases", ["x", 0, 0, 0], "field 'biases' is not an array of numbers"),
        # the biases follow from the rates; a file may not contradict them
        ("biases", [5, 5, 5, 5],
         "field 'biases' does not match the biases its rates give within 1e-12"),
    ], ids=["names-string", "names-repeated", "names-numbers", "sharpness-negative",
            "sharpness-nan", "sharpness-overflow", "rates-outside", "rates-below-resolution",
            "seed-past-64-bits", "gram-asymmetric",
            "gram-diagonal", "gram-not-the-vectors", "vectors-doubled", "biases-text",
            "biases-mismatch"])
    @pytest.mark.parametrize("command", ["eval", "sweep"])
    def test_world_file_gets_the_checks_of_a_built_world(self, tmp_path, synth_base, capsys,
                                                         command, field, value, named):
        direction = str(tmp_path / "good.json")
        lb.save_direction(lb.fit_directions(lb.read_dataset(synth_base), "centroid")[0],
                          direction)
        path = tmp_path / "bad.json"
        good = json.loads(Path(synth_base + ".world.json").read_text())
        path.write_text(json.dumps({**good, field: value(good) if callable(value) else value}))
        argv = {"eval": ["eval", "--world", str(path), "--directions", direction],
                "sweep": ["sweep", "--data", synth_base, "--world", str(path),
                          "--sizes", "100", "--runs", "1"]}[command]
        assert run(*argv, "--seed", "1", "--out", str(tmp_path / "out")) == 2
        assert capsys.readouterr().err == f"latbal {command}: {path}: {named}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "bad.json", "data.labels.csv", "data.latd", "data.world.json", "good.json"]

    @pytest.mark.parametrize("flags", [["--dim", "8"], ["--names", "a,b"]],
                             ids=["dim", "attributes"])
    def test_sweep_world_that_does_not_match_its_data_is_data_error(
            self, tmp_path, synth_base, capsys, flags):
        other = str(tmp_path / "other")
        assert run("synth", "--out", other, "--n", "10", *flags, "--seed", "1") == 0
        out = tmp_path / "sweep.csv"
        code = run("sweep", "--data", synth_base, "--world", other + ".world.json",
                   "--sizes", "100", "--runs", "1", "--seed", "1", "--out", str(out))
        assert code == 2
        err = capsys.readouterr().err
        assert other + ".world.json" in err and synth_base in err
        assert not out.exists()
        # eval checks the same world against directions fit on the data:
        # attribute 3 has dim 64, past both the dim-8 world's dim and a,b's count
        direction = str(tmp_path / "attr3.json")
        lb.save_direction(lb.fit_directions(lb.read_dataset(synth_base), "centroid")[3],
                          direction)
        code = run("eval", "--world", other + ".world.json", "--directions", direction,
                   "--n", "10", "--seed", "1", "--out", str(tmp_path / "rescore"))
        assert code == 2
        err = capsys.readouterr().err
        assert other + ".world.json" in err and direction in err
        assert not list(tmp_path.glob("rescore*"))

    @pytest.mark.parametrize("spec", ["-1,0,0.5", "9,0,0.5", "1,1,0.5", "0,x,0.5"])
    def test_bad_corr_index_is_usage_error(self, tmp_path, capsys, spec):
        code = run("synth", "--out", str(tmp_path / "w"), "--n", "100",
                   f"--corr={spec}", "--seed", "1")
        assert code == 1
        assert spec in capsys.readouterr().err
        assert not (tmp_path / "w.latd").exists()

    @pytest.mark.parametrize("flags", [
        ["--rates", "0.5,abc"],
        ["--rates", "0.5,1.5"],
        ["--names", "a,b,c", "--rates", "0.5,0.5"],
    ], ids=["text", "out-of-range", "count"])
    def test_bad_rates_are_usage_error(self, tmp_path, capsys, flags):
        code = run("synth", "--out", str(tmp_path / "w"), "--n", "100", *flags, "--seed", "1")
        assert code == 1
        assert "--rates" in capsys.readouterr().err
        assert not (tmp_path / "w.latd").exists()

    # bad or blank synth flag values are rejected before anything is written,
    # never replaced by the defaults or left to fail later as a data error
    @pytest.mark.parametrize("flags,named", [
        (["--names", "a,,b"], "--names"),
        (["--names", ""], "--names"),
        (["--rates", ""], "--rates"),
        (["--rates", "0.5,,0.5"], "--rates"),
        (["--dim", "0"], "--dim"),
        (["--names", "a,b,c", "--dim", "2"], "--dim"),
        (["--sharpness", "-1"], "--sharpness"),
        (["--sharpness", "0"], "--sharpness"),
        (["--sharpness", "nan"], "--sharpness"),
        (["--names", "a,a"], "unique"),
        (["--names", ",".join(f"a{k}" for k in range(21))], "got 21"),
        (["--corr", "0,1,2.0"], "positive semi-definite"),
        (["--corr", "0,1,nan"], "--corr: expects I,J,RHO with a finite RHO, got (0, 1, nan)"),
        (["--n", "-1"], "--n: expects an integer >= 0, got -1"),
        # these two used to pass: the second --corr overwrote the first, and
        # 1e-17 failed inside the quantile, naming neither --rates nor 1e-17
        (["--corr", "0,1,0.6", "--corr", "1,0,-0.3"],
         "--corr gives pair 0,1 twice: 0.6 and -0.3"),
        (["--rates", "1e-17,0.5"], "got [1e-17, 0.5]"),
    ], ids=["names-blank-entry", "names-empty", "rates-empty", "rates-blank-entry",
            "dim-zero", "dim-below-m", "sharpness-negative", "sharpness-zero", "sharpness-nan",
            "names-repeated", "names-21", "corr-not-psd", "corr-rho-nan", "n-negative",
            "corr-repeated-pair", "rates-below-resolution"])
    def test_bad_synth_flag_is_usage_error(self, tmp_path, capsys, flags, named):
        code = run("synth", "--out", str(tmp_path / "w"), "--n", "100", *flags, "--seed", "1")
        assert code == 1
        assert named in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_rate_below_float_resolution_names_the_flag(self, tmp_path, capsys):
        # 1e-17 is inside (0, 1), but 1 - 1e-17 is 1.0, which the world refuses;
        # that refusal named neither the flag nor the limit
        code = run("synth", "--out", str(tmp_path / "w"), "--n", "100",
                   "--rates", "1e-17,0.5", "--seed", "1")
        assert code == 1
        assert capsys.readouterr().err.endswith(
            "error: argument --rates: expects comma-separated numbers r in (0, 1) with "
            "1 - r < 1 in float64, got [1e-17, 0.5]\n")
        assert list(tmp_path.iterdir()) == []

    def test_sweep_grid_flags_are_exclusive(self, tmp_path, synth_base, capsys):
        code = run("sweep", "--data", synth_base, "--world", synth_base + ".world.json",
                   "--sizes", "10", "--c-grid", "1.0",
                   "--out", str(tmp_path / "s.csv"), "--seed", "1")
        assert code == 1

    # checked before any data is read: the data path does not even exist
    @pytest.mark.parametrize("flags,named", [
        (["--sizes", "100", "--policies", "skip,bogus"], "'bogus'"),
        (["--sizes", "100", "--methods", "bogus"], "'bogus'"),
        (["--sizes", "100,0"], "got 0"),
        (["--sizes", "100,x"], "100,x"),
        (["--c-grid", "1", "--n0", "0"], "got 0"),
        (["--c-grid", "1,-1"], "got -1.0"),
        (["--sizes", "100", "--runs", "0"], "got 0"),
        (["--sizes", "100", "--n-eval", "0"], "got 0"),
        (["--sizes", "100", "--methods", "svm", "--c", "0"], "got 0.0"),
        (["--sizes", "100,"], "'100,'"),
    ], ids=["policy", "method", "size-zero", "size-text", "n0-zero", "c-negative", "runs-zero",
            "n-eval-zero", "svm-c-zero", "size-blank-entry"])
    def test_bad_sweep_grid_is_usage_error(self, tmp_path, capsys, flags, named):
        out = tmp_path / "s.csv"
        code = run("sweep", "--data", str(tmp_path / "nope"),
                   "--world", str(tmp_path / "nope.world.json"), *flags,
                   "--out", str(out), "--seed", "1")
        assert code == 1
        assert named in capsys.readouterr().err
        assert not out.exists()

    # a seed outside 64 bits used to draw the rows of another: --seed 2**64 and
    # --seed -2**64 wrote seed 0's rows; checked before any file is read (the
    # data path does not exist), fit's ignored --seed included
    @pytest.mark.parametrize("seed", [str(2**64), str(-2**64), "-1", "2.5"])
    @pytest.mark.parametrize("command", ["synth", "sample", "fit", "eval", "sweep"])
    def test_bad_seed_is_usage_error_before_any_file_is_read(self, tmp_path, capsys, command,
                                                              seed):
        nope = str(tmp_path / "nope")
        argv = {"synth": ["--out", nope], "sample": ["--data", nope, "--out", nope],
                "fit": ["--data", nope, "--out-dir", nope],
                "eval": ["--world", nope, "--directions", nope, "--out", nope],
                "sweep": ["--data", nope, "--world", nope, "--sizes", "10", "--out", nope]}
        assert run(command, *argv[command], f"--seed={seed}") == 1
        assert (f"--seed: expects an integer in [0, 2**64 - 1], got {seed!r}"
                in capsys.readouterr().err)
        assert list(tmp_path.iterdir()) == []

    # each sweep kind rejects the other kind's flags instead of ignoring them
    @pytest.mark.parametrize("flags,named", [
        (["--c-grid", "1", "--policies", "uniform"], "--policies"),
        (["--c-grid", "1", "--methods", "centroid"], "--methods"),
        (["--c-grid", "1", "--c", "0.5"], "--c "),
        (["--sizes", "100", "--n0", "50"], "--n0"),
    ], ids=["c-grid-policies", "c-grid-methods", "c-grid-c", "sizes-n0"])
    def test_sweep_flag_of_the_other_kind_is_usage_error(self, tmp_path, capsys, flags,
                                                         named):
        out = tmp_path / "s.csv"
        code = run("sweep", "--data", str(tmp_path / "nope"),
                   "--world", str(tmp_path / "nope.world.json"), *flags,
                   "--out", str(out), "--seed", "1")
        assert code == 1
        assert f"{named}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["balanced", "uniform"])
    def test_sample_n0_zero_is_usage_error(self, tmp_path, capsys, mode):
        code = run("sample", "--data", str(tmp_path / "nope"), "--mode", mode,
                   "--n0", "0", "--out", str(tmp_path / "sub"), "--seed", "1")
        assert code == 1
        assert "--n0" in capsys.readouterr().err
        assert not (tmp_path / "sub.csv").exists()

    @pytest.mark.parametrize("lines,named", [
        ([_SUB, "0,-400"], ":2: row index -400"),
        ([_SUB, "0,5", "1,4000"], ":3: row index 4000"),
        ([_SUB, "0,5", "1 7"], ":3: expected POSITION,ROW_INDEX, got '1 7'"),
        ([_SUB, "0,5", "1,x"], ":3: expected POSITION,ROW_INDEX, got '1,x'"),
        # a quoted record spans lines 2 and 3, so the bad row is line 4
        ([_SUB, '"0\n",5', "1,x"], ":4: expected POSITION,ROW_INDEX, got '1,x'"),
        ([_SUB, '"0\n",5', "1,4000"], ":4: row index 4000 is outside 0..3999"),
        ([_SUB, "0,5", "0,4"], ":3: position 0 where 1 was expected"),
        ([_SUB, "1,5", "0,4"], ":2: position 1 where 0 was expected"),
        ([_SUB, "0,5", "2,4000"], ":3: position 2 where 1 was expected"),
        # the header is checked before any row is parsed
        (["index,row", "x,5"], ": unexpected header 'index,row'"),
        (["cell_index,bits,count", "0,000,12", "1,001,9"],
         ": unexpected header 'cell_index,bits,count'"),
    ], ids=["negative", "past-the-end", "no-comma", "not-an-integer", "after-multiline-bad",
            "after-multiline-out-of-range", "repeated-position", "out-of-order-position",
            "position-before-row-index", "other-header-bad-row", "contingency-csv"])
    def test_bad_subsample_row_is_data_error(self, tmp_path, synth_base, capsys, lines, named):
        sub = tmp_path / "sub.csv"
        sub.write_text("\n".join(lines) + "\n")
        code = run("fit", "--data", synth_base, "--subsample", str(sub),
                   "--out-dir", str(tmp_path / "dirs"))
        assert code == 2
        assert f"{sub}{named}" in capsys.readouterr().err
        assert not (tmp_path / "dirs").exists()

    # both sizes exceed the 128 TiB user address space, so the allocation fails
    # at once whatever the kernel's overcommit policy
    @pytest.mark.parametrize("command", ["synth", "sample"])
    def test_failed_allocation_is_data_error(self, tmp_path, synth_base, capsys, command):
        flags = {"synth": ["--n", str(10**14)],
                 "sample": ["--data", synth_base, "--mode", "balanced", "--n0", str(10**15)]}
        code = run(command, *flags[command], "--out", str(tmp_path / "out"), "--seed", "1")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"latbal {command}: out of memory: Unable to allocate ")
        assert err.count("\n") == 1
        assert not list(tmp_path.glob("out*"))

    def test_subsample_with_another_header_is_data_error(self, tmp_path, synth_base, capsys):
        sub = tmp_path / "sub.csv"
        sub.write_text("index,row\n0,5\n")
        code = run("fit", "--data", synth_base, "--subsample", str(sub),
                   "--out-dir", str(tmp_path / "dirs"))
        assert code == 2
        assert capsys.readouterr().err == f"latbal fit: {sub}: unexpected header 'index,row'\n"
        assert not (tmp_path / "dirs").exists()

    def test_project_on_directions_of_other_dims_is_data_error(self, tmp_path, synth_base,
                                                               capsys):
        target, other = str(tmp_path / "target.json"), str(tmp_path / "other.json")
        lb.save_direction(lb.fit_directions(lb.read_dataset(synth_base), "centroid")[0], target)
        lb.save_direction(lb.SemanticDirection(1, np.eye(8)[0], "centroid"), other)
        out = tmp_path / "out.json"
        assert run("project", "--target", target, "--others", other, "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err == "latbal project: direction dimensions disagree: [8, 64]\n"
        assert not out.exists()

    @pytest.mark.parametrize("name", ["../escaped", "sub/dir", ".", "..", "a\0b"],
                             ids=["parent", "subdir", "dot", "dotdot", "nul"])
    def test_attribute_name_that_is_no_file_name_is_data_error(self, tmp_path, monkeypatch,
                                                                capsys, name):
        # fit writes <out-dir>/<name>.json; a name must not reach outside --out-dir
        monkeypatch.chdir(tmp_path)
        schema = lb.AttributeSchema(("ok", name))
        lb.write_dataset(lb.LatentDataset(codes=np.eye(4, 3), labels=[[1, 0], [0, 1], [1, 1],
                                                                      [0, 0]], schema=schema),
                         "data")
        code = run("fit", "--data", "data", "--out-dir", "out")
        assert code == 2
        assert f"attribute name {name!r}" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data.labels.csv", "data.latd"]

    # checked before any data is read: the input paths do not even exist
    @pytest.mark.parametrize("argv,named", [
        (["edit", "--data", "nope", "--direction", "nope.json", "--alpha", "nan",
          "--out", "out"], "--alpha: expects a finite number, got nan"),
        (["eval", "--world", "nope.json", "--directions", "nope.json", "--alpha", "inf",
          "--seed", "1", "--out", "out"], "--alpha: expects a finite number, got inf"),
        (["sweep", "--data", "nope", "--world", "nope.json", "--sizes", "100",
          "--alpha", "nan", "--seed", "1", "--out", "out"],
         "--alpha: expects a finite number, got nan"),
        (["eval", "--world", "nope.json", "--directions", "nope.json", "--n", "0",
          "--seed", "1", "--out", "out"], "--n: expects an integer >= 1, got 0"),
        (["sample", "--data", "nope", "--mode", "uniform", "--policy", "oversample",
          "--seed", "1", "--out", "out"], "--policy does not apply to --mode uniform"),
        (["fit", "--data", "nope", "--method", "svm", "--c", "nan", "--out-dir", "out"],
         "--c: expects a finite number > 0, got nan"),
        (["fit", "--data", "nope", "--method", "svm", "--c", "inf", "--out-dir", "out"],
         "--c: expects a finite number > 0, got inf"),
        (["fit", "--data", "nope", "--method", "svm", "--c", "-1", "--out-dir", "out"],
         "--c: expects a finite number > 0, got -1.0"),
        (["fit", "--data", "nope", "--method", "svm", "--tol", "nan", "--out-dir", "out"],
         "--tol: expects a finite number > 0, got nan"),
        (["fit", "--data", "nope", "--method", "svm", "--tol", "0", "--out-dir", "out"],
         "--tol: expects a finite number > 0, got 0.0"),
        (["fit", "--data", "nope", "--method", "svm", "--max-iter", "0", "--out-dir", "out"],
         "--max-iter: expects an integer >= 1, got 0"),
        (["sweep", "--data", "nope", "--world", "nope.json", "--sizes", "100",
          "--methods", "svm", "--c", "inf", "--seed", "1", "--out", "out"],
         "--c: expects a finite number > 0, got inf"),
        (["sweep", "--data", "nope", "--world", "nope.json", "--c-grid", "inf",
          "--seed", "1", "--out", "out"], "--c-grid: expects comma-separated finite "
                                          "numbers > 0, got inf"),
        (["sweep", "--data", "nope", "--world", "nope.json", "--sizes", "100,200,100",
          "--seed", "1", "--out", "out"],
         "--sizes: expects comma-separated integers >= 1, got 100 twice"),
        (["sweep", "--data", "nope", "--world", "nope.json", "--c-grid", "1,0.5,1.0",
          "--seed", "1", "--out", "out"],
         "--c-grid: expects comma-separated finite numbers > 0, got 1.0 twice"),
        (["sweep", "--data", "nope", "--world", "nope.json", "--sizes", "100",
          "--methods", "svm,centroid,svm", "--seed", "1", "--out", "out"],
         "--methods: expects a comma-separated subset of centroid,svm, got 'svm' twice"),
        (["sweep", "--data", "nope", "--world", "nope.json", "--sizes", "100",
          "--policies", "skip, skip", "--seed", "1", "--out", "out"],
         "--policies: expects a comma-separated subset of skip,oversample,uniform, "
         "got 'skip' twice"),
    ], ids=["edit-alpha-nan", "eval-alpha-inf", "sweep-alpha-nan", "eval-n-zero",
            "uniform-sample-policy", "fit-c-nan", "fit-c-inf", "fit-c-negative",
            "fit-tol-nan", "fit-tol-zero", "fit-max-iter-zero", "sweep-svm-c-inf",
            "sweep-c-grid-inf", "sweep-sizes-repeat", "sweep-c-grid-repeat",
            "sweep-methods-repeat", "sweep-policies-repeat"])
    def test_bad_flag_value_is_usage_error(self, tmp_path, monkeypatch, capsys, argv, named):
        monkeypatch.chdir(tmp_path)
        code = run(*argv)
        assert code == 1
        assert named in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


# every value flag parses through a checked type, so a new flag cannot skip the
# checks; --seed takes any integer and synth --n leaves n >= 0 to sample_world
def test_no_flag_has_a_bare_numeric_type():
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    bare = [(command, action.option_strings) for command, parser in sub.choices.items()
            for action in parser._actions
            if action.type in (int, float) and action.dest != "seed"
            and (command, action.dest) != ("synth", "n")]
    assert bare == []


def test_csv_inputs_are_utf8_whatever_the_locale(tmp_path, synth_base):
    # under the C locale with UTF-8 mode off, Python's default text encoding is ASCII
    env = {k: v for k, v in os.environ.items() if not k.startswith(("LC_", "PYTHON"))}
    env.update(PYTHONUTF8="0", LC_ALL="C", PYTHONPATH=str(Path(lb.__file__).parents[1]))

    def cli(*argv):
        done = subprocess.run([sys.executable, "-m", "latbal.cli", *argv], env=env,
                              capture_output=True, text=True, errors="replace", cwd=tmp_path)
        return done.returncode, done.stderr

    table = "attribute,effect\nlächeln,0.5\n".encode("utf-8")
    (tmp_path / "a.csv").write_bytes(table)
    assert cli("report", "--inputs", "a.csv", "a.csv", "--out", "m.csv") == (0, "")
    assert (tmp_path / "m.csv").read_bytes() == table + "lächeln,0.5\n".encode("utf-8")

    (tmp_path / "latin1.csv").write_bytes("attribute\nlächeln\n".encode("latin-1"))
    code, err = cli("report", "--inputs", "latin1.csv", "--out", "n.csv")
    assert code == 2 and "latin1.csv: not UTF-8 text" in err
    (tmp_path / "sub.csv").write_bytes("position,row_index\n0,5 # zurück\n".encode("latin-1"))
    code, err = cli("fit", "--data", synth_base, "--subsample", "sub.csv", "--out-dir", "d")
    assert code == 2 and "sub.csv: not UTF-8 text" in err
    assert not (tmp_path / "n.csv").exists() and not (tmp_path / "d").exists()


def test_report_inputs_with_other_headers_are_data_error(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    a.write_bytes(b"attribute,effect\na,0.5\n")
    b.write_bytes(b"attribute,value\na,0.5\n")
    assert run("report", "--inputs", str(a), str(b), "--out", str(tmp_path / "m.csv")) == 2
    assert capsys.readouterr().err == (f"latbal report: {b}: header ['attribute', 'value'] "
                                       "does not match ['attribute', 'effect']\n")
    assert not (tmp_path / "m.csv").exists()


def test_report_json_refuses_a_repeated_header_name(tmp_path, capsys):
    # a JSON object keeps one value per key, so the first "a" column was lost
    a = tmp_path / "a.csv"
    a.write_bytes(b"a,a\n1,2\n")
    assert run("report", "--inputs", str(a), "--out", str(tmp_path / "m.json"),
               "--format", "json") == 2
    assert capsys.readouterr().err == (f"latbal report: {a}: header repeats 'a'; "
                                       "JSON output needs distinct names\n")
    assert not (tmp_path / "m.json").exists()
    # CSV output keeps every column
    assert run("report", "--inputs", str(a), str(a), "--out", str(tmp_path / "m.csv")) == 0
    assert (tmp_path / "m.csv").read_bytes() == b"a,a\n1,2\n1,2\n"


def test_report_reads_standard_csv_and_names_a_bad_file(tmp_path, capsys):
    # CR-only line ends and quoted fields merge like any CSV
    (tmp_path / "cr.csv").write_bytes(b'attribute,effect\r"a,b",0.5\r')
    merged = tmp_path / "m.csv"
    assert run("report", "--inputs", str(tmp_path / "cr.csv"), str(tmp_path / "cr.csv"),
               "--out", str(merged)) == 0
    assert merged.read_bytes() == b'attribute,effect\n"a,b",0.5\n"a,b",0.5\n'
    capsys.readouterr()
    # a field past the csv module's 128 KiB limit is a data error naming file and line
    big = tmp_path / "big.csv"
    big.write_bytes(b"attribute,effect\na,0.5\n" + b"x" * (200 << 10) + b",1\n")
    assert run("report", "--inputs", str(tmp_path / "cr.csv"), str(big),
               "--out", str(tmp_path / "n.csv")) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"latbal report: {big}:3: field larger than field limit")
    assert err.count("\n") == 1
    (tmp_path / "empty.csv").write_bytes(b"")
    assert run("report", "--inputs", str(tmp_path / "empty.csv"),
               "--out", str(tmp_path / "n.csv")) == 2
    assert capsys.readouterr().err == f"latbal report: {tmp_path / 'empty.csv'}: empty CSV\n"
    # an unterminated quote and a short row are data errors, not merged rows
    for name, text, named in [("b.csv", b'attribute,effect\n"trunc,2\n', "unexpected end of data"),
                              ("c.csv", b"attribute,effect\na\n",
                               "1 fields where the header has 2")]:
        (tmp_path / name).write_bytes(text)
        assert run("report", "--inputs", str(tmp_path / "cr.csv"), str(tmp_path / name),
                   "--out", str(tmp_path / "n.csv")) == 2
        assert capsys.readouterr().err == f"latbal report: {tmp_path / name}:2: {named}\n"
    assert not (tmp_path / "n.csv").exists()
