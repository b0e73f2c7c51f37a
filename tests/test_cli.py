import csv
import hashlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import latbal as lb
from latbal.cli import main


def run(*argv):
    return main(list(argv))


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


def test_contingency_command(tmp_path, synth_base, capsys):
    out = str(tmp_path / "table.csv")
    stats = str(tmp_path / "stats.json")
    assert run("contingency", "--data", synth_base, "--out", out, "--stats", stats) == 0
    lines = open(out).read().splitlines()
    assert lines[0] == "cell_index,bits,count"
    assert len(lines) == 17
    payload = json.loads(open(stats).read())
    assert payload["nonempty_cells"] >= 14
    assert payload["max_min_ratio"] > 3


def test_sample_fit_eval_pipeline(tmp_path, synth_base):
    sub = str(tmp_path / "sub")
    assert run("sample", "--data", synth_base, "--mode", "balanced",
               "--n0", "400", "--policy", "skip", "--seed", "42", "--out", sub) == 0
    sidecar = json.loads(open(sub + ".json").read())
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
    lines = open(out + ".csv").read().splitlines()
    assert lines[0] == "direction,attribute,value"
    assert len(lines) == 1 + 16
    payload = json.loads(open(out + ".json").read())
    values = np.array(payload["values"])
    assert np.all(np.diag(values) > 0)


def test_uniform_sample_mode(tmp_path, synth_base):
    sub = str(tmp_path / "uni")
    assert run("sample", "--data", synth_base, "--mode", "uniform",
               "--n0", "100", "--seed", "3", "--out", sub) == 0
    rows = open(sub + ".csv").read().splitlines()
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


def test_sweep_and_report(tmp_path, synth_base):
    out = str(tmp_path / "sweep.csv")
    assert run("sweep", "--data", synth_base, "--world", synth_base + ".world.json",
               "--sizes", "50,200", "--runs", "2", "--n-eval", "200",
               "--seed", "11", "--out", out) == 0
    lines = open(out).read().splitlines()
    assert lines[0].startswith("parameter,attribute,effect,entanglement")
    assert len(lines) == 1 + 2 * 4

    merged = str(tmp_path / "merged.json")
    assert run("report", "--inputs", out, out, "--out", merged, "--format", "json") == 0
    rows = json.loads(open(merged).read())
    assert len(rows) == 16
    assert {"parameter", "attribute", "effect"} <= set(rows[0])


def test_c_grid_sweep(tmp_path, synth_base):
    out = str(tmp_path / "cgrid.csv")
    assert run("sweep", "--data", synth_base, "--world", synth_base + ".world.json",
               "--c-grid", "1e-6", "--n0", "300", "--runs", "1", "--n-eval", "100",
               "--seed", "3", "--out", out) == 0
    lines = open(out).read().splitlines()
    assert len(lines) == 1 + 4 + 4  # svm rows + centroid reference rows


def test_readme_first_step_creates_the_data_directory(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run("synth", "--out", "data/demo", "--n", "100000", "--seed", "42") == 0
    assert lb.read_dataset("data/demo").n == 100_000
    assert sorted(p.name for p in (tmp_path / "data").iterdir()) == [
        "demo.labels.csv", "demo.latd", "demo.world.json"]


# sha256 of the README walkthrough's CSVs (at 20k codes and a shorter sweep),
# recorded before the CSV writers moved to csv.writer: plain names must keep
# every byte
WALKTHROUGH_CSV_SHA256 = {
    "table.csv": "c43e34e56f742005463e5523fbad91892e9edf54bc18874e5d16d18897826b41",
    "bal.csv": "4c0be95a3e9c7fd9a65500f8e3cad8c1666623a78d72e61fb86f62f27c09f445",
    "uni.csv": "95e38fd77e345a8f434d201f2fe76586da57fdf0934446292970f5f4c0594ace",
    "rescore.csv": "77487fb573aa922e6be4e854fb9afc453e4fcf555ba1e0f0923e2f5eaae7c9a3",
    "sizes.csv": "b771470d270da24a84f6b4da15b6c8dee55c852074fdaf26e127a5fc1b93984e",
    "all.csv": "085fc8b9697b4e008b74241bbe73dbbacd472cf3479bcbafd5a61a9facf7aa00",
}


def test_walkthrough_csvs_keep_their_bytes(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "data").mkdir()
    dirs = [f"data/dirs/attr{k}.json" for k in range(4)]
    for line in [
        "synth --out data/demo --n 20000 --seed 42",
        "contingency --data data/demo --out data/table.csv",
        "sample --data data/demo --mode balanced --n0 1000 --policy skip --seed 42 "
        "--out data/bal",
        "sample --data data/demo --mode uniform --n0 1000 --seed 42 --out data/uni",
        "fit --data data/demo --subsample data/bal.csv --method centroid "
        "--out-dir data/dirs --seed 42",
        "eval --world data/demo.world.json --directions " + " ".join(dirs)
        + " --alpha 0.2 --n 2000 --seed 7 --out data/rescore",
        "sweep --data data/demo --world data/demo.world.json --sizes 100,300,1000 "
        "--runs 2 --n-eval 500 --seed 42 --out data/sizes.csv",
        "report --inputs data/sizes.csv data/sizes.csv --out data/all.csv",
    ]:
        assert run(*line.split()) == 0, line
    for name, digest in WALKTHROUGH_CSV_SHA256.items():
        assert hashlib.sha256((tmp_path / "data" / name).read_bytes()).hexdigest() == digest


# sha256 of an SVM-bearing size sweep over every policy and of a C sweep on the
# 20k-code walkthrough dataset, recorded before the two sweeps shared one engine
SWEEP_CSV_SHA256 = {
    "--c-grid 1e-4,1 --n0 500":
        "e0754ff1891b71cc8e33622ffe0a7357b224f4f5145d1378c7987f22303f70ce",
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


def test_demo_balance_script_runs():
    script = Path(__file__).resolve().parent.parent / "scripts" / "demo_balance.py"
    proc = subprocess.run([sys.executable, str(script), "--n", "20000", "--n0", "200"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("max/min ratio") == 3


def test_csv_outputs_quote_names_that_need_it(tmp_path):
    names = ("eye,glasses", 'smile "wide"')
    world = lb.make_world(dim=8, m=2, gram=np.eye(2), positive_rates=[0.5, 0.4],
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
    assert open(a + ".latd", "rb").read() == open(b + ".latd", "rb").read()
    assert open(a + ".labels.csv").read() == open(b + ".labels.csv").read()
    assert open(a + ".world.json").read() == open(b + ".world.json").read()


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run("synth", "--bogus")
        assert exc.value.code == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_command_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run("frobnicate")
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
    ], ids=["policy", "method", "size-zero", "size-text", "n0-zero", "c-negative", "runs-zero",
            "n-eval-zero", "svm-c-zero"])
    def test_bad_sweep_grid_is_usage_error(self, tmp_path, capsys, flags, named):
        out = tmp_path / "s.csv"
        code = run("sweep", "--data", str(tmp_path / "nope"),
                   "--world", str(tmp_path / "nope.world.json"), *flags,
                   "--out", str(out), "--seed", "1")
        assert code == 1
        assert named in capsys.readouterr().err
        assert not out.exists()

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
