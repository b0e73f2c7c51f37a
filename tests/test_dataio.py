import csv
import io
import os
import stat
import struct
from pathlib import Path

import numpy as np
import pytest

import latbal as lb
from latbal.dataio import (MAGIC, VERSION, LatdFormatError, atomic_write_bytes, read_csv,
                           write_dataset_blocks, write_json)

from conftest import traced_peak


@pytest.fixture()
def oracle_dataset(world42):
    return lb.sample_world(world42, 1000, seed=13)


def test_roundtrip_is_bit_exact(tmp_path, oracle_dataset):
    base = str(tmp_path / "data")
    lb.write_dataset(oracle_dataset, base)
    loaded = lb.read_dataset(base)
    assert np.array_equal(loaded.codes, oracle_dataset.codes)
    assert np.array_equal(loaded.labels, oracle_dataset.labels)
    assert loaded.schema == oracle_dataset.schema
    assert loaded.dim == oracle_dataset.dim


def test_empty_dataset_writes_header_only(tmp_path):
    schema = lb.AttributeSchema(("glasses", "gender", "smile", "age"))
    ds = lb.LatentDataset(codes=np.zeros((0, 512)),
                          labels=np.zeros((0, 4), np.uint8), schema=schema)
    base = str(tmp_path / "empty")
    latd_path, labels_path = lb.write_dataset(ds, base)
    assert (tmp_path / "empty.latd").stat().st_size == 24
    assert (tmp_path / "empty.labels.csv").read_text() == "glasses,gender,smile,age\n"
    loaded = lb.read_dataset(base)
    assert loaded.n == 0 and loaded.dim == 512


def test_schema_adopted_from_csv_header(tmp_path, oracle_dataset):
    base = str(tmp_path / "named")
    named = lb.LatentDataset(codes=oracle_dataset.codes,
                             labels=oracle_dataset.labels,
                             schema=lb.AttributeSchema(("glasses", "gender", "smile", "age")))
    lb.write_dataset(named, base)
    assert lb.read_dataset(base).schema.names == ("glasses", "gender", "smile", "age")


def _write_raw(tmp_path, name, blob, labels_text):
    (tmp_path / f"{name}.latd").write_bytes(blob)
    (tmp_path / f"{name}.labels.csv").write_text(labels_text)
    return str(tmp_path / name)


def test_bad_magic_rejected(tmp_path):
    blob = struct.pack("<4sIIQI", b"NOPE", VERSION, 2, 0, 0)
    base = _write_raw(tmp_path, "bad", blob, "a,b\n")
    with pytest.raises(LatdFormatError, match="magic"):
        lb.read_dataset(base)


def test_unsupported_version_rejected(tmp_path):
    blob = struct.pack("<4sIIQI", MAGIC, 2, 2, 0, 0)
    base = _write_raw(tmp_path, "v2", blob, "a,b\n")
    with pytest.raises(LatdFormatError, match="version 2"):
        lb.read_dataset(base)


def test_truncated_payload_names_byte_counts(tmp_path):
    header = struct.pack("<4sIIQI", MAGIC, VERSION, 2, 3, 0)
    payload = np.zeros(4, dtype="<f8").tobytes()  # should be 3*2 doubles
    base = _write_raw(tmp_path, "trunc", header + payload, "a,b\n0,0\n0,0\n0,0\n")
    with pytest.raises(LatdFormatError, match="expected 72 bytes, got 56"):
        lb.read_dataset(base)


def test_trailing_garbage_rejected(tmp_path):
    header = struct.pack("<4sIIQI", MAGIC, VERSION, 1, 1, 0)
    payload = np.zeros(1, dtype="<f8").tobytes() + b"xx"
    base = _write_raw(tmp_path, "extra", header + payload, "a\n0\n")
    with pytest.raises(LatdFormatError, match="length mismatch"):
        lb.read_dataset(base)


def test_count_disagreement_rejected(tmp_path):
    header = struct.pack("<4sIIQI", MAGIC, VERSION, 1, 2, 0)
    payload = np.zeros(2, dtype="<f8").tobytes()
    base = _write_raw(tmp_path, "count", header + payload, "a\n0\n0\n0\n")
    with pytest.raises(LatdFormatError, match="3 label rows but binary declares 2"):
        lb.read_dataset(base)


def test_non_binary_label_token_rejected(tmp_path):
    header = struct.pack("<4sIIQI", MAGIC, VERSION, 1, 1, 0)
    payload = np.zeros(1, dtype="<f8").tobytes()
    base = _write_raw(tmp_path, "tok", header + payload, "a\n2\n")
    with pytest.raises(LatdFormatError, match="not 0 or 1"):
        lb.read_dataset(base)


def test_missing_header_rejected(tmp_path):
    base = _write_raw(tmp_path, "nohdr", struct.pack("<4sIIQI", MAGIC, VERSION, 1, 0, 0), "")
    with pytest.raises(LatdFormatError, match="header"):
        lb.read_dataset(base)


def test_short_binary_header_rejected(tmp_path):
    base = _write_raw(tmp_path, "short", b"LAT", "a\n")
    with pytest.raises(LatdFormatError, match="truncated header"):
        lb.read_dataset(base)


def test_confidence_flag_layout_is_refused(tmp_path, oracle_dataset):
    # latbal once set flag bit 0 and wrote count*m per-label confidences after
    # the codes; such a file is refused by its flags before the labels are
    # parsed, and rerunning the synth command that made it writes flags 0
    ds = oracle_dataset
    codes = ds.codes.astype("<f8").tobytes()
    block = np.linspace(0.0, 1.0, ds.n * ds.m).astype("<f8").tobytes()
    old = struct.pack("<4sIIQI", MAGIC, VERSION, ds.dim, ds.n, 1) + codes + block
    base = _write_raw(tmp_path, "old", old, "a,b\n0,2\n")
    with pytest.raises(LatdFormatError) as exc:
        lb.read_dataset(base)
    assert str(exc.value) == f"{base}.latd: unsupported flags 1, expected 0"


def test_latd_size_is_checked_before_the_labels(tmp_path):
    header = struct.pack("<4sIIQI", MAGIC, VERSION, 2, 3, 0)
    base = _write_raw(tmp_path, "short", header + bytes(8), "a,b\n0,2\n")
    with pytest.raises(LatdFormatError) as exc:
        lb.read_dataset(base)
    assert str(exc.value) == (f"{base}.latd: payload length mismatch "
                              "(expected 72 bytes, got 32)")


def test_nan_codes_fail_validation_on_read(tmp_path):
    header = struct.pack("<4sIIQI", MAGIC, VERSION, 1, 1, 0)
    payload = np.array([np.nan], dtype="<f8").tobytes()
    base = _write_raw(tmp_path, "nan", header + payload, "a\n0\n")
    with pytest.raises(LatdFormatError, match="invalid dataset"):
        lb.read_dataset(base)


def test_dim_zero_header_is_an_invalid_dataset(tmp_path):
    base = _write_raw(tmp_path, "dim0", struct.pack("<4sIIQI", MAGIC, VERSION, 0, 1, 0), "a\n0\n")
    with pytest.raises(LatdFormatError) as exc:
        lb.read_dataset(base)
    assert str(exc.value) == (f"{base}: invalid dataset: codes must be 2-d with dim > 0, "
                              "got shape (1, 0)")


def test_write_is_atomic_no_temp_left_behind(tmp_path, oracle_dataset):
    base = str(tmp_path / "atomic")
    lb.write_dataset(oracle_dataset, base)
    leftovers = [p.name for p in tmp_path.iterdir() if p.name.startswith(".tmp-")]
    assert leftovers == []


@pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o027, 0o640)],
                         ids=["umask022", "umask027"])
def test_written_files_get_umask_mode(tmp_path, oracle_dataset, umask, mode):
    # like open(): 0666 less the umask, not the 0600 of the temp file
    old = os.umask(umask)
    try:
        paths = lb.write_dataset(oracle_dataset, str(tmp_path / "modes"))
    finally:
        os.umask(old)
    assert [stat.S_IMODE(os.stat(p).st_mode) for p in paths] == [mode, mode]


def test_writes_leave_the_process_umask_alone(tmp_path, oracle_dataset, monkeypatch):
    # reading the umask means setting it, a process-wide change another thread
    # can see; the kernel applies it when the temp file is created
    def umask(mask):
        raise AssertionError("os.umask called")

    monkeypatch.setattr(os, "umask", umask)
    paths = lb.write_dataset(oracle_dataset, str(tmp_path / "d"))
    write_json(str(tmp_path / "a.json"), {"k": 1})
    assert lb.read_dataset(str(tmp_path / "d")).n == oracle_dataset.n
    assert (tmp_path / "a.json").read_text() == '{\n  "k": 1\n}\n'
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        [Path(p).name for p in paths] + ["a.json"])


def _labels_dataset(labels, names):
    labels = np.asarray(labels, dtype=np.uint8)
    return lb.LatentDataset(codes=np.zeros((labels.shape[0], 1)), labels=labels,
                            schema=lb.AttributeSchema(names))


def test_labels_csv_bytes_equal_csv_writer_reference(tmp_path):
    names = ("plain", "has,comma", 'say "hi"', "two\nlines")
    labels = np.random.default_rng(3).integers(0, 2, size=(50, 4), dtype=np.uint8)
    _, labels_path = lb.write_dataset(_labels_dataset(labels, names), str(tmp_path / "q"))
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(names)
    for row in labels:
        writer.writerow([int(b) for b in row])
    assert Path(labels_path).read_bytes() == out.getvalue().encode("utf-8")
    loaded = lb.read_dataset(str(tmp_path / "q"))
    assert loaded.schema.names == names
    assert np.array_equal(loaded.labels, labels)


@pytest.mark.parametrize("body", [
    "0,1\n1,1\n0,0",
    "0,1\r\n1,1\r\n0,0\r\n",
    "0,1\r\n1,1\r\n0,0",
    "0,1\n1,1\r\n0,0\n",
], ids=["lf-no-final-newline", "crlf", "crlf-no-final-newline", "mixed"])
def test_label_line_ends_read_back_the_same(tmp_path, body):
    header = struct.pack("<4sIIQI", MAGIC, VERSION, 1, 3, 0)
    payload = np.zeros(3, dtype="<f8").tobytes()
    (tmp_path / "ends.latd").write_bytes(header + payload)
    (tmp_path / "ends.labels.csv").write_bytes(("a,b\r\n" + body).encode())
    loaded = lb.read_dataset(str(tmp_path / "ends"))
    assert loaded.labels.tolist() == [[0, 1], [1, 1], [0, 0]]


@pytest.mark.parametrize("body,message", [
    ("0,1\n1,x\n0,0\n", r"bad\.labels\.csv:3: label token 'x' is not 0 or 1"),
    ("0,1\n1,1\n0,0,1\n", r"bad\.labels\.csv:4: expected 2 columns, got 3"),
    ("0,1\n\n1,1\n", r"bad\.labels\.csv:3: expected 2 columns, got 0"),
    ("0,1\n1\n0,0\n", r"bad\.labels\.csv:3: expected 2 columns, got 1"),
    ('0,1\n"0",1\n0,0\n', r"bad\.labels\.csv:3: label token '\"0\"' is not 0 or 1"),
    ("0,1\n1,1\n0,0\r\r\n", r"bad\.labels\.csv:4: label token '0\\r' is not 0 or 1"),
], ids=["bad-token", "column-count", "blank-line", "short-row", "quoted-token", "stray-cr"])
def test_bad_label_rows_name_their_line(tmp_path, body, message):
    header = struct.pack("<4sIIQI", MAGIC, VERSION, 1, 3, 0)
    base = _write_raw(tmp_path, "bad", header + np.zeros(3, dtype="<f8").tobytes(),
                      "a,b\n" + body)
    with pytest.raises(LatdFormatError, match=message):
        lb.read_dataset(base)


def test_bad_row_after_multiline_header_names_its_physical_line(tmp_path):
    header = struct.pack("<4sIIQI", MAGIC, VERSION, 1, 2, 0)
    base = _write_raw(tmp_path, "ml", header + np.zeros(2, dtype="<f8").tobytes(),
                      'a,"b\nc"\n0,1\n2,0\n')
    with pytest.raises(LatdFormatError, match=r"ml\.labels\.csv:4: label token '2'"):
        lb.read_dataset(base)


@pytest.mark.parametrize("labels_bytes,lineno", [
    (b"a,b\n0,1\n1,\xff\n", 3),
    (b"a,\xff\n0,1\n1,1\n", 1),
], ids=["row", "header"])
def test_undecodable_labels_file_names_path_and_line(tmp_path, labels_bytes, lineno):
    header = struct.pack("<4sIIQI", MAGIC, VERSION, 1, 2, 0)
    (tmp_path / "enc.latd").write_bytes(header + np.zeros(2, dtype="<f8").tobytes())
    (tmp_path / "enc.labels.csv").write_bytes(labels_bytes)
    with pytest.raises(LatdFormatError, match=rf"enc\.labels\.csv:{lineno}: not UTF-8"):
        lb.read_dataset(str(tmp_path / "enc"))


def test_atomic_write_fsyncs_before_rename(tmp_path, monkeypatch):
    calls, on_dir = [], []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        calls.append("fsync")
        on_dir.append(stat.S_ISDIR(os.fstat(fd).st_mode))
        real_fsync(fd)

    def replace(src, dst):
        calls.append("replace")
        real_replace(src, dst)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    target = tmp_path / "durable.bin"
    atomic_write_bytes(str(target), b"payload")
    # the file before the rename publishes it, its directory after, so the
    # rename too survives a crash
    assert calls == ["fsync", "replace", "fsync"]
    assert on_dir == [False, True]
    assert target.read_bytes() == b"payload"


def test_write_dataset_holds_no_copy_of_the_arrays(tmp_path, dataset20k):
    # the header and the arrays stream to the file; assembling them into one
    # payload first would peak at about the arrays' size
    array_bytes = dataset20k.codes.nbytes
    _, peak = traced_peak(lb.write_dataset, dataset20k, str(tmp_path / "big"))
    assert dataset20k.codes.shape == (20_000, 64)
    assert peak < 0.1 * array_bytes
    loaded = lb.read_dataset(str(tmp_path / "big"))
    assert np.array_equal(loaded.codes, dataset20k.codes)


def test_read_maps_the_codes_read_only(tmp_path, dataset100k):
    # the codes are the file's pages, mapped read-only; a copy would peak at
    # their size, and its writeable flag could be set back
    lb.write_dataset(dataset100k, str(tmp_path / "big"))
    loaded, peak = traced_peak(lb.read_dataset, str(tmp_path / "big"))
    assert peak < 0.1 * dataset100k.codes.nbytes
    assert not loaded.codes.flags.writeable
    with pytest.raises(ValueError):
        loaded.codes.setflags(write=True)
    assert loaded.codes.tobytes() == dataset100k.codes.tobytes()


def test_write_refuses_non_finite_codes_and_leaves_no_file(tmp_path):
    codes = np.zeros((5, 3))
    codes[3, 1] = np.inf
    codes[4, 0] = np.nan
    ds = lb.LatentDataset(codes=codes, labels=np.zeros((5, 1), np.uint8),
                          schema=lb.AttributeSchema(("a",)))
    with pytest.raises(ValueError, match="codes row 3: non-finite component"):
        lb.write_dataset(ds, str(tmp_path / "bad"))
    assert list(tmp_path.iterdir()) == []


def test_finite_rows_whose_sum_overflows_are_written(tmp_path):
    codes = np.full((2, 2), 1e308)
    ds = lb.LatentDataset(codes=codes, labels=np.zeros((2, 1), np.uint8),
                          schema=lb.AttributeSchema(("a",)))
    lb.write_dataset(ds, str(tmp_path / "big"))
    assert np.array_equal(lb.read_dataset(str(tmp_path / "big")).codes, codes)


@pytest.mark.parametrize("text", ['a,b\n"x,\ny",2\n', 'a,b\r\n"x,\ny",2\r\n',
                                  'a,b\r"x,\ny",2'], ids=["lf", "crlf", "cr-only"])
def test_read_csv_reads_standard_csv(tmp_path, text):
    (tmp_path / "t.csv").write_bytes(text.encode("utf-8"))
    assert read_csv(str(tmp_path / "t.csv")) == (["a", "b"], [["x,\ny", "2"]])


@pytest.mark.parametrize("payload,message", [
    (b"", ": empty CSV"),
    ("a\nl\u00e4cheln\n".encode("latin-1"), ": not UTF-8 text"),
    (b"a\n" + b"x" * (200 << 10) + b"\n", ":2: field larger than field limit"),
    (b'a,b\n"x,\ny",2\n"trunc,2\n', ":4: unexpected end of data"),
    (b'a,b\n"x,\ny",2\n1\n', ":4: 1 fields where the header has 2"),
], ids=["empty", "latin-1", "long-field", "unterminated-quote", "short-row"])
def test_read_csv_faults_name_the_path(tmp_path, payload, message):
    path = tmp_path / "t.csv"
    path.write_bytes(payload)
    with pytest.raises(LatdFormatError) as exc:
        read_csv(str(path))
    assert str(exc.value).startswith(f"{path}{message}")


def test_read_csv_parses_each_row_and_names_its_first_line(tmp_path):
    def parse(row):
        if row[0] == "bad":
            raise ValueError(f"cannot parse {row[1]!r}")
        return row[1]

    path = tmp_path / "t.csv"
    path.write_bytes(b'a,b\n"x\ny",1\nz,2\n')
    assert read_csv(str(path), parse) == (["a", "b"], ["1", "2"])
    # parse runs before the field count check, so its own message wins
    path.write_bytes(b'a,b\n"x\ny",1\nbad,"3\n"\nbad,4,5\n')
    with pytest.raises(LatdFormatError) as exc:
        read_csv(str(path), parse)
    assert str(exc.value) == f"{path}:4: cannot parse '3\\n'"
    path.write_bytes(b'a,b\n"x\ny",1\nz,"3\n"\nbad,4,5\n')
    with pytest.raises(LatdFormatError) as exc:
        read_csv(str(path), parse)
    assert str(exc.value) == f"{path}:6: cannot parse '4'"


@pytest.mark.parametrize("blocks,labels,message", [
    ([np.zeros((2, 3)), np.zeros((2, 2))], np.zeros((4, 1)),
     "bad.latd: codes block 1 has shape (2, 2) at row 2, expected (rows, 3) within 4 rows; "
     "nothing written"),
    ([np.zeros((3, 3)), np.zeros((2, 3))], np.zeros((4, 1)),
     "bad.latd: codes block 1 has shape (2, 3) at row 3, expected (rows, 3) within 4 rows; "
     "nothing written"),
    ([np.zeros((2, 3))], np.zeros((4, 1)),
     "bad.latd: codes blocks hold 2 rows for 4 label rows; nothing written"),
    ([np.zeros((4, 3))], np.array([[0], [1], [2], [1]]),
     "label row 2 holds a value that is not 0 or 1"),
    ([np.zeros((4, 3))], np.zeros((4, 2)),
     "labels have shape (4, 2), expected (4, 1)"),
], ids=["width", "too-many-rows", "too-few-rows", "label-2", "label-columns"])
def test_write_refuses_what_the_reader_rejects_and_leaves_no_file(tmp_path, blocks, labels,
                                                                   message):
    # the writer refuses both, labels once the blocks are consumed
    with pytest.raises(ValueError) as exc:
        write_dataset_blocks(str(tmp_path / "bad"), lb.AttributeSchema(("a",)), labels, 3,
                             iter(blocks))
    assert str(exc.value).endswith(message)
    assert list(tmp_path.iterdir()) == []


def test_write_dataset_refuses_a_label_of_two(tmp_path):
    with pytest.raises(ValueError, match="label row 2 holds a value that is not 0 or 1"):
        ds = lb.LatentDataset(codes=np.zeros((3, 2)), labels=[[0, 1], [1, 0], [1, 2]],
                              schema=lb.AttributeSchema(("a", "b")))
        lb.write_dataset(ds, str(tmp_path / "bad"))
    assert list(tmp_path.iterdir()) == []
