"""Dataset files: a little-endian binary code blob plus a labels CSV.

Layout of ``<base>.latd``::

    offset  size  field
    0       4     magic "LATD"
    4       4     version (u32, = 1)
    8       4     dim (u32)
    12      8     count (u64)
    20      4     flags (u32; bit 0: confidences present)
    24      -     count * dim float64 codes, row-major
    ...     -     count * m float64 confidences (only if flag bit 0)

All integers and floats are little-endian.  Labels are human-editable and
live in ``<base>.labels.csv``: a header row of attribute names followed by
one 0/1 row per code.  The attribute count m comes from that header, which
is why the reader parses the CSV before slicing the confidence block.

All writes go through a temp file in the target directory followed by an
atomic rename, so an interrupted run never leaves a half-written file.
"""

from __future__ import annotations

import csv
import io
import os
import struct
import tempfile

import numpy as np

from .core import AttributeSchema, LatentDataset, validate_dataset

MAGIC = b"LATD"
VERSION = 1
_HEADER = struct.Struct("<4sIIQI")  # magic, version, dim, count, flags
FLAG_CONFIDENCES = 1


class LatdFormatError(ValueError):
    """Malformed or unsupported dataset file."""


def _umask() -> int:
    # os.umask can only be read by setting it; the CLI is single-threaded
    mask = os.umask(0)
    os.umask(mask)
    return mask


def atomic_write_bytes(path: str, payload: bytes) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "wb") as f:
            # mkstemp creates the file 0600 and os.replace keeps that mode;
            # give it the mode open() would have: 0666 less the umask
            os.fchmod(f.fileno(), 0o666 & ~_umask())
            f.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def dataset_paths(path_base: str) -> tuple[str, str]:
    return path_base + ".latd", path_base + ".labels.csv"


def write_dataset(dataset: LatentDataset, path_base: str) -> tuple[str, str]:
    latd_path, labels_path = dataset_paths(path_base)
    flags = FLAG_CONFIDENCES if dataset.confidences is not None else 0

    blob = io.BytesIO()
    blob.write(_HEADER.pack(MAGIC, VERSION, dataset.dim, dataset.n, flags))
    blob.write(np.ascontiguousarray(dataset.codes, dtype="<f8").tobytes())
    if dataset.confidences is not None:
        blob.write(np.ascontiguousarray(dataset.confidences, dtype="<f8").tobytes())
    atomic_write_bytes(latd_path, blob.getvalue())

    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(dataset.schema.names)
    for row in dataset.labels:
        writer.writerow([int(b) for b in row])
    atomic_write_text(labels_path, out.getvalue())
    return latd_path, labels_path


def _read_labels_csv(path: str) -> tuple[AttributeSchema, np.ndarray]:
    with open(path, newline="") as f:
        reader = csv.reader(f)
        try:
            header = next(reader)
        except StopIteration:
            raise LatdFormatError(f"{path}: missing header row") from None
        schema = AttributeSchema(tuple(header))
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != schema.m:
                raise LatdFormatError(
                    f"{path}:{lineno}: expected {schema.m} columns, got {len(row)}")
            for token in row:
                if token not in ("0", "1"):
                    raise LatdFormatError(
                        f"{path}:{lineno}: label token {token!r} is not 0 or 1")
            rows.append([int(t) for t in row])
    labels = np.array(rows, dtype=np.uint8) if rows else np.empty((0, schema.m), np.uint8)
    return schema, labels


def read_dataset(path_base: str) -> LatentDataset:
    latd_path, labels_path = dataset_paths(path_base)
    with open(latd_path, "rb") as f:
        raw = f.read()
    if len(raw) < _HEADER.size:
        raise LatdFormatError(f"{latd_path}: truncated header "
                              f"(expected {_HEADER.size} bytes, got {len(raw)})")
    magic, version, dim, count, flags = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise LatdFormatError(f"{latd_path}: bad magic {magic!r}, expected {MAGIC!r}")
    if version != VERSION:
        raise LatdFormatError(f"{latd_path}: unsupported version {version}, expected {VERSION}")

    schema, labels = _read_labels_csv(labels_path)
    if labels.shape[0] != count:
        raise LatdFormatError(
            f"{labels_path}: {labels.shape[0]} label rows but binary declares {count} codes")

    has_conf = bool(flags & FLAG_CONFIDENCES)
    expected = _HEADER.size + count * dim * 8 + (count * schema.m * 8 if has_conf else 0)
    if len(raw) != expected:
        raise LatdFormatError(f"{latd_path}: payload length mismatch "
                              f"(expected {expected} bytes, got {len(raw)})")

    offset = _HEADER.size
    codes = np.frombuffer(raw, dtype="<f8", count=count * dim, offset=offset)
    codes = codes.reshape(count, dim).astype(np.float64)
    confidences = None
    if has_conf:
        offset += count * dim * 8
        confidences = np.frombuffer(raw, dtype="<f8", count=count * schema.m, offset=offset)
        confidences = confidences.reshape(count, schema.m).astype(np.float64)

    dataset = LatentDataset(dim=dim, codes=codes, labels=labels,
                            schema=schema, confidences=confidences)
    report = validate_dataset(dataset)
    if not report.ok:
        raise LatdFormatError(f"{path_base}: invalid dataset: " + "; ".join(report.violations[:5]))
    return dataset
