"""Dataset files: a little-endian binary code blob plus a labels CSV.

Layout of ``<base>.latd``::

    offset  size  field
    0       4     magic "LATD"
    4       4     version (u32, = 1)
    8       4     dim (u32)
    12      8     count (u64)
    20      4     flags (u32, = 0)
    24      -     count * dim float64 codes, row-major

All integers and floats are little-endian, and the reader checks the whole
file (header, flags and size) before it reads the labels.  Labels are
human-editable and live in ``<base>.labels.csv``: a header row of
attribute names (standard CSV, so names with commas or quotes round-trip)
followed by one row per code.  Each row is m unquoted ``0``/``1`` tokens
separated by ``,``; rows end in LF (as written) or CRLF, and the final
newline is optional.  The file is UTF-8.  Rows are written and checked as
one fixed-width byte array; a malformed file is rejected with the path and
line number of its first bad row.

All writes go through a temp file in the target directory, created 0666
less the umask (the mode open() gives), fsynced, then atomically renamed
over the target, so an interrupted run never leaves a half-written file;
the directory is then fsynced, so the rename survives a crash too.  A
``.latd`` write streams the header and then the codes, block by block, to
the temp file, with no assembled copy of the dataset.  Every module that
streams codes sizes its blocks here, by block_rows(dim): the fewest rows
that hold BLOCK_BYTES (1 MiB).  On Linux each chunk of BLOCK_BYTES or more,
so every full code block at any width, starts its writeback
(``sync_file_range``) once it is written, so the disk takes it while the
next block is made and the fsync waits only for the tail; that is a hint,
and durability still rests on the fsync and the rename.  The writer checks
each code block's width, row count and finiteness before it is written, and
the labels (n x m, 0s and 1s) once the blocks are consumed, so a generator of
blocks may fill them in; it leaves no file the reader would reject.

A read maps the codes read-only instead of copying them: the dataset's
codes are a view of the file's pages, and only the labels are held in
memory.  Rewriting a mapped file is safe, since every write renames a new
file over the old one and the map keeps the old one.  But if another
process truncates a ``.latd`` file while latbal has it mapped, touching the
lost pages kills latbal with SIGBUS.
"""

from __future__ import annotations

import csv
import ctypes
import io
import itertools
import json
import os
import struct

import numpy as np

from .core import AttributeSchema, LatentDataset, checked_labels, nonfinite_rows, validate_dataset

MAGIC = b"LATD"
VERSION = 1
_HEADER = struct.Struct("<4sIIQI")  # magic, version, dim, count, flags

_ZERO, _COMMA, _LF, _CR = b"0,\n\r"

# Linux's sync_file_range(fd, offset, nbytes, flags): with SYNC_FILE_RANGE_WRITE
# it starts writeback of that byte range and returns without waiting for it
try:
    _sync_file_range = ctypes.CDLL(None).sync_file_range
    _sync_file_range.argtypes = (ctypes.c_int, ctypes.c_int64, ctypes.c_int64, ctypes.c_uint)
except (AttributeError, OSError, TypeError):  # no such function here
    _sync_file_range = None
_SYNC_FILE_RANGE_WRITE = 2  # the flag's value in <fcntl.h>

# bytes of codes in a full block: small enough to stay in cache while it is
# made and checked, large enough that a writeback hint is worth its call
BLOCK_BYTES = 1 << 20


def block_rows(dim: int) -> int:
    """Rows of dim float64 codes in a block: the fewest that hold BLOCK_BYTES."""
    return -(-BLOCK_BYTES // (8 * dim))


class LatdFormatError(ValueError):
    """Malformed or unsupported dataset, JSON artifact or CSV input file."""


def _atomic_write(path: str, chunks) -> None:
    """Write the chunks (bytes or C-contiguous arrays), one after another, to
    path durably and atomically, creating a missing parent directory first.
    The temp file is created 0666 less the umask, as open() would make it."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp = os.path.join(directory, f".tmp-{os.urandom(8).hex()}~")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as f:
            offset = 0
            for chunk in chunks:
                nbytes = f.write(chunk)
                if _sync_file_range is not None and nbytes >= BLOCK_BYTES:
                    # the disk takes this chunk while the next one is made, so
                    # the fsync below waits only for the tail; a hint, so its
                    # result is not checked
                    f.flush()
                    _sync_file_range(f.fileno(), offset, nbytes, _SYNC_FILE_RANGE_WRITE)
                offset += nbytes
            f.flush()
            # the data must reach the disk before the rename publishes it
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    # and the rename itself must reach the disk, or a crash can undo it
    dir_fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


def atomic_write_bytes(path: str, payload: bytes | np.ndarray) -> None:
    """Write payload (bytes or a 1-D uint8 array) to path durably and atomically,
    creating a missing parent directory first."""
    _atomic_write(path, (payload,))


def atomic_write_text(path: str, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def csv_text(rows) -> str:
    """Rows of string fields as CSV: LF line ends, fields quoted only where needed."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


def write_json(path: str, obj) -> None:
    """The JSON artifact format: obj indented by two spaces, then a newline."""
    atomic_write_text(path, json.dumps(obj, indent=2) + "\n")


def read_json(path: str, parse):
    """parse(the JSON object in path).  A file that is not a JSON object, lacks
    a field parse reads, or holds a value parse rejects raises LatdFormatError."""
    try:
        with open(path, "rb") as f:
            obj = json.load(f)
        if not isinstance(obj, dict):
            raise TypeError(f"expected a JSON object, got {type(obj).__name__}")
        return parse(obj)
    except KeyError as exc:
        raise LatdFormatError(f"{path}: missing field {exc}") from None
    except (ValueError, TypeError, IndexError) as exc:  # JSONDecodeError is a ValueError
        raise LatdFormatError(f"{path}: {exc}") from None


def json_array(obj: dict, key: str, shape: tuple) -> np.ndarray:
    """obj[key] as a finite float64 array, which must have the given shape."""
    try:
        arr = np.asarray(obj[key], dtype=np.float64)
    except (TypeError, ValueError):  # ragged, or not numbers
        raise ValueError(f"field {key!r} is not an array of numbers") from None
    if arr.shape != shape:
        raise ValueError(f"field {key!r} has shape {arr.shape}, expected {shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"field {key!r} holds a non-finite value")
    return arr


def read_csv(path: str, parse=list, expect=None):
    """(header, [parse(row) for each later row]) of the UTF-8 CSV file at path, read
    strictly.  A file that is not UTF-8, that the csv module rejects or that is empty,
    and a row that parse rejects (ValueError) or whose field count is not the
    header's raise LatdFormatError naming path and the record's first line; a
    header other than expect (when given) raises it before any row is parsed."""
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.reader(f, strict=True)
        line = 1  # where the record being read starts
        try:
            header = next(reader)
            if expect is not None and header != expect:
                raise LatdFormatError(f"{path}: unexpected header {','.join(header)!r}")
            line, records = reader.line_num + 1, []
            for row in reader:
                records.append(parse(row))
                if len(row) != len(header):
                    raise ValueError(f"{len(row)} fields where the header has {len(header)}")
                line = reader.line_num + 1
        except StopIteration:
            raise LatdFormatError(f"{path}: empty CSV") from None
        except UnicodeDecodeError:
            raise LatdFormatError(f"{path}: not UTF-8 text") from None
        except LatdFormatError:
            raise
        except (csv.Error, ValueError) as exc:
            raise LatdFormatError(f"{path}:{line}: {exc}") from None
    return header, records


def dataset_paths(path_base: str) -> tuple[str, str]:
    return path_base + ".latd", path_base + ".labels.csv"


def _labels_payload(schema: AttributeSchema, labels: np.ndarray) -> np.ndarray:
    header = np.frombuffer(csv_text([schema.names]).encode("utf-8"), dtype=np.uint8)
    payload = np.empty(header.size + labels.size * 2, dtype=np.uint8)
    payload[:header.size] = header
    rows = payload[header.size:].reshape(labels.shape[0], 2 * schema.m)
    rows[:, 0::2] = labels + _ZERO
    rows[:, 1::2] = _COMMA
    rows[:, -1] = _LF
    return payload


def _checked_blocks(latd_path: str, blocks, dim: int, labels: np.ndarray, m: int):
    """The blocks of code rows as little-endian float64, each checked before it
    is handed on: (rows, dim) in shape, finite, and as many rows in all as the
    labels have, which must then be an n x m matrix of 0s and 1s.  Raises
    ValueError naming the first bad block, row or label."""
    start, count = 0, len(labels)
    for k, block in enumerate(blocks):
        block = np.ascontiguousarray(block, dtype="<f8")
        if block.ndim != 2 or block.shape[1] != dim or start + block.shape[0] > count:
            raise ValueError(f"{latd_path}: codes block {k} has shape {block.shape} at row "
                             f"{start}, expected (rows, {dim}) within {count} rows; "
                             "nothing written")
        bad = nonfinite_rows(block)
        if bad.size:
            raise ValueError(f"{latd_path}: codes row {start + int(bad[0])}: "
                             "non-finite component; nothing written")
        start += block.shape[0]
        yield block
    if start != count:
        raise ValueError(f"{latd_path}: codes blocks hold {start} rows for {count} "
                         "label rows; nothing written")
    checked_labels(labels, count, m)  # complete now, if the blocks filled them in


def write_dataset_blocks(path_base: str, schema: AttributeSchema, labels: np.ndarray,
                         dim: int, blocks) -> tuple[str, str]:
    """Write schema and n x m labels with codes that arrive as consecutive row
    blocks (2-d arrays of width dim, n rows in all), which may fill the labels
    in: they are checked once the blocks are consumed.  The ``.latd`` file is
    written first, so a bad block or label leaves neither file behind."""
    latd_path, labels_path = dataset_paths(path_base)
    labels = np.asarray(labels)
    header = _HEADER.pack(MAGIC, VERSION, dim, len(labels), 0)
    # the header and the codes go straight to the file, with no assembled copy
    _atomic_write(latd_path, itertools.chain(
        [header], _checked_blocks(latd_path, blocks, dim, labels, schema.m)))
    atomic_write_bytes(labels_path, _labels_payload(schema, labels))
    return latd_path, labels_path


def write_dataset(dataset: LatentDataset, path_base: str) -> tuple[str, str]:
    return write_dataset_blocks(path_base, dataset.schema, dataset.labels, dataset.dim,
                                [dataset.codes])


def _decoded_lines(lines, path: str):
    for lineno, line in enumerate(lines, start=1):
        try:
            yield line.decode("utf-8")
        except UnicodeDecodeError:
            raise LatdFormatError(f"{path}:{lineno}: not UTF-8 text") from None


def _bad_row_error(path: str, body: bytes, first_lineno: int, m: int) -> LatdFormatError:
    """The error naming the first line of body that breaks the row grammar: a body
    that failed the fixed-width check has one, as every valid line is 2m bytes."""
    for lineno, line in enumerate(body.split(b"\n")[:-1], start=first_lineno):
        try:
            text = line.decode("utf-8")
        except UnicodeDecodeError:
            return LatdFormatError(f"{path}:{lineno}: not UTF-8 text")
        row = text.split(",") if text else []
        if len(row) != m:
            return LatdFormatError(f"{path}:{lineno}: expected {m} columns, got {len(row)}")
        for token in row:
            if token not in ("0", "1"):
                return LatdFormatError(f"{path}:{lineno}: label token {token!r} is not 0 or 1")


def _read_labels_csv(path: str) -> tuple[AttributeSchema, np.ndarray]:
    with open(path, "rb") as f:
        raw = f.read()
    lines = io.BytesIO(raw)
    try:
        header = next(csv.reader(_decoded_lines(lines, path), strict=True))
    except StopIteration:
        raise LatdFormatError(f"{path}: missing header row") from None
    except csv.Error as exc:
        raise LatdFormatError(f"{path}:1: {exc}") from None
    try:
        schema = AttributeSchema(tuple(header))
    except ValueError as exc:
        raise LatdFormatError(f"{path}:1: {exc}") from None
    body_start = lines.tell()
    first_lineno = raw.count(b"\n", 0, body_start) + 1

    # Rows are fixed-width: m tokens 0/1 with a comma after each but the
    # last, then "\n".  Normalise the optional final newline and CRLF ends,
    # then check every position at once.
    body = np.frombuffer(raw, dtype=np.uint8, offset=body_start)
    if body.size and body[-1] != _LF:
        body = np.append(body, np.uint8(_LF))
    if np.any(body == _CR):
        crlf = np.append((body[:-1] == _CR) & (body[1:] == _LF), False)
        body = body[~crlf]
    width = 2 * schema.m
    if body.size % width == 0:
        rows = body.reshape(-1, width)
        labels = rows[:, 0::2] - np.uint8(_ZERO)  # 0 and 1 stay, others wrap past 1
        if (np.all(labels <= 1) and np.all(rows[:, 1:-1:2] == _COMMA)
                and np.all(rows[:, -1] == _LF)):
            return schema, labels
    raise _bad_row_error(path, body.tobytes(), first_lineno, schema.m)


def read_dataset(path_base: str) -> LatentDataset:
    latd_path, labels_path = dataset_paths(path_base)
    with open(latd_path, "rb") as f:
        head = f.read(_HEADER.size)
        if len(head) < _HEADER.size:
            raise LatdFormatError(f"{latd_path}: truncated header "
                                  f"(expected {_HEADER.size} bytes, got {len(head)})")
        magic, version, dim, count, flags = _HEADER.unpack(head)
        if magic != MAGIC:
            raise LatdFormatError(f"{latd_path}: bad magic {magic!r}, expected {MAGIC!r}")
        if version != VERSION:
            raise LatdFormatError(
                f"{latd_path}: unsupported version {version}, expected {VERSION}")
        if flags != 0:
            raise LatdFormatError(f"{latd_path}: unsupported flags {flags}, expected 0")
        expected = _HEADER.size + count * dim * 8
        size = os.fstat(f.fileno()).st_size
        if size != expected:
            raise LatdFormatError(f"{latd_path}: payload length mismatch "
                                  f"(expected {expected} bytes, got {size})")

        # read-only pages of the file, not a copy (np.memmap cannot map 0 bytes)
        codes = (np.memmap(f, dtype="<f8", mode="r", offset=_HEADER.size, shape=(count, dim))
                 if count * dim else np.empty((count, dim)))

    schema, labels = _read_labels_csv(labels_path)
    if labels.shape[0] != count:
        raise LatdFormatError(
            f"{labels_path}: {labels.shape[0]} label rows but binary declares {count} codes")
    try:
        dataset = LatentDataset(codes=codes, labels=labels, schema=schema)
        violations = validate_dataset(dataset)
        if violations:
            raise ValueError("; ".join(violations[:5]))
    except ValueError as exc:
        raise LatdFormatError(f"{path_base}: invalid dataset: {exc}") from None
    return dataset
