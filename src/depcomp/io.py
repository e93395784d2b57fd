"""File formats: system documents, sample CSVs, tensor and result documents.

All structured documents are JSON with every float rendered to 17 significant
digits, which round-trips 64-bit values exactly, so saving what was loaded
reproduces the file byte for byte.  Writes go through a temp-file-and-rename
so readers never observe partial files.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import tempfile
from io import BytesIO, TextIOWrapper

import numpy as np

from .core import Channel, DCSystem, Distribution, JointTensor
from .inversion import InversionConfig, InversionResult
from .sampling import SampleBatch


def _render_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite value {x!r}")
    s = format(x, ".17g")
    # Keep a decimal marker so the value parses back as a float, not an int.
    if "e" not in s and "E" not in s and "." not in s:
        s += ".0"
    return s


def _is_scalar(x) -> bool:
    return x is None or isinstance(x, (bool, int, float, str, np.integer, np.floating))


def _render(obj, depth: int) -> str:
    pad = "  " * depth
    inner = "  " * (depth + 1)
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _render_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        items = list(obj)
        if not items:
            return "[]"
        if all(_is_scalar(v) for v in items):
            return "[" + ", ".join(_render(v, 0) for v in items) + "]"
        return (
            "[\n"
            + ",\n".join(inner + _render(v, depth + 1) for v in items)
            + "\n"
            + pad
            + "]"
        )
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = []
        for key, value in obj.items():
            if not isinstance(key, str):
                raise TypeError(f"document keys must be strings, got {key!r}")
            parts.append(inner + json.dumps(key) + ": " + _render(value, depth + 1))
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def render_json(obj) -> str:
    """Serialize a document with round-trip-exact float rendering."""
    return _render(obj, 0) + "\n"


def write_text_atomic(path, text) -> None:
    """Write via a sibling temp file and rename, so the path is never partial.

    ``text`` is a string or an iterable of strings, written in order.  The
    file gets mode ``0o666`` less the process umask, as `open` would give it.
    """
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    umask = os.umask(0)
    os.umask(umask)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp.", suffix=".part")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            # mkstemp creates the file 0600, and `os.replace` keeps that
            # mode; give it the mode a plain `open` would.
            os.chmod(tmp, 0o666 & ~umask)
            fh.writelines((text,) if isinstance(text, str) else text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _load_json(path, what: str):
    """The JSON document in ``path``; one nested too deeply to parse is a ``ValueError``."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{what}: JSON nested too deeply to parse") from None


def _require_keys(doc: dict, keys: tuple, what: str, optional: tuple = ()) -> None:
    """Refuse a document that is not an object, lacks one of ``keys``, or has
    a key that is neither in ``keys`` nor in ``optional``."""
    if not isinstance(doc, dict):
        raise ValueError(f"{what}: expected a JSON object")
    missing = [k for k in keys if k not in doc]
    extra = [k for k in doc if k not in keys and k not in optional]
    if missing:
        raise ValueError(f"{what}: missing keys {missing}")
    if extra:
        raise ValueError(f"{what}: unknown keys {extra}")


def _as_int(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def _numbers(items, what: str, kinds=(int, float)) -> list:
    """``items`` if it is a list whose entries are all JSON numbers of ``kinds``.

    Booleans, strings, objects and nulls are refused, not coerced: JSON's
    ``true`` loads as a Python ``bool``, which is an ``int`` to `isinstance`
    and to numpy.
    """
    if not isinstance(items, list) or not set(map(type, items)) <= set(kinds):
        raise ValueError(f"{what} must be a list of {'integers' if kinds == (int,) else 'reals'}")
    return items


def _floats(items, what: str) -> np.ndarray:
    """``items``, lists of JSON numbers, as a float64 array; an integer beyond
    the float64 range is a ``ValueError`` naming ``what``, not an
    ``OverflowError``."""
    try:
        return np.array(items, dtype=np.float64)
    except OverflowError:
        raise ValueError(f"{what} holds an integer too large for a 64-bit float") from None


def system_document(system: DCSystem) -> dict:
    return {
        "L": system.hidden_size,
        "Lprime": system.output_size,
        "K": system.num_channels,
        "p": system.p.probs,
        "channels": [ch.entries for ch in system.channels],
    }


def save_system(path, system: DCSystem) -> None:
    write_text_atomic(path, render_json(system_document(system)))


def load_system(path) -> DCSystem:
    doc = _load_json(path, "system file")
    _require_keys(doc, ("L", "Lprime", "K", "p", "channels"), "system file")
    L = _as_int(doc["L"], "L")
    Lprime = _as_int(doc["Lprime"], "Lprime")
    K = _as_int(doc["K"], "K")
    p = _numbers(doc["p"], "system file: p")
    channels = doc["channels"]
    if len(p) != L:
        raise ValueError(f"system file: p must be a list of L={L} reals")
    if not isinstance(channels, list) or len(channels) != K:
        raise ValueError(f"system file: channels must list K={K} matrices")
    built = []
    for k, mat in enumerate(channels, start=1):
        if (
            not isinstance(mat, list)
            or len(mat) != Lprime
            or any(not isinstance(row, list) or len(row) != L for row in mat)
        ):
            raise ValueError(f"system file: channel {k} must be {Lprime} rows x {L} columns")
        for row in mat:
            _numbers(row, f"system file: each row of channel {k}")
        built.append(Channel(_floats(mat, f"system file: each row of channel {k}")))
    return DCSystem(Distribution(_floats(p, "system file: p")), tuple(built))


def save_tensor(path, t: JointTensor) -> None:
    """Write ``shape`` and ``values``, and ``n`` when the law was estimated."""
    doc = {"shape": list(t.shape), "values": t.values}
    if t.n is not None:
        doc["n"] = t.n
    write_text_atomic(path, render_json(doc))


def load_tensor(path) -> JointTensor:
    """Read a tensor file; one without ``n`` is an exact law.

    ``n``, when present, must be a positive JSON integer below ``2**63``,
    the range of the int64 counts it was taken from.
    """
    doc = _load_json(path, "tensor file")
    _require_keys(doc, ("shape", "values"), "tensor file", optional=("n",))
    shape = _numbers(doc["shape"], "tensor file: shape", (int,))
    values = _numbers(doc["values"], "tensor file: values")
    n = doc.get("n")
    if "n" in doc and (type(n) is not int or not 1 <= n < 2**63):
        raise ValueError("tensor file: n must be a positive integer below 2**63")
    return JointTensor(tuple(shape), _floats(values, "tensor file: values"), n)


# Sample-file rows formatted per array pass: the int64 digit temporaries and
# the byte grid of one chunk, not of the whole sample, set the writer's peak
# memory.  An n = 2e4 sample is one chunk.
_CSV_CHUNK_ROWS = 1 << 15


def _sample_header(K: int) -> str:
    return "t," + ",".join(f"y{k}" for k in range(1, K + 1))


def _csv_rows(columns) -> bytes:
    """The lines ``c_1,...,c_m`` of the equal-length nonnegative int64 ``columns``.

    Each value is written right-aligned into a zero-filled uint8 grid as wide
    as its column's largest value, one ``//`` and ``%`` per digit place; the
    commas and the newline have columns of their own, and dropping the zero
    pad bytes in one boolean compaction leaves the text.
    """
    widths = [len(str(int(c.max()))) for c in columns]
    grid = np.zeros((len(columns[0]), sum(widths) + len(widths)), dtype=np.uint8)
    end = 0
    for c, w in zip(columns, widths):
        end += w
        grid[:, end - 1] = c % 10 + 48
        for i in range(1, w):
            place = 10**i
            grid[:, end - 1 - i] = np.where(c >= place, c // place % 10 + 48, 0)
        grid[:, end] = ord(",")
        end += 1
    grid[:, -1] = ord("\n")
    return grid[grid != 0].tobytes()


def _sample_text(records: np.ndarray):
    """The sample file of ``records`` in pieces: the header, then one piece per
    chunk of `_CSV_CHUNK_ROWS` rows, each formatted by `_csv_rows`.

    The text is byte for byte that of ``"%d,...,%d\\n"`` per record.
    """
    n, K = records.shape
    yield _sample_header(K) + "\n"
    for start in range(0, n, _CSV_CHUNK_ROWS):
        block = records[start : start + _CSV_CHUNK_ROWS]
        t = np.arange(start + 1, start + len(block) + 1, dtype=np.int64)
        yield _csv_rows([t, *block.T]).decode("ascii")


def save_samples(path, batch: SampleBatch) -> None:
    """Write ``t,y1..yK`` and one ``t,y_1,...,y_K`` line per record, ``t`` from 1.

    Every value is written in plain decimal, without sign, spaces or leading
    zeros, and every line ends in ``\\n``.  Chunks of rows are formatted as
    arrays, so no Python code runs per record.
    """
    write_text_atomic(path, _sample_text(batch.records))


def _canonical_records(data: bytes):
    """The records of ``data`` when it is exactly what `save_samples` writes
    with every symbol in 1..9, else ``None``.

    Such a file's rows whose counters have ``D`` digits all have width
    ``D + 2K + 1``, so each run of them is viewed as a 2-D byte array and
    checked column by column: the counter digits against those of its ``t``,
    the commas and the newline, and the symbols in ``b"1".."9"``.
    """
    head = data.find(b"\n")
    K = data.count(b",", 0, head)
    if head < 0 or K < 1 or data[:head] != _sample_header(K).encode():
        return None
    body = np.frombuffer(data, dtype=np.uint8, offset=head + 1)
    pieces, pos, digits = [], 0, 1
    while pos < body.size:
        width, first = digits + 2 * K + 1, 10 ** (digits - 1)
        # A run is whole (counters first..10*first-1) or is the last one; a
        # remainder shorter than a row fails the next pass as zero rows.
        rows = min(9 * first, (body.size - pos) // width)
        if rows == 0:
            return None
        run = body[pos : pos + rows * width].reshape(rows, width)
        t = np.arange(first, first + rows)
        for i in range(digits):
            if not np.array_equal(run[:, i], t // 10 ** (digits - 1 - i) % 10 + 48):
                return None
        symbols = run[:, digits + 1 :: 2]
        commas, newlines = run[:, digits:-1:2], run[:, -1]
        if not ((commas == ord(",")).all() and (newlines == ord("\n")).all() and (symbols - ord("1") < 9).all()):
            return None
        pieces.append(symbols - ord("0"))
        pos, digits = pos + rows * width, digits + 1
    return np.concatenate(pieces).astype(np.int64) if pieces else None


def _parse_rows(rows: list, width: int) -> np.ndarray:
    """The (len(rows), width) int64 table of comma-separated ``rows``.

    The body is parsed by numpy's C reader.  If any row is malformed, the
    first one is found by bisecting on the longest prefix that parses, so the
    error names the row, counted from 1, without a Python loop over rows.
    """

    def parse(upto):
        try:
            table = np.loadtxt(rows[:upto], delimiter=",", dtype=np.int64, ndmin=2, comments=None)
        except (ValueError, OverflowError):
            return None
        return table if table.shape[1] == width else None

    table = parse(len(rows))
    if table is not None:
        return table
    good, bad = 0, len(rows)  # rows[:good] parse, rows[:bad] do not
    while bad - good > 1:
        mid = (good + bad) // 2
        if parse(mid) is None:
            bad = mid
        else:
            good = mid
    fields = rows[bad - 1].count(",") + 1
    if fields != width:
        raise ValueError(f"sample file: row {bad} has {fields} fields, expected {width}")
    raise ValueError(f"sample file: row {bad} has a field that is not a 64-bit integer: {rows[bad - 1][:80]!r}")


def _text_records(data: bytes) -> np.ndarray:
    """The records of ``data`` read as UTF-8 text with universal newlines, as
    `open` reads it; blank lines are skipped, and the error for a bad row
    names it."""
    text = TextIOWrapper(BytesIO(data), encoding="utf-8").read()
    lines = list(filter(None, text.split("\n")))
    if not lines:
        raise ValueError("sample file: empty")
    K = lines[0].count(",")
    if K < 1 or lines[0] != _sample_header(K):
        raise ValueError(f"sample file: bad header {lines[0]!r}")
    if len(lines) == 1:
        raise ValueError("sample file: no records")
    table = _parse_rows(lines[1:], K + 1)
    t = table[:, 0]
    wrong = np.flatnonzero(t != np.arange(1, t.size + 1))
    if wrong.size:
        row = int(wrong[0]) + 1
        raise ValueError(f"sample file: row {row} has counter {t[row - 1]}, expected {row}")
    return table[:, 1:]


def load_samples(path, output_size: int | None = None) -> SampleBatch:
    """Read a sample file, reading the file once, as bytes.

    A file exactly as `save_samples` writes it, with every symbol in 1..9, is
    decoded by `_canonical_records` as fixed-width byte columns.  Any other
    file goes through the text reader, which also accepts blank lines,
    spaces or tabs around a field, ``+``, leading zeros, CRLF line ends and
    a missing final newline, and whose errors name the bad row.

    ``output_size`` defaults to the largest symbol observed.  `SampleBatch`
    checks the records; its errors are raised prefixed with ``sample file:``.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    records = _canonical_records(data)
    if records is None:
        records = _text_records(data)
    try:
        return SampleBatch(int(records.max()) if output_size is None else output_size, records)
    except ValueError as exc:
        raise ValueError(f"sample file: {exc}") from None


def result_document(result: InversionResult, config: InversionConfig) -> dict:
    from . import __version__

    return {
        "library_version": __version__,
        "seed": int(config.seed),
        "config": dataclasses.asdict(config),
        "objective": {"kind": config.objective, "value": result.objective_value},
        "converged": result.converged,
        "best_restart": result.best_restart,
        "near_boundary": result.near_boundary,
        "target": {"n": result.n, "g2": result.g2, "df": result.df},
        "p_hat": result.p_hat.probs,
        "channels_hat": [ch.entries for ch in result.channels_hat],
        "restart_log": [
            {
                "restart": entry.restart,
                "objective": entry.objective,
                "iterations": entry.iterations,
                "converged": entry.converged,
                "stop_reason": entry.stop_reason,
            }
            for entry in result.restart_log
        ],
    }


def save_result(path, result: InversionResult, config: InversionConfig) -> None:
    write_text_atomic(path, render_json(result_document(result, config)))


def load_result(path) -> dict:
    """Load a result document as a plain dict (floats parse back exactly)."""
    doc = _load_json(path, "result file")
    if not isinstance(doc, dict):
        raise ValueError("result file: expected a JSON object")
    return doc
