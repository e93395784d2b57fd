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

    ``text`` is a string or an iterable of strings, written in order.
    """
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp.", suffix=".part")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines((text,) if isinstance(text, str) else text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _require_keys(doc: dict, keys: tuple, what: str) -> None:
    if not isinstance(doc, dict):
        raise ValueError(f"{what}: expected a JSON object")
    missing = [k for k in keys if k not in doc]
    extra = [k for k in doc if k not in keys]
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
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
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
        built.append(Channel(np.array(mat, dtype=np.float64)))
    return DCSystem(Distribution(np.array(p, dtype=np.float64)), tuple(built))


def save_tensor(path, t: JointTensor) -> None:
    write_text_atomic(path, render_json({"shape": list(t.shape), "values": t.values}))


def load_tensor(path) -> JointTensor:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    _require_keys(doc, ("shape", "values"), "tensor file")
    shape = _numbers(doc["shape"], "tensor file: shape", (int,))
    values = _numbers(doc["values"], "tensor file: values")
    return JointTensor(tuple(shape), np.array(values, dtype=np.float64))


# Sample-file rows formatted per `%`: the transient Python ints and text of
# one chunk, not of the whole sample, set the writer's peak memory.
_CSV_CHUNK_ROWS = 4096


def _sample_header(K: int) -> str:
    return "t," + ",".join(f"y{k}" for k in range(1, K + 1))


def _sample_text(records: np.ndarray):
    """The sample file of ``records`` in pieces, one `%` per chunk of rows."""
    n, K = records.shape
    yield _sample_header(K) + "\n"
    table = np.column_stack((np.arange(1, n + 1, dtype=np.int64), records))
    row = ",".join(["%d"] * (K + 1)) + "\n"
    for start in range(0, n, _CSV_CHUNK_ROWS):
        block = table[start : start + _CSV_CHUNK_ROWS]
        yield (row * len(block)) % tuple(block.ravel().tolist())


def save_samples(path, batch: SampleBatch) -> None:
    """Write ``t,y1..yK`` and one ``t,y_1,...,y_K`` line per record, ``t`` from 1.

    Each chunk of rows is formatted by one ``%`` over a repeated row format,
    so no Python code runs per record.
    """
    write_text_atomic(path, _sample_text(batch.records))


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


def load_samples(path, output_size: int | None = None) -> SampleBatch:
    """Read a file written by `save_samples`; blank lines are skipped.

    ``output_size`` defaults to the largest symbol observed; the error for a
    symbol outside ``1..output_size`` names its row.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = list(filter(None, fh.read().split("\n")))
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
    records = table[:, 1:]
    if output_size is None:
        output_size = int(records.max())
    elif output_size < 1:
        raise ValueError("output alphabet size must be at least 1")
    bad = np.argwhere((records < 1) | (records > output_size))
    if bad.size:
        row, col = (int(i) + 1 for i in bad[0])
        raise ValueError(f"sample file: row {row} has y{col} = {records[row - 1, col - 1]}, outside 1..{output_size}")
    return SampleBatch(output_size, records)


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
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError("result file: expected a JSON object")
    return doc
