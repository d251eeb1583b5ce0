"""Flat-file formats shared by the CLI, demos and tests.

Streams travel as CSV (``timestamp,sensor_id,value``) or JSONL with the
same keys; outcomes as JSONL; fault reports as a JSON array; ground
truth as a ``index,faulty`` sidecar CSV. Readers tolerate a header line
and blank lines, and report 1-based line numbers on anything else. A
stream can also be read piece by piece: ``read_stream`` takes the line
number a piece starts at and the format ``stream_format`` found at the
start of the file.
"""

from __future__ import annotations

import json
import re
from typing import IO, Iterable, Sequence

import numpy as np

from .pipeline import BatchResult, FaultReport, Sample, ValidationOutcome, flags_from_bits

__all__ = [
    "ParseError",
    "read_labels",
    "read_outcomes",
    "read_stream",
    "stream_format",
    "write_labels",
    "write_outcomes",
    "write_reports",
    "write_stream",
]

_HEADER = "timestamp,sensor_id,value"


class ParseError(ValueError):
    """Input file did not match the documented schema."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _parse_csv(lines: list[str], start: int) -> tuple[list[float], list[str], list[float]]:
    ts: list[float] = []
    sids: list[str] = []
    vals: list[float] = []
    for lineno, line in enumerate(lines, start=start):
        if not line or line.isspace():
            continue
        parts = line.split(",")
        if len(parts) != 3:
            if lineno == 1 and line.strip().lower() == _HEADER:
                continue
            raise ParseError(f"expected 3 comma-separated fields, got {len(parts)}", lineno)
        try:
            t = float(parts[0])
            v = float(parts[2])
        except ValueError:
            if lineno == 1:
                continue  # header row
            raise ParseError(f"non-numeric timestamp or value in {line.strip()!r}", lineno)
        ts.append(t)
        sids.append(parts[1].strip())
        vals.append(v)
    return ts, sids, vals


def _parse_jsonl(lines: list[str], start: int) -> tuple[list[float], list[str], list[float]]:
    ts: list[float] = []
    sids: list[str] = []
    vals: list[float] = []
    for lineno, line in enumerate(lines, start=start):
        if not line or line.isspace():
            continue
        try:
            obj = json.loads(line)
            t = float(obj["timestamp"])
            v = float(obj["value"])
            sid = str(obj.get("sensor_id", ""))
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad sample object: {exc}", lineno)
        ts.append(t)
        sids.append(sid)
        vals.append(v)
    return ts, sids, vals


_NON_BLANK = re.compile(r"\S")


def stream_format(text: str) -> str | None:
    """``"jsonl"`` when the first non-blank character of a stream is
    ``{``, else ``"csv"``; None when the text is blank."""
    first = _NON_BLANK.search(text)
    if first is None:
        return None
    return "jsonl" if first.group() == "{" else "csv"


def read_stream(
    text: str, start: int = 1, fmt: str | None = None
) -> tuple[np.ndarray, list[str], np.ndarray]:
    """Parse a sample stream, or a piece of one, from CSV or JSONL text.

    Returns parallel (timestamps, sensor_ids, values). ``start`` is the
    line number of the text's first line in its file: errors name lines
    by it, and only line 1 may be a CSV header. ``fmt`` is the file's
    ``stream_format``; None sniffs it from this text.
    """
    parse = _parse_jsonl if (fmt or stream_format(text)) == "jsonl" else _parse_csv
    ts, sids, vals = parse(text.splitlines(), start)
    return np.array(ts, dtype=float), sids, np.array(vals, dtype=float)


def write_stream(f: IO[str], samples: Iterable[Sample]) -> None:
    f.write(_HEADER + "\n")
    for s in samples:
        f.write(f"{s.timestamp!r},{s.sensor_id},{s.value!r}\n")


def write_labels(f: IO[str], labels: Sequence[bool]) -> None:
    f.write("index,faulty\n")
    for i, flag in enumerate(labels):
        f.write(f"{i},{int(flag)}\n")


def read_labels(text: str) -> np.ndarray:
    out: list[bool] = []
    expected = 0
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line or line.isspace():
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise ParseError("expected index,faulty", lineno)
        if lineno == 1 and not parts[0].strip().isdigit():
            continue  # header
        try:
            idx = int(parts[0])
            flag = int(parts[1])
        except ValueError:
            raise ParseError(f"bad label row {line.strip()!r}", lineno)
        if idx != expected:
            raise ParseError(f"expected index {expected}, got {idx}", lineno)
        if flag not in (0, 1):
            raise ParseError(f"faulty must be 0 or 1, got {flag}", lineno)
        out.append(bool(flag))
        expected += 1
    return np.array(out, dtype=bool)


# rows formatted per write; the whole file's lines would cost more memory
# than the stream itself
_CHUNK_ROWS = 1024


def write_outcomes(f: IO[str], res: BatchResult) -> None:
    """Write each row of ``res`` as one JSON outcome line, in row order,
    with the row's sensor from ``res.sensor_ids``.

    A line is ``json.dumps(outcome.to_dict())`` of the row's
    ``ValidationOutcome``, byte for byte: floats are written with
    ``repr``, as ``json.dumps`` writes them, the JSON of each sensor id and
    flag-bit pattern is made once, and a row with a non-finite field goes
    through ``json.dumps`` itself.
    """
    sid_json: dict[str, str] = {}
    flags_json: dict[int, str] = {}
    for a in range(0, len(res.raw), _CHUNK_ROWS):
        rows = slice(a, a + _CHUNK_ROWS)
        cols = res.timestamps[rows], res.raw[rows], res.confidence[rows], res.accepted[rows]
        finite = np.logical_and.reduce([np.isfinite(c) for c in cols])
        lines = []
        for ok, t, sid, raw, conf, acc, rec, bits in zip(
            finite.tolist(), cols[0].tolist(), res.sensor_ids[rows], cols[1].tolist(), cols[2].tolist(),
            cols[3].tolist(), res.reconstructed[rows].tolist(), res.flagbits[rows].tolist(),
        ):
            if not ok:
                o = ValidationOutcome(t, sid, raw, conf, acc, rec, flags_from_bits(bits))
                lines.append(json.dumps(o.to_dict()) + "\n")
                continue
            s = sid_json.get(sid)
            if s is None:
                s = sid_json[sid] = json.dumps(sid)
            fl = flags_json.get(bits)
            if fl is None:
                fl = flags_json[bits] = json.dumps(list(flags_from_bits(bits)))
            lines.append(
                f'{{"timestamp": {t!r}, "sensor_id": {s}, "raw": {raw!r}, "confidence": {conf!r}, '
                f'"accepted": {acc!r}, "reconstructed": {"true" if rec else "false"}, "flags": {fl}}}\n'
            )
        f.write("".join(lines))


def read_outcomes(text: str) -> list[dict]:
    out: list[dict] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line or line.isspace():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(f"bad outcome record: {exc}", lineno)
        if not isinstance(obj, dict) or "reconstructed" not in obj:
            raise ParseError("outcome record lacks 'reconstructed'", lineno)
        out.append(obj)
    return out


def write_reports(f: IO[str], reports: Sequence[FaultReport]) -> None:
    json.dump([r.to_dict() for r in reports], f, indent=2)
    f.write("\n")
