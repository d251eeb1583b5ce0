"""Flat-file formats shared by the CLI, demos and tests.

Streams travel as CSV (``timestamp,sensor_id,value``) or JSONL with the
same keys; outcomes as JSONL; fault reports as a JSON array; ground
truth as a ``index,faulty`` sidecar CSV. Readers tolerate a header line
and blank lines, and report 1-based line numbers on anything else.
"""

from __future__ import annotations

import json
from typing import IO, Iterable, Sequence

import numpy as np

from .pipeline import FaultReport, Sample, ValidationOutcome

__all__ = [
    "ParseError",
    "read_labels",
    "read_outcomes",
    "read_stream",
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


def _parse_csv(lines: list[str]) -> tuple[list[float], list[str], list[float]]:
    ts: list[float] = []
    sids: list[str] = []
    vals: list[float] = []
    for lineno, line in enumerate(lines, start=1):
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


def _parse_jsonl(lines: list[str]) -> tuple[list[float], list[str], list[float]]:
    ts: list[float] = []
    sids: list[str] = []
    vals: list[float] = []
    for lineno, line in enumerate(lines, start=1):
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


def read_stream(text: str) -> tuple[np.ndarray, list[str], np.ndarray]:
    """Parse a sample stream from CSV or JSONL text.

    Returns parallel (timestamps, sensor_ids, values). The format is
    sniffed from the first non-blank character.
    """
    lines = text.splitlines()
    first = next((ln for ln in lines if ln.strip()), "")
    if first.lstrip().startswith("{"):
        ts, sids, vals = _parse_jsonl(lines)
    else:
        ts, sids, vals = _parse_csv(lines)
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


def write_outcomes(f: IO[str], outcomes: Iterable[ValidationOutcome]) -> None:
    for o in outcomes:
        f.write(json.dumps(o.to_dict()) + "\n")


def read_outcomes(text: str) -> list[dict]:
    out: list[dict] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line or line.isspace():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(f"bad outcome record: {exc}", lineno)
        if "reconstructed" not in obj:
            raise ParseError("outcome record lacks 'reconstructed'", lineno)
        out.append(obj)
    return out


def write_reports(f: IO[str], reports: Sequence[FaultReport]) -> None:
    json.dump([r.to_dict() for r in reports], f, indent=2)
    f.write("\n")
