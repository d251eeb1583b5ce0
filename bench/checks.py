"""Checks of the program's outputs, made apart from the program.

Nothing here calls sensorval. The checks read what the program wrote (its
exit code, its stderr summary, the outcome JSONL and the reports JSON) and
compare it with the generated stream, the labels, and computations of
their own: a run-length scan for the reports and a numpy SPE for the fused
readings. The flag names and the fault-report settings are passed in, so
the tests can drive the checks with hand-made outputs.

An operation is one reading. A reading fails when its outcome line fails
a per-reading check; a run that fails a whole-run check (exit code,
summary count, reports) fails every reading.
"""

from __future__ import annotations

import json
import math
import re
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

SUMMARY = re.compile(r"^(\d+) samples, (\d+) reconstructed, (\d+) reports$", re.M)
# A6's gate on labelled spikes, and the share of fused readings that must
# trip SPE inside a decorrelation episode
RECALL_GATE = 0.9
SPE_GATE = 0.9
# reconstructed values may leave the envelope of earlier accepted raw
# values by this much relative, for rounding
ENVELOPE_RTOL = 1e-9
# fused readings this close (relative) to the SPE threshold are exempt
SPE_RTOL = 1e-9
REPORT_RTOL = 1e-9


@dataclass
class Verdict:
    """What the checks found in one run of one workload."""

    failed: np.ndarray                      # bool per reading
    reasons: Counter = field(default_factory=Counter)
    whole_run: list[str] = field(default_factory=list)
    gates: list[str] = field(default_factory=list)

    def fail(self, i: int, reason: str) -> None:
        self.failed[i] = True
        self.reasons[reason] += 1

    def fail_run(self, reason: str) -> None:
        self.whole_run.append(reason)
        self.failed[:] = True

    def unexpected(self, expected: set[int]) -> list[int]:
        return [int(i) for i in np.flatnonzero(self.failed) if int(i) not in expected]


def _reject_constant(token: str):
    raise ValueError(f"bare {token} token")


def strict_loads(text: str):
    """RFC 8259 JSON: NaN, Infinity and -Infinity are refused."""
    return json.loads(text, parse_constant=_reject_constant)


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def check_outcomes(stream, lines: list[str], flag_names, verdict: Verdict) -> list[dict | None]:
    """Per-reading checks of outcome lines against the stream.

    Returns each line as parsed leniently (None where even that fails), for
    the report scan and the gates.
    """
    n = stream.n
    names = set(flag_names)
    if len(lines) > n:
        verdict.fail_run(f"{len(lines)} outcome lines for {n} readings")
    records: list[dict | None] = []
    # per sensor: (min, max) of the earlier finite raw values not reconstructed
    envelope: dict[str, tuple[float, float]] = {}
    for i in range(n):
        if i >= len(lines):
            verdict.fail(i, "missing outcome line")
            records.append(None)
            continue
        try:
            rec = strict_loads(lines[i])
        except ValueError:
            verdict.fail(i, "outcome line is not strict JSON (bare NaN/Infinity)")
            try:
                rec = json.loads(lines[i])
            except ValueError:
                records.append(None)
                continue
        if not isinstance(rec, dict):
            verdict.fail(i, "outcome line is not an object")
            records.append(None)
            continue
        records.append(rec)
        sid = stream.sensor_ids[i]
        raw = float(stream.values[i])
        if rec.get("timestamp") != stream.timestamps[i] or rec.get("sensor_id") != sid:
            verdict.fail(i, "timestamp or sensor_id differs from the input row")
        if math.isfinite(raw) and rec.get("raw") != raw:
            verdict.fail(i, "raw differs from the input value")
        conf = rec.get("confidence")
        if not _is_number(conf) or not 0.0 <= conf <= 1.0:
            verdict.fail(i, "confidence outside [0, 1]")
        flags = rec.get("flags")
        if not isinstance(flags, list) or not all(f in names for f in flags):
            verdict.fail(i, "unknown flag")
        rec_flag = rec.get("reconstructed")
        accepted = rec.get("accepted")
        if not isinstance(rec_flag, bool) or not _is_number(accepted):
            verdict.fail(i, "reconstructed or accepted missing")
            continue
        if not rec_flag:
            if math.isfinite(raw) and accepted != raw:
                verdict.fail(i, "accepted != raw on a reading not reconstructed")
            if math.isfinite(raw):
                lo, hi = envelope.get(sid, (raw, raw))
                envelope[sid] = (min(lo, raw), max(hi, raw))
        else:
            if sid not in envelope:
                verdict.fail(i, "reconstructed before any accepted reading")
                continue
            lo, hi = envelope[sid]
            tol = ENVELOPE_RTOL * max(abs(lo), abs(hi), 1.0)
            if not lo - tol <= accepted <= hi + tol:
                verdict.fail(i, "reconstruction outside earlier accepted values")
    return records


def scan_reports(stream, records, fault_threshold: float, report_after: int, flag_names) -> list[dict]:
    """Fault reports by a run-length scan of each sensor's confidences.

    Rows flagged warmup are skipped; a row joins an episode when its
    confidence is below the threshold, and any other row closes it. An
    episode of at least ``report_after`` rows is a report. Reports come
    grouped by sensor, sensors in order of first appearance.
    """
    rows: dict[str, list[int]] = {}
    for i, sid in enumerate(stream.sensor_ids):
        rows.setdefault(sid, []).append(i)
    reports = []
    for sid, idx in rows.items():
        episode: list[int] = []
        for i in idx + [None]:
            rec = records[i] if i is not None else {}
            if "warmup" in _flags(rec):
                continue
            conf = rec.get("confidence")
            if _is_number(conf) and conf < fault_threshold:
                episode.append(i)
                continue
            if len(episode) >= report_after:
                reports.append(_report(stream, records, sid, episode, flag_names))
            episode = []
    return reports


def _flags(rec: dict) -> list:
    flags = rec.get("flags")
    return flags if isinstance(flags, list) else []


def _report(stream, records, sid, episode, flag_names) -> dict:
    confs = [records[i]["confidence"] for i in episode]
    vals = [float(stream.values[i]) for i in episode]
    counts = Counter(f for i in episode for f in _flags(records[i]))
    top = max(counts.values(), default=0)
    return {
        "sensor_id": sid,
        "start": float(stream.timestamps[episode[0]]),
        "end": float(stream.timestamps[episode[-1]]),
        "count": len(episode),
        "min_confidence": min(confs),
        "mean_confidence": math.fsum(confs) / len(confs),
        "dominant_flags": [f for f in flag_names if top > 0 and counts[f] == top],
        "value_min": min(vals),
        "value_max": max(vals),
        "value_mean": math.fsum(vals) / len(vals),
    }


def _close(a, b) -> bool:
    return _is_number(a) and abs(a - b) <= REPORT_RTOL * max(abs(a), abs(b), 1e-300)


def reports_match(got: list, want: list[dict]) -> str | None:
    """None when the program's reports equal the scan, else what differs."""
    if not isinstance(got, list) or len(got) != len(want):
        return f"{len(got) if isinstance(got, list) else got!r} reports, scan finds {len(want)}"
    exact = ("sensor_id", "start", "end", "count", "dominant_flags")
    approx = ("min_confidence", "mean_confidence", "value_min", "value_max", "value_mean")
    for k, (g, w) in enumerate(zip(got, want)):
        if not isinstance(g, dict):
            return f"report {k} is not an object"
        for key in exact:
            if g.get(key) != w[key]:
                return f"report {k}: {key} {g.get(key)!r}, scan has {w[key]!r}"
        for key in approx:
            if not _close(g.get(key), w[key]):
                return f"report {k}: {key} {g.get(key)!r}, scan has {w[key]!r}"
    return None


def spe_expected(stream) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The spe_trip bit each reading should carry, from the model file.

    Each fused reading is judged on the forward-filled snapshot of the
    latest raw value of every fused sensor, once all of them have been
    seen. Returns (expected, exempt) as bool arrays.
    """
    n = stream.n
    with open(stream.model) as f:
        model = json.load(f)
    mean = np.asarray(model["mean"], dtype=float)
    comps = np.asarray(model["components"], dtype=float)
    threshold = float(model["spe_threshold"])
    sids = np.asarray(stream.sensor_ids)
    snap = np.full((n, len(stream.fused)), np.nan)
    for c, s in enumerate(stream.fused):
        at = np.flatnonzero(sids == s)
        last = np.full(n, -1)
        last[at] = at
        last = np.maximum.accumulate(last)
        seen = last >= 0
        snap[seen, c] = stream.values[last[seen]]
    fused = np.isin(sids, stream.fused) & ~np.isnan(snap).any(axis=1)
    r = snap[fused] - mean
    resid = r - (r @ comps.T) @ comps
    spe = np.einsum("ij,ij->i", resid, resid)
    expected = np.zeros(n, dtype=bool)
    exempt = np.zeros(n, dtype=bool)
    expected[fused] = spe > threshold
    exempt[fused] = np.abs(spe - threshold) <= SPE_RTOL * threshold
    return expected, exempt


def check_spe(stream, records, verdict: Verdict) -> None:
    expected, exempt = spe_expected(stream)
    for i, rec in enumerate(records):
        if not exempt[i] and ("spe_trip" in _flags(rec)) != expected[i]:
            verdict.fail(i, "spe_trip differs from the model's SPE")


def check_gates(stream, records, verdict: Verdict) -> None:
    """Spike recall, and spe_trip inside the decorrelation episode."""
    spikes = [i for i, f in stream.labels.items() if f == "spike"]
    hit = sum(records[i].get("reconstructed") is True for i in spikes)
    if spikes and hit < RECALL_GATE * len(spikes):
        verdict.gates.append(f"spike recall {hit}/{len(spikes)}")
    episode = [i for i, f in stream.labels.items() if f == "decorrelation"]
    tripped = sum("spe_trip" in _flags(records[i]) for i in episode)
    if episode and tripped < SPE_GATE * len(episode):
        verdict.gates.append(f"spe_trip on {tripped}/{len(episode)} decorrelated readings")


def check_run(
    stream,
    *,
    exit_code: int,
    stderr: str,
    outcome_lines: list[str] | None,
    reports_text: str,
    flag_names,
    fault_threshold: float,
    report_after: int,
    gates: bool = True,
) -> Verdict:
    """Every check of one `validate` run (or one API run, which has no
    exit code or summary: pass exit_code=-1 and stderr=None)."""
    verdict = Verdict(np.zeros(stream.n, dtype=bool))
    try:
        reports = strict_loads(reports_text)
    except ValueError as exc:
        verdict.fail_run(f"reports file is not strict JSON: {exc}")
        reports = []
    records = None
    if outcome_lines is not None:
        records = check_outcomes(stream, outcome_lines, flag_names, verdict)
        if any(r is None for r in records):
            verdict.fail_run("unreadable outcome lines; reports cannot be scanned")
        else:
            want = scan_reports(stream, records, fault_threshold, report_after, flag_names)
            problem = reports_match(reports, want)
            if problem:
                verdict.fail_run(problem)
            if stream.model is not None:
                check_spe(stream, records, verdict)
            if gates:
                check_gates(stream, records, verdict)
    elif reports != []:
        verdict.fail_run(f"{len(reports)} fault reports on a clean stream")
    if stderr is not None:
        if exit_code != (1 if reports else 0):
            verdict.fail_run(f"exit code {exit_code} with {len(reports)} reports")
        m = SUMMARY.findall(stderr)
        if len(m) != 1:
            verdict.fail_run("no summary line on stderr")
        else:
            count, recon, nrep = (int(x) for x in m[0])
            if count != stream.n or nrep != len(reports):
                verdict.fail_run(f"summary says {count} samples and {nrep} reports")
            if records is not None and all(r is not None for r in records):
                if recon != sum(r.get("reconstructed") is True for r in records):
                    verdict.fail_run("summary's reconstructed count differs from the outcomes")
    return verdict
