"""The benchmark's checks must reject corrupted outputs.

A check that cannot fail proves nothing, so each test takes real outputs
of `sensorval validate` on a generated input, corrupts them in one way,
and expects the checks to refuse them. Run from the repository root:

    python3 -m pytest bench/test_checks.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
from sensorval.cli import main as cli_main  # noqa: E402
from sensorval.pipeline import FLAG_NAMES, PipelineConfig  # noqa: E402

CONFIG = PipelineConfig()


class Run:
    """One real validate run: its stream and everything it wrote."""

    def __init__(self, workload: str, root: Path, seed: int):
        self.stream = inputs.generate(workload, root, seed)
        out, rep = root / "out.jsonl", root / "reports.json"
        argv = ["validate", str(self.stream.csv), "-o", str(out), "--reports", str(rep)]
        if self.stream.config is not None:
            argv += ["--config", str(self.stream.config)]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            self.code = cli_main(argv)
        self.stderr = err.getvalue()
        self.lines = out.read_text().splitlines()
        self.reports = json.loads(rep.read_text())
        self.expected = {i for i, f in self.stream.labels.items() if f == "non_finite"}

    def verdict(self, lines=None, reports=None, code=None, stderr=None):
        return checks.check_run(
            self.stream,
            exit_code=self.code if code is None else code,
            stderr=self.stderr if stderr is None else stderr,
            outcome_lines=self.lines if lines is None else lines,
            reports_text=json.dumps(self.reports if reports is None else reports),
            flag_names=FLAG_NAMES,
            fault_threshold=CONFIG.fault_threshold,
            report_after=CONFIG.report_after,
        )

    def rejects(self, **corrupted) -> str:
        """Why the checks refuse the corrupted outputs ('' if they do not)."""
        v = self.verdict(**corrupted)
        if not (v.whole_run or v.gates or v.unexpected(self.expected)):
            return ""
        return "; ".join([*v.whole_run, *v.gates, *v.reasons])

    def records(self) -> list[dict]:
        return [json.loads(line) for line in self.lines]

    def first(self, pred) -> int:
        return next(i for i, r in enumerate(self.records()) if pred(r))


@pytest.fixture(scope="module")
def spiky(tmp_path_factory):
    return Run("spiky-out", tmp_path_factory.mktemp("spiky"), 7)


@pytest.fixture(scope="module")
def fleet(tmp_path_factory):
    return Run("fleet-spe", tmp_path_factory.mktemp("fleet"), 7)


def _edit(lines, i, **fields):
    rec = json.loads(lines[i])
    rec.update(fields)
    out = list(lines)
    out[i] = json.dumps(rec)
    return out


def test_real_outputs_pass_but_for_the_non_finite_readings(spiky, fleet):
    v = spiky.verdict()
    assert not v.whole_run and not v.gates
    assert v.unexpected(spiky.expected) == []
    assert {int(i) for i in v.failed.nonzero()[0]} == spiky.expected
    assert spiky.reports, "the spiky stream should produce fault reports"
    f = fleet.verdict()
    assert not f.whole_run and not f.gates and not f.failed.any()
    assert fleet.code == 1 and fleet.reports


def test_flipped_reconstructed_flag(spiky):
    i = spiky.first(lambda r: r["reconstructed"])
    assert "accepted != raw" in spiky.rejects(lines=_edit(spiky.lines, i, reconstructed=False))
    # a reading accepted as is and flagged reconstructed still lies in the
    # envelope; the summary's reconstructed count gives it away
    j = spiky.first(lambda r: not r["reconstructed"] and "warmup" not in r["flags"])
    assert "reconstructed count" in spiky.rejects(lines=_edit(spiky.lines, j, reconstructed=True))


def test_dropped_line(spiky):
    assert "differs from the input" in spiky.rejects(lines=spiky.lines[:100] + spiky.lines[101:])
    assert "missing outcome line" in spiky.rejects(lines=spiky.lines[:-1])


def test_reordered_lines(spiky):
    lines = list(spiky.lines)
    lines[200], lines[201] = lines[201], lines[200]
    assert "timestamp or sensor_id differs" in spiky.rejects(lines=lines)


def test_shifted_report(spiky):
    for key in ("start", "end"):
        reports = [dict(r) for r in spiky.reports]
        reports[0][key] += 1.0
        assert f"report 0: {key}" in spiky.rejects(reports=reports)
    assert "scan finds" in spiky.rejects(reports=spiky.reports[1:])


def test_wrong_spe_trip_bit(fleet):
    i = fleet.first(lambda r: r["sensor_id"] in inputs.FUSED and "spe_trip" not in r["flags"])
    rec = fleet.records()[i]
    assert "spe_trip differs" in fleet.rejects(lines=_edit(fleet.lines, i, flags=rec["flags"] + ["spe_trip"]))
    j = fleet.first(lambda r: "spe_trip" in r["flags"])
    rec = fleet.records()[j]
    flags = [f for f in rec["flags"] if f != "spe_trip"]
    assert "spe_trip differs" in fleet.rejects(lines=_edit(fleet.lines, j, flags=flags))


def test_bare_nan_token(fleet):
    lines = list(fleet.lines)
    rec = json.loads(lines[50])
    lines[50] = lines[50].replace(json.dumps(rec["confidence"]), "NaN")
    assert "NaN" in lines[50]
    assert "not strict JSON" in fleet.rejects(lines=lines)


def test_reconstruction_outside_the_envelope(spiky):
    i = spiky.first(lambda r: r["reconstructed"])
    assert "outside earlier accepted" in spiky.rejects(lines=_edit(spiky.lines, i, accepted=1e6))


def test_confidence_and_flags(fleet):
    assert "confidence outside" in fleet.rejects(lines=_edit(fleet.lines, 10, confidence=1.5))
    assert "unknown flag" in fleet.rejects(lines=_edit(fleet.lines, 10, flags=["not_a_flag"]))


def test_exit_code_and_summary(fleet):
    assert "exit code" in fleet.rejects(code=0)
    assert "summary says" in fleet.rejects(stderr=fleet.stderr.replace(f"{fleet.stream.n} samples", "9 samples"))
    assert "no summary line" in fleet.rejects(stderr="")


def test_missed_spikes_fail_the_recall_gate(spiky):
    records = spiky.records()
    spikes = [i for i, f in spiky.stream.labels.items() if f == "spike"]
    lines = list(spiky.lines)
    for i in spikes[: len(spikes) // 5]:
        lines[i] = json.dumps({**records[i], "reconstructed": False, "accepted": records[i]["raw"]})
    assert "spike recall" in spiky.rejects(lines=lines)


def test_untripped_decorrelation_fails_the_spe_gate(fleet):
    lines = list(fleet.lines)
    for i, f in fleet.stream.labels.items():
        if f == "decorrelation":
            rec = json.loads(lines[i])
            lines[i] = json.dumps({**rec, "flags": [x for x in rec["flags"] if x != "spe_trip"]})
    assert "spe_trip on" in fleet.rejects(lines=lines)


def test_report_on_a_clean_stream(tmp_path):
    stream = inputs.Stream(csv=tmp_path / "s.csv", n=3)
    report = [{"sensor_id": "s0", "start": 0.0, "end": 2.0, "count": 3}]
    v = checks.check_run(
        stream, exit_code=1, stderr="3 samples, 0 reconstructed, 1 reports\n",
        outcome_lines=None, reports_text=json.dumps(report), flag_names=FLAG_NAMES,
        fault_threshold=0.3, report_after=1,
    )
    assert v.whole_run
