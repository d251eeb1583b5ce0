"""Exit codes, file formats and pipe behavior of the sensorval CLI."""

import io
import json
import multiprocessing
import os
import shlex
import signal
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import sensorval
from sensorval import cli
from sensorval import io as svio
from sensorval.detectors import load_pca_model, pca_fit, save_pca_model
from sensorval.io import read_labels, read_outcomes, read_stream, write_stream
from sensorval.pipeline import PipelineConfig, Sample, Validator
from sensorval.simulate import FAULT_KINDS

from cli_launcher import CLI, CLI_ENV

GOLDEN = Path(sensorval.__file__).parent / "data" / "confidence.fis"


def run_cli(*args, stdin=None):
    return subprocess.run(
        [*CLI, *args],
        input=stdin,
        env=CLI_ENV,
        capture_output=True,
        text=True,
        timeout=120,
    )


def _simulate_burst(path, n=400, burst="noise_burst:150:60:100"):
    return run_cli(
        "simulate",
        "--n", str(n),
        "--level", "200",
        "--noise-std", "1",
        "--seed", "11",
        "--fault", burst,
        "-o", str(path),
    )


# validate


def test_validate_clean_stream_exits_zero(tmp_path):
    stream = tmp_path / "clean.csv"
    run_cli("simulate", "--n", "100", "--level", "200", "--noise-std", "1",
            "--seed", "5", "-o", str(stream))
    out = tmp_path / "outcomes.jsonl"
    proc = run_cli("validate", str(stream), "-o", str(out))
    assert proc.returncode == 0, proc.stderr
    assert "100 samples" in proc.stderr
    assert "0 reports" in proc.stderr
    outcomes = read_outcomes(out.read_text())
    assert len(outcomes) == 100
    assert sum(o["reconstructed"] for o in outcomes) <= 5


def test_validate_burst_exits_one_with_report(tmp_path):
    stream = tmp_path / "burst.csv"
    assert _simulate_burst(stream).returncode == 0
    reports_path = tmp_path / "reports.json"
    proc = run_cli("validate", str(stream), "--reports", str(reports_path))
    assert proc.returncode == 1
    reports = json.loads(reports_path.read_text())
    assert len(reports) >= 1
    r = reports[0]
    assert 150.0 <= r["start"] <= r["end"] < 400.0
    assert r["count"] >= 10


def test_validate_malformed_csv_exits_three_with_line(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("timestamp,sensor_id,value\n0.0,s1,not-a-number\n")
    proc = run_cli("validate", str(bad))
    assert proc.returncode == 3
    assert "line 2" in proc.stderr


def _as_jsonl(csv, jsonl):
    timestamps, sensor_ids, values = read_stream(csv.read_text())
    jsonl.write_text("".join(
        json.dumps({"timestamp": t, "sensor_id": sid, "value": v}) + "\n"
        for t, sid, v in zip(timestamps.tolist(), sensor_ids, values.tolist())
    ))


def test_jsonl_stream_validates_like_the_same_csv_stream(tmp_path):
    csv = tmp_path / "burst.csv"
    assert _simulate_burst(csv).returncode == 0
    jsonl = tmp_path / "burst.jsonl"
    _as_jsonl(csv, jsonl)
    runs = []
    for stream in (csv, jsonl):
        out, reports = tmp_path / (stream.name + ".jsonl"), tmp_path / (stream.name + ".json")
        proc = run_cli("validate", str(stream), "-o", str(out), "--reports", str(reports))
        runs.append((proc.returncode, proc.stderr, out.read_bytes(), reports.read_bytes()))
    assert runs[0][0] == 1
    assert runs[0] == runs[1]

    lines = jsonl.read_text().splitlines(keepends=True)
    lines[6] = '{"timestamp": 6.0, "value": }\n'
    jsonl.write_text("".join(lines))
    proc = run_cli("validate", str(jsonl))
    assert proc.returncode == 3
    assert proc.stderr.startswith(f"error: {jsonl}: line 7: ")
    assert len(proc.stderr.splitlines()) == 1


# validate streams: it reads, judges and writes about cli._CHUNK_BYTES of its
# input at a time, cut at the end of a line. A file of one piece is parsed
# in-process; any other input by a reader process, forked with the patched
# cli._CHUNK_BYTES. No reader outlives validate, whatever its exit.


def _validate_in_process(capsys, *argv):
    code = cli.main(["validate", *map(str, argv)])
    assert not multiprocessing.active_children()
    return code, capsys.readouterr().err


def _validate_from(source, capsys, monkeypatch, stream, *argv):
    """validate of ``stream`` in-process, named as a file or piped into
    stdin as a shell pipeline pipes it; the exit code, stderr and the
    input's name in error messages."""
    if source == "file":
        return *_validate_in_process(capsys, stream, *argv), stream
    with subprocess.Popen(["cat", str(stream)], stdout=subprocess.PIPE) as cat:
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(cat.stdout))
        return *_validate_in_process(capsys, "-", *argv), "-"


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_validate_in_pieces_writes_what_it_writes_whole(tmp_path, capsys, monkeypatch, fmt):
    stream = tmp_path / "burst.csv"
    assert _simulate_burst(stream).returncode == 0
    if fmt == "jsonl":
        _as_jsonl(stream, tmp_path / "burst.jsonl")
        stream = tmp_path / "burst.jsonl"

    def run(source, chunk):
        monkeypatch.setattr(cli, "_CHUNK_BYTES", chunk)
        out, reports = tmp_path / f"{source}{chunk}.jsonl", tmp_path / f"{source}{chunk}.json"
        code, err, _ = _validate_from(source, capsys, monkeypatch, stream, "-o", out, "--reports", reports)
        return code, err, out.read_bytes(), reports.read_bytes()

    # the file whole, parsed in-process
    whole = run("file", cli._CHUNK_BYTES)
    assert whole[0] == 1
    assert len(whole[2].splitlines()) == 400
    # one piece, a few lines a piece, one line a piece
    for source in ("file", "stdin"):
        for chunk in (cli._CHUNK_BYTES, 200, 7):
            assert run(source, chunk) == whole, (source, chunk)


@pytest.mark.parametrize(
    "bad",
    [b"20.0,sim,not-a-number", b"timestamp,sensor_id,value", b'{"timestamp": 20.0, "value": 1.0}', b"20.0,sim,\xff"],
    ids=["non-numeric", "second-header", "jsonl-in-csv", "not-utf8"],
)
def test_validate_input_error_mid_stream_exits_three_after_earlier_pieces(tmp_path, capsys, monkeypatch, bad):
    # only the file's first line may be a header, and the format is the
    # one sniffed at the start of the file; every line is a piece here
    monkeypatch.setattr(cli, "_CHUNK_BYTES", 7)
    stream = tmp_path / "s.csv"
    assert _simulate_burst(stream, n=40, burst="spike:10:1:50").returncode == 0
    lines = stream.read_bytes().splitlines(keepends=True)
    lines[19] = bad + b"\n"
    stream.write_bytes(b"".join(lines))
    for source in ("file", "stdin"):
        out = tmp_path / f"{source}.jsonl"
        code, err, name = _validate_from(source, capsys, monkeypatch, stream, "-o", out)
        assert code == 3
        assert err.startswith(f"error: {name}: line 20: ")
        assert len(err.splitlines()) == 1
        # the outcomes of lines 2-19, the pieces before line 20's
        assert [o["timestamp"] for o in read_outcomes(out.read_text())] == [float(i) for i in range(18)]


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_validate_error_mid_stream_is_the_same_from_a_file_or_stdin(tmp_path, capsys, monkeypatch, fmt):
    stream = tmp_path / "s.csv"
    assert _simulate_burst(stream, n=40, burst="spike:10:1:50").returncode == 0
    if fmt == "jsonl":
        _as_jsonl(stream, tmp_path / "s.jsonl")
        stream = tmp_path / "s.jsonl"
    lines = stream.read_bytes().splitlines(keepends=True)
    lines[19] = b"not a reading\n"
    stream.write_bytes(b"".join(lines))
    runs = []
    for source, chunk in (("file", cli._CHUNK_BYTES), ("file", 7), ("stdin", 7)):
        monkeypatch.setattr(cli, "_CHUNK_BYTES", chunk)
        out = tmp_path / f"{source}{chunk}.jsonl"
        code, err, name = _validate_from(source, capsys, monkeypatch, stream, "-o", out)
        runs.append((code, err.replace(f"error: {name}: ", "error: "), out.read_bytes()))
    # the whole file fails before it is judged; in pieces, the readings
    # before line 20 (after the CSV header) are judged and written
    assert runs[0][:2] == runs[1][:2] == runs[2][:2]
    assert runs[0][0] == 3 and runs[0][1].startswith("error: line 20: ")
    assert runs[0][2] == b""
    assert len(runs[1][2].splitlines()) == (18 if fmt == "csv" else 19)
    assert runs[2][2] == runs[1][2]


def test_validate_single_piece_file_starts_no_process(tmp_path, capsys, monkeypatch):
    stream = tmp_path / "burst.csv"
    assert _simulate_burst(stream).returncode == 0

    def no_fork():
        raise AssertionError("validate forked")

    monkeypatch.setattr(os, "fork", no_fork)
    # None in sys.modules makes the import fail
    monkeypatch.setitem(sys.modules, "multiprocessing", None)
    code, err = _validate_in_process(capsys, stream, "--reports", tmp_path / "r.json")
    assert code == 1
    assert err.startswith("400 samples, ")


def test_validate_into_a_closed_pipe_exits_zero(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "_CHUNK_BYTES", 200)
    stream = tmp_path / "burst.csv"
    assert _simulate_burst(stream).returncode == 0
    read_end, write_end = os.pipe()
    os.close(read_end)
    closed = open(write_end, "w")
    monkeypatch.setattr(sys, "stdout", closed)
    try:
        code, err = _validate_in_process(capsys, stream, "-o", "-")
    finally:
        try:
            closed.close()
        except BrokenPipeError:
            pass
    assert code == 0
    assert err == ""


def test_validate_stops_the_reader_when_judging_raises(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_CHUNK_BYTES", 200)
    stream = tmp_path / "burst.csv"
    assert _simulate_burst(stream).returncode == 0
    feed, calls = Validator.feed, []

    def fails_at_the_second_piece(self, *args):
        calls.append(1)
        if len(calls) == 2:
            raise RuntimeError("judging failed")
        return feed(self, *args)

    monkeypatch.setattr(Validator, "feed", fails_at_the_second_piece)
    with pytest.raises(RuntimeError, match="judging failed"):
        cli.main(["validate", str(stream)])
    assert not multiprocessing.active_children()


def test_validate_reader_killed_mid_stream_exits_two_with_one_line(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "_CHUNK_BYTES", 200)
    stream = tmp_path / "burst.csv"
    assert _simulate_burst(stream).returncode == 0
    test_pid, read_stream = os.getpid(), svio.read_stream

    def killed_at_line_100(text, start=1, fmt=None):
        if start > 100 and os.getpid() != test_pid:
            os.kill(os.getpid(), signal.SIGKILL)
        return read_stream(text, start, fmt)

    def hung(*_):
        pytest.fail("validate waits for a dead reader")

    monkeypatch.setattr(svio, "read_stream", killed_at_line_100)
    # a validate that waited for the dead reader would hang the suite
    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    try:
        out = tmp_path / "o.jsonl"
        code, err = _validate_in_process(capsys, stream, "-o", out)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert code == 2
    assert err.startswith(f"error: {stream}: the reader process ended with exit code {-signal.SIGKILL} ")
    assert len(err.splitlines()) == 1
    # the pieces read before the reader died are judged and written
    assert 0 < len(out.read_bytes().splitlines()) < 400


# lines end at "\n" alone: a "\r" before it is whitespace, and no other
# line break (\f, \v, U+2028, ...) ends a line


@pytest.mark.parametrize("whole", [True, False], ids=["one-piece", "one-line-pieces"])
def test_validate_error_line_counts_newlines_alone(tmp_path, capsys, monkeypatch, whole):
    if not whole:
        monkeypatch.setattr(cli, "_CHUNK_BYTES", 7)
    stream = tmp_path / "s.csv"
    assert _simulate_burst(stream, n=40, burst="spike:10:1:50").returncode == 0
    lines = stream.read_bytes().splitlines(keepends=True)
    lines[2] = lines[2].replace(b"\n", b"\f\n")
    lines[19] = b"20.0,sim,not-a-number\n"
    stream.write_bytes(b"".join(lines))
    code, err = _validate_in_process(capsys, stream, "-o", tmp_path / "o.jsonl")
    assert code == 3
    assert err.startswith(f"error: {stream}: line 20: ")


def test_validate_jsonl_sensor_id_may_hold_a_line_separator(tmp_path, capsys):
    # U+2028 is valid raw inside a JSON string
    stream = tmp_path / "s.jsonl"
    sids = ["a\u2028b" if i == 3 else "a" for i in range(10)]
    stream.write_text(
        "".join(
            json.dumps({"timestamp": float(i), "sensor_id": sid, "value": 200.0}, ensure_ascii=False) + "\n"
            for i, sid in enumerate(sids)
        ),
        encoding="utf-8",
    )
    out = tmp_path / "o.jsonl"
    code, err = _validate_in_process(capsys, stream, "-o", out)
    assert code == 0, err
    assert [o["sensor_id"] for o in read_outcomes(out.read_text(encoding="utf-8"))] == sids


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_validate_crlf_stream_writes_what_its_lf_twin_writes(tmp_path, capsys, fmt):
    stream = tmp_path / "burst.csv"
    assert _simulate_burst(stream).returncode == 0
    if fmt == "jsonl":
        _as_jsonl(stream, tmp_path / "burst.jsonl")
        stream = tmp_path / "burst.jsonl"
    crlf = tmp_path / f"crlf.{fmt}"
    crlf.write_bytes(stream.read_bytes().replace(b"\n", b"\r\n"))
    runs = []
    for src in (stream, crlf):
        out, reports = tmp_path / f"{src.name}.out", tmp_path / f"{src.name}.reports"
        code, err = _validate_in_process(capsys, src, "-o", out, "--reports", reports)
        runs.append((code, err, out.read_bytes(), reports.read_bytes()))
    assert runs[0][0] == 1
    assert runs[1] == runs[0]


def test_validate_lone_carriage_returns_are_one_line(tmp_path, capsys):
    stream = tmp_path / "s.csv"
    stream.write_bytes(b"timestamp,sensor_id,value\r0.0,s,200.0\r1.0,s,200.1\r")
    code, err = _validate_in_process(capsys, stream)
    assert code == 3
    assert err.startswith(f"error: {stream}: line 1: ")


def test_validate_reports_are_strict_json_with_null_for_non_finite(tmp_path, capsys):
    # the episode's last reading has a NaN timestamp, so its end is NaN
    stream = tmp_path / "s.csv"
    values = [200, 200.5, 199.8, 200.2, 260, 261, 262, 263]
    stream.write_text("".join(f"{t},s,{v}\n" for t, v in zip([*range(7), "nan"], values)))
    code = cli.main(
        ["validate", str(stream), "--window", "2", "--warmup", "0", "--report-after", "3", "--reports", "-"]
    )
    assert code == 1

    def refuse(token):
        raise ValueError(f"non-finite number {token} in the reports")

    (report,) = json.loads(capsys.readouterr().out, parse_constant=refuse)
    assert report["start"] == 4.0
    assert report["end"] is None


def test_validate_stdin_outcomes_arrive_before_the_input_ends():
    # every row is at least 13 bytes, so the input is more than one piece
    n = cli._CHUNK_BYTES // 13 + 1000
    rows = "timestamp,sensor_id,value\n" + "".join(f"{i}.0,s1,{200 + i % 7 / 10}\n" for i in range(n))
    proc = subprocess.Popen(
        [*CLI, "validate", "-", "-o", "-"],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=CLI_ENV,
    )
    answered = threading.Event()

    def write_then_close():
        # stdin stays open until the test has read the first outcomes
        proc.stdin.write(rows.encode())
        proc.stdin.flush()
        answered.wait(60)
        proc.stdin.close()

    writer = threading.Thread(target=write_then_close, daemon=True)
    # a validate that waits for the end of its input never answers: the
    # kill ends the test's first read instead of hanging it
    watchdog = threading.Timer(60, proc.kill)
    writer.start()
    watchdog.start()
    try:
        first = [proc.stdout.readline() for _ in range(3)]
        assert not answered.is_set() and proc.poll() is None
        answered.set()
        rest = proc.stdout.read()
        err = proc.stderr.read().decode()
        code = proc.wait()
        writer.join(60)
        assert not writer.is_alive()
    finally:
        answered.set()
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
    assert [json.loads(line)["timestamp"] for line in first] == [0.0, 1.0, 2.0]
    assert code == 0, err
    assert len(rest.splitlines()) == n - 3
    assert err.startswith(f"{n} samples, ")


def test_validate_opens_its_destinations_before_reading(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("timestamp,sensor_id,value\n0.0,s1,1.0\n1.0,s1,oops\n")
    dest = tmp_path / "missing" / "out"
    proc = run_cli("validate", str(bad), "-o", str(dest))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ")
    assert len(proc.stderr.splitlines()) == 1
    assert str(dest) in proc.stderr


@pytest.mark.parametrize(
    "dests",
    [["-o", "{stream}"], ["--reports", "{stream}"], ["-o", "{dest}", "--reports", "{dest}"]],
    ids=["outcomes-over-input", "reports-over-input", "outcomes-and-reports"],
)
def test_validate_refuses_one_file_for_two_roles(tmp_path, dests):
    # validate writes while it reads: -o over its input would empty the
    # input before it is read
    stream = tmp_path / "s.csv"
    assert run_cli("simulate", "--n", "10", "-o", str(stream)).returncode == 0
    before = stream.read_bytes()
    proc = run_cli("validate", str(stream), *(a.format(stream=stream, dest=tmp_path / "o") for a in dests))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ")
    assert len(proc.stderr.splitlines()) == 1
    assert stream.read_bytes() == before


def test_validate_bad_flag_value_exits_two(tmp_path):
    stream = tmp_path / "s.csv"
    run_cli("simulate", "--n", "10", "-o", str(stream))
    proc = run_cli("validate", str(stream), "--accept-threshold", "1.5")
    assert proc.returncode == 2
    assert "accept" in proc.stderr


def test_validate_config_file_and_flag_override(tmp_path):
    stream = tmp_path / "s.csv"
    run_cli("simulate", "--n", "60", "--level", "200", "--noise-std", "1",
            "--seed", "3", "-o", str(stream))
    cfg = tmp_path / "pipe.cfg"
    cfg.write_text("# pipeline settings\naccept_threshold = 0.99\nwarmup = 5\n")
    out = tmp_path / "o.jsonl"
    proc = run_cli("validate", str(stream), "--config", str(cfg), "-o", str(out))
    assert proc.returncode == 0
    strict = sum(o["reconstructed"] for o in read_outcomes(out.read_text()))
    assert strict >= 50  # nothing past warmup clears 0.99
    proc = run_cli(
        "validate", str(stream), "--config", str(cfg),
        "--accept-threshold", "0.5", "-o", str(out),
    )
    assert proc.returncode == 0
    relaxed = sum(o["reconstructed"] for o in read_outcomes(out.read_text()))
    assert relaxed <= 3
    assert relaxed < strict


def test_validate_unknown_config_key_exits_two(tmp_path):
    stream = tmp_path / "s.csv"
    run_cli("simulate", "--n", "10", "-o", str(stream))
    cfg = tmp_path / "pipe.cfg"
    cfg.write_text("acceptance_threshold = 0.5\n")
    proc = run_cli("validate", str(stream), "--config", str(cfg))
    assert proc.returncode == 2
    assert "acceptance_threshold" in proc.stderr


def test_validate_non_utf8_input_exits_three(tmp_path):
    stream = tmp_path / "s.csv"
    stream.write_bytes(b"\xff\xfe\x00garbage\n")
    proc = run_cli("validate", str(stream))
    assert proc.returncode == 3
    assert proc.stderr.startswith("error: ")
    assert len(proc.stderr.splitlines()) == 1


@pytest.mark.parametrize(
    "command",
    [
        ["score", "{bad}", "--labels", "{labels}"],
        ["fis", "check", "{bad}"],
        ["fis", "canon", "{bad}"],
        ["fis", "surface", "{bad}"],
    ],
)
def test_non_utf8_file_exits_three(tmp_path, command):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff\xfe\x00garbage\n")
    labels = tmp_path / "labels.csv"
    labels.write_text("index,faulty\n0,0\n")
    proc = run_cli(*(arg.format(bad=bad, labels=labels) for arg in command))
    assert proc.returncode == 3
    assert proc.stderr.startswith("error: ")
    assert len(proc.stderr.splitlines()) == 1
    assert str(bad) in proc.stderr
    assert "line 1: byte 0xff is not UTF-8" in proc.stderr
    assert bad.read_bytes() == b"\xff\xfe\x00garbage\n"


@pytest.mark.parametrize("flag", ["--config", "--fis"])
def test_non_utf8_setting_file_exits_two(tmp_path, flag):
    stream = tmp_path / "s.csv"
    run_cli("simulate", "--n", "10", "-o", str(stream))
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"window = 5\n\xff\n")
    proc = run_cli("validate", str(stream), flag, str(bad))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ")
    assert len(proc.stderr.splitlines()) == 1
    assert f"{bad}: line 2: byte 0xff is not UTF-8" in proc.stderr


@pytest.mark.parametrize(
    "command",
    [
        ["validate", "{stream}", "-o", "{dest}"],
        ["validate", "{stream}", "--reports", "{dest}"],
        ["simulate", "--n", "10", "-o", "{dest}"],
        ["simulate", "--n", "10", "-o", "{stream}", "--labels", "{dest}"],
        ["fis", "canon", "{golden}", "-o", "{dest}"],
        ["fis", "surface", "{golden}", "-o", "{dest}"],
    ],
    ids=["validate-o", "validate-reports", "simulate-o", "simulate-labels", "fis-canon-o", "fis-surface-o"],
)
def test_unwritable_destination_exits_two(tmp_path, command):
    stream = tmp_path / "s.csv"
    assert run_cli("simulate", "--n", "10", "-o", str(stream)).returncode == 0
    dest = tmp_path / "missing" / "out"
    proc = run_cli(*(arg.format(stream=stream, golden=GOLDEN, dest=dest) for arg in command))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ")
    assert len(proc.stderr.splitlines()) == 1
    assert str(dest) in proc.stderr


@pytest.mark.parametrize(
    "model_text",
    [
        "not json\n",
        '{"mean": [1, 2]}\n',
        # non-finite numbers, which would keep SPE from ever tripping
        '{"mean": [NaN, 2], "components": [[0.6, 0.8]], "k": 1, "spe_threshold": 0.5}\n',
        '{"mean": [1, 2], "components": [[0.6, Infinity]], "k": 1, "spe_threshold": 0.5}\n',
        '{"mean": [1, 2], "components": [[0.6, 0.8]], "k": 1, "spe_threshold": NaN}\n',
    ],
)
def test_validate_unusable_spe_model_exits_two(tmp_path, model_text):
    stream = tmp_path / "s.csv"
    run_cli("simulate", "--n", "10", "-o", str(stream))
    model = tmp_path / "model.json"
    model.write_text(model_text)
    cfg = tmp_path / "pipe.cfg"
    cfg.write_text(f"spe_model = {model}\nspe_fusion = a,b\n")
    proc = run_cli("validate", str(stream), "--config", str(cfg))
    assert proc.returncode == 2
    assert proc.stderr.startswith(f"error: invalid spe_model {model}: ")
    assert len(proc.stderr.splitlines()) == 1


def test_validate_spe_fusion_without_model_exits_two(tmp_path):
    stream = tmp_path / "s.csv"
    run_cli("simulate", "--n", "10", "-o", str(stream))
    cfg = tmp_path / "pipe.cfg"
    cfg.write_text("spe_fusion = a,b\n")
    proc = run_cli("validate", str(stream), "--config", str(cfg))
    assert proc.returncode == 2
    assert "spe_fusion" in proc.stderr


def _fleet_samples(rng, n=1200):
    """Three sensors in irregular order: a and b read one level (b at 80%
    gain) until b breaks away, c carries a noise burst; one c reading
    repeats its predecessor's timestamp and one a reading goes back."""
    arrivals = rng.choice(["a", "b", "c"], size=n, p=[0.3, 0.3, 0.4])
    seen = {"a": 0, "b": 0, "c": 0}
    last_t = {}
    samples = []
    for k, sid in enumerate(arrivals.tolist()):
        i = seen[sid]
        seen[sid] += 1
        t = 0.5 * k
        if sid == "a":
            v = 100.0 + rng.normal(0.0, 0.5)
            if i == 200:
                t = last_t["a"] - 1.0
        elif sid == "b":
            v = 80.0 + rng.normal(0.0, 0.5) + (40.0 if 150 <= i < 200 else 0.0)
        else:
            v = 200.0 + rng.normal(0.0, 100.0 if 150 <= i < 210 else 1.0)
            if i == 60:
                t = last_t["c"]
        last_t[sid] = t
        samples.append(Sample(t, v, sid))
    return samples


def test_validate_multi_sensor_spe_stream_matches_validator_step(tmp_path):
    rng = np.random.default_rng(17)
    level = rng.normal(100.0, 10.0, 300)
    calibration = np.column_stack(
        [level + rng.normal(0.0, 0.5, 300), 0.8 * level + rng.normal(0.0, 0.5, 300)]
    )
    model_path = tmp_path / "pca.json"
    save_pca_model(pca_fit(calibration, 1), model_path)
    cfg_path = tmp_path / "fleet.cfg"
    cfg_path.write_text(f"spe_model = {model_path}\nspe_fusion = a,b\n")
    stream = tmp_path / "fleet.csv"
    with open(stream, "w", newline="\n") as f:
        write_stream(f, _fleet_samples(rng))

    out, reports_path = tmp_path / "o.jsonl", tmp_path / "r.json"
    proc = run_cli(
        "validate", str(stream), "--config", str(cfg_path),
        "-o", str(out), "--reports", str(reports_path),
    )

    t, sids, values = read_stream(stream.read_text())
    validator = Validator(
        PipelineConfig(spe_model=load_pca_model(model_path), spe_fusion=("a", "b"))
    )
    want = [
        validator.step(Sample(float(x), float(v), s)).to_dict()
        for x, s, v in zip(t, sids, values)
    ]
    want_reports = [r.to_dict() for r in validator.finalize()]
    got = read_outcomes(out.read_text())
    got_reports = json.loads(reports_path.read_text())

    assert proc.returncode == 1, proc.stderr
    reconstructed = sum(o["reconstructed"] for o in want)
    assert f"{len(want)} samples, {reconstructed} reconstructed, {len(want_reports)} reports" in proc.stderr
    assert got == want
    assert any("spe_trip" in w["flags"] for w in want)
    assert any("time_regression" in w["flags"] for w in want)
    assert any("zero_interval" in w["flags"] for w in want)
    assert "c" in [r["sensor_id"] for r in want_reports]
    assert [list(r) for r in got_reports] == [list(r) for r in want_reports]
    assert got_reports == want_reports


def test_validate_custom_fis(tmp_path):
    stream = tmp_path / "s.csv"
    run_cli("simulate", "--n", "30", "--level", "200", "-o", str(stream))
    fis = tmp_path / "conf.fis"
    fis.write_text(GOLDEN.read_text())
    assert run_cli("validate", str(stream), "--fis", str(fis)).returncode == 0
    fis.write_text(GOLDEN.read_text().replace("[25 0]", "[0 0]", 1))
    proc = run_cli("validate", str(stream), "--fis", str(fis))
    assert proc.returncode == 2
    assert "sigma" in proc.stderr


# simulate


def test_simulate_constant_writes_equal_values(tmp_path):
    path = tmp_path / "c.csv"
    proc = run_cli("simulate", "--n", "5", "--level", "100", "-o", str(path))
    assert proc.returncode == 0
    _, _, values = read_stream(path.read_text())
    assert values.tolist() == [100.0] * 5


def test_simulate_is_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        run_cli("simulate", "--n", "50", "--noise-std", "2", "--seed", "9",
                "-o", str(path))
    assert a.read_bytes() == b.read_bytes()


def test_simulate_labels_sidecar_marks_fault_window(tmp_path):
    path = tmp_path / "s5.csv"
    proc = run_cli(
        "simulate", "--n", "120", "--level", "200", "--noise-std", "1",
        "--seed", "2", "--fault", "noise_burst:60:60:3", "-o", str(path),
    )
    assert proc.returncode == 0
    labels = read_labels((tmp_path / "s5.csv.labels.csv").read_text())
    assert len(labels) == 120
    assert all(labels[i] == (i >= 60) for i in range(120))


def test_simulate_bad_fault_spec_exits_two(tmp_path):
    proc = run_cli("simulate", "--n", "10", "--fault", "bogus:0:1:1",
                   "-o", str(tmp_path / "x.csv"))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ")
    assert len(proc.stderr.splitlines()) == 1
    assert "'bogus' (choose from noise_burst, spike, stuck_at, drift)" in proc.stderr
    proc = run_cli("simulate", "--n", "10", "--fault", "spike:0:1",
                   "-o", str(tmp_path / "x.csv"))
    assert proc.returncode == 2


@pytest.mark.parametrize("kind", FAULT_KINDS)
def test_simulate_empty_stream_with_zero_length_fault(tmp_path, kind):
    path = tmp_path / "e.csv"
    proc = run_cli("simulate", "--n", "0", "--fault", f"{kind}:0:0:5", "-o", str(path))
    assert proc.returncode == 0, proc.stderr
    assert path.read_text() == "timestamp,sensor_id,value\n"
    assert (tmp_path / "e.csv.labels.csv").read_text() == "index,faulty\n"


@pytest.mark.parametrize("period", ["0", "-60", "nan", "inf"])
def test_simulate_sine_period_must_be_finite_and_positive(tmp_path, period):
    path = tmp_path / "s.csv"
    proc = run_cli("simulate", "--n", "3", "--profile", "sine", "--amplitude", "1",
                   f"--period={period}", "-o", str(path))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ")
    assert len(proc.stderr.splitlines()) == 1


def test_simulate_fault_window_outside_stream_exits_two(tmp_path):
    proc = run_cli("simulate", "--n", "10", "--fault", "spike:8:5:1",
                   "-o", str(tmp_path / "x.csv"))
    assert proc.returncode == 2


# fis subcommands


def test_fis_check_golden_is_clean():
    proc = run_cli("fis", "check", str(GOLDEN))
    assert proc.returncode == 0
    assert proc.stdout.strip() == ""


def test_fis_check_warnings_exit_one(tmp_path):
    path = tmp_path / "warn.fis"
    path.write_text(GOLDEN.read_text().replace("Version=2.0", "Version=2.0\nFlavor='x'"))
    proc = run_cli("fis", "check", str(path))
    assert proc.returncode == 1
    assert "warning" in proc.stdout


def test_fis_check_parse_failure_exits_three(tmp_path):
    path = tmp_path / "broken.fis"
    path.write_text(GOLDEN.read_text().replace("NumRules=6", "NumRules=7"))
    proc = run_cli("fis", "check", str(path))
    assert proc.returncode == 3
    assert "line 46" in proc.stdout


def test_fis_canon_rewrites_to_fixpoint(tmp_path):
    messy = tmp_path / "m.fis"
    # same system, noisy formatting
    messy.write_text(
        "% exported\n" + GOLDEN.read_text().replace("Name='confidence'", "Name = 'confidence'", 1)
    )
    proc = run_cli("fis", "canon", str(messy))
    assert proc.returncode == 0
    first = messy.read_text()
    assert first == GOLDEN.read_text()
    run_cli("fis", "canon", str(messy))
    assert messy.read_text() == first


def test_fis_canon_stdin_stdout():
    proc = run_cli("fis", "canon", "-", stdin=GOLDEN.read_text())
    assert proc.returncode == 0
    assert proc.stdout == GOLDEN.read_text()


def test_fis_surface_shape_and_values(tmp_path):
    out = tmp_path / "surf.csv"
    proc = run_cli("fis", "surface", str(GOLDEN), "--grid", "50x50", "-o", str(out))
    assert proc.returncode == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "x,y,output"
    assert len(lines) == 1 + 50 * 50
    x, y, z = (float(p) for p in lines[1].split(","))
    assert (x, y) == (0.0, 0.0)
    from sensorval import default_system, infer

    want = infer(default_system(), [200.0, 0.0, 0.0]).values[0]
    assert z == pytest.approx(want, abs=1e-12)


def test_fis_surface_named_axes_and_fixed(tmp_path):
    out = tmp_path / "surf.csv"
    proc = run_cli(
        "fis", "surface", str(GOLDEN),
        "--axes", "distance,std_dev", "--grid", "5x7",
        "--fixed", "rate_of_change=0", "-o", str(out),
    )
    assert proc.returncode == 0
    assert len(out.read_text().splitlines()) == 1 + 5 * 7


@pytest.mark.parametrize(
    "axes", ["distance,distance", "0,7", "-1,0"], ids=["same-axis", "past-the-end", "negative"]
)
def test_fis_surface_bad_axes_exit_two(axes):
    proc = run_cli("fis", "surface", str(GOLDEN), f"--axes={axes}")
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ")
    assert len(proc.stderr.splitlines()) == 1


@pytest.mark.parametrize("fixed", ["7=1", "rate_of_change=5"], ids=["not-an-input", "an-axis"])
def test_fis_surface_fixed_value_it_cannot_hold_exits_two(fixed):
    proc = run_cli("fis", "surface", str(GOLDEN), "--axes", "1,2", "--grid", "4x4", f"--fixed={fixed}")
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ")
    assert len(proc.stderr.splitlines()) == 1


# score


def test_score_perfect_detection(tmp_path):
    stream = tmp_path / "b.csv"
    _simulate_burst(stream, burst="spike:50:1:20")
    out = tmp_path / "o.jsonl"
    run_cli("validate", str(stream), "-o", str(out))
    proc = run_cli("score", str(out), "--labels", str(tmp_path / "b.csv.labels.csv"))
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["precision"] == 1.0
    assert doc["recall"] == 1.0
    assert doc["f1"] == 1.0
    assert doc["true_positives"] >= 1


def test_score_zero_positive_note(tmp_path):
    stream = tmp_path / "clean.csv"
    run_cli("simulate", "--n", "40", "--level", "200", "-o", str(stream))
    out = tmp_path / "o.jsonl"
    run_cli("validate", str(stream), "-o", str(out))
    proc = run_cli("score", str(out), "--labels", str(tmp_path / "clean.csv.labels.csv"))
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["precision"] == 1.0
    assert "note" in doc


def test_score_length_mismatch_exits_two(tmp_path):
    out = tmp_path / "o.jsonl"
    out.write_text(
        '{"timestamp": 0.0, "sensor_id": "s", "raw": 1.0, "confidence": 1.0, '
        '"accepted": 1.0, "reconstructed": false, "flags": []}\n'
    )
    labels = tmp_path / "l.csv"
    labels.write_text("index,faulty\n0,0\n1,0\n")
    proc = run_cli("score", str(out), "--labels", str(labels))
    assert proc.returncode == 2


# composition


def test_pipe_composition_matches_file_flow(tmp_path):
    sim = [*CLI, "simulate", "--n", "400", "--level", "200",
           "--noise-std", "1", "--seed", "11",
           "--fault", "noise_burst:150:60:100",
           "--labels", str(tmp_path / "lbl.csv")]
    stages = (
        sim + ["-o", "-"],
        [*CLI, "validate", "-", "-o", "-"],
        [*CLI, "score", "-", "--labels", str(tmp_path / "lbl.csv")],
    )
    piped = subprocess.run(
        " | ".join(shlex.join(stage) for stage in stages),
        shell=True,
        env=CLI_ENV,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert piped.returncode == 0, piped.stderr

    stream = tmp_path / "f.csv"
    subprocess.run(sim + ["-o", str(stream)], env=CLI_ENV, capture_output=True, timeout=120)
    out = tmp_path / "o.jsonl"
    run_cli("validate", str(stream), "-o", str(out))
    scored = run_cli("score", str(out), "--labels", str(tmp_path / "lbl.csv"))
    assert json.loads(piped.stdout) == json.loads(scored.stdout)


def test_python_dash_m_entry_point(tmp_path):
    proc = subprocess.run(
        [*CLI, "fis", "check", str(GOLDEN)],
        env=CLI_ENV,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
