"""The sensorval benchmark: one workload, one seed, one line of results.

    python3 bench/run.py --workload clean-1m --seed 1 --seconds 25 --trace 0

Run it from anywhere; it builds nothing and runs the package from the
checkout's ``src``. It writes the seeded inputs under ``.bench_work/`` at
the checkout root, runs whole rounds of the workload (each round is every
reading of the stream) until ``--seconds`` have passed, checks every
output apart from the program (checks.py), and prints as its last line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

where an operation is one reading. With ``--trace 0`` the metrics are the
end-to-end ones, measured untraced; with ``--trace 1`` they are the
per-layer ones, from traced rounds alternated with untraced ones (the
difference is the tracing overhead). See README.md for the workloads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import checks
import inputs
from tracing import layer_metrics

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# set-up runs (header-only input, or import and construction alone) per round
SETUP_PER_ROUND = 2
# BLAS threads in every child; the centroid product in the fuzzy engine
# goes through BLAS, and one thread keeps rounds on a shared machine steady
BLAS_THREADS = "1"

# metric name -> unit, as BENCHMARK.json at the checkout root declares them
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])),
    "OPENBLAS_NUM_THREADS": BLAS_THREADS,
    "OMP_NUM_THREADS": BLAS_THREADS,
    "MKL_NUM_THREADS": BLAS_THREADS,
}


@dataclass
class Child:
    code: int
    wall_s: float
    rss_mb: float
    stderr: str
    latencies_ns: list[int] | None = None   # per step, from an API child


def spawn(cmd: list[str], work: Path) -> Child:
    """Run one child to its end, started by spawn.py: its wall time from
    spawn to exit, and its own peak RSS."""
    result, err_path = work / "spawn.json", work / "stderr.txt"
    with open(err_path, "w") as err:
        subprocess.run(
            [sys.executable, str(BENCH / "spawn.py"), str(result), *cmd],
            cwd=ROOT, env=ENV, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err,
            check=True,
        )
    res = json.loads(result.read_text())
    return Child(res["code"], res["wall_s"], res["rss_mb"], err_path.read_text())


class Checker:
    """Checks each round's outputs; a round whose outputs are byte for byte
    those of a round already checked gets that round's verdict."""

    def __init__(self, stream, flag_names, config):
        self.stream = stream
        self.flag_names = flag_names
        self.config = config
        self.seen: dict[str, checks.Verdict] = {}

    def __call__(self, code, stderr, outcomes: Path | None, reports: Path, gates=True):
        out_bytes = outcomes.read_bytes() if outcomes is not None and outcomes.exists() else None
        rep_bytes = reports.read_bytes() if reports.exists() else b""
        key = hashlib.sha256(
            repr((code, stderr, gates)).encode() + b"\0" + (out_bytes or b"-") + b"\0" + rep_bytes
        ).hexdigest()
        if key not in self.seen:
            lines = None
            if outcomes is not None:
                lines = out_bytes.decode().splitlines() if out_bytes is not None else []
            self.seen[key] = checks.check_run(
                self.stream,
                exit_code=code,
                stderr=stderr,
                outcome_lines=lines,
                reports_text=rep_bytes.decode(),
                flag_names=self.flag_names,
                fault_threshold=self.config.fault_threshold,
                report_after=self.config.report_after,
                gates=gates,
            )
        return self.seen[key]


@dataclass
class Tally:
    """Operations attempted and failed over the rounds of one run."""

    expected: set[int]
    attempted: int = 0
    failed: int = 0
    wrong: bool = False
    last: checks.Verdict | None = None

    def add(self, verdict: checks.Verdict, counted=True, label="round") -> None:
        bad = verdict.unexpected(self.expected)
        problems = verdict.whole_run + verdict.gates
        if bad or problems:
            self.wrong = True
            print(f"{label}: {problems} {len(bad)} unexpected failed readings, "
                  f"first {bad[:5]}: {dict(verdict.reasons)}", file=sys.stderr)
        if counted:
            self.attempted += verdict.failed.size
            self.failed += int(verdict.failed.sum())
            self.last = verdict


def prefix(stream, n: int):
    """The first n readings of a stream, for the step probe's checks."""
    return replace(
        stream,
        n=n,
        timestamps=stream.timestamps[:n],
        sensor_ids=stream.sensor_ids[:n],
        values=stream.values[:n],
        labels={i: f for i, f in stream.labels.items() if i < n},
    )


class Workload:
    def __init__(self, name: str, stream, work: Path, check: Checker):
        self.name = name
        self.stream = stream
        self.work = work
        self.check = check
        self.out = work / "out.jsonl"
        self.reports = work / "reports.json"
        self.result = work / "result.json"
        self.spans = work / "spans.json"

    def _clear(self) -> None:
        for p in (self.out, self.reports, self.result, self.spans):
            p.unlink(missing_ok=True)

    def live(self, limit=None, outputs=True, traced=False) -> tuple[Child, dict]:
        self._clear()
        cmd = [sys.executable, str(BENCH / "live.py"), str(self.result), "--stream", str(self.stream.csv)]
        if limit is not None:
            cmd += ["--limit", str(limit)]
        if self.stream.config is not None:
            cmd += ["--config", str(self.stream.config)]
        if outputs:
            cmd += ["--outcomes", str(self.out), "--reports", str(self.reports)]
        if traced:
            cmd += ["--spans", str(self.spans)]
        child = spawn(cmd, self.work)
        if child.code != 0:
            sys.exit(f"live run failed with exit code {child.code}:\n{child.stderr}")
        return child, json.loads(self.result.read_text())


class CliWorkload(Workload):
    """`sensorval validate` in a fresh process per round."""

    def __init__(self, *args):
        super().__init__(*args)
        c = self.check
        self.probe_check = Checker(prefix(self.stream, inputs.PROBE_N), c.flag_names, c.config)

    def argv(self, csv: Path) -> list[str]:
        argv = ["validate", str(csv)]
        if self.stream.config is not None:
            argv += ["--config", str(self.stream.config)]
        if self.name != "clean-1m":
            argv += ["-o", str(self.out)]
        return argv + ["--reports", str(self.reports)]

    def setup(self) -> float:
        """The same command on a header-only input."""
        return spawn([sys.executable, "-m", "sensorval", *self.argv(self.work / "header.csv")], self.work).wall_s

    def round(self, tally: Tally, traced=False) -> tuple[Child, dict | None]:
        self._clear()
        if traced:
            cmd = [sys.executable, str(BENCH / "tracing.py"), str(self.spans), *self.argv(self.stream.csv)]
        else:
            cmd = [sys.executable, "-m", "sensorval", *self.argv(self.stream.csv)]
        child = spawn(cmd, self.work)
        outcomes = self.out if self.name != "clean-1m" else None
        tally.add(self.check(child.code, child.stderr, outcomes, self.reports))
        doc = json.loads(self.spans.read_text()) if traced else None
        return child, doc

    def step_latencies(self, tally: Tally, child: Child) -> list[int]:
        """The CLI times no single reading, so a probe feeds the stream's
        first readings through the API in a child of its own."""
        _, res = self.live(limit=inputs.PROBE_N)
        tally.add(self.probe_check(-1, None, self.out, self.reports, gates=False), counted=False, label="probe")
        return res["latencies_ns"]


class LiveWorkload(Workload):
    """The API loop, in a fresh process per round."""

    def setup(self) -> float:
        return self.live(limit=0, outputs=False)[1]["setup_s"]

    def round(self, tally: Tally, traced=False) -> tuple[Child, dict | None]:
        child, res = self.live(traced=traced)
        tally.add(self.check(-1, None, self.out, self.reports))
        child.wall_s = res["wall_s"]
        child.latencies_ns = res["latencies_ns"]
        doc = json.loads(self.spans.read_text()) if traced else None
        return child, doc

    def step_latencies(self, tally: Tally, child: Child) -> list[int]:
        return child.latencies_ns


def measure(ws: list[Workload], seconds: float, tally: Tally) -> dict[str, float]:
    """Rounds until the time is up, taking the streams in turn. Set-up
    runs and step latencies are taken between rounds rather than in one
    block, so that each figure samples the whole run: on a shared machine
    the speed of a core drifts over seconds."""
    setup: list[float] = []
    latencies: list[int] = []
    rounds: list[Child] = []
    t0 = time.perf_counter()
    while not rounds or time.perf_counter() - t0 < seconds:
        w = ws[len(rounds) % len(ws)]
        setup += [w.setup() for _ in range(SETUP_PER_ROUND)]
        rounds.append(w.round(tally)[0])
        latencies += w.step_latencies(tally, rounds[-1])
    lat_us = np.asarray(latencies, dtype=float) / 1e3
    # the 99th percentile does not repeat within any bound on a shared
    # machine, so it is printed for reference and is not a metric
    print(f"{w.name}: {len(rounds)} rounds, wall {[round(c.wall_s, 3) for c in rounds]}; "
          f"{lat_us.size} steps timed, p99 {np.percentile(lat_us, 99):.1f} us", file=sys.stderr)
    return {
        "wall_s": statistics.median(c.wall_s for c in rounds),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(c.rss_mb for c in rounds),
        "step_p50_us": float(np.median(lat_us)),
    }


def measure_layers(ws: list[Workload], seconds: float, tally: Tally) -> dict[str, float | None]:
    plain: list[float] = []
    traced: list[float] = []
    layers: list[dict] = []
    t0 = time.perf_counter()
    while not traced or time.perf_counter() - t0 < seconds:
        w = ws[len(traced) % len(ws)]
        plain.append(w.round(tally)[0].wall_s)
        child, doc = w.round(tally, traced=True)
        traced.append(child.wall_s)
        layers.append(layer_metrics(doc, w.stream.n))
    print(f"{w.name}: {len(traced)} traced rounds, wall {[round(x, 3) for x in traced]}, "
          f"untraced {[round(x, 3) for x in plain]}", file=sys.stderr)
    out: dict[str, float | None] = {}
    for name in PER_LAYER_UNITS:
        if name.startswith("trace."):
            continue
        vals = [m[name] for m in layers]
        out[name] = None if None in vals else statistics.median(vals)
    out["trace.wall_s"] = statistics.median(traced)
    out["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    return out


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not (SRC / "sensorval" / "__init__.py").is_file():
        print(f"error: no sensorval package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from sensorval.pipeline import FLAG_NAMES, PipelineConfig

    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        kind = LiveWorkload if args.workload == "fleet-live" else CliWorkload
        ws = []
        for part in range(inputs.PARTS.get(args.workload, 1)):
            root = work / f"part{part}"
            stream = inputs.generate(args.workload, root, args.seed, part)
            ws.append(kind(args.workload, stream, root, Checker(stream, FLAG_NAMES, PipelineConfig())))
        # the non-finite readings sit at the same places in every part
        tally = Tally({i for i, f in stream.labels.items() if f == "non_finite"})
        if args.trace:
            values, units = measure_layers(ws, args.seconds, tally), PER_LAYER_UNITS
        else:
            values, units = measure(ws, args.seconds, tally), END_TO_END_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if tally.failed and not tally.wrong:
        print(f"{tally.failed} of {tally.attempted} readings failed, all of them non-finite readings: "
              f"{dict(tally.last.reasons)} in the last round. io.write_outcomes writes them with bare "
              "NaN/Infinity tokens (json.dumps with allow_nan on), and run_batch gives a NaN reading "
              "confidence NaN.", file=sys.stderr)
    print(json.dumps({
        "correct": not tally.wrong,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
