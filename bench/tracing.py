"""Spans around the calls into each layer of sensorval, from outside it.

Each traced name is wrapped where its caller looks it up: ``cli`` and
``pipeline`` import their callees by name, so patching only the defining
module would miss the calls. A wrapped call records a span (name, start,
end, parent span, rows of work). Spans stay in memory and are written out
once, at the end. A name that a later version of the package no longer has
is listed as absent, and its metrics are reported as null.

Run as a script, this traces one ``sensorval`` CLI call in-process:

    python3 bench/tracing.py SPANS.json validate stream.csv -o out.jsonl

It exits with the CLI's exit code, after writing the spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time


def _rows_in(position: int):
    """Rows of work in a call: the length of one positional argument."""
    return lambda args: len(args[position]) if len(args) > position else 0


# (module, attribute path, span name, rows of work in the call)
TARGETS = (
    ("sensorval.io", "read_stream", "io.read_stream", None),
    ("sensorval.io", "write_outcomes", "io.write_outcomes", None),
    ("sensorval.io", "write_reports", "io.write_reports", None),
    ("sensorval.cli", "_build_config", "cli.build_config", None),
    ("sensorval.cli", "run_batch", "pipeline.run_batch", None),
    ("sensorval.pipeline", "Validator.step", "pipeline.step", None),
    ("sensorval.pipeline", "_rolling_welford", "pipeline.window_stats", _rows_in(0)),
    ("sensorval.pipeline", "infer_batch", "fuzzy.infer_batch", _rows_in(1)),
    ("sensorval.pipeline", "spe", "detectors.spe", None),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start_ns, end_ns, parent, rows]
        self.stack: list[int] = []
        self.absent: list[str] = []

    def _wrap(self, fn, name: str, rows):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0, stack[-1] if stack else -1,
                          rows(args) if rows else 0])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()

        return traced

    def install(self) -> None:
        for module, path, name, rows in TARGETS:
            try:
                owner = importlib.import_module(module)
                *parents, attr = path.split(".")
                for p in parents:
                    owner = getattr(owner, p)
                fn = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            setattr(owner, attr, self._wrap(fn, name, rows))

    def dump(self, path: str, **extra) -> None:
        with open(path, "w") as f:
            json.dump({"spans": self.spans, "absent": self.absent, **extra}, f)


# per-layer metric -> (span name, what to take from it)
SPAN_METRICS = {
    "io.read_stream_s": ("io.read_stream", "total"),
    "io.write_outcomes_s": ("io.write_outcomes", "total"),
    "io.write_reports_s": ("io.write_reports", "total"),
    "cli.build_config_s": ("cli.build_config", "total"),
    "pipeline.run_batch_s": ("pipeline.run_batch", "total"),
    "pipeline.run_batch.self_s": ("pipeline.run_batch", "self"),
    "pipeline.window_stats_s": ("pipeline.window_stats", "total"),
    "pipeline.window_stats_rows": ("pipeline.window_stats", "rows"),
    "pipeline.step_s": ("pipeline.step", "total"),
    "pipeline.step.self_s": ("pipeline.step", "self"),
    "pipeline.step_calls": ("pipeline.step", "calls"),
    "fuzzy.infer_batch_s": ("fuzzy.infer_batch", "total"),
    "fuzzy.infer_batch_calls": ("fuzzy.infer_batch", "calls"),
    "fuzzy.rows_per_sample": ("fuzzy.infer_batch", "rows_per_sample"),
    "fuzzy.us_per_row": ("fuzzy.infer_batch", "us_per_row"),
    "detectors.spe_s": ("detectors.spe", "total"),
    "detectors.spe_calls": ("detectors.spe", "calls"),
}


def layer_metrics(doc: dict, readings: int) -> dict[str, float | None]:
    """Per-layer figures of one traced call from its spans.

    A layer's self time is its spans' time minus that of their direct
    children; calls nest, so the children never overlap.
    """
    total: dict[str, int] = {}
    child: dict[str, int] = {}
    calls: dict[str, int] = {}
    rows: dict[str, int] = {}
    spans = doc["spans"]
    for name, start, end, parent, n in spans:
        d = end - start
        total[name] = total.get(name, 0) + d
        calls[name] = calls.get(name, 0) + 1
        rows[name] = rows.get(name, 0) + n
        if parent >= 0:
            p = spans[parent][0]
            child[p] = child.get(p, 0) + d
    out: dict[str, float | None] = {}
    for metric, (name, kind) in SPAN_METRICS.items():
        if name in doc["absent"]:
            out[metric] = None
        elif kind == "total":
            out[metric] = total.get(name, 0) / 1e9
        elif kind == "self":
            out[metric] = (total.get(name, 0) - child.get(name, 0)) / 1e9
        elif kind == "calls":
            out[metric] = calls.get(name, 0)
        elif kind == "rows":
            out[metric] = rows.get(name, 0)
        elif kind == "rows_per_sample":
            out[metric] = rows.get(name, 0) / readings
        else:  # us_per_row
            r = rows.get(name, 0)
            out[metric] = total.get(name, 0) / 1e3 / r if r else None
    out["cli.import_s"] = doc["import_s"]
    return out


if __name__ == "__main__":
    spans_path, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import sensorval.cli

    import_s = time.perf_counter() - t0
    tracer = Tracer()
    tracer.install()
    code = sensorval.cli.main(argv)
    tracer.dump(spans_path, import_s=import_s)
    sys.exit(code)
