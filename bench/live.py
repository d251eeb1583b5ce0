"""Feed a stream through ``Validator.step`` one reading at a time.

This is the live integration: one caller in a closed loop, each reading
passed as soon as the previous outcome came back. Real sensor rates are
far below the step rate, so what counts is the service time per reading.

    python3 bench/live.py RESULT.json --stream stream.csv [--limit N]
        [--config fleet.conf] [--outcomes out.jsonl] [--reports r.json]
        [--spans spans.json]

Set-up is importing sensorval and building the Validator, with the PCA
model when ``--config`` names one. The stream is read before the import,
with plain Python, so that set-up holds no parsing. The result file has
the set-up time, the time to pass every reading (``finalize`` included),
and each step's latency in nanoseconds. With ``--spans`` the calls into
each layer are traced (see tracing.py).
"""

from __future__ import annotations

import argparse
import json
import time


def read_rows(path: str, limit: int | None) -> list[tuple[float, str, float]]:
    rows = []
    with open(path) as f:
        next(f)  # header
        for line in f:
            if limit is not None and len(rows) >= limit:
                break
            t, sid, v = line.rstrip("\n").split(",")
            rows.append((float(t), sid, float(v)))
    return rows


def read_config(path: str | None) -> dict[str, str]:
    if path is None:
        return {}
    with open(path) as f:
        return dict(
            (k.strip(), v.strip()) for k, _, v in (ln.partition("=") for ln in f) if k.strip()
        )


def main() -> None:
    p = argparse.ArgumentParser()
    p.add_argument("result")
    p.add_argument("--stream", required=True)
    p.add_argument("--limit", type=int)
    p.add_argument("--config")
    p.add_argument("--outcomes")
    p.add_argument("--reports")
    p.add_argument("--spans")
    args = p.parse_args()
    rows = read_rows(args.stream, args.limit)
    settings = read_config(args.config)

    t0 = time.perf_counter()
    import sensorval

    import_s = time.perf_counter() - t0
    config = sensorval.PipelineConfig()
    if "spe_model" in settings:
        config = sensorval.PipelineConfig(
            spe_model=sensorval.load_pca_model(settings["spe_model"]),
            spe_fusion=tuple(settings["spe_fusion"].split(",")),
        )
    validator = sensorval.Validator(config)
    setup_s = time.perf_counter() - t0

    tracer = None
    if args.spans:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    samples = [sensorval.Sample(t, v, sid) for t, sid, v in rows]
    outcomes = []
    latencies = []
    clock = time.perf_counter_ns
    step = validator.step
    t0 = time.perf_counter()
    for s in samples:
        a = clock()
        outcomes.append(step(s))
        latencies.append(clock() - a)
    reports = validator.finalize()
    wall_s = time.perf_counter() - t0

    if tracer is not None:
        tracer.dump(args.spans, import_s=import_s)
    if args.outcomes:
        with open(args.outcomes, "w") as f:
            f.writelines(json.dumps(o.to_dict()) + "\n" for o in outcomes)
    if args.reports:
        with open(args.reports, "w") as f:
            json.dump([r.to_dict() for r in reports], f)
    with open(args.result, "w") as f:
        json.dump({"setup_s": setup_s, "wall_s": wall_s, "latencies_ns": latencies}, f)


if __name__ == "__main__":
    main()
