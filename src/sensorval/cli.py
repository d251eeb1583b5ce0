"""Command-line entry point.

Subcommands: ``validate`` scores and reconstructs a stream, ``simulate``
writes synthetic streams with fault labels, ``fis`` inspects or converts
rulebase files and exports surfaces, ``score`` compares outcomes against
ground truth.

Exit codes: 0 success, 1 validation found faults (or a checked file has
diagnostics), 2 usage/config error, 3 input parse error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

import numpy as np

from . import io as svio
from .fisfile import ERROR, load_fis, parse_fis, serialize_fis
from .fuzzy import control_surface
from .pipeline import ConfigError, PipelineConfig, Sample, Validator, run_batch
from .simulate import FAULT_KINDS, PROFILE_KINDS, FaultSpec, SignalProfile, generate, inject_all

__all__ = ["main"]

_INT_KEYS = ("report_after", "warmup", "window", "reanchor_after")
_FLOAT_KEYS = (
    "accept_threshold",
    "fault_threshold",
    "reconstruction_alpha",
    "variance_threshold",
    "uncertainty_threshold",
)
_BOOL_KEYS = ("variance_enabled", "uncertainty_enabled")
_PATH_KEYS = ("fis", "spe_model")


class UsageError(Exception):
    pass


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r") as f:
        return f.read()


def _open_out(path: str):
    if path == "-":
        return sys.stdout
    return open(path, "w", newline="\n")


def parse_config_text(text: str) -> dict:
    """Parse a flat ``key = value`` config file into typed values."""
    out: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, val = line.partition("=")
        if not sep:
            raise UsageError(f"config line {lineno}: expected key = value")
        key = key.strip()
        val = val.strip().strip("'\"")
        try:
            if key in _INT_KEYS:
                out[key] = int(val)
            elif key in _FLOAT_KEYS:
                out[key] = float(val)
            elif key in _BOOL_KEYS:
                if val.lower() not in ("true", "false"):
                    raise ValueError(f"expected true/false, got {val!r}")
                out[key] = val.lower() == "true"
            elif key in _PATH_KEYS:
                out[key] = val
            elif key == "spe_fusion":
                out[key] = tuple(s.strip() for s in val.split(",") if s.strip())
            else:
                raise ValueError(f"unknown key {key!r}")
        except ValueError as exc:
            raise UsageError(f"config line {lineno}: {exc}")
    return out


def _build_config(args: argparse.Namespace) -> PipelineConfig:
    settings: dict = {}
    if args.config:
        settings.update(parse_config_text(_read_text(args.config)))
    for key in _INT_KEYS + _FLOAT_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            settings[key] = flag
    if getattr(args, "no_variance", False):
        settings["variance_enabled"] = False
    if getattr(args, "no_uncertainty", False):
        settings["uncertainty_enabled"] = False
    if getattr(args, "fis", None):
        settings["fis"] = args.fis

    cfg = PipelineConfig()
    fis_path = settings.pop("fis", None)
    if fis_path:
        res = parse_fis(_read_text(fis_path))
        if res.system is None:
            problems = "; ".join(str(d) for d in res.diagnostics if d.severity == ERROR)
            raise UsageError(f"invalid rulebase {fis_path}: {problems}")
        cfg = replace(cfg, system=res.system)
    spe_path = settings.pop("spe_model", None)
    if spe_path:
        from .detectors import load_pca_model

        cfg = replace(cfg, spe_model=load_pca_model(spe_path))
    if settings:
        cfg = replace(cfg, **settings)
    cfg.validate()
    return cfg


def cmd_validate(args: argparse.Namespace) -> int:
    try:
        cfg = _build_config(args)
    except (UsageError, ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        timestamps, sensor_ids, values = svio.read_stream(_read_text(args.input))
    except svio.ParseError as exc:
        print(f"error: {args.input}: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    n = len(values)
    single = cfg.spe_model is None and (n == 0 or all(s == sensor_ids[0] for s in sensor_ids))
    if single:
        sid = sensor_ids[0] if n else ""
        result = run_batch(cfg, timestamps, values, sid)
        reports = result.reports
        reconstructed = int(result.reconstructed.sum())
        outcome_iter = (result.outcome(i) for i in range(n))
    else:
        validator = Validator(cfg)
        outcomes = [
            validator.step(Sample(float(t), float(v), s))
            for t, s, v in zip(timestamps, sensor_ids, values)
        ]
        reports = validator.finalize()
        reconstructed = sum(o.reconstructed for o in outcomes)
        outcome_iter = iter(outcomes)

    if args.output:
        out = _open_out(args.output)
        try:
            svio.write_outcomes(out, outcome_iter)
        finally:
            if out is not sys.stdout:
                out.close()
    if args.reports:
        out = _open_out(args.reports)
        try:
            svio.write_reports(out, reports)
        finally:
            if out is not sys.stdout:
                out.close()
    print(
        f"{n} samples, {reconstructed} reconstructed, {len(reports)} reports",
        file=sys.stderr,
    )
    return 1 if reports else 0


def _parse_fault(spec: str) -> FaultSpec:
    parts = spec.split(":")
    if len(parts) != 4:
        raise UsageError(f"fault must be kind:start:duration:magnitude, got {spec!r}")
    kind = parts[0]
    if kind not in FAULT_KINDS:
        raise UsageError(f"unknown fault kind {kind!r} (choose from {', '.join(FAULT_KINDS)})")
    try:
        return FaultSpec(kind, int(parts[1]), int(parts[2]), float(parts[3]))
    except ValueError as exc:
        raise UsageError(f"bad fault spec {spec!r}: {exc}")


def cmd_simulate(args: argparse.Namespace) -> int:
    try:
        profile = SignalProfile(
            kind=args.profile,
            level=args.level,
            slope=args.slope,
            amplitude=args.amplitude,
            period=args.period,
            noise_std=args.noise_std,
            sample_interval=args.interval,
            seed=args.seed,
        )
        faults = [_parse_fault(s) for s in args.fault]
        samples = generate(profile, args.n, args.sensor_id)
        labeled = inject_all(samples, faults, seed=args.seed)
    except (UsageError, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    out = _open_out(args.output)
    try:
        svio.write_stream(out, labeled.samples)
    finally:
        if out is not sys.stdout:
            out.close()
    labels_path = args.labels
    if labels_path is None and args.output != "-":
        labels_path = args.output + ".labels.csv"
    if labels_path:
        with open(labels_path, "w", newline="\n") as f:
            svio.write_labels(f, labeled.labels)
    return 0


def cmd_fis_check(args: argparse.Namespace) -> int:
    try:
        text = _read_text(args.path)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    res = parse_fis(text)
    for d in res.diagnostics:
        print(str(d))
    if res.system is None:
        return 3
    return 1 if res.diagnostics else 0


def cmd_fis_canon(args: argparse.Namespace) -> int:
    try:
        text = _read_text(args.path)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    res = parse_fis(text)
    if res.system is None:
        for d in res.diagnostics:
            print(str(d), file=sys.stderr)
        return 3
    canon = serialize_fis(res.system)
    dest = args.output or args.path
    if dest == "-":
        sys.stdout.write(canon)
    else:
        with open(dest, "w", newline="\n") as f:
            f.write(canon)
    return 0


def cmd_fis_surface(args: argparse.Namespace) -> int:
    try:
        system = (
            parse_fis(_read_text(args.path)).system
            if args.path == "-"
            else load_fis(args.path).system
        )
        if system is None:
            raise UsageError(f"{args.path} does not parse cleanly")
        names = [v.name for v in system.inputs]

        def axis_index(token: str) -> int:
            if token in names:
                return names.index(token)
            try:
                return int(token)
            except ValueError:
                raise UsageError(f"unknown input {token!r} (choose from {', '.join(names)})")

        ax = args.axes.split(",")
        if len(ax) != 2:
            raise UsageError("--axes must name two inputs, e.g. rate_of_change,std_dev")
        i, j = axis_index(ax[0].strip()), axis_index(ax[1].strip())
        gp = args.grid.lower().split("x")
        if len(gp) != 2:
            raise UsageError("--grid must look like 50x50")
        ni, nj = int(gp[0]), int(gp[1])
        fixed: dict[int, float] = {}
        if args.fixed:
            for part in args.fixed.split(","):
                key, sep, val = part.partition("=")
                if not sep:
                    raise UsageError(f"--fixed entries must be name=value, got {part!r}")
                fixed[axis_index(key.strip())] = float(val)
        for k in range(len(names)):
            if k not in (i, j) and k not in fixed:
                var = system.inputs[k]
                fixed[k] = (var.lo + var.hi) / 2.0
        surf = control_surface(system, i, j, fixed, grid=(ni, nj))
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    xi = system.inputs[i].grid(ni)
    xj = system.inputs[j].grid(nj)
    out = _open_out(args.output)
    try:
        out.write("x,y,output\n")
        for a in range(ni):
            for b in range(nj):
                cell = surf[a, b]
                cell_txt = "" if np.isnan(cell) else repr(float(cell))
                out.write(f"{float(xi[a])!r},{float(xj[b])!r},{cell_txt}\n")
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


def cmd_score(args: argparse.Namespace) -> int:
    try:
        outcomes = svio.read_outcomes(_read_text(args.outcomes))
        labels = svio.read_labels(_read_text(args.labels))
    except svio.ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if len(outcomes) != len(labels):
        print(
            f"error: {len(outcomes)} outcomes vs {len(labels)} labels",
            file=sys.stderr,
        )
        return 2
    predicted = np.array([bool(o["reconstructed"]) for o in outcomes], dtype=bool)
    tp = int((predicted & labels).sum())
    fp = int((predicted & ~labels).sum())
    fn = int((~predicted & labels).sum())
    result = {
        "precision": tp / (tp + fp) if tp + fp else 1.0,
        "recall": tp / (tp + fn) if tp + fn else 1.0,
        "true_positives": tp,
        "false_positives": fp,
        "false_negatives": fn,
    }
    p, r = result["precision"], result["recall"]
    result["f1"] = 2 * p * r / (p + r) if p + r else 0.0
    if tp + fp == 0:
        result["note"] = "no positives predicted; precision is vacuous"
    print(json.dumps(result, indent=2))
    return 0


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key = value file mirroring PipelineConfig fields")
    p.add_argument("--fis", help="rulebase file overriding the shipped default")
    g = p.add_argument_group("config overrides")
    g.add_argument("--accept-threshold", dest="accept_threshold", type=float)
    g.add_argument("--fault-threshold", dest="fault_threshold", type=float)
    g.add_argument("--report-after", dest="report_after", type=int)
    g.add_argument("--reconstruction-alpha", dest="reconstruction_alpha", type=float)
    g.add_argument("--warmup", dest="warmup", type=int)
    g.add_argument("--window", dest="window", type=int)
    g.add_argument("--reanchor-after", dest="reanchor_after", type=int)
    g.add_argument("--variance-threshold", dest="variance_threshold", type=float)
    g.add_argument("--uncertainty-threshold", dest="uncertainty_threshold", type=float)
    g.add_argument("--no-variance", action="store_true")
    g.add_argument("--no-uncertainty", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sensorval", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    v = sub.add_parser("validate", help="score, reconstruct and report on a stream")
    v.add_argument("input", help="CSV/JSONL stream, or - for stdin")
    v.add_argument("-o", "--output", help="outcome JSONL destination (- for stdout)")
    v.add_argument("--reports", help="fault report JSON destination (- for stdout)")
    _add_config_flags(v)
    v.set_defaults(func=cmd_validate)

    s = sub.add_parser("simulate", help="write a synthetic stream with fault labels")
    s.add_argument("--profile", choices=PROFILE_KINDS, default="constant")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--level", type=float, default=0.0)
    s.add_argument("--slope", type=float, default=0.0)
    s.add_argument("--amplitude", type=float, default=0.0)
    s.add_argument("--period", type=float, default=60.0)
    s.add_argument("--noise-std", dest="noise_std", type=float, default=0.0)
    s.add_argument("--interval", type=float, default=1.0)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--sensor-id", dest="sensor_id", default="sim")
    s.add_argument(
        "--fault",
        action="append",
        default=[],
        metavar="KIND:START:DURATION:MAGNITUDE",
        help="inject a fault (repeatable)",
    )
    s.add_argument("-o", "--output", default="-", help="stream destination (- for stdout)")
    s.add_argument(
        "--labels",
        help="labels sidecar (defaults to OUTPUT.labels.csv for file output)",
    )
    s.set_defaults(func=cmd_simulate)

    f = sub.add_parser("fis", help="inspect and convert rulebase files")
    fsub = f.add_subparsers(dest="fis_command", required=True)
    fc = fsub.add_parser("check", help="print diagnostics; exit 0 only when clean")
    fc.add_argument("path", help=".fis file, or - for stdin")
    fc.set_defaults(func=cmd_fis_check)
    fn = fsub.add_parser("canon", help="rewrite in canonical form")
    fn.add_argument("path", help=".fis file, or - for stdin")
    fn.add_argument("-o", "--output", help="destination (default: in place, - for stdout)")
    fn.set_defaults(func=cmd_fis_canon)
    fs = fsub.add_parser("surface", help="export a control surface as CSV")
    fs.add_argument("path", help=".fis file, or - for stdin")
    fs.add_argument("--axes", default="1,2", help="two input names or indices (default 1,2)")
    fs.add_argument("--grid", default="50x50")
    fs.add_argument("--fixed", help="name=value list for held inputs (default: midpoints)")
    fs.add_argument("-o", "--output", default="-")
    fs.set_defaults(func=cmd_fis_surface)

    sc = sub.add_parser("score", help="precision/recall of reconstructions vs labels")
    sc.add_argument("outcomes", help="outcome JSONL, or - for stdin")
    sc.add_argument("--labels", required=True, help="index,faulty CSV")
    sc.set_defaults(func=cmd_score)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
