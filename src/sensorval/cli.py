"""Command-line entry point.

Subcommands: ``validate`` scores and reconstructs a stream, ``simulate``
writes synthetic streams with fault labels, ``fis`` inspects or converts
rulebase files and exports surfaces, ``score`` compares outcomes against
ground truth.

Exit codes, the same for every subcommand: 0 success, 1 validation found
faults (or a checked file has diagnostics), 2 usage or config error or a
file that cannot be opened, read or written, 3 an input that is not UTF-8
or does not parse.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from dataclasses import fields, replace

import numpy as np

from . import io as svio
from .fisfile import ERROR, parse_fis, serialize_fis
from .fuzzy import control_surface
from .pipeline import ConfigError, PipelineConfig, run_batch
from .simulate import FAULT_KINDS, PROFILE_KINDS, FaultSpec, SignalProfile, generate, inject_all

__all__ = ["main"]

# PipelineConfig's numeric fields, each typed by its default: config-file
# keys and --flags alike
_NUMBER_KEYS = {f.name: type(f.default) for f in fields(PipelineConfig) if type(f.default) in (int, float)}
_PATH_KEYS = ("fis", "spe_model")


class UsageError(Exception):
    pass


class InputError(Exception):
    """An input that does not decode as UTF-8 or does not parse."""


def _read_text(path: str) -> str:
    """A file, or stdin for ``-``, decoded as UTF-8."""
    if path == "-":
        data = sys.stdin.buffer.read()
    else:
        with open(path, "rb") as f:
            data = f.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: {exc}") from None


def _parse(path: str, reader):
    """``reader`` applied to the text at ``path``; its ParseError names the file."""
    try:
        return reader(_read_text(path))
    except svio.ParseError as exc:
        raise InputError(f"{path}: {exc}") from None


@contextmanager
def _output(path: str):
    """A text destination: stdout for ``-``, else the file, closed on exit."""
    if path == "-":
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as f:
            yield f


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
            if key in _NUMBER_KEYS:
                out[key] = _NUMBER_KEYS[key](val)
            elif key in _PATH_KEYS:
                out[key] = val
            elif key == "spe_fusion":
                out[key] = tuple(s.strip() for s in val.split(",") if s.strip())
            else:
                raise ValueError(f"unknown key {key!r}")
        except ValueError as exc:
            raise UsageError(f"config line {lineno}: {exc}")
    return out


def _read_setting(path: str) -> str:
    """A --config or --fis file: one that does not decode is a usage error."""
    try:
        return _read_text(path)
    except InputError as exc:
        raise UsageError(str(exc)) from None


def _build_config(args: argparse.Namespace) -> PipelineConfig:
    settings: dict = {}
    if args.config:
        settings.update(parse_config_text(_read_setting(args.config)))
    for key in _NUMBER_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            settings[key] = flag
    if getattr(args, "fis", None):
        settings["fis"] = args.fis

    cfg = PipelineConfig()
    fis_path = settings.pop("fis", None)
    if fis_path:
        res = parse_fis(_read_setting(fis_path))
        if res.system is None:
            problems = "; ".join(str(d) for d in res.diagnostics if d.severity == ERROR)
            raise UsageError(f"invalid rulebase {fis_path}: {problems}")
        cfg = replace(cfg, system=res.system)
    spe_path = settings.pop("spe_model", None)
    if spe_path:
        from .detectors import load_pca_model

        try:
            cfg = replace(cfg, spe_model=load_pca_model(spe_path))
        except (ValueError, KeyError, TypeError) as exc:
            raise UsageError(f"invalid spe_model {spe_path}: {type(exc).__name__}: {exc}")
    if settings:
        cfg = replace(cfg, **settings)
    cfg.validate()
    return cfg


def cmd_validate(args: argparse.Namespace) -> int:
    cfg = _build_config(args)
    timestamps, sensor_ids, values = _parse(args.input, svio.read_stream)
    res = run_batch(cfg, timestamps, values, sensor_ids)
    if args.output:
        with _output(args.output) as f:
            svio.write_outcomes(f, res)
    if args.reports:
        with _output(args.reports) as f:
            svio.write_reports(f, res.reports)
    print(
        f"{len(values)} samples, {int(res.reconstructed.sum())} reconstructed, {len(res.reports)} reports",
        file=sys.stderr,
    )
    return 1 if res.reports else 0


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
    except (ValueError, IndexError) as exc:
        raise UsageError(str(exc)) from None

    with _output(args.output) as f:
        svio.write_stream(f, labeled.samples)
    labels_path = args.labels
    if labels_path is None and args.output != "-":
        labels_path = args.output + ".labels.csv"
    if labels_path:
        with _output(labels_path) as f:
            svio.write_labels(f, labeled.labels)
    return 0


def cmd_fis_check(args: argparse.Namespace) -> int:
    res = parse_fis(_read_text(args.path))
    for d in res.diagnostics:
        print(str(d))
    if res.system is None:
        return 3
    return 1 if res.diagnostics else 0


def cmd_fis_canon(args: argparse.Namespace) -> int:
    res = parse_fis(_read_text(args.path))
    if res.system is None:
        for d in res.diagnostics:
            print(str(d), file=sys.stderr)
        return 3
    canon = serialize_fis(res.system)
    with _output(args.output or args.path) as f:
        f.write(canon)
    return 0


def cmd_fis_surface(args: argparse.Namespace) -> int:
    system = parse_fis(_read_text(args.path)).system
    if system is None:
        raise InputError(f"{args.path} does not parse cleanly")
    names = [v.name for v in system.inputs]

    def axis_index(token: str) -> int:
        if token in names:
            return names.index(token)
        try:
            return int(token)
        except ValueError:
            raise UsageError(f"unknown input {token!r} (choose from {', '.join(names)})")

    try:
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
    except ValueError as exc:
        raise UsageError(str(exc)) from None

    xi = system.inputs[i].grid(ni)
    xj = system.inputs[j].grid(nj)
    with _output(args.output) as f:
        f.write("x,y,output\n")
        for a in range(ni):
            for b in range(nj):
                cell = surf[a, b]
                cell_txt = "" if np.isnan(cell) else repr(float(cell))
                f.write(f"{float(xi[a])!r},{float(xj[b])!r},{cell_txt}\n")
    return 0


def cmd_score(args: argparse.Namespace) -> int:
    outcomes = _parse(args.outcomes, svio.read_outcomes)
    labels = _parse(args.labels, svio.read_labels)
    if len(outcomes) != len(labels):
        raise UsageError(f"{len(outcomes)} outcomes vs {len(labels)} labels")
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
    for key, kind in _NUMBER_KEYS.items():
        g.add_argument("--" + key.replace("_", "-"), type=kind)


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
    """Run one subcommand; every error it raises ends here as one line."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        return 0
    except (InputError, UsageError, ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, InputError) else 2


if __name__ == "__main__":
    sys.exit(main())
