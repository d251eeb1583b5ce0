"""Command-line entry point.

Subcommands: ``validate`` scores and reconstructs a stream, ``simulate``
writes synthetic streams with fault labels, ``fis`` inspects or converts
rulebase files and exports surfaces, ``score`` compares outcomes against
ground truth.

Exit codes, the same for every subcommand: 0 success, 1 validation found
faults (or a checked file has diagnostics), 2 usage or config error or a
file that cannot be opened, read or written, 3 an input that is not UTF-8
or does not parse.

``validate`` streams: it opens its input and its destinations before it
reads, then reads, judges and writes its input in pieces of whole lines,
about ``_CHUNK_BYTES`` each, through one ``Validator``. An input of more
than one piece (a pipe, or a file longer than a piece) is read and parsed
by a forked reader process, one piece ahead of the judging. So it holds
two pieces of the stream whatever its length, the one being judged and
the next, and outcomes reach ``-o`` while the input is still arriving.
An input error at line N exits 3 after the outcomes of the pieces before
it are written. The reports follow at the end of the input.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import stat
import sys
from contextlib import ExitStack, contextmanager
from dataclasses import fields
from typing import BinaryIO, Iterator

import numpy as np

from . import io as svio
from .fisfile import ERROR, parse_fis, serialize_fis
from .fuzzy import control_surface
# run_batch is not called here; it stays importable as cli.run_batch, the
# name bench/tracing.py wraps
from .pipeline import ConfigError, PipelineConfig, Validator, run_batch  # noqa: F401
from .simulate import PROFILE_KINDS, FaultSpec, SignalProfile, generate, inject_all

__all__ = ["main"]

# PipelineConfig's numeric fields, each typed by its default: config-file
# keys and --flags alike
_NUMBER_KEYS = {f.name: type(f.default) for f in fields(PipelineConfig) if type(f.default) in (int, float)}
_PATH_KEYS = ("fis", "spe_model")
# bytes of input that validate reads, judges and writes at a time, then
# up to the end of the line: about 50,000 readings of a CSV stream. A
# regular file of at most this many bytes is parsed in-process; any other
# input by a reader process, which parses a piece while the one before it
# is judged
_CHUNK_BYTES = 1 << 20


class UsageError(Exception):
    pass


class InputError(Exception):
    """An input that does not decode as UTF-8 or does not parse."""


def _read_text(path: str) -> str:
    """A file, or stdin for ``-``, decoded as UTF-8."""
    with _source(path) as f:
        return _decode(path, f.read(), 1)


def _parse(path: str, reader):
    """``reader`` applied to the text at ``path``; its ParseError names the file."""
    try:
        return reader(_read_text(path))
    except svio.ParseError as exc:
        raise InputError(f"{path}: {exc}") from None


@contextmanager
def _source(path: str):
    """A binary source: stdin for ``-``, else the file, closed on exit."""
    if path == "-":
        yield sys.stdin.buffer
    else:
        with open(path, "rb") as f:
            yield f


def _decode(path: str, piece: bytes, start: int) -> str:
    """A piece of ``path`` that starts at line ``start``, decoded as UTF-8."""
    try:
        return piece.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = start + piece.count(b"\n", 0, exc.start)
        raise InputError(
            f"{path}: line {line}: byte 0x{piece[exc.start]:02x} is not UTF-8 ({exc.reason})"
        ) from None


def _pieces(path: str, f: BinaryIO) -> Iterator[tuple]:
    """The stream in ``f`` parsed in pieces of whole lines, each
    ``_CHUNK_BYTES`` long and then to the end of its last line:
    (timestamps, sensor_ids, values) of each piece, numbered and of the
    format sniffed as in the whole file. Holds one piece at a time."""
    start, fmt = 1, None
    while piece := f.read(_CHUNK_BYTES):
        if not piece.endswith(b"\n"):
            piece += f.readline()
        text = _decode(path, piece, start)
        lines = piece.count(b"\n")
        del piece
        fmt = fmt or svio.stream_format(text)
        try:
            parsed = svio.read_stream(text, start, fmt)
        except svio.ParseError as exc:
            raise InputError(f"{path}: {exc}") from None
        del text
        yield parsed
        del parsed
        start += lines


@contextmanager
def _read(path: str, f: BinaryIO):
    """``_pieces(path, f)``: parsed in this process when ``f`` is a regular
    file of at most one piece or there is no fork, since a reader process
    would cost more than it saves; else by a forked reader process, one
    piece ahead of the caller and stopped when the context exits.

    The reader reads ``f`` through its own duplicate of the descriptor;
    this process does not read ``f``. The pieces come over a pipe whose
    write end only the reader holds, so a reader that dies ends the
    caller's wait with an error rather than hanging it."""
    try:
        info = os.fstat(f.fileno())
    except (OSError, ValueError):
        info = None
    if not hasattr(os, "fork") or info is None or (stat.S_ISREG(info.st_mode) and info.st_size <= _CHUNK_BYTES):
        yield _pieces(path, f)
        return
    import multiprocessing

    ctx = multiprocessing.get_context("fork")
    incoming, outgoing = ctx.Pipe(duplex=False)
    # a forked child closes sys.stdin, so the reader gets its own fd
    fd = os.dup(f.fileno())
    reader = ctx.Process(target=_reader, args=(path, fd, incoming, outgoing))
    try:
        reader.start()
    finally:
        os.close(fd)
        outgoing.close()
    try:
        yield _received(path, incoming, reader)
    finally:
        reader.terminate()
        reader.join()
        incoming.close()


def _reader(path: str, fd: int, incoming, outgoing) -> None:
    """The reader process: each piece of the input at ``fd`` sent in order,
    then None, or the error that stops the input in place of its piece."""
    # the main process stops the reader, also on Ctrl-C
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    incoming.close()
    with open(fd, "rb") as f:
        pieces = _pieces(path, f)
        while True:
            try:
                piece = next(pieces, None)
            except (InputError, OSError) as exc:
                piece = exc
            outgoing.send(piece)
            if not isinstance(piece, tuple):
                return


def _received(path: str, incoming, reader) -> Iterator[tuple]:
    """The pieces the reader sends, until its end; its error is raised here."""
    while True:
        try:
            piece = incoming.recv()
        except (EOFError, OSError):
            reader.join()
            raise OSError(
                f"{path}: the reader process ended with exit code {reader.exitcode} before the end of the input"
            ) from None
        if piece is None:
            return
        if isinstance(piece, Exception):
            raise piece
        yield piece


def _distinct_files(*paths: str | None) -> None:
    """validate writes while it reads, so its input and destinations
    must be different files; ``-`` and devices are not checked."""
    files = [
        os.path.realpath(p)
        for p in paths
        if p and p != "-" and (os.path.isfile(p) or not os.path.exists(p))
    ]
    if len(set(files)) < len(files):
        raise UsageError("the input, -o and --reports must be different files")


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

    fis_path = settings.pop("fis", None)
    if fis_path:
        res = parse_fis(_read_setting(fis_path))
        if res.system is None:
            problems = "; ".join(str(d) for d in res.diagnostics if d.severity == ERROR)
            raise UsageError(f"invalid rulebase {fis_path}: {problems}")
        settings["system"] = res.system
    spe_path = settings.pop("spe_model", None)
    if spe_path:
        from .detectors import load_pca_model

        try:
            settings["spe_model"] = load_pca_model(spe_path)
        except (ValueError, KeyError, TypeError) as exc:
            raise UsageError(f"invalid spe_model {spe_path}: {type(exc).__name__}: {exc}")
    return PipelineConfig(**settings)


def cmd_validate(args: argparse.Namespace) -> int:
    validator = Validator(_build_config(args))
    _distinct_files(args.input, args.output, args.reports)
    samples = reconstructed = 0
    with ExitStack() as stack:
        source = stack.enter_context(_source(args.input))
        out, rep = (stack.enter_context(_output(p)) if p else None for p in (args.output, args.reports))
        for timestamps, sensor_ids, values in stack.enter_context(_read(args.input, source)):
            res = validator.feed(timestamps, values, sensor_ids)
            samples += len(values)
            reconstructed += int(res.reconstructed.sum())
            if out:
                svio.write_outcomes(out, res)
                out.flush()
            # drop this piece before the next one is taken, so that two
            # pieces at a time are held: this one and the one read ahead
            del timestamps, sensor_ids, values, res
        reports = validator.finalize()
        if rep:
            svio.write_reports(rep, reports)
    print(f"{samples} samples, {reconstructed} reconstructed, {len(reports)} reports", file=sys.stderr)
    return 1 if reports else 0


def _parse_fault(spec: str) -> FaultSpec:
    parts = spec.split(":")
    if len(parts) != 4:
        raise UsageError(f"fault must be kind:start:duration:magnitude, got {spec!r}")
    try:
        return FaultSpec(parts[0], int(parts[1]), int(parts[2]), float(parts[3]))
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
