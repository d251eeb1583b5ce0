"""The streaming validation pipeline.

Each incoming reading is scored by the fuzzy confidence system on three
features (the raw value, its rate of change against the last validated
reading, and the recent window's standard deviation). High-confidence
readings pass through and update an exponential estimate; low-confidence
readings are replaced by that estimate so one bad sample cannot poison
the statistics that judge the next one. Runs of very low confidence
become fault reports.

Two execution paths share these semantics:

  * ``SensorValidator.step`` - the scalar reference, one Sample at a time
  * ``Validator.run_batch`` - a vectorized path that processes accepted
    stretches as numpy chunks and drops back to scalar logic around
    rejected samples

The two paths agree exactly on decisions except for readings whose
confidence lands within float round-off (~1e-12) of a threshold, because
windowed statistics accumulate in a different order. Each path on its
own is fully deterministic for a given config and input stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .detectors import PcaModel, Window, _welford, spe
from .features import Sample
from .fuzzy import FuzzySystem, infer_batch

# flag bit order is part of the output contract; new flags go at the end.
# time_regression and zero_interval extend the core set for the two
# timestamp pathologies the pipeline tolerates rather than raising on.
FLAG_NAMES = (
    "out_of_range",
    "no_rule_fired",
    "variance_trip",
    "uncertainty_trip",
    "spe_trip",
    "warmup",
    "time_regression",
    "zero_interval",
)
FLAG_BITS = {name: 1 << i for i, name in enumerate(FLAG_NAMES)}


def flags_from_bits(bits: int) -> tuple[str, ...]:
    return tuple(name for name in FLAG_NAMES if bits & FLAG_BITS[name])


class ConfigError(ValueError):
    """The pipeline configuration is not usable."""


@dataclass(frozen=True)
class PipelineConfig:
    """Tunable pipeline behavior; defaults follow the shipped rulebase."""

    system: FuzzySystem | None = None
    accept_threshold: float = 0.5
    fault_threshold: float = 0.3
    report_after: int = 10
    reconstruction_alpha: float = 0.3
    warmup: int = 5
    window: int = 20
    # after this many consecutive reconstructions the estimate restarts
    # from the live signal, so a legitimate level shift (e.g. a bin
    # collection event) cannot starve the pipeline forever; keep it
    # longer than any fault episode worth riding out, 0 disables
    reanchor_after: int = 100
    variance_enabled: bool = True
    variance_threshold: float = 9.0
    uncertainty_enabled: bool = True
    uncertainty_threshold: float = 0.75
    spe_model: PcaModel | None = None
    spe_fusion: tuple[str, ...] = ()

    def resolved_system(self) -> FuzzySystem:
        if self.system is not None:
            return self.system
        from .defaults import default_system

        return default_system()

    def validate(self) -> None:
        """Raise ConfigError on any unusable setting."""
        if not 0.0 < self.fault_threshold <= self.accept_threshold < 1.0:
            raise ConfigError(
                "need 0 < fault_threshold <= accept_threshold < 1, got "
                f"{self.fault_threshold} and {self.accept_threshold}"
            )
        if not 0.0 < self.reconstruction_alpha <= 1.0:
            raise ConfigError(
                f"reconstruction_alpha must be in (0, 1], got {self.reconstruction_alpha}"
            )
        if self.report_after < 1:
            raise ConfigError(f"report_after must be at least 1, got {self.report_after}")
        if self.warmup < 0:
            raise ConfigError(f"warmup must be non-negative, got {self.warmup}")
        if self.window < 2:
            raise ConfigError(f"window must be at least 2, got {self.window}")
        if self.reanchor_after < 0:
            raise ConfigError(f"reanchor_after must be non-negative, got {self.reanchor_after}")
        if self.variance_threshold < 0 or self.uncertainty_threshold < 0:
            raise ConfigError("detector thresholds must be non-negative")
        if self.spe_model is not None and len(self.spe_fusion) < 2:
            raise ConfigError("spe_model needs spe_fusion naming at least 2 sensors")
        if self.spe_model is not None and len(self.spe_fusion) != self.spe_model.dim:
            raise ConfigError(
                f"spe_fusion names {len(self.spe_fusion)} sensors but the model "
                f"expects {self.spe_model.dim}"
            )
        system = self.resolved_system()
        from .fisfile import validate_fis

        problems = [d for d in validate_fis(system) if d.severity == "error"]
        if problems:
            raise ConfigError(f"fuzzy system is invalid: {problems[0].message}")
        if len(system.inputs) != 3:
            raise ConfigError(
                "confidence system must take exactly 3 inputs "
                "(value, rate of change, window std), got "
                f"{len(system.inputs)}"
            )


@dataclass(frozen=True)
class ValidationOutcome:
    """The pipeline's judgment of one reading."""

    timestamp: float
    sensor_id: str
    raw: float
    confidence: float
    accepted: float
    reconstructed: bool
    flags: tuple[str, ...]

    def to_dict(self) -> dict:
        return {
            "timestamp": self.timestamp,
            "sensor_id": self.sensor_id,
            "raw": self.raw,
            "confidence": self.confidence,
            "accepted": self.accepted,
            "reconstructed": self.reconstructed,
            "flags": list(self.flags),
        }


@dataclass(frozen=True)
class FaultReport:
    """Summary of one sustained low-confidence episode."""

    sensor_id: str
    start: float
    end: float
    count: int
    min_confidence: float
    mean_confidence: float
    dominant_flags: tuple[str, ...]
    value_min: float
    value_max: float
    value_mean: float

    def to_dict(self) -> dict:
        return {
            "sensor_id": self.sensor_id,
            "start": self.start,
            "end": self.end,
            "count": self.count,
            "min_confidence": self.min_confidence,
            "mean_confidence": self.mean_confidence,
            "dominant_flags": list(self.dominant_flags),
            "value_min": self.value_min,
            "value_max": self.value_max,
            "value_mean": self.value_mean,
        }


class FaultTracker:
    """Groups consecutive sub-threshold confidences into fault episodes.

    A sample joins an episode when its confidence is strictly below the
    fault threshold; any other sample closes the episode. A closed
    episode of at least ``report_after`` samples yields one report.
    Accumulators are O(1) in episode length.
    """

    def __init__(self, sensor_id: str, fault_threshold: float, report_after: int):
        self.sensor_id = sensor_id
        self.fault_threshold = fault_threshold
        self.report_after = report_after
        self._open = False
        self._reset()

    def _reset(self) -> None:
        self._start = 0.0
        self._end = 0.0
        self._count = 0
        self._conf_min = math.inf
        self._conf_sum = 0.0
        self._val_min = math.inf
        self._val_max = -math.inf
        self._val_sum = 0.0
        self._flag_counts = [0] * len(FLAG_NAMES)

    def observe(self, t: float, value: float, conf: float, flagbits: int) -> FaultReport | None:
        """Feed one post-warmup sample; returns a report when a long
        episode just closed."""
        if conf < self.fault_threshold:
            if not self._open:
                self._open = True
                self._reset()
                self._start = t
            self._end = t
            self._count += 1
            self._conf_min = min(self._conf_min, conf)
            self._conf_sum += conf
            self._val_min = min(self._val_min, value)
            self._val_max = max(self._val_max, value)
            self._val_sum += value
            for i in range(len(FLAG_NAMES)):
                if flagbits & (1 << i):
                    self._flag_counts[i] += 1
            return None
        return self.close()

    def close(self) -> FaultReport | None:
        """Close any open episode, reporting it if long enough."""
        if not self._open:
            return None
        self._open = False
        if self._count < self.report_after:
            return None
        top = max(self._flag_counts)
        dominant = tuple(
            name
            for i, name in enumerate(FLAG_NAMES)
            if top > 0 and self._flag_counts[i] == top
        )
        return FaultReport(
            sensor_id=self.sensor_id,
            start=self._start,
            end=self._end,
            count=self._count,
            min_confidence=self._conf_min,
            mean_confidence=self._conf_sum / self._count,
            dominant_flags=dominant,
            value_min=self._val_min,
            value_max=self._val_max,
            value_mean=self._val_sum / self._count,
        )


def _confidence_scale(system: FuzzySystem) -> tuple[float, float]:
    out = system.outputs[0]
    return out.lo, out.hi - out.lo


class SensorValidator:
    """Scalar reference pipeline for a single sensor."""

    def __init__(self, config: PipelineConfig, sensor_id: str = ""):
        config.validate()
        self.config = config
        self.sensor_id = sensor_id
        self.system = config.resolved_system()
        self._conf_lo, self._conf_span = _confidence_scale(self.system)
        self.fis_window = Window(config.window)   # validated history
        self.raw_window = Window(config.window)   # detector history
        self.est: float | None = None
        self.prev_t: float | None = None
        self.prev_accepted: float | None = None
        self.rejections = 0   # consecutive reconstructions
        self.seen = 0
        self.tracker = FaultTracker(sensor_id, config.fault_threshold, config.report_after)
        self.reports: list[FaultReport] = []
        self._finalized = False

    def _detector_bits(self) -> int:
        bits = 0
        cfg = self.config
        if len(self.raw_window) >= 2:
            var = self.raw_window.variance()
            if cfg.variance_enabled and var > cfg.variance_threshold:
                bits |= FLAG_BITS["variance_trip"]
            if cfg.uncertainty_enabled:
                unc = math.sqrt(var / len(self.raw_window))
                if unc > cfg.uncertainty_threshold:
                    bits |= FLAG_BITS["uncertainty_trip"]
        return bits

    def step(self, sample: Sample, extra_flagbits: int = 0) -> ValidationOutcome:
        """Judge one reading and update all streaming state."""
        cfg = self.config
        t, v = sample.timestamp, sample.value

        if self.prev_t is not None and t < self.prev_t:
            # out-of-order reading: reject without touching the windows
            bits = FLAG_BITS["time_regression"] | extra_flagbits
            accepted = self.est if self.est is not None else v
            reconstructed = self.est is not None
            if self.seen > cfg.warmup:
                report = self.tracker.observe(t, v, 0.0, bits)
                if report:
                    self.reports.append(report)
            return ValidationOutcome(
                timestamp=t,
                sensor_id=sample.sensor_id or self.sensor_id,
                raw=v,
                confidence=0.0,
                accepted=accepted,
                reconstructed=reconstructed,
                flags=flags_from_bits(bits),
            )

        self.seen += 1
        warm = self.seen <= cfg.warmup
        bits = extra_flagbits

        if cfg.reanchor_after and self.rejections >= cfg.reanchor_after:
            # nothing has been believable for a long time: the world most
            # likely moved (level shift), so restart the estimate from the
            # live signal instead of rejecting forever
            self.est = None
            self.prev_accepted = None
            self.fis_window = Window(cfg.window)
            self.rejections = 0

        if self.prev_t is None or self.prev_accepted is None:
            roc = 0.0
        else:
            dt = t - self.prev_t
            if dt == 0.0:
                roc = 0.0
                bits |= FLAG_BITS["zero_interval"]
            else:
                roc = abs(v - self.prev_accepted) / dt

        self.fis_window.push(v)
        self.raw_window.push(v)
        std = self.fis_window.std() if len(self.fis_window) >= 2 else 0.0

        res = infer_batch(self.system, np.array([[v, roc, std]]))
        conf = (float(res.values[0, 0]) - self._conf_lo) / self._conf_span
        conf = min(max(conf, 0.0), 1.0)
        if res.no_rule_fired[0]:
            conf = 0.0
            bits |= FLAG_BITS["no_rule_fired"]
        if res.out_of_range[0]:
            bits |= FLAG_BITS["out_of_range"]
        bits |= self._detector_bits()

        if warm:
            bits |= FLAG_BITS["warmup"]
            accepted = v
            reconstructed = False
            self.est = v if self.est is None else (
                cfg.reconstruction_alpha * v + (1 - cfg.reconstruction_alpha) * self.est
            )
            self.rejections = 0
        elif conf >= cfg.accept_threshold:
            accepted = v
            reconstructed = False
            self.est = v if self.est is None else (
                cfg.reconstruction_alpha * v + (1 - cfg.reconstruction_alpha) * self.est
            )
            self.rejections = 0
        else:
            if self.est is None:
                accepted = v
                reconstructed = False
                self.rejections = 0
            else:
                accepted = self.est
                reconstructed = True
                self.fis_window.replace_last(accepted)
                self.rejections += 1

        if not warm:
            report = self.tracker.observe(t, v, conf, bits)
            if report:
                self.reports.append(report)

        self.prev_t = t
        self.prev_accepted = accepted
        return ValidationOutcome(
            timestamp=t,
            sensor_id=sample.sensor_id or self.sensor_id,
            raw=v,
            confidence=conf,
            accepted=accepted,
            reconstructed=reconstructed,
            flags=flags_from_bits(bits),
        )

    def finalize(self) -> list[FaultReport]:
        """Close any open episode and return all reports for this sensor."""
        if not self._finalized:
            self._finalized = True
            report = self.tracker.close()
            if report:
                self.reports.append(report)
        return list(self.reports)


class Validator:
    """Multi-sensor dispatcher with optional PCA/SPE fusion."""

    def __init__(self, config: PipelineConfig):
        config.validate()
        self.config = config
        self.sensors: dict[str, SensorValidator] = {}
        self._latest: dict[str, float] = {}

    def _sensor(self, sensor_id: str) -> SensorValidator:
        if sensor_id not in self.sensors:
            self.sensors[sensor_id] = SensorValidator(self.config, sensor_id)
        return self.sensors[sensor_id]

    def _spe_bits(self, sample: Sample) -> int:
        model = self.config.spe_model
        fusion = self.config.spe_fusion
        if model is None or sample.sensor_id not in fusion:
            return 0
        self._latest[sample.sensor_id] = sample.value
        if not all(s in self._latest for s in fusion):
            return 0
        snapshot = np.array([self._latest[s] for s in fusion])
        if spe(model, snapshot) > model.spe_threshold:
            return FLAG_BITS["spe_trip"]
        return 0

    def step(self, sample: Sample) -> ValidationOutcome:
        bits = self._spe_bits(sample)
        return self._sensor(sample.sensor_id).step(sample, extra_flagbits=bits)

    def run(self, samples: Iterable[Sample]) -> list[ValidationOutcome]:
        return [self.step(s) for s in samples]

    def finalize(self) -> list[FaultReport]:
        """Close all sensors; reports come back grouped by sensor."""
        reports: list[FaultReport] = []
        for sensor_id in self.sensors:
            reports.extend(self.sensors[sensor_id].finalize())
        return reports


@dataclass
class BatchResult:
    """Columnar outcomes of the vectorized path for one sensor."""

    timestamps: np.ndarray
    raw: np.ndarray
    confidence: np.ndarray
    accepted: np.ndarray
    reconstructed: np.ndarray   # bool
    flagbits: np.ndarray        # uint16, decode with flags_from_bits
    reports: list[FaultReport]
    sensor_id: str = ""

    def outcomes(self) -> list[ValidationOutcome]:
        """Materialize row dataclasses (avoid for very long streams)."""
        return [self.outcome(i) for i in range(len(self.raw))]

    def outcome(self, i: int) -> ValidationOutcome:
        return ValidationOutcome(
            timestamp=float(self.timestamps[i]),
            sensor_id=self.sensor_id,
            raw=float(self.raw[i]),
            confidence=float(self.confidence[i]),
            accepted=float(self.accepted[i]),
            reconstructed=bool(self.reconstructed[i]),
            flags=flags_from_bits(int(self.flagbits[i])),
        )


def _rolling_welford(values: np.ndarray, tail: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray]:
    """Fresh Welford variance of the trailing window at each position.

    ``values`` are the new points; ``tail`` holds up to width-1 earlier
    points. Returns (variance, count) per new point; variance is NaN
    where the window holds fewer than 2 points.
    """
    k = len(values)
    t = len(tail)
    full = np.concatenate([tail, values])
    counts = np.minimum(width, t + np.arange(k) + 1)
    mean = np.zeros(k)
    m2 = np.zeros(k)
    # the first windows are still filling: the one at i spans full[:t+i+1]
    head = min(k, max(0, width - 1 - t))
    for off in range(t + head):
        act = slice(max(0, off - t), head)
        x = full[off]
        delta = x - mean[act]
        mean[act] += delta / (off + 1)
        m2[act] += delta * (x - mean[act])
    # every later window is full: each offset is a contiguous slice
    full_mean, full_m2 = mean[head:], m2[head:]
    lo = t + head - width + 1
    for off in range(width):
        x = full[lo + off : lo + off + k - head]
        delta = x - full_mean
        full_mean += delta / (off + 1)
        full_m2 += delta * (x - full_mean)
    var = np.full(k, np.nan)
    ok = counts >= 2
    var[ok] = np.maximum(m2[ok], 0.0) / (counts[ok] - 1)
    return var, counts


class _BatchState:
    """Sequential state carried between vectorized stretches."""

    def __init__(self, config: PipelineConfig, sensor_id: str):
        self.est: float | None = None
        self.prev_t: float | None = None
        self.prev_accepted: float | None = None
        self.rejections = 0
        self.seen = 0
        self.tail: list[float] = []  # last window-1 validated values
        self.tracker = FaultTracker(sensor_id, config.fault_threshold, config.report_after)


def run_batch(
    config: PipelineConfig,
    timestamps: np.ndarray,
    values: np.ndarray,
    sensor_id: str = "",
) -> BatchResult:
    """Vectorized single-sensor validation over parallel arrays.

    Matches ``SensorValidator`` semantics (see module docstring for the
    one rounding caveat). PCA/SPE fusion is a multi-sensor concern and is
    not applied here; use ``Validator.step`` when a model is configured.
    """
    config.validate()
    if config.spe_model is not None:
        raise ConfigError("run_batch does not support SPE fusion; use Validator.step")
    t = np.asarray(timestamps, dtype=float)
    v = np.asarray(values, dtype=float)
    if t.shape != v.shape or t.ndim != 1:
        raise ValueError("timestamps and values must be equal-length 1-D arrays")
    n = t.size
    system = config.resolved_system()
    conf_lo, conf_span = _confidence_scale(system)
    w = config.window
    alpha = config.reconstruction_alpha

    out_conf = np.zeros(n)
    out_acc = np.empty(n)
    out_rec = np.zeros(n, dtype=bool)
    out_bits = np.zeros(n, dtype=np.uint16)

    if n == 0:
        return BatchResult(t, v, out_conf, out_acc, out_rec, out_bits, [], sensor_id)

    # time regressions: a sample is rejected when its timestamp precedes
    # the newest valid timestamp so far, which is a running maximum
    cummax = np.maximum.accumulate(t)
    reg = np.zeros(n, dtype=bool)
    reg[1:] = t[1:] < cummax[:-1]
    valid_idx = np.flatnonzero(~reg)
    tv = t[valid_idx]
    vv = v[valid_idx]
    m = tv.size

    # detector flags depend only on the raw history of valid samples
    det_bits = np.zeros(m, dtype=np.uint16)
    if m:
        var, counts = _rolling_welford(vv, np.empty(0), w)
        have = counts >= 2
        if config.variance_enabled:
            det_bits[have & (var > config.variance_threshold)] |= FLAG_BITS["variance_trip"]
        if config.uncertainty_enabled:
            unc = np.sqrt(var[have] / counts[have])
            hit = np.zeros(m, dtype=bool)
            hit[have] = unc > config.uncertainty_threshold
            det_bits[hit] |= FLAG_BITS["uncertainty_trip"]

    zero_dt = np.zeros(m, dtype=bool)
    if m > 1:
        zero_dt[1:] = np.diff(tv) == 0.0

    state = _BatchState(config, sensor_id)
    reports: list[FaultReport] = []

    def observe(ts: float, raw: float, conf: float, bits: int) -> None:
        report = state.tracker.observe(ts, raw, conf, bits)
        if report:
            reports.append(report)

    def scalar_step(j: int) -> None:
        """Reference semantics for valid sample j, writing outcome row."""
        i = valid_idx[j]
        ts, raw = tv[j], vv[j]
        state.seen += 1
        warm = state.seen <= config.warmup
        bits = int(det_bits[j])

        if config.reanchor_after and state.rejections >= config.reanchor_after:
            state.est = None
            state.prev_accepted = None
            state.tail = []
            state.rejections = 0

        if state.prev_accepted is None:
            roc = 0.0
        elif zero_dt[j]:
            roc = 0.0
            bits |= FLAG_BITS["zero_interval"]
        else:
            roc = abs(raw - state.prev_accepted) / (ts - state.prev_t)

        window_vals = state.tail + [raw]
        if len(window_vals) >= 2:
            _, _, m2 = _welford(window_vals)
            std = math.sqrt(max(m2, 0.0) / (len(window_vals) - 1))
        else:
            std = 0.0

        res = infer_batch(system, np.array([[raw, roc, std]]))
        conf = (float(res.values[0, 0]) - conf_lo) / conf_span
        conf = min(max(conf, 0.0), 1.0)
        if res.no_rule_fired[0]:
            conf = 0.0
            bits |= FLAG_BITS["no_rule_fired"]
        if res.out_of_range[0]:
            bits |= FLAG_BITS["out_of_range"]

        if warm:
            bits |= FLAG_BITS["warmup"]
            accepted = raw
            rec = False
            state.est = raw if state.est is None else alpha * raw + (1 - alpha) * state.est
            state.rejections = 0
        elif conf >= config.accept_threshold:
            accepted = raw
            rec = False
            state.est = raw if state.est is None else alpha * raw + (1 - alpha) * state.est
            state.rejections = 0
        else:
            if state.est is None:
                accepted = raw
                rec = False
                state.rejections = 0
            else:
                accepted = state.est
                rec = True
                state.rejections += 1
        if not warm:
            observe(ts, raw, conf, bits)

        state.tail.append(accepted)
        if len(state.tail) > w - 1:
            del state.tail[: len(state.tail) - (w - 1)]
        state.prev_t = ts
        state.prev_accepted = accepted
        out_conf[i] = conf
        out_acc[i] = accepted
        out_rec[i] = rec
        out_bits[i] = bits

    # regressed samples interleave with valid ones; emit them from the
    # state as of their position in the stream
    reg_idx = np.flatnonzero(reg)
    next_reg = 0

    def emit_regressions_before(valid_pos: int) -> None:
        nonlocal next_reg
        boundary = valid_idx[valid_pos] if valid_pos < m else n
        while next_reg < len(reg_idx) and reg_idx[next_reg] < boundary:
            i = reg_idx[next_reg]
            bits = FLAG_BITS["time_regression"]
            out_conf[i] = 0.0
            out_acc[i] = state.est if state.est is not None else v[i]
            out_rec[i] = state.est is not None
            out_bits[i] = bits
            if state.seen > config.warmup:
                observe(t[i], v[i], 0.0, bits)
            next_reg += 1

    # a vector stretch must not span a regressed sample, whose outcome
    # depends on the state at its exact stream position
    breaks = np.flatnonzero(np.diff(valid_idx) > 1)
    bi = 0

    chunk = 1024
    max_chunk = 65536
    p = 0
    while p < m:
        emit_regressions_before(p)
        if (
            state.seen < config.warmup
            or state.est is None
            or (config.reanchor_after and state.rejections >= config.reanchor_after)
        ):
            scalar_step(p)
            p += 1
            continue
        while bi < len(breaks) and breaks[bi] < p:
            bi += 1
        limit = int(breaks[bi]) + 1 if bi < len(breaks) else m
        e = min(m, p + chunk, limit)
        # no vectorizing across a zero-dt sample's special flag handling
        # is needed; roc is simply 0 there, which the formula below covers
        seg_v = vv[p:e]
        seg_t = tv[p:e]
        k = seg_v.size

        prev_vals = np.concatenate(([state.prev_accepted], seg_v[:-1]))
        prev_ts = np.concatenate(([state.prev_t], seg_t[:-1]))
        dts = seg_t - prev_ts
        with np.errstate(divide="ignore", invalid="ignore"):
            roc = np.where(dts == 0.0, 0.0, np.abs(seg_v - prev_vals) / dts)

        var, counts = _rolling_welford(seg_v, np.asarray(state.tail), w)
        std = np.sqrt(np.where(counts >= 2, var, 0.0))

        res = infer_batch(system, np.column_stack([seg_v, roc, std]))
        conf = np.clip((res.values[:, 0] - conf_lo) / conf_span, 0.0, 1.0)
        conf[res.no_rule_fired] = 0.0

        acceptable = conf >= config.accept_threshold
        stop = int(np.argmin(acceptable)) if not acceptable.all() else k
        if stop > 0:
            # commit the accepted stretch [p, p+stop)
            rows = valid_idx[p : p + stop]
            out_conf[rows] = conf[:stop]
            out_acc[rows] = seg_v[:stop]
            bits = det_bits[p : p + stop].copy()
            bits[res.out_of_range[:stop]] |= FLAG_BITS["out_of_range"]
            bits[zero_dt[p : p + stop]] |= FLAG_BITS["zero_interval"]
            out_bits[rows] = bits
            # est follows the EWMA recurrence over the accepted values,
            # term for term as scalar_step computes it
            accepted_vals = seg_v[:stop].tolist()
            est = state.est
            for x in accepted_vals:
                est = alpha * x + (1 - alpha) * est
            state.est = est
            state.tail.extend(accepted_vals)
            if len(state.tail) > w - 1:
                del state.tail[: len(state.tail) - (w - 1)]
            state.prev_t = float(seg_t[stop - 1])
            state.prev_accepted = float(seg_v[stop - 1])
            state.seen += stop
            state.rejections = 0
            # every accepted sample breaks any open episode
            report = state.tracker.close()
            if report:
                reports.append(report)
        if stop < k:
            scalar_step(p + stop)
            p += stop + 1
            chunk = 64
        else:
            p += k
            chunk = min(max_chunk, chunk * 4)
    emit_regressions_before(m)

    report = state.tracker.close()
    if report:
        reports.append(report)
    return BatchResult(t, v, out_conf, out_acc, out_rec, out_bits, reports, sensor_id)

