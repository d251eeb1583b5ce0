"""The streaming validation pipeline.

Each incoming reading is scored by the fuzzy confidence system on three
features (the raw value, its rate of change against the last validated
reading, and the recent window's standard deviation). High-confidence
readings pass through and update an exponential estimate; low-confidence
readings are replaced by that estimate so one bad sample cannot poison
the statistics that judge the next one. Runs of very low confidence
become fault reports.

One state machine, two drivers. ``SensorValidator`` holds a sensor's
state and is the only home of each rule that changes it: the regressed
reading, the reanchor, accepting and rejecting. Two drivers feed it:

  * ``SensorValidator.step`` judges one reading on Python floats
  * ``run_batch`` judges a recorded stream in numpy blocks: features and
    inference for every row as if all were accepted, then it commits the
    accepted prefix and the first rejected row, whose features are exact,
    and starts the next block after it

Both drivers compute window statistics with a fresh Welford pass in the
same order, so their features agree bit for bit. One difference remains:
``infer_batch`` takes the centroid as ``agg @ grid`` through BLAS, which
rounds a row by its position in the call. A confidence can therefore
differ by an ulp between a row inferred alone and the same row inside a
block, and at an exact tie with ``accept_threshold`` that can flip the
decision (an aggregate symmetric about 0.5 has a centroid of exactly
0.5). Each driver on its own is fully deterministic for a given config
and input stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .detectors import PcaModel, _window_var, spe
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
class Sample:
    """One timestamped reading from one sensor."""

    timestamp: float
    value: float
    sensor_id: str = ""


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
    """One sensor's validation state, and every rule that changes it.

    ``step`` is the row driver; ``run_batch`` drives the same state
    through ``_block``. The tails hold the last ``window - 1`` raw and
    validated readings; the window that judges a reading is its tail plus
    the reading itself.
    """

    def __init__(self, config: PipelineConfig, sensor_id: str = ""):
        config.validate()
        self.config = config
        self.sensor_id = sensor_id
        self.system = config.resolved_system()
        self._conf_lo, self._conf_span = _confidence_scale(self.system)
        self.est: float | None = None
        self.prev_t: float | None = None
        self.prev_accepted: float | None = None
        self.rejections = 0   # consecutive reconstructions
        self.seen = 0
        self.raw_tail: list[float] = []   # detector history
        self.tail: list[float] = []       # validated history
        self.tracker = FaultTracker(sensor_id, config.fault_threshold, config.report_after)
        self.reports: list[FaultReport] = []
        self._finalized = False

    # the rules, which both drivers call

    def _keep(self, report: FaultReport | None) -> None:
        if report:
            self.reports.append(report)

    def _regressed(self, t: float, v: float, bits: int) -> tuple[float, float, bool, int]:
        """Reject an out-of-order reading without touching the windows."""
        bits |= FLAG_BITS["time_regression"]
        if self.seen > self.config.warmup:
            self._keep(self.tracker.observe(t, v, 0.0, bits))
        if self.est is None:
            return 0.0, v, False, bits
        return 0.0, self.est, True, bits

    def _reanchor_due(self) -> bool:
        cfg = self.config
        return bool(cfg.reanchor_after) and self.rejections >= cfg.reanchor_after

    def _reanchor_if_due(self) -> None:
        if self._reanchor_due():
            # nothing has been believable for a long time: the world most
            # likely moved (level shift), so restart the estimate from the
            # live signal instead of rejecting forever
            self.est = None
            self.prev_accepted = None
            self.tail = []
            self.rejections = 0

    def _push(self, t: float, raw: list[float], accepted: list[float]) -> None:
        keep = self.config.window - 1
        self.raw_tail += raw[-keep:]
        del self.raw_tail[:-keep]
        self.tail += accepted[-keep:]
        del self.tail[:-keep]
        self.prev_t = t
        self.prev_accepted = accepted[-1]

    def _accept(self, t: float, values: list[float]) -> None:
        """Take in-order readings as they are; ``t`` is the last one's time."""
        alpha = self.config.reconstruction_alpha
        est = self.est
        for x in values:
            est = x if est is None else alpha * x + (1 - alpha) * est
        self.est = est
        self.rejections = 0
        # an accepted reading closes any episode (none is open in warm-up)
        self._keep(self.tracker.close())
        self._push(t, values, values)

    def _reject(self, t: float, v: float, conf: float, bits: int) -> tuple[float, bool]:
        """Replace a distrusted reading by the estimate, once there is one."""
        if self.est is None:
            accepted, reconstructed = v, False
            self.rejections = 0
        else:
            accepted, reconstructed = self.est, True
            self.rejections += 1
        self._keep(self.tracker.observe(t, v, conf, bits))
        self._push(t, [v], [accepted])
        return accepted, reconstructed

    # the drivers

    def step(self, sample: Sample, extra_flagbits: int = 0) -> ValidationOutcome:
        """Judge one reading and update all streaming state."""
        t, v = sample.timestamp, sample.value
        judge = self._regressed if self.prev_t is not None and t < self.prev_t else self._row
        conf, accepted, reconstructed, bits = judge(t, v, extra_flagbits)
        return ValidationOutcome(
            timestamp=t,
            sensor_id=sample.sensor_id or self.sensor_id,
            raw=v,
            confidence=conf,
            accepted=accepted,
            reconstructed=reconstructed,
            flags=flags_from_bits(bits),
        )

    def _row(self, t: float, v: float, bits: int) -> tuple[float, float, bool, int]:
        """Judge one in-order reading on Python floats."""
        cfg = self.config
        self.seen += 1
        self._reanchor_if_due()

        if self.prev_accepted is None:
            roc = 0.0
        else:
            dt = t - self.prev_t
            if dt == 0.0:
                roc = 0.0
                bits |= FLAG_BITS["zero_interval"]
            else:
                roc = abs(v - self.prev_accepted) / dt

        raw_var, n = _window_var(self.raw_tail + [v])
        var, m = (raw_var, n) if self.tail == self.raw_tail else _window_var(self.tail + [v])
        if cfg.variance_enabled and raw_var > cfg.variance_threshold:
            bits |= FLAG_BITS["variance_trip"]
        if cfg.uncertainty_enabled and math.sqrt(raw_var / n) > cfg.uncertainty_threshold:
            bits |= FLAG_BITS["uncertainty_trip"]
        std = math.sqrt(var) if m >= 2 else 0.0

        res = infer_batch(self.system, np.array([[v, roc, std]]))
        conf = (float(res.values[0, 0]) - self._conf_lo) / self._conf_span
        conf = min(max(conf, 0.0), 1.0)
        if res.no_rule_fired[0]:
            conf = 0.0
            bits |= FLAG_BITS["no_rule_fired"]
        if res.out_of_range[0]:
            bits |= FLAG_BITS["out_of_range"]

        if self.seen <= cfg.warmup:
            self._accept(t, [v])
            return conf, v, False, bits | FLAG_BITS["warmup"]
        if conf >= cfg.accept_threshold:
            self._accept(t, [v])
            return conf, v, False, bits
        return (conf, *self._reject(t, v, conf, bits), bits)

    def _block(self, out: BatchResult, p: int, e: int) -> int:
        """Judge in-order readings p..e-1 of ``out`` as one numpy block.

        Features and inference assume every row is accepted. The accepted
        prefix is committed in bulk, then the first rejected row, whose
        features are exact because only accepted rows precede it. Returns
        the index of the first row left unjudged. Needs an estimate and a
        previous reading, past warm-up and with no reanchor due.
        """
        cfg = self.config
        seg_t, seg_v = out.timestamps[p:e], out.raw[p:e]
        dts = np.diff(seg_t, prepend=self.prev_t)
        with np.errstate(divide="ignore", invalid="ignore"):
            roc = np.where(dts == 0.0, 0.0, np.abs(np.diff(seg_v, prepend=self.prev_accepted)) / dts)
        var, counts = _rolling_welford(seg_v, np.asarray(self.tail), cfg.window)
        if self.raw_tail == self.tail:
            raw_var, raw_counts = var, counts
        else:
            raw_var, raw_counts = _rolling_welford(seg_v, np.asarray(self.raw_tail), cfg.window)
        std = np.sqrt(np.where(counts >= 2, var, 0.0))

        res = infer_batch(self.system, np.column_stack([seg_v, roc, std]))
        conf = np.clip((res.values[:, 0] - self._conf_lo) / self._conf_span, 0.0, 1.0)
        conf[res.no_rule_fired] = 0.0
        bits = (
            res.no_rule_fired * FLAG_BITS["no_rule_fired"]
            | res.out_of_range * FLAG_BITS["out_of_range"]
            | (dts == 0.0) * FLAG_BITS["zero_interval"]
        )
        if cfg.variance_enabled:
            bits |= (raw_var > cfg.variance_threshold) * FLAG_BITS["variance_trip"]
        if cfg.uncertainty_enabled:
            unc = np.sqrt(raw_var / raw_counts)
            bits |= (unc > cfg.uncertainty_threshold) * FLAG_BITS["uncertainty_trip"]

        ok = conf >= cfg.accept_threshold
        stop = len(ok) if ok.all() else int(np.argmin(ok))
        if stop:
            out.confidence[p : p + stop] = conf[:stop]
            out.accepted[p : p + stop] = seg_v[:stop]
            out.flagbits[p : p + stop] = bits[:stop]
            self.seen += stop
            self._accept(float(seg_t[stop - 1]), seg_v[:stop].tolist())
        if p + stop == e:
            return e
        i = p + stop
        c, b = float(conf[stop]), int(bits[stop])
        self.seen += 1
        out.confidence[i], out.flagbits[i] = c, b
        out.accepted[i], out.reconstructed[i] = self._reject(float(seg_t[stop]), float(seg_v[stop]), c, b)
        return i + 1

    def finalize(self) -> list[FaultReport]:
        """Close any open episode and return all reports for this sensor."""
        if not self._finalized:
            self._finalized = True
            self._keep(self.tracker.close())
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
    """Columnar outcomes of ``run_batch`` for one sensor."""

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
    # an inf reading turns its windows' statistics to NaN, silently, as
    # _welford does on Python floats
    with np.errstate(invalid="ignore"):
        if head:
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


def run_batch(
    config: PipelineConfig,
    timestamps: np.ndarray,
    values: np.ndarray,
    sensor_id: str = "",
) -> BatchResult:
    """Validate one sensor's recorded stream, given as parallel arrays.

    A ``SensorValidator`` judges it: rows it cannot take as a block
    (warm-up, no estimate yet, a reanchor due, a regressed timestamp) go
    through the row driver, everything else through blocks of 1024 rows,
    64 after a rejection and four times as many after a fully accepted
    block, up to 65536. Outcomes and reports are those of
    ``SensorValidator.step`` on the same readings with finite timestamps,
    up to the centroid rounding described in the module docstring. PCA/SPE fusion is a
    multi-sensor concern and is not applied here; use ``Validator.step``
    when a model is configured.
    """
    sv = SensorValidator(config, sensor_id)
    if config.spe_model is not None:
        raise ConfigError("run_batch does not support SPE fusion; use Validator.step")
    t = np.asarray(timestamps, dtype=float)
    v = np.asarray(values, dtype=float)
    if t.shape != v.shape or t.ndim != 1:
        raise ValueError("timestamps and values must be equal-length 1-D arrays")
    n = t.size
    out = BatchResult(
        t, v, np.zeros(n), np.empty(n), np.zeros(n, dtype=bool), np.zeros(n, dtype=np.uint16), [], sensor_id
    )

    # a reading is regressed when its timestamp precedes the newest one
    # so far; a block must not span one, whose outcome depends on the
    # state at its exact position
    regressed = (np.flatnonzero(t[1:] < np.maximum.accumulate(t)[:-1]) + 1).tolist() + [n]
    r = 0
    block = 1024
    p = 0
    while p < n:
        at_regressed = p == regressed[r]
        if at_regressed or sv.seen < config.warmup or sv.est is None or sv._reanchor_due():
            judge = sv._regressed if at_regressed else sv._row
            out.confidence[p], out.accepted[p], out.reconstructed[p], out.flagbits[p] = judge(
                float(t[p]), float(v[p]), 0
            )
            r += at_regressed
            p += 1
        else:
            e = min(p + block, regressed[r])
            p_next = sv._block(out, p, e)
            block = 64 if p_next < e else min(65536, block * 4)
            p = p_next
    out.reports = sv.finalize()
    return out
