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
  * ``SensorValidator._drive`` judges one sensor's recorded readings in
    numpy blocks, each swept to the fixed point of its accept mask: every
    row inferred as if all were accepted, then, sweep by sweep, the rows
    whose features the rejections change, in one inference call a sweep

``Validator`` routes each reading to its sensor and sets ``spe_trip``
from PCA/SPE fusion. Its ``step`` is the live multi-sensor API. Its
``feed`` judges the next piece of a recorded stream, fused or not,
through the block driver, and keeps every piece of state between calls,
so a stream cut into pieces gives what it gives whole: ``sensorval
validate`` feeds its input piece by piece, in bounded memory.
``run_batch`` judges a whole recorded stream as one ``feed`` and a
``finalize``.

Both drivers compute window statistics with a fresh Welford pass in the
same order, and inference is row-wise, so they give the same outcomes
and reports bit for bit. Each is deterministic for a given config and
input stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .defaults import default_system
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
    """Tunable pipeline behavior; defaults follow the shipped rulebase.

    A config that exists is valid: construction, ``dataclasses.replace``
    included, raises ConfigError on any unusable setting. ``system=None``
    builds the shipped rulebase, ``default_system()``.
    """

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
    # a threshold of inf turns its trip off
    variance_threshold: float = 9.0
    uncertainty_threshold: float = 0.75
    spe_model: PcaModel | None = None
    spe_fusion: tuple[str, ...] = ()

    def __post_init__(self):
        if self.system is None:
            object.__setattr__(self, "system", default_system())
        self.validate()

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
        if self.spe_fusion and self.spe_model is None:
            raise ConfigError("spe_fusion needs an spe_model to check the fused sensors against")
        if len(set(self.spe_fusion)) != len(self.spe_fusion):
            raise ConfigError(f"spe_fusion names a sensor more than once: {self.spe_fusion}")
        if self.spe_model is not None and len(self.spe_fusion) < 2:
            raise ConfigError("spe_model needs spe_fusion naming at least 2 sensors")
        if self.spe_model is not None and len(self.spe_fusion) != self.spe_model.dim:
            raise ConfigError(
                f"spe_fusion names {len(self.spe_fusion)} sensors but the model "
                f"expects {self.spe_model.dim}"
            )
        from .fisfile import validate_fis

        problems = [d for d in validate_fis(self.system) if d.severity == "error"]
        if problems:
            raise ConfigError(f"fuzzy system is invalid: {problems[0].message}")
        if len(self.system.inputs) != 3:
            raise ConfigError(
                "confidence system must take exactly 3 inputs "
                "(value, rate of change, window std), got "
                f"{len(self.system.inputs)}"
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

    ``step`` is the row driver; ``_drive``, which ``Validator.feed``
    calls, drives the same state through ``_row`` and ``_block``. The
    tails hold the last ``window - 1`` raw and validated readings; the
    window that judges a reading is its tail plus the reading itself.
    ``system`` is ``config.system``, shared by every sensor of the config.
    """

    def __init__(self, config: PipelineConfig, sensor_id: str = ""):
        self.config = config
        self.sensor_id = sensor_id
        self.system = config.system
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
        self._t_max = -math.inf   # newest timestamp _drive has seen
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

    def _reanchor_due(self, rejections: int) -> bool:
        cfg = self.config
        return bool(cfg.reanchor_after) and rejections >= cfg.reanchor_after

    def _reanchor_if_due(self) -> None:
        if self._reanchor_due(self.rejections):
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

    def _accepting(self, est: float | None, values: list[float]) -> tuple[float | None, int]:
        """The estimate and the rejection count after taking ``values``."""
        alpha = self.config.reconstruction_alpha
        for x in values:
            est = x if est is None else alpha * x + (1 - alpha) * est
        return est, 0

    @staticmethod
    def _rejecting(est: float | None, rejections: int, v: float) -> tuple[float, bool, int]:
        """(validated value, reconstructed, rejection count) after distrusting ``v``."""
        return (v, False, 0) if est is None else (est, True, rejections + 1)

    def _accept(self, t: float, values: list[float]) -> None:
        """Take in-order readings as they are; ``t`` is the last one's time."""
        self.est, self.rejections = self._accepting(self.est, values)
        # an accepted reading closes any episode (none is open in warm-up)
        self._keep(self.tracker.close())
        self._push(t, values, values)

    def _reject(self, t: float, v: float, conf: float, bits: int) -> tuple[float, bool]:
        """Replace a distrusted reading by the estimate, once there is one."""
        accepted, reconstructed, self.rejections = self._rejecting(self.est, self.rejections, v)
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
        if raw_var > cfg.variance_threshold:
            bits |= FLAG_BITS["variance_trip"]
        if math.sqrt(raw_var / n) > cfg.uncertainty_threshold:
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

    def _replay(self, v: np.ndarray, ok: np.ndarray) -> np.ndarray:
        """Validated values of in-order readings ``v`` if those not ``ok`` are
        rejected, up to a rejection that makes a reanchor due."""
        est, rejections = self.est, self.rejections
        acc, i = v.copy(), 0
        for j in np.flatnonzero(~ok).tolist():
            if j > i:
                est, rejections = self._accepting(est, v[i:j].tolist())
            acc[j], _, rejections = self._rejecting(est, rejections, float(v[j]))
            i = j + 1
            if self._reanchor_due(rejections):
                return acc[:i]
        return acc

    def _commit(self, out: BatchResult, p: int, i: int, j: int, conf, bits, ok) -> int:
        """Commit rows i..j-1 of the block at ``p`` as ``ok`` says, up to a
        rejection that makes a reanchor due; returns the next row."""
        t, v = out.timestamps[p:], out.raw[p:]
        for k in (i + np.flatnonzero(~ok[i:j])).tolist() + [j]:
            if k > i:
                self.seen += k - i
                self._accept(float(t[k - 1]), v[i:k].tolist())
            if k == j or self._reanchor_due(self.rejections):
                return k
            self.seen += 1
            reading = (float(t[k]), float(v[k]), float(conf[k]), int(bits[k]))
            out.accepted[p + k], out.reconstructed[p + k] = self._reject(*reading)
            i = k + 1

    def _block(self, out: BatchResult, p: int, e: int, last: tuple | None) -> tuple[int, tuple]:
        """Judge in-order readings p..e-1 of ``out`` as one numpy block.

        A row's features depend only on the raw readings and on which rows
        before it are accepted, so the accept mask is swept to a fixed
        point: the first sweep infers every row as accepted; each commits
        the rows up to the first one whose mask it changed, replays the
        rest with the new mask, guessing that a second rejection in a row
        runs on to the reanchor, and infers again each row whose features
        that changes. The caller's bits in ``out.flagbits`` are kept. Needs
        a validated tail of ``window - 1`` readings, past warm-up, no
        reanchor due. Returns the first row left unjudged (``e``, or the
        row after a rejection that makes a reanchor due) and the inferred
        rows, which the next block reuses, as ``last``, where they match.
        """
        cfg, w, n = self.config, self.config.window, e - p
        t, v = out.timestamps[p:e], out.raw[p:e]
        dts = t - np.concatenate(([self.prev_t], t[:-1]))
        var = _rolling_welford(v, np.asarray(self.tail), w)
        raw_var = var if self.raw_tail == self.tail else _rolling_welford(v, np.asarray(self.raw_tail), w)
        kept = out.flagbits[p:e] | (raw_var > cfg.variance_threshold) * FLAG_BITS["variance_trip"]
        kept |= (np.sqrt(raw_var / w) > cfg.uncertainty_threshold) * FLAG_BITS["uncertainty_trip"]
        kept |= (dts == 0.0) * FLAG_BITS["zero_interval"]
        out.accepted[p:e] = v   # a rejected row's is written when it is committed
        # a std of -1 marks a row not inferred yet
        x, conf, bits = np.full((n, 3), -1.0), np.empty(n), np.empty(n, dtype=kept.dtype)
        for mine, theirs in zip((x, conf, bits), last[1:] if last else ()):
            reuse = theirs[p - last[0] : p - last[0] + n]
            mine[: len(reuse)] = reuse
        acc, guess, i = v, np.ones(n, dtype=bool), 0   # guess: the mask acc follows
        while True:
            end = i + acc.size
            prev = np.concatenate(([self.prev_accepted], acc[:-1]))
            with np.errstate(divide="ignore", invalid="ignore"):
                roc = np.where(dts[i:end] == 0.0, 0.0, np.abs(v[i:end] - prev) / dts[i:end])
            new = np.column_stack([v[i:end], roc, np.sqrt(var)])
            # rows compared as bytes, so that a NaN feature that stays NaN is unchanged
            changed = np.flatnonzero(new.view("V24")[:, 0] != x[i:end].view("V24")[:, 0])
            redo = slice(i, end) if changed.size == end - i else i + changed   # a slice is cheaper
            x[i:end] = new
            if changed.size:
                res = infer_batch(self.system, x[redo])
                scaled = np.clip((res.values[:, 0] - self._conf_lo) / self._conf_span, 0.0, 1.0)
                conf[redo] = np.where(res.no_rule_fired, 0.0, scaled)
                bits[redo] = kept[redo] | res.no_rule_fired * FLAG_BITS["no_rule_fired"]
                bits[redo] |= res.out_of_range * FLAG_BITS["out_of_range"]
            ok = conf >= cfg.accept_threshold
            wrong = np.flatnonzero(ok[i:end] != guess[i:end])
            i = self._commit(out, p, i, i + int(wrong[0]) + 1 if wrong.size else end, conf, bits, ok)
            if i == end or self._reanchor_due(self.rejections):
                out.confidence[p : p + i], out.flagbits[p : p + i] = conf[:i], bits[:i]
                return p + i, (p, x, conf, bits)
            if guess.all():   # first sweep: a row judged against a rejected one is guessed accepted
                ok[1:] |= ~ok[:-1]
            guess = ok
            if self.rejections >= 2:
                guess[i : i + (cfg.reanchor_after or n)] = False
            acc = self._replay(v[i:], guess[i:])
            var = _rolling_welford(v[i : i + acc.size], np.asarray(self.tail), w, acc)

    def _drive(self, out: BatchResult) -> None:
        """Judge this sensor's next readings in ``out``, in order, into its
        outcome columns; the bits in ``out.flagbits`` are the caller's, as
        ``step`` takes them. Rows that cannot start a block (warm-up, a
        validated tail shorter than ``window - 1``, a reanchor due, a
        regressed timestamp) go through ``_row`` or ``_regressed``, the rest
        through ``_block`` in blocks of ``_BLOCK_ROWS`` readings, each
        handing the rows it inferred to the next."""
        cfg = self.config
        t, v, bits = out.timestamps, out.raw, out.flagbits
        n = t.size
        # a reading is regressed when its timestamp precedes the newest one
        # so far, earlier calls included; a block must not span one, whose
        # outcome depends on the state at its exact position. A NaN
        # timestamp makes the maximum NaN, which ends the scan for good.
        newest = np.maximum.accumulate(np.concatenate(([self._t_max], t)))
        self._t_max = float(newest[-1])
        regressed = np.flatnonzero(t < newest[:-1]).tolist() + [n]
        r = p = 0
        last = None
        while p < n:
            at_regressed = p == regressed[r]
            ready = self.seen >= cfg.warmup and len(self.tail) >= cfg.window - 1
            if at_regressed or not ready or self._reanchor_due(self.rejections):
                judge = self._regressed if at_regressed else self._row
                out.confidence[p], out.accepted[p], out.reconstructed[p], bits[p] = judge(
                    float(t[p]), float(v[p]), int(bits[p])
                )
                r += at_regressed
                p += 1
            else:
                p, last = self._block(out, p, min(p + _BLOCK_ROWS, regressed[r]), last)

    def finalize(self) -> list[FaultReport]:
        """Close any open episode and return all reports for this sensor."""
        if not self._finalized:
            self._finalized = True
            self._keep(self.tracker.close())
        return list(self.reports)


class Validator:
    """Multi-sensor dispatcher with optional PCA/SPE fusion. Its sensors
    share one config, one ``FuzzySystem`` and its compiled tables."""

    def __init__(self, config: PipelineConfig):
        self.config = config
        self.sensors: dict[str, SensorValidator] = {}
        self._latest: dict[str, float] = {}

    def _sensor(self, sensor_id: str) -> SensorValidator:
        if sensor_id not in self.sensors:
            self.sensors[sensor_id] = SensorValidator(self.config, sensor_id)
        return self.sensors[sensor_id]

    def _spe_bits(self, sensor_id: str, value: float) -> int:
        """Check the latest raw value of every fused sensor after this reading."""
        model = self.config.spe_model
        fusion = self.config.spe_fusion
        if model is None or sensor_id not in fusion:
            return 0
        self._latest[sensor_id] = value
        if not all(s in self._latest for s in fusion):
            return 0
        snapshot = np.array([self._latest[s] for s in fusion])
        if spe(model, snapshot) > model.spe_threshold:
            return FLAG_BITS["spe_trip"]
        return 0

    def step(self, sample: Sample) -> ValidationOutcome:
        bits = self._spe_bits(sample.sensor_id, sample.value)
        return self._sensor(sample.sensor_id).step(sample, extra_flagbits=bits)

    def run(self, samples: Iterable[Sample]) -> list[ValidationOutcome]:
        return [self.step(s) for s in samples]

    def feed(
        self,
        timestamps: np.ndarray,
        values: np.ndarray,
        sensor_ids: Sequence[str] | str = "",
    ) -> BatchResult:
        """Judge the next readings of a recorded stream, given as parallel
        arrays in arrival order, after those of earlier calls.

        ``sensor_ids`` names each reading's sensor, or is one ``str`` for
        readings of a single sensor. The ``spe_trip`` bits come first, since
        they change no sensor's state, then each sensor's readings, in order
        of first appearance, through its ``SensorValidator._drive``.
        Outcomes come back in arrival order; ``reports`` stays empty until
        ``finalize``. Cutting a stream into any number of calls gives the
        same outcomes and reports as one call, and they equal what ``step``
        gives on the same readings with finite timestamps, bit for bit. A
        stream goes through ``feed`` or through ``step``, not both. A single
        sensor's readings are judged in place; several sensors' are
        gathered per sensor and scattered back.
        """
        t = np.asarray(timestamps, dtype=float)
        v = np.asarray(values, dtype=float)
        n = t.size
        if isinstance(sensor_ids, str):
            sensors, sensor_ids = {sensor_ids: None}, [sensor_ids] * n
        else:
            sensors = dict.fromkeys(sensor_ids)
        if t.shape != v.shape or t.ndim != 1 or len(sensor_ids) != n:
            raise ValueError("timestamps, values and sensor_ids must be equal-length 1-D sequences")
        bits = np.zeros(n, dtype=np.uint16)
        if self.config.spe_model is not None:
            for i, (s, x) in enumerate(zip(sensor_ids, v.tolist())):
                bits[i] = self._spe_bits(s, x)
        out = BatchResult(t, v, np.zeros(n), np.empty(n), np.zeros(n, dtype=bool), bits, [], sensor_ids)

        if len(sensors) == 1:
            self._sensor(*sensors)._drive(out)
        elif sensors:
            code = {s: j for j, s in enumerate(sensors)}
            codes = np.fromiter(map(code.__getitem__, sensor_ids), dtype=np.intp, count=n)
            order = np.argsort(codes, kind="stable")
            cols = (t[order], v[order], np.zeros(n), np.empty(n), np.zeros(n, dtype=bool), bits[order])
            ends = np.cumsum(np.bincount(codes)).tolist()
            for sid, a, e in zip(sensors, [0] + ends, ends):
                self._sensor(sid)._drive(BatchResult(*(c[a:e] for c in cols), [], ()))
            out.confidence[order], out.accepted[order], out.reconstructed[order], out.flagbits[order] = cols[2:]
        return out

    def finalize(self) -> list[FaultReport]:
        """Close all sensors; reports come back grouped by sensor."""
        reports: list[FaultReport] = []
        for sensor_id in self.sensors:
            reports.extend(self.sensors[sensor_id].finalize())
        return reports


@dataclass
class BatchResult:
    """Columnar outcomes of ``Validator.feed`` and ``run_batch``, one row
    per reading."""

    timestamps: np.ndarray
    raw: np.ndarray
    confidence: np.ndarray
    accepted: np.ndarray
    reconstructed: np.ndarray   # bool
    flagbits: np.ndarray        # uint16, decode with flags_from_bits
    reports: list[FaultReport]
    sensor_ids: Sequence[str]   # each row's sensor

    def outcomes(self) -> list[ValidationOutcome]:
        """Materialize row dataclasses (avoid for very long streams)."""
        return [self.outcome(i) for i in range(len(self.raw))]

    def outcome(self, i: int) -> ValidationOutcome:
        return ValidationOutcome(
            timestamp=float(self.timestamps[i]),
            sensor_id=self.sensor_ids[i],
            raw=float(self.raw[i]),
            confidence=float(self.confidence[i]),
            accepted=float(self.accepted[i]),
            reconstructed=bool(self.reconstructed[i]),
            flags=flags_from_bits(int(self.flagbits[i])),
        )


# readings per _drive block: each sweep goes over the rest of the block, so
# a longer block costs more per faulty reading, a shorter one per clean one
_BLOCK_ROWS = 4096


def _rolling_welford(values: np.ndarray, tail: np.ndarray, width: int, accepted=None) -> np.ndarray:
    """Fresh Welford variance of the window that ends at each new point.

    ``values`` are the new points and ``tail`` the ``width - 1`` points
    before them, so every window is full: the one at i is the last
    ``width - 1`` points of ``tail`` and ``accepted[:i]``, then
    ``values[i]``. ``accepted`` defaults to ``values``.
    """
    k = len(values)
    full = np.concatenate([tail, values if accepted is None else accepted])
    mean = np.zeros(k)
    m2 = np.zeros(k)
    # an inf reading turns its windows' statistics to NaN, silently, as
    # _welford does on Python floats
    with np.errstate(invalid="ignore"):
        for off in range(width):
            x = full[off : off + k] if off < width - 1 else values
            delta = x - mean
            mean += delta / (off + 1)
            m2 += delta * (x - mean)
    return np.maximum(m2, 0.0) / (width - 1)


def run_batch(
    config: PipelineConfig,
    timestamps: np.ndarray,
    values: np.ndarray,
    sensor_ids: Sequence[str] | str = "",
) -> BatchResult:
    """Validate a whole recorded stream: one ``Validator.feed`` of all of
    it, then its ``finalize``, whose reports the result holds."""
    validator = Validator(config)
    res = validator.feed(timestamps, values, sensor_ids)
    res.reports = validator.finalize()
    return res
