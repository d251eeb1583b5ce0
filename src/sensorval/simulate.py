"""Deterministic stream simulation and fault injection.

Profiles produce a noiseless base signal plus white Gaussian noise from
a seeded PCG64 generator, so the same profile always yields the same
stream. Faults are injected into an existing stream and every touched
index is labeled, which gives ground truth for scoring detection
quality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .pipeline import Sample

PROFILE_KINDS = ("constant", "ramp", "sine", "fill_cycle")
FAULT_KINDS = ("noise_burst", "spike", "stuck_at", "drift")


@dataclass(frozen=True)
class SignalProfile:
    """A noiseless base signal plus additive white Gaussian noise.

    The base parameters are shared across kinds:
      constant:   level
      ramp:       level + slope * t
      sine:       level + amplitude * sin(2 pi t / period)
      fill_cycle: sawtooth falling from `level` (empty-bin distance) at
                  `slope` units/s, resetting when it reaches `amplitude`
                  (full-bin distance)
    """

    kind: str
    level: float = 0.0
    slope: float = 0.0
    amplitude: float = 0.0
    period: float = 60.0
    noise_std: float = 0.0
    sample_interval: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.kind == "sine" and not (math.isfinite(self.period) and self.period > 0):
            raise ValueError(f"sine period must be finite and positive, got {self.period}")

    def base(self, t: np.ndarray) -> np.ndarray:
        """Noiseless signal value at each time in ``t``."""
        t = np.asarray(t, dtype=float)
        if self.kind == "constant":
            return np.full_like(t, self.level)
        if self.kind == "ramp":
            return self.level + self.slope * t
        if self.kind == "sine":
            return self.level + self.amplitude * np.sin(2.0 * np.pi * t / self.period)
        if self.kind == "fill_cycle":
            span = self.level - self.amplitude
            if span <= 0 or self.slope <= 0:
                raise ValueError(
                    "fill_cycle needs level > amplitude and a positive slope"
                )
            return self.level - np.mod(self.slope * t, span)
        raise ValueError(f"unknown profile kind: {self.kind!r}")


@dataclass(frozen=True)
class FaultSpec:
    """A fault to inject over [start, start + duration).

    kinds:
      noise_burst: adds N(0, magnitude) noise to each affected index
      spike:       adds magnitude to each affected index
      stuck_at:    freezes every affected index at the value found at
                   ``start``
      drift:       adds a linear ramp reaching magnitude at the last
                   affected index
    """

    kind: str
    start: int
    duration: int
    magnitude: float = 0.0

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r} (choose from {', '.join(FAULT_KINDS)})")
        if self.duration < 0:
            raise ValueError(f"duration must be non-negative, got {self.duration}")


@dataclass(frozen=True)
class LabeledStream:
    """Samples plus a per-index ground-truth fault flag."""

    samples: tuple[Sample, ...]
    labels: tuple[bool, ...]

    def __post_init__(self):
        if len(self.samples) != len(self.labels):
            raise ValueError("samples and labels must have equal length")


def generate(profile: SignalProfile, n: int, sensor_id: str = "sim") -> list[Sample]:
    """Generate ``n`` equally spaced samples of a profile.

    Deterministic: the noise comes from PCG64 seeded with profile.seed.
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    t = np.arange(n, dtype=float) * profile.sample_interval
    values = profile.base(t)
    if profile.noise_std > 0.0:
        rng = np.random.Generator(np.random.PCG64(profile.seed))
        values = values + rng.normal(0.0, profile.noise_std, size=n)
    return [
        Sample(timestamp=float(ti), value=float(vi), sensor_id=sensor_id)
        for ti, vi in zip(t, values)
    ]


def inject(stream: Sequence[Sample], fault: FaultSpec, seed: int = 0) -> LabeledStream:
    """Apply one fault to a stream, labeling exactly the touched indices.

    A zero-duration fault leaves the stream untouched. Raises IndexError
    when the fault window falls outside the stream.
    """
    n = len(stream)
    if fault.duration == 0:
        return LabeledStream(tuple(stream), tuple([False] * n))
    if fault.start < 0 or fault.start + fault.duration > n:
        raise IndexError(
            f"fault window [{fault.start}, {fault.start + fault.duration}) "
            f"outside stream of length {n}"
        )
    lo, hi = fault.start, fault.start + fault.duration
    values = np.array([s.value for s in stream], dtype=float)
    if fault.kind == "noise_burst":
        rng = np.random.Generator(np.random.PCG64(seed))
        values[lo:hi] += rng.normal(0.0, fault.magnitude, size=fault.duration)
    elif fault.kind == "spike":
        values[lo:hi] += fault.magnitude
    elif fault.kind == "stuck_at":
        values[lo:hi] = values[lo]
    elif fault.kind == "drift":
        ramp = np.arange(1, fault.duration + 1, dtype=float) / fault.duration
        values[lo:hi] += fault.magnitude * ramp
    samples = tuple(
        replace(s, value=float(v)) if lo <= i < hi else s
        for i, (s, v) in enumerate(zip(stream, values))
    )
    labels = tuple(lo <= i < hi for i in range(n))
    return LabeledStream(samples, labels)


def inject_all(
    stream: Sequence[Sample], faults: Sequence[FaultSpec], seed: int = 0
) -> LabeledStream:
    """Apply several faults in order, OR-ing their labels.

    Each fault draws from its own seeded generator (seed + index) so the
    result does not depend on how many random draws earlier faults made.
    """
    samples: Sequence[Sample] = tuple(stream)
    labels = np.zeros(len(stream), dtype=bool)
    for i, fault in enumerate(faults):
        out = inject(samples, fault, seed=seed + i)
        samples = out.samples
        labels |= np.asarray(out.labels, dtype=bool)
    return LabeledStream(tuple(samples), tuple(bool(b) for b in labels))
