"""Windowed statistics and fault detectors.

Three detectors operate on a sliding window of recent readings:

  * variance: unbiased sample variance against a fixed threshold
  * uncertainty: GUM Type-A standard uncertainty of the window mean,
    u = s / sqrt(n), against a fixed threshold
  * SPE: squared prediction error of a multi-sensor snapshot against a
    PCA subspace fitted on clean calibration data

Window statistics are a fresh Welford pass over the window's contents,
so a non-finite reading affects them only while it is in the window.
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass

import numpy as np


class InsufficientDataError(ValueError):
    """A statistic was requested from fewer samples than it needs."""


class DegenerateDataError(ValueError):
    """Calibration data cannot support the requested model."""


class DimensionMismatchError(ValueError):
    """A snapshot's dimension does not match the fitted model."""


def _welford(values) -> tuple[int, float, float]:
    """One-pass mean and M2 (sum of squared deviations) over values."""
    n = 0
    mean = 0.0
    m2 = 0.0
    for x in values:
        n += 1
        delta = x - mean
        mean += delta / n
        m2 += delta * (x - mean)
    return n, mean, m2


def _window_var(values) -> tuple[float, int]:
    """Unbiased variance of a window and its length; NaN below 2 values."""
    n, _, m2 = _welford(values)
    return (max(m2, 0.0) / (n - 1) if n >= 2 else math.nan), n


class Window:
    """Fixed-capacity FIFO of readings with mean and variance.

    Pushing beyond capacity evicts the oldest value. The statistics are
    a fresh Welford pass over the contents, the same pass the pipeline
    takes over its windows.
    """

    def __init__(self, capacity: int):
        if capacity < 2:
            raise ValueError(f"window capacity must be at least 2, got {capacity}")
        self.capacity = capacity
        self._buf: deque[float] = deque(maxlen=capacity)

    def __len__(self) -> int:
        return len(self._buf)

    def values(self) -> list[float]:
        """Window contents, oldest first."""
        return list(self._buf)

    def push(self, x: float) -> None:
        """Append a reading, evicting the oldest when full."""
        self._buf.append(float(x))

    def replace_last(self, x: float) -> None:
        """Swap the most recent reading for a corrected value."""
        if not self._buf:
            raise InsufficientDataError("cannot replace in an empty window")
        self._buf[-1] = float(x)

    def mean(self) -> float:
        if not self._buf:
            raise InsufficientDataError("mean needs at least 1 sample")
        return _welford(self._buf)[1]

    def variance(self) -> float:
        """Unbiased sample variance of the window contents."""
        var, n = _window_var(self._buf)
        if n < 2:
            raise InsufficientDataError(f"variance needs at least 2 samples, have {n}")
        return var

    def std(self) -> float:
        return math.sqrt(self.variance())


def uncertainty_index(window: Window) -> float:
    """GUM Type-A standard uncertainty of the window mean: s / sqrt(n)."""
    n = len(window)
    if n < 2:
        raise InsufficientDataError(f"uncertainty needs at least 2 samples, have {n}")
    return math.sqrt(window.variance() / n)


@dataclass(frozen=True)
class PcaModel:
    """A PCA subspace fitted on clean calibration data.

    ``components`` has orthonormal rows (principal directions, most
    variance first); ``spe_threshold`` is the calibration percentile used
    to judge new snapshots.
    """

    mean: np.ndarray
    components: np.ndarray
    spe_threshold: float

    @property
    def k(self) -> int:
        return self.components.shape[0]

    @property
    def dim(self) -> int:
        return self.components.shape[1]


def pca_fit(calibration: np.ndarray, k: int, threshold_percentile: float = 99.0) -> PcaModel:
    """Fit a k-dimensional PCA subspace to calibration snapshots.

    ``calibration`` is (n, m) with one multi-sensor snapshot per row.
    Requires n > m, m >= 2, 1 <= k < m, and no constant column. Component
    signs are fixed so each row's largest-magnitude entry is positive,
    which makes the fit deterministic. The SPE threshold is the given
    percentile of the calibration SPE distribution.
    """
    X = np.asarray(calibration, dtype=float)
    if X.ndim != 2:
        raise DimensionMismatchError(f"calibration must be 2-D, got shape {X.shape}")
    n, m = X.shape
    if m < 2:
        raise DegenerateDataError(f"need at least 2 sensors, got {m}")
    if n <= m:
        raise InsufficientDataError(f"need more snapshots than sensors ({n} <= {m})")
    if not 1 <= k < m:
        raise ValueError(f"k must satisfy 1 <= k < {m}, got {k}")
    if np.any(np.ptp(X, axis=0) == 0.0):
        cols = np.flatnonzero(np.ptp(X, axis=0) == 0.0)
        raise DegenerateDataError(f"constant calibration column(s): {cols.tolist()}")

    mean = X.mean(axis=0)
    cov = np.cov(X, rowvar=False)
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1][:k]
    components = eigvecs[:, order].T.copy()
    for row in components:
        if row[np.argmax(np.abs(row))] < 0:
            row *= -1.0

    model = PcaModel(mean=mean, components=components, spe_threshold=0.0)
    calib_spe = spe_batch(model, X)
    threshold = float(np.percentile(calib_spe, threshold_percentile))
    return PcaModel(mean=mean, components=components, spe_threshold=threshold)


def spe(model: PcaModel, x: np.ndarray) -> float:
    """Squared prediction error of one snapshot against the subspace."""
    x = np.asarray(x, dtype=float)
    if x.shape != (model.dim,):
        raise DimensionMismatchError(
            f"snapshot has shape {x.shape}, model expects ({model.dim},)"
        )
    r = x - model.mean
    resid = r - model.components.T @ (model.components @ r)
    return float(resid @ resid)


def spe_batch(model: PcaModel, X: np.ndarray) -> np.ndarray:
    """SPE of each row of an (n, m) snapshot matrix."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != model.dim:
        raise DimensionMismatchError(
            f"snapshots have shape {X.shape}, model expects (n, {model.dim})"
        )
    R = X - model.mean
    resid = R - (R @ model.components.T) @ model.components
    return np.einsum("ij,ij->i", resid, resid)


def save_pca_model(model: PcaModel, path) -> None:
    """Persist a model as JSON; floats survive the round trip exactly."""
    doc = {
        "mean": model.mean.tolist(),
        "components": model.components.tolist(),
        "k": model.k,
        "spe_threshold": model.spe_threshold,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def load_pca_model(path) -> PcaModel:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    model = PcaModel(
        mean=np.asarray(doc["mean"], dtype=float),
        components=np.asarray(doc["components"], dtype=float),
        spe_threshold=float(doc["spe_threshold"]),
    )
    if model.components.ndim != 2 or model.mean.shape != (model.dim,):
        raise DimensionMismatchError("inconsistent model file")
    if "k" in doc and int(doc["k"]) != model.k:
        raise DimensionMismatchError("model file k does not match components")
    return model


def fit_from_csv(path, k: int, threshold_percentile: float = 99.0) -> PcaModel:
    """Fit a model from a calibration CSV (one snapshot per row).

    A single header line of sensor names is allowed and skipped.
    """
    rows: list[list[float]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            parts = [p.strip() for p in line.split(",")]
            try:
                rows.append([float(p) for p in parts])
            except ValueError:
                if lineno == 1:
                    continue  # header
                raise ValueError(f"non-numeric calibration row at line {lineno}")
    if not rows:
        raise InsufficientDataError("calibration file is empty")
    return pca_fit(np.asarray(rows), k, threshold_percentile)
