"""The crisp features the pipeline hands the fuzzy engine for a reading:
the raw value, its absolute rate of change against the last accepted
reading, and the standard deviation of the validated window."""

import math

import numpy as np
import pytest

from sensorval import pipeline
from sensorval.pipeline import PipelineConfig, Sample, SensorValidator


@pytest.fixture
def rows(monkeypatch):
    """Every (value, roc, std) row the pipeline passes to ``infer_batch``."""
    seen = []
    real = pipeline.infer_batch

    def record(system, points):
        seen.extend(tuple(float(x) for x in row) for row in points)
        return real(system, points)

    monkeypatch.setattr(pipeline, "infer_batch", record)
    return seen


def _run(times, values, **config):
    """Step one validator through a stream and return its outcomes."""
    sv = SensorValidator(PipelineConfig(**config))
    return [sv.step(Sample(float(t), float(v))) for t, v in zip(times, values)]


def test_roc_constant_stream_is_zero(rows):
    _run([0.0, 1.0], [10.0, 10.0])
    assert rows[-1][1] == 0.0


def test_roc_hand_value(rows):
    _run([0.0, 2.0], [0.0, 6.0])
    assert rows[-1][1] == pytest.approx(3.0)


def test_roc_is_absolute(rows):
    _run([0.0, 2.0], [6.0, 0.0])
    assert rows[-1][1] == pytest.approx(3.0)


def test_roc_equal_timestamps_flag_zero_interval(rows):
    outcomes = _run([5.0, 5.0], [1.0, 2.0])
    assert rows[-1][1] == 0.0
    assert "zero_interval" in outcomes[-1].flags


def test_roc_backwards_timestamps_flag_time_regression(rows):
    outcomes = _run([5.0, 4.0], [1.0, 2.0])
    assert len(rows) == 1  # the regressed reading is never inferred
    assert "time_regression" in outcomes[-1].flags


def test_roc_is_taken_against_the_last_accepted_value(rows):
    # a spike is rejected; the next reading's roc is against the estimate
    # that replaced it, not against the spike
    times = np.arange(12.0)
    values = [200.0] * 10 + [400.0, 201.0]
    outcomes = _run(times, values)
    assert outcomes[10].reconstructed
    assert rows[11][1] == pytest.approx(abs(201.0 - outcomes[10].accepted))
    assert rows[11][1] < 2.0


def test_extract_stream_start(rows):
    _run([0.0], [100.0])
    assert rows == [(100.0, 0.0, 0.0)]


def test_extract_constant_full_window(rows):
    _run(range(30), [50.0] * 30)
    assert rows[-1] == (50.0, 0.0, 0.0)


def test_extract_two_sample_hand_values(rows):
    # values [0, 2] at t = [0, 1]: roc 2.0, std sqrt(2)
    _run([0.0, 1.0], [0.0, 2.0])
    distance, roc, std = rows[-1]
    assert distance == 2.0
    assert roc == pytest.approx(2.0)
    assert std == pytest.approx(math.sqrt(2.0))


def _last_row(rows, times, values):
    """The last feature row of a stream whose readings are all accepted
    (they are all in warm-up), so it depends on the raw values alone."""
    _run(times, values, warmup=len(values))
    return rows[-1]


def test_extract_shift_invariance(rows):
    rng = np.random.default_rng(21)
    times = np.arange(40.0)
    values = rng.normal(30.0, 4.0, size=40)
    base = _last_row(rows, times, values)
    shifted = _last_row(rows, times, values + 17.5)
    assert shifted[0] == pytest.approx(base[0] + 17.5)
    assert shifted[1] == pytest.approx(base[1], abs=1e-9)
    assert shifted[2] == pytest.approx(base[2], rel=1e-9)


def test_extract_scale_equivariance(rows):
    rng = np.random.default_rng(22)
    times = np.arange(40.0)
    values = rng.normal(30.0, 4.0, size=40)
    a = 3.25
    base = _last_row(rows, times, values)
    scaled = _last_row(rows, times, values * a)
    assert scaled[0] == pytest.approx(a * base[0])
    assert scaled[1] == pytest.approx(a * base[1], rel=1e-9)
    assert scaled[2] == pytest.approx(a * base[2], rel=1e-9)


def test_extract_features_are_nonnegative_where_defined(rows):
    rng = np.random.default_rng(23)
    times = np.cumsum(rng.uniform(0.5, 2.0, size=60))
    values = rng.normal(0.0, 50.0, size=60)
    _run(times, values, window=10)
    assert len(rows) == 60
    for _, roc, std in rows:
        assert roc >= 0.0
        assert std >= 0.0
