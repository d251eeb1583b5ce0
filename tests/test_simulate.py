"""Deterministic signal generation and fault injection."""

import math

import numpy as np
import pytest

from sensorval.simulate import (
    FAULT_KINDS,
    FaultSpec,
    LabeledStream,
    SignalProfile,
    generate,
    inject,
    inject_all,
)


def test_constant_zero_noise_is_exact():
    stream = generate(SignalProfile("constant", level=100.0), n=5)
    assert [s.value for s in stream] == [100.0] * 5
    assert [s.timestamp for s in stream] == [0.0, 1.0, 2.0, 3.0, 4.0]


def test_generate_is_seed_deterministic():
    profile = SignalProfile("constant", level=50.0, noise_std=2.0, seed=99)
    a = generate(profile, n=200)
    b = generate(profile, n=200)
    assert a == b
    c = generate(SignalProfile("constant", level=50.0, noise_std=2.0, seed=100), n=200)
    assert a != c


def test_generate_noise_std_statistical_check():
    stream = generate(SignalProfile("constant", noise_std=1.0, seed=7), n=10_000)
    std = np.std([s.value for s in stream], ddof=1)
    assert 0.97 <= std <= 1.03


def test_ramp_and_sine_bases():
    ramp = generate(SignalProfile("ramp", level=10.0, slope=2.0), n=4)
    assert [s.value for s in ramp] == [10.0, 12.0, 14.0, 16.0]
    sine = generate(
        SignalProfile("sine", level=5.0, amplitude=2.0, period=4.0), n=5
    )
    want = [5.0, 7.0, 5.0, 3.0, 5.0]
    assert [s.value for s in sine] == pytest.approx(want, abs=1e-12)


def test_fill_cycle_sawtooth_resets():
    # distance falls from the empty level toward the full level, then the
    # bin is emptied and the distance jumps back up
    profile = SignalProfile("fill_cycle", level=200.0, amplitude=50.0, slope=10.0)
    values = [s.value for s in generate(profile, n=31)]
    assert values[0] == 200.0
    assert min(values) > 50.0 - 1e-9
    assert values[14] == pytest.approx(60.0)
    assert values[15] == pytest.approx(200.0)  # reset after span/slope = 15 s
    assert values[16] == pytest.approx(190.0)


def test_fill_cycle_validates_geometry():
    with pytest.raises(ValueError):
        generate(SignalProfile("fill_cycle", level=10.0, amplitude=50.0, slope=1.0), 5)
    with pytest.raises(ValueError):
        generate(SignalProfile("fill_cycle", level=100.0, amplitude=50.0, slope=0.0), 5)


def test_unknown_fault_kind_names_the_kinds():
    with pytest.raises(ValueError, match="'bogus' \\(choose from noise_burst, spike, stuck_at, drift\\)"):
        FaultSpec("bogus", 0, 1)


def test_unknown_profile_kind_raises():
    with pytest.raises(ValueError):
        generate(SignalProfile("sawtooth"), n=3)


def test_sample_interval_spaces_timestamps():
    stream = generate(SignalProfile("constant", sample_interval=0.5), n=3)
    assert [s.timestamp for s in stream] == [0.0, 0.5, 1.0]


def test_generate_rejects_negative_n():
    with pytest.raises(ValueError):
        generate(SignalProfile("constant"), n=-1)


# fault injection


def _clean(n=120, seed=3):
    return generate(SignalProfile("constant", level=200.0, noise_std=1.0, seed=seed), n)


def test_zero_duration_fault_is_a_no_op():
    stream = _clean()
    out = inject(stream, FaultSpec("spike", start=10, duration=0, magnitude=5.0))
    assert out.samples == tuple(stream)
    assert not any(out.labels)


def test_spike_adds_magnitude_exactly():
    stream = _clean()
    out = inject(stream, FaultSpec("spike", start=40, duration=2, magnitude=16.0))
    assert out.samples[40].value == stream[40].value + 16.0
    assert out.samples[41].value == stream[41].value + 16.0
    assert out.labels[39:43] == (False, True, True, False)


def test_stuck_at_freezes_window():
    stream = _clean()
    out = inject(stream, FaultSpec("stuck_at", start=10, duration=10))
    frozen = stream[10].value
    assert all(s.value == frozen for s in out.samples[10:20])
    assert out.samples[20].value == stream[20].value


def test_drift_ramp_reaches_magnitude():
    stream = _clean()
    out = inject(stream, FaultSpec("drift", start=30, duration=10, magnitude=30.0))
    added = [o.value - s.value for o, s in zip(out.samples, stream)]
    assert added[29] == 0.0
    assert added[30] == pytest.approx(3.0)
    assert added[39] == pytest.approx(30.0)
    assert added[40] == 0.0


def test_half_stream_burst_labels():
    # 120 samples, extra white noise injected after sample 60
    stream = _clean(n=120)
    out = inject(stream, FaultSpec("noise_burst", start=60, duration=60, magnitude=3.0))
    assert all(out.labels[i] == (60 <= i < 120) for i in range(120))
    # untouched half is bit-identical
    assert out.samples[:60] == tuple(stream[:60])


def test_label_soundness_on_random_faults():
    rng = np.random.default_rng(31)
    stream = _clean(n=200)
    for _ in range(20):
        kind = str(rng.choice(FAULT_KINDS))
        start = int(rng.integers(0, 150))
        duration = int(rng.integers(1, 50))
        fault = FaultSpec(kind, start, duration, magnitude=float(rng.uniform(1, 20)))
        out = inject(stream, fault, seed=int(rng.integers(0, 1000)))
        for i, (got, src, lab) in enumerate(zip(out.samples, stream, out.labels)):
            assert lab == (start <= i < start + duration)
            if not lab:
                assert got.value == src.value
            assert got.timestamp == src.timestamp
            assert got.sensor_id == src.sensor_id


def test_inject_is_seed_deterministic():
    stream = _clean()
    fault = FaultSpec("noise_burst", start=10, duration=50, magnitude=5.0)
    assert inject(stream, fault, seed=4) == inject(stream, fault, seed=4)
    assert inject(stream, fault, seed=4) != inject(stream, fault, seed=5)


def test_inject_window_bounds_checked():
    stream = _clean(n=50)
    with pytest.raises(IndexError):
        inject(stream, FaultSpec("spike", start=45, duration=10, magnitude=1.0))
    with pytest.raises(IndexError):
        inject(stream, FaultSpec("spike", start=-1, duration=2, magnitude=1.0))


def test_fault_spec_validation():
    with pytest.raises(ValueError):
        FaultSpec("gremlins", start=0, duration=1)
    with pytest.raises(ValueError):
        FaultSpec("spike", start=0, duration=-1)


def test_inject_all_ors_labels_and_isolates_seeds():
    stream = _clean(n=100)
    spike = FaultSpec("spike", start=10, duration=1, magnitude=9.0)
    burst = FaultSpec("noise_burst", start=50, duration=20, magnitude=4.0)
    both = inject_all(stream, [spike, burst], seed=11)
    assert both.labels[10]
    assert all(both.labels[50:70])
    assert sum(both.labels) == 21
    # the burst draws from seed 11+1 regardless of the spike's presence
    burst_only = inject(stream, burst, seed=12)
    assert both.samples[50:70] == tuple(
        s.__class__(s.timestamp, b.value, s.sensor_id)
        for s, b in zip(stream[50:70], burst_only.samples[50:70])
    )


def test_labeled_stream_length_mismatch_raises():
    stream = _clean(n=3)
    with pytest.raises(ValueError):
        LabeledStream(tuple(stream), (True,))
