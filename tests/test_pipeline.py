"""Validation loop behavior: scoring, reconstruction, reports, batch path."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from sensorval import default_system, fisfile, pipeline
from sensorval.detectors import _welford, pca_fit
from sensorval.fuzzy import FuzzySystem, LinguisticVariable, MembershipFunction, Rule
from sensorval.pipeline import (
    FLAG_BITS,
    ConfigError,
    FaultTracker,
    PipelineConfig,
    Sample,
    SensorValidator,
    Validator,
    _rolling_welford,
    run_batch,
)
from sensorval.simulate import FaultSpec, SignalProfile, generate, inject, inject_all

from oracles import scan_reports


def _stream(n=120, level=200.0, noise=1.0, seed=101, sensor="s1"):
    return generate(
        SignalProfile("constant", level=level, noise_std=noise, seed=seed), n, sensor
    )


def _run(samples, config=None, sensor="s1"):
    v = SensorValidator(config or PipelineConfig(), sensor)
    outs = [v.step(s) for s in samples]
    return outs, v.finalize()


# clean-stream behavior


def test_zero_noise_constant_is_pure_pass_through():
    outs, reports = _run(_stream(noise=0.0))
    assert all(not o.reconstructed for o in outs)
    assert all(o.accepted == o.raw for o in outs)
    assert reports == []


def test_noisy_clean_stream_yields_no_reports():
    outs, reports = _run(_stream())
    assert reports == []
    warm = PipelineConfig().warmup
    accepted = sum(not o.reconstructed for o in outs[warm:])
    assert accepted >= 0.95 * (len(outs) - warm)


def test_outcomes_are_deterministic():
    a, _ = _run(_stream())
    b, _ = _run(_stream())
    assert a == b


# outcome invariants


def test_outcome_invariants_on_spiky_stream():
    stream = _stream(n=400, seed=7)
    faulty = inject(stream, FaultSpec("noise_burst", 150, 60, 100.0), seed=42)
    cfg = PipelineConfig()
    outs, _ = _run(faulty.samples, cfg)
    saw_reconstruction = False
    for sample, o in zip(faulty.samples, outs):
        assert o.raw == sample.value
        assert 0.0 <= o.confidence <= 1.0
        if o.reconstructed:
            saw_reconstruction = True
            assert o.confidence < cfg.accept_threshold
        else:
            assert o.accepted == o.raw
    assert saw_reconstruction


def test_reconstruction_stays_in_accepted_envelope():
    stream = _stream(n=400, seed=8)
    faulty = inject(stream, FaultSpec("noise_burst", 150, 60, 100.0), seed=43)
    outs, _ = _run(faulty.samples)
    lo, hi = math.inf, -math.inf
    for o in outs:
        if o.reconstructed:
            assert lo - 1e-12 <= o.accepted <= hi + 1e-12
        lo = min(lo, o.accepted)
        hi = max(hi, o.accepted)


def test_warmup_suppresses_reconstruction():
    cfg = PipelineConfig(warmup=5)
    outs, _ = _run(_stream(), cfg)
    for o in outs[:5]:
        assert "warmup" in o.flags
        assert not o.reconstructed
        assert o.accepted == o.raw
    assert all("warmup" not in o.flags for o in outs[5:])


# spike handling (regression values frozen from a seed-fixed run)


def test_spike_is_rejected_and_reconstructed():
    stream = _stream()
    faulty = inject(stream, FaultSpec("spike", 80, 1, 16.0))
    outs, reports = _run(faulty.samples)
    spike = outs[80]
    assert spike.reconstructed
    assert spike.confidence == pytest.approx(0.11653886203424144, abs=1e-9)
    # accepted value falls back to the pre-spike estimate
    assert spike.accepted == pytest.approx(199.2471643899927, abs=1e-6)
    assert abs(spike.accepted - 200.0) < 2.0
    assert not outs[79].reconstructed
    assert not outs[81].reconstructed
    assert reports == []  # single sample, far below report_after


def test_estimate_recovers_after_spike():
    stream = _stream()
    faulty = inject(stream, FaultSpec("spike", 80, 1, 16.0))
    outs, _ = _run(faulty.samples)
    tail = outs[85:]
    assert all(not o.reconstructed for o in tail)


# timestamp anomalies


def test_time_regression_is_rejected_and_flagged():
    stream = _stream(n=40)
    samples = list(stream)
    bad = dataclasses.replace(samples[20], timestamp=samples[18].timestamp)
    samples[20] = bad
    v = SensorValidator(PipelineConfig(), "s1")
    outs = [v.step(s) for s in samples]
    o = outs[20]
    assert "time_regression" in o.flags
    assert o.confidence == 0.0
    assert o.reconstructed
    assert o.accepted == pytest.approx(outs[19].accepted, abs=5.0)
    # the rejected sample does not perturb downstream state
    assert not outs[21].reconstructed


def test_zero_interval_is_flagged_not_fatal():
    stream = _stream(n=40)
    samples = list(stream)
    samples[20] = dataclasses.replace(samples[20], timestamp=samples[19].timestamp)
    outs, _ = _run(samples)
    assert "zero_interval" in outs[20].flags
    assert outs[20].confidence > 0.0


def test_out_of_range_reading_is_flagged():
    stream = list(_stream(n=40))
    stream[30] = dataclasses.replace(stream[30], value=900.0)
    outs, _ = _run(stream)
    assert "out_of_range" in outs[30].flags


def test_no_rule_fired_maps_to_zero_confidence():
    # a rulebase with a hole: the only rule needs value near 0
    tri = MembershipFunction.triangular
    hole = FuzzySystem(
        name="hole",
        inputs=(
            LinguisticVariable("value", 0.0, 10.0, (("low", tri(0.0, 1.0, 2.0)),)),
            LinguisticVariable("roc", 0.0, 10.0, (("any", tri(-10.0, 0.0, 20.0)),)),
            LinguisticVariable("std", 0.0, 10.0, (("any", tri(-10.0, 0.0, 20.0)),)),
        ),
        outputs=(
            LinguisticVariable("conf", 0.0, 1.0, (("high", tri(0.5, 1.0, 1.5)),)),
        ),
        rules=(Rule((1, 1, 1), (1,), 1.0, "and"),),
    )
    cfg = PipelineConfig(system=hole, warmup=0)
    v = SensorValidator(cfg, "s")
    out = v.step(Sample(0.0, 8.0))  # far from the lone rule's support
    assert "no_rule_fired" in out.flags
    assert out.confidence == 0.0


# re-anchoring after a sustained level shift


def _shifted_stream(n=80, jump_at=50, level=200.0, to=300.0):
    base = generate(SignalProfile("constant", level=level), n)
    return [
        dataclasses.replace(s, value=to) if i >= jump_at else s
        for i, s in enumerate(base)
    ]


def test_reanchor_escapes_level_shift():
    cfg = PipelineConfig(reanchor_after=10)
    outs, _ = _run(_shifted_stream(), cfg)
    assert all(o.reconstructed for o in outs[50:60])
    assert not outs[60].reconstructed
    assert outs[60].accepted == 300.0
    assert all(not o.reconstructed for o in outs[60:])


def test_reanchor_disabled_rejects_forever():
    cfg = PipelineConfig(reanchor_after=0)
    outs, _ = _run(_shifted_stream(), cfg)
    assert all(o.reconstructed for o in outs[50:])
    assert all(o.accepted == outs[49].accepted for o in outs[50:])


# fault reports


def test_sustained_burst_produces_a_report():
    stream = _stream(n=400, seed=104)
    faulty = inject(stream, FaultSpec("noise_burst", 150, 60, 100.0), seed=9)
    cfg = PipelineConfig()
    outs, reports = _run(faulty.samples, cfg)
    assert len(reports) >= 1
    r = reports[0]
    assert r.sensor_id == "s1"
    assert r.count >= cfg.report_after
    assert 150.0 <= r.start <= r.end <= 400.0
    # saturated episodes repeat one confidence; the mean can sit 1 ulp off
    assert r.min_confidence <= r.mean_confidence + 1e-12
    assert r.mean_confidence < cfg.fault_threshold
    assert r.value_min <= r.value_mean <= r.value_max
    assert r.dominant_flags  # sustained burst trips the detectors too


def test_exactly_report_after_low_samples_yield_one_report():
    tracker = FaultTracker("s", fault_threshold=0.3, report_after=10)
    reports = []
    for i in range(10):
        r = tracker.observe(float(i), 5.0, 0.1, 0)
        assert r is None
    r = tracker.observe(10.0, 5.0, 0.9, 0)
    assert r is not None
    assert r.count == 10
    assert r.start == 0.0
    assert r.end == 9.0
    assert tracker.close() is None


def test_open_episode_flushes_at_finalize():
    tracker = FaultTracker("s", fault_threshold=0.3, report_after=10)
    for i in range(12):
        assert tracker.observe(float(i), 1.0, 0.05, 0) is None
    r = tracker.close()
    assert r is not None and r.count == 12


def test_short_episode_is_dropped():
    tracker = FaultTracker("s", fault_threshold=0.3, report_after=10)
    for i in range(3):
        tracker.observe(float(i), 1.0, 0.05, 0)
    assert tracker.close() is None


def test_tracker_matches_run_length_scanner():
    rng = np.random.default_rng(77)
    for _ in range(200):
        n = int(rng.integers(1, 120))
        confs = rng.uniform(0.0, 1.0, size=n)
        threshold = float(rng.uniform(0.1, 0.9))
        after = int(rng.integers(1, 12))
        tracker = FaultTracker("s", threshold, after)
        got = []
        for i, c in enumerate(confs):
            r = tracker.observe(float(i), 0.0, float(c), 0)
            if r:
                got.append(r)
        r = tracker.close()
        if r:
            got.append(r)
        want = scan_reports(confs, threshold, after)
        assert [(g.start, g.count) for g in got] == [(float(s), l) for s, l in want]


# batch path


def _assert_batch_matches_scalar(samples, config):
    t = np.array([s.timestamp for s in samples])
    v = np.array([s.value for s in samples])
    batch = run_batch(config, t, v, "s1")
    scalar_outs, scalar_reports = _run(samples, config)
    assert len(batch.outcomes()) == len(scalar_outs)
    for got, want in zip(batch.outcomes(), scalar_outs):
        assert got.reconstructed == want.reconstructed
        assert got.flags == want.flags
        assert got.confidence == want.confidence
        assert got.accepted == want.accepted
    assert len(batch.reports) == len(scalar_reports)
    for got, want in zip(batch.reports, scalar_reports):
        assert got.sensor_id == want.sensor_id
        assert got.start == want.start
        assert got.end == want.end
        assert got.count == want.count
        assert got.dominant_flags == want.dominant_flags
        assert got.min_confidence == want.min_confidence
        assert got.mean_confidence == want.mean_confidence
        assert got.value_min == want.value_min
        assert got.value_max == want.value_max
        assert got.value_mean == want.value_mean
    return batch


def test_run_batch_matches_scalar_on_fault_shapes():
    for seed, fault in [
        (201, FaultSpec("spike", 80, 1, 18.0)),
        (202, FaultSpec("noise_burst", 150, 60, 100.0)),
        (203, FaultSpec("stuck_at", 100, 80)),
        (204, FaultSpec("drift", 100, 200, 30.0)),
    ]:
        stream = _stream(n=400, seed=seed)
        faulty = inject(stream, fault, seed=seed)
        _assert_batch_matches_scalar(faulty.samples, PipelineConfig())


def test_run_batch_matches_scalar_across_inference_tiles():
    # the batch path judges 4096-row blocks after warm-up; the first spike
    # falls in the third block after 1103 accepted rows, so one commit
    # spans several inference tiles and a long EWMA run
    stream = _stream(n=10_000, seed=206)
    faulty = inject_all(
        stream,
        [
            FaultSpec("spike", 9300, 1, 18.0),
            FaultSpec("spike", 9500, 3, -25.0),
            FaultSpec("noise_burst", 9700, 40, 100.0),
        ],
        seed=206,
    )
    batch = run_batch(
        PipelineConfig(),
        np.array([x.timestamp for x in faulty.samples]),
        np.array([x.value for x in faulty.samples]),
    )
    assert not batch.reconstructed[:9300].any()
    assert batch.reconstructed[9300]
    assert batch.reconstructed.sum() >= 5
    _assert_batch_matches_scalar(faulty.samples, PipelineConfig())


def test_run_batch_infers_each_reading_about_once(monkeypatch):
    # a rejection re-infers only the next window - 1 rows, so 2% spikes
    # and a lockout that ends in a reanchor cost well under 2.5 inferred
    # rows per reading (restarting the block after each one cost over 4)
    rng = np.random.default_rng(208)
    n = 5000
    values = 200.0 + rng.normal(0.0, 1.0, n)
    spikes = rng.choice(np.arange(100, 2900), size=n // 50, replace=False)
    values[spikes] += rng.choice([-1.0, 1.0], spikes.size) * rng.uniform(15.0, 30.0, spikes.size)
    values[3000:] += 80.0  # a level shift: a lockout, then a reanchor
    samples = [Sample(float(i), float(x), "s1") for i, x in enumerate(values)]

    rows = []
    real = pipeline.infer_batch

    def counting(system, points):
        rows.append(len(points))
        return real(system, points)

    monkeypatch.setattr(pipeline, "infer_batch", counting)
    batch = run_batch(PipelineConfig(), np.arange(float(n)), values, "s1")
    monkeypatch.setattr(pipeline, "infer_batch", real)
    assert sum(rows) <= 2.5 * n
    reanchor = PipelineConfig().reanchor_after
    assert batch.reconstructed[3000 : 3000 + reanchor].all()
    assert not batch.reconstructed[3000 + reanchor + 1 :].any()
    _assert_batch_matches_scalar(samples, PipelineConfig())


def test_run_batch_sweeps_a_faulty_block_in_few_inference_calls(monkeypatch):
    # the stream above: a block is swept to the fixed point of its accept
    # mask in one inference call per sweep, not one call per rejection
    # (re-judging the rows after each rejection made 239 calls)
    rng = np.random.default_rng(208)
    n = 5000
    values = 200.0 + rng.normal(0.0, 1.0, n)
    spikes = rng.choice(np.arange(100, 2900), size=n // 50, replace=False)
    values[spikes] += rng.choice([-1.0, 1.0], spikes.size) * rng.uniform(15.0, 30.0, spikes.size)
    values[3000:] += 80.0
    calls = []
    real = pipeline.infer_batch
    monkeypatch.setattr(pipeline, "infer_batch", lambda system, points: calls.append(1) or real(system, points))
    run_batch(PipelineConfig(), np.arange(float(n)), values, "s1")
    assert len(calls) <= 60


def _tiny_block_cases():
    """(config, values) pairs whose faults meet block edges when blocks are
    a few rows long."""
    rng = np.random.default_rng(211)
    n = 1500
    base = 200.0 + rng.normal(0.0, 1.0, n)
    spiky = base.copy()
    spikes = rng.choice(np.arange(50, n), size=n // 50, replace=False)
    spiky[spikes] += rng.choice([-1.0, 1.0], spikes.size) * rng.uniform(15.0, 30.0, spikes.size)
    burst = base.copy()
    burst[600:660] += rng.normal(0.0, 25.0, 60)
    shifted = base.copy()
    shifted[700:] += 80.0   # a lockout from 700, then a reanchor at 800
    shifted[805] += 40.0    # a spike while the validated tail refills
    # out-of-range readings from the reanchor on: each is rejected while
    # there is no estimate, so a block starts with none
    restart = shifted.copy()
    restart[800:900] = 900.0 + rng.normal(0.0, 30.0, 100)
    return {
        "spikes": (PipelineConfig(), spiky),
        "noise_burst": (PipelineConfig(), burst),
        "reanchor": (PipelineConfig(), shifted),
        "no_reanchor": (PipelineConfig(reanchor_after=0), shifted),
        "no_estimate": (PipelineConfig(accept_threshold=0.55), restart),
    }


@pytest.mark.parametrize("block_rows", [1, 3, 20, 97])
@pytest.mark.parametrize("case", list(_tiny_block_cases()))
def test_tiny_blocks_equal_step(monkeypatch, case, block_rows):
    # block edges land inside a lockout, on a reanchor and just after a
    # rejection; run_batch and feed in pieces still give what step gives
    cfg, values = _tiny_block_cases()[case]
    monkeypatch.setattr(pipeline, "_BLOCK_ROWS", block_rows)
    starts = []
    real = SensorValidator._block
    monkeypatch.setattr(
        SensorValidator, "_block", lambda sv, *args: starts.append(sv.est is None) or real(sv, *args)
    )
    t = np.arange(float(values.size))
    stepped = Validator(cfg)
    want = [stepped.step(Sample(x, y, "s1")) for x, y in zip(t.tolist(), values.tolist())]
    reports = stepped.finalize()
    whole = run_batch(cfg, t, values, "s1")
    assert whole.outcomes() == want
    assert whole.reports == reports
    fed = Validator(cfg)
    cuts = [0, 7, 250, 701, 800, 1013, values.size]
    pieces = [fed.feed(t[a:e], values[a:e], "s1") for a, e in zip(cuts, cuts[1:])]
    assert [o for piece in pieces for o in piece.outcomes()] == want
    assert fed.finalize() == reports
    assert any(o.reconstructed for o in want)
    assert any(starts) == (case == "no_estimate")


def test_run_batch_matches_scalar_after_an_inf_reading():
    # an inf reading sits in the validated window of the next 19 rows; the
    # two drivers must judge those rows from the same window statistics
    values = 200.0 + np.random.default_rng(0).normal(0.0, 1.0, 5000)
    values[2000] = math.inf
    samples = [Sample(float(i), float(x), "s1") for i, x in enumerate(values)]
    _assert_batch_matches_scalar(samples, PipelineConfig())


def test_run_batch_is_silent_on_an_inf_reading():
    # the inf's windows get NaN statistics without a numpy RuntimeWarning
    values = 200.0 + np.random.default_rng(0).normal(0.0, 1.0, 5000)
    values[2000] = math.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        run_batch(PipelineConfig(), np.arange(5000.0), values)


def _hard_stream(n=6000, seed=209):
    """A spike, a noise burst, a long +70 step and a stuck run."""
    rng = np.random.default_rng(seed)
    values = 200.0 + rng.normal(0.0, 1.0, n)
    values[1000] += 40.0
    values[2000:2060] += rng.normal(0.0, 25.0, 60)
    values[3000:4500] += 70.0
    values[5000:5100] = values[4999]
    return [Sample(float(i), float(x), "s1") for i, x in enumerate(values)]


@pytest.mark.parametrize(
    "window, warmup, reanchor_after",
    [(2, 0, 3), (5, 0, 10), (20, 30, 100), (50, 3, 40), (3, 1, 0), (20, 5, 1)],
)
def test_run_batch_matches_scalar_with_other_windows(window, warmup, reanchor_after):
    # the row driver hands a sensor to blocks once its validated tail is
    # full, after warm-up and after each reanchor, whatever the window
    cfg = PipelineConfig(window=window, warmup=warmup, reanchor_after=reanchor_after)
    batch = _assert_batch_matches_scalar(_hard_stream(), cfg)
    assert batch.reconstructed.any()


def test_inf_thresholds_set_no_detector_trips():
    trips = FLAG_BITS["variance_trip"] | FLAG_BITS["uncertainty_trip"]
    samples = _hard_stream()
    t = np.array([s.timestamp for s in samples])
    v = np.array([s.value for s in samples])
    assert (run_batch(PipelineConfig(), t, v).flagbits & trips).any()
    cfg = PipelineConfig(variance_threshold=math.inf, uncertainty_threshold=math.inf)
    # step's flags equal run_batch's row by row, so neither driver trips
    batch = _assert_batch_matches_scalar(samples, cfg)
    assert not (batch.flagbits & trips).any()


def test_run_batch_matches_scalar_with_time_anomalies():
    samples = list(_stream(n=60, seed=205))
    samples[20] = dataclasses.replace(samples[20], timestamp=samples[18].timestamp)
    samples[40] = dataclasses.replace(samples[40], timestamp=samples[39].timestamp)
    _assert_batch_matches_scalar(samples, PipelineConfig())


@pytest.mark.parametrize("k", [1, 2, 19, 20, 60])
@pytest.mark.parametrize("with_inf", [False, True])
def test_rolling_welford_equals_welford_per_window(k, with_inf):
    # run_batch's blocks start with a full tail of width - 1 points
    rng = np.random.default_rng(k)
    for width in (2, 5, 20):
        tail = 200.0 + rng.normal(0.0, 1.0, width - 1)
        values = 200.0 + rng.normal(0.0, 1.0, k)
        if with_inf:
            values[k // 2] = math.inf
        var = _rolling_welford(values, tail, width)
        full = np.concatenate([tail, values]).tolist()
        want = []
        for i in range(k):
            n, _, m2 = _welford(full[i : i + width])
            want.append(max(m2, 0.0) / (n - 1))
        assert np.array_equal(var, want, equal_nan=True), (width, k)


def test_run_batch_empty_stream():
    batch = run_batch(PipelineConfig(), np.array([]), np.array([]))
    assert batch.outcomes() == []
    assert batch.reports == []


# configuration validation

_RNG = np.random.default_rng(2)
_MODEL_2D = pca_fit(np.outer(_RNG.normal(0, 5, 30), [1.0, 0.8]) + _RNG.normal(0, 1, (30, 2)), 1)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"accept_threshold": 0.2, "fault_threshold": 0.3},
        {"accept_threshold": 1.0},
        {"fault_threshold": 0.0},
        {"reconstruction_alpha": 0.0},
        {"reconstruction_alpha": 1.5},
        {"report_after": 0},
        {"warmup": -1},
        {"window": 1},
        {"reanchor_after": -5},
        {"variance_threshold": -1.0},
        {"spe_fusion": ("a", "b")},
        {"spe_fusion": ("a", "a"), "spe_model": _MODEL_2D},
    ],
)
def test_config_rejects_bad_settings(kwargs):
    with pytest.raises(ConfigError):
        PipelineConfig(**kwargs)


def test_config_replace_checks_the_new_settings():
    with pytest.raises(ConfigError):
        dataclasses.replace(PipelineConfig(), window=1)


def test_config_holds_the_shipped_rulebase_by_default():
    assert PipelineConfig().system == default_system()


def test_sensors_share_the_config_system_and_check_nothing(monkeypatch):
    cfg = PipelineConfig()
    calls = []
    monkeypatch.setattr(fisfile, "validate_fis", lambda system: calls.append(system) or [])
    v = Validator(cfg)
    t = np.arange(60.0)
    v.feed(t, 200.0 + np.sin(t), ["a", "b", "c"] * 20)
    v.finalize()
    assert calls == []
    assert list(v.sensors) == ["a", "b", "c"]
    assert all(v.sensors[s].system is cfg.system for s in v.sensors)


def test_config_rejects_wrong_arity_system():
    bad = FuzzySystem(
        name="two",
        inputs=(
            LinguisticVariable(
                "a", 0.0, 1.0, (("t", MembershipFunction.gaussian(0.2, 0.5)),)
            ),
        )
        * 2,
        outputs=(
            LinguisticVariable(
                "o", 0.0, 1.0, (("t", MembershipFunction.gaussian(0.2, 0.5)),)
            ),
        ),
        rules=(Rule((1, 1), (1,), 1.0, "and"),),
    )
    with pytest.raises(ConfigError):
        PipelineConfig(system=bad)


# multi-sensor dispatch and SPE fusion


def test_sensors_are_isolated():
    clean = _stream(n=100, seed=301, sensor="a")
    spiky = inject(
        _stream(n=100, seed=302, sensor="b"), FaultSpec("spike", 50, 1, 20.0)
    ).samples
    interleaved = [s for pair in zip(clean, spiky) for s in pair]
    v = Validator(PipelineConfig())
    outs = v.run(interleaved)
    solo, _ = _run(clean, sensor="a")
    from_mixed = [o for o in outs if o.sensor_id == "a"]
    assert from_mixed == solo


def test_spe_fusion_sets_flag_without_touching_confidence():
    rng = np.random.default_rng(44)
    level = rng.normal(100.0, 10.0, size=300)
    calib = np.column_stack(
        [level + rng.normal(0, 0.5, 300), 0.8 * level + rng.normal(0, 0.5, 300)]
    )
    model = pca_fit(calib, 1)

    def _mk_samples():
        out = []
        lvl = 100.0
        for i in range(60):
            a = lvl
            b = 0.8 * lvl if i < 30 else 0.8 * lvl + 40.0  # break correlation
            out.append(Sample(float(i), a, "a"))
            out.append(Sample(float(i), b, "b"))
        return out

    fused = Validator(
        PipelineConfig(spe_model=model, spe_fusion=("a", "b"))
    )
    plain = Validator(PipelineConfig())
    fused_outs = fused.run(_mk_samples())
    plain_outs = plain.run(_mk_samples())
    assert any("spe_trip" in o.flags for o in fused_outs)
    early = [o for o in fused_outs if o.timestamp < 30.0]
    assert all("spe_trip" not in o.flags for o in early)
    # parallel evidence only: confidence identical with and without the model
    assert [o.confidence for o in fused_outs] == [o.confidence for o in plain_outs]


def test_run_batch_matches_validator_step_on_a_fused_fleet():
    # three sensors in an irregular order: a and b fused by a PCA model, c
    # first seen at reading 2000; a burst on a trips the SPE check, and
    # one reading of the stream has a regressed timestamp
    rng = np.random.default_rng(23)
    level = rng.normal(100.0, 10.0, 300)
    calibration = np.column_stack(
        [level + rng.normal(0.0, 0.5, 300), 0.8 * level + rng.normal(0.0, 0.5, 300)]
    )
    cfg = PipelineConfig(spe_model=pca_fit(calibration, 1), spe_fusion=("a", "b"))
    n = 9000
    sids = rng.choice(["a", "b", "c"], size=n, p=[0.4, 0.35, 0.25])
    sids[:2000][sids[:2000] == "c"] = "a"
    t = np.cumsum(rng.uniform(0.1, 1.0, n))
    t[5000] = t[4990]
    v = np.empty(n)
    for s, lvl, noise in (("a", 100.0, 0.5), ("b", 80.0, 0.5), ("c", 200.0, 1.0)):
        v[sids == s] = lvl + rng.normal(0.0, noise, int((sids == s).sum()))
    burst = np.flatnonzero(sids == "a")[1500:1560]
    v[burst] += 40.0 + rng.normal(0.0, 20.0, burst.size)
    sids = sids.tolist()

    res = run_batch(cfg, t, v, sids)
    validator = Validator(cfg)
    want = [validator.step(Sample(float(x), float(y), s)) for x, y, s in zip(t, v, sids)]
    assert res.outcomes() == want
    assert res.reports == validator.finalize()
    assert sids.index("c") == 2000
    assert sum("time_regression" in o.flags for o in want) == 1
    assert any("spe_trip" in r.dominant_flags for r in res.reports if r.sensor_id == "a")


def test_feeding_a_stream_in_pieces_equals_one_run_batch(monkeypatch):
    # one Validator fed the pieces of a stream, cut anywhere, ends where a
    # single run_batch call does: 1-3 sensors, a and b fused by a PCA model
    # when drawn, spikes, a level shift that forces reanchors, duplicate,
    # regressed and NaN timestamps with cuts drawn next to them, empty
    # pieces, and blocks of any length
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    rng = np.random.default_rng(29)
    level = rng.normal(100.0, 10.0, 300)
    model = pca_fit(
        np.column_stack([level + rng.normal(0.0, 0.5, 300), 0.8 * level + rng.normal(0.0, 0.5, 300)]), 1
    )

    @hypothesis.settings(max_examples=80, deadline=None)
    # a NaN timestamp ends the regression scan for the rest of a sensor's
    # readings, also past a cut
    @hypothesis.example(
        seed=0, n=100, sensors=1, fused=False, window=5, warmup=2, reanchor_after=30,
        anomalies=[(0.3, "nan"), (0.8, "regressed")], cuts=[0.5], block_rows=4096,
    )
    @hypothesis.given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(0, 400),
        sensors=st.integers(1, 3),
        fused=st.booleans(),
        window=st.integers(2, 8),
        warmup=st.integers(0, 6),
        reanchor_after=st.sampled_from([0, 4, 30]),
        anomalies=st.lists(
            st.tuples(st.floats(0.0, 1.0), st.sampled_from(["duplicate", "regressed", "nan"])), max_size=4
        ),
        cuts=st.lists(st.floats(0.0, 1.0), max_size=6),
        block_rows=st.integers(1, 120),
    )
    def check(seed, n, sensors, fused, window, warmup, reanchor_after, anomalies, cuts, block_rows):
        fused = fused and sensors >= 2
        cfg = PipelineConfig(
            window=window, warmup=warmup, reanchor_after=reanchor_after, report_after=3,
            spe_model=model if fused else None, spe_fusion=("a", "b") if fused else (),
        )
        r = np.random.default_rng(seed)
        sids = r.choice(["a", "b", "c"][:sensors], size=n).tolist()
        levels = {"a": 100.0, "b": 80.0, "c": 200.0}
        v = np.array([levels[s] for s in sids]) + r.normal(0.0, 1.0, n)
        v[r.random(n) < 0.05] += 60.0
        v[int(n * r.random()):] += 70.0 * (r.random() < 0.5)
        t = np.cumsum(r.uniform(0.1, 1.0, n))
        at = []
        for where, kind in anomalies:
            k = int(where * (n - 1))
            if k > 0:
                t[k] = {"duplicate": t[k - 1], "regressed": t[k - 1] - 5.0, "nan": math.nan}[kind]
                at += [k, k + 1]
        bounds = sorted(at + [int(c * n) for c in cuts])

        monkeypatch.setattr(pipeline, "_BLOCK_ROWS", block_rows)
        whole = run_batch(cfg, t, v, sids)
        validator = Validator(cfg)
        pieces = [
            validator.feed(t[a:e], v[a:e], sids[a:e]) for a, e in zip([0] + bounds, bounds + [n])
        ]
        reports = validator.finalize()
        for name in ("timestamps", "raw", "confidence", "accepted", "reconstructed", "flagbits"):
            got = np.concatenate([getattr(p, name) for p in pieces])
            assert np.array_equal(got, getattr(whole, name), equal_nan=name == "timestamps"), name
        assert [s for p in pieces for s in p.sensor_ids] == list(whole.sensor_ids)
        assert all(p.reports == [] for p in pieces)
        # repr, exact for floats, so that a report ending on a NaN
        # timestamp equals itself
        assert repr(reports) == repr(whole.reports)

    check()


def test_finalize_is_idempotent():
    v = Validator(PipelineConfig())
    stream = inject(
        _stream(n=300, seed=305), FaultSpec("noise_burst", 100, 60, 100.0), seed=1
    )
    v.run(stream.samples)
    first = v.finalize()
    assert v.finalize() == first
