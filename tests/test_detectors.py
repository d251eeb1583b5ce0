"""Window statistics, uncertainty index and PCA/SPE detectors."""

import json
import math

import numpy as np
import pytest

from sensorval.detectors import (
    DegenerateDataError,
    DimensionMismatchError,
    InsufficientDataError,
    PcaModel,
    Window,
    _welford,
    fit_from_csv,
    load_pca_model,
    pca_fit,
    save_pca_model,
    spe,
    spe_batch,
    uncertainty_index,
)

from oracles import (
    eig2x2_symmetric,
    gum_uncertainty,
    projector_distance,
    two_pass_variance,
)


# windowed variance


def test_window_variance_matches_two_pass_oracle():
    rng = np.random.default_rng(1)
    for trial in range(20):
        scale = 10.0 ** rng.integers(-3, 5)
        values = rng.normal(rng.uniform(-5, 5) * scale, scale, size=50)
        w = Window(len(values))
        for x in values:
            w.push(x)
        want = two_pass_variance(values)
        assert w.variance() == pytest.approx(want, rel=1e-9)


def test_sliding_window_matches_two_pass_at_every_step():
    rng = np.random.default_rng(2)
    values = rng.normal(100.0, 3.0, size=400)
    w = Window(20)
    for i, x in enumerate(values):
        w.push(x)
        tail = values[max(0, i - 19) : i + 1]
        assert w.values() == pytest.approx(list(tail))
        if len(tail) >= 2:
            assert w.variance() == pytest.approx(two_pass_variance(tail), rel=1e-9)


def test_window_stays_accurate_over_long_streams():
    # a fresh pass over the contents carries no round-off from evicted values
    rng = np.random.default_rng(3)
    w = Window(16)
    values = rng.normal(1e6, 0.01, size=200_000)
    for x in values:
        w.push(x)
    want = two_pass_variance(values[-16:])
    assert w.variance() == pytest.approx(want, rel=1e-9)


def test_replace_last_rewrites_statistics():
    w = Window(5)
    for x in (10.0, 11.0, 50.0):
        w.push(x)
    w.replace_last(12.0)
    assert w.values() == [10.0, 11.0, 12.0]
    assert w.variance() == pytest.approx(two_pass_variance([10.0, 11.0, 12.0]), rel=1e-12)
    assert w.mean() == pytest.approx(11.0)


def test_window_statistics_equal_a_fresh_welford_pass():
    # bit for bit after every push, through an inf that enters and leaves
    # the window and a corrected last reading
    values = 200.0 + np.random.default_rng(0).normal(0.0, 1.0, 50)
    values[24] = math.inf
    w = Window(20)
    for i, x in enumerate(values):
        w.push(x)
        if i == 30:
            w.replace_last(200.0)
        n, mean, m2 = _welford(w.values())
        assert np.array_equal(w.mean(), mean, equal_nan=True), i
        if n >= 2:
            want = max(m2, 0.0) / (n - 1)
            assert np.array_equal(w.variance(), want, equal_nan=True), i


def test_replace_last_on_empty_window_raises():
    with pytest.raises(InsufficientDataError):
        Window(5).replace_last(1.0)


def test_window_capacity_below_two_rejected():
    with pytest.raises(ValueError):
        Window(1)


def test_window_underfilled_statistics_raise():
    w = Window(8)
    with pytest.raises(InsufficientDataError):
        w.mean()
    w.push(4.0)
    with pytest.raises(InsufficientDataError):
        w.variance()
    with pytest.raises(InsufficientDataError):
        uncertainty_index(w)
    assert w.mean() == 4.0


def test_constant_window_has_zero_variance():
    w = Window(10)
    for _ in range(10):
        w.push(7.25)
    assert w.variance() == 0.0


# uncertainty index (GUM Type A)


def test_uncertainty_index_hand_value():
    # s([1,2,3,4]) = sqrt(5/3); u = s/sqrt(4) = sqrt(5/12) = 0.64549...
    w = Window(4)
    for x in (1.0, 2.0, 3.0, 4.0):
        w.push(x)
    assert uncertainty_index(w) == pytest.approx(0.6455, abs=1e-4)
    assert uncertainty_index(w) == pytest.approx(gum_uncertainty([1, 2, 3, 4]), rel=1e-12)


def test_uncertainty_index_matches_oracle_on_random_windows():
    rng = np.random.default_rng(4)
    for _ in range(10):
        values = rng.normal(50.0, rng.uniform(0.1, 20.0), size=int(rng.integers(2, 40)))
        w = Window(len(values))
        for x in values:
            w.push(x)
        assert uncertainty_index(w) == pytest.approx(gum_uncertainty(values), rel=1e-9)


def test_uncertainty_shrinks_with_sample_count():
    # same spread, more samples -> smaller uncertainty of the mean
    rng = np.random.default_rng(5)
    values = rng.normal(0.0, 1.0, size=64)
    small = Window(8)
    large = Window(64)
    for x in values:
        large.push(x)
    for x in values[-8:]:
        small.push(x)
    assert uncertainty_index(large) < uncertainty_index(small)


# PCA + SPE


def _correlated_snapshots(rng, n=300, noise=0.05):
    level = rng.normal(100.0, 10.0, size=n)
    a = level + rng.normal(0.0, noise, size=n)
    b = 0.8 * level + rng.normal(0.0, noise, size=n)
    return np.column_stack([a, b])


def test_pca_first_component_matches_closed_form():
    rng = np.random.default_rng(6)
    X = _correlated_snapshots(rng)
    model = pca_fit(X, 1)
    cov = np.cov(X, rowvar=False)
    (l1, v1), _ = eig2x2_symmetric(cov[0, 0], cov[0, 1], cov[1, 1])
    assert projector_distance(model.components, v1[None, :]) < 1e-9
    assert model.mean == pytest.approx(X.mean(axis=0))


def test_pca_component_sign_is_deterministic():
    rng = np.random.default_rng(7)
    X = _correlated_snapshots(rng)
    model = pca_fit(X, 1)
    again = pca_fit(X.copy(), 1)
    assert np.array_equal(model.components, again.components)
    for row in model.components:
        assert row[np.argmax(np.abs(row))] > 0


def test_spe_vanishes_on_subspace():
    rng = np.random.default_rng(8)
    model = pca_fit(_correlated_snapshots(rng), 1)
    for t in (-40.0, -1.0, 0.0, 2.5, 30.0):
        point = model.mean + t * model.components[0]
        assert spe(model, point) < 1e-9


def test_spe_measures_squared_offset_off_subspace():
    rng = np.random.default_rng(9)
    model = pca_fit(_correlated_snapshots(rng), 1)
    v = model.components[0]
    orth = np.array([-v[1], v[0]])  # unit, orthogonal in 2-D
    for s in (0.5, 2.0, 7.5):
        point = model.mean + 3.0 * v + s * orth
        assert spe(model, point) == pytest.approx(s * s, rel=1e-9)


def test_spe_batch_matches_scalar_spe():
    rng = np.random.default_rng(10)
    X = _correlated_snapshots(rng, n=50)
    model = pca_fit(X, 1)
    probes = X + rng.normal(0.0, 5.0, size=X.shape)
    batch = spe_batch(model, probes)
    for i in range(len(probes)):
        assert batch[i] == pytest.approx(spe(model, probes[i]), rel=1e-12)


def test_spe_threshold_is_calibration_percentile():
    rng = np.random.default_rng(11)
    X = _correlated_snapshots(rng)
    model = pca_fit(X, 1, threshold_percentile=90.0)
    calib = spe_batch(model, X)
    assert model.spe_threshold == pytest.approx(np.percentile(calib, 90.0))


def test_pca_model_json_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(12)
    model = pca_fit(_correlated_snapshots(rng), 1)
    path = tmp_path / "model.json"
    save_pca_model(model, path)
    loaded = load_pca_model(path)
    assert np.array_equal(loaded.mean, model.mean)
    assert np.array_equal(loaded.components, model.components)
    assert loaded.spe_threshold == model.spe_threshold
    # the file is plain JSON with the advertised keys
    doc = json.loads(path.read_text())
    assert set(doc) == {"mean", "components", "k", "spe_threshold"}


def test_pca_fit_input_validation():
    rng = np.random.default_rng(13)
    X = _correlated_snapshots(rng, n=20)
    with pytest.raises(DimensionMismatchError):
        pca_fit(X[:, 0], 1)
    with pytest.raises(DegenerateDataError):
        pca_fit(X[:, :1], 1)
    with pytest.raises(InsufficientDataError):
        pca_fit(X[:2], 1)
    with pytest.raises(ValueError):
        pca_fit(X, 2)
    constant = X.copy()
    constant[:, 1] = 5.0
    with pytest.raises(DegenerateDataError):
        pca_fit(constant, 1)


def test_spe_dimension_checks():
    rng = np.random.default_rng(14)
    model = pca_fit(_correlated_snapshots(rng), 1)
    with pytest.raises(DimensionMismatchError):
        spe(model, np.array([1.0, 2.0, 3.0]))
    with pytest.raises(DimensionMismatchError):
        spe_batch(model, np.zeros((4, 3)))


def test_fit_from_csv_equals_in_memory_fit(tmp_path):
    rng = np.random.default_rng(15)
    X = _correlated_snapshots(rng, n=40)
    path = tmp_path / "calib.csv"
    lines = ["a,b"] + [f"{float(row[0])!r},{float(row[1])!r}" for row in X]
    path.write_text("\n".join(lines) + "\n")
    model = fit_from_csv(path, 1)
    want = pca_fit(X, 1)
    assert np.array_equal(model.mean, want.mean)
    assert np.array_equal(model.components, want.components)
    assert model.spe_threshold == want.spe_threshold


def test_fit_from_csv_rejects_bad_rows(tmp_path):
    path = tmp_path / "calib.csv"
    path.write_text("a,b\n1.0,2.0\nbroken,row\n")
    with pytest.raises(ValueError):
        fit_from_csv(path, 1)
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(InsufficientDataError):
        fit_from_csv(empty, 1)


def test_pca_model_shape_properties():
    model = PcaModel(
        mean=np.zeros(3), components=np.eye(3)[:2], spe_threshold=1.0
    )
    assert model.k == 2
    assert model.dim == 3
