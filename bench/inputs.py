"""Seeded inputs for the four workloads.

Every input is drawn from numpy's PCG64 seeded with the workload seed, so
the same seed writes the same files. The program under test sees only the
files: the CSV stream, the `--config` file and the PCA model it names.
Beside each stream the generator keeps the fault labels (sparse
``index,fault`` rows) and, for the fleet, the calibration snapshots the
model was fitted on. Nothing here imports sensorval: the inputs and the
model are made with plain numpy, so a later change to the package's API
cannot change what the benchmark feeds it.

Values are written with six decimals, as A8's stream is. The returned
``Stream`` holds the values as the program will parse them, so the checks
compare against exactly what the program read.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HEADER = "timestamp,sensor_id,value\n"

# spiky-out: one ultrasonic bin, falling from empty (300 cm) to full
# (100 cm) at 0.04 cm/s, so the level resets to empty every 5k readings
SPIKY_N = 20_000
SPIKY_CYCLE = 5_000
# non-finite readings sit at fixed places, far from every level reset and
# out of reach of every seeded fault, so whether they fail does not depend
# on the seed; they are after the step probe's prefix. A noise burst can
# leave the estimate off the level and lock the bin out until a reanchor
# a few hundred readings later, and a non-finite reading on the reanchor
# row would become the new estimate; hence the wide clearance.
NON_FINITE = ((1_500, "nan"), (2_500, "inf"), (6_500, "-inf"),
              (7_500, "nan"), (11_500, "inf"), (12_500, "-inf"))
NON_FINITE_CLEARANCE = 400
BURST_STD = 25.0

# fleet: four sensors read once per second in a fixed order; tank_a and
# tank_b see the same level (b at 80% gain) and are fused by PCA/SPE
FLEET_ROUNDS = 1_250
FLEET_SENSORS = ("tank_a", "tank_b", "bin_c", "bin_d")
FUSED = ("tank_a", "tank_b")
SPIKY_SENSOR = "bin_c"
BURST_SENSOR = "bin_d"
BURST_ROUNDS = 60
DECORRELATION_ROUNDS = 100
DECORRELATION_OFFSET = 5.0
CALIBRATION_ROWS = 400
SPE_PERCENTILE = 99.0

# readings the Validator.step probe feeds after each round of a CLI
# workload; every stream's first PROBE_N readings are finite
PROBE_N = 1_000

WORKLOADS = ("clean-1m", "spiky-out", "fleet-spe", "fleet-live")
# streams drawn from one seed, which a run's rounds take in turn. Whether
# a noise burst locks the bin out depends on the seed, and a lock-out costs
# a few hundred scalar steps, so spiky-out's work per stream varies; four
# streams per run keep that from setting the run's median.
PARTS = {"spiky-out": 4}


@dataclass
class Stream:
    """One generated input and what the checks need to know about it."""

    csv: Path
    n: int
    timestamps: np.ndarray | None = None
    sensor_ids: list[str] | None = None
    values: np.ndarray | None = None
    # index -> fault name, for the labelled readings only
    labels: dict[int, str] = field(default_factory=dict)
    config: Path | None = None
    model: Path | None = None
    fused: tuple[str, ...] = ()


def _rng(seed: int, workload: str, part: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64([seed, WORKLOADS.index(workload), part]))


def _format(values: np.ndarray) -> list[str]:
    return ["%.6f" % x for x in values.tolist()]


def _write_stream(path: Path, ts: list[str], sids: list[str], vals: list[str]) -> None:
    with open(path, "w", newline="\n") as f:
        f.write(HEADER)
        f.writelines(f"{t},{s},{v}\n" for t, s, v in zip(ts, sids, vals))


def _write_labels(path: Path, labels: dict[int, str]) -> None:
    with open(path, "w", newline="\n") as f:
        f.write("index,fault\n")
        f.writelines(f"{i},{labels[i]}\n" for i in sorted(labels))


def _free_starts(rng, count: int, length: int, n: int, taken: np.ndarray) -> list[int]:
    """Draw ``count`` starts of runs of ``length`` that touch no taken index."""
    starts: list[int] = []
    while len(starts) < count:
        s = int(rng.integers(0, n - length))
        if not taken[max(0, s - 30) : s + length + 30].any():
            taken[s : s + length] = True
            starts.append(s)
    return sorted(starts)


def clean_1m(root: Path, seed: int, part: int) -> Stream:
    """A8's stream: 1M readings of one sensor drawn from N(200, 1)."""
    n = 1_000_000
    vals = _format(200.0 + _rng(seed, "clean-1m", part).normal(0.0, 1.0, n))
    path = root / "stream.csv"
    _write_stream(path, [str(i) for i in range(n)], ["s0"] * n, vals)
    _write_labels(root / "stream.labels.csv", {})
    return Stream(
        csv=path,
        n=n,
        timestamps=np.arange(n, dtype=float),
        sensor_ids=["s0"] * n,
        values=np.array(vals, dtype=float),
    )


def spiky_out(root: Path, seed: int, part: int) -> Stream:
    """One bin on the fill cycle with spikes, noise bursts, level resets and
    a fixed handful of non-finite readings."""
    rng = _rng(seed, "spiky-out", part)
    n = SPIKY_N
    t = np.arange(n, dtype=float)
    slope = 200.0 / SPIKY_CYCLE
    values = 300.0 - np.mod(slope * t, 200.0) + rng.normal(0.0, 1.0, n)
    labels: dict[int, str] = {}

    # no seeded fault near a non-finite reading, a level reset, or warm-up
    taken = np.zeros(n, dtype=bool)
    taken[:200] = True
    for i, _ in NON_FINITE:
        taken[i - NON_FINITE_CLEARANCE : i + NON_FINITE_CLEARANCE] = True
    for r in range(SPIKY_CYCLE, n, SPIKY_CYCLE):
        taken[r - 10 : r + 150] = True

    for s in _free_starts(rng, 4, 60, n, taken):
        values[s : s + 60] += rng.normal(0.0, BURST_STD, 60)
        labels.update({i: "noise_burst" for i in range(s, s + 60)})
    # 2% of the readings are single-reading spikes of 15 to 30 cm
    free = np.flatnonzero(~taken)
    spikes = np.sort(rng.choice(free, size=n // 50, replace=False))
    values[spikes] += rng.choice([-1.0, 1.0], spikes.size) * rng.uniform(15.0, 30.0, spikes.size)
    labels.update({int(i): "spike" for i in spikes})

    vals = _format(values)
    for i, token in NON_FINITE:
        vals[i] = token
        labels[i] = "non_finite"
    path = root / "stream.csv"
    _write_stream(path, [str(i) for i in range(n)], ["bin"] * n, vals)
    _write_labels(root / "stream.labels.csv", labels)
    return Stream(
        csv=path,
        n=n,
        timestamps=t,
        sensor_ids=["bin"] * n,
        values=np.array([float(x) for x in vals]),
        labels=labels,
    )


def _fit_pca(calibration: np.ndarray) -> dict:
    """One-component PCA of the pair, in the model file's JSON layout, with
    its SPE threshold at the calibration percentile."""
    mean = calibration.mean(axis=0)
    cov = np.cov(calibration, rowvar=False)
    w, vecs = np.linalg.eigh(cov)
    comp = vecs[:, np.argmax(w)]
    comp = comp if comp[np.argmax(np.abs(comp))] > 0 else -comp
    r = calibration - mean
    resid = r - np.outer(r @ comp, comp)
    spe = (resid * resid).sum(axis=1)
    return {
        "mean": mean.tolist(),
        "components": [comp.tolist()],
        "k": 1,
        "spe_threshold": float(np.percentile(spe, SPE_PERCENTILE)),
    }


def fleet(root: Path, seed: int, part: int) -> Stream:
    """Four interleaved sensors: a fused pair with one decorrelation
    episode, a bin with 2% spikes, and a bin with one noise burst."""
    rng = _rng(seed, "fleet-spe", part)
    rounds = FLEET_ROUNDS

    def pair(level: np.ndarray) -> np.ndarray:
        k = level.size
        return np.column_stack(
            [level + rng.normal(0.0, 0.05, k), 0.8 * level + rng.normal(0.0, 0.05, k)]
        )

    calibration = pair(rng.normal(200.0, 10.0, CALIBRATION_ROWS))
    with open(root / "calibration.csv", "w", newline="\n") as f:
        f.write(",".join(FUSED) + "\n")
        f.writelines(f"{a!r},{b!r}\n" for a, b in calibration.tolist())
    model_path = root / "pca_model.json"
    with open(model_path, "w") as f:
        json.dump(_fit_pca(calibration), f, indent=2)
        f.write("\n")
    config_path = root / "fleet.conf"
    with open(config_path, "w", newline="\n") as f:
        f.write(f"spe_model = {model_path.resolve()}\n")
        f.write(f"spe_fusion = {','.join(FUSED)}\n")

    k = np.arange(rounds, dtype=float)
    level = 200.0 + 20.0 * np.sin(2.0 * np.pi * k / 1000.0) + rng.normal(0.0, 1.0, rounds)
    cols = {}
    cols["tank_a"], cols["tank_b"] = pair(level).T
    cols[SPIKY_SENSOR] = 250.0 + rng.normal(0.0, 1.0, rounds)
    cols[BURST_SENSOR] = 150.0 + rng.normal(0.0, 1.0, rounds)

    m = len(FLEET_SENSORS)
    labels: dict[int, str] = {}
    start = int(rng.integers(50, rounds - DECORRELATION_ROUNDS - 50))
    episode = slice(start, start + DECORRELATION_ROUNDS)
    cols["tank_b"][episode] += DECORRELATION_OFFSET
    for r in range(episode.start, episode.stop):
        for s in FUSED:
            labels[r * m + FLEET_SENSORS.index(s)] = "decorrelation"
    spike_rounds = np.sort(rng.choice(np.arange(50, rounds), size=rounds // 50, replace=False))
    cols[SPIKY_SENSOR][spike_rounds] += (
        rng.choice([-1.0, 1.0], spike_rounds.size) * rng.uniform(15.0, 30.0, spike_rounds.size)
    )
    c = FLEET_SENSORS.index(SPIKY_SENSOR)
    labels.update({int(r) * m + c: "spike" for r in spike_rounds})
    # one sustained burst gives the report path and exit code 1 work to do
    burst = int(rng.integers(50, rounds - BURST_ROUNDS))
    cols[BURST_SENSOR][burst : burst + BURST_ROUNDS] += rng.normal(0.0, BURST_STD, BURST_ROUNDS)
    c = FLEET_SENSORS.index(BURST_SENSOR)
    labels.update({r * m + c: "noise_burst" for r in range(burst, burst + BURST_ROUNDS)})

    matrix = np.column_stack([cols[s] for s in FLEET_SENSORS]).ravel()
    vals = _format(matrix)
    ts = np.repeat(k, m)
    sids = list(FLEET_SENSORS) * rounds
    path = root / "stream.csv"
    _write_stream(path, [str(int(x)) for x in ts.tolist()], sids, vals)
    _write_labels(root / "stream.labels.csv", labels)
    return Stream(
        csv=path,
        n=rounds * m,
        timestamps=ts,
        sensor_ids=sids,
        values=np.array([float(x) for x in vals]),
        labels=labels,
        config=config_path,
        model=model_path,
        fused=FUSED,
    )


def generate(workload: str, root: Path, seed: int, part: int = 0) -> Stream:
    """Write part ``part`` of the workload's inputs under ``root`` and
    describe it."""
    root.mkdir(parents=True, exist_ok=True)
    (root / "header.csv").write_text(HEADER)
    if workload == "clean-1m":
        return clean_1m(root, seed, part)
    if workload == "spiky-out":
        return spiky_out(root, seed, part)
    return fleet(root, seed, part)
