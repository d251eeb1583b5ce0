"""Independent reference implementations used to check the engine.

Everything here is written from the definitions, the long way round:
no rule grouping, no shared code with the package under test.
Dense-grid Mamdani inference integrates directly; statistics use
two-pass formulas with exact summation; the 2x2 eigenproblem is closed
form. Keep it slow and obvious.

The one concession to speed is a cache of per-term membership grids:
a term's samples depend only on the term and the grid, so computing
them once per system instead of once per point changes nothing about
the math while keeping dense-grid sweeps affordable.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np


def mf_on_grid(kind: str, params, ys: np.ndarray) -> np.ndarray:
    """Membership of one term over a sample grid.

    Triangles and trapezoids go through np.interp, which is a different
    mechanism from any piecewise algebra an engine would use. Degenerate
    (vertical-edge) shapes are not supported here; unit tests cover those
    by hand instead.
    """
    if kind == "gaussian":
        sigma, c = params
        return np.exp(-((ys - c) ** 2) / (2.0 * sigma * sigma))
    if kind == "triangular":
        a, b, c = params
        return np.interp(ys, [a, b, c], [0.0, 1.0, 0.0], left=0.0, right=0.0)
    if kind == "trapezoidal":
        a, b, c, d = params
        return np.interp(ys, [a, b, c, d], [0.0, 1.0, 1.0, 0.0], left=0.0, right=0.0)
    raise ValueError(kind)


def mf_scalar(kind: str, params, x: float) -> float:
    return float(mf_on_grid(kind, params, np.array([x]))[0])


@lru_cache(maxsize=256)
def _grid(lo: float, hi: float, n: int) -> np.ndarray:
    ys = np.linspace(lo, hi, n)
    ys.setflags(write=False)
    return ys


@lru_cache(maxsize=4096)
def _term_grid(kind: str, params: tuple, lo: float, hi: float, n: int) -> np.ndarray:
    mu = mf_on_grid(kind, params, _grid(lo, hi, n))
    mu.setflags(write=False)
    return mu


def rule_strength(rule, degrees, and_method: str, or_method: str) -> float:
    picked = []
    for i, entry in enumerate(rule.antecedent):
        if entry == 0:
            continue
        d = degrees[i][abs(entry) - 1]
        picked.append(1.0 - d if entry < 0 else d)
    if not picked:
        return 0.0
    if rule.connective == "or":
        if or_method == "max":
            s = max(picked)
        else:  # probor
            s = 0.0
            for d in picked:
                s = s + d - s * d
    else:
        if and_method == "min":
            s = min(picked)
        else:  # prod
            s = 1.0
            for d in picked:
                s *= d
    return s * rule.weight


def mamdani_reference(system, inputs, factor: int = 100):
    """Full Mamdani inference on a grid ``factor`` times denser.

    Returns (values, no_rule_fired) matching the engine's conventions:
    inputs clamp to range, a dead output falls back to its midpoint.
    """
    xs = []
    for var, x in zip(system.inputs, inputs):
        xs.append(min(max(float(x), var.lo), var.hi))
    degrees = [
        [mf_scalar(mf.kind, mf.params, x) for (_, mf) in var.terms]
        for var, x in zip(system.inputs, xs)
    ]
    strengths = [
        rule_strength(rule, degrees, system.and_method, system.or_method)
        for rule in system.rules
    ]

    values = []
    dead = False
    for o, var in enumerate(system.outputs):
        n = (system.resolution - 1) * factor + 1
        ys = _grid(var.lo, var.hi, n)
        agg = np.zeros(n)
        for rule, s in zip(system.rules, strengths):
            t = rule.consequent[o]
            if t == 0 or s == 0.0:
                continue
            mf = var.terms[t - 1][1]
            mu = _term_grid(mf.kind, tuple(mf.params), var.lo, var.hi, n)
            if system.implication == "min":
                clipped = np.minimum(mu, s)
            else:  # prod
                clipped = mu * s
            if system.aggregation == "max":
                agg = np.maximum(agg, clipped)
            else:  # sum, clipped at 1
                agg = np.minimum(agg + clipped, 1.0)
        total = agg.sum()
        if total == 0.0:
            values.append((var.lo + var.hi) / 2.0)
            dead = True
        else:
            values.append(float((agg @ ys) / total))
    return values, dead


def loop_mf(kind: str, params, x: np.ndarray) -> np.ndarray:
    """Membership by boolean masks, one term at a time."""
    if kind == "gaussian":
        sigma, center = params
        z = (x - center) / sigma
        return np.exp(-0.5 * z * z)
    if kind == "triangular":
        a, b, c = params
        y = np.zeros_like(x)
        if b > a:
            m = (x > a) & (x < b)
            y[m] = (x[m] - a) / (b - a)
        if c > b:
            m = (x > b) & (x < c)
            y[m] = (c - x[m]) / (c - b)
        y[x == b] = 1.0
        return y
    if kind == "trapezoidal":
        a, b, c, d = params
        y = np.zeros_like(x)
        if b > a:
            m = (x > a) & (x < b)
            y[m] = (x[m] - a) / (b - a)
        if d > c:
            m = (x > c) & (x < d)
            y[m] = (d - x[m]) / (d - c)
        y[(x >= b) & (x <= c)] = 1.0
        return y
    raise ValueError(kind)


def _loop_strengths(system, degrees) -> np.ndarray:
    """Firing strength of every rule at every point, rule by rule and
    input by input: (R, N)."""
    n = degrees[0].shape[1]
    strengths = np.empty((len(system.rules), n))
    for r, rule in enumerate(system.rules):
        combined = None
        for i, entry in enumerate(rule.antecedent):
            if entry == 0:
                continue
            d = degrees[i][abs(entry) - 1]
            if entry < 0:
                d = 1.0 - d
            if combined is None:
                combined = d.copy()
            elif rule.connective == "or":
                if system.or_method == "max":
                    np.maximum(combined, d, out=combined)
                else:
                    combined += d - combined * d
            else:
                if system.and_method == "min":
                    np.minimum(combined, d, out=combined)
                else:
                    combined *= d
        strengths[r] = combined * rule.weight
    return strengths


def _loop_block(system, clamped: np.ndarray, values: np.ndarray, no_rule: np.ndarray) -> None:
    degrees = [
        np.stack([loop_mf(mf.kind, mf.params, clamped[:, i]) for _, mf in var.terms])
        for i, var in enumerate(system.inputs)
    ]
    strengths = _loop_strengths(system, degrees)
    cons = np.array([r.consequent for r in system.rules]).reshape(len(system.rules), -1)
    n = clamped.shape[0]
    for o, var in enumerate(system.outputs):
        grid = np.linspace(var.lo, var.hi, system.resolution)
        tgrids = np.stack([loop_mf(mf.kind, mf.params, grid) for _, mf in var.terms])
        agg = np.zeros((n, grid.size))
        if system.aggregation == "max":
            for t in range(tgrids.shape[0]):
                sel_pos = np.flatnonzero(cons[:, o] == t + 1)
                if sel_pos.size == 0:
                    continue
                s = strengths[sel_pos[0]]
                for r in sel_pos[1:]:
                    s = np.maximum(s, strengths[r])
                if system.implication == "min":
                    np.maximum(agg, np.minimum(s[:, None], tgrids[t][None, :]), out=agg)
                else:
                    np.maximum(agg, s[:, None] * tgrids[t][None, :], out=agg)
        else:  # sum, clipped at 1
            for r in range(len(system.rules)):
                t = cons[r, o]
                if t == 0:
                    continue
                if system.implication == "min":
                    agg += np.minimum(strengths[r][:, None], tgrids[t - 1][None, :])
                else:
                    agg += strengths[r][:, None] * tgrids[t - 1][None, :]
            np.clip(agg, 0.0, 1.0, out=agg)
        area = agg.sum(axis=1)
        dead = area == 0.0
        no_rule |= dead
        safe = np.where(dead, 1.0, area)
        values[:, o] = np.where(
            dead,
            (var.lo + var.hi) / 2.0,
            (var.lo + var.hi) / 2.0
            + (var.hi - var.lo) / 2.0
            * np.einsum(
                "ij,j->i",
                agg[:, : grid.size // 2] - agg[:, ::-1][:, : grid.size // 2],
                (2 * np.arange(grid.size // 2) - (grid.size - 1)) / (grid.size - 1),
            )
            / safe,
        )


def loop_infer_batch(system, points: np.ndarray):
    """The engine's arithmetic written as loops over terms, rules and
    output terms: (values, no_rule_fired, out_of_range).

    Unlike ``mamdani_reference``, this follows the engine step for step
    (4096-row blocks, the same clamp, the same centroid fold), so its
    results must equal the engine's exactly, NaN and inf included.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    lo = np.array([v.lo for v in system.inputs])
    hi = np.array([v.hi for v in system.inputs])
    clamped = np.clip(pts, lo, hi)
    out_of_range = np.any(clamped != pts, axis=1)
    n = pts.shape[0]
    values = np.empty((n, len(system.outputs)))
    no_rule = np.zeros(n, dtype=bool)
    for b in range(0, n, 4096):
        rows = slice(b, b + 4096)
        _loop_block(system, clamped[rows], values[rows], no_rule[rows])
    return values, no_rule, out_of_range


def two_pass_variance(values) -> float:
    n = len(values)
    if n < 2:
        raise ValueError("need at least 2 values")
    mean = math.fsum(values) / n
    return math.fsum((x - mean) ** 2 for x in values) / (n - 1)


def gum_uncertainty(values) -> float:
    return math.sqrt(two_pass_variance(values) / len(values))


def eig2x2_symmetric(a: float, b: float, c: float):
    """Eigenpairs of [[a, b], [b, c]], descending eigenvalue."""
    disc = math.sqrt((a - c) ** 2 + 4.0 * b * b)
    l1 = (a + c + disc) / 2.0
    l2 = (a + c - disc) / 2.0
    if abs(b) > 1e-300:
        v1 = np.array([b, l1 - a])
        v2 = np.array([b, l2 - a])
    else:
        v1 = np.array([1.0, 0.0]) if a >= c else np.array([0.0, 1.0])
        v2 = np.array([0.0, 1.0]) if a >= c else np.array([1.0, 0.0])
    v1 = v1 / np.linalg.norm(v1)
    v2 = v2 / np.linalg.norm(v2)
    return (l1, v1), (l2, v2)


def projector_distance(components_a: np.ndarray, components_b: np.ndarray) -> float:
    """Frobenius distance between spanned-subspace projectors.

    Zero iff the row spaces coincide, regardless of sign or order.
    """
    pa = components_a.T @ components_a
    pb = components_b.T @ components_b
    return float(np.linalg.norm(pa - pb))


def scan_reports(confidences, fault_threshold: float, report_after: int) -> list[tuple[int, int]]:
    """(start, length) of every maximal sub-threshold run >= report_after."""
    runs = []
    start = None
    for i, c in enumerate(confidences):
        if c < fault_threshold:
            if start is None:
                start = i
        else:
            if start is not None and i - start >= report_after:
                runs.append((start, i - start))
            start = None
    if start is not None and len(confidences) - start >= report_after:
        runs.append((start, len(confidences) - start))
    return runs


def confusion(predicted, labels):
    tp = fp = fn = tn = 0
    for p, l in zip(predicted, labels):
        if p and l:
            tp += 1
        elif p and not l:
            fp += 1
        elif not p and l:
            fn += 1
        else:
            tn += 1
    precision = tp / (tp + fp) if tp + fp else 1.0
    recall = tp / (tp + fn) if tp + fn else 1.0
    return {"tp": tp, "fp": fp, "fn": fn, "tn": tn, "precision": precision, "recall": recall}


def random_system(rng: np.random.Generator):
    """A random valid FuzzySystem for oracle-equivalence trials.

    Term shapes keep a minimum width relative to the range, and the
    sampled resolutions sit high enough that the grid-sampled centroid
    (whose discretization error falls off like 1/resolution) lands well
    inside the 1e-3-of-range oracle tolerance.
    """
    from sensorval import FuzzySystem, LinguisticVariable, MembershipFunction, Rule

    def variable(name: str) -> LinguisticVariable:
        lo = float(rng.uniform(-50.0, 50.0))
        hi = lo + float(rng.uniform(1.0, 100.0))
        span = hi - lo
        terms = []
        for t in range(int(rng.integers(2, 5))):
            kind = rng.choice(["gaussian", "triangular", "trapezoidal"])
            # peaks stay inside the declared range (feet may overhang):
            # a term peaking outside its own variable's range leaves only
            # an edge sliver in-domain, and a sliver aggregate makes the
            # centroid ill-conditioned for engine and oracle alike
            if kind == "gaussian":
                mf = MembershipFunction.gaussian(
                    float(rng.uniform(span / 12.0, span / 3.0)),
                    float(rng.uniform(lo, hi)),
                )
            elif kind == "triangular":
                b = float(rng.uniform(lo + 0.05 * span, hi - 0.05 * span))
                a = b - float(rng.uniform(span / 10.0, span / 2.0))
                c = b + float(rng.uniform(span / 10.0, span / 2.0))
                mf = MembershipFunction.triangular(a, b, c)
            else:
                m = float(rng.uniform(lo + 0.1 * span, hi - 0.1 * span))
                p = float(rng.uniform(span / 40.0, span / 8.0))
                a = m - p - float(rng.uniform(span / 10.0, span / 3.0))
                d = m + p + float(rng.uniform(span / 10.0, span / 3.0))
                mf = MembershipFunction.trapezoidal(a, m - p, m + p, d)
            terms.append((f"t{t}", mf))
        return LinguisticVariable(name, lo, hi, tuple(terms))

    n_in = int(rng.integers(1, 4))
    n_out = int(rng.integers(1, 3))
    inputs = tuple(variable(f"in{i}") for i in range(n_in))
    outputs = tuple(variable(f"out{o}") for o in range(n_out))

    rules = []
    for _ in range(int(rng.integers(2, 7))):
        ante = [0] * n_in
        while all(a == 0 for a in ante):
            ante = [
                int(rng.integers(-len(v.terms), len(v.terms) + 1)) for v in inputs
            ]
        cons = [int(rng.integers(1, len(v.terms) + 1)) for v in outputs]
        rules.append(
            Rule(
                tuple(ante),
                tuple(cons),
                float(rng.uniform(0.2, 1.0)),
                "or" if rng.random() < 0.3 else "and",
            )
        )

    return FuzzySystem(
        name="random",
        inputs=inputs,
        outputs=outputs,
        rules=tuple(rules),
        and_method=str(rng.choice(["min", "prod"])),
        or_method=str(rng.choice(["max", "probor"])),
        implication=str(rng.choice(["min", "prod"])),
        aggregation=str(rng.choice(["max", "sum"])),
        resolution=int(rng.integers(1201, 2402)),
    )
