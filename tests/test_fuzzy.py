"""Membership, firing and inference behavior of the fuzzy engine."""

import dataclasses
import itertools
import math

import numpy as np
import pytest

from sensorval import (
    FuzzySystem,
    LinguisticVariable,
    MembershipFunction,
    Rule,
    control_surface,
    default_system,
    infer,
    infer_batch,
)
from sensorval.fuzzy import DEFAULT_RESOLUTION

from oracles import (
    loop_infer_batch,
    mamdani_reference,
    mf_scalar,
    random_system,
    rule_strength,
)


def test_gaussian_peak_is_one_at_center():
    mf = MembershipFunction.gaussian(2.0, 5.0)
    assert mf(5.0) == 1.0


def test_gaussian_one_sigma_value():
    # exp(-0.5) evaluated independently: 0.6065306597126334
    mf = MembershipFunction.gaussian(2.0, 5.0)
    assert mf(7.0) == pytest.approx(0.6065306597126334, abs=1e-12)


def test_triangular_interpolates_linearly():
    mf = MembershipFunction.triangular(0.0, 1.0, 2.0)
    assert mf(0.5) == pytest.approx(0.5)
    assert mf(1.5) == pytest.approx(0.5)
    assert mf(1.0) == 1.0
    assert mf(-0.1) == 0.0
    assert mf(2.1) == 0.0


def test_degenerate_vertical_edges_hit_one():
    left = MembershipFunction.triangular(0.0, 0.0, 2.0)
    assert left(0.0) == 1.0
    assert left(1.0) == pytest.approx(0.5)
    right = MembershipFunction.trapezoidal(0.0, 0.5, 2.0, 2.0)
    assert right(2.0) == 1.0


def test_membership_bounded_everywhere():
    rng = np.random.default_rng(0)
    mfs = [
        MembershipFunction.gaussian(0.3, 1.0),
        MembershipFunction.triangular(-1.0, 0.5, 2.0),
        MembershipFunction.trapezoidal(-1.0, 0.0, 1.0, 3.0),
    ]
    xs = rng.uniform(-100, 100, 2000)
    for mf in mfs:
        degs = mf(xs)
        assert np.all(degs >= 0.0) and np.all(degs <= 1.0)


def test_fuzzify_matches_scalar_terms():
    var = LinguisticVariable(
        "v",
        0.0,
        10.0,
        (
            ("a", MembershipFunction.gaussian(1.0, 0.0)),
            ("b", MembershipFunction.gaussian(1.0, 10.0)),
        ),
    )
    degs = var.fuzzify(0.0)
    assert degs[0] == 1.0
    assert degs[1] < 0.01
    for x in (0.0, 2.5, 7.1):
        got = var.fuzzify(x)
        for k, (_, mf) in enumerate(var.terms):
            assert got[k] == pytest.approx(mf_scalar(mf.kind, mf.params, x), abs=1e-12)


# membership x on [0, 1]: (x - 0) / (1 - 0) on the rising limb, 1 at x = 1
_RAMP = MembershipFunction.triangular(0.0, 1.0, 1.0)
# membership 1 over all of [0, 1]
_FLAT = MembershipFunction.trapezoidal(0.0, 0.0, 1.0, 1.0)


def _strength(rule, degrees, and_method="min", or_method="max"):
    """The engine's firing strength of ``rule`` when input i's only term
    has membership ``degrees[i]``."""
    inputs = tuple(
        LinguisticVariable(f"x{i}", 0.0, 1.0, (("up", _RAMP),)) for i in range(len(degrees))
    )
    out = LinguisticVariable("o", 0.0, 1.0, (("t", _RAMP),))
    system = FuzzySystem(
        "s", inputs, (out,), (rule,), and_method=and_method, or_method=or_method
    )
    comp = system._compiled
    return float(comp.strengths(comp.degrees(np.array([degrees])))[0, 0])


def test_firing_and_min():
    rule = Rule((1, 1, 1), (1,), 1.0, "and")
    assert _strength(rule, [0.2, 0.7, 1.0]) == pytest.approx(0.2)


def test_firing_or_max():
    rule = Rule((1, 1), (1,), 1.0, "or")
    assert _strength(rule, [0.2, 0.7]) == pytest.approx(0.7)


def test_firing_weight_scales():
    rule = Rule((1, 1), (1,), 0.5, "and")
    assert _strength(rule, [0.4, 0.6]) == pytest.approx(0.2)


def test_firing_ignores_dont_care_and_negates():
    rule = Rule((0, -1), (1,), 1.0, "and")
    assert _strength(rule, [0.9, 0.3]) == pytest.approx(0.7)


def test_firing_prod_and_probor():
    rule_and = Rule((1, 1), (1,), 1.0, "and")
    rule_or = Rule((1, 1), (1,), 1.0, "or")
    assert _strength(rule_and, [0.4, 0.5], "prod", "probor") == pytest.approx(0.2)
    assert _strength(rule_or, [0.4, 0.5], "prod", "probor") == pytest.approx(0.7)


def _single_rule_system(center: float) -> FuzzySystem:
    a = LinguisticVariable("a", 0.0, 1.0, (("on", MembershipFunction.gaussian(0.2, 0.5)),))
    out = LinguisticVariable(
        "o", 0.0, 1.0, (("t", MembershipFunction.gaussian(0.1, center)),)
    )
    return FuzzySystem("s", (a,), (out,), (Rule((1,), (1,), 1.0, "and"),))


def test_single_symmetric_rule_lands_on_center():
    res = infer(_single_rule_system(0.5), [0.5])
    assert res.values[0] == pytest.approx(0.5, abs=1e-9)
    assert not res.no_rule_fired


def test_inference_outputs_stay_in_range():
    rng = np.random.default_rng(7)
    for _ in range(20):
        system = random_system(rng)
        pts = np.column_stack(
            [rng.uniform(v.lo, v.hi, 50) for v in system.inputs]
        )
        res = infer_batch(system, pts)
        for o, var in enumerate(system.outputs):
            assert np.all(res.values[:, o] >= var.lo - 1e-12)
            assert np.all(res.values[:, o] <= var.hi + 1e-12)


def test_out_of_range_clamps_and_flags():
    system = default_system()
    res = infer(system, [500.0, 0.0, 0.0])
    ref = infer(system, [400.0, 0.0, 0.0])
    assert res.out_of_range and not ref.out_of_range
    assert res.values[0] == pytest.approx(ref.values[0], abs=1e-12)


def test_no_rule_fired_falls_back_to_midpoint():
    a = LinguisticVariable(
        "a", 0.0, 1.0, (("left", MembershipFunction.triangular(0.0, 0.1, 0.2)),)
    )
    out = LinguisticVariable(
        "o", 0.0, 4.0, (("t", MembershipFunction.triangular(1.0, 2.0, 3.0)),)
    )
    system = FuzzySystem("s", (a,), (out,), (Rule((1,), (1,), 1.0, "and"),))
    res = infer(system, [0.9])
    assert res.no_rule_fired
    assert res.values[0] == pytest.approx(2.0)


def test_empty_rulebase_reports_no_rule_fired():
    # validate_fis lets an empty rulebase through with a warning that
    # every inference will report no_rule_fired
    base = default_system()
    for aggregation in ("max", "sum"):
        system = dataclasses.replace(base, rules=(), aggregation=aggregation)
        res = infer_batch(system, np.array([[200.0, 1.0, 1.0], [np.nan, 1.0, 1.0]]))
        assert res.no_rule_fired.all()
        assert np.array_equal(res.values, [[0.5], [0.5]])


def test_resolution_convergence_is_cauchy():
    # Doubling the resolution should move the centroid less than the
    # previous doubling did, three doublings in a row.
    rng = np.random.default_rng(17)
    cases = [(default_system(), [230.0, 3.0, 2.0])]
    for _ in range(6):
        system = random_system(rng)
        cases.append((system, [rng.uniform(v.lo, v.hi) for v in system.inputs]))
    for base, point in cases:
        span = base.outputs[0].hi - base.outputs[0].lo
        vals = []
        for res in (101, 202, 404, 808):
            system = FuzzySystem(
                base.name,
                base.inputs,
                base.outputs,
                base.rules,
                and_method=base.and_method,
                or_method=base.or_method,
                implication=base.implication,
                aggregation=base.aggregation,
                resolution=res,
            )
            vals.append(infer(system, point).values[0])
        changes = [abs(b - a) for a, b in zip(vals, vals[1:])]
        # tiny slack keeps symmetric systems (changes near 0) from
        # tripping on float noise
        assert changes[1] <= changes[0] + 1e-9 * span
        assert changes[2] <= changes[1] + 1e-9 * span


def test_engine_matches_dense_oracle_on_random_systems():
    rng = np.random.default_rng(42)
    for _ in range(25):
        system = random_system(rng)
        lo = np.array([v.lo for v in system.inputs])
        hi = np.array([v.hi for v in system.inputs])
        span = hi - lo
        pts = rng.uniform(lo - 0.1 * span, hi + 0.1 * span, (8, len(lo)))
        res = infer_batch(system, pts)
        for p in range(8):
            vals, dead = mamdani_reference(system, pts[p], factor=50)
            assert dead == bool(res.no_rule_fired[p])
            for o, var in enumerate(system.outputs):
                tol = 1e-3 * (var.hi - var.lo)
                assert res.values[p, o] == pytest.approx(vals[o], abs=tol)


def test_engine_firing_matches_oracle_rules():
    rng = np.random.default_rng(3)
    for _ in range(10):
        system = random_system(rng)
        x = [rng.uniform(v.lo, v.hi) for v in system.inputs]
        comp = system._compiled
        got = comp.strengths(comp.degrees(np.array([x])))[:, 0]
        scalar_degs = [
            [mf_scalar(mf.kind, mf.params, xv) for (_, mf) in var.terms]
            for var, xv in zip(system.inputs, x)
        ]
        # the table holds AND rules first, then OR rules, each in rulebase order
        table = sorted(system.rules, key=lambda rule: rule.connective == "or")
        for rule, strength in zip(table, got):
            want = rule_strength(rule, scalar_degs, system.and_method, system.or_method)
            assert float(strength) == pytest.approx(want, abs=1e-12)


def _centroid(*terms, resolution=DEFAULT_RESOLUTION):
    """Crisp output over [0, 1] when each (shape, weight) output term is
    concluded by its own rule, firing at strength ``weight``."""
    a = LinguisticVariable("a", 0.0, 1.0, (("all", _FLAT),))
    out = LinguisticVariable("o", 0.0, 1.0, tuple((f"t{k}", mf) for k, (mf, _) in enumerate(terms)))
    rules = tuple(Rule((1,), (k + 1,), w, "and") for k, (_, w) in enumerate(terms))
    system = FuzzySystem("s", (a,), (out,), rules, resolution=resolution)
    return infer_batch(system, np.array([[0.5]]))


def test_defuzzify_constant_is_midpoint():
    res = _centroid((_FLAT, 1.0))
    assert res.values[0, 0] == pytest.approx(0.5)
    assert not res.no_rule_fired[0]


def test_defuzzify_symmetric_triangle():
    res = _centroid((MembershipFunction.triangular(0.1, 0.3, 0.5), 1.0), resolution=1001)
    assert res.values[0, 0] == pytest.approx(0.3, abs=1e-6)


def test_defuzzify_two_rects_analytic():
    # height 1 on [0, 0.2] plus height 0.5 on [0.8, 1.0]:
    # centroid = (0.2*0.1 + 0.1*0.9) / 0.3 = 0.11/0.3
    res = _centroid(
        (MembershipFunction.trapezoidal(0.0, 0.0, 0.2, 0.2), 1.0),
        (MembershipFunction.trapezoidal(0.8, 0.8, 1.0, 1.0), 0.5),
        resolution=100001,
    )
    assert res.values[0, 0] == pytest.approx(0.11 / 0.3, abs=1e-4)


def test_defuzzify_zero_area_falls_back_to_midpoint():
    # the rule fires fully, but its term lies outside the output range
    res = _centroid((MembershipFunction.triangular(2.0, 3.0, 4.0), 1.0))
    assert res.no_rule_fired[0]
    assert res.values[0, 0] == 0.5


def test_surface_shape_and_pointwise_equality():
    system = default_system()
    surf = control_surface(system, 1, 2, {0: 200.0}, grid=(5, 7))
    assert surf.shape == (5, 7)
    xi = system.inputs[1].grid(5)
    xj = system.inputs[2].grid(7)
    for a in (0, 2, 4):
        for b in (0, 3, 6):
            res = infer(system, [200.0, xi[a], xj[b]])
            assert surf[a, b] == pytest.approx(res.values[0], abs=1e-12)


def test_surface_ignores_irrelevant_axis():
    # distance only modulates via rules 2/5/6; a system whose rules skip
    # input 0 entirely must give identical rows along that axis
    base = default_system()
    rules = tuple(
        Rule((0,) + r.antecedent[1:], r.consequent, r.weight, r.connective)
        for r in base.rules
    )
    system = FuzzySystem(base.name, base.inputs, base.outputs, rules)
    surf = control_surface(system, 0, 1, {2: 1.0}, grid=(6, 9))
    for a in range(1, 6):
        assert np.allclose(surf[a], surf[0], atol=1e-12)


def test_batch_matches_scalar_infer():
    system = default_system()
    rng = np.random.default_rng(12)
    pts = np.column_stack(
        [rng.uniform(v.lo, v.hi, 40) for v in system.inputs]
    )
    res = infer_batch(system, pts)
    for i in range(40):
        one = infer(system, pts[i])
        assert one.values[0] == pytest.approx(res.values[i, 0], abs=1e-12)


def _with_edge_cases(system, rng):
    """``system`` plus the shapes and rules a random draw rarely makes.

    Every variable gains four terms with a vertical edge or a one-point
    plateau (a == b, b == c in a triangle and in a trapezoid, c == d),
    two of them on the range bounds, where clamped points land. Three
    rules use them: one concluding nothing on some output (a consequent
    entry of 0), one negating a term on every input, and one OR rule.
    """
    from sensorval.fisfile import validate_fis

    def walled(var):
        lo, hi = var.lo, var.hi
        q1, mid, q3 = np.interp([0.25, 0.5, 0.75], [0.0, 1.0], [lo, hi])
        extra = (
            ("rise_wall", MembershipFunction.triangular(lo, lo, mid)),
            ("fall_wall", MembershipFunction.triangular(q1, mid, mid)),
            ("peak", MembershipFunction.trapezoidal(q1, mid, mid, q3)),
            ("top_wall", MembershipFunction.trapezoidal(mid, q3, hi, hi)),
        )
        return dataclasses.replace(var, terms=var.terms + extra)

    inputs = tuple(walled(v) for v in system.inputs)
    outputs = tuple(walled(v) for v in system.outputs)

    def term(var, new_only=False):
        n = len(var.terms)
        return int(rng.integers(n - 3, n + 1) if new_only else rng.integers(1, n + 1))

    quiet = tuple(0 if o % 2 == 0 else term(v) for o, v in enumerate(outputs))
    rules = system.rules + (
        Rule(tuple(term(v, True) for v in inputs), quiet, 0.9, "and"),
        Rule(tuple(-term(v) for v in inputs), tuple(term(v, True) for v in outputs), 0.7, "and"),
        Rule(tuple(term(v, True) for v in inputs), tuple(term(v) for v in outputs), 1.0, "or"),
    )
    out = dataclasses.replace(system, inputs=inputs, outputs=outputs, rules=rules)
    assert not [d for d in validate_fis(out) if d.severity == "error"]
    return out


def _hostile_points(system, n, rng):
    """Points inside and outside every input's range, with NaN, +inf and
    -inf, the range bounds, -0.0 and every term's corner points mixed in."""
    cols = []
    for var in system.inputs:
        span = var.hi - var.lo
        col = rng.uniform(var.lo - 0.1 * span, var.hi + 0.1 * span, n)
        corners = np.array(
            [var.lo, var.hi, -0.0] + [p for _, mf in var.terms for p in mf.params]
        )
        kind = rng.integers(0, 20, n)
        col[kind == 0] = np.nan
        col[kind == 1] = np.inf
        col[kind == 2] = -np.inf
        at_corner = (kind >= 3) & (kind < 6)
        col[at_corner] = rng.choice(corners, int(np.sum(at_corner)))
        cols.append(col)
    return np.column_stack(cols)


_METHODS = list(
    itertools.product(("min", "prod"), ("max", "probor"), ("min", "prod"), ("max", "sum"))
)


@pytest.mark.parametrize("case", ["default"] + ["-".join(m) for m in _METHODS])
def test_engine_equals_loop_reference_exactly(case):
    # the compiled engine must reproduce the per-term, per-rule loops bit
    # for bit: outputs feed accept/reject decisions at exact thresholds
    rng = np.random.default_rng(list(map(ord, case)))
    if case == "default":
        system = default_system()
    else:
        and_m, or_m, imp, agg = case.split("-")
        # the grid size only sets the centroid's sample count; a small one
        # keeps the 10k-row blocks light
        system = dataclasses.replace(
            _with_edge_cases(random_system(rng), rng),
            and_method=and_m,
            or_method=or_m,
            implication=imp,
            aggregation=agg,
            resolution=int(rng.integers(2, 202)),
        )
    for n in (1, 4096, 4097, 10_000):
        pts = _hostile_points(system, n, rng)
        got = infer_batch(system, pts)
        values, no_rule, out_of_range = loop_infer_batch(system, pts)
        assert np.array_equal(got.values, values, equal_nan=True)
        assert np.array_equal(got.no_rule_fired, no_rule)
        assert np.array_equal(got.out_of_range, out_of_range)


def test_infer_rejects_wrong_arity():
    with pytest.raises(ValueError):
        infer(default_system(), [1.0, 2.0])
