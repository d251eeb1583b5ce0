"""Type-1 Mamdani fuzzy inference engine.

Fuzzification, rule firing, implication, aggregation over a sampled output
domain, and centroid defuzzification. Systems are immutable after
construction and inference is a pure function of (system, inputs). Each
system compiles its rulebase into lookup tables on first use and keeps
them, so inference on a few rows runs a fixed number of numpy calls
whatever the number of terms and rules (sum aggregation keeps one
addition per rule, in rulebase order): 38 for one row of the default
rulebase. The tables are never written after they are built, so they are
shared freely across threads.

Every membership, of an input term, an output term's grid or a
``MembershipFunction`` called directly, comes from one formula
(``_Terms``). A NaN input has membership 0 in a triangular or trapezoidal
term and NaN in a gaussian one.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

MF_KINDS = ("gaussian", "triangular", "trapezoidal")
AND_METHODS = ("min", "prod")
OR_METHODS = ("max", "probor")
IMPLICATION_METHODS = ("min", "prod")
AGGREGATION_METHODS = ("max", "sum")
DEFUZZIFICATION_METHODS = ("centroid",)

DEFAULT_RESOLUTION = 101

# constants of the per-call arithmetic as 0-d arrays, which a ufunc takes
# as they are; a Python float is converted on every call
_ZERO, _ONE, _MINUS_HALF = np.array(0.0), np.array(1.0), np.array(-0.5)


@dataclass(frozen=True)
class MembershipFunction:
    """A parametric membership function over the reals.

    Parameter conventions (matching the `.fis` interchange order):
      gaussian:    (sigma, center), sigma > 0
      triangular:  (a, b, c) with a <= b <= c
      trapezoidal: (a, b, c, d) with a <= b <= c <= d
    """

    kind: str
    params: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "params", tuple(float(p) for p in self.params))

    @classmethod
    def gaussian(cls, sigma: float, center: float) -> "MembershipFunction":
        return cls("gaussian", (sigma, center))

    @classmethod
    def triangular(cls, a: float, b: float, c: float) -> "MembershipFunction":
        return cls("triangular", (a, b, c))

    @classmethod
    def trapezoidal(cls, a: float, b: float, c: float, d: float) -> "MembershipFunction":
        return cls("trapezoidal", (a, b, c, d))

    def __call__(self, x):
        """Membership degree in [0, 1]; accepts a scalar or an ndarray."""
        scalar = np.isscalar(x) or (isinstance(x, np.ndarray) and x.ndim == 0)
        y = _memberships([self], np.asarray(x, dtype=float))[0]
        return float(y) if scalar else y


class _Terms:
    """Membership of a list of (input index, term) pairs, evaluated together.

    One ``take``, one subtraction and one division fill a table of
    quotients, a row per gaussian term and two per triangle or trapezoid
    (a triangle (a, b, c) is the trapezoid (a, b, b, c)): first every
    gaussian's z = (x - center) / sigma, then every rising limb
    (x - a) / (b - a), then every falling limb (x - d) / (c - d). A
    gaussian's membership is exp(-0.5 * z * z). A trapezoid's is
    min(rise, fall) clipped to [0, 1]: rounding is monotone, so that is
    the limb on its open interval, 1 on [b, c] and 0 elsewhere. A
    vertical limb (a == b or c == d) has width 1 or -1, so its quotient
    is the signed distance into the term, and 1 + its sign is 0 outside
    and at least 1 from the edge in. A NaN input is on no limb, so its
    membership is 0 in a trapezoid, and NaN in a gaussian. Term j of
    the result is term ``order[j]`` of the list.
    """

    def __init__(self, terms: Sequence[tuple[int, MembershipFunction]]):
        for _, mf in terms:
            if mf.kind not in MF_KINDS:
                raise ValueError(f"unknown membership function kind: {mf.kind!r}")
        gauss = [j for j, (_, mf) in enumerate(terms) if mf.kind == "gaussian"]
        linear = [j for j, (_, mf) in enumerate(terms) if mf.kind != "gaussian"]
        self.order, self.n_gauss = gauss + linear, len(gauss)
        self.input = np.array([terms[j][0] for j in gauss + linear + linear], dtype=np.intp)
        sigma, center = np.array([terms[j][1].params for j in gauss]).reshape(-1, 2).T
        trapezoids = [terms[j][1].params for j in linear]
        trapezoids = [q if len(q) == 4 else (q[0], q[1], q[1], q[2]) for q in trapezoids]
        a, b, c, d = np.array(trapezoids).reshape(-1, 4).T
        self.edge = np.concatenate([center, a, d])[:, None]
        rise, fall = np.where(b > a, b - a, 1.0), np.where(d > c, c - d, -1.0)
        self.width = np.concatenate([sigma, rise, fall])[:, None]
        self.walls = len(gauss) + np.flatnonzero(np.concatenate([b <= a, d <= c]))

    def __call__(self, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Memberships (terms, N) of inputs ``x`` (inputs, N), into ``out``."""
        z = x.take(self.input, axis=0)
        z -= self.edge
        z /= self.width
        g, t = self.n_gauss, len(out)
        if self.walls.size:
            z[self.walls] = np.sign(z[self.walls]) + 1.0
        gauss, lin, zg = out[:g], out[g:], z[:g]
        np.multiply(zg, _MINUS_HALF, out=gauss)
        gauss *= zg
        np.exp(gauss, out=gauss)
        np.fmin(z[g:t], z[t:], out=lin)
        np.fmax(lin, _ZERO, out=lin)  # a NaN input is on no limb
        np.fmin(lin, _ONE, out=lin)
        # -0.0 (a falling limb's end, or an underflow) becomes 0.0: which
        # of -0.0 and 0.0 fmax returns differs between its loops
        lin += _ZERO
        return out


def _memberships(mfs: Sequence[MembershipFunction], x: np.ndarray) -> np.ndarray:
    """Membership of ``x`` in each of ``mfs``: (len(mfs), *x.shape)."""
    terms = _Terms([(0, mf) for mf in mfs])
    with np.errstate(over="ignore"):  # past ~1e154 sigmas -0.5*z*z is -inf; its exp, 0, is right
        y = terms(x.reshape(1, -1), np.empty((len(mfs), x.size)))[np.argsort(terms.order)]
    return y.reshape(len(mfs), *x.shape)


@dataclass(frozen=True)
class LinguisticVariable:
    """A named variable over a finite range with ordered linguistic terms."""

    name: str
    lo: float
    hi: float
    terms: tuple[tuple[str, MembershipFunction], ...]

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))

    def grid(self, resolution: int) -> np.ndarray:
        """Uniform sample grid over [lo, hi] including both endpoints."""
        return np.linspace(self.lo, self.hi, resolution)

    def fuzzify(self, x):
        """Membership degree of ``x`` in every term, in declaration order.

        ``x`` may lie outside [lo, hi]; memberships are evaluated as-is.
        Scalar input yields a 1-D array (terms,); an (N,) array yields
        (terms, N).
        """
        return _memberships([mf for _, mf in self.terms], np.asarray(x, dtype=float))


@dataclass(frozen=True)
class Rule:
    """One fuzzy rule in matrix encoding.

    Antecedent entries are per-input term indices: 0 means "don't care",
    n selects the n-th term (1-based), -n negates it. Consequent entries
    are per-output term indices (0 = no contribution to that output).
    """

    antecedent: tuple[int, ...]
    consequent: tuple[int, ...]
    weight: float = 1.0
    connective: str = "and"

    def __post_init__(self):
        object.__setattr__(self, "antecedent", tuple(int(a) for a in self.antecedent))
        object.__setattr__(self, "consequent", tuple(int(c) for c in self.consequent))


@dataclass(frozen=True)
class FuzzySystem:
    """A complete Mamdani system: variables, rulebase, and operators."""

    name: str
    inputs: tuple[LinguisticVariable, ...]
    outputs: tuple[LinguisticVariable, ...]
    rules: tuple[Rule, ...]
    and_method: str = "min"
    or_method: str = "max"
    implication: str = "min"
    aggregation: str = "max"
    defuzzification: str = "centroid"
    resolution: int = DEFAULT_RESOLUTION

    def __post_init__(self):
        object.__setattr__(self, "inputs", tuple(self.inputs))
        object.__setattr__(self, "outputs", tuple(self.outputs))
        object.__setattr__(self, "rules", tuple(self.rules))

    @functools.cached_property
    def _compiled(self) -> "_Compiled":
        """Inference tables, built on first use and kept with the system."""
        return _Compiled(self)


@dataclass(frozen=True)
class InferenceResult:
    """Crisp outputs plus evidence flags for one inference."""

    values: tuple[float, ...]
    no_rule_fired: bool
    out_of_range: bool


@dataclass(frozen=True)
class BatchInference:
    """Vectorized inference over N input points."""

    values: np.ndarray        # (N, n_outputs)
    no_rule_fired: np.ndarray  # (N,) bool
    out_of_range: np.ndarray   # (N,) bool


class _Compiled:
    """Tables that let a block of rows run a fixed number of numpy calls
    per implication tile, however many terms and rules there are.

    Degrees: ``terms`` (a ``_Terms``) evaluates every input term in one
    pass, gaussian terms first and triangles and trapezoids after them,
    and last a term whose degree is always 0. Below them sit their
    complements 1 - degree, so the last row is all 1.

    Rules: AND rules first, OR rules after them, then one OR rule whose
    strength is always 0. ``ante`` gathers each rule's antecedent from
    the degree matrix, one row per input. A negated entry points at the
    complement, and a don't-care entry at the identity of the rule's
    connective (the row of 1 for AND, of 0 for OR), so one reduction per
    connective combines every rule.

    Consequents: per output, ``term_rules`` gathers each term's rules from
    the strengths, after the rule of strength 0 (the max's initial value,
    which also pads the rows to one length), so one max gives every term's
    strength; for sum aggregation, the (rule, term) pairs in rulebase
    order, because the order of the additions is part of the rounding.
    """

    def __init__(self, system: FuzzySystem):
        self.aggregation = system.aggregation
        self.implication = system.implication
        self.or_method = system.or_method
        self.in_lo = np.array([v.lo for v in system.inputs])
        self.in_hi = np.array([v.hi for v in system.inputs])

        declared = [(i, k) for i, v in enumerate(system.inputs) for k in range(len(v.terms))]
        # a trapezoid with NaN corners is on no limb, so its membership is 0
        # whatever the input: it is the last term, and its complement is 1
        never = MembershipFunction("trapezoidal", (np.nan,) * 4)
        self.terms = _Terms([(i, system.inputs[i].terms[k][1]) for i, k in declared] + [(0, never)])
        row = dict(zip([declared[j] for j in self.terms.order[:-1]], range(len(declared))))
        self.n_terms = len(declared) + 1

        order = sorted(range(len(system.rules)), key=lambda r: system.rules[r].connective == "or")
        rules = [system.rules[r] for r in order]
        zeros, ones = self.n_terms - 1, 2 * self.n_terms - 1

        def gather(rule: Rule, i: int, entry: int) -> int:
            if entry == 0:
                return zeros if rule.connective == "or" else ones
            return row[i, abs(entry) - 1] + (self.n_terms if entry < 0 else 0)

        self.ante = np.array(
            [[gather(rule, i, e) for i, e in enumerate(rule.antecedent)] for rule in rules]
            + [[zeros] * len(system.inputs)],
            dtype=np.intp,
        ).reshape(len(rules) + 1, len(system.inputs))
        self.n_and = sum(rule.connective != "or" for rule in rules)
        self.weights = np.array([rule.weight for rule in rules] + [1.0]).reshape(-1, 1)
        self.and_op = np.minimum if system.and_method == "min" else np.multiply

        res = system.resolution
        # (terms, 1, res) membership of each output term on its grid
        self.term_grids = [
            _memberships([mf for _, mf in v.terms], v.grid(res))[:, None, :] for v in system.outputs
        ]
        # the centroid folds each grid about its midpoint c: grid point i
        # sits at c + h * u_i, with u_i = (2i - (res - 1)) / (res - 1) and
        # h the half-span, and u_(res-1-i) is exactly -u_i
        half = res // 2
        self.low, self.high = slice(0, half), slice(res - 1, res - 1 - half, -1)
        self.u = (2 * np.arange(half) - (res - 1)) / (res - 1)
        self.midpoints = [np.array((v.lo + v.hi) / 2.0) for v in system.outputs]
        self.half_spans = [np.array((v.hi - v.lo) / 2.0) for v in system.outputs]
        at = {r: p for p, r in enumerate(order)}
        self.term_rules, self.sum_pairs = [], []
        for o, v in enumerate(system.outputs):
            ps = [[p for p, rule in enumerate(rules) if rule.consequent[o] == k + 1] for k in range(len(v.terms))]
            width = 1 + max(map(len, ps), default=0)
            self.term_rules.append(np.array([[len(rules)] * (width - len(p)) + p for p in ps], dtype=np.intp))
            cons = [(r, rule.consequent[o] - 1) for r, rule in enumerate(system.rules) if rule.consequent[o]]
            self.sum_pairs.append([(at[r], t) for r, t in cons])

    def degrees(self, clamped: np.ndarray) -> np.ndarray:
        """(2 * terms, rows): term degrees, then their complements."""
        t = self.n_terms
        deg = np.empty((2 * t, clamped.shape[0]))
        self.terms(clamped.T, deg[:t])
        np.subtract(_ONE, deg[:t], out=deg[t:])
        return deg

    def strengths(self, deg: np.ndarray) -> np.ndarray:
        """Weighted firing strength of every rule, in table order, then a
        0: (R + 1, rows)."""
        picked = deg.take(self.ante, axis=0)  # (R + 1, inputs, rows)
        s = np.empty((len(picked), deg.shape[1]))
        a = self.n_and
        self.and_op.reduce(picked[:a], axis=1, out=s[:a])
        if self.or_method == "max":
            np.maximum.reduce(picked[a:], axis=1, out=s[a:])
        else:  # probor, input by input as c + (d - c * d)
            s[a:] = picked[a:, 0]
            for i in range(1, picked.shape[1]):
                d = picked[a:, i]
                s[a:] += d - s[a:] * d
        s *= self.weights
        return s


# rows per inference block; its per-term and per-rule arrays (the
# degrees and the gathered antecedents) stay under 1 MB with the default
# rulebase
_BLOCK_ROWS = 4096
# rows per implication tile; the (terms, rows, grid) temporary is about
# 600 kB with the default three output terms, so it stays in a core's L2
# cache (a whole block's would be 10 MB)
_TILE_ROWS = 256


def infer_batch(system: FuzzySystem, points: np.ndarray) -> BatchInference:
    """Run the full Mamdani pipeline at each row of ``points``.

    Inputs outside a variable's declared range are clamped first and the
    point is flagged ``out_of_range``; a NaN input is flagged too and
    stays NaN, so its membership is 0 in a triangular or trapezoidal
    term and NaN in a gaussian one. An output whose aggregated
    membership is identically zero falls back to the range midpoint and
    flags ``no_rule_fired``.

    The work runs on tables compiled once per system (``_Compiled``):
    every input term's membership from one table of quotients (a gather,
    a subtraction and a division, then three calls for the gaussian terms
    and four for the others), rule strengths by one gather and one
    reduction per connective, and term strengths by one gather and one
    max per output. Up to ``_TILE_ROWS`` rows therefore cost a fixed
    number of numpy calls, 38 with the default rulebase, however many
    terms and rules there are. Rows are processed in blocks of
    ``_BLOCK_ROWS``, and the implication, whose temporary holds every
    output term, in tiles of ``_TILE_ROWS``, so the temporaries stay in
    cache.

    Every step is row-wise, the centroid included, so a row's outputs do
    not depend on the rows it is inferred with. Grid point i of an output
    sits at c + h * u_i (see ``_Compiled``), so the centroid is
    c + h * sum_i u_i agg_i / sum_i agg_i, with the numerator taken as
    sum_(i < res/2) u_i (agg_i - agg_(res-1-i)): an aggregate symmetric
    about the midpoint c gives exactly c.
    """
    comp = system._compiled
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1] != len(system.inputs):
        raise ValueError(
            f"expected {len(system.inputs)} inputs per point, got {pts.shape[1]}"
        )
    # np.clip's result to the bit, sign of zero included, in fewer calls
    clamped = np.minimum(comp.in_hi, np.maximum(comp.in_lo, pts))
    out_of_range = (clamped != pts).any(axis=1)

    n = pts.shape[0]
    values = np.empty((n, len(system.outputs)))
    no_rule = np.zeros(n, dtype=bool)
    for b in range(0, n, _BLOCK_ROWS):
        rows = slice(b, b + _BLOCK_ROWS)
        _infer_block(comp, clamped[rows], values[rows], no_rule[rows])
    return BatchInference(values=values, no_rule_fired=no_rule, out_of_range=out_of_range)


def _infer_block(
    comp: _Compiled, clamped: np.ndarray, values: np.ndarray, no_rule: np.ndarray
) -> None:
    """Inference for one block of clamped rows, written into ``values``
    and ``no_rule`` (views into the caller's result arrays).

    Each tile's aggregate is folded into the centroid's numerator, and
    summed into its area, while it is in cache. Both are sums along one
    row, so a row's result does not depend on its neighbours.
    """
    n = clamped.shape[0]
    strengths = comp.strengths(comp.degrees(clamped))
    for o, tgrids in enumerate(comp.term_grids):
        if comp.aggregation == "max":
            # max_r impl(s_r, g) == impl(max_r s_r, g) for min and prod, so
            # the rules collapse into one strength per term first
            term_strength = strengths.take(comp.term_rules[o], axis=0).max(axis=1)
        for r in range(0, n, _TILE_ROWS):
            rows = slice(r, r + _TILE_ROWS)
            tile_dead = no_rule[rows]
            if comp.aggregation == "max":
                s = term_strength[:, rows, None]
                agg = (s * tgrids if comp.implication == "prod" else np.minimum(s, tgrids)).max(axis=0)
            else:  # sum in rulebase order, clipped at 1
                agg = np.zeros((len(tile_dead), tgrids.shape[2]))
                for q, t in comp.sum_pairs[o]:
                    if comp.implication == "min":
                        agg += np.minimum(strengths[q, rows, None], tgrids[t])
                    else:
                        agg += strengths[q, rows, None] * tgrids[t]
                np.clip(agg, 0.0, 1.0, out=agg)
            # sum_i u_i (agg_i - agg_(res-1-i)) over the first half; one
            # einsum pass is cheaper than an in-place product and a sum
            num = np.einsum("ij,j->i", agg[:, comp.low] - agg[:, comp.high], comp.u)
            area = agg.sum(axis=1)
            dead = area == _ZERO
            tile_dead |= dead
            # a dead row's aggregate is all zero, so its numerator is 0 and
            # its centroid the midpoint
            values[rows, o] = comp.midpoints[o] + comp.half_spans[o] * num / (area + dead)


def infer(system: FuzzySystem, values: Sequence[float]) -> InferenceResult:
    """Single-point inference; same arithmetic as the batch path."""
    res = infer_batch(system, np.asarray(values, dtype=float)[None, :])
    return InferenceResult(
        values=tuple(float(v) for v in res.values[0]),
        no_rule_fired=bool(res.no_rule_fired[0]),
        out_of_range=bool(res.out_of_range[0]),
    )


def control_surface(
    system: FuzzySystem,
    axis_i: int,
    axis_j: int,
    fixed: Mapping[int, float],
    grid: tuple[int, int] = (50, 50),
    output: int = 0,
) -> np.ndarray:
    """Crisp output over a uniform 2-D slice of the input space.

    ``fixed`` maps each non-axis input index, and nothing else, to its
    held value. Cells where no rule fired are recorded as NaN rather than
    aborting the surface. Returns an (n_i, n_j) matrix.
    """
    n_in = len(system.inputs)
    for axis in (axis_i, axis_j):
        if not 0 <= axis < n_in:
            raise ValueError(f"axis {axis} is not an input index (0 to {n_in - 1})")
    if axis_i == axis_j:
        raise ValueError("axis_i and axis_j must differ")
    ni, nj = grid
    if ni < 2 or nj < 2:
        raise ValueError("grid dimensions must be at least 2")
    rest = [k for k in range(n_in) if k not in (axis_i, axis_j)]
    missing = [k for k in rest if k not in fixed]
    if missing:
        raise ValueError(f"fixed is missing values for inputs {missing}")
    stray = [k for k in fixed if k not in rest]
    if stray:
        raise ValueError(f"fixed holds values for {stray}, which are axes or not input indices")
    xi = system.inputs[axis_i].grid(ni)
    xj = system.inputs[axis_j].grid(nj)
    pts = np.zeros((ni * nj, n_in))
    for k in rest:
        pts[:, k] = fixed[k]
    mi, mj = np.meshgrid(xi, xj, indexing="ij")
    pts[:, axis_i] = mi.ravel()
    pts[:, axis_j] = mj.ravel()
    res = infer_batch(system, pts)
    surf = res.values[:, output].copy()
    surf[res.no_rule_fired] = np.nan
    return surf.reshape(ni, nj)
