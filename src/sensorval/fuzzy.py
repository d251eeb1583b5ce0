"""Type-1 Mamdani fuzzy inference engine.

Fuzzification, rule firing, implication, aggregation over a sampled output
domain, and centroid defuzzification. Systems are immutable after
construction and inference is a pure function of (system, inputs). Each
system compiles its rulebase into lookup tables on first use and keeps
them, so inference on a few rows runs a fixed number of numpy calls
whatever the number of terms and rules (sum aggregation keeps one
addition per rule, in rulebase order). The tables are shared freely
across threads.

A NaN input has membership 0 in a triangular or trapezoidal term and NaN
in a gaussian one.
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
        xs = np.asarray(x, dtype=float)
        y = _evaluate_mf(self.kind, self.params, np.atleast_1d(xs))
        return float(y[0]) if scalar else y.reshape(xs.shape)


def _evaluate_mf(kind: str, params: tuple[float, ...], x: np.ndarray) -> np.ndarray:
    if kind == "gaussian":
        return _gaussian(x, *params)
    if kind in ("triangular", "trapezoidal"):
        return _linear(x.reshape(1, -1), *_linear_table([params]))[0].reshape(x.shape)
    raise ValueError(f"unknown membership function kind: {kind!r}")


def _gaussian(x, sigma, center):
    """Gaussian membership; broadcasts over ``x`` and the parameters."""
    z = (x - center) / sigma
    return np.exp(-0.5 * z * z)


def _linear_table(params: Sequence[tuple[float, ...]]) -> tuple[np.ndarray, ...]:
    """Broadcast tables for triangle and trapezoid terms, one row each.

    A triangle (a, b, c) enters as the trapezoid (a, b, b, c). Returns
    ``(edge, width, lo, hi, b, c)``. The first four are stacked as
    (2, terms, 1), rising limb over falling limb: the rising limb is
    (x - a) / (b - a) on the open interval (a, b), the falling limb
    (x - d) / (c - d), which is exactly (d - x) / (d - c), on (c, d).
    A vertical edge has an empty interval, so its width is never used
    and is stored as 1 to keep the division from warning. ``b`` and
    ``c`` bound the plateau, (terms, 1).
    """
    p = np.array(
        [q if len(q) == 4 else (q[0], q[1], q[1], q[2]) for q in params], dtype=float
    ).reshape(-1, 4)[:, :, None]
    a, b, c, d = p[:, 0], p[:, 1], p[:, 2], p[:, 3]
    rise = np.where(b > a, b - a, 1.0)
    fall = np.where(d > c, c - d, 1.0)
    return np.stack([a, d]), np.stack([rise, fall]), np.stack([a, c]), np.stack([b, d]), b, c


def _linear(x, edge, width, lo, hi, b, c):
    """Trapezoid membership of ``x`` (terms, N) from ``_linear_table``.

    Each limb holds on its open interval and the plateau [b, c] is 1;
    later regions win where they meet. A NaN input lies in no region, so
    its membership is 0 (a gaussian term gives NaN instead).
    """
    limb = (x - edge) / width
    inside = (x > lo) & (x < hi)
    y = np.where(inside[1], limb[1], np.where(inside[0], limb[0], 0.0))
    return np.where((x >= b) & (x <= c), 1.0, y)


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
        xs = np.asarray(x, dtype=float)
        scalar = xs.ndim == 0
        degs = np.stack(
            [_evaluate_mf(mf.kind, mf.params, np.atleast_1d(xs)) for _, mf in self.terms]
        )
        return degs[:, 0] if scalar else degs


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

    Degrees: the input terms in one flat order, gaussian terms first and
    triangles and trapezoids after them, each kind evaluated for all of
    its terms in one broadcast expression. Below them sit their
    complements 1 - degree, then a row of ones and a row of zeros.

    Rules: AND rules first, OR rules after them. ``ante`` gathers each
    rule's antecedent from the degree matrix, one row per input. A
    negated entry points at the complement, and a don't-care entry at
    the identity of the rule's connective (1 for AND, 0 for OR), so one
    reduction per connective combines every rule.

    Consequents: per output, a (terms, rules, 1) mask of the rules that
    conclude each term, and, for sum aggregation, the (rule, term) pairs
    in rulebase order, because the order of the additions is part of the
    rounding.
    """

    def __init__(self, system: FuzzySystem):
        self.aggregation = system.aggregation
        self.implication = system.implication
        self.or_method = system.or_method
        self.in_lo = np.array([v.lo for v in system.inputs])
        self.in_hi = np.array([v.hi for v in system.inputs])

        terms = [
            (i, k, mf) for i, v in enumerate(system.inputs) for k, (_, mf) in enumerate(v.terms)
        ]
        for _, _, mf in terms:
            if mf.kind not in MF_KINDS:
                raise ValueError(f"unknown membership function kind: {mf.kind!r}")
        gauss = [t for t in terms if t[2].kind == "gaussian"]
        linear = [t for t in terms if t[2].kind != "gaussian"]
        row = {(i, k): r for r, (i, k, _) in enumerate(gauss + linear)}
        self.n_terms, self.n_gauss = len(terms), len(gauss)
        self.gauss_input = np.array([i for i, _, _ in gauss], dtype=np.intp)
        sigma_center = np.array([mf.params for _, _, mf in gauss], dtype=float).reshape(-1, 2)
        self.gauss_params = (sigma_center[:, :1], sigma_center[:, 1:])
        self.linear_input = np.array([i for i, _, _ in linear], dtype=np.intp)
        self.linear_table = _linear_table([mf.params for _, _, mf in linear])
        self.identities = np.array([[1.0], [0.0]])

        order = sorted(range(len(system.rules)), key=lambda r: system.rules[r].connective == "or")
        rules = [system.rules[r] for r in order]
        ones, zeros = 2 * self.n_terms, 2 * self.n_terms + 1

        def gather(rule: Rule, i: int, entry: int) -> int:
            if entry == 0:
                return zeros if rule.connective == "or" else ones
            return row[i, abs(entry) - 1] + (self.n_terms if entry < 0 else 0)

        self.ante = np.array(
            [[gather(rule, i, e) for i, e in enumerate(rule.antecedent)] for rule in rules],
            dtype=np.intp,
        ).reshape(len(rules), len(system.inputs))
        self.n_and = sum(rule.connective != "or" for rule in rules)
        self.weights = np.array([rule.weight for rule in rules]).reshape(-1, 1)
        self.and_op = np.minimum if system.and_method == "min" else np.multiply

        res = system.resolution
        # (terms, 1, res) membership of each output term on its grid
        self.term_grids = [
            np.stack([_evaluate_mf(mf.kind, mf.params, v.grid(res)) for _, mf in v.terms])[:, None, :]
            for v in system.outputs
        ]
        # the centroid folds each grid about its midpoint c: grid point i
        # sits at c + h * u_i, with u_i = (2i - (res - 1)) / (res - 1) and
        # h the half-span, and u_(res-1-i) is exactly -u_i
        self.resolution, self.half = res, res // 2
        self.u = (2 * np.arange(self.half) - (res - 1)) / (res - 1)
        self.midpoints = np.array([(v.lo + v.hi) / 2.0 for v in system.outputs])
        self.half_spans = np.array([(v.hi - v.lo) / 2.0 for v in system.outputs])
        cons = np.array([rule.consequent for rule in rules], dtype=np.intp)
        cons = cons.reshape(len(rules), len(system.outputs))
        self.cons_mask = [
            (cons[:, o] == np.arange(1, len(v.terms) + 1)[:, None])[:, :, None]
            for o, v in enumerate(system.outputs)
        ]
        at = {r: p for p, r in enumerate(order)}
        self.sum_pairs = [
            [
                (at[r], rule.consequent[o] - 1)
                for r, rule in enumerate(system.rules)
                if rule.consequent[o]
            ]
            for o in range(len(system.outputs))
        ]

    def degrees(self, clamped: np.ndarray) -> np.ndarray:
        """(2 * terms + 2, rows): term degrees, their complements, 1 and 0."""
        x = clamped.T
        t, g = self.n_terms, self.n_gauss
        deg = np.empty((2 * t + 2, clamped.shape[0]))
        deg[:g] = _gaussian(x.take(self.gauss_input, axis=0), *self.gauss_params)
        deg[g:t] = _linear(x.take(self.linear_input, axis=0), *self.linear_table)
        np.subtract(1.0, deg[:t], out=deg[t : 2 * t])
        deg[2 * t :] = self.identities
        return deg

    def strengths(self, deg: np.ndarray) -> np.ndarray:
        """Weighted firing strength of every rule, in table order: (R, rows)."""
        picked = deg.take(self.ante, axis=0)  # (R, inputs, rows)
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
    membership degrees by one broadcast expression per kind of term, rule
    strengths by one gather and one reduction per connective, and term
    strengths by one masked max. Up to ``_TILE_ROWS`` rows therefore cost
    a fixed handful of numpy calls, so a single row is cheap. Rows are
    processed in blocks of ``_BLOCK_ROWS``, and the implication, whose
    temporary holds every output term, in tiles of ``_TILE_ROWS``, so the
    temporaries stay in cache.

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
    agg_buf = np.empty((min(n, _TILE_ROWS), comp.resolution))
    fold_buf = np.empty((len(agg_buf), comp.half))
    num, area = np.empty(n), np.empty(n)
    for o, tgrids in enumerate(comp.term_grids):
        if comp.aggregation == "max":
            # max_r impl(s_r, g) == impl(max_r s_r, g) for min and prod, so
            # the rules collapse into one strength per term first
            s = np.where(comp.cons_mask[o], strengths, 0.0).max(axis=1, initial=0.0)[:, :, None]
        for r in range(0, n, _TILE_ROWS):
            rows = slice(r, r + _TILE_ROWS)
            agg, fold = agg_buf[: min(_TILE_ROWS, n - r)], fold_buf[: min(_TILE_ROWS, n - r)]
            if comp.aggregation == "max":
                tile = s[:, rows]
                impl = tile * tgrids if comp.implication == "prod" else np.minimum(tile, tgrids)
                impl.max(axis=0, out=agg)
            else:  # sum in rulebase order, clipped at 1
                agg[:] = 0.0
                for q, t in comp.sum_pairs[o]:
                    if comp.implication == "min":
                        agg += np.minimum(strengths[q, rows, None], tgrids[t])
                    else:
                        agg += strengths[q, rows, None] * tgrids[t]
                np.clip(agg, 0.0, 1.0, out=agg)
            # sum_i u_i (agg_i - agg_(res-1-i)) over the first half; one
            # einsum pass is cheaper than an in-place product and a sum
            np.subtract(agg[:, : comp.half], agg[:, ::-1][:, : comp.half], out=fold)
            np.einsum("ij,j->i", fold, comp.u, out=num[rows])
            agg.sum(axis=1, out=area[rows])
        dead = area == 0.0
        no_rule |= dead
        # a dead row's aggregate is all zero, so its numerator is 0 and its
        # centroid the midpoint
        values[:, o] = comp.midpoints[o] + comp.half_spans[o] * num / (area + dead)


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
