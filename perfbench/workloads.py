"""Seeded inputs, op lists and output checks of the three workloads.

An op is one call into a public toricmu function.  Each workload is a fixed
list of ops whose input shapes never change; the seed only picks the random
parts (polygons, potentials, directions, rho values, tau grids).  The
generators here are the benchmark's own and the program only ever sees the
inputs they produce.

Inputs are generated once per run as plain rational data (``make_raw``) and
turned into fresh toricmu objects before every pass (``build``), outside the
timed region.  toricmu caches triangulations and cell complexes on those
objects, so rebuilding them makes every pass do the same work, cache filling
included, instead of later passes reading what the first one cached.

Every op carries a check drawn from an identity that does not reuse the op's
own result path where that is possible, and a digest: plain data (floats,
exact rationals tagged ``["Q", "p/q"]``, strings) used to compare a pass with
the recorded reference, with the other passes of the run, and a traced pass
with an untraced one.  Checks compute their own constants (volumes, cell
vertices) after the op has run, so building the op list warms no cache that
the op would otherwise fill itself.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import math
import random
from fractions import Fraction as Fr

import toricmu as tm
from toricmu import cli

DEFAULT_SEED = 1

GTOL = 1e-8
MAX_ITER = 40
HEXAGON_MAX_ITER = 30


class CheckFailed(Exception):
    """An op returned an output that fails its identity check."""


class Op:
    """One public toricmu call, its output check and its digest."""

    __slots__ = ("label", "call", "check", "digest")

    def __init__(self, label, call, check, digest):
        self.label = label
        self.call = call
        self.check = check
        self.digest = digest


def require(condition, message):
    if not condition:
        raise CheckFailed(message)


def rel_gap(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def finite(*values):
    return all(math.isfinite(v) for v in values)


def q_tag(x):
    return ["Q", str(Fr(x))]


# -- seeded generators ----------------------------------------------------------

P5_VERTICES = [(-1, -1), (1, -1), (1, Fr(-1, 2)), (Fr(-1, 2), 1), (-1, 1)]
DONALDSON_VERTICES = [
    (1, 0), (0, 1), (Fr(3, 10), Fr(3, 10)), (3, 1), (3, 0),
    (Fr(17, 5), Fr(3, 10)), (0, 3), (1, 3), (Fr(3, 10), Fr(17, 5)),
]
CUBE_VERTICES = [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)]
CORNER_DEGREES = [10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000]
LAMBDAS = (0.0, -1.0, 0.7)


def grid_fraction(rng, lo, hi, den):
    """Uniform multiple of 1/den in [lo, hi]."""
    return Fr(rng.randint(math.ceil(lo * den), math.floor(hi * den)), den)


def hexagon(rng):
    """Six vertices of the 1/4 grid in [-3, 3]^2, in strictly convex position.

    Same coordinate grid and box as the C8 property suite, but with a fixed
    vertex count so that every seed asks for comparable work.
    """
    while True:
        pts = []
        for k in range(6):
            angle = (k + rng.uniform(-0.1, 0.1)) * math.pi / 3.0
            radius = rng.uniform(2.0, 2.5)
            pts.append(
                (
                    Fr(round(4 * radius * math.cos(angle)), 4),
                    Fr(round(4 * radius * math.sin(angle)), 4),
                )
            )
        if strictly_convex(pts):
            return pts


def strictly_convex(pts):
    """True when the closed polygon pts turns left at every vertex."""
    turns = [
        (b[0] - a[0]) * (c[1] - b[1]) - (b[1] - a[1]) * (c[0] - b[0])
        for a, b, c in zip(pts, pts[1:] + pts[:1], pts[2:] + pts[:2])
    ]
    return all(t > 0 for t in turns)


# Hexagons of the optimize workload: three draws of hexagon() (C8's grid and
# box), each vertex moved by the seed by at most 1/32.  Freshly drawn
# hexagons cost the optimizer 0.4-2.5 s each, so the pass time would follow
# the seed more than the program; near a fixed shape it stays within a few %.
OPTIMIZE_HEXAGONS = [
    [(Fr(9, 4), Fr(1, 4)), (1, Fr(7, 4)), (-1, 2), (-2, Fr(-1, 4)),
     (Fr(-5, 4), Fr(-7, 4)), (Fr(5, 4), -2)],
    [(Fr(9, 4), Fr(-1, 4)), (Fr(5, 4), Fr(7, 4)), (Fr(-3, 2), 2),
     (Fr(-9, 4), Fr(-1, 4)), (Fr(-5, 4), Fr(-7, 4)), (Fr(5, 4), -2)],
    [(2, 0), (1, Fr(7, 4)), (-1, Fr(9, 4)), (Fr(-5, 2), Fr(-1, 4)),
     (Fr(-5, 4), Fr(-7, 4)), (Fr(5, 4), Fr(-7, 4))],
]


def jittered_polygon(rng, anchor, den=32):
    """anchor with every coordinate moved by -1/den, 0 or 1/den, still convex."""
    while True:
        pts = [tuple(Fr(c) + Fr(rng.randint(-1, 1), den) for c in v) for v in anchor]
        if strictly_convex(pts):
            return pts


def interior_point(rng, vertices):
    """Strict convex combination of the vertices with small integer weights."""
    weights = [rng.randint(1, 3) for _ in vertices]
    total = sum(weights)
    dim = len(vertices[0])
    return tuple(
        sum(Fr(w) * Fr(v[i]) for w, v in zip(weights, vertices)) / total
        for i in range(dim)
    )


def tangent_pieces(centers):
    """(eta, lambda) pieces of max_i (|mu|^2 - |mu - c_i|^2).

    Every piece is the strict maximum near its own center, so the potential
    has exactly one cell per (distinct, interior) center whatever the seed.
    """
    return [
        (tuple(2 * c for c in center), sum(c * c for c in center))
        for center in centers
    ]


def distinct_centers(rng, vertices, count):
    centers = []
    while len(centers) < count:
        c = interior_point(rng, vertices)
        if c not in centers:
            centers.append(c)
    return centers


def nonzero_direction(rng, dim, span=2):
    while True:
        eta = tuple(Fr(rng.randint(-span, span)) for _ in range(dim))
        if any(eta):
            return eta


# Centers of the seeded potentials: each is moved by the seed by at most 1/32
# from a fixed anchor, so the values change with the seed while the cell
# complex keeps its shape (and each pass its cost).  With moves of 1/8 the
# kernel calls of the cube sweep ranged over +-12% from seed to seed.
P5_ANCHORS = [
    [(Fr(-1, 2), Fr(-1, 2)), (Fr(1, 2), Fr(-1, 2)), (Fr(-1, 2), Fr(1, 2))],
    [(Fr(-1, 2), 0), (Fr(1, 4), Fr(-1, 2)), (Fr(-1, 4), Fr(1, 4))],
]
CUBE_ANCHORS = [
    (Fr(1, 4), Fr(1, 4), Fr(1, 4)),
    (Fr(3, 4), Fr(1, 4), Fr(1, 2)),
    (Fr(1, 4), Fr(3, 4), Fr(3, 4)),
    (Fr(3, 4), Fr(3, 4), Fr(1, 4)),
]


def jittered(rng, anchors, span=Fr(1, 32), den=32):
    return [
        tuple(c + grid_fraction(rng, -span, span, den) for c in anchor)
        for anchor in anchors
    ]


def segment(rng):
    lo = grid_fraction(rng, -2, 0, 4)
    return [(lo,), (lo + grid_fraction(rng, 1, 3, 4),)]


def make_raw(workload, seed):
    """The seeded inputs of one workload as plain rational data."""
    rng = random.Random("%s:%d" % (workload, seed))
    if workload == "sweep":
        hexagons = [hexagon(rng) for _ in range(40)]
        return {
            "p5_pa": tangent_pieces(jittered(rng, P5_ANCHORS[0])),
            "cube_pa": tangent_pieces(jittered(rng, CUBE_ANCHORS[:3])),
            "futaki": [
                (
                    tuple(grid_fraction(rng, -0.5, 0.5, 8) for _ in range(2)),
                    nonzero_direction(rng, 2),
                    rng.choice(LAMBDAS),
                )
                for _ in range(20)
            ],
            "pairs": [
                (pts, tangent_pieces(distinct_centers(rng, pts, 3)),
                 rng.choice(LAMBDAS))
                for pts in hexagons
            ],
            "affine_rho": [
                (nonzero_direction(rng, 2), rng.uniform(0.5, 2.0)) for _ in range(20)
            ],
            "pair_rho": [rng.uniform(0.5, 2.0) for _ in range(20)],
        }
    if workload == "optimize":
        return {
            "hexagons": [jittered_polygon(rng, h) for h in OPTIMIZE_HEXAGONS],
            "rays": [nonzero_direction(rng, 2, span=3) for _ in range(20)],
            "segments": [segment(rng) for _ in range(80)],
        }
    if workload == "exact":
        return {
            "p5_pa": tangent_pieces(jittered(rng, P5_ANCHORS[0])),
            "p5_pb": tangent_pieces(jittered(rng, P5_ANCHORS[1])),
            "cube_pa": tangent_pieces(jittered(rng, CUBE_ANCHORS)),
        }
    raise ValueError("unknown workload %r" % (workload,))


def build(workload, raw):
    """Fresh toricmu objects for one pass (nothing cached from earlier passes)."""
    P5 = tm.build_polytope(P5_VERTICES)
    if workload == "sweep":
        cube = tm.build_polytope(CUBE_VERTICES)
        pairs = []
        for (pts, pieces, lam) in raw["pairs"]:
            P = tm.build_polytope(pts)
            pairs.append((P, tm.make_pa(pieces, P), lam))
        return {
            "P5": P5,
            "donaldson": tm.build_polytope(DONALDSON_VERTICES),
            "cube": cube,
            "p5_pa": tm.make_pa(raw["p5_pa"], P5),
            "cube_pa": tm.make_pa(raw["cube_pa"], cube),
            "pairs": pairs,
        }
    if workload == "optimize":
        return {
            "P5": P5,
            "hexagons": [tm.build_polytope(pts) for pts in raw["hexagons"]],
            "segments": [tm.build_polytope(pts) for pts in raw["segments"]],
        }
    if workload == "exact":
        cube = tm.build_polytope(CUBE_VERTICES)
        return {
            "P5": P5,
            "cube": cube,
            "p5_pa": tm.make_pa(raw["p5_pa"], P5),
            "p5_pb": tm.make_pa(raw["p5_pb"], P5),
            "cube_pa": tm.make_pa(raw["cube_pa"], cube),
        }
    raise ValueError("unknown workload %r" % (workload,))


# -- ops shared by several workloads ---------------------------------------------


def reproduce_op(case):
    """cli.run in process, with the command's stdout captured as its output."""

    def call():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.run(["reproduce", case])
        return code, buf.getvalue()

    def check(out):
        require(out[0] == 0, "reproduce %s exited %r" % (case, out[0]))

    def digest(out):
        return [out[0], [[_cell(c) for c in line.split(",")]
                         for line in out[1].splitlines()]]

    return Op("cli.reproduce " + case, call, check, digest)


def _cell(text):
    """CSV cell as a comparable value: floats by value, rationals exactly."""
    if any(mark in text for mark in (".", "e", "inf", "nan")):
        try:
            return float(text)
        except ValueError:
            return text
    try:
        return q_tag(Fr(text))
    except (ValueError, ZeroDivisionError):
        return text


def entropy_curve_op(label, P, q0, grid):
    def call():
        return tm.entropy_curve(P, q0, grid=grid)

    def check(report):
        require(len(report) == grid[2], "%s: %d rows" % (label, len(report)))
        for row in report:
            require(
                finite(row.numerator, row.denominator, row.mu, row.sigma),
                "%s: non-finite row at %r" % (label, row.parameter),
            )
        # at rho = 0 the potential vanishes: the integrals are the measures
        vol = float(P.volume())
        bnd = float(P.boundary_measure())
        for row in report:
            if row.parameter == 0.0:
                require(
                    rel_gap(row.denominator, vol) <= 1e-12
                    and rel_gap(row.numerator, bnd) <= 1e-12,
                    "%s: integrals at rho=0 are not vol/boundary" % label,
                )

    def digest(report):
        return [[r.parameter, r.numerator, r.denominator, r.mu, r.sigma]
                for r in report]

    return Op(label, call, check, digest)


# -- sweep -------------------------------------------------------------------------


def sweep_ops(raw, obj):
    P5 = obj["P5"]
    ops = [
        entropy_curve_op("entropy_curve P5", P5, tm.AffineForm((1, 1), 0),
                         (-5.0, 5.0, 201)),
        entropy_curve_op("entropy_curve donaldson", obj["donaldson"],
                         tm.AffineForm((1, 0), 0), (0.0, 5.0, 201)),
        entropy_curve_op("entropy_curve P5 pa", P5, obj["p5_pa"], (0.0, 3.0, 201)),
        entropy_curve_op("entropy_curve cube pa", obj["cube"], obj["cube_pa"],
                         (0.0, 2.0, 51)),
    ]
    for (xi, eta, lam) in raw["futaki"]:
        ops.append(futaki_op(P5, xi, eta, lam))
    for (P, q, lam) in obj["pairs"]:
        ops.append(mu_lambda_op(P, q, lam))
    for (eta, rho) in raw["affine_rho"]:
        ops.append(cross_validate_op(P5, tm.AffineForm(eta, 0), rho))
    for (P, q, _), rho in zip(obj["pairs"], raw["pair_rho"]):
        ops.append(cross_validate_op(P, q, rho))
    ops.append(reproduce_op("blowup-delta:1"))
    ops.append(reproduce_op("donaldson"))
    return ops


def _affine(vector):
    return tm.AffineForm(tuple(Fr(c) for c in vector), 0)


def futaki_op(P, xi, eta, lam):
    """futaki is minus the derivative of mu_lambda(q_xi + t q0) at t = 0."""
    q0 = tm.AffineForm(eta, 0)

    def call():
        return tm.futaki(P, xi, q0, lam=lam)

    def check(value):
        require(finite(value), "futaki is not finite")
        h = Fr(1, 10000)
        plus = tm.mu_lambda(P, _affine([-x + h * e for x, e in zip(xi, eta)]), lam)
        minus = tm.mu_lambda(P, _affine([-x - h * e for x, e in zip(xi, eta)]), lam)
        slope = (plus - minus) / (2 * float(h))
        require(
            abs(slope + value) <= 1e-6 * (1.0 + abs(value)),
            "futaki %.12g vs central difference %.12g" % (value, -slope),
        )

    return Op("futaki", call, check, lambda v: v)


def mu_lambda_op(P, q, lam):
    """Adding a constant to q leaves mu_lambda unchanged."""

    def call():
        return tm.mu_lambda(P, q, lam)

    def check(value):
        require(finite(value), "mu_lambda is not finite")
        shifted = tm.make_pa(
            [tm.AffineForm(p.gradient, p.constant + Fr(3, 7)) for p in q.pieces], P
        )
        other = tm.mu_lambda(P, shifted, lam)
        require(
            abs(other - value) <= 1e-12 * max(1.0, abs(value)),
            "mu_lambda moves under a constant shift: %.17g vs %.17g" % (value, other),
        )

    return Op("mu_lambda", call, check, lambda v: v)


def cross_validate_op(P, q, rho):
    def call():
        return tm.cross_validate(P, q, rho=rho)

    def check(report):
        require(
            report.passed and report.rel_gap <= 1e-7,
            "routes disagree: rel gap %.3g" % report.rel_gap,
        )

    def digest(report):
        return [report.interior_triangulation, report.interior_localization,
                report.boundary_triangulation, report.boundary_localization]

    return Op("cross_validate", call, check, digest)


# -- optimize ----------------------------------------------------------------------


def optimize_ops(raw, obj):
    P5 = obj["P5"]
    ops = [maximize_op("maximize_over_vectors P5", P5, MAX_ITER)]
    for P in obj["hexagons"]:
        ops.append(maximize_op("maximize_over_vectors hexagon", P, HEXAGON_MAX_ITER))
    for eta in raw["rays"]:
        ops.append(ray_op(P5, eta))
    # segments converge in a few steps: the optimizer loop without a stall
    for P in obj["segments"]:
        ops.append(maximize_op("maximize_over_vectors segment", P, MAX_ITER))
    ops.append(reproduce_op("cp1"))
    return ops


def maximize_op(label, P, max_iter):
    # default seeds on purpose: on P5 the seeds (1,0) and (0,1) stall just
    # above gtol and use every iteration
    def call():
        return tm.maximize_over_vectors(P, gtol=GTOL, max_iter=max_iter)

    def check(res):
        require(finite(res.value, *res.xi), "%s: non-finite result" % label)
        require(
            res.gradient_norm <= GTOL or res.status == "boundary-hit",
            "%s: |g| %.3g with status %s" % (label, res.gradient_norm, res.status),
        )

    def digest(res):
        return [list(res.xi), res.value, res.gradient_norm, res.status,
                len(res.trace)]

    return Op(label, call, check, digest)


def ray_op(P, eta):
    """The returned value is the objective at the returned point."""

    def call():
        return tm.maximize_along_ray(P, eta)

    def check(out):
        x, value = out
        require(finite(x, value), "ray maximum is not finite")
        again = tm.mu_lambda(P, _affine([-x * float(c) for c in eta]), 0.0)
        require(
            abs(again - value) <= 1e-12 * max(1.0, abs(value)),
            "ray value %.17g is not the objective %.17g at x*" % (value, again),
        )

    return Op("maximize_along_ray", call, check, lambda out: list(out))


# -- exact -------------------------------------------------------------------------


def exact_ops(raw, obj):
    P5, cube = obj["P5"], obj["cube"]
    qa, qb, qc = obj["p5_pa"], obj["p5_pb"], obj["cube_pa"]
    ops = []
    ops += dh_cdf_ops(qa, 300)
    ops += dh_cdf_ops(qc, 30)
    ops.append(dh_summary_op(qa))
    ops.append(dh_summary_op(qc))
    calabi_out = {}
    ops.append(calabi_op(P5, qa, calabi_out))
    ops.append(normalized_df_op(P5, qa, calabi_out))
    dp = {}
    for p in (1, 2, 1.5):
        ops.append(metric_dp_op(qa, qb, p, dp))
    for p in (1, 1.5):
        ops.append(metric_dp_self_op(qa, p))
    ops.append(metric_dexp_op(qa, qb))
    ops.append(legendre_op(qa))
    ops += rooftop_moment_ops(qa, 20)
    ops.append(spectral_op())
    ops.append(char_mu_op())
    ops.append(reproduce_op("square-qn:5"))
    ops.append(reproduce_op("corner"))
    return ops


def support(q):
    """Exact [min, max] of -q over the polytope (q is max-affine: at vertices)."""
    values = [-q(v) for v in _cell_vertices(q)]
    return min(values), max(values)


def _cell_vertices(q):
    """Points of P where n facets or piece-equality planes meet.

    A superset of the vertices of the cells of q, solved here in exact
    arithmetic rather than read from toricmu's own cell complex.
    """
    P = q.P
    n = P.dim
    rows = [(f.normal, f.offset) for f in P.facets]
    pieces = q.pieces
    for i, a in enumerate(pieces):
        for b in pieces[i + 1:]:
            grad = tuple(x - y for x, y in zip(b.gradient, a.gradient))
            rows.append((grad, a.constant - b.constant))
    out = set()
    for combo in itertools.combinations(rows, n):
        point = _solve([r[0] for r in combo], [r[1] for r in combo])
        if point is not None and P.contains(point):
            out.add(point)
    return sorted(out)


def _solve(A, b):
    """Exact solution of a square system, or None when it is singular."""
    n = len(A)
    M = [list(map(Fr, row)) + [Fr(rhs)] for row, rhs in zip(A, b)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if M[r][col] != 0), None)
        if pivot is None:
            return None
        M[col], M[pivot] = M[pivot], M[col]
        for r in range(n):
            if r != col and M[r][col] != 0:
                f = M[r][col] / M[col][col]
                M[r] = [x - f * y for x, y in zip(M[r], M[col])]
    return tuple(M[i][n] / M[i][i] for i in range(n))


def dh_cdf_ops(q, count):
    """dh_cdf is non-increasing in tau and is the volume at the support's low end."""
    lo, hi = support(q)
    state = {"last": None}
    ops = []
    for i in range(count):
        tau = lo + (hi - lo) * Fr(i, count - 1)

        def call(tau=tau):
            return tm.dh_cdf(q, tau)

        def check(value, i=i):
            last, state["last"] = state["last"], value
            vol = q.P.volume()
            require(0 <= value <= vol, "dh_cdf %s outside [0, vol]" % value)
            if i == 0:
                require(value == vol, "dh_cdf at the support minimum %s != vol %s"
                        % (value, vol))
            elif last is not None:
                require(value <= last, "dh_cdf increases in tau")

        ops.append(Op("dh_cdf", call, check, q_tag))
    return ops


def dh_summary_op(q):
    def check(summary):
        vol = q.P.volume()
        require(summary.moments[0] == vol, "DH moment 0 %s != vol %s"
                % (summary.moments[0], vol))

    def digest(summary):
        return [q_tag(m) for m in summary.moments] + [q_tag(summary.variance)]

    return Op("dh_summary", lambda: tm.dh_summary(q), check, digest)


def calabi_op(P, q, out):
    def check(report):
        vol = float(P.volume())
        require(report.variance >= 0.0 and report.sup_value >= 0.0,
                "negative variance or supremum")
        formula = -2.0 * math.pi * report.m_na / vol - report.variance / (2 * vol)
        require(rel_gap(report.c_na, formula) <= 1e-12 or abs(report.c_na - formula)
                <= 1e-15, "c_na does not match its formula")
        out["report"] = report

    return Op("calabi", lambda: tm.calabi(P, q), check, list)


def normalized_df_op(P, q, calabi_out):
    def check(report):
        require("report" in calabi_out, "no checked calabi report to compare")
        require(tuple(report) == tuple(calabi_out["report"]),
                "normalized_df report differs from calabi")

    return Op("normalized_df", lambda: tm.normalized_df(P, q), check, list)


def metric_dp_op(q, qp, p, seen):
    """Power means (d_p^p / vol)^(1/p) do not decrease with p."""

    def check(value):
        require(finite(value) and value > 0.0, "d_%g = %r" % (p, value))
        vol = float(q.P.volume())
        seen[p] = (value ** p / vol) ** (1.0 / p)
        ordered = [seen[k] for k in sorted(seen)]
        require(
            all(a <= b * (1.0 + 1e-12) for a, b in zip(ordered, ordered[1:])),
            "power means of |q - q'| decrease with p",
        )

    return Op("metric_dp", lambda: tm.metric_dp(q, qp, p), check, lambda v: v)


def metric_dp_self_op(q, p):
    def check(value):
        require(value == 0.0, "d_%g(q, q) = %r" % (p, value))

    return Op("metric_dp self", lambda: tm.metric_dp(q, q, p), check, lambda v: v)


def metric_dexp_op(q, qp):
    """The defining integral of d_exp at the returned beta lies in [1 - 1e-8, 1]."""
    # recomputing the integral adds its own rounding; allow a few ulps of it
    rounding = 1e-14

    def check(beta):
        require(finite(beta) and beta > 0.0, "d_exp = %r" % beta)
        total = 0.0
        for (cell, diff) in _abs_diff_regions(q, qp):
            scaled = tm.AffineForm(
                tuple(g / Fr(beta) for g in diff.gradient), diff.constant / Fr(beta)
            )
            total += tm.polytope_exp_integral(cell, scaled).value
        value = total - float(q.P.volume())
        require(
            1.0 - 1e-8 - rounding <= value <= 1.0 + rounding,
            "d_exp integral %.17g outside [1 - 1e-8, 1]" % value,
        )

    return Op("metric_dexp", lambda: tm.metric_dexp(q, qp), check, lambda v: v)


def _abs_diff_regions(q, qp):
    """(cell, |q - q'| as one affine form) over a common exact refinement."""
    out = []
    for cell, (i, j) in tm.common_cells(q.P, [q, qp]):
        diff = q.pieces[i] - qp.pieces[j]
        if not any(diff.gradient):
            out.append((cell, tm.AffineForm(diff.gradient, abs(diff.constant))))
            continue
        for sign in (1, -1):
            # sign * diff >= 0 on the clipped part
            part = cell.clip(tuple(-sign * g for g in diff.gradient),
                             sign * diff.constant)
            if part is not tm.EMPTY:
                out.append((part, sign * diff))
    return out


def legendre_op(q):
    def call():
        return tm.legendre_dual(tm.legendre(q), q.P)

    def check(back):
        for v in _cell_vertices(q):
            require(back(v) == q(v), "Legendre double dual differs at %r" % (v,))

    def digest(back):
        return [[q_tag(c) for c in p.gradient] + [q_tag(p.constant)]
                for p in sorted(back.pieces, key=lambda p: (p.gradient, p.constant))]

    return Op("legendre_dual", call, check, digest)


def rooftop_moment_ops(q, count):
    """int max(q, -tau)^2: exact at both ends, bounded in between."""
    lo, hi = support(q)  # of -q
    full = None
    ops = []
    for i in range(count):
        tau = (lo - 1) + (hi - lo + 2) * Fr(i, count - 1)

        def call(tau=tau):
            return tm.pa_moment(tm.rooftop(q, tau), 2)

        def check(value, tau=tau):
            nonlocal full
            vol = q.P.volume()
            if tau <= lo:  # -tau >= max q: the rooftop is the constant -tau
                require(value == tau * tau * vol, "flat rooftop moment is off")
            elif tau >= hi:  # -tau <= min q: the rooftop is q itself
                if full is None:
                    full = tm.pa_moment(q, 2)
                require(value == full, "rooftop above q changes its moment")
            else:
                top = max(lo * lo, hi * hi, tau * tau)
                require(0 <= value <= top * vol, "rooftop moment out of range")

        ops.append(Op("pa_moment rooftop", call, check, q_tag))
    return ops


def spectral_op():
    def call():
        F = tm.MonomialFiltration.from_pa(cli.square_qn_potential(5))
        return tm.spectral_measure(F, 60)

    def check(nu):
        require(nu.total_mass() == 1, "spectral measure mass %s" % nu.total_mass())

    def digest(nu):
        return sorted([q_tag(a), q_tag(b)] for a, b in nu.atoms)

    return Op("spectral_measure", call, check, digest)


def char_mu_op():
    target = -4.0 * math.pi * (math.e - 1.0)

    def call():
        return tm.char_mu_estimate(tm.corner_filtration(), CORNER_DEGREES)

    def check(value):
        require(finite(value) and rel_gap(value, target) <= 0.01,
                "characteristic entropy %.6g vs %.6g" % (value, target))

    return Op("char_mu_estimate", call, check, lambda v: v)


OPS = {"sweep": sweep_ops, "optimize": optimize_ops, "exact": exact_ops}


def ops_for(workload, raw, obj):
    return OPS[workload](raw, obj)
