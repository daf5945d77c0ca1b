"""Independent reference implementations used to pin expected test values.

Everything in this module is written from scratch against textbook
formulas (monotone-chain hulls, shoelace areas, Gauss-Legendre and Duffy
quadrature, confluent divided-difference tables, Richardson-extrapolated
central differences, closed-form power integrals over segments and
triangles).  None of it imports the package under test, so
agreement between the two is meaningful evidence rather than a tautology.
The exceptions are clip_rebuild, which rebuilds a clipped region with
build_polytope_beneath_beyond to pin the incremental clip to a full
rebuild by another algorithm, build_polytope_beneath_beyond itself, a
copy of build_polytope as it was when hulls were built by beneath-beyond
instead of by clips of their polar, run on the package's linear algebra
and canonical form to pin the polar hull to the same fields, dh_cdf_clip,
which measures a sublevel set with the package's clip and volume to pin
the divided-difference DH CDF to them, and UncachedObjective, which
replays the optimizer objective's arithmetic on fresh package integrators
to pin its caches, futaki_all_moments, which runs the package's moment
code with the sigma moments always on, and bfgs_ascent_every_iteration, a
copy of the BFGS loop as it was when a stalled run spent every remaining
iteration, run on the package's objective, and ExpIntegratorPerFacet, a
copy of the integrator as it was when each facet had a child integrator,
run on the package's cells and kernel, and boundary_moments_end_points, a
copy of the boundary moments as they were when a segment's facets were
its end points, run on the package's PA functions.
ddexp_full_table is a
package-free oracle of a different kind: a verbatim copy of the scalar divided-difference kernel
as it was when it still filled and squared the whole seed table, kept to
pin the kernel that fills only the entries its answer reads to the same
bits.  poly_moment_per_k, pa_moment_shift, boundary_pa_moment_per_k,
mabuchi_slope_two_pass, calabi_four_pass and DHSummarySixPass are copies
of the exact moment code as it was when every exponent, and the shifted
variance, took its own pass over the simplices; they run on the package's
cells, triangulations and facet restrictions, and pin the one-pass code
to the same Fractions and float bits.  _dot, _primitive, _det, _rank,
_solve, _cross, VertexCone, _chart_coords and _vertex_cones are
package-free verbatim copies of the geometry layer's exact linear algebra
as it was when each kind of system had its own elimination loop, normals
came from Laplace minors and facet charts from a search over row subsets;
they pin the one forward elimination to the same Fractions.
pa_weight_fn_fractions is a verbatim copy of the weight closure of
MonomialFiltration.from_pa as it was when every weight took Fraction
coordinates and the max over the pieces; it runs on the package's PA
functions and pins the integer weights to the same values.
common_cells_split and sup_abs_diff_own_cells are copies of the common
refinement and of the exact sup metric as they were when each split every
function with the package's _split instead of reading a potential's cached
cells; they pin the shared cell complex to the same cells, piece indices,
order and Fractions.  restrict_to_facet_split, with its own copy of
_split, is a copy of the facet restriction as it was when it split the
facet's chart by the restricted pieces; triangulate_charts is a copy of
the triangulation as it was when every facet, a simplex included, was
triangulated in a chart polytope built for it; det_elimination and
chart_coords_elimination are copies of _det and _chart_coords as they
were before their closed forms for small systems.  All four run on the
package's polytopes and pin the new code to the same cells, simplices
and Fractions.  The float copies sum as the package does, left to right
from 0.0 through this module's own _float_sum, never builtin sum, so their
pins hold on every interpreter.
"""

import math
from fractions import Fraction
from itertools import combinations, product
from math import gcd

import mpmath
import numpy as np

TWO_PI = 2.0 * math.pi


def frac_vec(point):
    return tuple(Fraction(c) for c in point)


def hull_ccw(points):
    """Convex hull of 2-D rational points in counterclockwise order.

    Andrew's monotone chain over exact Fractions; collinear boundary
    points are dropped.
    """
    pts = sorted(set(frac_vec(p) for p in points))
    if len(pts) <= 2:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def shoelace_area(vertices):
    """Exact area of a polygon given in boundary order."""
    verts = [frac_vec(v) for v in vertices]
    total = Fraction(0)
    for i, a in enumerate(verts):
        b = verts[(i + 1) % len(verts)]
        total += a[0] * b[1] - a[1] * b[0]
    return abs(total) / 2


def edge_lattice_length(a, b):
    """Length of segment [a, b] in units of the primitive lattice vector
    parallel to it.  Endpoints may be rational."""
    a, b = frac_vec(a), frac_vec(b)
    diff = tuple(y - x for x, y in zip(a, b))
    denom = math.lcm(*(c.denominator for c in diff))
    ints = [int(c * denom) for c in diff]
    g = math.gcd(*(abs(c) for c in ints))
    if g == 0:
        return Fraction(0)
    return Fraction(g, denom)


def polygon_boundary_measure(vertices):
    """Lattice-normalized perimeter of a polygon given in boundary order."""
    verts = [frac_vec(v) for v in vertices]
    total = Fraction(0)
    for i, a in enumerate(verts):
        total += edge_lattice_length(a, verts[(i + 1) % len(verts)])
    return total


def gauss_rule(order):
    """Gauss-Legendre nodes and weights transplanted to [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(order)
    return (x + 1.0) / 2.0, w / 2.0


def quad_segment(f, a, b, order=32):
    """Lattice-normalized line integral of f over segment [a, b]."""
    a = tuple(float(c) for c in frac_vec(a))
    b = tuple(float(c) for c in frac_vec(b))
    nodes, weights = gauss_rule(order)
    total = 0.0
    for t, w in zip(nodes, weights):
        p = tuple(x + t * (y - x) for x, y in zip(a, b))
        total += w * f(p)
    return total * float(edge_lattice_length(a, b))


def quad_triangle(f, v0, v1, v2, order=24):
    """Integral of f over a triangle via the Duffy map off vertex v0."""
    v0 = np.array([float(c) for c in frac_vec(v0)])
    v1 = np.array([float(c) for c in frac_vec(v1)])
    v2 = np.array([float(c) for c in frac_vec(v2)])
    det = abs((v1[0] - v0[0]) * (v2[1] - v0[1]) - (v1[1] - v0[1]) * (v2[0] - v0[0]))
    nodes, weights = gauss_rule(order)
    total = 0.0
    for u, wu in zip(nodes, weights):
        base = v0 + u * (v1 - v0)
        step = u * (v2 - v1)
        for v, wv in zip(nodes, weights):
            p = base + v * step
            total += wu * wv * u * f((p[0], p[1]))
    return total * det


def _fan_triangles(vertices):
    verts = hull_ccw(vertices)
    for i in range(1, len(verts) - 1):
        yield verts[0], verts[i], verts[i + 1]


def quad_polygon(f, vertices, order=24):
    """Integral of a smooth f over a convex polygon (fan triangulation)."""
    return sum(quad_triangle(f, *tri, order=order) for tri in _fan_triangles(vertices))


def quad_polygon_refined(f, vertices, splits=24, order=6):
    """Composite quadrature tolerant of kinks in f.

    Each fan triangle is split into splits**2 congruent subtriangles
    before applying a low-order Duffy rule, so integrands that are only
    piecewise smooth still come out to ~1e-6 relative accuracy.
    """
    total = 0.0
    k = splits
    for v0, v1, v2 in _fan_triangles(vertices):
        v0 = np.array([float(c) for c in v0])
        e1 = (np.array([float(c) for c in v1]) - v0) / k
        e2 = (np.array([float(c) for c in v2]) - v0) / k
        for i in range(k):
            for j in range(k - i):
                a = v0 + i * e1 + j * e2
                total += quad_triangle(f, a, a + e1, a + e2, order=order)
                if i + j < k - 1:
                    total += quad_triangle(f, a + e1, a + e1 + e2, a + e2, order=order)
    return total


def quad_boundary(f, vertices, order=32):
    """Lattice-normalized boundary integral over a convex polygon."""
    verts = hull_ccw(vertices)
    total = 0.0
    for i, a in enumerate(verts):
        total += quad_segment(f, a, verts[(i + 1) % len(verts)], order=order)
    return total


def simplex_power_closed_form(det, vals, p):
    """Integral of aff^p over a segment or triangle, aff >= 0, real p >= 1.

    det is |edge-matrix determinant| and vals the vertex values of aff.
    The pushforward density of the simplex under aff is a box (segment) or
    a tent (triangle); integrating s^p against it piece by piece gives
    closed forms in s^(p+1) and s^(p+2).  Values equal to 1e-14 relative
    are taken as one.
    """
    vals = sorted(vals)
    if len(vals) == 2:
        g0, g1 = vals
        if g1 - g0 <= 1e-14 * max(1.0, abs(g1)):
            return det * ((0.5 * (g0 + g1)) ** p)
        return det * (g1 ** (p + 1) - g0 ** (p + 1)) / ((p + 1) * (g1 - g0))
    g0, g1, g2 = vals
    if g2 - g0 <= 1e-14 * max(1.0, abs(g2)):
        return det / 2.0 * (((g0 + g1 + g2) / 3.0) ** p)

    def moment(lo, hi, c, sign):
        # integral of s^p * sign * (s - c) ds on [lo, hi]
        def F(s):
            return s ** (p + 2) / (p + 2) - c * s ** (p + 1) / (p + 1)

        return sign * (F(hi) - F(lo))

    total = 0.0
    if g1 > g0:
        total += moment(g0, g1, g0, 1.0) / ((g1 - g0) * (g2 - g0))
    if g2 > g1:
        total += moment(g1, g2, g2, -1.0) / ((g2 - g1) * (g2 - g0))
    return det * total


def mp_ddexp(nodes, dps=50):
    """Divided difference exp[x_0, ..., x_k] via the confluent recurrence.

    Repeated nodes are handled exactly.  Close-but-distinct nodes cancel
    catastrophically, so the working precision grows with the digit loss
    accumulated over the smallest nonzero window of every recurrence
    level (duplicates add levels without adding gaps, hence per-level
    accounting rather than per-gap)."""
    ordered = sorted(float(x) for x in nodes)
    n = len(ordered)
    loss = 0.0
    for w in range(1, n):
        windows = [
            ordered[i + w] - ordered[i]
            for i in range(n - w)
            if ordered[i + w] != ordered[i]
        ]
        if windows:
            loss += max(0.0, -math.log10(min(windows)))
    dps = max(dps, 40 + int(loss) + 2 * n)
    with mpmath.workdps(dps):
        xs = sorted(mpmath.mpf(x) for x in nodes)
        n = len(xs)
        col = [mpmath.exp(x) for x in xs]
        for w in range(1, n):
            nxt = []
            for i in range(n - w):
                j = i + w
                if xs[j] != xs[i]:
                    nxt.append((col[i + 1] - col[i]) / (xs[j] - xs[i]))
                else:
                    nxt.append(mpmath.exp(xs[i]) / mpmath.factorial(w))
            col = nxt
        return float(col[0])


def _safe_exp(x):
    if x > 709.0:
        return float("inf")
    return math.exp(x)


def _float_sum(values):
    """Left to right from 0.0: builtin sum's order before Python 3.12, which
    the copies below keep on every interpreter, as the package does."""
    total = 0.0
    for v in values:
        total += v
    return total


def _dd_series(x):
    """Divided difference of exp over small nodes (|x_i| <= 1/2)."""
    r = len(x) - 1
    invf = 1.0 / math.factorial(r)
    total = invf
    old = [1.0] * (r + 1)
    small = 0
    for k in range(1, 60):
        invf /= r + k
        new = [0.0] * (r + 1)
        new[0] = x[0] * old[0]
        for t in range(1, r + 1):
            new[t] = new[t - 1] + x[t] * old[t]
        term = new[r] * invf
        total += term
        old = new
        # sign-symmetric nodes zero out alternate terms, so one small term
        # is not yet convergence
        if abs(term) <= 1e-19 * abs(total):
            small += 1
            if small >= 2:
                break
        else:
            small = 0
    return total


def _square_upper(B):
    m = len(B)
    C = [[0.0] * m for _ in range(m)]
    for i in range(m):
        Bi = B[i]
        Ci = C[i]
        for j in range(i, m):
            acc = 0.0
            for k in range(i, j + 1):
                acc += Bi[k] * B[k][j]
            Ci[j] = acc
    return C


def ddexp_full_table(nodes):
    """Divided difference exp[nodes] from the whole Opitz seed table.

    Scaling and squaring (McCurdy, Ng & Parlett 1984): every seed entry
    (i, j) comes from its own series, and all K squarings are full."""
    m = len(nodes)
    if m == 0:
        raise ValueError("need at least one node")
    if m == 1:
        return _safe_exp(nodes[0])
    c = _float_sum(nodes) / m
    h = [b - c for b in nodes]
    spread = max(abs(v) for v in h)
    K = 0
    if spread > 0.5:
        # smallest K with spread / 2^K <= 1/2
        K = max(0, math.frexp(spread / 0.5)[1])
        while spread * (0.5 ** K) > 0.5:
            K += 1
    eps = 0.5 ** K
    s = [v * eps for v in h]

    B = [[0.0] * m for _ in range(m)]
    for i in range(m):
        B[i][i] = math.exp(s[i])
    for i in range(m):
        for j in range(i + 1, m):
            B[i][j] = (eps ** (j - i)) * _dd_series(s[i : j + 1])
    for _ in range(K):
        B = _square_upper(B)
    return _safe_exp(c) * B[0][m - 1]


def central_derivative(f, h=1e-4):
    """Richardson-extrapolated central difference of f at 0."""
    d_h = (f(h) - f(-h)) / (2.0 * h)
    d_half = (f(h / 2.0) - f(-h / 2.0)) / h
    return (4.0 * d_half - d_h) / 3.0


def central_second_derivative(f, h=0.1):
    """Richardson-extrapolated second central difference of f at 0."""
    f0 = f(0.0)

    def second(step):
        return (f(step) - 2.0 * f0 + f(-step)) / (step * step)

    return (4.0 * second(h / 2.0) - second(h)) / 3.0


def brute_lattice_count(inequalities, box, scale=1):
    """Count integer points satisfying normal . x <= scale * offset.

    inequalities is a list of (normal, offset) pairs with rational data;
    box = (lo, hi) bounds every coordinate of the scaled polytope.
    """
    lo, hi = box
    dim = len(inequalities[0][0])
    count = 0

    def rec(prefix):
        nonlocal count
        if len(prefix) == dim:
            for normal, offset in inequalities:
                val = sum(Fraction(n) * p for n, p in zip(normal, prefix))
                if val > Fraction(offset) * scale:
                    return
            count += 1
            return
        for c in range(lo, hi + 1):
            rec(prefix + (c,))

    rec(())
    return count


def _solve_exact(rows, rhs):
    """Gauss-Jordan over Fractions; None when the square system is singular."""
    n = len(rows)
    m = [[Fraction(c) for c in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return None
        m[col], m[piv] = m[piv], m[col]
        lead = m[col][col]
        m[col] = [c / lead for c in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[col])]
    return tuple(row[n] for row in m)


def basic_feasible_points(constraints, dim):
    """Every point where dim of the inequalities <a, x> <= b are tight
    with independent normals and all the others hold."""
    pts = []
    for rows in combinations(constraints, dim):
        p = _solve_exact([a for a, _ in rows], [b for _, b in rows])
        if p is None:
            continue
        if all(sum(Fraction(c) * x for c, x in zip(a, p)) <= b for a, b in constraints):
            if p not in pts:
                pts.append(p)
    return pts


def clip_rebuild(P, normal, offset):
    """Clip-and-rebuild reference for LatticePolytope.clip.

    Enumerates the vertices of P cut by <x, normal> <= offset from its
    H-representation and rebuilds the hull anew with
    build_polytope_beneath_beyond, since build_polytope itself clips.
    Returns the polytope P itself, the string "EMPTY", or the rebuilt
    polytope, following clip's conventions.
    """
    from toricmu import DegenerateHull

    normal = tuple(Fraction(c) for c in normal)
    offset = Fraction(offset)
    if all(c == 0 for c in normal):
        return P if offset >= 0 else "EMPTY"
    vals = [sum(c * x for c, x in zip(normal, v.coords)) for v in P.vertices]
    if all(val <= offset for val in vals):
        return "EMPTY" if all(val == offset for val in vals) else P
    if all(val >= offset for val in vals):
        return "EMPTY"
    constraints = [(f.normal, f.offset) for f in P.facets] + [(normal, offset)]
    pts = basic_feasible_points(constraints, P.dim)
    if len(pts) <= P.dim:
        return "EMPTY"
    try:
        return build_polytope_beneath_beyond(pts)
    except DegenerateHull:
        return "EMPTY"


def dh_cdf_clip(q, tau):
    """Clip-chain reference for dh_cdf: the volume of {q <= -tau}.

    Cuts the polytope of q by <x, eta_E> <= -tau - c_E for every piece
    with the package's clip and measures the rest with its volume.
    """
    tau = Fraction(tau)
    region = q.P
    for piece in q.pieces:
        region = region.clip(piece.gradient, -tau - piece.constant)
        if not region:
            return Fraction(0)
    return region.volume()


def lattice_points_scan(P, scale=1):
    """Box-scan reference for lattice_points: every integer point of the
    vertex box of scale * P tested against every facet, in product order."""
    box = []
    for i in range(P.dim):
        vals = [scale * v.coords[i] for v in P.vertices]
        box.append(range(math.ceil(min(vals)), math.floor(max(vals)) + 1))
    return [
        p
        for p in product(*box)
        if all(
            sum(a * x for a, x in zip(f.normal, p)) <= scale * f.offset
            for f in P.facets
        )
    ]


class UncachedObjective:
    """Reference for toricmu.optimize._Objective without any reuse.

    The same formulas, in the same order, with a new ExpIntegrator for
    every integral, so no divided difference or point outlives one call.
    It integrates C and C_i and forms mu + lam * sigma at every lam, 0
    included, so it stays independent of the objective's lam == 0 path.
    """

    def __init__(self, P, lam):
        from toricmu.paconvex import AffineForm

        n = P.dim
        self.P = P
        self.funcs = [
            AffineForm(tuple(-1 if j == i else 0 for j in range(n)), 0)
            for i in range(n)
        ]
        self.n = n
        self.lam = float(lam)

    def _integral(self, kind, combo, factors=()):
        from toricmu.integrate import ExpIntegrator

        [(value, _)] = getattr(ExpIntegrator(self.P, self.funcs), kind)(
            combo, [factors]
        )
        return value

    def _abc(self, xi):
        combo = tuple(float(c) for c in xi)
        A = self._integral("interior", combo)
        B = self._integral("boundary", combo)
        C = self._integral("interior", combo, [(float(self.n), combo)])
        return combo, A, B, C

    def value(self, xi):
        _, A, B, C = self._abc(xi)
        return -TWO_PI * B / A + self.lam * (C / A - math.log(A))

    def value_grad(self, xi):
        combo, A, B, C = self._abc(xi)
        value = -TWO_PI * B / A + self.lam * (C / A - math.log(A))
        grad = []
        for i in range(self.n):
            unit = tuple(1.0 if k == i else 0.0 for k in range(self.n))
            probe = [(0.0, unit)]
            Ai = self._integral("interior", combo, probe)
            Bi = self._integral("boundary", combo, probe)
            Ci = self._integral(
                "interior", combo, [(self.n + 1.0, combo), (0.0, unit)]
            )
            dmu = -TWO_PI * (Bi * A - B * Ai) / (A * A)
            dsigma = (Ci * A - C * Ai) / (A * A) - Ai / A
            grad.append(dmu + self.lam * dsigma)
        return value, grad


def futaki_all_moments(P, xi, q0, lam=0.0):
    """toricmu.futaki as it was when it integrated C and C_d at every lam
    and returned -(dmu + lam * dsigma)."""
    from toricmu.functionals import _entropy, _moments, _xi_form
    from toricmu.integrate import ExpIntegrator
    from toricmu.paconvex import as_pa

    qxi = _xi_form(P, xi)
    gear = ExpIntegrator(P, [qxi, as_pa(q0, P)])
    e = (1.0, 0.0)
    base, along = _moments(gear, float(P.dim), e, [(0.0, (0.0, 1.0))])
    _, _, [(dmu, dsigma)] = _entropy(base, [along])
    return -(dmu + float(lam) * dsigma)


def _oracle_divided_difference(avals, key, memo):
    hit = memo.get(key)
    if hit is None:
        from toricmu import integrate

        alph = 1
        run = 1
        for a, b in zip(key, key[1:]):
            run = run + 1 if a == b else 1
            alph *= run
        hit = memo[key] = (
            alph,
            integrate.ddexp(list(avals) + [avals[i] for i in key]),
        )
    return hit


def _oracle_simplex_weighted(det, avals, factor_vals, memo):
    m = len(avals)
    coeff = {}
    for tup in product(range(m), repeat=len(factor_vals)):
        w = 1.0
        for vals, idx in zip(factor_vals, tup):
            w *= vals[idx]
        if w != 0.0:
            key = tuple(sorted(tup))
            coeff[key] = coeff.get(key, 0.0) + w
    total = 0.0
    for key, w in coeff.items():
        if w == 0.0:
            continue
        alph, dd = _oracle_divided_difference(avals, key, memo)
        total += w * alph * dd
    return det * total


def _oracle_float_bits(values):
    import struct

    return struct.pack("%dd" % len(values), *values)


class ExpIntegratorPerFacet:
    """toricmu.integrate.ExpIntegrator as it was when its boundary made one
    child integrator per facet and called its interior() on every call, and
    a segment's boundary took its end-point values in Fractions on every
    call; it calls the package's kernel as integrate.ddexp."""

    def __init__(self, P, funcs):
        from toricmu.paconvex import as_pa

        self.P = P
        self.funcs = [as_pa(f, P) for f in funcs]
        self.dim = P.dim
        self._records = None
        self._children = None

    def _build(self):
        from toricmu.paconvex import common_cells

        records = []
        for (cell, ids) in common_cells(self.P, self.funcs):
            pieces = [pa.pieces[i] for pa, i in zip(self.funcs, ids)]
            for s in cell.triangulate():
                det = abs(float(s.edge_matrix_det()))
                if det == 0.0:
                    continue
                vals = [[float(piece(v)) for piece in pieces] for v in s.vertices]
                records.append((det, vals))
        self._records = records
        self._memos = [(None, None)] * len(records)

    def interior(self, exp_combo, factor_lists):
        from toricmu import integrate

        if self._records is None:
            self._build()
        totals = [0.0] * len(factor_lists)
        mags = [0.0] * len(factor_lists)
        factored = any(factor_lists)
        memos = self._memos
        for r, (det, vals) in enumerate(self._records):
            avals = [
                _float_sum(c * row[k] for k, c in enumerate(exp_combo)) for row in vals
            ]
            memo = None
            if factored:
                bits = _oracle_float_bits(avals)
                seen, memo = memos[r]
                if seen != bits:
                    memo = {}
                    memos[r] = (bits, memo)
            for j, factors in enumerate(factor_lists):
                if factors:
                    fvals = [
                        [
                            const + _float_sum(c * row[k] for k, c in enumerate(coeffs))
                            for row in vals
                        ]
                        for (const, coeffs) in factors
                    ]
                    contrib = _oracle_simplex_weighted(det, avals, fvals, memo)
                else:
                    contrib = det * integrate.ddexp(avals)
                totals[j] += contrib
                mags[j] += abs(contrib)
        return list(zip(totals, mags))

    def boundary(self, exp_combo, factor_lists):
        totals = [0.0] * len(factor_lists)
        mags = [0.0] * len(factor_lists)
        if self.dim == 1:
            for f in self.P.facets:
                v = self.P.vertices[f.vertex_indices[0]]
                row = [float(pa(v)) for pa in self.funcs]
                ea = _safe_exp(_float_sum(c * row[k] for k, c in enumerate(exp_combo)))
                for j, factors in enumerate(factor_lists):
                    w = 1.0
                    for (const, coeffs) in factors:
                        w *= const + _float_sum(c * row[k] for k, c in enumerate(coeffs))
                    contrib = w * ea
                    totals[j] += contrib
                    mags[j] += abs(contrib)
            return list(zip(totals, mags))
        if self._children is None:
            self._children = []
            for i in range(len(self.P.facets)):
                restricted = [pa.restrict_to_facet(i) for pa in self.funcs]
                if restricted:
                    sub = restricted[0].P
                else:
                    sub, _, _ = self.P.facet_polytope(i)
                self._children.append(ExpIntegratorPerFacet(sub, restricted))
        for child in self._children:
            for j, (t, m) in enumerate(child.interior(exp_combo, factor_lists)):
                totals[j] += t
                mags[j] += m
        return list(zip(totals, mags))


def boundary_moments_end_points(q, k):
    """paconvex._boundary_moments on a segment as it was when its two facets
    were read as its end points rather than as charts: [sum over the end
    points v of q(v)^p, p = 0..k]."""
    assert q.P.dim == 1
    parts = [[q(v) ** p for p in range(k + 1)] for v in q.P.vertices]
    return [sum(col, Fraction(0)) for col in zip(*parts)]


def _project(x, box):
    if box is None:
        return list(x)
    out = []
    for xi, (lo, hi) in zip(x, box):
        out.append(min(max(xi, lo), hi))
    return out


def _on_boundary(x, box, tol=1e-10):
    if box is None:
        return False
    for xi, (lo, hi) in zip(x, box):
        if abs(xi - lo) <= tol or abs(xi - hi) <= tol:
            return True
    return False


def bfgs_ascent_every_iteration(obj, x0, gtol, max_iter, box):
    """toricmu.optimize._bfgs_ascent as it was when a run whose step had
    rounded away kept iterating to max_iter; returns the fields of
    OptimizationResult as a plain tuple."""
    n = len(x0)
    x = _project(x0, box)
    f, g = obj.value_grad(x)
    H = [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)]
    trace = [(tuple(x), f)]
    status = "max-iter"
    for _ in range(max_iter):
        gnorm = math.sqrt(_float_sum(gi * gi for gi in g))
        if gnorm <= gtol:
            status = "converged"
            break
        d = [_float_sum(H[i][j] * g[j] for j in range(n)) for i in range(n)]
        slope = _float_sum(di * gi for di, gi in zip(d, g))
        if slope <= 0.0:
            H = [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)]
            d = list(g)
            slope = gnorm * gnorm
        t = 1.0
        xn = x
        fn = f
        while t >= 1e-14:
            cand = _project([x[i] + t * d[i] for i in range(n)], box)
            fc = obj.value(cand)
            if fc >= f + 1e-4 * t * slope:
                xn, fn = cand, fc
                break
            t *= 0.5
        if t < 1e-14:
            break
        fn, gn = obj.value_grad(xn)
        s = [xn[i] - x[i] for i in range(n)]
        u = [g[i] - gn[i] for i in range(n)]
        su = _float_sum(si * ui for si, ui in zip(s, u))
        if su > 1e-14:
            rho = 1.0 / su
            Hu = [_float_sum(H[i][j] * u[j] for j in range(n)) for i in range(n)]
            uHu = _float_sum(u[i] * Hu[i] for i in range(n))
            for i in range(n):
                for j in range(n):
                    H[i][j] += (
                        (1.0 + rho * uHu) * rho * s[i] * s[j]
                        - rho * (s[i] * Hu[j] + Hu[i] * s[j])
                    )
        x, f, g = xn, fn, gn
        trace.append((tuple(x), f))
    gnorm = math.sqrt(_float_sum(gi * gi for gi in g))
    if gnorm <= gtol:
        status = "converged"
    if status == "converged" and _on_boundary(x, box):
        status = "boundary-hit"
    elif status == "max-iter" and box is not None and _on_boundary(x, box):
        status = "boundary-hit"
    return (tuple(x), f, gnorm, trace, status)


def _h_complete_k(vals, k):
    """Complete homogeneous symmetric polynomial h_k of exact values."""
    if k == 0:
        return Fraction(1)
    old = [Fraction(1)] * len(vals)
    for _ in range(k):
        new = [Fraction(0)] * len(vals)
        new[0] = vals[0] * old[0]
        for t in range(1, len(vals)):
            new[t] = new[t - 1] + vals[t] * old[t]
        old = new
    return old[-1]


def poly_moment_per_k(P, aff, k=1):
    """Exact integral of aff^k over P, one pass over its simplices per k."""
    total = Fraction(0)
    for simplex in P.triangulate():
        n = simplex.dim
        det = abs(simplex.edge_matrix_det())
        vals = [aff(v) for v in simplex.vertices]
        total += (
            det * _h_complete_k(vals, k) * Fraction(math.factorial(k), math.factorial(n + k))
        )
    return total


def pa_moment_shift(q, k=1, shift=Fraction(0)):
    """Exact integral of (q(mu) + shift)^k over the polytope of q."""
    from toricmu.paconvex import AffineForm

    shift = Fraction(shift)
    total = Fraction(0)
    for (i, cell) in q.cells():
        aff = q.pieces[i] + AffineForm.constant_form(q.P.dim, shift)
        total += poly_moment_per_k(cell, aff, k)
    return total


def boundary_pa_moment_per_k(q, k=1):
    """Exact integral of q^k over the boundary, facet lattice measures."""
    P = q.P
    if P.dim == 1:
        return sum(
            (q(P.vertices[f.vertex_indices[0]]) ** k for f in P.facets), Fraction(0)
        )
    total = Fraction(0)
    for i in range(len(P.facets)):
        total += pa_moment_shift(q.restrict_to_facet(i), k)
    return total


def mabuchi_slope_two_pass(P, q):
    """M(q) = int_boundary q dsigma + kappa * int_P q dmu, exact."""
    from toricmu.paconvex import as_pa

    q = as_pa(q, P)
    kappa = -P.boundary_measure() / P.volume()
    return boundary_pa_moment_per_k(q, 1) + kappa * pa_moment_shift(q, 1)


def calabi_four_pass(P, q):
    """calabi's (m_na, variance, c_na, rho_max, sup_value), with the
    variance as the shifted second moment."""
    from toricmu.paconvex import as_pa

    q = as_pa(q, P)
    vol = P.volume()
    M = mabuchi_slope_two_pass(P, q)
    qbar = pa_moment_shift(q, 1) / vol
    variance = pa_moment_shift(q, 2, shift=-qbar)
    c_na = float(-TWO_PI * M / vol - variance / (2 * vol))
    if M >= 0 or variance == 0:
        rho_max = 0.0
        sup_value = 0.0
    else:
        rho_max = float(-TWO_PI * M / variance)
        sup_value = float(2 * math.pi * math.pi * M * M / (vol * variance))
    return (float(M), float(variance), c_na, rho_max, sup_value)


class DHSummarySixPass:
    """DHSummary's volume, moments, barycenter and variance: one pass per
    moment and one more for the shifted variance."""

    def __init__(self, q):
        self.q = q
        self.volume = q.P.volume()
        self.moments = tuple(
            pa_moment_shift(q, k) * (-1) ** k for k in range(5)
        )  # moments[k] = integral of t^k against DH, t = -q
        self.barycenter = self.moments[1] / self.volume
        mean = self.moments[1] / self.volume  # = -qbar
        self.variance = pa_moment_shift(q, 2, shift=mean)  # integral of (q - qbar)^2


# -- exact linear algebra of the geometry layer, one routine per system -------
#
# See the module docstring.


def _dot(u, v) -> Fraction:
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def _primitive(vec) -> tuple:
    """Scale a nonzero rational vector to a primitive integer vector."""
    den = 1
    for c in vec:
        den = den * c.denominator // gcd(den, c.denominator)
    ints = [int(c * den) for c in vec]
    g = 0
    for c in ints:
        g = gcd(g, abs(c))
    if g == 0:
        raise ValueError("zero vector has no primitive form")
    return tuple(c // g for c in ints)


def _det(rows) -> Fraction:
    """Exact determinant by fraction Gaussian elimination."""
    n = len(rows)
    m = [list(map(Fraction, r)) for r in rows]
    det = Fraction(1)
    for col in range(n):
        piv = None
        for r in range(col, n):
            if m[r][col] != 0:
                piv = r
                break
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            if m[r][col] != 0:
                f = m[r][col] * inv
                for c in range(col, n):
                    m[r][c] -= f * m[col][c]
    return det


def _rank(rows) -> int:
    if not rows:
        return 0
    m = [list(map(Fraction, r)) for r in rows]
    nr, nc = len(m), len(m[0])
    rank = 0
    row = 0
    for col in range(nc):
        piv = None
        for r in range(row, nr):
            if m[r][col] != 0:
                piv = r
                break
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        inv = 1 / m[row][col]
        for r in range(row + 1, nr):
            if m[r][col] != 0:
                f = m[r][col] * inv
                for c in range(col, nc):
                    m[r][c] -= f * m[row][c]
        row += 1
        rank += 1
        if rank == min(nr, nc):
            break
    return rank


def _solve(rows, rhs):
    """Solve a square exact system; returns None when singular."""
    n = len(rows)
    m = [list(map(Fraction, rows[i])) + [Fraction(rhs[i])] for i in range(n)]
    for col in range(n):
        piv = None
        for r in range(col, n):
            if m[r][col] != 0:
                piv = r
                break
        if piv is None:
            return None
        m[col], m[piv] = m[piv], m[col]
        inv = 1 / m[col][col]
        for c in range(col, n + 1):
            m[col][c] *= inv
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                for c in range(col, n + 1):
                    m[r][c] -= f * m[col][c]
    return tuple(m[i][n] for i in range(n))


def _cross(rows):
    """Vector orthogonal to n-1 independent rows in Q^n (Laplace minors)."""
    n = len(rows) + 1
    out = []
    for j in range(n):
        minor = [[r[c] for c in range(n) if c != j] for r in rows]
        s = Fraction(-1) ** j
        out.append(s * _det(minor) if minor else Fraction(1))
    return tuple(out)


class VertexCone:
    """Tangent cone data at a simple vertex.

    generators are the primitive integer edge directions; index is the
    absolute determinant of the generator matrix (1 iff the cone is smooth).
    """

    __slots__ = ("generators", "index")

    def __init__(self, generators, index):
        self.generators = tuple(tuple(int(c) for c in g) for g in generators)
        self.index = int(index)

    def __repr__(self):
        return "VertexCone(generators=%r, index=%d)" % (self.generators, self.index)


def _chart_coords(diff, basis):
    """Solve basis^T y = diff exactly (basis columns independent)."""
    n = len(diff)
    k = len(basis)
    # pick k independent rows of the n x k matrix whose columns are basis
    mat = [[basis[j][i] for j in range(k)] for i in range(n)]
    for rows in combinations(range(n), k):
        sq = [mat[i] for i in rows]
        if _det(sq) != 0:
            y = _solve(sq, [diff[i] for i in rows])
            # consistency is guaranteed for points in the facet hyperplane
            return y
    raise ValueError("basis is rank deficient")


def _vertex_cones(verts, facets, n):
    cones = []
    nonsimple = []
    for vi in range(len(verts)):
        active = [f for f in facets if vi in f.vertex_indices]
        if len(active) != n:
            cones.append(None)
            nonsimple.append(vi)
            continue
        gens = []
        ok = True
        for drop in range(n):
            rows = [active[k].normal for k in range(n) if k != drop]
            d = _cross(rows)
            if all(c == 0 for c in d):
                ok = False
                break
            if _dot(d, active[drop].normal) > 0:
                d = tuple(-c for c in d)
            gens.append(_primitive(d))
        if not ok:
            cones.append(None)
            nonsimple.append(vi)
            continue
        idx = abs(_det(gens))
        cones.append(VertexCone(gens, idx))
    return tuple(cones), tuple(nonsimple)


# -- filtration weights as they were in Fraction arithmetic --------------------


def pa_weight_fn_fractions(q):
    """weight_fn(point, m) = floor(-m q(point / m)) in Fractions."""

    def weight_fn(point, m):
        scaled = tuple(Fraction(c, m) for c in point)
        val = -m * q(scaled)
        return int(val // 1)

    return weight_fn


# -- cell complexes as they were when every consumer split its own -------------


def common_cells_split(P, funcs):
    """toricmu.paconvex.common_cells as it was when it split every function
    afresh with _split, never reading a potential's cells()."""
    from toricmu.paconvex import _split, as_pa

    work = [(P, ())]
    for f in funcs:
        pieces = as_pa(f, P).pieces
        work = [
            (sub, ids + (i,)) for (cell, ids) in work for (i, sub) in _split(cell, pieces)
        ]
    return work


def sup_abs_diff_own_cells(q, qp):
    """toricmu.paconvex.sup_abs_diff as it was when it refined the pair on
    its own: the largest |q - q'| at a vertex of the pair's common cells."""
    from toricmu import InputError

    if q.P is not qp.P and q.P.vertices != qp.P.vertices:
        raise InputError("metrics need both functions on the same polytope")
    best = Fraction(0)
    for (cell, (i, j)) in common_cells_split(q.P, [q, qp]):
        diff = q.pieces[i] - qp.pieces[j]
        for v in cell.vertices:
            val = abs(diff(v))
            if val > best:
                best = val
    return best


# -- facet cells and triangulations as they were before faces were read off --


def _split(cell, pieces):
    """toricmu.paconvex._split: [(i, sub)] where sub is the full-dimensional
    part of cell on which pieces[i] is the maximum."""
    from toricmu.polytope import EMPTY

    out = []
    for i, piece in enumerate(pieces):
        sub = cell
        for j, other in enumerate(pieces):
            if j == i or other == piece:
                continue
            grad = tuple(a - b for a, b in zip(other.gradient, piece.gradient))
            sub = sub.clip(grad, piece.constant - other.constant)
            if sub is EMPTY:
                break
        if sub is not EMPTY:
            out.append((i, sub))
    return out


def restrict_to_facet_split(q, facet_index):
    """(pieces, cells) of q.restrict_to_facet(facet_index) as it was when
    the restriction was split afresh in P's chart of the facet."""
    from toricmu.paconvex import make_pa

    sub, origin, basis = q.P.facet_polytope(facet_index)
    restricted = make_pa([piece.restrict(origin, basis) for piece in q.pieces], sub)
    return restricted.pieces, _split(sub, restricted.pieces)


def det_elimination(rows):
    """toricmu.polytope._det by one forward elimination, for every size."""
    from toricmu.polytope import _echelon

    return _echelon(rows, len(rows))[2]


def chart_coords_elimination(diffs, basis):
    """toricmu.polytope._chart_coords by one elimination, for every basis."""
    from toricmu.polytope import _back, _echelon

    k = len(basis)
    rows = [[b[i] for b in basis] + [d[i] for d in diffs] for i in range(len(basis[0]))]
    m, pivots, _ = _echelon(rows, k)
    if len(pivots) != k:
        raise ValueError("basis is rank deficient")
    return [
        _back(m, pivots, [m[r][k + t] for r in range(k)], [0] * k) for t in range(len(diffs))
    ]


def triangulate_charts(P):
    """toricmu.polytope._triangulate as it was when it triangulated every
    facet that misses the apex in a chart polytope built for that facet,
    mapping each chart vertex back to the facet vertex it came from."""
    from toricmu.polytope import Simplex, _dot, _kernel_basis_int, _sub, build_polytope

    if len(P.vertices) == P.dim + 1:
        return [Simplex(P.vertices)]
    apex = P.vertices[0]
    out = []
    for f in P.facets:
        if _dot(apex.coords, f.normal) == f.offset:
            continue
        basis = _kernel_basis_int(f.normal)
        origin = P.vertices[f.vertex_indices[0]]
        diffs = [_sub(P.vertices[vi].coords, origin.coords) for vi in f.vertex_indices]
        ys = chart_coords_elimination(diffs, basis)
        sub = build_polytope(ys)
        lift = {tuple(y): P.vertices[vi] for y, vi in zip(ys, f.vertex_indices)}
        out += [
            Simplex([apex] + [lift[y.coords] for y in s.vertices])
            for s in triangulate_charts(sub)
        ]
    return out


def build_polytope_beneath_beyond(vertices):
    """toricmu.polytope.build_polytope as it was when it built hulls of
    dimension >= 2 by beneath-beyond from the affine base, merged the facets,
    recounted the incidences and kept the points whose facets' normals have
    rank n; run on the package's linear algebra and canonical form."""
    from toricmu.polytope import (
        DegenerateHull,
        _build_segment,
        _canonical,
        _coords,
        _echelon,
        _fit,
        _iterable,
        _rank,
        _sub,
    )

    pts = []
    for v in _iterable(vertices, "vertices"):
        c = _coords(v, "a point")
        if c not in pts:
            pts.append(c)
    if not pts:
        raise DegenerateHull("no points")
    n = len(pts[0])
    if n == 0:
        raise DegenerateHull("points have no coordinates")
    for p in pts:
        _fit(p, n, "a point")
    diffs = [_sub(p, pts[0]) for p in pts[1:]]
    # the pivot columns of the transposed differences are the greedy affine base
    _, pivots, _ = _echelon(list(zip(*diffs)), len(diffs))
    if len(pivots) < n:
        raise DegenerateHull("points span a %d-dim affine space in R^%d" % (len(pivots), n))

    if n == 1:
        return _build_segment(pts)

    hull_facets = _hull_facets(pts, n, [0] + [c + 1 for c in pivots])

    # recompute incidence from scratch against the merged facet list
    facet_pts = []
    for (u, b) in hull_facets:
        on = [i for i, p in enumerate(pts) if _dot(p, u) == b]
        facet_pts.append(on)

    vertex_ids = []
    for i, p in enumerate(pts):
        active = [k for k, on in enumerate(facet_pts) if i in on]
        if len(active) < n:
            continue
        if _rank([hull_facets[k][0] for k in active]) == n:
            vertex_ids.append(i)

    remap = {old: new for new, old in enumerate(vertex_ids)}
    planes = [
        (u, b, [remap[i] for i in on if i in remap])
        for (u, b), on in zip(hull_facets, facet_pts)
    ]
    return _canonical(n, [pts[i] for i in vertex_ids], planes)


def _hull_facets(pts, n, base):
    """Beneath-beyond with exact strict visibility from the affine base
    (indices of n + 1 affinely independent points); returns merged (u, b)."""
    interior = tuple(
        sum(pts[j][i] for j in base) / Fraction(n + 1) for i in range(n)
    )

    facets = []  # records (frozenset verts, u, b), simplicial while building
    for drop in range(n + 1):
        group = [base[j] for j in range(n + 1) if j != drop]
        u, b = _oriented_plane([pts[i] for i in group], interior)
        facets.append((frozenset(group), u, b))

    for i in range(len(pts)):
        if i in base:
            continue
        p = pts[i]
        visible = [F for F in facets if _dot(p, F[1]) > F[2]]
        if not visible:
            continue
        invisible = [F for F in facets if _dot(p, F[1]) <= F[2]]
        ridge_count = {}
        for (vs, _, _) in visible:
            for r in combinations(sorted(vs), n - 1):
                ridge_count[r] = ridge_count.get(r, 0) + 1
        new = []
        for r, cnt in ridge_count.items():
            if cnt != 1:
                continue
            group = list(r) + [i]
            u, b = _oriented_plane([pts[j] for j in group], interior)
            new.append((frozenset(group), u, b))
        facets = invisible + new

    merged = {}
    for (_, u, b) in facets:
        merged[(u, b)] = True
    return list(merged.keys())


def _oriented_plane(points, interior):
    """Hyperplane through n affinely independent points, outward oriented."""
    from toricmu.polytope import DegenerateHull

    u = _primitive(_null_vector([tuple(x - y for x, y in zip(p, points[0])) for p in points[1:]]))
    b = _dot(points[0], u)
    side = _dot(interior, u)
    if side > b:
        u = tuple(-c for c in u)
        b = -b
    elif side == b:
        raise DegenerateHull("reference point lies on a candidate facet")
    return u, b


def _null_vector(rows):
    """Nonzero vector orthogonal to n - 1 independent rows in Q^n."""
    from toricmu.polytope import _back, _echelon

    n = len(rows[0])
    m, pivots, _ = _echelon(rows, n)
    if len(pivots) != n - 1:
        raise ValueError("rows do not have rank n - 1")
    x = [0] * n
    x[next(c for c in range(n) if c not in pivots)] = 1
    return _back(m, pivots, [0] * (n - 1), x)
