"""Exact polytope layer: hulls, volumes, facet measures, clipping,
lattice enumeration, and invariance under unimodular changes of basis.

Scalar expectations are either hand-derived (unit square, segment) or
cross-checked against independent shoelace / lattice-length oracles.
"""

import json
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
import support
from toricmu import (
    EMPTY,
    DegenerateHull,
    boundary_exp_integral,
    brion_localize_limit,
    build_polytope,
    polytope_exp_integral,
    polytope_from_json,
    triangulate,
)
from toricmu.polytope import (
    _det,
    _echelon,
    _kernel_basis_int,
    _back,
    _chart_coords,
    _rank,
    _sub,
    _triangulate,
    _vertex_cones,
)
from toricmu.paconvex import AffineForm, make_pa


def verts(P):
    return sorted(tuple(v.coords) for v in P.vertices)


def test_hull_drops_redundant_points():
    P = build_polytope(
        [(0, 0), (1, 0), (1, 1), (0, 1), (Fraction(1, 2), Fraction(1, 2)), (1, Fraction(1, 2))]
    )
    assert verts(P) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert P.dim == 2


def test_degenerate_inputs_raise():
    with pytest.raises(DegenerateHull):
        build_polytope([(0, 0), (1, 1), (2, 2)])
    with pytest.raises(DegenerateHull):
        build_polytope([(0, 0), (0, 0)])


# Cross-polytopes, and pyramids over a square or a cube: from n = 3 they have
# vertices that are not simple (in the plane every vertex is simple).
NONSIMPLE_SHAPES = {
    2: [[(1, 0), (-1, 0), (0, 1), (0, -1)]],
    3: [
        [tuple(s * (i == j) for j in range(3)) for i in range(3) for s in (1, -1)],
        [(0, 0, 0), (2, 0, 0), (0, 2, 0), (2, 2, 0), (1, 1, 1)],
    ],
    4: [
        [tuple(s * (i == j) for j in range(4)) for i in range(4) for s in (1, -1)],
        [(a, b, c, 0) for a in (0, 2) for b in (0, 2) for c in (0, 2)] + [(1, 1, 1, 1)],
    ],
}


@st.composite
def point_sets(draw):
    """1-9 half-integer points in R^2 to R^4, at times flattened into a
    hyperplane, with at times one of NONSIMPLE_SHAPES among them, and with a
    duplicate, the midpoint of two points (on a facet when both are on it)
    and the centroid (an interior point once the points span)."""
    n = draw(st.integers(2, 4))
    half = st.integers(-4, 4).map(lambda k: Fraction(k, 2))
    pts = draw(st.lists(st.tuples(*[half] * n), min_size=1, max_size=6))
    if draw(st.booleans()):
        pts += draw(st.sampled_from(NONSIMPLE_SHAPES[n]))
    if draw(st.integers(0, 4)) == 0:
        pts = [p[:-1] + (0,) for p in pts]
    a, b = pts[0], pts[-1]
    pts += [a, tuple((x + y) / 2 for x, y in zip(a, b))]
    pts.append(tuple(sum(c) / len(pts) for c in zip(*pts)))
    return draw(st.permutations(pts))


def hull_fields(build, pts):
    """The fields of build(pts), or the message of its DegenerateHull."""
    try:
        P = build(pts)
    except DegenerateHull as err:
        return "DegenerateHull: %s" % err
    return clip_fields(P)


@settings(max_examples=300, deadline=None)
@given(point_sets())
def test_polar_hull_equals_beneath_beyond(pts):
    """Hulls built as clips of their polar equal, field for field, the
    beneath-beyond hulls they replace, and both refuse the same inputs with
    the same message."""
    assert hull_fields(build_polytope, pts) == hull_fields(
        oracles.build_polytope_beneath_beyond, pts
    )


def test_reflexive_polygons():
    """The 64 polygons with vertices in [-1, 1]^2 and the origin as their one
    interior lattice point are reflexive: every facet lies at lattice
    distance 1 from the origin, so the boundary measure is twice the area
    and, for linear q, the boundary integral of e^q equals the integral of
    (2 + q) e^q over P (the divergence of x e^q)."""
    grid = list(product((-1, 0, 1), repeat=2))
    polygons = {}
    for mask in range(1, 1 << 9):
        try:
            P = build_polytope([g for i, g in enumerate(grid) if mask >> i & 1])
        except DegenerateHull:
            continue
        if P.contains((0, 0), strict=True):
            polygons[tuple(v.coords for v in P.vertices)] = P
    assert len(polygons) == 64
    xis = [(Fraction(1, 3), Fraction(1, 2)), (Fraction(-2, 3), Fraction(1, 5)),
           (Fraction(3, 4), Fraction(-5, 7))]
    for P in polygons.values():
        assert all(f.offset == 1 for f in P.facets)
        assert P.boundary_measure() == 2 * P.volume()
        for xi in xis:
            q = AffineForm(xi, 0)
            B = boundary_exp_integral(P, q).value
            C = polytope_exp_integral(P, q, weight="entropy").value
            assert abs(B - C) <= 1e-13 * B


def test_reflexive_polytopes_3d():
    """The cube [-1, 1]^3, the octahedron conv(+-e_i) and the simplex of P^3
    are reflexive: every facet offset is 1, the boundary measure is three
    times the volume and, for q = <mu, -xi>, the boundary integral of e^q
    equals the integral of (3 + q) e^q.  On the two simple ones the
    boundary localization gives the same value; the octahedron's vertices
    are not simple, so it is checked by triangulation only."""
    cube = build_polytope(list(product((-1, 1), repeat=3)))
    axes = [tuple(s * (i == j) for j in range(3)) for i in range(3) for s in (1, -1)]
    octahedron = build_polytope(axes)
    simplex = build_polytope([(-1, -1, -1), (3, -1, -1), (-1, 3, -1), (-1, -1, 3)])
    xis = [(Fraction(1, 3), Fraction(1, 2), Fraction(-1, 4)),
           (Fraction(-2, 3), Fraction(1, 5), Fraction(1, 7)),
           (Fraction(3, 4), Fraction(-5, 7), Fraction(2, 9))]
    for P in (cube, octahedron, simplex):
        assert all(f.offset == 1 for f in P.facets)
        assert P.boundary_measure() == 3 * P.volume()
        for xi in xis:
            eta = tuple(-c for c in xi)
            q = AffineForm(eta, 0)
            B = boundary_exp_integral(P, q).value
            C = polytope_exp_integral(P, q, weight="entropy").value
            assert abs(B - C) <= 1e-13 * B
            if P is not octahedron:
                assert abs(brion_localize_limit(P, eta, boundary=True) - C) <= 1e-13 * C
    assert octahedron.nonsimple_vertices


def test_unit_square_exact_data():
    P = support.unit_square()
    assert P.volume() == 1
    assert P.boundary_measure() == 4
    assert tuple(P.barycenter().coords) == (Fraction(1, 2), Fraction(1, 2))
    assert sorted(P.facet_measure(i) for i in range(len(P.facets))) == [1, 1, 1, 1]
    assert all(cone.index == 1 for cone in P.vertex_cones)
    assert P.nonsimple_vertices == ()


def test_segment_data():
    P = support.unit_segment()
    assert P.dim == 1
    assert P.volume() == 1
    assert P.boundary_measure() == 2
    assert len(P.facets) == 2


def test_blowup_pentagon_exact_data():
    P = support.blowup_polytope()
    assert len(P.vertices) == 5
    assert P.volume() == Fraction(7, 2)
    assert P.boundary_measure() == 7
    hull = oracles.hull_ccw(verts(P))
    assert P.volume() == oracles.shoelace_area(hull)
    assert P.boundary_measure() == oracles.polygon_boundary_measure(hull)


def test_donaldson_polygon_exact_data():
    P = support.donaldson_polytope()
    assert len(P.vertices) == 9
    assert P.volume() == Fraction(71, 10)
    assert P.boundary_measure() == Fraction(33, 5)
    hull = oracles.hull_ccw(verts(P))
    assert P.volume() == oracles.shoelace_area(hull)
    assert P.boundary_measure() == oracles.polygon_boundary_measure(hull)
    # Orbifold indices of the vertex cones: 3 at each of the six cut
    # corners, 40 at each of the three shallow-slice vertices.
    assert sorted(c.index for c in P.vertex_cones) == [3] * 6 + [40] * 3
    assert P.nonsimple_vertices == ()


def test_random_polytopes_match_shoelace(subtests=None):
    rng = random.Random(31415)
    for _ in range(40):
        P = support.random_polytope(rng)
        hull = oracles.hull_ccw(verts(P))
        assert P.volume() == oracles.shoelace_area(hull)
        assert P.boundary_measure() == oracles.polygon_boundary_measure(hull)
        assert sum(P.facet_measure(i) for i in range(len(P.facets))) == (
            P.boundary_measure()
        )


def test_facets_support_their_vertices():
    rng = random.Random(7)
    for _ in range(20):
        P = support.random_polytope(rng)
        for f in P.facets:
            for i, v in enumerate(P.vertices):
                val = sum(Fraction(n) * c for n, c in zip(f.normal, v.coords))
                if i in f.vertex_indices:
                    assert val == f.offset
                else:
                    assert val < f.offset


def test_contains():
    P = support.unit_square()
    assert P.contains((Fraction(1, 2), Fraction(1, 2)))
    assert P.contains((0, 0))
    assert not P.contains((0, 0), strict=True)
    assert not P.contains((2, 0))


def test_clip_cases():
    P = support.unit_square()
    tri = P.clip((1, 1), 1)
    assert tri.volume() == Fraction(1, 2)
    assert verts(tri) == [(0, 0), (0, 1), (1, 0)]
    assert P.clip((1, 0), -1) is EMPTY
    assert P.clip((1, 1), 0) is EMPTY  # touches only a corner
    same = P.clip((1, 0), 5)
    assert same.volume() == 1 and len(same.vertices) == 4


def test_triangulation_volumes_sum():
    rng = random.Random(5150)
    for _ in range(15):
        P = support.random_polytope(rng)
        pieces = triangulate(P)
        assert sum(s.normalized_volume() for s in pieces) == P.volume()
        for s in pieces:
            assert s.normalized_volume() == abs(s.edge_matrix_det()) / 2


def test_lattice_points_small_cases():
    square = support.unit_square()
    assert sorted(square.lattice_points()) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert len(square.lattice_points(scale=2)) == 9
    seg = support.unit_segment()
    assert sorted(seg.lattice_points(scale=3)) == [(0,), (1,), (2,), (3,)]


@settings(max_examples=80, deadline=None)
@given(support.exact_polytopes(), st.integers(1, 7))
def test_lattice_points_match_box_scan(P, scale):
    assert P.lattice_points(scale) == oracles.lattice_points_scan(P, scale)


@pytest.mark.parametrize("scale", [0, -1, 2.5, Fraction(5, 2), "2", None, float("inf")])
def test_lattice_points_reject_bad_scale(scale):
    with pytest.raises(ValueError):
        support.unit_square().lattice_points(scale)


def test_lattice_points_accept_integral_scale_values():
    square = support.unit_square()
    assert square.lattice_points(2.0) == square.lattice_points(Fraction(4, 2))
    assert len(square.lattice_points(2)) == 9


def test_blowup_ehrhart_counts():
    # P = {-1 <= x, y <= 1, x + y <= 1}: hand enumeration gives 8 points,
    # and Ehrhart vol*t^2 + (bnd/2)*t + 1 gives 22 and 43 at t = 2, 3.
    P = support.blowup_polytope()
    ineqs = [((-1, 0), 1), ((1, 0), 1), ((0, -1), 1), ((0, 1), 1), ((1, 1), 1)]
    for scale, expected in ((1, 8), (2, 22), (3, 43)):
        pts = P.lattice_points(scale=scale)
        assert len(pts) == expected
        assert len(set(pts)) == expected
        assert oracles.brute_lattice_count(ineqs, (-3 * scale, 3 * scale), scale) == (
            expected
        )


def test_lattice_points_match_facet_inequalities():
    rng = random.Random(777)
    for _ in range(8):
        P = support.random_polytope(rng)
        ineqs = [(f.normal, f.offset) for f in P.facets]
        span = 1 + max(
            int(abs(c)) for v in P.vertices for c in v.coords
        )
        expected = oracles.brute_lattice_count(ineqs, (-2 * span, 2 * span), 2)
        assert len(P.lattice_points(scale=2)) == expected


def unimodular_image(P, mat, shift):
    pts = []
    for v in P.vertices:
        x, y = v.coords
        pts.append(
            (
                mat[0][0] * x + mat[0][1] * y + shift[0],
                mat[1][0] * x + mat[1][1] * y + shift[1],
            )
        )
    return build_polytope(pts)


@pytest.mark.parametrize(
    "mat", [((1, 1), (0, 1)), ((0, -1), (1, 0)), ((2, 1), (1, 1)), ((1, 0), (-3, 1))]
)
def test_unimodular_invariance(mat):
    rng = random.Random(sum(map(abs, mat[0] + mat[1])))
    for _ in range(6):
        P = support.random_polytope(rng)
        Q = unimodular_image(P, mat, (3, -2))
        assert Q.volume() == P.volume()
        assert Q.boundary_measure() == P.boundary_measure()
        assert len(Q.lattice_points(scale=2)) == len(P.lattice_points(scale=2))
        assert sorted(c.index for c in Q.vertex_cones) == sorted(
            c.index for c in P.vertex_cones
        )


def test_triangulation_keeps_no_facet_charts():
    P = support.readme_pentagon()
    cell = P.clip((1, 0), Fraction(1, 2))
    assert len(cell.triangulate()) > 1 and len(P.triangulate()) > 1
    # the charts a triangulation builds are not stored on what it triangulates
    assert cell._facet_charts == {} and P._facet_charts == {}
    # and its simplices hold the polytope's own vertex objects, not copies
    for Q in (P, cell, build_polytope(support.UNIT_CUBE)):
        assert all(any(v is w for w in Q.vertices) for s in Q.triangulate() for v in s.vertices)
    assert P.facet_polytope(1) is P.facet_polytope(1)
    assert list(P._facet_charts) == [1]


def test_facet_chart_measures():
    P = support.blowup_polytope()
    for i in range(len(P.facets)):
        sub, origin, basis = P.facet_polytope(i)
        assert sub.dim == 1
        assert sub.volume() == P.facet_measure(i)
        # chart really parametrizes the facet: origin + basis @ y hits vertices
        f = P.facets[i]
        chart_points = set()
        for y in sub.vertices:
            pt = tuple(
                o + sum(b[k] * yc for k, yc in enumerate(y.coords))
                for o, b in zip(origin.coords, zip(*basis))
            )
            chart_points.add(pt)
        facet_vertices = {tuple(P.vertices[j].coords) for j in f.vertex_indices}
        assert chart_points == facet_vertices


def test_json_round_trip():
    P = support.donaldson_polytope()
    text = P.to_json()
    data = json.loads(text)
    assert "vertices" in data
    Q = polytope_from_json(text)
    assert verts(Q) == verts(P)
    assert Q.volume() == P.volume()
    assert Q.boundary_measure() == P.boundary_measure()


def test_json_dim_field_is_optional():
    bare = json.dumps({"vertices": [["-1/2", 0], [1, 0], [0, 1]]})
    Q = polytope_from_json(bare)
    assert Q.dim == 2
    assert Q.volume() == Fraction(3, 4)
    with pytest.raises(ValueError):
        polytope_from_json(json.dumps({"dim": 3, "vertices": [[0, 0], [1, 0], [0, 1]]}))


# -- incremental clip against the clip-and-rebuild oracle ----------------------

SIMPLEX_3D = [(0, 0, 0), (2, 0, 0), (0, 3, 0), (1, 1, 2)]
PYRAMID = [(0, 0, 0), (2, 0, 0), (0, 2, 0), (2, 2, 0), (1, 1, 1)]


@st.composite
def clip_inputs(draw):
    """A polytope, then a halfspace (normal, offset) of one of four kinds."""
    shape = draw(st.sampled_from(["hexagon", "segment", "cube", "simplex", "pyramid"]))
    if shape == "hexagon":
        pts = draw(
            st.lists(st.tuples(support.quarter, support.quarter), min_size=6, max_size=6)
        )
    elif shape == "segment":
        pts = draw(st.lists(st.tuples(support.quarter), min_size=2, max_size=2))
    else:
        pts = {"cube": support.UNIT_CUBE, "simplex": SIMPLEX_3D, "pyramid": PYRAMID}[shape]
    try:
        P = build_polytope(pts)
    except DegenerateHull:
        assume(False)
    return P, draw(halfspaces(P))


def halfspaces(P):
    n = P.dim
    vertex = st.sampled_from(P.vertices)
    facet = st.sampled_from(P.facets)
    normal = st.tuples(*[st.integers(-3, 3)] * n).filter(any)
    scale = st.integers(1, 3)

    def through_vertex(args):
        a, v = args
        return a, v.dot(a)

    def along_facet(args):
        f, k, flip = args
        a = tuple(k * c for c in f.normal)
        if flip:
            return tuple(-c for c in a), -k * f.offset
        return a, k * f.offset

    def cut_single_vertex(vi):
        a = [0] * n
        for f in P.facets:
            if vi in f.vertex_indices:
                a = [x + c for x, c in zip(a, f.normal)]
        top = P.vertices[vi].dot(a)
        gap = min(top - w.dot(a) for w in P.vertices if w != P.vertices[vi])
        return tuple(a), top - gap / 2

    @st.composite
    def at_random_offset(draw):
        a = draw(normal)
        vals = [v.dot(a) for v in P.vertices]
        t = Fraction(draw(st.integers(-2, 12)), 10)
        return a, min(vals) + t * (max(vals) - min(vals))

    return st.one_of(
        st.tuples(normal, vertex).map(through_vertex),
        st.tuples(facet, scale, st.booleans()).map(along_facet),
        st.integers(0, len(P.vertices) - 1).map(cut_single_vertex),
        at_random_offset(),
    )


def cone_data(cones):
    return [None if c is None else (c.generators, c.index) for c in cones]


def clip_fields(P):
    return (
        P.dim,
        [v.coords for v in P.vertices],
        [(f.normal, f.offset, f.vertex_indices) for f in P.facets],
        cone_data(P.vertex_cones),
        P.nonsimple_vertices,
    )


def assert_clip_matches_oracle(P, normal, offset):
    got = P.clip(normal, offset)
    want = oracles.clip_rebuild(P, normal, offset)
    if want == "EMPTY":
        assert got is EMPTY
    elif want is P:
        assert got is P
    else:
        eager = _vertex_cones(want.vertices, want.facets, want.dim)
        assert clip_fields(got) == clip_fields(want)
        assert cone_data(got.vertex_cones) == cone_data(eager[0])
        assert got.nonsimple_vertices == eager[1]
        assert got.simple == (not eager[1])
    return got


@settings(max_examples=300, deadline=None)
@given(clip_inputs(), st.data())
def test_clip_matches_clip_and_rebuild(case, data):
    P, (normal, offset) = case
    Q = assert_clip_matches_oracle(P, normal, offset)
    if Q is not EMPTY:
        # a clipped polytope carries inherited incidences into the next clip
        normal2, offset2 = data.draw(halfspaces(Q))
        assert_clip_matches_oracle(Q, normal2, offset2)


def test_clip_pyramid_apex_makes_it_simple():
    P = build_polytope(PYRAMID)
    assert P.nonsimple_vertices == (2,) and not P.simple  # the apex (1, 1, 1)
    frustum = assert_clip_matches_oracle(P, (0, 0, 2), 1)
    assert frustum.simple and len(frustum.vertices) == 8
    assert frustum.volume() == P.volume() - Fraction(1, 6)


# -- the one forward elimination against the per-system copies ---------------

small_fractions = st.one_of(
    st.just(Fraction(0)), st.fractions(min_value=-3, max_value=3, max_denominator=4)
)


@st.composite
def rational_matrices(draw):
    """A square matrix of small rationals, often singular: with a zero row,
    leading zero columns, or one row a combination of two others."""
    n = draw(st.integers(1, 5))
    m = [[draw(small_fractions) for _ in range(n)] for _ in range(n)]
    shape = draw(st.sampled_from(["any", "zero row", "zero columns", "combination"]))
    i = draw(st.integers(0, n - 1))
    if shape == "zero row":
        m[i] = [Fraction(0)] * n
    elif shape == "zero columns":
        for row in m:
            row[: i + 1] = [Fraction(0)] * (i + 1)
    elif shape == "combination" and n >= 3:
        a, b = draw(small_fractions), draw(small_fractions)
        m[i] = [a * x + b * y for x, y in zip(m[i - 1], m[i - 2])]
    return m


def solve(rows, rhs):
    """The square solve that the package's callers make: one elimination of
    [rows | rhs], then back substitution; None when singular."""
    n = len(rows)
    m, pivots, _ = _echelon([list(r) + [b] for r, b in zip(rows, rhs)], n)
    return tuple(_back(m, pivots, [r[n] for r in m], [0] * n)) if len(pivots) == n else None


@settings(max_examples=400, deadline=None)
@given(rational_matrices(), st.data())
def test_elimination_matches_per_system_copies(m, data):
    n = len(m)
    rhs = data.draw(st.lists(small_fractions, min_size=n, max_size=n))
    transpose = [list(col) for col in zip(*m)]
    assert _det(m) == oracles._det(m)
    assert _rank(m) == oracles._rank(m)
    assert _rank(transpose) == oracles._rank(transpose)
    assert solve(m, rhs) == oracles._solve(m, rhs)
    # the pivot columns of the transpose are the greedy independent rows
    base = []
    for i, row in enumerate(m):
        if oracles._rank([m[j] for j in base] + [row]) == len(base) + 1:
            base.append(i)
    assert _echelon(transpose, n)[1] == base
    if n >= 2:
        rows = m[:-1]
        assert _rank(rows) == oracles._rank(rows)


@settings(max_examples=300, deadline=None)
@given(rational_matrices(), st.data())
def test_closed_forms_equal_elimination(m, data):
    """_det writes out 1 x 1 and 2 x 2 determinants and _chart_coords a
    chart of one basis vector; both equal one elimination (the oracles'
    copies), on singular rows too, and _det returns a Fraction for int
    entries as elimination does."""
    n = len(m)
    if n == 2 and data.draw(st.booleans()):
        m[1] = [data.draw(small_fractions) * x for x in m[0]]
    ints = [[int(12 * x) for x in row] for row in m]
    for rows in (m, ints):
        got = _det(rows)
        assert type(got) is Fraction and got == oracles.det_elimination(rows)
    basis = [tuple(data.draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)))]
    if any(basis[0]):
        assert _chart_coords(m, basis) == oracles.chart_coords_elimination(m, basis)
    else:
        for solve_chart in (_chart_coords, oracles.chart_coords_elimination):
            with pytest.raises(ValueError):
                solve_chart(m, basis)


@st.composite
def hulls_3d(draw):
    """A 3-D hull of quarter-grid points with a duplicate, an edge midpoint
    and an interior point among its inputs."""
    quarter = support.quarter
    pts = draw(st.lists(st.tuples(quarter, quarter, quarter), min_size=4, max_size=8))
    a, b = pts[0], pts[1]
    pts += [a, tuple((x + y) / 2 for x, y in zip(a, b))]
    pts.append(tuple(sum(c) / len(pts) for c in zip(*pts)))
    try:
        return build_polytope(draw(st.permutations(pts)))
    except DegenerateHull:
        assume(False)


def assert_geometry_matches_copies(P):
    cones, nonsimple = oracles._vertex_cones(P.vertices, P.facets, P.dim)
    assert cone_data(P.vertex_cones) == cone_data(cones)
    assert P.nonsimple_vertices == nonsimple
    if P.dim == 1:
        return
    for i, f in enumerate(P.facets):
        sub, origin, basis = P.facet_polytope(i)
        want_basis = _kernel_basis_int(f.normal)
        want_origin = P.vertices[f.vertex_indices[0]]
        ys = [
            oracles._chart_coords(_sub(P.vertices[vi].coords, want_origin.coords), want_basis)
            for vi in f.vertex_indices
        ]
        assert (origin, basis) == (want_origin, want_basis)
        assert clip_fields(sub) == clip_fields(build_polytope(ys))


@st.composite
def cells_3d(draw):
    """A cell of a potential of 2-4 pieces on the unit cube, the 3-simplex
    or the pyramid: a clipped 3-polytope whose facets are faces of cuts."""
    P = build_polytope(draw(st.sampled_from([support.UNIT_CUBE, SIMPLEX_3D, PYRAMID])))
    piece = st.tuples(st.tuples(*[support.quarter] * 3), support.quarter)
    pieces = draw(st.lists(piece, min_size=2, max_size=4))
    return draw(st.sampled_from(make_pa([AffineForm(g, c) for g, c in pieces], P).cells()))[1]


@settings(max_examples=100, deadline=None)
@given(st.one_of(support.exact_polytopes(), hulls_3d(), cells_3d()))
def test_charts_and_cones_match_per_system_copies(P):
    assert_geometry_matches_copies(P)


@settings(max_examples=100, deadline=None)
@given(st.one_of(support.exact_polytopes(), hulls_3d(), cells_3d()))
def test_simplex_facets_triangulate_as_their_charts(P):
    """A simplex facet taken whole, and any other facet triangulated as its
    face (read off P's incidences), give the simplices, in the vertex order,
    of triangulating every facet in a hull built for it (the oracle's copy),
    and every simplex vertex is one of P's own vertex objects.  Cells of 3-D
    potentials are drawn too: their facets include the cuts."""
    got = _triangulate(P)
    want = oracles.triangulate_charts(P)
    assert [[v.coords for v in s.vertices] for s in got] == [
        [v.coords for v in s.vertices] for s in want
    ]
    own = {id(v) for v in P.vertices}
    assert all(id(v) in own for s in got for v in s.vertices)
