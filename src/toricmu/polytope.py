"""Exact rational polytopes with lattice-normalized measures.

Everything here runs on ``fractions.Fraction``: hulls, facet data, clipping,
triangulation, volumes.  One algorithm constructs polytopes: clip, one
incremental double-description step; a hull is its polar clipped once per
point.  The ambient lattice is Z^n.  Volume is normalized so
the unit cube has volume 1, and each facet carries the (n-1)-dimensional
measure induced by its own lattice (Euclidean area divided by the Euclidean
length of the primitive integer normal).  That normalization is what makes
the boundary terms of the entropy functionals lattice-invariant.
"""

from __future__ import annotations

import json
import operator
import sys
from fractions import Fraction
from functools import cached_property
from itertools import product
from math import ceil, factorial, floor, gcd, inf, isfinite, prod


class InputError(ValueError):
    """An argument the library cannot use: its type, shape, or range."""


class DegenerateHull(InputError):
    """Raised when input points do not affinely span the ambient space."""


class _EmptyRegion:
    """Sentinel for an empty or measure-zero clip result."""

    __slots__ = ()

    def __repr__(self):
        return "EMPTY"

    def __bool__(self):
        return False


EMPTY = _EmptyRegion()


def _rational(value, name) -> Fraction:
    """Fraction(value), the one gate where an outside value becomes exact: a float
    converts exactly, to its binary value; for decimals pass text ("0.1" is 1/10).
    InputError, naming the argument, for nan, inf, bad text, "1/0" or a non-number."""
    try:
        return Fraction(value)
    except (TypeError, ValueError, OverflowError, ZeroDivisionError):
        raise InputError("%s: %r is not a rational number" % (name, value)) from None


def _iterable(value, name):
    """value itself, or InputError if it is a string or not iterable."""
    if isinstance(value, (str, bytes)) or not hasattr(value, "__iter__"):
        raise InputError("%s: %r is not a sequence" % (name, value))
    return value


class RationalVector:
    """Immutable point/vector of Q^n with exact arithmetic."""

    __slots__ = ("coords",)

    def __init__(self, coords):
        self.coords = _coords(coords, "a vector")

    def __len__(self):
        return len(self.coords)

    def __iter__(self):
        return iter(self.coords)

    def __getitem__(self, i):
        return self.coords[i]

    def __eq__(self, other):
        if isinstance(other, RationalVector):
            return self.coords == other.coords
        return NotImplemented

    def __hash__(self):
        return hash(self.coords)

    def __add__(self, other):
        other = _fit(_coords(other, "the added vector"), len(self), "the added vector")
        return RationalVector(a + b for a, b in zip(self.coords, other))

    def __sub__(self, other):
        other = _fit(_coords(other, "the subtracted vector"), len(self), "the subtracted vector")
        return RationalVector(a - b for a, b in zip(self.coords, other))

    def __rmul__(self, s):
        s = _rational(s, "the scale factor")
        return RationalVector(s * c for c in self.coords)

    def dot(self, other) -> Fraction:
        name = "the paired vector"
        return _dot(self.coords, _fit(_coords(other, name), len(self.coords), name))

    def floats(self):
        return tuple(_finite(c, "a coordinate") for c in self.coords)

    def __repr__(self):
        return "RationalVector((%s))" % ", ".join(str(c) for c in self.coords)


def _coords(v, name):
    """v's coords if v is a RationalVector, else its entries through _rational."""
    if isinstance(v, RationalVector):
        return v.coords
    return tuple(_rational(c, name) for c in _iterable(v, name))


def _dot(u, v) -> Fraction:
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def _sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


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


def _primitive_halfspace(normal, offset):
    """(u, b) with u the primitive integer vector along the nonzero rational
    normal and <x, u> <= b the same halfspace as <x, normal> <= offset."""
    u = _primitive(normal)
    k = next(k for k, c in enumerate(normal) if c != 0)
    return u, offset * u[k] / normal[k]


def _echelon(rows, width):
    """Exact forward elimination over the first width columns of rows.

    Returns (m, pivots, det): the eliminated rows, where row r has its pivot
    in column pivots[r] and zeros below it in every pivot column; and the
    determinant of the first width columns when they form a nonsingular
    square, otherwise 0.  Columns past width ride along as right-hand sides.
    """
    m = [list(map(Fraction, r)) for r in rows]
    nr = len(m)
    pivots = []
    det = Fraction(1)
    for col in range(width):
        top = len(pivots)
        if top == nr:
            break
        piv = top
        while piv < nr and m[piv][col] == 0:
            piv += 1
        if piv == nr:
            continue
        if piv != top:
            m[top], m[piv] = m[piv], m[top]
            det = -det
        prow = m[top]
        p = prow[col]
        det *= p
        for r in range(top + 1, nr):
            row = m[r]
            if row[col] != 0:
                f = row[col] / p
                for c in range(col, len(row)):
                    row[c] -= f * prow[c]
        pivots.append(col)
    if len(pivots) != width or nr != width:
        det = Fraction(0)
    return m, pivots, det


def _back(m, pivots, rhs, x):
    """Fill x at the pivot columns so that m[r] . x = rhs[r] for each pivot
    row of an echelon form; the other entries of x keep their values."""
    for r in range(len(pivots) - 1, -1, -1):
        c = pivots[r]
        row = m[r]
        x[c] = (rhs[r] - sum(row[j] * x[j] for j in range(c + 1, len(x)))) / row[c]
    return x


def _det(rows) -> Fraction:
    """Determinant of a square matrix of ints and Fractions; 1 x 1 and
    2 x 2 are written out."""
    n = len(rows)
    if n == 1:
        det = rows[0][0]
    elif n == 2:
        (a, b), (c, d) = rows
        det = a * d - b * c
    else:
        return _echelon(rows, n)[2]
    return det if isinstance(det, Fraction) else Fraction(det)


def _rank(rows) -> int:
    return len(_echelon(rows, len(rows[0]))[1]) if rows else 0


def _kernel_basis_int(u):
    """Basis of the integer kernel {x in Z^n : <u,x> = 0} for primitive u.

    Column gcd reduction on the identity; the columns whose pairing with u
    has been driven to zero generate the kernel lattice exactly.
    """
    n = len(u)
    cols = [[1 if i == j else 0 for i in range(n)] for j in range(n)]
    pair = list(u)
    while True:
        nz = [j for j in range(n) if pair[j] != 0]
        if len(nz) <= 1:
            break
        piv = min(nz, key=lambda j: abs(pair[j]))
        for j in nz:
            if j == piv:
                continue
            q = pair[j] // pair[piv]
            if q != 0:
                pair[j] -= q * pair[piv]
                cols[j] = [cols[j][i] - q * cols[piv][i] for i in range(n)]
    basis = tuple(tuple(cols[j]) for j in range(n) if pair[j] == 0)
    assert len(basis) == n - 1
    return basis


class Facet:
    """One facet: outward primitive integer normal, offset, vertex indices."""

    __slots__ = ("normal", "offset", "vertex_indices")

    def __init__(self, normal, offset, vertex_indices):
        self.normal = tuple(int(c) for c in normal)
        self.offset = Fraction(offset)
        self.vertex_indices = tuple(vertex_indices)

    def __repr__(self):
        return "Facet(normal=%r, offset=%s)" % (self.normal, self.offset)


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


class Simplex:
    """Full-dimensional simplex; normalized_volume is |det| / n!."""

    __slots__ = ("vertices",)

    def __init__(self, vertices):
        self.vertices = tuple(
            v if isinstance(v, RationalVector) else RationalVector(v) for v in vertices
        )

    @property
    def dim(self):
        return len(self.vertices) - 1

    def edge_matrix_det(self) -> Fraction:
        v0 = self.vertices[0].coords
        rows = [_sub(v.coords, v0) for v in self.vertices[1:]]
        return _det(rows)

    def normalized_volume(self) -> Fraction:
        return abs(self.edge_matrix_det()) / factorial(self.dim)

    def triangulate(self):
        return [self]

    def __repr__(self):
        return "Simplex(%r)" % (self.vertices,)


class LatticePolytope:
    """Full-dimensional rational polytope with exact facet data.

    Construct through :func:`build_polytope`, :meth:`clip` or
    :meth:`facet_polytope`, which all return through ``_canonical``; the
    constructor trusts its arguments.  Vertex cones are computed on first use.
    """

    def __init__(self, dim, vertices, facets):
        self.dim = dim
        self.vertices = tuple(vertices)
        self.facets = tuple(facets)
        self._volume = None
        self._triangulation = None
        self._facet_charts = {}

    @cached_property
    def _cones(self):
        return _vertex_cones(self.vertices, self.facets, self.dim)

    @property
    def vertex_cones(self):
        """Tangent cone per vertex, None at a non-simple vertex."""
        return self._cones[0]

    @property
    def nonsimple_vertices(self):
        return self._cones[1]

    @property
    def simple(self):
        return not self._cones[1]

    # -- measures ---------------------------------------------------------

    def volume(self) -> Fraction:
        if self._volume is None:
            self._volume = sum(
                (s.normalized_volume() for s in self.triangulate()), Fraction(0)
            )
        return self._volume

    def facet_measure(self, facet_index) -> Fraction:
        """Lattice measure of a facet.

        Equals the Lebesgue measure of the facet pulled back through an
        integer basis of the facet's own lattice, so it is invariant under
        GL(n, Z) and translation.  A segment's facets are points of
        measure 1.
        """
        sub, _, _ = self.facet_polytope(facet_index)
        return sub.volume()

    def boundary_measure(self) -> Fraction:
        return sum(
            (self.facet_measure(i) for i in range(len(self.facets))), Fraction(0)
        )

    def barycenter(self) -> RationalVector:
        total = self.volume()
        acc = [Fraction(0)] * self.dim
        for s in self.triangulate():
            w = s.normalized_volume() / (self.dim + 1)
            for v in s.vertices:
                for i, c in enumerate(v.coords):
                    acc[i] += w * c
        return RationalVector(c / total for c in acc)

    # -- membership and clipping ------------------------------------------

    def contains(self, point, strict=False) -> bool:
        p = _fit(_coords(point, "point"), self.dim, "point")
        for f in self.facets:
            val = _dot(p, f.normal)
            if val > f.offset or (strict and val == f.offset):
                return False
        return True

    def clip(self, normal, offset):
        """Intersect with the halfspace <x, normal> <= offset.

        One incremental double-description step (Fukuda & Prodon 1996):
        vertices inside the halfspace are kept, one new vertex is placed on
        each edge that crosses the hyperplane, and every vertex-facet
        incidence is inherited from this polytope instead of recomputed.
        The result is canonical and equal, field for field, to
        build_polytope of the clipped region.  Returns EMPTY when the
        intersection is empty or not full-dimensional.
        """
        normal = _fit(_coords(normal, "normal"), self.dim, "normal")
        offset = _rational(offset, "offset")
        if all(c == 0 for c in normal):
            return self if offset >= 0 else EMPTY
        vals = [_dot(v.coords, normal) for v in self.vertices]
        if max(vals) <= offset:
            return self
        if min(vals) >= offset:
            return EMPTY
        # From here the hyperplane meets the interior, so the result is
        # full-dimensional and the new facet differs from every old one.
        n = self.dim
        inc = [set() for _ in self.vertices]
        for k, f in enumerate(self.facets):
            for vi in f.vertex_indices:
                inc[vi].add(k)
        inside = [i for i, val in enumerate(vals) if val < offset]
        outside = [i for i, val in enumerate(vals) if val > offset]
        # points after the inside ones all lie on the new hyperplane
        kept = inside + [i for i, val in enumerate(vals) if val == offset]
        points = [self.vertices[i].coords for i in kept]
        incidence = [inc[i] for i in kept]
        for i in inside:
            vi = self.vertices[i].coords
            for j in outside:
                common = inc[i] & inc[j]
                # [v_i, v_j] is an edge iff the facets through both have
                # normals of rank n - 1; in the plane one shared facet is enough
                if len(common) < n - 1 or (
                    n > 2 and _rank([self.facets[k].normal for k in common]) < n - 1
                ):
                    continue
                t = (offset - vals[i]) / (vals[j] - vals[i])
                vj = self.vertices[j].coords
                points.append(tuple(a + t * (b - a) for a, b in zip(vi, vj)))
                incidence.append(common)

        # An old facet stays (n-1)-dimensional iff one of its vertices lies
        # strictly inside: otherwise it meets the halfspace only within the
        # hyperplane.
        alive = set()
        for i in inside:
            alive |= inc[i]
        members = {k: [] for k in alive}
        for p, ks in enumerate(incidence):
            for k in ks:
                if k in alive:
                    members[k].append(p)
        planes = [
            (self.facets[k].normal, self.facets[k].offset, members[k]) for k in alive
        ]
        planes.append((*_primitive_halfspace(normal, offset), range(len(inside), len(points))))
        return _canonical(n, points, planes)

    # -- structure ---------------------------------------------------------

    def triangulate(self):
        if self._triangulation is None:
            self._triangulation = _triangulate(self)
        return list(self._triangulation)

    def facet_polytope(self, facet_index):
        """Facet facet_index, an integer in [0, len(facets)), in exact lattice chart coordinates.

        Returns (sub_polytope, origin, basis) where points of the facet are
        origin + basis @ y.  The chart maps the facet lattice onto Z^{n-1},
        so sub-polytope volume equals the facet's lattice measure.  The
        sub-polytope is read off this polytope's incidences (see _face); no
        hull is built.  On a segment a facet is an end point: the chart is
        (POINT, end point, ()).  Cached here for restrict_to_facet and
        facet_measure; _triangulate keeps none of the faces it builds.
        """
        facet_index = _natural(facet_index, "facet index", len(self.facets))
        if facet_index not in self._facet_charts:
            f = self.facets[facet_index]
            if self.dim == 1:
                chart = (POINT, self.vertices[f.vertex_indices[0]], ())
            else:
                origin, basis, ys = _facet_coords(self, f)
                chart = (_face(self, f, origin, basis, ys), origin, basis)
            self._facet_charts[facet_index] = chart
        return self._facet_charts[facet_index]

    def lattice_points(self, scale=1):
        """Integer points of scale * P (scale a positive integer).

        Listed in itertools.product order over the vertex box: the outer
        coordinates run over the box and the last one over its fiber, an
        integer range cut out by the facets <p, u> <= floor(scale * b).
        """
        scale = _positive_int(scale, "scale")
        if self.dim == 0:  # the one point of R^0
            return [()]
        rows = [(f.normal, floor(scale * f.offset)) for f in self.facets]
        box = []
        for i in range(self.dim):
            vals = [scale * v.coords[i] for v in self.vertices]
            box.append(range(ceil(min(vals)), floor(max(vals)) + 1))
        if prod(r.stop - r.start for r in box) > sys.maxsize:
            raise InputError("the vertex box of %d P has more than 2^63 points" % scale)
        out = []
        for head in product(*box[:-1]):
            lo, hi = box[-1].start, box[-1].stop - 1
            for normal, bound in rows:
                rest = bound - sum(a * x for a, x in zip(normal, head))
                a = normal[-1]
                if a > 0:
                    hi = min(hi, rest // a)
                elif a < 0:
                    lo = max(lo, -(rest // -a))
                elif rest < 0:
                    hi = lo - 1
                    break
            out.extend(head + (x,) for x in range(lo, hi + 1))
        return out

    # -- serialization ------------------------------------------------------

    def to_json(self) -> str:
        return json.dumps(
            {
                "dim": self.dim,
                "vertices": [[str(c) for c in v.coords] for v in self.vertices],
            }
        )

    @classmethod
    def from_json(cls, text):
        """Inverse of to_json: {"vertices": [[c, ...], ...]} with an optional
        "dim", coordinates as numbers (0.1 is 1/10) or "num/den" strings.
        InputError for any other shape."""
        try:
            data = json.loads(text, parse_float=Fraction)
            rows = data["vertices"]
        except (KeyError, TypeError, ValueError) as err:
            raise InputError("not a polytope: %s: %s" % (type(err).__name__, err)) from None
        P = build_polytope(rows)
        if data.get("dim", P.dim) != P.dim:
            raise InputError("dim field does not match vertex length")
        return P

    def __repr__(self):
        return "LatticePolytope(dim=%d, vertices=%d, facets=%d)" % (
            self.dim,
            len(self.vertices),
            len(self.facets),
        )


# The 0-dimensional polytope: the chart of a segment's end point.
POINT = LatticePolytope(0, [RationalVector(())], [])


def _positive_int(value, name) -> int:
    """value as an int, or InputError unless it is an integer >= 1."""
    try:
        k = int(value)
    except (TypeError, ValueError, OverflowError):
        raise InputError("%s must be an integer >= 1, got %s" % (name, value)) from None
    if k != value or k < 1:
        raise InputError("%s must be an integer >= 1, got %s" % (name, value))
    return k


def _natural(value, name, stop=inf) -> int:
    """value as an int; InputError unless it is an integer (2.0 is not) in [0, stop)."""
    try:
        k = operator.index(value)
    except TypeError:
        raise InputError("%s must be an integer, got %r" % (name, value)) from None
    if not 0 <= k < stop:
        raise InputError("%s must lie in [0, %s), got %d" % (name, stop, k))
    return k


def _fit(vector, dim, name):
    """vector itself, or InputError unless it has dim coordinates: the one
    check that a point, direction or gradient matches a polytope."""
    if len(vector) != dim:
        raise InputError("%s has %d coordinates, expected %d" % (name, len(vector), dim))
    return vector


def _finite(value, name) -> float:
    """float(value), the one gate where an exact value or an argument becomes a
    float: InputError naming it unless finite (or "beyond the float range")."""
    try:
        x = float(value)
    except OverflowError:
        raise InputError("%s is beyond the float range" % name) from None
    except (TypeError, ValueError):
        raise InputError("%s must be a real number, got %r" % (name, value)) from None
    if not isfinite(x):
        raise InputError("%s must be finite, got %r" % (name, x))
    return x


def _divisor(value, name) -> float:
    """_finite(value, name) of a nonzero divisor or log argument: InputError if 0.0."""
    x = _finite(value, name)
    if x == 0.0:
        raise InputError("%s is below the float range" % name)
    return x


def _chart_coords(diffs, basis):
    """Solve basis^T y = diff exactly for every diff, in one elimination.

    The basis vectors must be independent; consistency is guaranteed for
    differences of points in the facet hyperplane.  One basis vector b
    gives y = d_j / b_j at its first nonzero entry j.
    """
    k = len(basis)
    if k == 1:
        (b,) = basis
        j = next((j for j, c in enumerate(b) if c != 0), None)
        if j is None:
            raise ValueError("basis is rank deficient")
        bj = Fraction(b[j])
        return [[d[j] / bj] for d in diffs]
    rows = [[b[i] for b in basis] + [d[i] for d in diffs] for i in range(len(basis[0]))]
    m, pivots, _ = _echelon(rows, k)
    if len(pivots) != k:
        raise ValueError("basis is rank deficient")
    return [
        _back(m, pivots, [m[r][k + t] for r in range(k)], [0] * k) for t in range(len(diffs))
    ]


def build_polytope(vertices) -> LatticePolytope:
    """Convex hull with exact facet and vertex-cone data.

    Accepts any iterable of rational points (duplicates and interior points
    allowed).  Raises DegenerateHull when the points do not span.  Vertices
    of non-simple polytopes are kept; their cones read None and they are
    listed in nonsimple_vertices.  A hull of dimension >= 2 is built by
    clips of its polar (see _polar_hull), a segment from its end points.
    """
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
    return _polar_hull(pts, n, [0] + [c + 1 for c in pivots])


def _canonical(n, points, planes):
    """The n-polytope with vertices points and facets planes, each plane
    (normal, offset, indices into points), in the one canonical form:
    vertices sorted, facets sorted by (normal, offset), each facet's vertex
    indices sorted.  build_polytope, clip and _face all return through it,
    so one region is one polytope, field for field, however it was made."""
    order = sorted(range(len(points)), key=points.__getitem__)
    remap = [0] * len(points)
    for new, old in enumerate(order):
        remap[old] = new
    facets = [
        Facet(u, b, sorted(remap[i] for i in idx))
        for u, b, idx in sorted(planes, key=lambda plane: plane[:2])
    ]
    return LatticePolytope(n, [RationalVector(points[i]) for i in order], facets)


def _build_segment(pts):
    xs = [p[0] for p in pts]
    lo, hi = min(xs), max(xs)
    return _canonical(1, [(lo,), (hi,)], [((-1,), -lo, [0]), ((1,), hi, [1])])


def _polar_hull(pts, n, base):
    """The hull of pts in R^n, n >= 2, built as its polar by clip.

    With c the centroid of the affine base (indices of n + 1 affinely
    independent points), the polar Q = {y : <y, p - c> <= 1 for every p}
    starts as the polar of the base simplex and is clipped once per other
    point.  Q's facets (u, b) are the hull's vertices c + u / b, its
    vertices w the hull's facets <x - c, w> <= 1, and the incidences
    transpose.
    """
    c = tuple(sum(pts[j][i] for j in base) / Fraction(n + 1) for i in range(n))
    rows = [_sub(pts[j], c) + (1,) for j in base]
    corners = []
    for drop in range(n + 1):
        m, pivots, _ = _echelon(rows[:drop] + rows[drop + 1 :], n)
        corners.append(_back(m, pivots, [r[n] for r in m], [0] * n))
    # facet j of the base simplex's polar holds every corner but corner j
    facets = [
        (*_primitive_halfspace(r[:n], 1), [k for k in range(n + 1) if k != j])
        for j, r in enumerate(rows)
    ]
    Q = _canonical(n, corners, facets)
    for i, p in enumerate(pts):
        if i not in base:
            Q = Q.clip(_sub(p, c), 1)
    on = [[] for _ in Q.vertices]
    for i, f in enumerate(Q.facets):
        for k in f.vertex_indices:
            on[k].append(i)
    points = [tuple(a + x / f.offset for a, x in zip(c, f.normal)) for f in Q.facets]
    planes = [
        (*_primitive_halfspace(w.coords, 1 + _dot(c, w.coords)), idx)
        for w, idx in zip(Q.vertices, on)
    ]
    return _canonical(n, points, planes)


def _vertex_cones(verts, facets, n):
    cones = []
    nonsimple = []
    for vi in range(len(verts)):
        active = [f.normal for f in facets if vi in f.vertex_indices]
        pivots = ()
        if len(active) == n:
            # the inward edge directions are the columns of -N^-1 for the
            # active normals N: edge j leaves facet j and stays on the others
            rows = [list(u) + [-1 if j == i else 0 for j in range(n)] for i, u in enumerate(active)]
            m, pivots, _ = _echelon(rows, n)
        if len(pivots) != n:
            cones.append(None)
            nonsimple.append(vi)
            continue
        gens = [_primitive(_back(m, pivots, [r[n + j] for r in m], [0] * n)) for j in range(n)]
        cones.append(VertexCone(gens, abs(_det(gens))))
    return tuple(cones), tuple(nonsimple)


def _facet_coords(P, f):
    """(origin, basis, ys) of facet f of P (dim >= 2): its chart (see
    facet_polytope) and the chart points of its vertices (see _chart_points)."""
    origin = P.vertices[f.vertex_indices[0]]
    basis = _kernel_basis_int(f.normal)
    return origin, basis, _chart_points(P, f, origin, basis)


def _chart_points(C, g, origin, basis):
    """Coordinates y, with x = origin + basis @ y, of the vertices of C's
    facet g, in g.vertex_indices order; origin and basis chart g's
    hyperplane."""
    diffs = [_sub(C.vertices[vi].coords, origin.coords) for vi in g.vertex_indices]
    return _chart_coords(diffs, basis)


def _face(C, g, origin, basis, ys):
    """The face of polytope C on its facet g, in the chart origin + basis @ y
    of g's hyperplane, where g's vertices sit at ys (see _chart_points).

    Read off C's incidences, with no hull: its facets are the largest vertex
    sets that g shares with C's other facets h (the ridges on g), each with
    h's inequality pulled back through the chart, <y, basis^T h.normal> <=
    h.offset - <origin, h.normal>, divided by the gcd of that normal.  Equal
    to build_polytope(ys) field for field.
    """
    if len(basis) == 1:
        return _build_segment(ys)
    on = set(g.vertex_indices)
    pos = {vi: k for k, vi in enumerate(g.vertex_indices)}
    shared = [(h, on.intersection(h.vertex_indices)) for h in C.facets if h is not g]
    planes = []
    for h, ridge in shared:
        if any(ridge < other for _, other in shared):
            continue
        w = [sum(b * c for b, c in zip(row, h.normal)) for row in basis]
        d = gcd(*w)
        offset = (h.offset - _dot(origin.coords, h.normal)) / d
        planes.append((tuple(c // d for c in w), offset, [pos[vi] for vi in ridge]))
    return _canonical(len(basis), ys, planes)


def _triangulate(P):
    """Cones from P's first vertex over the facets that miss it.  A facet
    with dim vertices is a simplex, taken whole with its vertices in sorted
    chart coordinates, the order its face polytope lists them in; any other
    facet is triangulated as its face (see _face), built here and not kept.
    Each simplex vertex is one of P's own vertex objects, so a kept
    triangulation copies none."""
    if len(P.vertices) == P.dim + 1:
        return [Simplex(P.vertices)]
    apex = P.vertices[0]
    out = []
    for f in P.facets:
        if _dot(apex.coords, f.normal) == f.offset:
            continue
        origin, basis, ys = _facet_coords(P, f)
        # the face's vertices are the facet's in sorted chart coordinates
        lifted = [P.vertices[vi] for _, vi in sorted(zip(ys, f.vertex_indices))]
        if len(lifted) == P.dim:
            out.append(Simplex([apex] + lifted))
            continue
        sub = _face(P, f, origin, basis, ys)
        lift = dict(zip(sub.vertices, lifted))
        out += [Simplex([apex] + [lift[y] for y in s.vertices]) for s in sub.triangulate()]
    return out


# -- module-level operation aliases ----------------------------------------


def volume(P) -> Fraction:
    return P.volume()


def facet_measure(P, facet_index) -> Fraction:
    return P.facet_measure(facet_index)


def clip(P, halfspace):
    """halfspace = (normal, offset) meaning <x, normal> <= offset."""
    normal, offset = _fit(tuple(_iterable(halfspace, "halfspace")), 2, "halfspace")
    return P.clip(normal, offset)


def triangulate(P):
    return P.triangulate()


def polytope_from_json(text) -> LatticePolytope:
    return LatticePolytope.from_json(text)
