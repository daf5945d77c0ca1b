"""Piecewise affine convex functions on polytopes.

A function q = max_E (<mu, eta_E> - lambda_E) is stored as a tuple of exact
affine pieces bound to a polytope.  This module provides the cell complex on
which q is affine, Legendre duality, rooftop truncation, the pushforward
(Duistermaat-Heckman) measure with its moments, and the d_p / d_exp metrics.

Exact rational arithmetic throughout, except where a quantity is
transcendental (Laplace transforms, d_exp, non-integer powers).
"""

from __future__ import annotations

import operator
from decimal import MAX_EMAX, MIN_EMIN, Decimal, localcontext
from fractions import Fraction
from itertools import accumulate
from math import ceil, comb, factorial, inf, log1p, log10
from sys import float_info

from ._ddexp_py import _float_sum
from .polytope import (
    EMPTY,
    DegenerateHull,
    InputError,
    _back,
    _chart_points,
    _coords,
    _divisor,
    _dot,
    _echelon,
    _face,
    _finite,
    _fit,
    _iterable,
    _natural,
    _rational,
    build_polytope,
)


class EmptyPieces(InputError):
    """make_pa received no pieces."""


class AffineForm:
    """Exact affine function mu -> <mu, gradient> + constant."""

    __slots__ = ("gradient", "constant")

    def __init__(self, gradient, constant=0):
        self.gradient = _coords(gradient, "gradient")
        self.constant = _rational(constant, "constant")

    @classmethod
    def zero(cls, dim):
        return cls((0,) * dim, 0)

    @classmethod
    def constant_form(cls, dim, c):
        return cls((0,) * dim, c)

    def __call__(self, point) -> Fraction:
        point = _fit(_coords(point, "point"), len(self.gradient), "point")
        return _dot(point, self.gradient) + self.constant

    def __add__(self, other):
        if isinstance(other, AffineForm):
            grad = _fit(other.gradient, len(self.gradient), "the added form's gradient")
            return AffineForm(
                tuple(a + b for a, b in zip(self.gradient, grad)),
                self.constant + other.constant,
            )
        return NotImplemented

    def __sub__(self, other):
        if isinstance(other, AffineForm):
            grad = _fit(other.gradient, len(self.gradient), "the subtracted form's gradient")
            return AffineForm(
                tuple(a - b for a, b in zip(self.gradient, grad)),
                self.constant - other.constant,
            )
        return NotImplemented

    def __rmul__(self, s):
        s = _rational(s, "the scale factor")
        return AffineForm(tuple(s * g for g in self.gradient), s * self.constant)

    def __eq__(self, other):
        if isinstance(other, AffineForm):
            return self.gradient == other.gradient and self.constant == other.constant
        return NotImplemented

    def __hash__(self):
        return hash((self.gradient, self.constant))

    def restrict(self, origin, basis):
        """Pull back through the chart y -> origin + sum_j y_j basis[j]."""
        grad = tuple(_dot(b, self.gradient) for b in basis)
        const = self.constant + _dot(_coords(origin, "origin"), self.gradient)
        return AffineForm(grad, const)

    def to_float(self):
        gradient = tuple(_finite(g, "gradient") for g in self.gradient)
        return gradient, _finite(self.constant, "constant")

    def __repr__(self):
        return "AffineForm(%r, %s)" % (self.gradient, self.constant)


def _as_piece(piece, dim):
    """Accept an AffineForm or an (eta, lambda) pair meaning <mu,eta> - lambda,
    its gradient of length dim."""
    if not isinstance(piece, AffineForm):
        eta, lam = _fit(tuple(_iterable(piece, "a piece")), 2, "a piece")
        piece = AffineForm(eta, -_rational(lam, "lambda"))
    _fit(piece.gradient, dim, "piece gradient")
    return piece


class PiecewiseAffineConvex:
    """max of finitely many exact affine pieces, bound to a polytope; its one
    cell complex, cells(), is what every consumer reads (see common_cells)."""

    def __init__(self, pieces, P):
        self.pieces = tuple(pieces)
        self.P = P
        self._cells = None
        self._dh_terms = None

    def __call__(self, point) -> Fraction:
        return max(piece(point) for piece in self.pieces)

    def cells(self):
        """[(piece_index, cell)] with full-dimensional cells only."""
        if self._cells is None:
            self._cells = _split(self.P, self.pieces)
        return list(self._cells)

    def restrict_to_facet(self, facet_index):
        """Restriction to a facet of P, in that facet's lattice chart (on a
        segment, the value at the end point, on POINT; see facet_polytope),
        made on each call from P's cached chart and kept by the caller only.

        Its pieces are the restricted pieces without repeats, as make_pa
        keeps them, and its cells are the faces that cells() have on the
        facet (the subdivision a max-affine function induces on a face),
        each read off its cell's incidences in the chart (see
        polytope._face), with no hull and no clip.  No two cells share a
        restricted piece: pieces p != p' that agree on the facet's
        hyperplane differ by c (<x, u> - b) with c != 0, which keeps one sign
        on P, so one of them has no cell.  A piece whose region is the whole
        facet has P's chart object itself as its cell.  The cells equal
        those of splitting the chart by the restricted pieces, in the same
        order.
        """
        P = self.P
        sub, origin, basis = P.facet_polytope(facet_index)
        index = {}  # restricted piece -> its index among the distinct ones
        ids = [
            index.setdefault(piece.restrict(origin, basis), len(index)) for piece in self.pieces
        ]
        f = P.facets[facet_index]
        faces = [
            (ids[i], cell, g)
            for i, cell in self.cells()
            for g in cell.facets
            if g.normal == f.normal and g.offset == f.offset
        ]
        restricted = PiecewiseAffineConvex(list(index), sub)
        if len(faces) == 1:
            restricted._cells = [(faces[0][0], sub)]
        else:
            faces.sort(key=lambda face: face[0])
            restricted._cells = [
                (k, _face(cell, g, origin, basis, _chart_points(cell, g, origin, basis)))
                for k, cell, g in faces
            ]
        return restricted

    def __add__(self, other):
        if isinstance(other, AffineForm):
            return PiecewiseAffineConvex([p + other for p in self.pieces], self.P)
        return NotImplemented

    def __rmul__(self, s):
        s = _rational(s, "the scale factor")
        if s < 0:
            raise InputError("scaling by a negative factor breaks convexity of max")
        if s == 0:
            return PiecewiseAffineConvex([AffineForm.zero(self.P.dim)], self.P)
        return PiecewiseAffineConvex([s * p for p in self.pieces], self.P)

    def __repr__(self):
        return "PiecewiseAffineConvex(pieces=%d)" % len(self.pieces)


def make_pa(pieces, P) -> PiecewiseAffineConvex:
    pieces = list(_iterable(pieces, "pieces"))
    if not pieces:
        raise EmptyPieces("need at least one affine piece")
    forms = []
    for piece in pieces:
        form = _as_piece(piece, P.dim)
        if form not in forms:
            forms.append(form)
    return PiecewiseAffineConvex(forms, P)


def as_pa(q, P) -> PiecewiseAffineConvex:
    """q as a PA function on P, where every input meets its polytope.

    None is zero, and an AffineForm or a list of pieces goes through make_pa
    (each gradient of length P.dim).  A PA function bound to P, or to a
    polytope with P's vertices, is returned as it is; any other raises
    InputError.
    """
    if q is None:
        return PiecewiseAffineConvex([AffineForm.zero(P.dim)], P)
    if isinstance(q, PiecewiseAffineConvex):
        if q.P is not P and q.P.vertices != P.vertices:
            raise InputError("the potential is bound to a different polytope")
        return q
    return make_pa([q] if isinstance(q, AffineForm) else q, P)


def _split(cell, pieces):
    """[(i, sub)] where sub is the full-dimensional part of cell on which
    pieces[i] is the maximum; a piece equal to an earlier one gets no cell,
    so the cells cover cell once."""
    out = []
    for i, piece in enumerate(pieces):
        if piece in pieces[:i]:
            continue
        sub = cell
        for other in pieces:
            if other == piece:
                continue
            grad = tuple(a - b for a, b in zip(other.gradient, piece.gradient))
            sub = sub.clip(grad, piece.constant - other.constant)
            if sub is EMPTY:
                break
        if sub is not EMPTY:
            out.append((i, sub))
    return out


def common_cells(P, funcs):
    """Refine P so every function in funcs is affine per cell.

    Returns [(cell, idx_tuple)] where idx_tuple[k] is the active piece index
    of funcs[k] on that cell.  Entries of funcs are what as_pa takes on P
    (so a PA function bound to another polytope raises InputError).  Where
    the cell is the function's own polytope object, its cells() are taken;
    any other cell, even an equal one, is split.
    """
    work = [(P, ())]
    for f in _iterable(funcs, "funcs"):
        pa = as_pa(f, P)
        work = [
            (sub, ids + (i,))
            for (cell, ids) in work
            for (i, sub) in (pa.cells() if cell is pa.P else _split(cell, pa.pieces))
        ]
    return work


# -- Legendre duality --------------------------------------------------------


class LegendreTransform:
    """Conjugate f(zeta) = max_v (<v, zeta> - q(v)) over the support points.

    The support points are the cell-complex vertices of q, where the sup over
    the polytope is attained.
    """

    def __init__(self, points):
        self.points = tuple(points)

    def __call__(self, zeta) -> Fraction:
        z = _coords(zeta, "zeta")
        return max(_dot(v.coords, z) - value for (v, value) in self.points)

    def pieces(self):
        """(w, c) pairs with f = max <w, zeta> + c."""
        return [(v, -value) for (v, value) in self.points]


def legendre(q: PiecewiseAffineConvex) -> LegendreTransform:
    seen = {}
    for (_, cell) in q.cells():
        for v in cell.vertices:
            if v not in seen:
                seen[v] = q(v)
    return LegendreTransform(sorted(seen.items(), key=lambda kv: kv[0].coords))


def legendre_dual(fspec, P) -> PiecewiseAffineConvex:
    """Conjugate of a max-affine function back onto P.

    fspec is a LegendreTransform or a list of (w, c) pairs encoding
    f(zeta) = max_j <w_j, zeta> + c_j, each w_j of length P.dim (else
    InputError).  The result is the lower convex envelope mu -> f*(mu) as a
    PA function on P.
    """
    if isinstance(fspec, LegendreTransform):
        pairs = fspec.pieces()
    else:
        pairs = list(_iterable(fspec, "fspec"))
    n = P.dim
    pts = []
    for j, (w, c) in enumerate(pairs):
        name = "support point %d" % j
        coords = _fit(_coords(w, name), n, name) + (-_rational(c, "support value %d" % j),)
        if coords not in pts:
            pts.append(coords)
    if len(pts) == 0:
        raise EmptyPieces("empty conjugate spec")
    # rows [x, 1, value] have n + 2 pivots iff the graph points span R^(n+1);
    # with n + 1 they lie on one hyperplane, a single affine piece unless the
    # value column is a pivot (the hyperplane is vertical)
    m, pivots, _ = _echelon([p[:n] + (1, p[n]) for p in pts], n + 2)
    if len(pivots) < n + 1:
        raise DegenerateHull("support points do not span the base space")
    if len(pivots) == n + 1:
        if pivots[-1] == n + 1:
            raise DegenerateHull("graph points span a vertical hyperplane")
        sol = _back(m, pivots, [r[n + 1] for r in m], [0] * (n + 1))
        return PiecewiseAffineConvex([AffineForm(sol[:n], sol[n])], P)
    hull = build_polytope(pts)
    pieces = []
    for f in hull.facets:
        ut = Fraction(f.normal[n])
        if ut >= 0:
            continue
        grad = tuple(-Fraction(c) / ut for c in f.normal[:n])
        const = f.offset / ut
        pieces.append(AffineForm(grad, const))
    if not pieces:
        raise DegenerateHull("no lower facets in conjugate hull")
    return PiecewiseAffineConvex(pieces, P)


def rooftop(q: PiecewiseAffineConvex, tau) -> PiecewiseAffineConvex:
    """Pointwise max(q, -tau)."""
    tau = _rational(tau, "tau")
    pieces = list(q.pieces) + [AffineForm.constant_form(q.P.dim, -tau)]
    return make_pa(pieces, q.P)


# -- exact polynomial moments ------------------------------------------------


def _h_complete(vals, k):
    """[h_0, ..., h_k]: complete homogeneous symmetric polynomials, one recurrence."""
    h, out = [Fraction(1)] * len(vals), [Fraction(1)]
    for _ in range(k):
        h = list(accumulate(map(operator.mul, vals, h)))
        out.append(h[-1])
    return out


def _simplex_moments(simplex, aff: AffineForm, k):
    """[integral of aff^p over a simplex, p = 0..k]: one det, one h recurrence."""
    det, n = abs(simplex.edge_matrix_det()), simplex.dim
    hs = _h_complete([aff(v) for v in simplex.vertices], k)
    return [det * h * Fraction(factorial(p), factorial(n + p)) for p, h in enumerate(hs)]


def _pa_moments(q, k):
    """[integral of q^p, p = 0..k], exact, in one pass over q's cell simplices."""
    parts = [_simplex_moments(s, q.pieces[i], k) for i, c in q.cells() for s in c.triangulate()]
    return [sum(col, Fraction(0)) for col in zip(*parts)]


def _boundary_moments(q, k):
    """[integral of q^p over the boundary, p = 0..k], in one pass per facet."""
    parts = [_pa_moments(q.restrict_to_facet(i), k) for i in range(len(q.P.facets))]
    return [sum(col, Fraction(0)) for col in zip(*parts)]


def _variance(m):
    """integral of (q - qbar)^2 from the moments [m0, m1, m2, ...] of q."""
    return m[2] - m[1] * m[1] / m[0]


def _power_terms(weights, g, n, p, num):
    """The terms a g_i^(p+n-j) p!/(p+n)! C(p+n, j) of p!/(p+n)! [g] x^(p+n),
    one per confluent weight (i, j): a, in the number type num."""
    rising = [num(1)]
    for t in range(1, n + 1):
        rising.append(rising[-1] * (p + t))
    # p!/(p+n)! C(p+n, j) = 1 / (j! (p+1) ... (p+n-j))
    return [
        num(a) * num(g[i]) ** (p + n - j) / (factorial(j) * rising[n - j])
        for (i, j), a in weights
    ]


def _simplex_power(simplex, aff: AffineForm, p):
    """Integral of aff^p over a simplex against lattice measure.

    By Hermite-Genocchi it is |det| p!/(p+n)! [g_0, ..., g_n] x^(p+n) for
    the vertex values g, summed over the confluent weights of the exact
    sorted g, so equal values need no threshold.  An int p gives an exact
    Fraction, its powers taking O(log p) multiplications.  Any other p
    (real, aff >= 0 on the simplex) gives a Decimal: |det| top^p times the
    sum for g / top, which is summed in floats, or in decimals with as many
    more digits as close values cancel; a weight beyond the float range
    means they cancel far past double precision, and sends the simplex to
    decimals before any weight becomes a float.
    """
    det, n = abs(simplex.edge_matrix_det()), simplex.dim
    g = sorted(aff(v) for v in simplex.vertices)
    if isinstance(p, int):
        return det * sum(_power_terms(_dd_weights(g).items(), g, n, p, Fraction), Fraction(0))
    top = g[-1]
    if top == 0:
        return Decimal(0)
    # scaled into [0, 1]: powers of g cannot overflow, nor the sum underflow
    g = [x / top for x in g]
    weights = _dd_weights(g).items()
    mean = float(sum(g) / (n + 1))
    if max(abs(a) for _, a in weights) > float_info.max:
        # each term is at most its weight, and the sum at least mean(g)^p / n!
        # (Jensen, as below): the digits the sum can lose
        size = sum(abs(a) for _, a in weights) * factorial(n)
        digits = log10(size.numerator) - log10(size.denominator) - p * log10(mean)
    else:
        terms = _power_terms(weights, g, n, p, lambda x: _finite(x, "a divided-difference weight"))
        total = _float_sum(terms)
        # Close values cancel.  By Jensen the sum is at least mean(g)^p / n!,
        # and rounding moves it by at most (p + 2n + 4) 2^-53 sum |terms|.
        bound = _float_sum(map(abs, terms)) * factorial(n)
        jensen = mean**p
        loss = bound / jensen if jensen else inf
        if (p + 2 * n + 4) * 2.0**-53 * loss <= 1e-12:
            return _decimal(det) * _decimal(top) ** Decimal(p) * Decimal(total)
        # loss may be beyond the float range; its log10 is not
        digits = log10(loss) if loss < inf else log10(bound) - p * log10(mean)
    with localcontext() as ctx:
        ctx.prec = 20 + ceil(digits)
        terms = _power_terms(weights, g, n, Decimal(p), _decimal)
        total = float(sum(terms))
    return _decimal(det) * _decimal(top) ** Decimal(p) * Decimal(total)


def poly_moment(P, aff: AffineForm, k: int = 1) -> Fraction:
    """Exact integral of aff(mu)^k over P, k an integer >= 0."""
    return pa_moment(as_pa(aff, P), k)


def pa_moment(q: PiecewiseAffineConvex, k: int = 1) -> Fraction:
    """Exact integral of q(mu)^k over the polytope of q."""
    k = _natural(k, "the moment exponent k")
    return _pa_moments(q, k)[k]


def boundary_pa_moment(q: PiecewiseAffineConvex, k: int = 1) -> Fraction:
    """Exact integral of q^k over the boundary, facet lattice measures."""
    k = _natural(k, "the moment exponent k")
    return _boundary_moments(q, k)[k]


# -- Duistermaat-Heckman ------------------------------------------------------


def _dd_weights(g):
    """{(i, k): a} with [g_0, ..., g_n] f = sum a f^(k)(g_i) / k! for sorted g.

    The confluent divided-difference table run on symbols: entry (i, k)
    stands for f^(k)(g_i) / k!, which the table takes where g_i is
    repeated k + 1 times.
    """
    col = [{(i, 0): 1} for i in range(len(g))]
    for k in range(1, len(g)):
        for i in range(len(g) - k):
            d = g[i + k] - g[i]
            if d == 0:
                col[i] = {(i, k): 1}
                continue
            new = {key: -a / d for key, a in col[i].items()}
            for key, a in col[i + 1].items():
                new[key] = new.get(key, 0) + a / d
            col[i] = new
    return col[0]


def _dh_terms(q: PiecewiseAffineConvex):
    """(atoms, terms) with dh_cdf(q, tau) = sum of vol over the atoms
    (v, vol) with v >= tau plus sum of c (v - tau)^e over the terms
    (v, e, c) with v > tau; terms are sorted by v, largest first.

    On a simplex where -q is affine with sorted vertex values g, the
    pushforward of its volume is a B-spline with knots g (Curry &
    Schoenberg 1966), so its mass on [tau, infinity) is vol times
    [g_0, ..., g_n] (y - tau)_+^n.  Unless all g_i are equal (an atom),
    no node repeats n + 1 times and the derivatives this divided
    difference takes, C(n, k) (v - tau)_+^(n-k) for k < n, are
    continuous in y, so it is the same combination of them for every tau.
    Those combinations are summed over the cell triangulation once per q.
    """
    if q._dh_terms is None:
        atoms, coeffs = [], {}
        for (i, cell) in q.cells():
            for s in cell.triangulate():
                vol = s.normalized_volume()
                g = sorted(-q.pieces[i](v) for v in s.vertices)
                if g[0] == g[-1]:
                    atoms.append((g[0], vol))
                    continue
                n = len(g) - 1
                for (j, k), a in _dd_weights(g).items():
                    key = (g[j], n - k)
                    coeffs[key] = coeffs.get(key, 0) + vol * comb(n, k) * a
        terms = sorted(((v, e, c) for (v, e), c in coeffs.items() if c), reverse=True)
        q._dh_terms = (atoms, terms)
    return q._dh_terms


def dh_cdf(q: PiecewiseAffineConvex, tau) -> Fraction:
    """Mass of [tau, infinity) under the pushforward of mu by -q.

    Equals the exact volume of {q <= -tau}, as a sum of truncated powers
    of tau (see _dh_terms).  The first call on q triangulates its cells;
    later calls reuse that.
    """
    tau = _rational(tau, "tau")
    atoms, terms = _dh_terms(q)
    total = sum((vol for (v, vol) in atoms if v >= tau), Fraction(0))
    for (v, e, c) in terms:
        if v <= tau:
            break
        total += c * (v - tau) ** e
    return total


class DHSummary:
    """Pushforward measure summary: mass, CDF, moments, Laplace transform."""

    def __init__(self, q: PiecewiseAffineConvex):
        self.q = q
        m = _pa_moments(q, 4)
        self.moments = tuple(mk * (-1) ** k for k, mk in enumerate(m))  # of t = -q
        self.volume = m[0]
        self.barycenter = self.moments[1] / self.volume
        self.variance = _variance(m)

    def cdf(self, tau) -> Fraction:
        return dh_cdf(self.q, tau)

    def moment(self, k) -> Fraction:
        if _natural(k, "the moment exponent k") > 4:
            raise InputError("moments tabulated for 0 <= k <= 4")
        return self.moments[k]

    def laplace(self, rho) -> float:
        """integral of e^{-rho t} d(DH) = integral of e^{rho q} d mu."""
        from .integrate import polytope_exp_integral

        return polytope_exp_integral(self.q.P, self.q, rho=rho).value

    def support(self):
        vals = [-self.q(v) for (_, cell) in self.q.cells() for v in cell.vertices]
        return min(vals), max(vals)


def dh_summary(q: PiecewiseAffineConvex) -> DHSummary:
    return DHSummary(q)


# -- metrics -----------------------------------------------------------------


def _signed_regions(q, qp):
    """Common-refinement cells split by the sign of q - q', with |q - q'|.

    Returns (cell, aff) pairs where aff = |q - q'| restricted to the cell:
    the pair's one refinement, which every metric reads.  common_cells
    takes q' through as_pa, which refuses a q' on another polytope.
    """
    out = []
    zero = AffineForm.zero(q.P.dim)
    for (cell, (i, j)) in common_cells(q.P, [q, qp]):
        diff = q.pieces[i] - qp.pieces[j]
        signed = [diff] if diff == zero else [diff, zero - diff]
        out += [(sub, signed[k]) for (k, sub) in _split(cell, signed)]
    return out


def _largest(regions) -> Fraction:
    """max of |q - q'| over the regions: the largest value at a cell vertex."""
    return max(aff(v) for (cell, aff) in regions for v in cell.vertices)


def sup_abs_diff(q, qp) -> Fraction:
    """Exact sup of |q - q'| over the polytope, at a signed region's vertex."""
    return _largest(_signed_regions(q, qp))


def _power_sum(regions, p):
    """Integral of aff^p over the (cell, aff) regions, in one pass: a Fraction
    for an int p, a Decimal for any other (see _simplex_power)."""
    return sum(_simplex_power(s, aff, p) for (cell, aff) in regions for s in cell.triangulate())


def _decimal(x) -> Decimal:
    """x itself if a Decimal (whose Fraction may have a huge denominator), else
    the exact value x divided out in the current context."""
    if isinstance(x, Decimal):
        return x
    x = Fraction(x)
    return Decimal(x.numerator) / x.denominator


def metric_dp(q, qp, p) -> float:
    """L^p distance (integral of |q - q'|^p)^{1/p}, for any real p >= 1.

    Integer p is summed exactly, any other p in decimals, by the same
    simplex identity (see _simplex_power), with the decimal exponent range
    as wide as it goes; one decimal root follows, so the result is inf or
    0.0 only when d_p itself is beyond the float range.
    """
    pf = _finite(p, "p")
    if pf < 1:
        raise InputError("p must be at least 1, got %s" % (p,))
    p = int(pf) if pf == int(pf) else pf
    with localcontext() as ctx:
        ctx.Emax, ctx.Emin = MAX_EMAX, MIN_EMIN
        total = _power_sum(_signed_regions(q, qp), p)
        ctx.prec = 30
        # float() of a Decimal beyond the float range is inf or 0.0, not an error
        return float(_decimal(total) ** (1 / Decimal(p)))


def metric_dexp(q, qp) -> float:
    """Luxemburg norm of q - q' for the Orlicz function e^t - 1.

    Smallest beta with integral of (e^{|q-q'|/beta} - 1) d mu <= 1, found by
    bisection from [0, sup |q-q'| / log(1 + 1/vol(P))], at whose top the
    integrand is at most 1/vol(P); the defining integral at the returned
    beta lies in [1 - 1e-8, 1].  InputError when the bisection cannot
    meet that test, as when e^{|q-q'|/beta} or 1/beta leaves the float
    range near the root.  The sup and the integrand read one refinement.
    """
    from .integrate import _accumulate, _float_records

    regions = _signed_regions(q, qp)
    sup = _largest(regions)
    if sup == 0:
        return 0.0
    groups = [_float_records([(cell, [aff]) for (cell, aff) in regions], "|q - q'|")]
    vol = _divisor(q.P.volume(), "the volume of P")

    def big_g(beta):
        [(total, _)] = _accumulate(groups, (1.0 / beta,), [[]])
        return total - vol

    lo = 0.0
    hi = _finite(sup, "sup |q - q'|") / log1p(1.0 / vol)
    if hi == 0.0:  # the root is at most hi: below the float range
        return 0.0
    while big_g(hi) > 1.0:
        hi *= 2.0
    for _ in range(300):
        mid = 0.5 * (lo + hi)
        if big_g(mid) <= 1.0:
            hi = mid
        else:  # above 1, or NaN once 1 / mid is inf
            lo = mid
        if hi - lo <= 1e-12 * hi and big_g(hi) >= 1.0 - 1e-8:
            return hi
    raise InputError(
        "the d_exp bisection found no beta whose integral is in [1 - 1e-8, 1]:"
        " near the root, e^(|q - q'| / beta) or 1 / beta is beyond the float range"
    )
