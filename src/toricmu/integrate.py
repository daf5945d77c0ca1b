"""Exponential integrals over rational polytopes.

Two independent evaluation routes are provided.

Triangulation route: integrals of (product of affine factors) * e^(affine)
over a simplex reduce, through the barycentric moment identity

    int_simplex lam^alpha e^(lam . a) dlam = (prod alpha_i!) *
        exp[a_0 (alpha_0+1 times), ..., a_n (alpha_n+1 times)],

to confluent divided differences of exp, which the _ddexp kernel evaluates
without cancellation.  Piecewise-affine data is handled on the cell complex.
ExpIntegrator integrates any number of factor lists at one exponent in one
pass over the simplices.

Localization route: the vertex sum

    int_P e^(<mu, xi>) dmu = (-1)^n sum_v e^(<v, xi>) index(v) /
        prod_i <mu_{v,i}, xi>

over simple vertices with inward primitive edge generators mu_{v,i}.  The
boundary integral is the same sum on every facet in its lattice chart; a
segment's facets are points, each contributing e^(value there).
With xi taken as the exact binary rational its float scale makes it, every
exponent and every coefficient is an exact Fraction.  A direction that
pairs to an exact zero with some edge is perturbed to xi + t*zeta with a
generic rational zeta, and each coefficient is the t^0 coefficient of its
vertex term, the poles cancelling across the vertices.  One sum then adds
the terms: in floats where its rounding bound is small against the
total, else in decimals, so directions that pair to nearly zero keep
their digits.

Both routes share the kernel's overflow convention: an exponential whose
argument exceeds 709 is inf rather than an OverflowError, so an overflowing
integral comes back non-finite.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import product as _iproduct
from decimal import Decimal, localcontext
from math import exp, factorial, inf, log
from sys import float_info

from ._ddexp_py import _float_sum, _safe_exp
from .polytope import InputError, _dot, _finite, _fit, _iterable
from .paconvex import AffineForm, _decimal, as_pa, common_cells

try:  # compiled kernel, with pure-Python fallback
    from ._ddexp import BACKEND, ddexp
except ImportError:  # pragma: no cover - depends on build environment
    from ._ddexp_py import BACKEND, ddexp

KERNEL_BACKEND = BACKEND


class NonSimpleVertex(InputError):
    """Localization met a vertex whose tangent cone is not simplicial."""


class ValidationFailure(RuntimeError):
    """Independent evaluation routes disagree beyond tolerance."""


class IntegralResult:
    """Value of an integral plus the route taken and an error estimate.

    estimated_abs_error is a forward-error heuristic (machine epsilon times
    the accumulated magnitude), not a rigorous bound.
    """

    __slots__ = ("value", "method", "estimated_abs_error")

    def __init__(self, value, method, estimated_abs_error):
        self.value = float(value)
        self.method = method
        self.estimated_abs_error = float(estimated_abs_error)

    def __float__(self):
        return self.value

    def __repr__(self):
        return "IntegralResult(%.17g, method=%r, est_err=%.3g)" % (
            self.value,
            self.method,
            self.estimated_abs_error,
        )


# -- simplex kernels ----------------------------------------------------------


def _divided_difference(avals, key, memo):
    """(prod of multiplicity factorials, exp[avals, avals[i] for i in key]).

    key is a sorted tuple of vertex indices.  memo holds the pairs already
    computed for these avals; the kernel is looked up as the module global
    ddexp on every miss.
    """
    hit = memo.get(key)
    if hit is None:
        # in a sorted key, multiplying the running length of each run
        # gives the product of the factorials of the multiplicities
        alph = 1
        run = 1
        for a, b in zip(key, key[1:]):
            run = run + 1 if a == b else 1
            alph *= run
        hit = memo[key] = (alph, ddexp(list(avals) + [avals[i] for i in key]))
    return hit


def _simplex_weighted(det, avals, factor_vals, memo):
    """Integral over one simplex of (prod_j f_j) e^(e) given vertex values.

    avals[i] is the exponent at vertex i; factor_vals[j][i] the j-th affine
    factor at vertex i.  Each factor contributes one barycentric power, so a
    tuple of vertex choices maps to a confluent divided difference with the
    chosen nodes repeated.  memo, keyed by the sorted vertex choices, holds
    the divided differences already computed for these avals.
    """
    m = len(avals)
    coeff = {}
    for tup in _iproduct(range(m), repeat=len(factor_vals)):
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
        alph, dd = _divided_difference(avals, key, memo)
        total += w * alph * dd
    return det * total


def simplex_exp_integral(simplex, exponent: AffineForm, weight=None) -> float:
    """Integral of weight * e^exponent over a simplex (weight affine or None),
    summed from the float records of every integrator (see _float_records
    for the values and volumes that raise InputError)."""
    if weight is None:
        pieces, combo, factors = [exponent], (1.0,), []
    else:
        pieces, combo, factors = [exponent, weight], (1.0, 0.0), [(0.0, (0.0, 1.0))]
    [(value, _)] = _accumulate([_float_records([(simplex, pieces)])], combo, [factors])
    return value


# -- reusable integration contexts --------------------------------------------


def _float_records(cells, what="a function value"):
    """Float records of the simplices of (cell, pieces) pairs, in order.

    Returns one group for _accumulate: (records, tiny).  A record is
    (det, rows): det is |det(edge matrix)| = n! * volume and rows[i][k] is
    pieces[k] at vertex i, both as floats.  The pieces are evaluated once
    per cell vertex, and the simplices that share the vertex share its row
    (every simplex vertex is one of its cell's vertex objects, see
    polytope._triangulate).  A simplex of exact volume 0 is
    skipped.  One whose volume is nonzero but underflows to 0.0 goes to
    tiny as (log det, rows, volume) for _check_tiny.  A det or value beyond
    the float range raises InputError (what names the values).  _accumulate
    only reads the group, so it is built once per integrator.
    """
    records = []
    tiny = []
    for cell, pieces in cells:
        row_at = {id(v): [_finite(piece(v), what) for piece in pieces] for v in cell.vertices}
        for s in cell.triangulate():
            exact = abs(s.edge_matrix_det())
            if exact == 0:
                continue
            det = _finite(exact, "a simplex volume")
            rows = [row_at[id(v)] for v in s.vertices]
            if det == 0.0:
                volume = exact / factorial(len(s.vertices) - 1)
                log_det = log(exact.numerator) - log(exact.denominator)
                tiny.append((log_det, rows, volume))
            else:
                records.append((det, rows))
    return records, tiny


# log(2^-1075), rounded down: a term below e^_LOG_TINY rounds to 0.0
_LOG_TINY = -746.0


def _check_tiny(tiny, exp_combo, factor_lists):
    """InputError for a simplex of underflowed volume whose part of some
    integral could be a nonzero float.

    That part is at most det * e^(max exponent) * prod_j max |factor j|
    over the simplex's vertices; below e^_LOG_TINY it rounds to 0.0, which
    leaving the simplex out gives exactly.  Above it, leaving it out could
    drop the part that dominates the integral, so the call fails instead.
    """
    for log_det, rows, volume in tiny:
        top = log_det + max(_sums(exp_combo, rows))
        for factors in factor_lists:
            bound = top
            for (const, coeffs) in factors:
                peak = max(abs(const + v) for v in _sums(coeffs, rows))
                bound += log(peak) if peak != 0.0 else -inf
            if not bound < _LOG_TINY:
                raise InputError(
                    "a simplex of volume %s underflows to 0.0 in floating point"
                    ", and its part of the integral does not"
                    % format(_decimal(volume), ".3g")
                )


def _sums(coeffs, rows):
    """[_float_sum(c * row[k] for k, c in enumerate(coeffs)) for row in rows].

    One or two coefficients are written out as 0.0 + c0*r0 + c1*r1."""
    if len(coeffs) == 1:
        (c0,) = coeffs
        return [0.0 + c0 * row[0] for row in rows]
    if len(coeffs) == 2:
        c0, c1 = coeffs
        return [0.0 + c0 * row[0] + c1 * row[1] for row in rows]
    return [_float_sum(c * row[k] for k, c in enumerate(coeffs)) for row in rows]


def _accumulate(groups, exp_combo, factor_lists):
    """[(value, magnitude)] per factor list over groups of float records.

    A group is (records, tiny), as _float_records makes it, and is only
    read.  tiny is checked by _check_tiny and adds nothing.  Each group is
    summed from 0.0 in record order and added to the totals in group order.
    Within a record, the factor lists share one memo of divided
    differences, which ends with the record.

    One empty factor list, an unweighted integral, is one divided
    difference per record that nothing else shares: it runs a scalar loop
    of det * ddexp(vertex exponents) without a memo, making the same
    float operations in the same order as the general loop.
    """
    if len(factor_lists) == 1 and not factor_lists[0]:
        total = mag = 0.0
        for records, tiny in groups:
            if tiny:
                _check_tiny(tiny, exp_combo, factor_lists)
            part = part_mag = 0.0
            for det, rows in records:
                contrib = det * ddexp(_sums(exp_combo, rows))
                part += contrib
                part_mag += abs(contrib)
            total += part
            mag += part_mag
        return [(total, mag)]
    count = len(factor_lists)
    totals = [0.0] * count
    mags = [0.0] * count
    for records, tiny in groups:
        if tiny:
            _check_tiny(tiny, exp_combo, factor_lists)
        part = [0.0] * count
        part_mags = [0.0] * count
        for det, rows in records:
            avals = _sums(exp_combo, rows)
            memo = {}
            for j, factors in enumerate(factor_lists):
                if not factors:
                    contrib = det * ddexp(avals)
                elif len(factors) == 1:
                    # _simplex_weighted for one factor: vertex i alone is
                    # key (i,), with multiplicity factorial 1
                    [(const, coeffs)] = factors
                    total = 0.0
                    for i, v in enumerate(_sums(coeffs, rows)):
                        w = const + v
                        if w != 0.0:
                            hit = memo.get((i,))
                            if hit is None:
                                hit = memo[(i,)] = (1, ddexp(avals + [avals[i]]))
                            total += w * hit[1]
                    contrib = det * total
                else:
                    fvals = [
                        [const + v for v in _sums(coeffs, rows)]
                        for (const, coeffs) in factors
                    ]
                    contrib = _simplex_weighted(det, avals, fvals, memo)
                part[j] += contrib
                part_mags[j] += abs(contrib)
        for j in range(count):
            totals[j] += part[j]
            mags[j] += part_mags[j]
    return list(zip(totals, mags))


class ExpIntegrator:
    """Fixed (polytope, function list); evaluates many float combinations.

    funcs are PA functions (or affine forms, or None for the zero function)
    on P, taken through as_pa, so one bound to another polytope or with a
    gradient of another length raises InputError.  interior()/boundary()
    take one exponent combination and a list of factor lists, and
    integrate for each factor list

        (prod_j (c_j + sum_k combo_jk * funcs_k)) * e^(sum_k e_k * funcs_k)

    against the lattice measure of P or of its boundary.  The cell complex,
    triangulations, and per-vertex function values are computed once, so a
    parameter sweep only pays for divided differences.  The cells are a
    potential's own cells() (see common_cells), shared with every consumer.

    Both are one loop over float records compiled on first use: one group
    of (det, vertex values) records for the interior, and for the boundary
    one group per facet, built from the facet's cell complex in its lattice
    chart, which restrict_to_facet reads off the faces of the cells
    without a clip (a cell that is the whole facet is the chart object,
    whose triangulation facet_measure shares).  Function values are taken
    once per cell vertex.  A group is summed from 0.0 and added to the
    totals in facet order, so no integrator is made per facet.  On a segment the boundary is
    the two end points, whose values are also taken once, as one row each:
    groups over their POINT charts give the same sum in more steps.

    One call makes one pass over the simplices: the vertex exponents are
    computed once per simplex and every factor list is integrated from
    them, computing each distinct divided difference of the simplex once.
    That memo lives for one simplex of one call; the compiled records are
    the only state kept between calls, and no call changes them.  An empty
    factor list needs one divided difference, which nothing else shares,
    so it bypasses the memo; a call with that list alone (every unweighted
    integral) is _accumulate's scalar loop.
    """

    def __init__(self, P, funcs):
        self.P = P
        self.funcs = [as_pa(f, P) for f in _iterable(funcs, "funcs")]
        self.dim = P.dim
        self._interior = None
        self._facets = None

    @staticmethod
    def _group(P, funcs):
        return _float_records(
            (cell, [pa.pieces[i] for pa, i in zip(funcs, ids)])
            for (cell, ids) in common_cells(P, funcs)
        )

    def interior(self, exp_combo, factor_lists):
        """[(value, magnitude)] per factor list; magnitude sums |contributions|."""
        if self._interior is None:
            self._interior = [self._group(self.P, self.funcs)]
        return _accumulate(self._interior, exp_combo, factor_lists)

    def boundary(self, exp_combo, factor_lists):
        """As interior(), over the boundary of P."""
        if self._facets is None:
            self._facets = self._facet_groups()
        if self.dim > 1:
            return _accumulate(self._facets, exp_combo, factor_lists)
        totals = [0.0] * len(factor_lists)
        mags = [0.0] * len(factor_lists)
        ends = self._facets
        for row, a in zip(ends, _sums(exp_combo, ends)):
            ea = _safe_exp(a)
            for j, factors in enumerate(factor_lists):
                w = 1.0
                for (const, coeffs) in factors:
                    w *= const + _sums(coeffs, [row])[0]
                contrib = w * ea
                totals[j] += contrib
                mags[j] += abs(contrib)
        return list(zip(totals, mags))

    def _facet_groups(self):
        """Per facet, a record group in the facet's chart; on a segment,
        the value row of each end point."""
        P = self.P
        if self.dim == 1:
            ends = [P.vertices[f.vertex_indices[0]] for f in P.facets]
            return [[_finite(pa(v), "a function value") for pa in self.funcs] for v in ends]
        return [
            self._group(P.facet_polytope(i)[0], [pa.restrict_to_facet(i) for pa in self.funcs])
            for i in range(len(P.facets))
        ]


# -- public integral drivers ---------------------------------------------------


def _weight_factors(weight, P, q, rho):
    """Normalize a weight spec to (funcs, factor list).

    Accepted: None, an AffineForm, and the strings "entropy" ((n + rho*q))
    and "qsq" (q^2).
    """
    funcs = [q]
    if weight is None:
        return funcs, []
    if isinstance(weight, AffineForm):
        funcs.append(weight)
        return funcs, [(0.0, (0.0, 1.0))]
    if weight == "entropy":
        return funcs, [(float(P.dim), (float(rho),))]
    if weight == "qsq":
        return funcs, [(0.0, (1.0,)), (0.0, (1.0,))]
    raise InputError("unknown weight %r" % (weight,))


def _weighted_integral(kind, P, qpa, rho, weight):
    """The triangulation route of both public drivers: one integrator call."""
    funcs, factors = _weight_factors(weight, P, qpa, rho)
    gear = ExpIntegrator(P, funcs)
    exp_combo = (float(rho),) + (0.0,) * (len(gear.funcs) - 1)
    [(total, mag)] = getattr(gear, kind)(exp_combo, [factors])
    return IntegralResult(total, "triangulation", 1e-14 * mag * (P.dim + 2))


def polytope_exp_integral(P, q, rho=1.0, weight=None, method="auto") -> IntegralResult:
    """Integral over P of weight * e^(rho q) against the lattice measure.

    q may be a PA function, an AffineForm, or None (zero).  method picks the
    route: "triangulation" (default under "auto"), or "localization", which
    requires weight=None and a polytope with simple vertices.
    """
    qpa = as_pa(q, P)
    rho = _finite(rho, "rho")
    if method not in ("auto", "triangulation", "localization"):
        raise InputError("unknown method %r" % (method,))
    if method == "localization":
        if weight is not None:
            raise InputError("localization evaluates unweighted integrals only")
        value, mag = _localize_integral(qpa, rho)
        return IntegralResult(value, "localization", 1e-13 * mag)
    return _weighted_integral("interior", P, qpa, rho, weight)


def boundary_exp_integral(P, q, rho=1.0, weight=None) -> IntegralResult:
    """Integral of weight * e^(rho q) over the boundary of P.

    Facet lattice measures; evaluated by recursion to the facets in their
    exact lattice charts.
    """
    return _weighted_integral("boundary", P, as_pa(q, P), _finite(rho, "rho"), weight)


# -- localization ---------------------------------------------------------------


def _vertex_pairings(P, eta):
    """[(vertex, index, [(t_i, mu_i)])] with exact pairings t_i = <mu_i, eta>."""
    out = []
    for v, cone in zip(P.vertices, P.vertex_cones):
        if cone is None:
            raise NonSimpleVertex(
                "localization needs simple vertices; (%s) is not simple"
                % ", ".join(str(c) for c in v.coords)
            )
        pairs = [(_dot(g, eta), g) for g in cone.generators]
        out.append((v, cone.index, pairs))
    return out


def _localization_data(P, eta, scale):
    """Checked inputs of a vertex sum: (exponent, x, vertex pairings, zero
    edges), the exponent an AffineForm (eta itself, or the direction eta
    with constant 0) and the zero edges the generators that pair to 0."""
    form = eta if isinstance(eta, AffineForm) else AffineForm(eta)
    eta = _fit(form.gradient, P.dim, "eta")
    x = _finite(scale, "scale")
    if x == 0.0:
        raise InputError("scale must be nonzero")
    data = _vertex_pairings(P, eta)
    if all(c == 0 for c in eta):
        raise InputError("direction must be nonzero")
    zero_edges = [mu for (_, _, pairs) in data for (t, mu) in pairs if t == 0]
    return form, x, data, zero_edges


_AUX_SEEDS = (
    Fraction(3, 7),
    Fraction(5, 11),
    Fraction(7, 13),
    Fraction(11, 17),
    Fraction(13, 19),
    Fraction(17, 23),
)


def _aux_direction(n, zero_edges):
    for seed in _AUX_SEEDS:
        zeta = tuple(seed ** k for k in range(n))
        if all(_dot(mu, zeta) != 0 for mu in zero_edges):
            return zeta
    raise ValidationFailure("no generic auxiliary direction found")


def brion_localize_limit(P, eta, scale=1.0, boundary=False) -> float:
    """Brion's vertex sum with exact coefficients, the limit where a pairing is 0.

    With X the exact value of scale, the integral is

        sum_v e^(X form(v)) c_v / (-X)^n,  c_v = index(v) / prod_i t_i,

    for the exact pairings t_i of v's edge generators mu_i with eta.
    Where some t_i are 0, the direction becomes eta + tau zeta (zeta
    generic rational): c_v is then the tau^0 coefficient of
    index(v) e^(tau X <v - v0, zeta>) / prod_i (t_i + tau <mu_i, zeta>),
    whose poles cancel across the vertices, so the sum is the limit at
    tau = 0.  Taking <v, zeta> relative to the first vertex v0 leaves the
    sum as it is and the coefficients as small as P, wherever P lies.
    The coefficients are exact rationals, merged at equal exponents, and
    _exp_sum adds the terms.  eta is exact rational with P.dim coordinates, or an
    AffineForm whose constant c enters every vertex exponent,
    e^(scale (<v, eta> + c)), exactly, which stays finite far from the
    origin where e^(scale c) alone would not; scale is a float.  The
    boundary, in any dimension, sums the interior formula over the facet
    charts (see _boundary_localize), after the same checks on P.
    """
    form, x, data, zero_edges = _localization_data(P, eta, scale)
    if boundary:
        return _boundary_localize(as_pa(form, P), x)
    if zero_edges:
        zeta = _aux_direction(P.dim, zero_edges)
        base = _dot(data[0][0].coords, zeta)
    terms = {}
    for (v, index, pairs) in data:
        # index / prod_i (t_i + tau s_i), s_i = <mu_i, zeta>, is tau^-z
        # (num / den) / prod_i (1 + tau s_i / t_i) over the nonzero t_i,
        # with s_i in place of t_i in num / den for the z pairings t_i = 0
        z = sum(1 for (t, _) in pairs if t == 0)
        num, den = index, 1
        ratios = []
        for (t, mu) in pairs:
            if z:
                s = _dot(mu, zeta)
                if t == 0:
                    t = s
                else:
                    ratios.append(s / t)
            num *= t.denominator
            den *= t.numerator
        if z:
            # series[k]: the tau^k coefficient of num / den / prod_i (1 + tau r_i);
            # the coefficient is the tau^z one of series times e^(tau b)
            series = [Fraction(num, den)] + [0] * z
            for r in ratios:
                for k in range(1, z + 1):
                    series[k] -= r * series[k - 1]
            b = Fraction(x) * (_dot(v.coords, zeta) - base)
            coef = series[z]
            for j in range(1, z + 1):
                coef += series[z - j] * b ** j / factorial(j)
            num, den = coef.numerator, coef.denominator
        value = form(v)
        key = (value.numerator, value.denominator)
        if key in terms:
            _, n0, d0 = terms[key]
            num, den = n0 * den + num * d0, d0 * den
        terms[key] = (value, num, den)
    return _exp_sum(list(terms.values()), x, P.dim)


def _exp_sum(terms, x, n):
    """sum of (num / den) e^(x f) over the exact (f, num, den) terms, over (-x)^n.

    That is a positive integral, so the sum is not 0.  Every f passes through
    _finite; an exponent above 709 makes the sum inf, as in the kernel.
    The T terms are added in floats where every coefficient and
    exponential is a normal float and the rounding bound
    2^-53 sum (T + 2 |a| + 3) |c e^a| (a = x f, rounded twice) is at most
    1e-12 of the total, the accuracy target of paconvex._simplex_power;
    else in decimals, with the exact exponents taken relative to the
    largest, at a precision doubled until the same bound holds.
    """
    exps = [x * _finite(f, "the exponent at a vertex") for f, _, _ in terms]
    if max(exps) > 709.0:
        return inf
    count = len(terms)
    total = err = 0.0
    for (_, num, den), a in zip(terms, exps):
        if a < -708.0 or not -1000 < abs(num).bit_length() - abs(den).bit_length() < 1000:
            break
        part = num / den * exp(a)
        total += part
        err += (count + 2.0 * abs(a) + 3.0) * abs(part)
    else:
        if float_info.min <= abs(total) < inf and 2.0**-53 * err <= 1e-12 * abs(total):
            for _ in range(n):
                total /= -x
            return total
    X = Fraction(x)
    top = X * terms[exps.index(max(exps))][0]
    prec = 34
    while True:
        with localcontext() as ctx:
            ctx.prec = prec
            total = err = 0
            for f, num, den in terms:
                a = _decimal(X * f - top)
                part = Decimal(num) / den * a.exp()
                total += part
                err += (count + abs(a) + 3) * abs(part)
            if Decimal(10) ** (1 - prec) * err <= Decimal("1e-12") * abs(total):
                return float(total * _decimal(top).exp() / _decimal(-X) ** n)
        prec *= 2


def _boundary_localize(qpa, rho):
    """Boundary integral of e^(rho q): _localize_integral on each facet
    in its lattice chart, where a zero facet direction integrates as a
    constant (and a segment's end point is POINT, of volume 1)."""
    total = 0.0
    for i in range(len(qpa.P.facets)):
        total += _localize_integral(qpa.restrict_to_facet(i), rho)[0]
    return total


def _localize_integral(qpa, rho):
    """Interior integral of e^(rho q) via per-cell vertex localization."""
    total = 0.0
    mag = 0.0
    for (i, cell) in qpa.cells():
        piece = qpa.pieces[i]
        if rho == 0.0 or all(g == 0 for g in piece.gradient):
            volume = _finite(cell.volume(), "a cell volume")
            contrib = _safe_exp(rho * _finite(piece.constant, "q")) * volume
        else:
            # the piece's constant enters every vertex exponent exactly:
            # far from the origin a factor e^(rho c) would underflow to
            # 0 while the vertex sum of the gradient alone overflows
            contrib = brion_localize_limit(cell, piece, scale=rho)
        total += contrib
        mag += abs(contrib)
    return total, mag


# -- cross validation -----------------------------------------------------------


# the agreement report of the triangulation and localization routes
CrossValidation = namedtuple(
    "CrossValidation",
    [
        "interior_triangulation",
        "interior_localization",
        "boundary_triangulation",
        "boundary_localization",
        "rel_gap",
        "passed",
    ],
)


_VALIDATION_TOL = 1e-7


def cross_validate(P, q, rho=1.0) -> CrossValidation:
    """Evaluate interior (and for affine q boundary) integrals both ways.

    Raises ValidationFailure when the relative gap exceeds 1e-7.  The
    boundary comparison runs, in any dimension, when q is a single affine
    piece; for a piecewise q those fields are None.
    """
    qpa = as_pa(q, P)
    rho = _finite(rho, "rho")
    it = polytope_exp_integral(P, qpa, rho=rho).value
    il, _ = _localize_integral(qpa, rho)
    gaps = [abs(it - il) / max(abs(it), abs(il), 1e-300)]
    bt = bl = None
    # a piecewise q is left out: localizing its facet cells made the 40
    # cross-validations of perfbench's sweep about 60% slower
    if len(qpa.pieces) == 1:
        bt = boundary_exp_integral(P, qpa, rho=rho).value
        bl = _boundary_localize(qpa, rho)
        gaps.append(abs(bt - bl) / max(abs(bt), abs(bl), 1e-300))
    rel_gap = max(gaps)
    passed = rel_gap <= _VALIDATION_TOL
    report = CrossValidation(it, il, bt, bl, rel_gap, passed)
    if not passed:
        raise ValidationFailure(
            "evaluation routes disagree: rel gap %.3g (%r)" % (rel_gap, report)
        )
    return report
