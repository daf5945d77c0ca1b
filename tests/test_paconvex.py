"""Piecewise-affine convex layer: exact moments, Legendre duality,
rooftops, Duistermaat-Heckman summaries, and the d_p / d_exp metrics.

Hand-derived rational constants carry most of the load here; quadrature
oracles back up the non-obvious float paths.
"""

import math
import random
import struct
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
import support
from toricmu import (
    ExpIntegrator,
    InputError,
    ValidationFailure,
    boundary_exp_integral,
    boundary_pa_moment,
    build_polytope,
    calabi,
    char_mu_estimate,
    corner_filtration,
    cross_validate,
    dh_cdf,
    dh_summary,
    entropy_curve,
    futaki,
    legendre,
    legendre_dual,
    mabuchi_slope,
    make_pa,
    metric_dexp,
    metric_dp,
    mu_lambda,
    mu_star,
    pa_moment,
    poly_moment,
    rooftop,
    sup_abs_diff,
)
from toricmu import paconvex, polytope
from toricmu.cli import square_qn_potential
from toricmu.paconvex import (
    AffineForm,
    EmptyPieces,
    PiecewiseAffineConvex,
    _simplex_power,
    as_pa,
    common_cells,
)
from toricmu.polytope import POINT, DegenerateHull, Simplex


def kink_q(P=None):
    """q = max(x + y - 1, 0) on the unit square unless told otherwise."""
    P = P or support.unit_square()
    return support.pa_from(P, ((1, 1), -1), ((0, 0), 0))


def rational_grid(P, steps=5):
    lo = [min(v.coords[i] for v in P.vertices) for i in range(P.dim)]
    hi = [max(v.coords[i] for v in P.vertices) for i in range(P.dim)]
    axes = [
        [l + Fraction(k, steps) * (h - l) for k in range(steps + 1)]
        for l, h in zip(lo, hi)
    ]
    if P.dim == 1:
        pts = [(a,) for a in axes[0]]
    else:
        pts = [(a, b) for a in axes[0] for b in axes[1]]
    return [p for p in pts if P.contains(p)]


def test_affine_form_basics():
    f = AffineForm((Fraction(1, 2), -2), 3)
    assert f((4, 1)) == Fraction(3)
    assert f.to_float() == ((0.5, -2.0), 3.0)
    assert support.float_eval(f)((4.0, 1.0)) == pytest.approx(3.0)


def test_make_pa_dedupes_and_rejects_empty():
    P = support.unit_square()
    q = make_pa([((1, 0), 0), ((1, 0), 0), ((0, 1), 0)], P)
    assert len(q.pieces) == 2
    with pytest.raises(EmptyPieces):
        make_pa([], P)


def test_as_pa_none_is_zero():
    P = support.unit_square()
    q = as_pa(None, P)
    assert q((Fraction(1, 3), Fraction(2, 3))) == 0


def test_cells_partition_volume_and_activity():
    rng = random.Random(421)
    for _ in range(20):
        P = support.random_polytope(rng)
        q = support.random_pa(rng, P)
        cells = q.cells()
        assert sum(cell.volume() for _, cell in cells) == P.volume()
        for idx, cell in cells:
            piece = q.pieces[idx]
            b = cell.barycenter().coords
            assert piece(b) == q(b)


def test_poly_moment_hand_values():
    P = support.unit_square()
    x = AffineForm((1, 0), 0)
    assert poly_moment(P, x, 0) == 1
    assert poly_moment(P, x, 1) == Fraction(1, 2)
    assert poly_moment(P, AffineForm((1, 1), -1), 2) == Fraction(1, 6)


def test_poly_moment_matches_quadrature():
    rng = random.Random(88)
    for _ in range(12):
        P = support.random_polytope(rng)
        grad = support.random_vector(rng, 2)
        const = support.random_fraction(rng)
        aff = AffineForm(grad, const)
        k = rng.randint(0, 3)
        exact = poly_moment(P, aff, k)
        gf = support.float_eval(aff)
        approx = oracles.quad_polygon(
            lambda p: gf(p) ** k, [v.coords for v in P.vertices]
        )
        assert float(exact) == pytest.approx(approx, rel=1e-11, abs=1e-11)


def test_pa_moment_kink_values():
    # q = max(x+y-1, 0): int q = 1/6, int q^2 = 1/12, boundary int q = 1.
    q = kink_q()
    assert pa_moment(q, 0) == 1
    assert pa_moment(q, 1) == Fraction(1, 6)
    assert pa_moment(q, 2) == Fraction(1, 12)
    assert boundary_pa_moment(q, 1) == 1
    mean = Fraction(1, 6)
    # the oracle's shifted moment int (q + shift)^2 has the shift inside the power
    assert oracles.pa_moment_shift(q, 2, shift=mean) == Fraction(1, 6)
    # the variance int (q - qbar)^2 is that moment at shift -qbar, whatever
    # constant q is moved by
    for c in (0, mean, -mean):
        variance = dh_summary(q + AffineForm.constant_form(2, c)).variance
        assert variance == oracles.pa_moment_shift(q, 2, shift=-mean) == Fraction(1, 18)
    # exact moments take integer exponents only, numpy integers included
    s = dh_summary(q)
    assert pa_moment(q, np.int64(2)) == Fraction(1, 12)
    assert boundary_pa_moment(q, np.int64(1)) == 1
    assert s.moment(np.int64(2)) == Fraction(1, 12)
    for bad in (1.5, 2.0, -1):
        with pytest.raises(ValueError):
            poly_moment(q.P, AffineForm((1, 0), 0), bad)
        with pytest.raises(ValueError):
            pa_moment(q, bad)
        with pytest.raises(ValueError):
            boundary_pa_moment(q, bad)
        with pytest.raises(ValueError):
            s.moment(bad)
    with pytest.raises(ValueError):
        s.moment(5)


def test_pa_moment_matches_refined_quadrature():
    rng = random.Random(1234)
    for _ in range(6):
        P = support.random_polytope(rng)
        q = support.random_pa(rng, P, max_pieces=3)
        exact = pa_moment(q, 1)
        floats = [support.float_eval(p) for p in q.pieces]
        approx = oracles.quad_polygon_refined(
            lambda pt: max(f(pt) for f in floats),
            [v.coords for v in P.vertices],
            splits=16,
        )
        assert float(exact) == pytest.approx(approx, rel=2e-5, abs=2e-5)


def test_boundary_moment_matches_segment_quadrature():
    rng = random.Random(4321)
    for _ in range(8):
        P = support.random_polytope(rng)
        q = support.random_pa(rng, P, max_pieces=2)
        floats = [support.float_eval(p) for p in q.pieces]
        approx = oracles.quad_boundary(
            lambda pt: max(f(pt) for f in floats),
            [v.coords for v in P.vertices],
            order=48,
        )
        # Gauss-Legendre across an edge kink stalls near 1e-5 accuracy,
        # which is still far tighter than any plausible bookkeeping bug.
        assert float(boundary_pa_moment(q, 1)) == pytest.approx(
            approx, rel=2e-4, abs=2e-4
        )


def test_restrict_to_facet_consistent():
    P = support.blowup_polytope()
    q = kink_q(P)
    for i in range(len(P.facets)):
        restricted = q.restrict_to_facet(i)
        sub, origin, basis = P.facet_polytope(i)
        for y in rational_grid(sub, steps=4):
            point = tuple(
                o + sum(vec[j] * yc for vec, yc in zip(basis, y))
                for j, o in enumerate(origin.coords)
            )
            assert restricted(y) == q(point)


def test_segment_facets_are_point_charts():
    """A segment's facet is its end point, in the chart (POINT, end point, ())
    of lattice measure 1, and q restricts to its value there."""
    P = build_polytope([(0,), (2,)])
    q = make_pa([((1,), 0), ((-2,), Fraction(1, 3))], P)
    for i, f in enumerate(P.facets):
        end = P.vertices[f.vertex_indices[0]]
        assert P.facet_polytope(i) == (POINT, end, ())
        assert P.facet_measure(i) == 1
        restricted = q.restrict_to_facet(i)
        assert restricted.P is POINT
        assert restricted(()) == q(end)
        assert restricted.pieces == tuple(
            AffineForm((), piece(end)) for piece in q.pieces
        )
    assert POINT.lattice_points() == [()]
    assert POINT.volume() == 1


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_segment_boundary_moments_match_end_points(data):
    """Boundary moments over a segment's POINT charts equal the sums over its
    end points (oracles.boundary_moments_end_points) exactly."""
    quarter = support.quarter
    lo, hi = sorted(data.draw(st.lists(quarter, min_size=2, max_size=2, unique=True)))
    P = build_polytope([(lo,), (hi,)])
    pieces = data.draw(st.lists(st.tuples(quarter, quarter), min_size=1, max_size=3))
    q = make_pa([((g,), -c) for g, c in pieces], P)
    k = data.draw(st.integers(0, 4))
    assert paconvex._boundary_moments(q, k) == oracles.boundary_moments_end_points(q, k)


def test_dh_cdf_linear_example():
    P = support.unit_square()
    q = support.pa_from(P, ((1, 0), 0))  # q = x, -q uniform on [-1, 0]
    assert dh_cdf(q, Fraction(-1, 2)) == Fraction(1, 2)
    assert dh_cdf(q, -1) == 1
    assert dh_cdf(q, -2) == 1
    assert dh_cdf(q, 0) == 0
    assert dh_cdf(q, 1) == 0


sixth = st.integers(-12, 12).map(lambda k: Fraction(k, 6))


def node_values(q):
    """Sorted distinct values of -q at the vertices of its cells."""
    return sorted({-q.pieces[i](v) for (i, cell) in q.cells() for v in cell.vertices})


@st.composite
def dh_potentials(draw):
    """2-4 random pieces, their rooftop at a node value or between two
    (flat cells), or a constant, on one of the exact test polytopes."""
    P = draw(support.exact_polytopes())
    kind = draw(st.sampled_from(["pieces", "rooftop", "constant"]))
    if kind == "constant":
        return make_pa([AffineForm((0,) * P.dim, draw(sixth))], P)
    pieces = draw(
        st.lists(st.tuples(st.tuples(*[sixth] * P.dim), sixth), min_size=2, max_size=4)
    )
    q = make_pa([AffineForm(g, c) for g, c in pieces], P)
    if kind == "rooftop":
        vals = node_values(q)
        k = draw(st.integers(0, 2 * len(vals) - 2))
        q = rooftop(q, (vals[k // 2] + vals[(k + 1) // 2]) / 2)
    return q


@settings(max_examples=50, deadline=None)
@given(dh_potentials())
def test_dh_cdf_matches_clip_chain(q):
    vals = node_values(q)
    eps = Fraction(1, 10**9)
    taus = [vals[0] - 1, vals[-1] + 1, Fraction(-1, 7)]
    taus += [v + d for v in vals for d in (-eps, 0, eps)]
    for tau in taus:
        assert dh_cdf(q, tau) == oracles.dh_cdf_clip(q, tau), tau


def test_dh_summary_linear_example():
    P = support.unit_square()
    q = support.pa_from(P, ((1, 0), 0))
    s = dh_summary(q)
    assert s.moments == (1, Fraction(-1, 2), Fraction(1, 3), Fraction(-1, 4), Fraction(1, 5))
    assert s.barycenter == Fraction(-1, 2)
    assert s.variance == Fraction(1, 12)
    assert s.support() == (-1, 0)
    assert s.laplace(1.0) == pytest.approx(math.e - 1.0, rel=1e-12)
    assert s.laplace(-2.0) == pytest.approx((1.0 - math.exp(-2.0)) / 2.0, rel=1e-12)


@st.composite
def moment_potentials(draw):
    """1-4 random pieces on one of the exact test polytopes (1-D to 3-D)."""
    P = draw(support.exact_polytopes())
    piece = st.tuples(st.tuples(*[sixth] * P.dim), sixth)
    pieces = draw(st.lists(piece, min_size=1, max_size=4))
    return make_pa([AffineForm(g, c) for g, c in pieces], P)


def float_bits(values):
    return [struct.pack("<d", x) for x in values]


@settings(max_examples=40, deadline=None)
@given(moment_potentials())
def test_one_pass_moments_equal_the_multi_pass_copies(q):
    P = q.P
    for k in range(5):
        assert pa_moment(q, k) == oracles.pa_moment_shift(q, k)
        assert poly_moment(P, q.pieces[0], k) == oracles.poly_moment_per_k(P, q.pieces[0], k)
    for k in range(3):
        assert boundary_pa_moment(q, k) == oracles.boundary_pa_moment_per_k(q, k)
    assert mabuchi_slope(P, q) == oracles.mabuchi_slope_two_pass(P, q)
    assert float_bits(calabi(P, q)) == float_bits(oracles.calabi_four_pass(P, q))
    new, old = dh_summary(q), oracles.DHSummarySixPass(q)
    assert new.volume == old.volume == P.volume()
    assert new.moments == old.moments
    assert new.barycenter == old.barycenter
    assert new.variance == old.variance


def _entry_point_outputs(P, q):
    """What the (P, q) entry points return for q, each float as its bits,
    or the error each raises."""
    zero = make_pa([AffineForm.zero(P.dim)], P)
    xi = (Fraction(1, 2),) * P.dim

    def routes():
        r = cross_validate(P, q)
        return [r.interior_triangulation, r.interior_localization,
                r.boundary_triangulation, r.boundary_localization, r.rel_gap]

    calls = [
        lambda: [mu_lambda(P, q, lam) for lam in (0.0, 0.5)],
        lambda: [futaki(P, xi, q, lam) for lam in (0.0, 0.5)],
        lambda: list(calabi(P, q)),
        routes,
        lambda: [boundary_exp_integral(P, q).value],
        lambda: [metric_dp(zero, q, p) for p in (2, 1.5)],
    ]
    out = []
    for call in calls:
        try:
            out.append([None if x is None else struct.pack("<d", x) for x in call()])
        except (InputError, ValidationFailure) as err:
            out.append((type(err), str(err)))
    return out


@settings(max_examples=25, deadline=None)
@given(moment_potentials())
def test_potential_on_an_equal_polytope_gives_the_same_bits(q):
    """A potential bound to a polytope equal to P, but not P itself, is
    accepted wherever one on P is, and gives the same bits."""
    twin = make_pa(q.pieces, build_polytope(q.P.vertices))
    assert twin.P is not q.P
    assert _entry_point_outputs(q.P, twin) == _entry_point_outputs(q.P, q)


def simplex_count(q):
    return sum(len(cell.triangulate()) for (_, cell) in q.cells())


@pytest.mark.parametrize(
    "q",
    [
        support.pa_from(
            support.readme_pentagon(),
            ((1, 0), 0),
            ((0, 1), 0),
            ((-1, -1), Fraction(-1, 3)),
        ),
        support.pa_from(
            build_polytope(support.UNIT_CUBE),
            ((1, 0, 0), 0),
            ((0, 1, 0), 0),
            ((-1, -1, 1), Fraction(-1, 2)),
        ),
    ],
)
def test_calabi_and_dh_summary_take_one_pass(monkeypatch, q):
    calls = []

    def counted(simplex, aff, k):
        calls.append(k)
        return simplex_moments(simplex, aff, k)

    simplex_moments = paconvex._simplex_moments
    monkeypatch.setattr(paconvex, "_simplex_moments", counted)
    P = q.P
    interior = simplex_count(q)
    boundary = sum(simplex_count(q.restrict_to_facet(i)) for i in range(len(P.facets)))
    calabi(P, q)
    assert sorted(calls) == [1] * boundary + [2] * interior
    calls.clear()
    dh_summary(q)
    assert calls == [4] * interior


@st.composite
def function_lists(draw):
    """One of the exact test polytopes P (1-D to 3-D) and 1-3 functions on
    it: None, an AffineForm, a PA bound to P with or without its cells
    built, or a PA bound to an equal but distinct polytope object."""
    P = draw(support.exact_polytopes())
    twin = build_polytope(P.vertices)
    piece = st.tuples(st.tuples(*[sixth] * P.dim), sixth)
    funcs = []
    for kind in draw(st.lists(st.sampled_from(["none", "affine", "pa", "twin"]), max_size=3)):
        if kind == "none":
            funcs.append(None)
        elif kind == "affine":
            funcs.append(AffineForm(*draw(piece)))
        else:
            pieces = draw(st.lists(piece, min_size=1, max_size=3))
            q = make_pa([AffineForm(g, c) for g, c in pieces], twin if kind == "twin" else P)
            if draw(st.booleans()):
                q.cells()
            funcs.append(q)
    return P, funcs


def exact_cell(cell):
    return cell.vertices, [(f.normal, f.offset, f.vertex_indices) for f in cell.facets]


@settings(max_examples=80, deadline=None)
@given(function_lists())
def test_shared_cells_equal_the_split_copies(case):
    P, funcs = case
    shared = [(exact_cell(cell), ids) for cell, ids in common_cells(P, funcs)]
    split = [(exact_cell(cell), ids) for cell, ids in oracles.common_cells_split(P, funcs)]
    assert shared == split
    pas = [f for f in funcs if isinstance(f, PiecewiseAffineConvex)] + [as_pa(None, P)]
    for q in pas:
        for qp in pas:
            assert sup_abs_diff(q, qp) == oracles.sup_abs_diff_own_cells(q, qp)


@st.composite
def facet_potentials(draw):
    """A potential of 1-4 pieces on one of the exact test polytopes (1-D to
    3-D), the pair sometimes moved far from the origin, sometimes with a
    piece that equals the first one on a facet of P or repeats it (kept:
    the potential is built without make_pa's deduplication)."""
    P = draw(support.exact_polytopes())
    far = draw(st.sampled_from([0, 0, 1000, -(10**6)]))
    shift = tuple(far * (-1) ** j for j in range(P.dim))
    if far:
        P = build_polytope([[c + d for c, d in zip(v, shift)] for v in P.vertices])
    piece = st.tuples(st.tuples(*[sixth] * P.dim), sixth)
    forms = [
        AffineForm(g, c - sum(a * d for a, d in zip(g, shift)))
        for g, c in draw(st.lists(piece, min_size=1, max_size=4))
    ]
    extra = draw(st.sampled_from(["none", "equal on a facet", "repeat"]))
    if extra == "equal on a facet":
        f = draw(st.sampled_from(P.facets))
        forms.append(forms[0] + draw(sixth) * AffineForm(f.normal, -f.offset))
    elif extra == "repeat":
        forms.append(forms[0])
    return PiecewiseAffineConvex(forms, P)


@settings(max_examples=150, deadline=None)
@given(facet_potentials())
def test_facet_cells_are_faces_of_the_cells(q):
    """restrict_to_facet reads its cells off the faces of q.cells(); they
    equal the split of the facet's chart by the restricted pieces (the
    oracle's copy) as exact polytopes, with the same pieces, piece indices
    and order, and a cell that is the whole facet is the chart object."""
    for i in range(len(q.P.facets)):
        sub = q.P.facet_polytope(i)[0]
        restricted = q.restrict_to_facet(i)
        pieces, cells = oracles.restrict_to_facet_split(q, i)
        assert restricted.P is sub and restricted.pieces == pieces
        assert [(k, exact_cell(c), c is sub) for k, c in restricted.cells()] == [
            (k, exact_cell(c), c is sub) for k, c in cells
        ]


def test_repeated_piece_counts_its_region_once():
    """A piece equal to an earlier one gets no cell, so a potential built
    without make_pa's deduplication covers P once: the cell complex, the
    volume, the DH mass and mu* are those of the deduplicated potential
    (before, each copy took the whole region, and the interior integral
    doubled while the boundary one did not)."""
    P = support.unit_square()
    x, y = AffineForm((1, 0), 0), AffineForm((0, 1), 0)
    q = PiecewiseAffineConvex([x, x], P)
    assert [i for i, _ in q.cells()] == [0]
    assert pa_moment(q, 0) == 1
    assert dh_cdf(q, -10) == 1
    assert mu_star(P, q) == mu_star(P, make_pa([x], P))
    assert pa_moment(PiecewiseAffineConvex([x, y, x], P), 0) == 1


def test_facet_geometry_builds_no_hull(monkeypatch):
    """Facet charts, the faces of non-simplex facets in triangulations and
    the cells of restrict_to_facet are read off incidences: an entropy sweep
    on the unit cube with a 3-piece potential, and the exact moments that
    read a fresh copy's cells, run the hull algorithm not once (before: 23
    times each)."""
    centers = [
        (Fraction(1, 4), Fraction(1, 4), Fraction(1, 4)),
        (Fraction(3, 4), Fraction(1, 4), Fraction(1, 2)),
        (Fraction(1, 4), Fraction(3, 4), Fraction(3, 4)),
    ]
    pieces = [AffineForm(tuple(2 * c for c in m), -sum(c * c for c in m)) for m in centers]
    sweep_cube, cube = (build_polytope(support.UNIT_CUBE) for _ in range(2))
    hulls = []
    polar_hull = polytope._polar_hull

    def counted(*args):
        hulls.append(args)
        return polar_hull(*args)

    monkeypatch.setattr(polytope, "_polar_hull", counted)
    entropy_curve(sweep_cube, make_pa(pieces, sweep_cube), grid=(0.0, 2.0, 3))
    assert len(hulls) == 0
    q = make_pa(pieces, cube)
    assert len(q.cells()) == 3
    dh_cdf(q, Fraction(-1, 2))
    pa_moment(q, 2)
    boundary_pa_moment(q, 1)
    assert len(hulls) == 0


def test_common_cells_reads_the_potentials_own_cells():
    q = kink_q()
    cells = q.cells()
    shared = common_cells(q.P, [q])
    assert [ids for _, ids in shared] == [(i,) for i, _ in cells]
    assert all(a is b for (a, _), (_, b) in zip(shared, cells))
    # a potential on an equal but distinct polytope object is split afresh
    twin = kink_q(build_polytope(q.P.vertices))
    twin.cells()
    assert not any(a is b for (a, _), (_, b) in zip(common_cells(q.P, [twin]), twin.cells()))


def test_cross_validate_splits_a_potential_once(monkeypatch):
    q = support.pa_from(
        support.readme_pentagon(), ((1, 0), 0), ((0, 1), 0), ((-1, -1), Fraction(-1, 3))
    )
    splits_of_q = []

    def counted(cell, pieces):
        splits_of_q.append(cell is q.P and pieces == q.pieces)
        return split(cell, pieces)

    split = paconvex._split
    monkeypatch.setattr(paconvex, "_split", counted)
    cross_validate(q.P, q, rho=1.0)
    # the triangulation and the localization route read one cell complex
    assert splits_of_q.count(True) == 1


def test_dh_mass_and_monotonicity_random():
    rng = random.Random(606)
    for _ in range(25):
        P = support.random_polytope(rng)
        q = support.random_pa(rng, P)
        s = dh_summary(q)
        lo, hi = s.support()
        assert dh_cdf(q, lo) == P.volume()
        assert dh_cdf(q, hi + 1) == 0
        taus = sorted(lo + Fraction(k, 7) * (hi - lo) for k in range(8))
        vals = [dh_cdf(q, t) for t in taus]
        assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_dh_laplace_matches_stieltjes_sum():
    rng = random.Random(11)
    P = support.random_polytope(rng)
    q = support.random_pa(rng, P, max_pieces=2)
    s = dh_summary(q)
    lo, hi = s.support()
    n_bins = 3000
    total = 0.0
    prev = s.cdf(lo)
    for k in range(1, n_bins + 1):
        tau = lo + Fraction(k, n_bins) * (hi - lo)
        cur = s.cdf(tau)
        mid = float(lo + Fraction(2 * k - 1, 2 * n_bins) * (hi - lo))
        total += math.exp(-mid) * float(prev - cur)
        prev = cur
    assert s.laplace(1.0) == pytest.approx(total, rel=1e-5)


def test_legendre_double_dual_identity():
    rng = random.Random(2718)
    for _ in range(15):
        P = support.random_polytope(rng)
        q = support.random_pa(rng, P)
        back = legendre_dual(legendre(q), P)
        for pt in rational_grid(P, steps=4):
            assert back(pt) == q(pt)


def test_legendre_dual_single_piece_and_degenerate_specs():
    P = support.unit_square()
    # graph points on the plane value = 2 x - y + 1/2: one affine piece
    ws = [(0, 0), (1, 0), (0, 1), (1, 1), (0, 0)]
    q = legendre_dual([(w, -(2 * w[0] - w[1] + Fraction(1, 2))) for w in ws], P)
    assert [(p.gradient, p.constant) for p in q.pieces] == [((2, -1), Fraction(1, 2))]
    with pytest.raises(DegenerateHull, match="^support points do not span the base space$"):
        legendre_dual([((0, 0), 0), ((1, 1), 1), ((2, 2), 2)], P)
    with pytest.raises(DegenerateHull, match="^graph points span a vertical hyperplane$"):
        legendre_dual([((0, 0), 0), ((1, 1), 1), ((2, 2), 5)], P)
    # on a segment two values over one point are vertical, not non-spanning
    with pytest.raises(DegenerateHull, match="^graph points span a vertical hyperplane$"):
        legendre_dual([((0,), 0), ((0,), -1)], support.unit_segment())
    with pytest.raises(DegenerateHull, match="^support points do not span the base space$"):
        legendre_dual([((1,), 3)], support.unit_segment())


def test_legendre_dual_rejects_support_points_of_the_wrong_length():
    """3-D support points on the unit square used to be cut to their first
    two coordinates, which returned the piece 0."""
    spec = [
        ((0, 0, 0), 0),
        ((1, 0, 0), 0),
        ((0, 1, 0), 0),
        ((0, 0, 1), 0),
        ((1, 1, 1), -5),
    ]
    with pytest.raises(ValueError, match="has 3 coordinates, expected 2$"):
        legendre_dual(spec, support.unit_square())
    with pytest.raises(ValueError, match="has 1 coordinates, expected 2$"):
        legendre_dual([((0, 0), 0), ((1, 0), 0), ((0,), 1)], support.unit_square())


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda P, q: make_pa(5, P), "pieces"),
        (lambda P, q: common_cells(P, 5), "funcs"),
        (lambda P, q: sup_abs_diff(q, 5), "pieces"),
        (lambda P, q: legendre_dual(5, P), "fspec"),
        (lambda P, q: ExpIntegrator(P, 5), "funcs"),
        (lambda P, q: char_mu_estimate(corner_filtration(), 5), "m_list"),
        (lambda P, q: polytope.clip(P, 5), "halfspace"),
    ],
    ids=["make_pa", "common_cells", "sup_abs_diff", "legendre_dual", "ExpIntegrator",
         "char_mu_estimate", "clip"],
)
def test_sequence_arguments_reject_a_number(call, name):
    """A number where a sequence belongs raises InputError naming the
    argument, not a bare TypeError from iterating it."""
    P = support.unit_square()
    with pytest.raises(InputError, match="^%s: 5 is not a sequence$" % name):
        call(P, kink_q(P))


def test_legendre_fenchel_young():
    rng = random.Random(281)
    P = support.random_polytope(rng)
    q = support.random_pa(rng, P)
    f = legendre(q)
    for _ in range(40):
        zeta = support.random_vector(rng, 2)
        fz = f(zeta)
        for pt in rational_grid(P, steps=3):
            pairing = sum(Fraction(z) * Fraction(c) for z, c in zip(zeta, pt))
            assert fz >= pairing - q(pt)


def test_rooftop_pointwise_identity():
    rng = random.Random(99)
    for _ in range(10):
        P = support.random_polytope(rng)
        q = support.random_pa(rng, P)
        tau = support.random_fraction(rng)
        r = rooftop(q, tau)
        for pt in rational_grid(P, steps=4):
            assert r(pt) == max(q(pt), -tau)


def test_sup_abs_diff_exact_cases():
    P = support.unit_square()
    qx = support.pa_from(P, ((1, 0), 0))
    qy = support.pa_from(P, ((0, 1), 0))
    assert sup_abs_diff(qx, qy) == 1
    assert sup_abs_diff(qx, qx) == 0
    assert sup_abs_diff(kink_q(), as_pa(None, P)) == 1


def test_sup_abs_diff_random():
    rng = random.Random(3141)
    for _ in range(15):
        P = support.random_polytope(rng)
        q1 = support.random_pa(rng, P)
        q2 = support.random_pa(rng, P)
        sup = sup_abs_diff(q1, q2)
        assert sup == sup_abs_diff(q2, q1)
        grid_max = max(abs(q1(pt) - q2(pt)) for pt in rational_grid(P, steps=6))
        assert sup >= grid_max


def test_metric_dp_hand_values():
    P = support.unit_square()
    zero = as_pa(None, P)
    vee = support.pa_from(P, ((-2, 0), 1), ((2, 0), -1))  # |2x - 1|
    for p in (1, 2, 3, 1.5):
        assert metric_dp(zero, vee, p) == pytest.approx(
            (1.0 / (p + 1)) ** (1.0 / p), rel=1e-12
        )
    qx = support.pa_from(P, ((1, 0), 0))
    qy = support.pa_from(P, ((0, 1), 0))
    for p in (1, 2, 3, 2.5):
        expected = (2.0 / ((p + 1) * (p + 2))) ** (1.0 / p)
        assert metric_dp(qx, qy, p) == pytest.approx(expected, rel=1e-10)
    # integral-valued p of any type takes the exact route: d_2^2 = 1/6
    for p in (2, 2.0, np.int64(2), Fraction(2)):
        assert metric_dp(qx, qy, p) == float(Fraction(1, 6)) ** 0.5
    cube = build_polytope(support.UNIT_CUBE)
    corner = build_polytope([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
    x_cube = support.pa_from(cube, ((1, 0, 0), 0))
    x_corner = support.pa_from(corner, ((1, 0, 0), 0))
    for p in (1.5, 2.5):
        assert metric_dp(x_cube, as_pa(None, cube), p) == pytest.approx(
            (1.0 / (p + 1)) ** (1.0 / p), rel=1e-12
        )
        assert metric_dp(x_corner, as_pa(None, corner), p) == pytest.approx(
            (1.0 / ((p + 1) * (p + 2) * (p + 3))) ** (1.0 / p), rel=1e-12
        )
    for bad in (0.5, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            metric_dp(qx, qy, bad)


def test_metric_dp_beyond_the_float_range_on_the_way():
    # d_p is a float although d_p^p, or a power in the simplex sums, is not
    P = support.unit_square()
    zero = as_pa(None, P)
    # square-qn:2, q = max(-1/12, 23/12 - 4 (x + y)); references from
    # 50-digit quadrature of the pushforward of x + y
    qn = support.pa_from(P, ((0, 0), Fraction(-1, 12)), ((-4, -4), Fraction(23, 12)))
    assert metric_dp(qn, zero, 1200) == pytest.approx(1.8918260213928221, rel=1e-14)
    # the Jensen bound mean(g)^p of the float route underflows
    assert metric_dp(qn, zero, 1000.5) == pytest.approx(1.887596426787799, rel=1e-14)
    for c, p, d in (
        (Fraction(10) ** 200, 2, 1e200),
        (Fraction(10) ** 200, 2.5, 1e200),
        (Fraction(1, 10), 400, 0.1),
        (Fraction(1, 10), 400.5, 0.1),
        (Fraction(10) ** 400, 2, math.inf),
        (Fraction(10) ** 400, 2.5, math.inf),
    ):
        assert metric_dp(support.pa_from(P, ((0, 0), c)), zero, p) == pytest.approx(
            d, rel=1e-15
        )


def test_metric_dp_weights_beyond_the_float_range():
    # x + 10^-400 y against 0: the divided-difference weights of a simplex's
    # scaled vertex values are beyond the float range, so its terms cancel
    # far past double precision and it is summed in decimals; d_1.5 barely
    # moves from its value at 10^-300, whose weights are floats
    P = support.unit_square()
    zero = as_pa(None, P)
    near = metric_dp(support.pa_from(P, ((1, Fraction(1, 10**300)), 0)), zero, 1.5)
    far = metric_dp(support.pa_from(P, ((1, Fraction(1, 10**400)), 0)), zero, 1.5)
    assert near == 0.5428835233189813
    assert abs(far - near) <= 1e-12


@st.composite
def pa_pairs(draw):
    """Two potentials of 1-3 random pieces on one exact test polytope."""
    P = draw(support.exact_polytopes())
    piece = st.tuples(st.tuples(*[sixth] * P.dim), sixth)
    pieces = st.lists(piece, min_size=1, max_size=3)
    return tuple(
        make_pa([AffineForm(g, c) for g, c in draw(pieces)], P) for _ in range(2)
    )


@settings(max_examples=30, deadline=None)
@given(pa_pairs(), st.sampled_from([1, 2, 3]))
def test_metric_dp_float_route_near_integer_matches_exact(pair, k):
    q, qp = pair
    exact = metric_dp(q, qp, k)
    # an integral float is summed exactly too, so it agrees to the last bit
    assert metric_dp(q, qp, float(k)) == exact
    for p in (k - 1e-9, k + 1e-9):
        if p >= 1:
            assert metric_dp(q, qp, p) == pytest.approx(exact, rel=1e-8, abs=1e-12)


@pytest.mark.parametrize("n", [10**100, 10**160, 10**200], ids=["1e100", "1e160", "1e200"])
@pytest.mark.parametrize("p", [2 + 1e-6, 2.5])
def test_metric_dp_real_p_on_square_qn(n, p):
    """|square-qn:N| is N (1 - N (x + y)) on the corner x + y <= 1/N and
    0 elsewhere, up to 1/(6N), so d_p^p = N^(p-2) / ((p+1) (p+2)) to rel
    O(N^-2): the exact d_2 is 12^(-1/2), and a real p near 2 moves it by
    the factor N^((p-2)/p) (1 + 2.3e-4 at N = 1e200).  The corner
    simplices have volumes near N^-2, below the float range at 1e200."""
    q = square_qn_potential(n)
    zero = as_pa(None, q.P)
    assert metric_dp(q, zero, 2) == pytest.approx(12**-0.5, rel=1e-15)
    expected = math.exp(((p - 2) * math.log(n) - math.log((p + 1) * (p + 2))) / p)
    assert metric_dp(q, zero, p) == pytest.approx(expected, rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.integers(-400, 400), st.sampled_from([1, 2, 3, 1.5, 2.5, 7.25]))
@example(308, 2.5).via("the largest scale in the float range")
@example(309, 2).via("beyond the float range")
@example(-320, 1.5).via("a subnormal d_p")
@example(-324, 2.5).via("below the float range")
@example(300, 4000.5).via("d_p^p beyond the default decimal range")
@example(-300, 4000.5).via("d_p^p below the default decimal range")
def test_metric_dp_of_a_constant_at_any_scale(k, p):
    """|q - q'| = 10^k gives d_p = 10^k vol^(1/p), as its float: inf or
    0.0 past the float range, and no OverflowError on the way, nor a
    d_p^p that leaves the decimal exponent range."""
    P = support.blowup_polytope()
    got = metric_dp(support.pa_from(P, ((0, 0), Fraction(10) ** k)), as_pa(None, P), p)
    vol = P.volume()
    with mpmath.workdps(50):
        root = (mpmath.mpf(vol.numerator) / vol.denominator) ** (1 / mpmath.mpf(p))
        expected = float(mpmath.mpf(10) ** k * root)
    if expected in (0.0, math.inf):
        assert got == expected
    else:
        assert got == pytest.approx(expected, rel=1e-14, abs=1e-323)


def test_simplex_power_matches_segment_and_triangle_closed_forms():
    rng = random.Random(515)
    for trial in range(200):
        n = 1 + trial % 2
        while True:
            s = Simplex([support.random_vector(rng, n) for _ in range(n + 1)])
            if s.edge_matrix_det() != 0:
                break
        grad = support.random_vector(rng, n)
        if trial % 5 == 0:
            grad = (0,) * n  # every vertex value repeated
        # aff >= 0 on s, vanishing at a vertex in half the trials
        low = min(AffineForm(grad, 0)(v) for v in s.vertices)
        aff = AffineForm(grad, rng.choice([0, Fraction(rng.randint(1, 12), 6)]) - low)
        p = rng.choice([1.1, 1.5, 2.5, 3.7])
        expected = oracles.simplex_power_closed_form(
            abs(float(s.edge_matrix_det())), [float(aff(v)) for v in s.vertices], p
        )
        assert float(_simplex_power(s, aff, p)) == pytest.approx(expected, rel=1e-12, abs=0)


@st.composite
def exact_simplices(draw):
    """A 1-D to 3-D simplex with nonzero volume on a small rational grid,
    and an affine form whose gradient of -1, 0, 1 entries (all 0 in some
    draws) repeats vertex values often."""
    n = draw(st.integers(1, 3), label="dimension")
    coord = st.integers(-4, 4).map(lambda k: Fraction(k, 2))
    vertices = draw(
        st.lists(st.tuples(*[coord] * n), min_size=n + 1, max_size=n + 1, unique=True)
        .map(Simplex)
        .filter(lambda s: s.edge_matrix_det() != 0),
        label="vertices",
    )
    grad = draw(st.tuples(*[st.sampled_from([-1, 0, 1])] * n), label="gradient")
    const = draw(st.integers(-6, 6).map(lambda k: Fraction(k, 3)), label="constant")
    return vertices, AffineForm(grad, const)


@settings(max_examples=150, deadline=None)
@given(exact_simplices(), st.integers(1, 8))
def test_simplex_power_integer_p_equals_h_recurrence(case, p):
    """An integer power summed over the confluent weights of the sorted
    vertex values is the Fraction of the h_p recurrence, repeated values
    included."""
    s, aff = case
    assert _simplex_power(s, aff, p) == paconvex._simplex_moments(s, aff, p)[p]


def test_simplex_power_integer_p_1200():
    """At p = 1200 the confluent sum takes as many steps as at p = 2 and
    still gives the recurrence's Fraction."""
    triangle = Simplex([(0, 0), (1, 0), (0, 1)])
    for aff in (AffineForm((1, Fraction(3, 2)), 0), AffineForm((1, 1), -1)):
        value = _simplex_power(triangle, aff, 1200)
        assert isinstance(value, Fraction)
        assert value == paconvex._simplex_moments(triangle, aff, 1200)[1200]


def test_simplex_power_close_or_tiny_vertex_values():
    # Close but unequal values cancel in the float sum; the result must
    # still match the closed forms evaluated in 80-digit arithmetic.
    segment = Simplex([(0,), (1,)])
    triangle = Simplex([(0, 0), (1, 0), (0, 1)])
    corner = Simplex([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
    for m in (4, 8, 12, 15, 20, 40):
        e = Fraction(1, 10**m)
        cases = [
            (segment, AffineForm((e,), 1)),
            (triangle, AffineForm((e, 2 * e), 1)),  # values 1, 1 + e, 1 + 2e
            (triangle, AffineForm((1, 1 + e), 0)),  # values 0, 1, 1 + e
        ]
        for p in (1.5, 2.5):
            for s, aff in cases:
                with mpmath.workdps(80):
                    det, *vals = [
                        mpmath.mpf(x.numerator) / x.denominator
                        for x in [abs(s.edge_matrix_det())] + [aff(v) for v in s.vertices]
                    ]
                    expected = oracles.simplex_power_closed_form(det, vals, mpmath.mpf(p))
                assert float(_simplex_power(s, aff, p)) == pytest.approx(
                    float(expected), rel=1e-12, abs=0
                )
            if m >= 12:
                # 1 + e (x + 2y + 3z): 1/6 (1 + p e) up to O(e^2)
                value = float(_simplex_power(corner, AffineForm((e, 2 * e, 3 * e), 1), p))
                assert value == pytest.approx((1 + p * float(e)) / 6, rel=1e-14)
    # values near 1e-130: g^(p+2) underflows, the integral (~1e-195) does not
    aff = AffineForm((1, 2), 1)
    tiny = Fraction(1, 10**130) * aff
    assert float(_simplex_power(triangle, tiny, 1.5)) / 1e-195 == pytest.approx(
        float(_simplex_power(triangle, aff, 1.5)), rel=1e-14
    )


def test_metric_dexp_constants_and_solver():
    P = support.unit_square()
    zero = as_pa(None, P)
    one = support.pa_from(P, ((0, 0), 1))
    assert metric_dexp(zero, one) == pytest.approx(1.0 / math.log(2.0), rel=1e-9)
    B = support.blowup_polytope()
    c = support.pa_from(B, ((0, 0), Fraction(3, 2)))
    expected = 1.5 / math.log(1.0 + 2.0 / 7.0)
    assert metric_dexp(as_pa(None, B), c) == pytest.approx(expected, rel=1e-9)
    # |2x - 1| against 0: beta solves beta * (e^(1/beta) - 1) = 2.
    vee = support.pa_from(P, ((-2, 0), 1), ((2, 0), -1))

    def gauge(beta):
        return beta * (math.exp(1.0 / beta) - 1.0) - 2.0

    lo_b, hi_b = 0.1, 10.0
    for _ in range(200):
        mid = 0.5 * (lo_b + hi_b)
        if gauge(mid) > 0:
            lo_b = mid
        else:
            hi_b = mid
    assert metric_dexp(zero, vee) == pytest.approx(lo_b, rel=1e-8)


@pytest.mark.parametrize("constant", ["1", "1e-15", "1e-20", "1e-300", "1e300", "1e-400"])
def test_metric_dexp_of_a_constant_at_any_scale(constant):
    """|q - q'| = c on the unit square gives beta = c / ln 2 at every scale:
    the bisection brackets the root in [0, c / ln 2], and a c whose beta
    is below the float range gives 0.0."""
    P = support.unit_square()
    c = Fraction(constant)
    got = metric_dexp(as_pa(None, P), support.pa_from(P, ((0, 0), c)))
    assert got == pytest.approx(float(c) / math.log(2.0), rel=1e-12)


@pytest.mark.parametrize("n", [10**155, 10**156], ids=["1e155", "1e156"])
def test_metric_dexp_raises_where_its_integral_leaves_the_float_range(n):
    """For the square-qn:N potential at these n, e^(|q|/beta) is beyond the
    float range near the root, so no beta meets the [1 - 1e-8, 1] test."""
    q = square_qn_potential(n)
    with pytest.raises(InputError, match="d_exp bisection"):
        metric_dexp(q, as_pa(None, q.P))


def test_metric_axioms_random():
    rng = random.Random(404)
    P = support.random_polytope(rng)
    qs = [support.random_pa(rng, P) for _ in range(4)]
    for q in qs:
        assert metric_dexp(q, q) == pytest.approx(0.0, abs=1e-12)
        assert metric_dp(q, q, 2) == pytest.approx(0.0, abs=1e-12)
    for a in qs:
        for b in qs:
            assert metric_dexp(a, b) == pytest.approx(metric_dexp(b, a), rel=1e-10)
