"""Exponential integrals: simplex kernels, triangulation route, Brion
vertex localization with exact coefficients, and cross-validation.

The two routes are algorithmically unrelated (divided differences vs
vertex cone sums), so their agreement on random inputs is a strong check;
hand-derived product formulas and quadrature oracles pin absolute values.
"""

import copy
import math
import random
import struct
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracles
import support
from toricmu import (
    ExpIntegrator,
    InputError,
    boundary_exp_integral,
    brion_localize_limit,
    build_polytope,
    cross_validate,
    polytope_exp_integral,
    simplex_exp_integral,
)
from toricmu.integrate import _accumulate
from toricmu.paconvex import AffineForm, PiecewiseAffineConvex, as_pa, make_pa
from toricmu.polytope import POINT, Simplex

E = math.e


def diag(c=1):
    return AffineForm((c, c), 0)


def test_simplex_exp_standard_triangle():
    s = Simplex([(0, 0), (1, 0), (0, 1)])
    assert simplex_exp_integral(s, diag()) == pytest.approx(1.0, rel=1e-13)
    assert simplex_exp_integral(s, AffineForm((0, 0), 0)) == pytest.approx(
        0.5, rel=1e-13
    )


def test_square_product_formulas():
    P = support.unit_square()
    assert polytope_exp_integral(P, diag()).value == pytest.approx(
        (E - 1) ** 2, rel=1e-13
    )
    assert polytope_exp_integral(P, diag(), rho=2.0).value == pytest.approx(
        ((E * E - 1) / 2) ** 2, rel=1e-13
    )
    assert boundary_exp_integral(P, diag()).value == pytest.approx(
        2 * (E * E - 1), rel=1e-13
    )
    T = support.unit_square().clip((1, 1), 1)
    assert polytope_exp_integral(T, diag()).value == pytest.approx(1.0, rel=1e-13)


def test_weighted_integrals_hand_values():
    P = support.unit_square()
    x_wt = AffineForm((1, 0), 0)
    assert polytope_exp_integral(P, diag(), weight=x_wt).value == pytest.approx(
        E - 1, rel=1e-12
    )
    assert polytope_exp_integral(P, diag(), weight="entropy").value == pytest.approx(
        2 * E * (E - 1), rel=1e-12
    )
    assert boundary_exp_integral(P, diag(), weight=x_wt).value == pytest.approx(
        1 + E * E, rel=1e-12
    )
    qsq = polytope_exp_integral(P, diag(), weight="qsq").value
    oracle = oracles.quad_polygon(
        lambda p: (p[0] + p[1]) ** 2 * math.exp(p[0] + p[1]),
        [(0, 0), (1, 0), (1, 1), (0, 1)],
    )
    assert qsq == pytest.approx(oracle, rel=1e-11)
    with pytest.raises(ValueError):
        polytope_exp_integral(P, diag(), weight=[(1, 1)])
    # three factors repeat a vertex up to three times (weight 3! = 6)
    gear = ExpIntegrator(P, [AffineForm((1, 0), 0), AffineForm((0, 1), 0)])
    x_f, y_f = (0.0, (1.0, 0.0)), (0.0, (0.0, 1.0))
    assert gear.interior((1.0, 1.0), [[x_f, x_f, x_f]])[0][0] == pytest.approx(
        (6 - 2 * E) * (E - 1), rel=1e-12
    )
    assert gear.interior((1.0, 1.0), [[x_f, y_f, x_f]])[0][0] == pytest.approx(
        E - 2, rel=1e-12
    )


def test_kinked_integrand_hand_values():
    # q = max(x+y-1, 0) on the unit square: interior e - 3/2, boundary 2e.
    P = support.unit_square()
    q = support.pa_from(P, ((1, 1), -1), ((0, 0), 0))
    assert polytope_exp_integral(P, q).value == pytest.approx(E - 1.5, rel=1e-13)
    assert boundary_exp_integral(P, q).value == pytest.approx(2 * E, rel=1e-13)


def test_interior_matches_quadrature_random():
    rng = random.Random(314)
    for _ in range(8):
        P = support.random_polytope(rng)
        grad = support.random_vector(rng, 2)
        const = support.random_fraction(rng)
        aff = AffineForm(grad, const)
        got = polytope_exp_integral(P, aff).value
        gf = support.float_eval(aff)
        want = oracles.quad_polygon(
            lambda p: math.exp(gf(p)), [v.coords for v in P.vertices]
        )
        assert got == pytest.approx(want, rel=1e-11)


def test_boundary_matches_quadrature_random():
    rng = random.Random(159)
    for _ in range(8):
        P = support.random_polytope(rng)
        aff = AffineForm(support.random_vector(rng, 2), support.random_fraction(rng))
        got = boundary_exp_integral(P, aff).value
        gf = support.float_eval(aff)
        want = oracles.quad_boundary(
            lambda p: math.exp(gf(p)), [v.coords for v in P.vertices]
        )
        assert got == pytest.approx(want, rel=1e-11)


def test_piecewise_interior_matches_refined_quadrature():
    rng = random.Random(653)
    for _ in range(5):
        P = support.random_polytope(rng)
        q = support.random_pa(rng, P, max_pieces=3)
        got = polytope_exp_integral(P, q).value
        floats = [support.float_eval(p) for p in q.pieces]
        want = oracles.quad_polygon_refined(
            lambda p: math.exp(max(f(p) for f in floats)),
            [v.coords for v in P.vertices],
            splits=16,
        )
        assert got == pytest.approx(want, rel=3e-5)


def test_brion_generic_direction_square():
    P = support.unit_square()
    eta = (1, 2)
    expected = (E - 1) * (E * E - 1) / 2
    assert brion_localize_limit(P, eta) == pytest.approx(expected, rel=1e-12)
    bnd = (E - 1) * (1 + E * E) + (E * E - 1) * (1 + E) / 2
    assert brion_localize_limit(P, eta, boundary=True) == pytest.approx(bnd, rel=1e-12)


def test_brion_nongeneric_raises_and_limit_resolves():
    P = support.unit_square()
    assert brion_localize_limit(P, (1, 0)) == pytest.approx(E - 1, rel=1e-11)
    expected_bnd = 2 * (E - 1) + 1 + E
    assert brion_localize_limit(P, (1, 0), boundary=True) == pytest.approx(
        expected_bnd, rel=1e-11
    )


@pytest.mark.parametrize(
    "make_P, eta, scale, boundary, error, message",
    [
        (support.unit_square, (1, 2), 0.0, False, ValueError, "scale must be"),
        (support.unit_square, (0, 0), 1.0, False, ValueError, "direction must"),
    ],
)
def test_localization_input_checks(make_P, eta, scale, boundary, error, message):
    """brion_localize_limit rejects each bad input with the listed error."""
    P = make_P()
    with pytest.raises(error, match=message):
        brion_localize_limit(P, eta, scale=scale, boundary=boundary)


def test_boundary_localization_unit_cube():
    """On the unit cube the boundary of e^(<mu, eta>) is a sum of products
    over the six faces, generic or along an axis."""
    P = build_polytope(support.UNIT_CUBE)
    e1, e2, e3 = E - 1, (E**2 - 1) / 2, (E**3 - 1) / 3
    generic = (1 + E) * e2 * e3 + (1 + E**2) * e1 * e3 + (1 + E**3) * e1 * e2
    assert brion_localize_limit(P, (1, 2, 3), boundary=True) == pytest.approx(
        generic, rel=1e-12
    )
    axis = 1 + E + 4 * e1
    assert brion_localize_limit(P, (1, 0, 0), boundary=True) == pytest.approx(
        axis, rel=1e-12
    )


def test_brion_matches_triangulation_random():
    rng = random.Random(271)
    for _ in range(12):
        P = support.random_polytope(rng)
        eta = support.random_vector(rng, 2)
        if all(c == 0 for c in eta):
            continue
        aff = AffineForm(eta, 0)
        tri = polytope_exp_integral(P, aff, method="triangulation").value
        loc = brion_localize_limit(P, eta)
        assert loc == pytest.approx(tri, rel=1e-9)
        btri = boundary_exp_integral(P, aff).value
        bloc = brion_localize_limit(P, eta, boundary=True)
        assert bloc == pytest.approx(btri, rel=1e-9)


def test_blowup_closed_form_single_point():
    P = support.blowup_polytope()
    x = 0.7
    expected_int = (math.exp(-2 * x) - 2 + (1 + x) * math.exp(x)) / (x * x)
    expected_bnd = -(2 * math.exp(-2 * x) - (2 + x) * math.exp(x)) / x
    aff = AffineForm((1, 1), 0)
    for method in ("triangulation", "localization"):
        assert polytope_exp_integral(P, aff, rho=x, method=method).value == (
            pytest.approx(expected_int, rel=1e-10)
        )
    assert boundary_exp_integral(P, aff, rho=x).value == pytest.approx(
        expected_bnd, rel=1e-10
    )
    assert brion_localize_limit(P, (1, 1), scale=x, boundary=True) == pytest.approx(
        expected_bnd, rel=1e-10
    )


def test_method_validation():
    P = support.unit_square()
    with pytest.raises(ValueError):
        polytope_exp_integral(P, diag(), method="magic")
    with pytest.raises(ValueError):
        polytope_exp_integral(
            P, diag(), weight=AffineForm((1, 0), 0), method="localization"
        )


def test_integral_result_protocol():
    P = support.unit_square()
    r = polytope_exp_integral(P, diag())
    assert float(r) == r.value
    assert r.method == "triangulation"
    assert 0 <= r.estimated_abs_error < abs(r.value)
    assert "triangulation" in repr(r)


def test_cross_validate_random():
    rng = random.Random(6174)
    for _ in range(10):
        P = support.random_polytope(rng)
        grad = support.random_vector(rng, 2)
        if all(c == 0 for c in grad):
            grad = (Fraction(1), Fraction(1, 2))
        q = support.pa_from(P, (grad, support.random_fraction(rng)))
        report = cross_validate(P, q, rho=rng.choice([1.0, 0.5, -0.8]))
        assert report.passed
        assert report.rel_gap < 1e-9
        assert report.interior_triangulation == pytest.approx(
            report.interior_localization, rel=1e-9
        )
        assert report.boundary_triangulation == pytest.approx(
            report.boundary_localization, rel=1e-9
        )


def _directions(P):
    """Directions of P.dim coordinates: small rationals, the coordinate
    axes, and the facet normals, whose pairings with the edges of their
    facets are exact zeros."""
    axes = [tuple(int(i == j) for j in range(P.dim)) for i in range(P.dim)]
    small = st.tuples(*[st.integers(-8, 8).map(lambda k: Fraction(k, 4))] * P.dim)
    return small | st.sampled_from(axes + [f.normal for f in P.facets])


@settings(max_examples=150, deadline=None)
@given(support.exact_polytopes(), st.data())
def test_boundary_localization_matches_triangulation(P, data):
    """Boundary localization, the vertex formula summed over the facet
    charts, agrees with the triangulation route in one, two and three
    dimensions, with exact-zero facet directions among the draws; so does
    the boundary comparison of cross_validate."""
    eta = data.draw(_directions(P), label="eta")
    x = data.draw(st.sampled_from([1.0, 0.5, -0.8, 2.0]), label="scale")
    const = data.draw(st.integers(-4, 4).map(lambda k: Fraction(k, 4)), label="const")
    want = boundary_exp_integral(P, AffineForm(eta, 0), rho=x).value
    if any(c != 0 for c in eta):
        got = brion_localize_limit(P, eta, scale=x, boundary=True)
        assert got == pytest.approx(want, rel=1e-9)
    report = cross_validate(P, AffineForm(eta, const), rho=x)
    assert report.boundary_localization == pytest.approx(
        report.boundary_triangulation, rel=1e-9
    )


@settings(max_examples=150, deadline=None)
@given(support.exact_polytopes(), st.data())
def test_localization_matches_triangulation(P, data):
    """Localization, with exact coefficients for generic, zero and
    near-zero pairings alike, agrees with the triangulation route to
    rel 1e-12 in every dimension, inside and on the boundary."""
    eta = data.draw(_directions(P), label="eta")
    assume(any(c != 0 for c in eta))
    x = data.draw(st.sampled_from([1.0, 0.5, -0.8, 2.0]), label="scale")
    aff = AffineForm(eta, 0)
    got = brion_localize_limit(P, eta, scale=x)
    assert got == pytest.approx(polytope_exp_integral(P, aff, rho=x).value, rel=1e-12)
    got = brion_localize_limit(P, eta, scale=x, boundary=True)
    assert got == pytest.approx(boundary_exp_integral(P, aff, rho=x).value, rel=1e-12)


def test_cross_validate_nongeneric_direction():
    # Vertical edge pairs to zero with eta = (1, 0); the auto route must
    # fall back to the Laurent-limit localization rather than raise.
    P = support.unit_square()
    q = support.pa_from(P, ((1, 0), 0))
    report = cross_validate(P, q, rho=1.0)
    assert report.passed
    assert report.interior_triangulation == pytest.approx(E - 1, rel=1e-12)


@pytest.mark.parametrize(
    "vertices, eta, const, exact",
    [
        ([(1000,), (1001,)], (1,), -1000, E - 1),
        ([(1000, 1000), (1001, 1000), (1000, 1001)], (1, 1), -2000, 1.0),
        # (1, 0) pairs to zero with the vertical edges: the Laurent branch
        ([(1000, 1000), (1001, 1000), (1001, 1001), (1000, 1001)], (1, 0), -1000, E - 1),
    ],
)
def test_localization_far_from_origin(vertices, eta, const, exact):
    # With the exponent constant taken at the origin, e^(rho q(0)) underflowed
    # to 0 and the vertex sum overflowed to inf: 0 * inf gave nan.
    P = build_polytope(vertices)
    q = AffineForm(eta, const)
    got = polytope_exp_integral(P, q, method="localization").value
    assert got == pytest.approx(exact, rel=1e-12)
    report = cross_validate(P, q)
    assert report.passed
    assert report.interior_localization == got


@pytest.mark.parametrize("N", [10**3, 10**6])
def test_laurent_limit_far_from_origin_keeps_its_digits(N):
    """On the unit square at (N, N), q = x - N pairs to zero with the
    vertical edges.  With the auxiliary pairings <v, zeta> of order N the
    cancelling series lost digits with N (rel error 4.9e-13 at N = 10^3,
    3.5e-10 at 10^6); relative to the first vertex they stay of order 1."""
    P = build_polytope([(N, N), (N + 1, N), (N + 1, N + 1), (N, N + 1)])
    got = polytope_exp_integral(P, AffineForm((1, 0), -N), method="localization")
    assert got.value == pytest.approx(E - 1, rel=1e-14, abs=0)


@pytest.mark.parametrize("rho", [1e-9, 1e-6, 1e-30])
def test_cross_validate_at_small_rho(rho):
    """On P5 with max(x, y, -x - y - 1/3) the vertex terms are of order
    rho^-2 and cancel down to the integral, about 2.875: the float vertex
    sum lost every digit at rho = 1e-9 (rel gap 1.0) and most at 1e-6
    (2.8e-4).  With exact coefficients the routes agree."""
    P = support.readme_pentagon()
    q = support.pa_from(P, ((1, 0), 0), ((0, 1), 0), ((-1, -1), Fraction(-1, 3)))
    assert cross_validate(P, q, rho=rho).rel_gap <= 1e-12


def test_near_singular_direction_on_the_cube_boundary():
    """(1, 2, 10^-9) pairs to 10^-9 with the cube's vertical edges, which
    raised NearSingularDirection; the boundary integral is
    sum_i (1 + e^(eta_i)) prod_(j != i) (e^(eta_j) - 1) / eta_j.  (The
    unit square case is in test_cli.)"""
    eta = (1, 2, 1e-9)
    sides = [math.expm1(c) / c for c in eta]
    want = sum(
        (1 + math.exp(c)) * math.prod(sides[:i] + sides[i + 1:]) for i, c in enumerate(eta)
    )
    P = build_polytope(support.UNIT_CUBE)
    got = brion_localize_limit(P, (1, 2, Fraction(1, 10**9)), boundary=True)
    assert got == pytest.approx(want, rel=1e-14)


def _assert_calls_equal_fresh(P, funcs, exponents):
    n = float(P.dim)
    gear = ExpIntegrator(P, funcs)
    for k, e in enumerate(exponents):
        factor_lists = [
            (),
            [(0.0, (1.0, 0.0))],
            [(n, e)],
            [(n + 1.0, e), (0.0, (0.0, 1.0))],
            [(0.5, (0.0, 1.0)), (0.0, (1.0, 0.0)), (-1.0, e)],
        ]
        for kind in ("interior", "boundary"):
            fresh = [
                getattr(ExpIntegrator(P, funcs), kind)(e, [factors])[0]
                for factors in factor_lists
            ]
            # single-list calls, in an order that moves with the exponent
            order = list(range(5))
            for j in order[k:] + order[:k]:
                got = getattr(gear, kind)(e, [factor_lists[j]])
                assert got == [fresh[j]], (P.dim, e, factor_lists[j], kind)
            # one call with every list, in every rotation of the list order
            for r in range(5):
                got = getattr(gear, kind)(e, factor_lists[r:] + factor_lists[:r])
                assert got == fresh[r:] + fresh[:r], (P.dim, e, r, kind)
                # the magnitude sums |contributions|, so it bounds the value
                assert all(m >= abs(v) for (v, m) in got), (P.dim, e, kind)
            assert getattr(gear, kind)(e, [(), ()]) == [fresh[0], fresh[0]]
            assert getattr(gear, kind)(e, []) == []


def _integrator_cases():
    """(P, funcs) on a segment, the README pentagon (with affine and with
    three-piece data) and the unit cube, and exponents that repeat, change,
    and change only in the sign of a zero."""
    pent = support.readme_pentagon()
    kink = support.pa_from(
        pent, ((0, 0), 0), ((1, 1), 0), ((2, -1), Fraction(1, 2))
    )
    assert len(kink.cells()) == 3
    cases = [
        (
            support.unit_segment(),
            [AffineForm((1,), 0), AffineForm((-2,), Fraction(1, 3))],
        ),
        (pent, [AffineForm((-1, 0), 0), AffineForm((0, -1), 0)]),
        (pent, [kink, AffineForm((1, -1), 0)]),
        (
            build_polytope(support.UNIT_CUBE),
            [AffineForm((1, 2, -1), 0), AffineForm((0, 1, 1), Fraction(1, 2))],
        ),
    ]
    exponents = [
        (0.7, -0.3),
        (0.7, -0.3),
        (-1.1, 0.4),
        (0.7, -0.3),
        (0.0, -0.3),
        (-0.0, -0.3),
        (0.0, -0.3),
    ]
    return cases, exponents


def test_memoized_integrator_equals_fresh():
    """Interior and boundary calls at a repeated exponent share divided
    differences, and one call with several factor lists makes one pass over
    the simplices.  Every result must equal a fresh integrator's single-list
    call bit for bit, whatever the factors and their order, and after a
    change of exponent (including one that only flips the sign of a
    zero)."""
    cases, exponents = _integrator_cases()
    for P, funcs in cases:
        _assert_calls_equal_fresh(P, funcs, exponents)

    coefficient = st.integers(-8, 8).map(lambda k: Fraction(k, 4))

    @settings(max_examples=8, deadline=None)
    @given(support.exact_polytopes(), st.data())
    def exact_inputs(P, data):
        forms = [
            AffineForm(
                tuple(data.draw(coefficient) for _ in range(P.dim)),
                data.draw(coefficient),
            )
            for _ in range(2)
        ]
        _assert_calls_equal_fresh(P, forms, exponents[1:3])

    exact_inputs()


def test_integrator_calls_leave_their_records_unchanged():
    """The compiled record groups are the only state an integrator keeps:
    interleaved interior and boundary calls, with factor lists of 0-3
    factors, at exponents that repeat, change and change only in the sign
    of a zero, leave them equal to a copy taken after the first calls."""
    cases, exponents = _integrator_cases()
    for P, funcs in cases:
        n = float(P.dim)
        gear = ExpIntegrator(P, funcs)
        first = exponents[0]
        gear.interior(first, [[(n, first)]])
        gear.boundary(first, [[(n, first)]])
        interior, facets = copy.deepcopy((gear._interior, gear._facets))
        for k, e in enumerate(exponents):
            factor_lists = [
                (),
                [(0.0, (1.0, 0.0))],
                [(n + 1.0, e), (0.0, (0.0, 1.0))],
                [(0.5, (0.0, 1.0)), (0.0, (1.0, 0.0)), (-1.0, e)],
            ]
            kinds = ("interior", "boundary")[:: 1 if k % 2 else -1]
            for kind in kinds:
                getattr(gear, kind)(e, factor_lists)
                getattr(gear, kind)(e, [()])
        assert gear._interior == interior, P.dim
        assert gear._facets == facets, P.dim


def _pair_bits(pairs):
    """The exact bits of [(value, magnitude)] results."""
    return [struct.pack("<2d", value, mag) for (value, mag) in pairs]


FLOAT_COEFFICIENTS = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 2.0]) | st.floats(
    -3.0, 3.0
)


@settings(max_examples=100, deadline=None)
@given(support.exact_polytopes(), st.data())
def test_flat_integrator_bit_identical_to_per_facet_children(P, data):
    """The flat record groups give the bits of the integrator that made a
    child integrator per facet (oracles.ExpIntegratorPerFacet): on 1-D, 2-D
    and 3-D polytopes, for 1-3 PA functions, factor lists of 0-2 factors,
    and calls that come back to an exponent the memos hold."""
    count = data.draw(st.integers(1, 3), label="functions")
    coefficient = st.integers(-8, 8).map(lambda k: Fraction(k, 4))
    funcs = []
    for _ in range(count):
        pieces = [
            AffineForm(
                tuple(data.draw(coefficient) for _ in range(P.dim)),
                data.draw(coefficient),
            )
            for _ in range(data.draw(st.integers(1, 2), label="pieces"))
        ]
        funcs.append(make_pa(pieces, P))
    combo = st.tuples(*[FLOAT_COEFFICIENTS] * count)
    factor = st.tuples(FLOAT_COEFFICIENTS, combo)
    factor_lists = st.lists(st.lists(factor, max_size=2), min_size=1, max_size=3)
    exponents = data.draw(st.lists(combo, min_size=1, max_size=2), label="exponents")
    flat = ExpIntegrator(P, funcs)
    children = oracles.ExpIntegratorPerFacet(P, funcs)
    for _ in range(4):
        e = data.draw(st.sampled_from(exponents), label="exponent")
        lists = data.draw(factor_lists, label="factor lists")
        for kind in ("interior", "boundary"):
            got = getattr(flat, kind)(e, lists)
            want = getattr(children, kind)(e, lists)
            assert _pair_bits(got) == _pair_bits(want), (kind, e, lists)


def _first_outcome(call):
    """The bits of the first (value, magnitude) pair call() returns, or the
    message of the InputError it raises."""
    try:
        return _pair_bits(call()[:1])
    except InputError as err:
        return str(err)


@settings(max_examples=100, deadline=None)
@given(support.exact_polytopes(), st.data())
def test_unweighted_scalar_loop_bit_identical_to_general_loop(P, data):
    """A call with one empty factor list takes _accumulate's scalar loop;
    the same integral next to a second factor list takes the general loop.
    Both give the same bits, or the same InputError.  One function cuts a
    sliver of volume below the float range off the vertex of largest first
    coordinate, so _check_tiny runs on both paths, and a large constant in
    another makes that sliver's part of the integral count at some
    exponents."""
    zero = (0,) * P.dim
    first = (1,) + zero[1:]
    top = max(v[0] for v in P.vertices)
    sliver = make_pa(
        [AffineForm(zero, 0), AffineForm(first, Fraction(1, 10**400) - top)], P
    )
    coefficient = st.integers(-8, 8).map(lambda k: Fraction(k, 4))
    form = AffineForm(
        tuple(data.draw(coefficient) for _ in range(P.dim)),
        data.draw(st.sampled_from([0, Fraction(-1, 3), 400])),
    )
    gear = ExpIntegrator(P, [sliver, form])
    combo = st.tuples(FLOAT_COEFFICIENTS, FLOAT_COEFFICIENTS)
    ones = (1.0, (0.0, 0.0))
    for e in data.draw(st.lists(combo, min_size=1, max_size=3), label="exponents"):
        for kind in ("interior", "boundary"):
            call = getattr(gear, kind)
            scalar = _first_outcome(lambda: call(e, [[]]))
            general = _first_outcome(lambda: call(e, [[], [ones]]))
            assert scalar == general, (kind, e)


@st.composite
def segment_boundary_cases(draw):
    """A segment [lo, hi], one to three functions of one or two pieces
    (gradient, constant) on it, at most two factors and an exponent."""
    lo, hi = sorted(draw(st.lists(support.quarter, min_size=2, max_size=2, unique=True)))
    count = draw(st.integers(1, 3))
    coefficient = st.integers(-8, 8).map(lambda k: Fraction(k, 4))
    pieces = [
        [(draw(coefficient), draw(coefficient)) for _ in range(draw(st.integers(1, 2)))]
        for _ in range(count)
    ]
    combo = st.tuples(*[FLOAT_COEFFICIENTS] * count)
    factors = draw(st.lists(st.tuples(FLOAT_COEFFICIENTS, combo), max_size=2))
    return (lo, hi), pieces, factors, draw(combo)


@settings(max_examples=200, deadline=None)
@given(segment_boundary_cases())
@example(
    # the end-point terms -304.58 and 363.02 cancel to 58.44, and the two
    # routes differ by 8 ulps of it: half an ulp of the magnitude 667.6
    (
        (Fraction(-2), Fraction(9, 4)),
        [
            [(Fraction(-3, 2), 0), (Fraction(3, 4), Fraction(1, 4))],
            [(Fraction(3, 4), Fraction(-3, 2)), (0, Fraction(-1, 4))],
            [(Fraction(3, 2), Fraction(3, 4))],
        ],
        [(0.0, (2.0078125, 0.0, 2.8125)), (1.0, (0.0, -1.0, 0.0))],
        (2.0, -2.737050169178879, 0.0),
    )
)
def test_segment_end_point_rows_match_point_charts(case):
    """A segment's boundary reads each end point's values from a row taken
    once.  The same integral as _accumulate over the end points' POINT charts
    has the same bits for factor lists of 0 or 1 factors.  For 2 factors,
    whose confluent divided difference exp[a, a, a] = e^a/2 rounds apart
    from the product the rows make, value and magnitude are within 4 ulps
    of the magnitude: the two end-point terms round apart, and may cancel."""
    (lo, hi), pieces, factors, e = case
    P = build_polytope([(lo,), (hi,)])
    funcs = [make_pa([AffineForm((g,), c) for g, c in piece], P) for piece in pieces]
    groups = [
        ExpIntegrator._group(POINT, [pa.restrict_to_facet(i) for pa in funcs])
        for i in range(len(P.facets))
    ]
    [got] = ExpIntegrator(P, funcs).boundary(e, [factors])
    [want] = _accumulate(groups, e, [factors])
    if len(factors) < 2:
        assert _pair_bits([got]) == _pair_bits([want])
    else:
        ulps = 4 * math.ulp(max(got[1], want[1]))
        for a, b in zip(got, want):
            assert abs(a - b) <= ulps


def test_segment_boundary_evaluates_end_points_once(monkeypatch):
    """A segment's boundary takes its end-point values in Fractions on its
    first call only."""
    calls = []
    call = PiecewiseAffineConvex.__call__

    def counting(self, point):
        calls.append(point)
        return call(self, point)

    monkeypatch.setattr(PiecewiseAffineConvex, "__call__", counting)
    P = support.unit_segment()
    gear = ExpIntegrator(P, [AffineForm((1,), 0), AffineForm((-2,), Fraction(1, 3))])
    first = gear.boundary((0.5, 1.0), [[], [(1.0, (0.0, 1.0))]])
    assert len(calls) == 4
    del calls[:]
    assert gear.boundary((0.5, 1.0), [[], [(1.0, (0.0, 1.0))]]) == first
    gear.boundary((-2.0, 0.25), [[(0.0, (1.0, 1.0)), (2.0, (0.0, 1.0))]])
    assert calls == []


def test_underflowed_simplex_volume_raises_where_it_counts():
    """A simplex whose exact volume is nonzero but below the float range
    adds nothing while its part of the integral rounds to 0.0 anyway, and
    raises once that part could be a nonzero float."""
    tiny = Fraction(1, 10**200)
    P = build_polytope([(0, 0), (tiny, 0), (0, tiny)])
    assert polytope_exp_integral(P, None).value == 0.0
    assert boundary_exp_integral(P, None).value > 0.0
    steep = AffineForm((0, 0), 500)  # e^500 * 5e-401 is about 7e-184
    with pytest.raises(InputError, match="volume 5e-401 underflows"):
        polytope_exp_integral(P, steep)
    gear = ExpIntegrator(P, [steep])
    assert gear.interior((0.1,), [[]]) == [(0.0, 0.0)]
    with pytest.raises(InputError, match="underflows"):
        gear.interior((0.1,), [[(1e200, (0.0,))]])
