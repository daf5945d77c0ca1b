"""Entropy functionals: mu/sigma values against hand-derived closed
forms, shift invariance, Jensen's bound, Futaki first variations against
finite differences, Calabi energy algebra, and the extremal limit.
"""

import math
import random
import struct
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
import support
from toricmu import (
    calabi,
    entropy_curve,
    extremal_limit_check,
    futaki,
    kappa,
    mabuchi_slope,
    mu_lambda,
    mu_star,
    sigma_star,
)
from toricmu.paconvex import AffineForm, make_pa

E = math.e
TWO_PI = 2.0 * math.pi


def shifted(q, c):
    return make_pa(
        [AffineForm(p.gradient, p.constant + Fraction(c)) for p in q.pieces], q.P
    )


def kink_q(P):
    return support.pa_from(P, ((1, 1), -1), ((0, 0), 0))


def test_segment_closed_forms():
    P = support.unit_segment()
    assert mu_star(P, None) == pytest.approx(-4.0 * math.pi, rel=1e-14)
    assert sigma_star(P, None) == pytest.approx(1.0, rel=1e-14)
    t = AffineForm((1,), 0)
    for s in (0.5, 1.0, -1.0, 3.0):
        expected = -TWO_PI * s * (1 + math.exp(s)) / (math.exp(s) - 1)
        assert mu_star(P, t, rho=s) == pytest.approx(expected, rel=1e-12)
    # evenness of the segment curve
    assert mu_star(P, t, rho=1.0) == pytest.approx(mu_star(P, t, rho=-1.0), rel=1e-12)


def test_square_closed_forms():
    P = support.unit_square()
    assert mu_star(P, None) == pytest.approx(-8.0 * math.pi, rel=1e-14)
    assert sigma_star(P, None) == pytest.approx(2.0, rel=1e-14)
    q = support.pa_from(P, ((1, 1), 0))
    # A = (e-1)^2, B = 2(e^2-1), C = 2e(e-1)
    assert mu_star(P, q) == pytest.approx(
        -TWO_PI * 2 * (E * E - 1) / (E - 1) ** 2, rel=1e-13
    )
    assert sigma_star(P, q) == pytest.approx(
        2 * E / (E - 1) - 2 * math.log(E - 1), rel=1e-13
    )


def test_kinked_closed_forms():
    # q = max(x+y-1, 0): A = e - 3/2, B = 2e, C = int (2+q)e^q = e.
    P = support.unit_square()
    q = kink_q(P)
    A = E - 1.5
    assert mu_star(P, q) == pytest.approx(-TWO_PI * 2 * E / A, rel=1e-13)
    assert sigma_star(P, q) == pytest.approx(E / A - math.log(A), rel=1e-13)
    lam = -0.75
    assert mu_lambda(P, q, lam) == pytest.approx(
        mu_star(P, q) + lam * sigma_star(P, q), rel=1e-13
    )


def test_shift_invariance():
    rng = random.Random(271828)
    for _ in range(15):
        P = support.random_polytope(rng)
        q = support.random_pa(rng, P)
        c = rng.choice([1, -1, Fraction(3, 2), Fraction(-5, 4)])
        for lam in (0.0, 1.0, -0.5):
            a = mu_lambda(P, q, lam)
            b = mu_lambda(P, shifted(q, c), lam)
            assert abs(a - b) <= 1e-12 * max(1.0, abs(a))


def test_sigma_jensen_lower_bound():
    rng = random.Random(161803)
    for _ in range(40):
        P = support.random_polytope(rng)
        q = support.random_pa(rng, P)
        bound = P.dim - math.log(float(P.volume()))
        assert sigma_star(P, q) >= bound - 1e-10


def test_futaki_zero_on_symmetric_configuration():
    P = support.unit_square()
    q0 = AffineForm((1, 0), 0)
    assert abs(futaki(P, (0, 0), q0)) <= 1e-10


def test_futaki_matches_finite_differences():
    rng = random.Random(5551)
    checked = attempts = 0
    while checked < 12 and attempts < 200:
        attempts += 1
        P = support.random_polytope(rng)
        xi = support.random_vector(rng, 2, span=1)
        lam = rng.choice([0.0, 0.5, -1.0])
        q0 = support.random_pa(rng, P, max_pieces=2)
        analytic = futaki(P, xi, q0, lam)
        if abs(analytic) < 5e-3:
            continue
        approx = support.fd_futaki(P, xi, q0, lam)
        assert analytic == pytest.approx(approx, rel=1e-6), (xi, lam)
        checked += 1
    assert checked == 12


def _bits(x):
    return struct.pack("d", x)


def _overflow_cases():
    P5 = support.readme_pentagon()
    return {
        "segment <x>": (support.unit_segment(), AffineForm((1,), 0)),
        "P5 <mu,(1,1)>": (P5, AffineForm((1, 1), 0)),
        "P5 kink": (P5, kink_q(P5)),
    }


OVERFLOW_CASES = _overflow_cases()


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(sorted(OVERFLOW_CASES)),
    st.one_of(
        st.sampled_from([0.0, 1.0, 600.0, 709.5, 710.0, 800.0, -800.0]),
        st.floats(-1000.0, 1000.0),
    ),
    st.sampled_from([0.0, -0.0, 0, Fraction(0)]),
)
@example("segment <x>", 709.5, 0.0)
@example("segment <x>", 800.0, 0.0)
@example("P5 <mu,(1,1)>", 600.0, -0.0)
def test_mu_lambda_at_zero_is_mu_star(case, rho, lam):
    """At lambda = 0 sigma is not computed, so mu_lambda is mu_star bit for
    bit, overflow range included, and non-finite exactly where mu_star is."""
    P, q = OVERFLOW_CASES[case]
    assert _bits(mu_lambda(P, q, lam, rho)) == _bits(mu_star(P, q, rho))


def test_mu_lambda_at_zero_survives_sigma_overflow():
    """On P5 along <mu,(1,1)> at rho = 600 the integral C overflows while mu
    is finite; mu_lambda at lambda = 0 is mu, not nan, in mu_lambda and in
    the entropy curve's rows."""
    P, q = OVERFLOW_CASES["P5 <mu,(1,1)>"]
    assert sigma_star(P, q, 600.0) == -math.inf
    value = mu_lambda(P, q, 0.0, 600.0)
    assert math.isfinite(value)
    assert value == mu_star(P, q, 600.0)
    [row] = entropy_curve(P, q, grid=[600.0])
    assert row.sigma == -math.inf
    assert math.isfinite(row.mu)
    assert row.mu_lambda == row.mu


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(sorted(OVERFLOW_CASES)),
    st.lists(st.floats(-800.0, 800.0), min_size=2, max_size=2),
    st.sampled_from([0.0, -0.0, -0.5]),
)
def test_futaki_matches_all_moments_oracle(case, xi, lam):
    """futaki skips C and C_d at lambda = 0 and agrees with the code that
    integrated them wherever that code's value is finite."""
    P, q0 = OVERFLOW_CASES[case]
    xi = xi[: P.dim]
    expected = oracles.futaki_all_moments(P, xi, q0, lam)
    if math.isfinite(expected):
        assert futaki(P, xi, q0, lam) == expected


def test_entropy_curve_row_algebra():
    P = support.blowup_polytope()
    q0 = AffineForm((1, 1), 0)
    report = entropy_curve(P, q0, lam=0.25, grid=(-1.0, 1.0, 9))
    assert len(report) == 9
    params = [r.parameter for r in report.rows]
    assert params[0] == pytest.approx(-1.0) and params[-1] == pytest.approx(1.0)
    for r in report.rows:
        assert r.mu == pytest.approx(-TWO_PI * r.numerator / r.denominator, rel=1e-12)
        assert r.scaled == pytest.approx(-r.mu / TWO_PI, rel=1e-12)
        assert r.mu_lambda == pytest.approx(r.mu + 0.25 * r.sigma, rel=1e-12)
    mid = report.rows[4]
    assert mid.parameter == pytest.approx(0.0)
    assert mid.mu == pytest.approx(-4.0 * math.pi, rel=1e-12)
    best = report.best()
    assert best.mu_lambda == max(r.mu_lambda for r in report.rows)


def test_entropy_curve_with_xi_offset():
    P = support.unit_square()
    q0 = AffineForm((0, 1), 0)
    xi = (Fraction(1), Fraction(0))
    report = entropy_curve(P, q0, xi=xi, grid=(0.0, 1.0, 3))
    qxi = AffineForm((-1, 0), 0)
    assert report.rows[0].mu == pytest.approx(mu_star(P, qxi), rel=1e-12)
    combined = AffineForm((-1, 1), 0)
    assert report.rows[-1].mu == pytest.approx(mu_star(P, combined), rel=1e-12)


@pytest.mark.parametrize(
    "grid",
    [
        (0.0, 1.0, 0),
        (0.0, 1.0, -3),
        (0.0, 1.0, 2.5),
        (0.0, 1.0, "many"),
        (math.nan, 1.0, 3),
        (0.0, math.inf, 3),
    ],
)
def test_entropy_curve_rejects_bad_grid(grid):
    with pytest.raises(ValueError):
        entropy_curve(support.unit_segment(), AffineForm((1,), 0), grid=grid)


def test_entropy_curve_grid_counts():
    P, q0 = support.unit_segment(), AffineForm((1,), 0)
    assert [r.parameter for r in entropy_curve(P, q0, grid=(0.5, 1.0, 1)).rows] == [0.5]
    # an integral float count is a count; explicit sequences pass through
    assert len(entropy_curve(P, q0, grid=(0.0, 1.0, 4.0))) == 4
    assert [r.parameter for r in entropy_curve(P, q0, grid=[0.0, 0.5]).rows] == [0.0, 0.5]
    # only a 3-tuple is a range: a 3-element list is three points
    report = entropy_curve(P, q0, grid=[0.0, 0.5, 1.0])
    assert [r.parameter for r in report.rows] == [0.0, 0.5, 1.0]
    assert report.rows[2].mu == entropy_curve(P, q0, grid=(0.0, 1.0, 3)).rows[2].mu


def test_kappa_values():
    assert kappa(support.unit_square()) == -4
    assert kappa(support.blowup_polytope()) == -2
    assert kappa(support.donaldson_polytope()) == Fraction(-66, 71)


def test_mabuchi_slope_values_and_shift_invariance():
    P = support.unit_square()
    assert mabuchi_slope(P, kink_q(P)) == Fraction(1, 3)
    B = support.blowup_polytope()
    assert mabuchi_slope(B, AffineForm((1, 1), 0)) == Fraction(-2, 3)
    rng = random.Random(42)
    for _ in range(10):
        P = support.random_polytope(rng)
        q = support.random_pa(rng, P)
        assert mabuchi_slope(P, shifted(q, Fraction(7, 3))) == mabuchi_slope(P, q)


def test_calabi_exact_blowup_ray():
    # For q = x + y on the pentagon: M = -2/3, variance = 409/252.
    B = support.blowup_polytope()
    rep = calabi(B, AffineForm((1, 1), 0))
    assert rep.m_na == pytest.approx(-2.0 / 3.0, rel=1e-14)
    assert rep.variance == pytest.approx(409.0 / 252.0, rel=1e-14)
    assert rep.rho_max == pytest.approx(336.0 * math.pi / 409.0, rel=1e-13)
    assert rep.sup_value == pytest.approx(64.0 * math.pi**2 / 409.0, rel=1e-13)
    expected_c = (-TWO_PI * (-2.0 / 3.0) - (409.0 / 252.0) / 2.0) / 3.5
    assert rep.c_na == pytest.approx(expected_c, rel=1e-13)


def test_calabi_positive_slope_clamps():
    P = support.unit_square()
    rep = calabi(P, kink_q(P))
    assert rep.m_na == pytest.approx(1.0 / 3.0)
    assert rep.rho_max == 0.0 and rep.sup_value == 0.0
    assert rep.c_na == pytest.approx(-TWO_PI / 3.0 - 1.0 / 36.0, rel=1e-13)


def test_calabi_sup_dominates_ray():
    B = support.blowup_polytope()
    q0 = make_pa([AffineForm((1, 1), 0)], B)
    rep = calabi(B, q0)
    vol = float(B.volume())

    def quad(rho):
        return (-TWO_PI * rep.m_na * rho - rep.variance * rho * rho / 2.0) / vol

    for rho in (Fraction(1, 4), Fraction(1), Fraction(2), Fraction(5)):
        ray_val = calabi(B, rho * q0).c_na
        assert ray_val == pytest.approx(quad(float(rho)), rel=1e-12)
        assert quad(float(rho)) <= rep.sup_value + 1e-12
    assert quad(rep.rho_max) == pytest.approx(rep.sup_value, rel=1e-12)


def test_extremal_limit_kinked():
    P = support.unit_square()
    q = kink_q(P)
    lhs, rhs, gap = extremal_limit_check(P, q, 1e-3)
    assert rhs == pytest.approx(calabi(P, q).c_na, rel=1e-14)
    assert gap <= 0.01 * abs(rhs)
    _, _, gap_half = extremal_limit_check(P, q, 5e-4)
    assert gap_half / gap == pytest.approx(0.5, abs=0.05)


def test_sigma_second_derivative_is_normalized_variance():
    rng = random.Random(9000)
    for _ in range(5):
        P = support.random_polytope(rng)
        q = support.random_pa(rng, P, max_pieces=2)
        target = float(calabi(P, q).variance) / float(P.volume())

        def sig(rho):
            return sigma_star(P, q, rho=rho) if rho != 0 else (
                P.dim - math.log(float(P.volume()))
            )

        approx = oracles.central_second_derivative(sig, h=0.1)
        assert approx == pytest.approx(target, rel=5e-3)
