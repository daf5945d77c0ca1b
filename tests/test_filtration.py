"""Monomial filtrations: graded section counts, exact spectral measures,
superadditivity, and the two characteristic-entropy routes."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import support
from toricmu import (
    InputError,
    MonomialFiltration,
    NonConvergent,
    build_polytope,
    corner_filtration,
    corner_flat_filtration,
    char_mu_estimate,
    char_mu_exact,
    check_superadditive,
    make_pa,
    mu_star,
    sections,
    spectral_measure,
)
from toricmu.cli import square_qn_potential
from toricmu.filtration import unit_segment

E = math.e


def test_sections_counts():
    assert sections(support.unit_square(), 2).dimension == 9
    assert sections(unit_segment(), 3).dimension == 4
    assert sections(support.blowup_polytope(), 2).dimension == 22
    with pytest.raises(ValueError):
        sections(unit_segment(), 0)
    for bad in (2.7, Fraction(5, 2), -1):
        with pytest.raises(ValueError):
            sections(support.unit_square(), bad)
        with pytest.raises(ValueError):
            spectral_measure(corner_filtration(), bad)


def test_sections_iterates_lattice_points():
    gs = sections(unit_segment(), 4)
    assert sorted(gs) == [(0,), (1,), (2,), (3,), (4,)]
    assert len(gs) == 5


def test_corner_spectral_measures_exact():
    F = corner_filtration()
    for m in (1, 2, 7, 25):
        nu = spectral_measure(F, m)
        assert nu.atoms == (
            (Fraction(-1), Fraction(1, m + 1)),
            (Fraction(0), Fraction(m, m + 1)),
        )
        assert nu.total_mass() == 1
        assert nu.cdf(Fraction(-1, 2)) == Fraction(m, m + 1)
        assert nu.cdf(-1) == 1
        assert nu.cdf(Fraction(1, 2)) == 0
        assert nu.exp_integral(1.0) == pytest.approx((E + m) / (m + 1), rel=1e-14)


def test_volume_normalization_mass():
    F = corner_filtration()
    for m in (3, 10, 100):
        nu = spectral_measure(F, m, normalization="volume")
        # N_m / m^n = (m+1)/m -> vol(P) = 1
        assert nu.total_mass() == Fraction(m + 1, m)
    with pytest.raises(ValueError):
        spectral_measure(F, 5, normalization="lebesgue")
    weighed = []
    counted = MonomialFiltration(support.unit_square(), lambda p, m: weighed.append(p) or 0)
    with pytest.raises(InputError):
        spectral_measure(counted, 200, normalization="bogus")
    assert weighed == []  # checked before any lattice point is enumerated


def test_spectral_measure_arguments_must_be_finite():
    nu = spectral_measure(corner_filtration(), 3)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(InputError):
            nu.cdf(bad)
        with pytest.raises(InputError):
            nu.exp_integral(bad)
    assert nu.cdf(10 ** 400) == 0  # an exact tau needs no float
    assert nu.cdf(-(10 ** 400)) == 1
    assert nu.cdf("-1/2") == Fraction(3, 4)


def test_flat_family_spectral_measures_exact():
    for d, m in ((2, 2), (2, 16), (5, 20), (20, 40)):
        F = corner_flat_filtration(d)
        nu = spectral_measure(F, m)
        expected = [(Fraction(-i * d, m), Fraction(1, m + 1)) for i in range(1, m // d + 1)]
        expected.append((Fraction(0), Fraction(m + 1 - m // d, m + 1)))
        assert nu.atoms == tuple(sorted(expected))


def test_flat_family_potential():
    F = corner_flat_filtration(3)
    q = F.pa
    assert q((0,)) == 0
    assert q((Fraction(2, 3),)) == 0
    assert q((1,)) == 1
    assert q((Fraction(5, 6),)) == Fraction(1, 2)
    for bad in (0, 2.7, "two"):
        with pytest.raises(ValueError):
            corner_flat_filtration(bad)


def test_from_pa_weights_floor():
    F = corner_flat_filtration(2)
    # q_2 = max(0, 2t - 1); weights are floor(-m q(a/m))
    assert F.weights(4) == [0, 0, 0, -2, -4]
    assert F.weights(5) == [0, 0, 0, -1, -3, -5]


def test_weights_take_the_validated_degree():
    F = MonomialFiltration.from_pa(square_qn_potential(2))
    assert F.weights(2.0) == F.weights(2)
    with pytest.raises(InputError):
        F.weights(2.5)


_MIXED = st.builds(Fraction, st.integers(-30, 30), st.sampled_from([1, 2, 3, 4, 5, 7, 12]))
_POLYTOPES = {
    1: build_polytope([(-1,), (2,)]),
    2: build_polytope([(-1, -1), (2, 0), (0, 1)]),
    3: build_polytope([(-1, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]),
}


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_integer_weights_equal_fraction_weights(data):
    """from_pa's integer weights equal the Fraction closure they replaced
    (oracles.pa_weight_fn_fractions) on lattice points of every degree, on
    Fraction points, and through the spectral measure."""
    dim = data.draw(st.sampled_from(sorted(_POLYTOPES)))
    P = _POLYTOPES[dim]
    point = st.tuples(*[_MIXED] * dim)
    pieces = data.draw(st.lists(st.tuples(point, _MIXED), min_size=1, max_size=4))
    q = make_pa(pieces, P)
    m = data.draw(st.integers(1, 12))
    F = MonomialFiltration.from_pa(q)
    oracle = oracles.pa_weight_fn_fractions(q)
    assert F.weights(m) == [oracle(p, m) for p in sections(P, m)]
    for p in data.draw(st.lists(point, max_size=8)):
        assert F.weight_fn(p, m) == oracle(p, m)
    want = spectral_measure(MonomialFiltration(P, oracle), m)
    assert spectral_measure(F, m).atoms == want.atoms


def test_superadditivity():
    assert check_superadditive(corner_filtration(), 2, 3)
    assert check_superadditive(corner_flat_filtration(2), 3, 4)
    assert check_superadditive(corner_flat_filtration(5), 2, 5)
    square_q = support.pa_from(support.unit_square(), ((1, 1), -1), ((0, 0), 0))
    assert check_superadditive(MonomialFiltration.from_pa(square_q), 2, 3)


def test_superadditivity_detects_violation():
    P = unit_segment()

    def bad(point, m):
        return m if point == (1,) else 0  # w(2, 2m) = 0 < w(1,m) + w(1,m)

    F = MonomialFiltration(P, bad)
    assert not check_superadditive(F, 1, 1)


def test_char_mu_exact_flat_family():
    for d in (2, 5, 20):
        F = corner_flat_filtration(d)
        expected = -2 * math.pi * (1 + E) * d / (d - 2 + E)
        assert char_mu_exact(F) == pytest.approx(expected, rel=1e-12)
    with pytest.raises(ValueError):
        char_mu_exact(corner_filtration())


def test_char_mu_exact_trivial_is_origin_entropy():
    P = unit_segment()
    F = MonomialFiltration.from_pa(support.pa_from(P, ((0,), 0)))
    assert char_mu_exact(F) == pytest.approx(mu_star(P, None), rel=1e-14)


def test_char_mu_estimate_corner():
    F = corner_filtration()
    target = -4 * math.pi * (E - 1)
    got = char_mu_estimate(F, [10, 20, 50, 100, 200, 500, 1000])
    assert got == pytest.approx(target, rel=1e-6)


def test_char_mu_estimate_uses_given_limit_moment():
    F = corner_filtration()
    target = -4 * math.pi * (E - 1)
    got = char_mu_estimate(F, [50, 100, 200, 400], nu_infinity=1.0)
    assert got == pytest.approx(target, rel=1e-4)
    # limit measure given as a SpectralMeasure: nu_inf = delta_0
    nu_inf = spectral_measure(
        MonomialFiltration(F.P, lambda p, m: 0, limit_pa=None), 5
    )
    got2 = char_mu_estimate(F, [50, 100, 200, 400], nu_infinity=nu_inf)
    assert got2 == pytest.approx(target, rel=1e-4)


def test_char_mu_estimate_without_limit_uses_largest_degree():
    P = unit_segment()

    def weight_fn(point, m):
        return -m if point == (0,) else 0

    F = MonomialFiltration(P, weight_fn)  # no pa, no limit_pa
    # the largest degree is spent estimating the limit moment, so it must
    # dwarf the extrapolation degrees for the bias to stay small
    got = char_mu_estimate(F, [20, 50, 100, 100000])
    assert got == pytest.approx(-4 * math.pi * (E - 1), rel=0.01)


def test_char_mu_estimate_validation():
    F = corner_filtration()
    with pytest.raises(ValueError):
        char_mu_estimate(F, [10, 20])
    with pytest.raises(ValueError):
        char_mu_estimate(F, [10, 20.5, 40])

    def noisy(point, m):
        return -m if m % 2 else 0

    N = MonomialFiltration(unit_segment(), noisy, limit_pa=None)
    with pytest.raises(NonConvergent):
        char_mu_estimate(N, [11, 12, 13, 14, 15], nu_infinity=1.0)


def test_flat_limit_approaches_segment_value():
    # d -> infinity: -2 pi (1+e) d / (d-2+e) -> -2 pi (1+e), within 1% at d=200
    F = corner_flat_filtration(200)
    limit = -2 * math.pi * (1 + E)
    assert abs(char_mu_exact(F) - limit) <= 0.01 * abs(limit)
