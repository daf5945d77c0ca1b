"""Entropy functionals of polarized toric data.

For a piecewise affine convex q on the moment polytope P (dimension n) the
two base functionals are

    mu(q)    = -2 pi * (int_boundary e^q dsigma) / (int_P e^q dmu)
    sigma(q) = (int_P (n + q) e^q dmu) / (int_P e^q dmu) - log int_P e^q dmu

combined as mu_lambda = mu + lambda * sigma.  The vector fields enter
through the affine potentials q_xi(mu) = <mu, -xi>.  This module evaluates
the functionals, their first variation (the Futaki pairing), parameter
sweeps along rays, the Mabuchi slope / Calabi energy package, and the small
parameter limit tying the two together.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import log, pi

from .integrate import ExpIntegrator
from .paconvex import AffineForm, _boundary_moments, _pa_moments, _variance, as_pa
from .polytope import InputError, _coords, _divisor, _finite, _fit, _iterable, _positive_int

TWO_PI = 2.0 * pi


def _xi_form(P, xi) -> AffineForm:
    """q_xi as an exact affine form <mu, -xi>."""
    return AffineForm(tuple(-c for c in _fit(_coords(xi, "xi"), P.dim, "xi")), 0)


def _moments(gear, n, combo, directions=(), base=True, sigma=True, dsigma=True):
    """Moments of e^combo on gear's polytope (dimension n) from one interior
    and one boundary call.

    Returns one triple per request: (A, B, C) = (int e^q, int_boundary e^q,
    int (n + q) e^q) when base is true, then (A_d, B_d, C_d) for each
    direction factor d, the same integrals with one more factor d, where
    C_d = int (n + 1 + q) d e^q is the variation of C.  C is None unless
    sigma (base) or dsigma (directions) asks for it.  C and C_d are the
    costliest integrals here and only sigma reads them, so callers forming
    mu + lam * sigma ask for them only when lam != 0 (see _mu_lambda).
    """
    heads = ([([], sigma)] if base else []) + [([d], dsigma) for d in directions]
    lists = []
    for head, want in heads:
        lists += [head, [(n + len(head), combo)] + head] if want else [head]
    inner = iter(gear.interior(combo, lists))
    outer = gear.boundary(combo, [head for head, _ in heads])
    return [
        (next(inner)[0], B, next(inner)[0] if want else None)
        for (B, _), (_, want) in zip(outer, heads)
    ]


def _entropy(moments, variations=()):
    """(mu, sigma, [(dmu, dsigma)]) from base moments (A, B, C) and, per
    direction, moments (A_d, B_d, C_d) as _moments returns them.

    A None C gives a None sigma or dsigma.  The first variation of mu_lambda
    in direction d is dmu + lambda * dsigma.
    """
    A, B, C = moments
    if A == 0.0:  # e^q underflowed on all of P: nan where division would raise
        A = float("nan")
    mu = -TWO_PI * B / A
    sigma = None if C is None else C / A - log(A)
    firsts = []
    for (Ad, Bd, Cd) in variations:
        dmu = -TWO_PI * (Bd * A - B * Ad) / (A * A)
        dsigma = None if Cd is None else (Cd * A - C * Ad) / (A * A) - Ad / A
        firsts.append((dmu, dsigma))
    return mu, sigma, firsts


def _mu_lambda(mu, sigma, lam):
    """mu + lam * sigma, and mu itself at lam == 0, where sigma may be None
    (not computed) or non-finite.

    At lam == 0 the sum would be mu bit for bit wherever sigma is finite;
    returning mu also keeps it where only C overflows.
    """
    return mu if lam == 0.0 else mu + lam * sigma


def _at_rho(P, q, rho, sigma=True):
    """(mu, sigma) of rho * q; sigma is None unless asked for."""
    gear = ExpIntegrator(P, [as_pa(q, P)])
    (moments,) = _moments(gear, float(P.dim), (_finite(rho, "rho"),), sigma=sigma)
    return _entropy(moments)[:2]


def mu_star(P, q, rho=1.0) -> float:
    """mu of rho * q."""
    return _at_rho(P, q, rho, sigma=False)[0]


def sigma_star(P, q, rho=1.0) -> float:
    """sigma of rho * q."""
    return _at_rho(P, q, rho)[1]


def mu_lambda(P, q, lam, rho=1.0) -> float:
    """mu + lambda * sigma of rho * q; sigma (the integral C) is computed
    only for lambda != 0, so mu_lambda(P, q, 0, rho) is mu_star(P, q, rho)."""
    lam = _finite(lam, "lam")
    mu, sigma = _at_rho(P, q, rho, sigma=lam != 0.0)
    return _mu_lambda(mu, sigma, lam)


def futaki(P, xi, q0, lam=0.0) -> float:
    """minus the first variation of mu_lambda at q_xi in the direction q0.

    Vanishes for every q0 exactly when xi is a critical point of
    xi -> mu_lambda(q_xi).  The sigma moments C and C_d are computed only
    for lam != 0.
    """
    lam = _finite(lam, "lam")
    qxi = _xi_form(P, xi)
    gear = ExpIntegrator(P, [qxi, as_pa(q0, P)])
    e = (1.0, 0.0)
    want = lam != 0.0
    base, along = _moments(
        gear, float(P.dim), e, [(0.0, (0.0, 1.0))], sigma=want, dsigma=want
    )
    _, _, [(dmu, dsigma)] = _entropy(base, [along])
    return -_mu_lambda(dmu, dsigma, lam)


EntropyPoint = namedtuple(
    "EntropyPoint",
    ["parameter", "numerator", "denominator", "mu", "sigma", "mu_lambda", "scaled"],
)


class EntropyReport:
    """Sweep of mu/sigma/mu_lambda along q_xi + rho * q0 for rho in a grid."""

    def __init__(self, rows, lam, xi):
        self.rows = list(rows)
        self.lam = lam
        self.xi = tuple(xi)

    def best(self):
        return max(self.rows, key=lambda r: r.mu_lambda)

    def __iter__(self):
        return iter(self.rows)

    def __len__(self):
        return len(self.rows)


def _parse_grid(grid):
    """A 3-tuple is (start, end, count); any other sequence but a string lists
    the grid points, at least one.  Every value must be finite, and a count an
    integer >= 1."""
    if isinstance(grid, tuple) and len(grid) == 3:
        start, end = _finite(grid[0], "grid start"), _finite(grid[1], "grid end")
        count = _positive_int(grid[2], "grid count")
        if count == 1:
            return [start]
        step = (end - start) / (count - 1)
        return [start + step * i for i in range(count)]
    points = [_finite(g, "grid point %d" % i) for i, g in enumerate(_iterable(grid, "grid"))]
    if not points:
        raise InputError("the grid has no points")
    return points


def entropy_curve(P, q0, xi=None, lam=0.0, grid=(0.0, 5.0, 201)) -> EntropyReport:
    """Evaluate mu, sigma, mu_lambda of q_xi + rho * q0 over a rho grid.

    grid is a 3-tuple (start, end, count) or any other nonempty sequence of
    grid points, such as a list ([0.0, 0.5, 1.0] is three points), each
    finite (else InputError).  numerator and
    denominator are the boundary and interior integrals of e^(q_xi + rho q0),
    scaled is -mu / (2 pi).  At lam = 0 the mu_lambda column is mu itself.
    """
    if xi is None:
        xi = (0,) * P.dim
    qxi = _xi_form(P, xi)
    q0 = as_pa(q0, P)
    n = float(P.dim)
    lam = _finite(lam, "lam")
    gear = ExpIntegrator(P, [qxi, q0])
    rows = []
    for rho in _parse_grid(grid):
        [(A, B, C)] = _moments(gear, n, (1.0, rho))
        mu, sigma, _ = _entropy((A, B, C))
        rows.append(
            EntropyPoint(rho, B, A, mu, sigma, _mu_lambda(mu, sigma, lam), -mu / TWO_PI)
        )
    return EntropyReport(rows, lam, xi)


# -- Mabuchi slope and Calabi energy ------------------------------------------


def kappa(P) -> Fraction:
    """Anticanonical degree ratio: minus boundary measure over volume."""
    return -P.boundary_measure() / P.volume()


def _exact_moments(q):
    """(vol, M, variance) from m = int_P q^(0..2) and b = int_boundary q^(0..1),
    one pass each: vol = m0 and M = b1 - b0 m1 / m0, as kappa = -b0 / m0."""
    m = _pa_moments(q, 2)
    b0, b1 = _boundary_moments(q, 1)
    return m[0], b1 - b0 * m[1] / m[0], _variance(m)


def mabuchi_slope(P, q) -> Fraction:
    """M(q) = int_boundary q dsigma + kappa * int_P q dmu, exact."""
    return _exact_moments(as_pa(q, P))[1]


CalabiReport = namedtuple(
    "CalabiReport", ["m_na", "variance", "c_na", "rho_max", "sup_value"]
)


def calabi(P, q) -> CalabiReport:
    """Calabi energy data of q.

    c_na = -(2 pi / vol) M(q) - variance / (2 vol) with
    variance = int (q - qbar)^2 dmu, all from one interior and one boundary
    pass (_exact_moments).  Along the ray rho * q the energy is the concave
    quadratic -(2 pi M rho + variance rho^2 / 2) / vol, so the supremum over
    rho >= 0 is 0 when M >= 0 and is attained at
    rho_max = -2 pi M / variance otherwise.
    """
    vol, M, variance = _exact_moments(as_pa(q, P))
    m_na, var = _finite(M, "M(q)"), _finite(variance, "the variance of q")
    half = _finite(variance / (2 * vol), "variance / (2 vol)")
    # -TWO_PI * M / vol's own float operations on Fractions (not float(M / vol))
    c_na = -TWO_PI * m_na / _divisor(vol, "the volume of P") - half
    if M >= 0 or variance == 0:
        return CalabiReport(m_na, var, c_na, 0.0, 0.0)
    rho_max = -TWO_PI * m_na / _divisor(variance, "the variance of q")
    sup_value = 2 * pi * pi * m_na * m_na / _divisor(vol * variance, "vol * variance")
    return CalabiReport(m_na, var, c_na, rho_max, sup_value)


def extremal_limit_check(P, q, rho_small=1e-3):
    """Compare the rescaled entropy increment against the Calabi energy.

    Returns (lhs, rhs, gap) where
    lhs = (mu_lambda(rho q) - mu_lambda(0)) / rho at lambda = -1/rho and
    rhs = c_na(q); the gap shrinks linearly in rho.
    """
    rho = _finite(rho_small, "rho_small")
    if rho <= 0:
        raise InputError("rho_small must be positive")
    q = as_pa(q, P)
    n = P.dim
    lam = -1.0 / rho
    mu, sigma = _at_rho(P, q, rho)
    vol = _divisor(P.volume(), "the volume of P")
    mu0, _, _ = _entropy((vol, _finite(P.boundary_measure(), "the boundary measure of P"), None))
    sigma0 = n - log(vol)
    lhs = ((mu + lam * sigma) - (mu0 + lam * sigma0)) / rho
    rhs = calabi(P, q).c_na
    return lhs, rhs, abs(lhs - rhs)
