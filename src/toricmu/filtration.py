"""Monomial filtrations of toric section rings and their spectral measures.

Degree m sections correspond to lattice points of m*P.  A filtration assigns
each monomial an integer weight, submultiplicatively across degrees; the
spectral measure nu_m places mass at weight/m for every basis monomial.  As
m grows nu_m converges to a limit measure, and the characteristic entropy is
recovered from the exponential moments through

    char-mu = -4 pi * lim_m m * log( int e^{-t} dnu_m / int e^{-t} dnu_inf ).

Filtrations generated by a convex PA potential q (weights floor(-m q(p/m)))
have nu_inf equal to the (normalized) pushforward measure of q, and their
characteristic entropy equals mu(q); both routes are provided.  Their
weights are integer arithmetic: with D the lcm of the denominators of every
piece's gradient and constant, floor(-m q(p/m)) is the floor division by D
of -max_k(<D g_k, p> + m D c_k).
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import lcm, log, pi
from operator import mul

from ._ddexp_py import _float_sum, _safe_exp
from .functionals import mu_star
from .integrate import polytope_exp_integral
from .paconvex import PiecewiseAffineConvex, make_pa
from .polytope import (
    InputError, LatticePolytope, _divisor, _finite, _iterable, _positive_int, _rational,
    build_polytope
)


class NonConvergent(RuntimeError):
    """Extrapolated characteristic entropy did not settle."""


class GradedSections:
    """Monomial basis of the degree-m sections: lattice points of m*P."""

    __slots__ = ("P", "m", "points")

    def __init__(self, P, m, points):
        self.P = P
        self.m = int(m)
        self.points = list(points)

    @property
    def dimension(self):
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __len__(self):
        return len(self.points)


def sections(P, m) -> GradedSections:
    """Degree-m monomial basis; m must be an integer >= 1."""
    m = _positive_int(m, "degree")
    return GradedSections(P, m, P.lattice_points(m))


class SpectralMeasure:
    """Finite atomic measure on the rescaled weight line."""

    __slots__ = ("atoms", "m", "normalization")

    def __init__(self, atoms, m, normalization):
        self.atoms = tuple(sorted(atoms))
        self.m = m
        self.normalization = normalization

    def total_mass(self) -> Fraction:
        return sum((mass for _, mass in self.atoms), Fraction(0))

    def cdf(self, tau) -> Fraction:
        """Mass of [tau, infinity), matching the pushforward convention."""
        tau = _rational(tau, "tau")
        return sum((mass for pos, mass in self.atoms if pos >= tau), Fraction(0))

    def exp_integral(self, rho=1.0) -> float:
        rho = _finite(rho, "rho")
        return _float_sum(
            _finite(mass, "an atom's mass") * _safe_exp(-rho * _finite(pos, "an atom's position"))
            for pos, mass in self.atoms
        )

    def __repr__(self):
        return "SpectralMeasure(m=%s, atoms=%d)" % (self.m, len(self.atoms))


class MonomialFiltration:
    """Integer weights on monomial bases, one value per lattice point.

    weight_fn(point, m) must return an int and satisfy superadditivity
    weight(p1 + p2, m1 + m2) >= weight(p1, m1) + weight(p2, m2).  pa is the
    generating potential when the filtration comes from one (enables the
    exact entropy route); limit_pa describes the limit measure when known.
    """

    def __init__(self, P, weight_fn, pa=None, limit_pa=None, name=None):
        self.P = P
        self.weight_fn = weight_fn
        self.pa = pa
        self.limit_pa = limit_pa if limit_pa is not None else pa
        self.name = name or "filtration"

    @classmethod
    def from_pa(cls, q, name=None):
        """Weights floor(-m q(p/m)) of the potential q, from one row of
        integers (D g_k, D c_k) per piece (see the module docstring).  q
        must be a PiecewiseAffineConvex: the filtration reads its polytope."""
        if not isinstance(q, PiecewiseAffineConvex):
            raise InputError(
                "from_pa needs a potential bound to a polytope"
                " (a PiecewiseAffineConvex), got %r" % (q,)
            )
        D = lcm(*(x.denominator for f in q.pieces for x in f.gradient + (f.constant,)))
        rows = [
            (tuple(int(g * D) for g in f.gradient), int(f.constant * D)) for f in q.pieces
        ]

        def weight_fn(point, m):
            return (-max(sum(map(mul, g, point)) + m * c for g, c in rows)) // D

        return cls(q.P, weight_fn, pa=q, limit_pa=q, name=name)

    def weights(self, m):
        basis = sections(self.P, m)
        return [self.weight_fn(p, basis.m) for p in basis]

    def limit_exp_integral(self, normalization="dimension"):
        """int e^{-t} dnu_inf (normalized as nu_m) if the limit is known, else None."""
        _check_normalization(normalization)
        if self.limit_pa is None:
            return None
        total = polytope_exp_integral(self.P, self.limit_pa, rho=1.0).value
        if normalization == "dimension":
            return total / _divisor(self.P.volume(), "the volume of P")
        return total

    def __repr__(self):
        return "MonomialFiltration(%s)" % self.name


def _check_normalization(normalization):
    if normalization not in ("dimension", "volume"):
        raise InputError("normalization must be 'dimension' or 'volume', got %r" % (normalization,))


def spectral_measure(F, m, normalization="dimension") -> SpectralMeasure:
    """nu_m: mass at weight/m per monomial.

    normalization "dimension" divides by the section count N_m (nu_m is a
    probability measure), "volume" divides by m^n (nu_m converges to the
    unnormalized pushforward measure).
    """
    _check_normalization(normalization)
    basis = sections(F.P, m)
    m = basis.m
    counts = Counter(F.weight_fn(p, m) for p in basis)
    denom = Fraction(len(basis) if normalization == "dimension" else m ** F.P.dim)
    atoms = [(Fraction(w, m), Fraction(c) / denom) for w, c in counts.items()]
    return SpectralMeasure(atoms, m, normalization)


def char_mu_exact(F) -> float:
    """Characteristic entropy through the generating potential, mu(q)."""
    if F.pa is None:
        raise InputError("filtration has no generating potential")
    return mu_star(F.P, F.pa)


def _neville_at_zero(xs, ys):
    """Neville extrapolation to 0; entry j interpolates the last j+1 points."""
    k = len(xs)
    diag = [ys[-1]]
    prev = list(ys)
    for j in range(1, k):
        cur = []
        for i in range(k - j):
            val = (xs[i + j] * prev[i] - xs[i] * prev[i + 1]) / (xs[i + j] - xs[i])
            cur.append(val)
        diag.append(cur[-1])
        prev = cur
    return diag


def char_mu_estimate(F, m_list, normalization="dimension", nu_infinity=None) -> float:
    """Extrapolated characteristic entropy from finite degrees.

    Computes a_m = -4 pi m log(int e^{-t} dnu_m / D) over m_list, with D the
    exponential moment of the limit measure (nu_infinity: a SpectralMeasure or
    a finite D > 0; else known from the filtration, or estimated from the
    largest degree, which is then dropped).  The a_m expand in powers of 1/m, so
    Neville extrapolation at 1/m -> 0 accelerates the limit; the most
    consistent diagonal entry is returned.  Raises NonConvergent when no two
    consecutive diagonal entries agree reasonably.
    """
    ms = sorted(set(_positive_int(m, "degree") for m in _iterable(m_list, "m_list")))
    if len(ms) < 3:
        raise InputError("need at least three distinct degrees, got %r" % (ms,))
    if nu_infinity is not None:
        if isinstance(nu_infinity, SpectralMeasure):
            D = nu_infinity.exp_integral()
        else:
            D = _finite(nu_infinity, "nu_infinity")
            if D <= 0:
                raise InputError("nu_infinity must be > 0, got %r" % (D,))
    else:
        D = F.limit_exp_integral(normalization)
        if D is None:
            D = spectral_measure(F, ms[-1], normalization).exp_integral()
            ms = ms[:-1]
    a = []
    xs = []
    for m in ms:
        nu = spectral_measure(F, m, normalization)
        ratio = nu.exp_integral() / D
        if ratio <= 0:
            raise NonConvergent("non-positive exponential moment ratio")
        a.append(-4.0 * pi * m * log(ratio))
        xs.append(1.0 / m)
    diag = _neville_at_zero(xs, a)
    best = diag[-1]
    best_gap = float("inf")
    for j in range(1, len(diag)):
        gap = abs(diag[j] - diag[j - 1])
        if gap <= best_gap:
            best_gap = gap
            best = diag[j]
    if best_gap > 0.1 * (1.0 + abs(best)):
        raise NonConvergent(
            "extrapolation table did not settle (best gap %.3g)" % best_gap
        )
    return best


# -- builtin examples ----------------------------------------------------------


def unit_segment() -> LatticePolytope:
    return build_polytope([(0,), (1,)])


def corner_filtration() -> MonomialFiltration:
    """Weights -m on the single monomial at the origin, 0 elsewhere.

    Not generated by any potential; its limit measure is the point mass at 0
    (the zero potential's pushforward), while finite levels keep an atom at
    -1 of mass 1/(m+1).
    """
    P = unit_segment()
    zero = make_pa([((0,), 0)], P)

    def weight_fn(point, m):
        return -m if point == (0,) else 0

    return MonomialFiltration(P, weight_fn, pa=None, limit_pa=zero, name="corner")


def corner_flat_filtration(d) -> MonomialFiltration:
    """Potential-generated approximations: q_d = max(0, d t - (d - 1)).

    As d grows these stretch toward the non-finitely-generated filtration of
    corner_filtration; their entropies converge to a limit that differs from
    the corner characteristic entropy.
    """
    d = _positive_int(d, "d")
    P = unit_segment()
    q = make_pa([((0,), 0), ((d,), d - 1)], P)
    return MonomialFiltration.from_pa(q, name="corner-flat:%d" % d)


def check_superadditive(F, m1, m2) -> bool:
    """Exhaustive superadditivity check of the weights across two degrees."""
    pts1 = F.P.lattice_points(m1)
    pts2 = F.P.lattice_points(m2)
    for p1 in pts1:
        w1 = F.weight_fn(p1, m1)
        for p2 in pts2:
            w2 = F.weight_fn(p2, m2)
            s = tuple(a + b for a, b in zip(p1, p2))
            if F.weight_fn(s, m1 + m2) < w1 + w2:
                return False
    return True
