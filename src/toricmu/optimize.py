"""Maximization of the entropy functionals over vector fields.

The objective is xi -> mu_lambda(q_xi) with q_xi(mu) = <mu, -xi>.  A
quasi-Newton (BFGS) ascent with Armijo backtracking runs from a small set of
seeds; the analytic gradient comes from the first-variation formulas, so no
finite differences are involved.  The trace of each run is monotone by
construction of the line search.
"""

from __future__ import annotations

import struct
from collections import namedtuple
from fractions import Fraction
from math import sqrt

from ._ddexp_py import _float_sum
from .functionals import TWO_PI, _entropy, _moments, _mu_lambda, calabi
from .integrate import ExpIntegrator, ValidationFailure
from .paconvex import AffineForm, as_pa
from .polytope import InputError, _divisor, _finite, _fit, _iterable, _natural


class MaxIterExceeded(RuntimeError):
    """No seed reached the gradient tolerance."""


OptimizationResult = namedtuple(
    "OptimizationResult", ["xi", "value", "gradient_norm", "trace", "status"]
)


class _Objective:
    """mu_lambda(q_xi) and its gradient, sharing one integration context.

    The moments (A, B, C) of every point are kept for the objective's
    lifetime, keyed by the point's exact bits (_float_bits), so a point the
    line search comes back to reuses them and a gradient after a value at
    the same point integrates only the direction moments.  C and C_d, which
    only sigma reads, are computed only for lam != 0.
    """

    def __init__(self, P, lam):
        n = P.dim
        funcs = [
            AffineForm(tuple(-1 if j == i else 0 for j in range(n)), 0)
            for i in range(n)
        ]
        self.gear = ExpIntegrator(P, funcs)
        self.n = n
        self.lam = float(lam)
        self.need_sigma = self.lam != 0.0
        self.units = [
            (0.0, tuple(1.0 if k == i else 0.0 for k in range(n))) for i in range(n)
        ]
        self._abc_at = {}

    def value(self, xi):
        combo = tuple(float(c) for c in xi)
        key = _float_bits(combo)
        abc = self._abc_at.get(key)
        if abc is None:
            [abc] = _moments(self.gear, float(self.n), combo, sigma=self.need_sigma)
            self._abc_at[key] = abc
        mu, sigma, _ = _entropy(abc)
        return _mu_lambda(mu, sigma, self.lam)

    def value_grad(self, xi):
        combo = tuple(float(c) for c in xi)
        key = _float_bits(combo)
        abc = self._abc_at.get(key)
        # at a point with known moments only the direction moments are new
        moments = _moments(
            self.gear,
            float(self.n),
            combo,
            self.units,
            base=abc is None,
            sigma=self.need_sigma,
            dsigma=self.need_sigma,
        )
        if abc is None:
            abc = self._abc_at[key] = moments.pop(0)
        mu, sigma, firsts = _entropy(abc, moments)
        value = _mu_lambda(mu, sigma, self.lam)
        return value, [_mu_lambda(dmu, dsigma, self.lam) for (dmu, dsigma) in firsts]


def _float_bits(values):
    """The exact bit pattern of a float sequence, as a dict key.

    Unlike ==, it tells -0.0 from 0.0 and matches NaNs bit for bit, so two
    sequences with equal bits are the same input to any float arithmetic.
    """
    return struct.pack("%dd" % len(values), *values)


def _project(x, box):
    if box is None:
        return list(x)
    out = []
    for xi, (lo, hi) in zip(x, box):
        out.append(min(max(xi, lo), hi))
    return out


def _on_boundary(x, box, tol=1e-10):
    if box is None:
        return False
    for xi, (lo, hi) in zip(x, box):
        if abs(xi - lo) <= tol or abs(xi - hi) <= tol:
            return True
    return False


def _bfgs_ascent(obj, x0, gtol, max_iter, box):
    n = len(x0)
    x = _project(x0, box)
    f, g = obj.value_grad(x)
    H = [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)]
    trace = [(tuple(x), f)]
    status = "max-iter"
    for it in range(max_iter):
        gnorm = sqrt(_float_sum(gi * gi for gi in g))
        if gnorm <= gtol:
            status = "converged"
            break
        d = [_float_sum(H[i][j] * g[j] for j in range(n)) for i in range(n)]
        slope = _float_sum(di * gi for di, gi in zip(d, g))
        reset = slope <= 0.0
        if reset:
            # curvature model went bad; reset to steepest ascent
            H = [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)]
            d = list(g)
            slope = gnorm * gnorm
        t = 1.0
        xn = x
        fn = f
        while t >= 1e-14:
            cand = _project([x[i] + t * d[i] for i in range(n)], box)
            fc = obj.value(cand)
            if fc >= f + 1e-4 * t * slope:
                xn, fn = cand, fc
                break
            t *= 0.5
        if t < 1e-14:
            # no progress possible along the model direction
            status = "line-search-failed"
            break
        fn, gn = obj.value_grad(xn)
        s = [xn[i] - x[i] for i in range(n)]
        u = [g[i] - gn[i] for i in range(n)]  # curvature pair for ascent
        su = _float_sum(si * ui for si, ui in zip(s, u))
        if su > 1e-14:
            rho = 1.0 / su
            Hu = [_float_sum(H[i][j] * u[j] for j in range(n)) for i in range(n)]
            uHu = _float_sum(u[i] * Hu[i] for i in range(n))
            for i in range(n):
                for j in range(n):
                    H[i][j] += (
                        (1.0 + rho * uHu) * rho * s[i] * s[j]
                        - rho * (s[i] * Hu[j] + Hu[i] * s[j])
                    )
        stalled = not reset and _float_bits(xn) == _float_bits(x)
        x, f, g = xn, fn, gn
        trace.append((tuple(x), f))
        if stalled:
            # the step rounded away and H is untouched: (x, f, g, H) is the
            # state this iteration began with, and every remaining one
            # would repeat it
            trace.extend((tuple(x), f) for _ in range(max_iter - it - 1))
            break
    gnorm = sqrt(_float_sum(gi * gi for gi in g))
    if gnorm <= gtol:
        status = "converged"
    if _on_boundary(x, box):
        status = "boundary-hit"
    return OptimizationResult(tuple(x), f, gnorm, trace, status)


def default_seeds(n):
    """The origin, the signed unit vectors and +-(1, ..., 1), each once, in
    that order (in dimension 1 the last two repeat the unit vectors)."""
    seeds = [tuple(0.0 for _ in range(n))]
    for i in range(n):
        for s in (1.0, -1.0):
            seeds.append(tuple(s if j == i else 0.0 for j in range(n)))
    seeds.append(tuple(1.0 for _ in range(n)))
    seeds.append(tuple(-1.0 for _ in range(n)))
    return list(dict.fromkeys(seeds))


def _floats(values, name):
    """values as a list of floats, each through _finite and _iterable."""
    return [_finite(c, name) for c in _iterable(values, name)]


def _interval(pair, name):
    """(lo, hi) of a bracket or box pair: two finite numbers with lo <= hi."""
    lo, hi = _fit(_floats(pair, name), 2, name)
    if lo > hi:
        raise InputError("%s has low %r > high %r" % (name, lo, hi))
    return lo, hi


def maximize_over_vectors(
    P, lam=0.0, seeds=None, box=None, gtol=1e-8, max_iter=500
) -> OptimizationResult:
    """Maximize xi -> mu_lambda(q_xi) by multi-start BFGS.

    lam must be finite; lam > 0 makes the objective unbounded in general
    and requires an explicit box ((lo, hi) per coordinate, finite, lo <= hi).
    seeds, if given, is a nonempty sequence; a seed is P.dim finite numbers,
    taken as floats (as a trace's first entry shows).  gtol must be finite
    and >= 0, max_iter an integer >= 0.  Raises MaxIterExceeded when no
    seed converges; otherwise returns the best run (its trace is monotone).
    """
    lam, gtol, max_iter = _finite(lam, "lam"), _finite(gtol, "gtol"), _natural(max_iter, "max_iter")
    if lam > 0 and box is None:
        raise InputError("lam > 0 needs an explicit search box, got lam = %r" % (lam,))
    if gtol < 0:
        raise InputError("gtol must be >= 0, got %r" % (gtol,))
    seeds = default_seeds(P.dim) if seeds is None else _iterable(seeds, "seeds")
    starts = [_fit(_floats(s, "seed %d" % k), P.dim, "seed %d" % k) for k, s in enumerate(seeds)]
    if not starts:
        raise InputError("seeds is empty")
    if box is not None:
        box = _fit(list(_iterable(box, "box")), P.dim, "box")
        box = [_interval(pair, "box %d" % k) for k, pair in enumerate(box)]
    obj = _Objective(P, lam)
    results = [_bfgs_ascent(obj, x0, gtol, max_iter, box) for x0 in starts]
    finished = [r for r in results if r.status in ("converged", "boundary-hit")]
    if not finished:
        best = max(results, key=lambda r: r.value)
        raise MaxIterExceeded(
            "no seed converged; best value %.12g with gradient %.3g"
            % (best.value, best.gradient_norm)
        )
    return max(finished, key=lambda r: r.value)


def _golden_max(h, a, b, xtol):
    if xtol <= 0:  # the loop runs while b - a > xtol
        raise InputError("xtol must be > 0, got %r" % (xtol,))
    inv_phi = (sqrt(5.0) - 1.0) / 2.0
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = h(c), h(d)
    while b - a > xtol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = h(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = h(d)
    x = 0.5 * (a + b)
    return x, h(x)


def maximize_along_ray(P, eta, lam=0.0, bracket=None, xtol=1e-8):
    """Maximize x -> mu_lambda(q_{x eta}).

    The bracket is expanded by doubling until both ends fall below the value
    at the origin (properness of the objective guarantees this terminates),
    a coarse scan picks the best basin, and golden-section refines to xtol.
    Returns (x_star, value).  lam must be finite, eta a nonzero vector of
    length P.dim, the bracket a pair of finite numbers with low < 0 < high
    (doubling moves each end away from the origin) and xtol finite and > 0.
    """
    lam, xtol = _finite(lam, "lam"), _finite(xtol, "xtol")
    # x * c for an exact c is x * float(c): convert eta once
    eta = _fit(_floats(eta, "eta"), P.dim, "eta")
    if not any(eta):
        raise InputError("eta must be nonzero")
    obj = _Objective(P, lam)

    def h(x):
        return obj.value(tuple(x * c for c in eta))

    lo, hi = (-1.0, 1.0) if bracket is None else _interval(bracket, "bracket")
    if not lo < 0.0 < hi:
        raise InputError("bracket (%r, %r) does not contain 0 inside" % (lo, hi))
    h0 = h(0.0)
    for _ in range(60):
        if h(lo) < h0:
            break
        lo *= 2.0
    for _ in range(60):
        if h(hi) < h0:
            break
        hi *= 2.0
    grid = 64
    xs = [lo + (hi - lo) * i / grid for i in range(grid + 1)]
    vals = [h(x) for x in xs]
    k = vals.index(max(vals))
    a = xs[max(0, k - 1)]
    b = xs[min(grid, k + 1)]
    return _golden_max(h, a, b, xtol)


def normalized_df(P, q0, xtol=1e-8):
    """Calabi energy report for q0, cross-checked numerically.

    The closed-form supremum over the ray rho * q0 is compared against a
    golden-section maximization of rho -> c_na(rho * q0), each point of
    which is computed from its own exact moments.  Disagreement raises
    ValidationFailure.  xtol must be finite and > 0.
    """
    xtol = _finite(xtol, "xtol")
    q0 = as_pa(q0, P)
    report = calabi(P, q0)

    def c_at(rho):
        if rho <= 0.0:
            return 0.0
        return calabi(P, Fraction(rho) * q0).c_na

    hi = 2.0 * report.rho_max + 1.0
    x_star, numeric = _golden_max(c_at, 0.0, hi, xtol)
    vol = _divisor(P.volume(), "the volume of P")
    # the x resolution of the search limits the achievable value agreement
    # through the slope of the ray energy
    slope = TWO_PI * abs(report.m_na) / vol + report.variance / vol
    scale = 1.0 + abs(report.sup_value)
    if abs(numeric - report.sup_value) > 1e-6 * scale + 10.0 * xtol * slope:
        raise ValidationFailure(
            "closed-form supremum %.12g vs numeric %.12g"
            % (report.sup_value, numeric)
        )
    if abs(x_star - report.rho_max) > 1e-5 * (1.0 + report.rho_max):
        raise ValidationFailure(
            "closed-form maximizer %.12g vs numeric %.12g" % (report.rho_max, x_star)
        )
    return report
