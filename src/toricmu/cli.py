"""Batch front-end: polytope and potential inputs to CSV or JSON tables.

Commands: integrate, entropy, futaki, optimize, calabi, dh, metric,
filtration, and reproduce (builtin cases with embedded tolerance checks).
Curve output uses the columns parameter, numerator, denominator, mu, sigma,
mu_lambda, scaled, where numerator and denominator are the boundary and
interior exponential integrals and scaled is -mu / (2 pi).  Report commands
emit quantity/value rows instead.

Builtin polytopes: cp1, square, blowup-delta:D, donaldson.
Builtin potentials: zero, const:C, square-qn:N, corner-flat:D.
Rationals in flags and files are decimal or "num/den" text: 0.1 is 1/10.

Exit codes: 0 success, 2 unusable input (any toricmu.InputError: the
library checks every argument, and exact values beyond the float range or,
as divisors, below it; an --out path that cannot be written is one too), 3 failed
numerical validation or embedded tolerance check.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from fractions import Fraction
from math import e as EULER_E, exp, isfinite, pi

from .filtration import (
    MonomialFiltration,
    NonConvergent,
    corner_filtration,
    corner_flat_filtration,
    char_mu_estimate,
    char_mu_exact,
    spectral_measure,
    unit_segment,
)
from .functionals import (
    TWO_PI,
    EntropyPoint,
    _entropy,
    _moments,
    calabi,
    entropy_curve,
    futaki,
    mu_star,
)
from .integrate import (
    ExpIntegrator,
    NonSimpleVertex,
    ValidationFailure,
    boundary_exp_integral,
    brion_localize_limit,
    cross_validate,
    polytope_exp_integral,
)
from .optimize import (
    MaxIterExceeded,
    maximize_along_ray,
    maximize_over_vectors,
    normalized_df,
)
from .paconvex import (
    AffineForm,
    _pa_moments,
    as_pa,
    boundary_pa_moment,
    dh_summary,
    make_pa,
    metric_dexp,
    metric_dp,
)
from .polytope import (
    InputError, LatticePolytope, _coords, _finite, _positive_int, _rational, build_polytope
)


class CheckFailure(RuntimeError):
    """An embedded tolerance check failed; exit code 3."""


# -- input parsing --------------------------------------------------------------


def _xi(text, P):
    """--xi as a vector (default the origin of P's dimension)."""
    return _coords(text.split(","), "--xi") if text else (0,) * P.dim


def _grid(text):
    parts = text.split(":")
    if len(parts) != 3:
        raise InputError("grid must be start:end:count, got %r" % (text,))
    return _coords(parts, "--grid")


# -- builtin inputs --------------------------------------------------------------


def unit_square() -> LatticePolytope:
    return build_polytope([(0, 0), (1, 0), (1, 1), (0, 1)])


def blowup_polytope(delta) -> LatticePolytope:
    """Pentagon obtained from the triangle conv{(-1,-1),(2,-1),(-1,2)} by
    cutting corners at depth delta, 0 < delta < 3/2."""
    d = _rational(delta, "blow-up depth")
    if not 0 < d < Fraction(3, 2):
        raise InputError("blow-up depth must lie strictly between 0 and 3/2")
    return build_polytope(
        [(-1, -1), (2 - d, -1), (2 - d, -1 + d), (-1 + d, 2 - d), (-1, 2 - d)]
    )


def donaldson_polytope() -> LatticePolytope:
    """Nine-vertex orbifold polytope with vanishing Futaki pairing at 0."""
    r = Fraction(3, 10)
    s = Fraction(17, 5)
    return build_polytope(
        [(1, 0), (0, 1), (r, r), (3, 1), (3, 0), (s, r), (0, 3), (1, 3), (r, s)]
    )


def square_qn_potential(n):
    """q_n = max(-1/(6n), n - 1/(6n) - n^2 (x + y)) on the unit square."""
    n = _positive_int(n, "square-qn")
    a = Fraction(1, 6 * n)
    return make_pa([((0, 0), a), ((-n * n, -n * n), a - n)], unit_square())


def corner_flat_potential(d):
    """q_d = max(0, d t - (d - 1)) on the unit segment."""
    return corner_flat_filtration(d).pa


def _load_polytope(spec) -> LatticePolytope:
    if spec is None:
        raise InputError("this command needs --polytope")
    name, _, param = str(spec).partition(":")
    if name == "cp1":
        return unit_segment()
    if name == "square":
        return unit_square()
    if name == "blowup-delta":
        return blowup_polytope(param or "1")
    if name == "donaldson":
        return donaldson_polytope()
    try:
        with open(spec) as fh:
            text = fh.read()
    except OSError as err:
        raise InputError("cannot read polytope %r: %s" % (spec, err)) from err
    try:
        return LatticePolytope.from_json(text)
    except InputError as err:
        raise InputError("bad polytope file %r: %s" % (spec, err)) from err


def _load_q(spec, P):
    """Potential from a builtin name or JSON file.

    Returns (q, P); builtin potentials carry their own polytope, which must
    agree with --polytope when both are given.
    """
    if spec is None or spec == "zero":
        if P is None:
            raise InputError("potential 'zero' needs --polytope")
        return as_pa(None, P), P
    name, _, param = str(spec).partition(":")
    if name == "const":
        if P is None:
            raise InputError("potential 'const' needs --polytope")
        form = AffineForm.constant_form(P.dim, param or "0")
        return as_pa(form, P), P
    builtin = {"square-qn": square_qn_potential, "corner-flat": corner_flat_potential}
    if name in builtin:
        q = builtin[name](_rational(param or "2", name))
        return as_pa(q, q.P if P is None else P), q.P
    try:
        with open(spec) as fh:
            data = json.load(fh, parse_float=Fraction)
    except (OSError, json.JSONDecodeError) as err:
        raise InputError("cannot read potential %r: %s" % (spec, err)) from err
    if P is None:
        raise InputError("a potential file needs --polytope")
    try:
        return make_pa([(piece["eta"], piece["lambda"]) for piece in data["pieces"]], P), P
    except (KeyError, TypeError, ValueError) as err:
        raise InputError("bad potential file %r: %s" % (spec, err)) from err


# -- output ----------------------------------------------------------------------


def _fmt(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _emit(rows, fieldnames, meta, fmt, out):
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(fieldnames)
        for row in rows:
            writer.writerow([_fmt(row[k]) for k in fieldnames])
        text = buf.getvalue()
    else:
        payload = {
            "meta": {k: _fmt(v) for k, v in sorted(meta.items())},
            "columns": list(fieldnames),
            "rows": [[_fmt(row[k]) for k in fieldnames] for row in rows],
        }
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as err:
            raise InputError("cannot write %r: %s" % (out, err.strerror or err)) from None
    else:
        sys.stdout.write(text)


def _require(condition, message):
    if not condition:
        raise CheckFailure(message)


def _rel_gap(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


CURVE_COLUMNS = EntropyPoint._fields

REPORT_COLUMNS = ("quantity", "value")


def _curve_rows(report):
    return [row._asdict() for row in report]


def _report_rows(pairs):
    return [{"quantity": name, "value": value} for name, value in pairs]


# -- plain commands ---------------------------------------------------------------


def _cmd_integrate(args):
    P = _load_polytope(args.polytope)
    q, P = _load_q(args.q, P)
    meta = {"rho": args.rho, "method": args.method}
    report = None
    if args.method == "auto":
        try:
            report = cross_validate(P, q, rho=args.rho)
        except NonSimpleVertex as err:
            meta["localization"] = "skipped: %s" % err
    if report is None:
        route = "localization" if args.method == "localization" else "triangulation"
        interior = polytope_exp_integral(P, q, rho=args.rho, method=route)
        pairs = [("interior_" + route, interior.value)]
    else:
        pairs = [
            ("interior_triangulation", report.interior_triangulation),
            ("interior_localization", report.interior_localization),
        ]
    if report is None or report.boundary_triangulation is None:
        pairs.append(
            ("boundary_triangulation", boundary_exp_integral(P, q, rho=args.rho).value)
        )
    else:
        pairs.append(("boundary_triangulation", report.boundary_triangulation))
        pairs.append(("boundary_localization", report.boundary_localization))
    if report is not None:
        pairs.append(("rel_gap", report.rel_gap))
    return _report_rows(pairs), REPORT_COLUMNS, meta


def _cmd_entropy(args):
    P = _load_polytope(args.polytope)
    q, P = _load_q(args.q, P)
    report = entropy_curve(P, q, xi=_xi(args.xi, P), lam=args.lam, grid=_grid(args.grid))
    best = report.best()
    meta = {
        "lambda": args.lam,
        "xi": ",".join(str(c) for c in report.xi),
        "best_parameter": best.parameter,
        "best_mu_lambda": best.mu_lambda,
    }
    return _curve_rows(report), CURVE_COLUMNS, meta


def _cmd_futaki(args):
    P = _load_polytope(args.polytope)
    if args.q is None:
        raise InputError("futaki needs --q as the variation direction")
    q, P = _load_q(args.q, P)
    xi = _xi(args.xi, P)
    value = futaki(P, xi, q, lam=args.lam)
    rows = [{"quantity": "futaki", "value": value}]
    meta = {"lambda": args.lam, "xi": ",".join(str(c) for c in xi)}
    return rows, REPORT_COLUMNS, meta


def _cmd_optimize(args):
    # the command takes no search box, so the library rejects lambda > 0
    P = _load_polytope(args.polytope)
    res = maximize_over_vectors(P, lam=args.lam)
    rows = [
        {"quantity": "xi", "value": ",".join(repr(c) for c in res.xi)},
        {"quantity": "value", "value": res.value},
        {"quantity": "gradient_norm", "value": res.gradient_norm},
        {"quantity": "status", "value": res.status},
        {"quantity": "steps", "value": len(res.trace) - 1},
    ]
    return rows, REPORT_COLUMNS, {"lambda": args.lam}


def _cmd_calabi(args):
    P = _load_polytope(args.polytope)
    if args.q is None:
        raise InputError("calabi needs --q")
    q, P = _load_q(args.q, P)
    rows = _report_rows(normalized_df(P, q)._asdict().items())
    return rows, REPORT_COLUMNS, {}


def _cmd_dh(args):
    P = _load_polytope(args.polytope)
    if args.q is None:
        raise InputError("dh needs --q")
    q, P = _load_q(args.q, P)
    summary = dh_summary(q)
    lo, hi = summary.support()
    start, end, count = _grid(args.grid) if args.grid else (lo, hi, 41)
    start, end = _finite(start, "grid start"), _finite(end, "grid end")
    count = _positive_int(count, "grid count")
    rows = []
    for i in range(count):
        tau = start if count == 1 else start + (end - start) * i / (count - 1)
        rows.append({"parameter": tau, "cdf": summary.cdf(tau)})
    meta = {
        "volume": summary.volume,
        "barycenter": summary.barycenter,
        "variance": summary.variance,
        "support_min": lo,
        "support_max": hi,
        "moment1": summary.moment(1),
        "moment2": summary.moment(2),
    }
    return rows, ("parameter", "cdf"), meta


def _cmd_metric(args):
    P = _load_polytope(args.polytope)
    q, P = _load_q(args.q, P)
    q2, P = _load_q(args.q2, P)
    if args.p == "exp":
        value = metric_dexp(q, q2)
        name = "d_exp"
    else:
        value = metric_dp(q, q2, _rational(args.p, "--p"))
        name = "d_" + args.p
    return [{"quantity": name, "value": value}], REPORT_COLUMNS, {}


def _cmd_filtration(args):
    case = args.case
    if case:
        name, _, param = str(case).partition(":")
        if name == "corner":
            F = corner_filtration()
        elif name == "corner-flat":
            F = corner_flat_filtration(_rational(param or "2", name))
        else:
            raise InputError("unknown filtration case %r" % (case,))
    else:
        P = _load_polytope(args.polytope)
        q, P = _load_q(args.q, P)
        F = MonomialFiltration.from_pa(q)
    if args.m:
        degrees = list(_coords(args.m.split(","), "--m"))
    else:
        degrees = [1, 2, 4, 8, 16, 32, 64]
    rows = []
    for m in degrees:
        nu = spectral_measure(F, m, normalization=args.normalization)
        atoms = ";".join(
            "%s:%s" % (pos, mass) for pos, mass in nu.atoms
        )
        rows.append(
            {
                "m": nu.m,
                "atoms": atoms,
                "total_mass": nu.total_mass(),
                "exp_integral": nu.exp_integral(),
            }
        )
    meta = {"normalization": args.normalization, "name": F.name}
    if len(degrees) >= 3:
        try:
            meta["char_mu_estimate"] = char_mu_estimate(
                F, degrees, normalization=args.normalization
            )
        except NonConvergent as err:
            meta["char_mu_estimate"] = "non-convergent: %s" % err
    if F.pa is not None:
        meta["char_mu_exact"] = char_mu_exact(F)
    return rows, ("m", "atoms", "total_mass", "exp_integral"), meta


# -- reproduce cases --------------------------------------------------------------


def _blowup_closed_interior(x):
    # valid at the corner depth 1; exponent <mu, x (1,1)>
    return (exp(-2.0 * x) - 2.0 + (1.0 + x) * exp(x)) / (x * x)


def _blowup_closed_boundary(x):
    return -(2.0 * exp(-2.0 * x) - (2.0 + x) * exp(x)) / x


def _donaldson_closed_interior(x):
    return (
        -6.0 / 7.0 * exp(x)
        - 80.0 / 21.0 * exp(0.3 * x)
        - 1.5 * exp(3.0 * x)
        + 2.5 * exp(3.4 * x)
        + 11.0 / 3.0
        - 2.0 * x
    ) / (x * x)


def _donaldson_closed_boundary(x):
    return -(
        12.0 / 7.0 * exp(x)
        - 8.0 / 21.0 * exp(0.3 * x)
        - 1.5 * exp(3.0 * x)
        - 0.5 * exp(3.4 * x)
        + 2.0 / 3.0
        - 2.0 * x
    ) / x


def _both_routes(P, eta, x):
    """Interior and boundary integrals of e^{<mu, x eta>}, both routes."""
    form = AffineForm(eta, 0)
    tri = polytope_exp_integral(P, form, rho=x, method="triangulation").value
    loc = polytope_exp_integral(P, form, rho=x, method="localization").value
    btri = boundary_exp_integral(P, form, rho=x).value
    bloc = brion_localize_limit(P, eta, scale=x, boundary=True)
    return tri, loc, btri, bloc


def _reproduce_blowup(param):
    delta = _rational(param or "1", "blow-up depth")
    P = blowup_polytope(delta)
    eta = (1, 1)
    checks = []
    started = time.monotonic()
    for x in (0.5, -0.5, 1.0, -1.0, 2.0, -2.0):
        tri, loc, btri, bloc = _both_routes(P, eta, x)
        if delta == 1:
            ci = _blowup_closed_interior(x)
            cb = _blowup_closed_boundary(x)
            checks.append(("interior closed form at %g" % x, _rel_gap(tri, ci), 1e-9))
            checks.append(
                ("interior localization at %g" % x, _rel_gap(loc, ci), 1e-9)
            )
            checks.append(("boundary closed form at %g" % x, _rel_gap(btri, cb), 1e-9))
            checks.append(
                ("boundary localization at %g" % x, _rel_gap(bloc, cb), 1e-9)
            )
        else:
            checks.append(("interior route gap at %g" % x, _rel_gap(tri, loc), 1e-9))
            checks.append(("boundary route gap at %g" % x, _rel_gap(btri, bloc), 1e-9))
    elapsed = time.monotonic() - started
    for (label, gap, tol) in checks:
        _require(gap <= tol, "%s: rel gap %.3g > %.0e" % (label, gap, tol))
    _require(elapsed < 1.0, "closed-form checks took %.2fs" % elapsed)

    report = entropy_curve(P, AffineForm(eta, 0), grid=(-5.0, 5.0, 201))
    rows = _curve_rows(report)
    best = min(rows, key=lambda r: r["scaled"])

    # the ray maximizer of mu must sit away from the origin
    x_star, value = maximize_along_ray(P, tuple(-c for c in eta))
    mu0 = mu_star(P, None, rho=0.0)
    _require(abs(x_star) > 0.05, "ray maximizer %.4g too close to 0" % x_star)
    _require(
        value > mu0 + 1e-6,
        "ray maximum %.9g does not beat mu at 0 (%.9g)" % (value, mu0),
    )
    meta = {
        "delta": delta,
        "eta": "1,1",
        "scaled_minimizer": best["parameter"],
        "ray_maximizer": x_star,
        "ray_value": value,
        "mu_at_zero": mu0,
        "checks": len(checks) + 3,
        "elapsed_closed_form": elapsed,
    }
    return rows, CURVE_COLUMNS, meta


def _reproduce_donaldson():
    P = donaldson_polytope()
    eta = (1, 0)
    for x in (0.5, 1.0, 2.0):
        tri, loc, btri, bloc = _both_routes(P, eta, x)
        ci = _donaldson_closed_interior(x)
        cb = _donaldson_closed_boundary(x)
        for label, got, want in (
            ("interior triangulation", tri, ci),
            ("interior localization", loc, ci),
            ("boundary triangulation", btri, cb),
            ("boundary localization", bloc, cb),
        ):
            gap = _rel_gap(got, want)
            _require(gap <= 1e-9, "%s at %g: rel gap %.3g" % (label, x, gap))

    fut0 = futaki(P, (0, 0), AffineForm((-1, 0), 0))
    _require(abs(fut0) <= 1e-8, "Futaki pairing at 0 is %.3g" % fut0)

    # curve and its analytic derivative d(scaled)/dx = (B'A - BA')/A^2
    form = AffineForm(eta, 0)
    gear = ExpIntegrator(P, [form])
    n = float(P.dim)
    rows = []
    count = 201
    for i in range(count):
        x = 5.0 * i / (count - 1)
        base, (A1, B1, _) = _moments(gear, n, (x,), [(0.0, (1.0,))], dsigma=False)
        A, B, _ = base
        mu, sigma, _ = _entropy(base)
        rows.append(
            {
                "parameter": x,
                "numerator": B,
                "denominator": A,
                "mu": mu,
                "sigma": sigma,
                "mu_lambda": mu,
                "scaled": -mu / TWO_PI,
                "derivative": (B1 * A - B * A1) / (A * A),
            }
        )
    scaled = [r["scaled"] for r in rows]
    second = [
        scaled[i + 1] - 2.0 * scaled[i] + scaled[i - 1]
        for i in range(1, len(scaled) - 1)
    ]
    _require(
        min(second) < 0.0 < max(second),
        "second differences keep one sign; no concavity failure witnessed",
    )
    _require(
        abs(rows[0]["derivative"]) <= 1e-8,
        "curve derivative at 0 is %.3g" % rows[0]["derivative"],
    )
    meta = {
        "eta": "1,0",
        "futaki_at_zero": fut0,
        "second_difference_min": min(second),
        "second_difference_max": max(second),
    }
    return rows, CURVE_COLUMNS + ("derivative",), meta


def _reproduce_square_qn(param):
    n = _rational(param or "5", "square-qn")
    q = square_qn_potential(n)
    P = q.P
    b1 = boundary_pa_moment(q, 1)
    _, m1, m2 = _pa_moments(q, 2)
    b1_target = 1 - Fraction(2, 3 * n)
    m2_target = Fraction(1, 12) - Fraction(1, 36 * n * n)
    _require(
        abs(float(b1 - b1_target)) <= 1e-10,
        "boundary moment %s != %s" % (b1, b1_target),
    )
    _require(abs(float(m1)) <= 1e-10, "interior moment %s != 0" % m1)
    _require(
        abs(float(m2 - m2_target)) <= 1e-10,
        "second moment %s != %s" % (m2, m2_target),
    )
    report = calabi(P, q)
    floor_value = -TWO_PI - 1.0 / 24.0
    _require(
        report.c_na >= floor_value,
        "c_na %.9g below %.9g" % (report.c_na, floor_value),
    )
    zero = as_pa(None, P)
    d1 = metric_dp(q, zero, 1)
    d2 = metric_dp(q, zero, 2)
    _require(d1 <= 1 / (3 * n) + 1e-12, "d_1 %.9g exceeds 1/(3n)" % d1)
    _require(d2 >= 1.0 / 18.0, "d_2 %.9g below 1/18" % d2)
    rows = [
        {"quantity": "boundary_moment", "value": b1},
        {"quantity": "interior_moment", "value": m1},
        {"quantity": "second_moment", "value": m2},
        {"quantity": "c_na", "value": report.c_na},
        {"quantity": "m_na", "value": report.m_na},
        {"quantity": "variance", "value": report.variance},
        {"quantity": "d_1", "value": d1},
        {"quantity": "d_2", "value": d2},
        {"quantity": "d_exp", "value": metric_dexp(q, zero)},
    ]
    return rows, REPORT_COLUMNS, {"n": n}


def _reproduce_corner():
    F = corner_filtration()
    for m in range(1, 51):
        nu = spectral_measure(F, m)
        expected = (
            (Fraction(-1), Fraction(1, m + 1)),
            (Fraction(0), Fraction(m, m + 1)),
        )
        _require(
            nu.atoms == expected,
            "level %d spectral measure %r is off" % (m, nu.atoms),
        )
    degrees = [10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000]
    estimate = char_mu_estimate(F, degrees)
    target = -4.0 * pi * (EULER_E - 1.0)
    _require(
        _rel_gap(estimate, target) <= 0.01,
        "characteristic entropy %.6g vs %.6g" % (estimate, target),
    )
    rows = [{"quantity": "char_mu_estimate", "value": estimate}]
    for d in (2, 5, 20):
        value = char_mu_exact(corner_flat_filtration(d))
        closed = -TWO_PI * (1.0 + EULER_E) / ((EULER_E - 1.0) / d + (d - 1.0) / d)
        _require(
            _rel_gap(value, closed) <= 1e-10,
            "flat approximant d=%d: %.12g vs %.12g" % (d, value, closed),
        )
        rows.append({"quantity": "char_mu_flat_%d" % d, "value": value})
    flat = char_mu_exact(corner_flat_filtration(200))
    flat_target = -TWO_PI * (1.0 + EULER_E)
    _require(
        _rel_gap(flat, flat_target) <= 0.01,
        "flat limit %.6g vs %.6g" % (flat, flat_target),
    )
    rows.append({"quantity": "char_mu_flat_200", "value": flat})
    meta = {"target": target, "flat_target": flat_target}
    return rows, REPORT_COLUMNS, meta


def _reproduce_cp1():
    P = unit_segment()
    res = maximize_over_vectors(P)
    _require(
        abs(res.value + 4.0 * pi) <= 1e-8,
        "maximal entropy %.12g is not -4 pi" % res.value,
    )
    _require(abs(res.xi[0]) <= 1e-6, "maximizer %r is not 0" % (res.xi,))
    rows = _report_rows(
        [("xi", res.xi[0]), ("value", res.value), ("status", res.status)]
    )
    return rows, REPORT_COLUMNS, {"target": -4.0 * pi}


def _cmd_reproduce(args):
    name, _, param = str(args.case).partition(":")
    if name == "blowup-delta":
        return _reproduce_blowup(param)
    if name == "donaldson":
        return _reproduce_donaldson()
    if name == "square-qn":
        return _reproduce_square_qn(param)
    if name == "corner":
        return _reproduce_corner()
    if name == "cp1":
        return _reproduce_cp1()
    raise InputError("unknown reproduce case %r" % (args.case,))


# -- argument plumbing -------------------------------------------------------------


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="toricmu",
        description="entropy functionals of toric data; see the module help "
        "for builtin polytope and potential names",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, q_help="potential: builtin name or JSON file"):
        sp.add_argument(
            "--polytope",
            help="builtin name (cp1, square, blowup-delta:D, donaldson) "
            "or JSON file",
        )
        sp.add_argument("--q", help=q_help)
        sp.add_argument("--out", help="output path (default stdout)")
        sp.add_argument("--format", choices=("csv", "json"), default="csv")

    sp = sub.add_parser("integrate", help="exponential integrals, both routes")
    common(sp)
    sp.add_argument("--rho", type=float, default=1.0, help="exponent scale")
    sp.add_argument(
        "--method",
        choices=("auto", "triangulation", "localization"),
        default="auto",
    )
    sp.set_defaults(handler=_cmd_integrate)

    sp = sub.add_parser("entropy", help="mu/sigma sweep along q_xi + x q0")
    common(sp, q_help="sweep direction q0 (builtin name or JSON file)")
    sp.add_argument("--xi", help="base vector, comma separated rationals")
    sp.add_argument("--lambda", dest="lam", type=float, default=0.0)
    sp.add_argument("--grid", default="0:5:201", help="start:end:count")
    sp.set_defaults(handler=_cmd_entropy)

    sp = sub.add_parser("futaki", help="first variation at q_xi")
    common(sp, q_help="variation direction (builtin name or JSON file)")
    sp.add_argument("--xi", help="base vector, comma separated rationals")
    sp.add_argument("--lambda", dest="lam", type=float, default=0.0)
    sp.set_defaults(handler=_cmd_futaki)

    sp = sub.add_parser("optimize", help="maximize mu_lambda over vectors")
    common(sp)
    sp.add_argument("--lambda", dest="lam", type=float, default=0.0)
    sp.set_defaults(handler=_cmd_optimize)

    sp = sub.add_parser("calabi", help="Mabuchi slope and Calabi energy")
    common(sp)
    sp.set_defaults(handler=_cmd_calabi)

    sp = sub.add_parser("dh", help="pushforward measure moments and CDF")
    common(sp)
    sp.add_argument("--grid", help="tau grid start:end:count")
    sp.set_defaults(handler=_cmd_dh)

    sp = sub.add_parser("metric", help="d_p or d_exp between two potentials")
    common(sp)
    sp.add_argument("--q2", help="second potential (default zero)")
    sp.add_argument("--p", default="exp", help="any real exponent p >= 1, or 'exp'")
    sp.set_defaults(handler=_cmd_metric)

    sp = sub.add_parser("filtration", help="spectral measures and entropy limit")
    common(sp)
    sp.add_argument("--case", help="builtin filtration: corner or corner-flat:D")
    sp.add_argument("--m", help="comma separated degrees")
    sp.add_argument(
        "--normalization", choices=("dimension", "volume"), default="dimension"
    )
    sp.set_defaults(handler=_cmd_filtration)

    sp = sub.add_parser(
        "reproduce", help="builtin cases with embedded tolerance checks"
    )
    sp.add_argument(
        "case",
        help="blowup-delta:D, donaldson, square-qn:N, corner, or cp1",
    )
    sp.add_argument("--out", help="output path (default stdout)")
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.set_defaults(handler=_cmd_reproduce)

    return parser


def _require_finite(rows, meta):
    """CheckFailure for the first non-finite float in the output."""
    places = [("row %d" % i, row) for i, row in enumerate(rows)] + [("meta", meta)]
    for where, record in places:
        for name, value in record.items():
            if isinstance(value, float) and not isfinite(value):
                raise CheckFailure("%s is %r in %s" % (name, value, where))


def run(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return int(err.code or 0)
    try:
        rows, fieldnames, meta = args.handler(args)
        _require_finite(rows, meta)
        _emit(rows, fieldnames, meta, args.format, args.out)
    except InputError as err:
        print("error: %s" % err, file=sys.stderr)
        return 2
    except (
        CheckFailure,
        ValidationFailure,
        NonConvergent,
        MaxIterExceeded,
    ) as err:
        print("validation failure: %s" % err, file=sys.stderr)
        return 3
    return 0


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
