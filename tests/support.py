"""Shared builders for the test suite: canonical polytopes, seeded
random generators, a hypothesis strategy for exact test polytopes, and a
finite-difference Futaki reference."""

from fractions import Fraction

from hypothesis import assume
from hypothesis import strategies as st

from toricmu import DegenerateHull, build_polytope, mu_lambda
from toricmu.paconvex import AffineForm, make_pa


def unit_square():
    return build_polytope([(0, 0), (1, 0), (1, 1), (0, 1)])


def unit_segment():
    return build_polytope([(0,), (1,)])


def blowup_polytope(delta=Fraction(1)):
    """Pentagon for the degree-(9 - 2*delta...) blow-up family: the square
    [-1, 2-delta]^2 with the corner above the antidiagonal cut off."""
    d = Fraction(delta)
    return build_polytope(
        [
            (-1, -1),
            (2 - d, -1),
            (2 - d, -1 + d),
            (-1 + d, 2 - d),
            (-1, 2 - d),
        ]
    )


def readme_pentagon():
    """The README pentagon: [-1, 1]^2 with the corner (1, 1) cut off to
    depth 1/2."""
    h = Fraction(1, 2)
    return build_polytope([(-1, -1), (1, -1), (1, -h), (-h, 1), (-1, 1)])


def donaldson_polytope():
    """Nine-vertex polygon with three corners of the triangle
    conv{(0,0), (4,0), (0,4)} - (1,1)-ish model cut by shallow slices;
    concretely the hull below with r = 3/10 and s = 17/5."""
    r = Fraction(3, 10)
    s = Fraction(17, 5)
    return build_polytope(
        [
            (1, 0),
            (0, 1),
            (r, r),
            (3, 1),
            (3, 0),
            (s, r),
            (0, 3),
            (1, 3),
            (r, s),
        ]
    )


UNIT_CUBE = [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)]
RATIONAL_SIMPLEX_3D = [
    (0, 0, 0),
    (Fraction(3, 2), 0, 0),
    (0, Fraction(5, 3), 0),
    (Fraction(1, 2), Fraction(1, 3), Fraction(7, 4)),
]
quarter = st.integers(-12, 12).map(lambda k: Fraction(k, 4))


@st.composite
def exact_polytopes(draw):
    """A segment or hexagon on the 1/4 grid of [-3, 3]^n, the unit cube,
    or a rational 3-simplex."""
    shape = draw(st.sampled_from(["segment", "hexagon", "cube", "simplex"]))
    if shape == "segment":
        pts = draw(st.lists(st.tuples(quarter), min_size=2, max_size=2))
    elif shape == "hexagon":
        pts = draw(st.lists(st.tuples(quarter, quarter), min_size=6, max_size=6))
    else:
        pts = UNIT_CUBE if shape == "cube" else RATIONAL_SIMPLEX_3D
    try:
        return build_polytope(pts)
    except DegenerateHull:
        assume(False)


def random_fraction(rng, span=3, denom=8):
    return Fraction(rng.randint(-span * denom, span * denom), denom)


def random_polytope(rng, npoints=None, span=3):
    """Full-dimensional random lattice-ish 2-D polytope."""
    while True:
        count = npoints or rng.randint(4, 7)
        pts = [
            (random_fraction(rng, span, 4), random_fraction(rng, span, 4))
            for _ in range(count)
        ]
        try:
            P = build_polytope(pts)
        except Exception:
            continue
        if P.dim == 2 and P.volume() > Fraction(1, 4):
            return P


def random_pa(rng, P, max_pieces=3, span=2, denom=6):
    """Random piecewise-affine convex function as a max of affine forms."""
    pieces = []
    for _ in range(rng.randint(1, max_pieces)):
        grad = tuple(random_fraction(rng, span, denom) for _ in range(P.dim))
        const = random_fraction(rng, span, denom)
        pieces.append(AffineForm(grad, const))
    return make_pa(pieces, P)


def random_vector(rng, dim, span=2):
    return tuple(random_fraction(rng, span, 8) for _ in range(dim))


def pa_from(P, *pieces):
    return make_pa([AffineForm(tuple(g), c) for g, c in pieces], P)


def float_eval(form):
    """Plain float evaluator for an affine form, for quadrature oracles."""
    gradient, constant = form.to_float()
    return lambda pt: sum(g * x for g, x in zip(gradient, pt)) + constant


def fd_futaki(P, xi, q0, lam):
    """First variation of mu_lambda along q_xi + t*q0 by finite
    differences: Richardson central steps when q0 is a single affine
    piece, one-sided Richardson otherwise (t*q0 is only convex for
    t >= 0 once q0 has kinks)."""
    import oracles

    qxi = AffineForm(tuple(-Fraction(c) for c in xi), 0)
    pieces = q0.pieces if hasattr(q0, "pieces") else [q0]

    def value(t):
        t = Fraction(t)  # exact binary value of the float step
        combined = make_pa(
            [
                AffineForm(
                    tuple(g + t * pg for g, pg in zip(qxi.gradient, p.gradient)),
                    t * p.constant,
                )
                for p in pieces
            ],
            P,
        )
        return mu_lambda(P, combined, lam)

    if len(pieces) == 1:
        return -oracles.central_derivative(value, h=1e-4)
    h = 1.5e-3
    f0 = value(0.0)

    def fwd(step):
        return (value(step) - f0) / step

    d1 = fwd(h)
    d2 = fwd(h / 2)
    d3 = fwd(h / 4)
    a = 2 * d2 - d1
    b = 2 * d3 - d2
    return -(4 * b - a) / 3
