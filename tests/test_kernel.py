"""Divided-difference kernel: both backends against a 50-digit oracle.

The kernel feeds every integral in the package, so it gets the heaviest
randomized coverage.  Expected values come from oracles.mp_ddexp, an
independent confluent-recurrence implementation in mpmath.  The Python
kernel is also pinned bit for bit to oracles.ddexp_full_table, the same
algorithm computing its whole seed table, its straight-line series to
the generic series loop _dd_series, and its straight-line squarings of
small tables to _square_upper.
"""

import math
import random
import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from toricmu import KERNEL_BACKEND, _ddexp_py

BACKENDS = [pytest.param(_ddexp_py.ddexp, id="python")]
try:
    from toricmu import _ddexp as _ddexp_cy

    BACKENDS.append(pytest.param(_ddexp_cy.ddexp, id="cython"))
except ImportError:
    pass


@pytest.fixture(params=BACKENDS)
def ddexp(request):
    return request.param


def test_backend_marker_consistent():
    assert KERNEL_BACKEND in ("python", "cython")
    if len(BACKENDS) == 2:
        assert KERNEL_BACKEND == "cython"


def test_single_node_is_exp(ddexp):
    for x in (-3.0, 0.0, 0.25, 7.5):
        assert ddexp([x]) == pytest.approx(math.exp(x), rel=1e-15)


def test_two_distinct_nodes(ddexp):
    assert ddexp([1.0, 0.0]) == pytest.approx(math.e - 1.0, rel=1e-14)
    assert ddexp([0.0, 1.0]) == pytest.approx(math.e - 1.0, rel=1e-14)
    a, b = -0.75, 2.5
    expected = (math.exp(b) - math.exp(a)) / (b - a)
    assert ddexp([a, b]) == pytest.approx(expected, rel=1e-14)


def test_symmetric_nodes_not_truncated(ddexp):
    # Centered node sets zero out alternate series terms; a premature
    # small-term break here would return exp(0.5) instead of 2*sinh(0.5).
    assert ddexp([0.5, -0.5]) == pytest.approx(2.0 * math.sinh(0.5), rel=1e-14)
    assert ddexp([2.0, -2.0, 0.0]) == pytest.approx(
        oracles.mp_ddexp([2.0, -2.0, 0.0]), rel=1e-13
    )


def test_confluent_nodes(ddexp):
    for x in (-1.5, 0.0, 2.0):
        assert ddexp([x, x]) == pytest.approx(math.exp(x), rel=1e-14)
        assert ddexp([x, x, x]) == pytest.approx(math.exp(x) / 2.0, rel=1e-14)
    assert ddexp([1.0, 1.0, 0.0]) == pytest.approx(
        oracles.mp_ddexp([1.0, 1.0, 0.0]), rel=1e-13
    )


def test_random_batches_match_oracle(ddexp):
    rng = random.Random(1105)
    for trial in range(120):
        size = rng.randint(2, 12)
        spread = rng.choice([0.3, 2.0, 10.0, 40.0])
        nodes = [rng.uniform(-spread, spread) for _ in range(size)]
        if trial % 3 == 0:
            nodes[rng.randrange(size)] = nodes[0]
        got = ddexp(nodes)
        want = oracles.mp_ddexp(nodes)
        assert got == pytest.approx(want, rel=1e-12), nodes


def test_wide_spread(ddexp):
    nodes = [0.0, 50.0]
    assert ddexp(nodes) == pytest.approx(oracles.mp_ddexp(nodes), rel=1e-12)
    nodes = [-120.0, -80.0, -100.0]
    assert ddexp(nodes) == pytest.approx(oracles.mp_ddexp(nodes), rel=1e-12)


def test_overflow_returns_inf(ddexp):
    assert ddexp([800.0, 799.0]) == math.inf
    assert ddexp([1000.0]) == math.inf


def test_permutation_insensitive(ddexp):
    rng = random.Random(7)
    nodes = [rng.uniform(-5, 5) for _ in range(6)]
    base = ddexp(nodes)
    for _ in range(10):
        rng.shuffle(nodes)
        assert ddexp(nodes) == pytest.approx(base, rel=1e-13)


def test_mean_value_bounds(ddexp):
    # exp[x_0..x_k] = exp(theta) / k! for some theta in [min, max].
    rng = random.Random(99)
    for _ in range(60):
        size = rng.randint(1, 9)
        nodes = [rng.uniform(-8, 8) for _ in range(size)]
        value = ddexp(nodes)
        k = size - 1
        lo = math.exp(min(nodes)) / math.factorial(k)
        hi = math.exp(max(nodes)) / math.factorial(k)
        assert lo * (1 - 1e-12) <= value <= hi * (1 + 1e-12)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.floats(min_value=-30, max_value=30, allow_nan=False),
        min_size=1,
        max_size=8,
    ),
    st.booleans(),
)
def test_property_matches_oracle(nodes, duplicate_first):
    if duplicate_first and len(nodes) > 1:
        nodes = nodes + [nodes[0]]
    for kernel in (p.values[0] for p in BACKENDS):
        assert kernel(nodes) == pytest.approx(
            oracles.mp_ddexp(nodes), rel=1e-11, abs=1e-300
        )


def test_backends_agree():
    if len(BACKENDS) < 2:
        pytest.skip("compiled backend unavailable")
    py, cy = (p.values[0] for p in BACKENDS)
    rng = random.Random(2024)
    for _ in range(200):
        nodes = [rng.uniform(-20, 20) for _ in range(rng.randint(1, 10))]
        assert cy(nodes) == pytest.approx(py(nodes), rel=1e-13)


def _bits(x):
    # every NaN compares as NaN; every other float by its exact bits
    return "nan" if math.isnan(x) else struct.pack("<d", x)


HALF_UP = math.nextafter(0.5, math.inf)
SPREADS = [0.25, 0.5, HALF_UP, 1.0, math.nextafter(1.0, math.inf), 3.0]
BASES = [0.0, -0.0, 3.0, 708.0, 709.0, 709.5, 712.0, 800.0, -708.0, -745.0, -760.0]


@st.composite
def kernel_nodes(draw):
    """Node lists of 1-8 nodes at every scaling depth the kernel takes.

    Four shapes: free nodes around a base, centered symmetric nodes whose
    spread is exactly a K boundary, the simplex-with-confluent-pair shape
    avals + [a_i, a_j] of the weighted moments, and signed zeros."""
    shape = draw(st.sampled_from(["free", "symmetric", "confluent", "zeros"]))
    m = draw(st.integers(1, 8))
    if shape == "zeros":
        return draw(st.lists(st.sampled_from([0.0, -0.0]), min_size=m, max_size=m))
    base = draw(
        st.one_of(st.sampled_from(BASES), st.floats(-40.0, 40.0, allow_nan=False))
    )
    if shape == "symmetric":
        # mean exactly 0, so the centered nodes are exactly +-t and 0
        t = draw(st.sampled_from(SPREADS))
        return [-t, t] + [0.0] * max(0, m - 2)
    spread = draw(
        st.one_of(
            st.sampled_from(SPREADS),
            st.floats(0.0, 0.5),
            st.floats(0.5, 1.0),
            st.floats(1.0, 60.0),
        )
    )
    units = st.floats(-1.0, 1.0)
    if shape == "free":
        return [base + spread * u for u in draw(st.lists(units, min_size=m, max_size=m))]
    avals = [
        base + spread * u
        for u in draw(st.lists(units, min_size=max(1, m - 2), max_size=max(1, m - 2)))
    ]
    i = draw(st.integers(0, len(avals) - 1))
    j = draw(st.integers(0, len(avals) - 1))
    return avals + [avals[i], avals[j]]


@settings(max_examples=600, deadline=None)
@given(kernel_nodes())
@example([-0.5, 0.5])
@example([-HALF_UP, HALF_UP])
@example([-0.5, 0.5, 0.0, 0.0])
@example([-HALF_UP, HALF_UP, 0.0, 0.0, 0.0])
@example([0.0, -0.0])
@example([-0.0, -0.0, -0.0])
@example([-0.0])
@example([709.0, 709.5, 708.75])
@example([710.0, 712.0, 711.0, 710.0])
@example([-745.0, -744.0, -746.5])
@example([800.0, 799.0])
@example([0.3, -1.7, 2.4, 0.3, -1.7])
# three nodes (_ddexp3) at K = 0, 1 and >= 2
@example([0.1, -0.2, 0.3])  # K = 0
@example([0.0, -0.0, 0.0])  # K = 0, signed zeros
@example([0.25, -0.1, 0.25])  # K = 0, a repeated node
@example([0.59375, -0.515625, -0.015625])  # K = 1
@example([-0.3125, -0.3125, 0.53125])  # K = 1, a repeated node
@example([-0.0, 1.2, -0.0])  # K = 1, repeated signed zeros
@example([1.5, -1.5, 0.2])  # K = 2
@example([-0.0, 3.0, -0.0])  # K >= 2, repeated signed zeros
@example([710.0, 712.5, 709.0])  # past 709: exp of the centre is inf
@example([-400.0, 400.0, -0.0])  # spread 800
@example([0.0, 800.0, 800.0])  # spread 800, a repeated node
@example([math.nan, 0.25, 1.0])
@example([0.5, math.nan, 3.0])
@example([math.inf, 0.0, 1.0])
@example([-math.inf, 2.0, 2.0])
@example([math.inf, -math.inf, 0.0])
def test_python_kernel_bit_identical_to_full_table(nodes):
    """The kernel fills only the seed entries its corner reads, summed in
    the same order as the whole-table kernel, so every result has the same
    bits."""
    assert _bits(_ddexp_py.ddexp(nodes)) == _bits(oracles.ddexp_full_table(nodes))


@pytest.mark.parametrize(
    "nodes, series_calls",
    [
        ([0.1, -0.2, 0.3, 0.0], 1),  # K = 0: only the corner series
        ([0.8, -0.8, 0.1, -0.1], 5),  # K = 1: row 0 and column 3, 2m - 3
        ([1.5, -1.5, 0.2, -0.2], 6),  # K = 2: the whole strict upper triangle
    ],
)
def test_python_kernel_series_per_depth(monkeypatch, nodes, series_calls):
    calls = []
    series = _ddexp_py._series

    def counting(x):
        calls.append(len(x))
        return series(x)

    monkeypatch.setattr(_ddexp_py, "_series", counting)
    assert _bits(_ddexp_py.ddexp(nodes)) == _bits(oracles.ddexp_full_table(nodes))
    assert len(calls) == series_calls


def _series_nodes(n):
    return st.lists(st.floats(-0.5, 0.5), min_size=n, max_size=n)


@settings(max_examples=800, deadline=None)
@given(st.integers(2, 5).flatmap(_series_nodes))
@example([0.0, -0.0])
@example([-0.0, 0.0, -0.0])
@example([-0.0, -0.0, -0.0, -0.0, -0.0])
@example([0.5, -0.5])
@example([-0.5, 0.5, -0.5, 0.5])
@example([0.5, 0.5, 0.5, 0.5, 0.5])
@example([-0.5, -0.5, -0.5])
@example([0.0, 0.0])  # all-zero nodes: terms 1 and 2 are 0, stop at k = 2
@example([0.0, 0.0, 0.0, 0.0, 0.0])
@example([math.nan, 0.25])  # NaN terms are never small: all 59 terms
@example([0.1, -0.2, math.nan, 0.3])
@example([0.5, math.nan, -0.5, 0.0, 0.5])
def test_straight_line_series_bit_identical_to_loop(x):
    """The unrolled series for 2-5 nodes make the same float operations as
    the generic _dd_series loop, and stop at the same term."""
    assert _bits(_ddexp_py._STRAIGHT[len(x)](x)) == _bits(_ddexp_py._dd_series(x))


@st.composite
def squared_nodes(draw):
    """2-5 nodes whose spread takes the kernel to scaling depth K = 0..12,
    with repeated nodes and signed zeros."""
    m = draw(st.integers(2, 5))
    K = draw(st.integers(0, 12))
    spread = draw(st.sampled_from([0.5, HALF_UP]) | st.floats(0.25, 0.5)) * 2.0**K
    base = draw(st.sampled_from([0.0, -0.0, 1.5, -30.0, 700.0]))
    nodes = [
        base + spread * u
        for u in draw(st.lists(st.floats(-1.0, 1.0), min_size=m, max_size=m))
    ]
    for i in range(m):
        pick = draw(st.sampled_from(["keep"] * 4 + ["repeat", "zero", "negzero"]))
        if pick == "repeat":
            nodes[i] = nodes[draw(st.integers(0, m - 1))]
        elif pick != "keep":
            nodes[i] = 0.0 if pick == "zero" else -0.0
    return nodes


@settings(max_examples=600, deadline=None)
@given(squared_nodes())
@example([0.0, -0.0])
@example([-0.0, -0.0])
@example([3000.0, -1000.0])
@example([1.0, 1.0])
@example([-0.0, 2047.0, -0.0, 2047.0])
@example([0.0, -0.0, 5.0, -5.0, 0.0])
@example([-0.0, 0.0, 2047.0])  # three nodes, K = 12
@example([3000.0, -1000.0, 3000.0])  # three nodes, a repeated node
def test_two_node_and_straight_line_squarings_match_generic_path(nodes):
    """The two- and three-node paths and the straight-line squarings of
    3 x 3 and 4 x 4 tables give the bits of the generic path, which squares
    the whole table with _square_upper (oracles.ddexp_full_table)."""
    assert _bits(_ddexp_py.ddexp(nodes)) == _bits(oracles.ddexp_full_table(nodes))


def _upper_tables(m):
    entry = st.sampled_from([0.0, -0.0, 1.0, 0.5]) | st.floats(-2.0, 2.0)
    return st.lists(entry, min_size=m * m, max_size=m * m).map(
        lambda flat: [
            [flat[i * m + j] if j >= i else 0.0 for j in range(m)] for i in range(m)
        ]
    )


@settings(max_examples=300, deadline=None)
@given(st.integers(3, 4).flatmap(_upper_tables), st.integers(0, 11))
def test_straight_line_corner_matches_square_upper(B, squarings):
    """_corner3 and _corner4 square in the order _square_upper does: each
    entry from 0.0, adding B[i][k] * B[k][j] with k ascending."""
    table = B
    for _ in range(squarings):
        table = _ddexp_py._square_upper(table)
    expected = _ddexp_py._corner_of_square(table)
    corner = {3: _ddexp_py._corner3, 4: _ddexp_py._corner4}[len(B)]
    assert _bits(corner(B, squarings)) == _bits(expected)
