"""Optimizers over proper vectors and rays, plus the cross-checked
Calabi supremum wrapper."""

import math
from fractions import Fraction

import pytest

import oracles
import support
import toricmu.integrate
from toricmu import (
    MaxIterExceeded,
    ValidationFailure,
    calabi,
    maximize_along_ray,
    maximize_over_vectors,
    mu_star,
    normalized_df,
)
from toricmu.optimize import _bfgs_ascent, _Objective, default_seeds
from toricmu.paconvex import AffineForm


def test_segment_maximum_at_origin():
    P = support.unit_segment()
    res = maximize_over_vectors(P)
    assert res.status == "converged"
    assert abs(res.xi[0]) <= 1e-6
    assert res.value == pytest.approx(-4.0 * math.pi, abs=1e-8)
    assert res.gradient_norm <= 1e-8


def test_square_maximum_at_origin():
    P = support.unit_square()
    res = maximize_over_vectors(P)
    assert res.value == pytest.approx(-8.0 * math.pi, abs=1e-7)
    assert max(abs(c) for c in res.xi) <= 1e-5


def test_blowup_interior_maximizer():
    B = support.blowup_polytope()
    res = maximize_over_vectors(B)
    assert res.status == "converged"
    # symmetric interior maximizer strictly away from the origin
    assert res.xi[0] == pytest.approx(res.xi[1], abs=1e-6)
    assert abs(res.xi[0]) > 0.05
    assert res.value > mu_star(B, None, rho=0.0) + 1e-6
    x_star, ray_value = maximize_along_ray(B, (-1, -1))
    assert ray_value == pytest.approx(res.value, rel=1e-9)
    assert x_star == pytest.approx(-res.xi[0], abs=1e-5)


def test_trace_is_monotone():
    B = support.blowup_polytope()
    res = maximize_over_vectors(B)
    assert len(res.trace) >= 2
    values = [value for _, value in res.trace]
    assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))
    assert values[-1] == pytest.approx(res.value, abs=1e-12)


def test_ray_even_directions_agree():
    P = support.unit_square()
    x1, v1 = maximize_along_ray(P, (1, 0))
    x2, v2 = maximize_along_ray(P, (-1, 0))
    assert v1 == pytest.approx(v2, rel=1e-10)
    assert abs(x1) <= 1e-6 and abs(x2) <= 1e-6
    assert v1 == pytest.approx(-8.0 * math.pi, abs=1e-8)


def test_positive_lambda_needs_box():
    P = support.unit_square()
    with pytest.raises(ValueError):
        maximize_over_vectors(P, lam=0.5)
    res = maximize_over_vectors(P, lam=0.5, box=((-2, 2), (-2, 2)))
    assert res.status in ("converged", "boundary-hit")


def test_max_iter_exhaustion_raises():
    B = support.blowup_polytope()
    with pytest.raises(MaxIterExceeded):
        maximize_over_vectors(B, gtol=1e-15, max_iter=1)


def test_default_seeds_cover_axes():
    seeds = default_seeds(2)
    assert (0.0, 0.0) in seeds
    assert (1.0, 0.0) in seeds and (0.0, -1.0) in seeds
    assert len(seeds) == 7


def test_default_seeds_are_distinct_in_dimension_one():
    assert default_seeds(1) == [(0.0,), (1.0,), (-1.0,)]


def test_non_finite_lambda_rejected():
    P = support.unit_segment()
    pentagon = support.readme_pentagon()
    for lam in (math.nan, -math.inf, math.inf):
        with pytest.raises(ValueError):
            maximize_over_vectors(P, lam=lam, box=((-1, 1),))
        with pytest.raises(ValueError):
            maximize_along_ray(P, (1,), lam=lam)
        with pytest.raises(ValueError):
            maximize_along_ray(pentagon, (1, 1), lam=lam)


def test_objective_caches_match_uncached_oracle():
    P = support.readme_pentagon()
    points = [
        (0.3, -0.2),
        (0.0, 0.25),
        (-0.0, 0.25),
        (0.3, -0.2),
        (0.0, -0.0),
        (-0.0, 0.0),
        (0.0, 0.25),
    ]
    for lam in (0.0, -0.5):
        obj = _Objective(P, lam)
        ref = oracles.UncachedObjective(P, lam)
        # value before value_grad, value_grad before value, and revisits
        for x in points + points[::-1]:
            assert obj.value(x) == ref.value(x)
            assert obj.value_grad(x) == ref.value_grad(x)
        for x in points[::-1]:
            assert obj.value_grad(x) == ref.value_grad(x)
            assert obj.value(x) == ref.value(x)
        # points that differ only in the sign of a zero are kept apart
        assert len(obj._abc_at) == 5


def test_objective_gradient_is_a_fresh_list():
    P = support.readme_pentagon()
    obj = _Objective(P, -0.5)
    value, grad = obj.value_grad((0.1, 0.2))
    expected = list(grad)
    grad[0] = 99.0
    grad.append(1.0)
    assert obj.value_grad((0.1, 0.2)) == (value, expected)


def test_objective_kernel_calls(monkeypatch):
    """Each distinct divided difference is computed once per call: on the
    README pentagon (3 triangles, 5 edges) the value needs 3 + 5 and the
    gradient's direction moments 6 + 13 more at lam = 0, where C and C_i
    are skipped, and 3 + 5 + 9 and 10 + 18 + 9 more otherwise.  A revisited
    point reuses its moments and recomputes the direction moments."""
    calls = []
    kernel = toricmu.integrate.ddexp

    def counting(nodes):
        calls.append(len(nodes))
        return kernel(nodes)

    monkeypatch.setattr(toricmu.integrate, "ddexp", counting)

    def count(call, x):
        del calls[:]
        call(x)
        return len(calls)

    for lam, expected in ((0.0, (27, 8, 19, 0, 19)), (-0.5, (45, 17, 37, 0, 37))):
        obj = _Objective(support.readme_pentagon(), lam)
        assert (
            count(obj.value_grad, (0.3, -0.2)),
            count(obj.value, (0.1, 0.2)),
            count(obj.value_grad, (0.1, 0.2)),
            count(obj.value, (0.3, -0.2)),
            count(obj.value_grad, (0.3, -0.2)),
        ) == expected


@pytest.mark.parametrize("max_iter", [40, 500])
def test_bfgs_matches_every_iteration_oracle(max_iter):
    """Leaving a run at a step that rounds away changes no output: the P5
    seeds (1, 0) and (0, 1) stall there, (0, 0) converges."""
    P = support.readme_pentagon()
    for seed in ((1.0, 0.0), (0.0, 1.0), (0.0, 0.0)):
        obj = _Objective(P, 0.0)
        ref = oracles.bfgs_ascent_every_iteration(
            _Objective(P, 0.0), list(seed), 1e-8, max_iter, None
        )
        res = _bfgs_ascent(obj, list(seed), 1e-8, max_iter, None)
        assert tuple(res) == ref


def test_stalled_seed_stops_at_its_fixed_point():
    """A stalled P5 seed evaluates the objective 66 times, not once per
    line-search probe of every remaining iteration (14,766 times)."""
    calls = []

    class Counting(_Objective):
        def value(self, xi):
            calls.append(xi)
            return _Objective.value(self, xi)

    P = support.readme_pentagon()
    res = _bfgs_ascent(Counting(P, 0.0), [1.0, 0.0], 1e-8, 500, None)
    assert res.status == "max-iter"
    assert len(res.trace) == 501
    assert len(calls) < 500


def test_normalized_df_matches_calabi():
    B = support.blowup_polytope()
    q0 = AffineForm((1, 1), 0)
    rep = normalized_df(B, q0)
    direct = calabi(B, q0)
    assert rep == direct


def test_normalized_df_guard_trips(monkeypatch):
    import toricmu.optimize as opt

    B = support.blowup_polytope()
    q0 = AffineForm((1, 1), 0)
    honest = calabi(B, q0)
    corrupted = honest._replace(sup_value=honest.sup_value + 1.0)
    monkeypatch.setattr(opt, "calabi", lambda P, q: corrupted)
    with pytest.raises(ValidationFailure):
        normalized_df(B, q0)


class _Downhill:
    """An objective whose value never rises above its start, whatever the
    step: the Armijo search has nothing to accept."""

    def __init__(self, P=None, lam=0.0):
        pass

    def value(self, xi):
        return -1.0

    def value_grad(self, xi):
        return 0.0, [1.0, 0.0]


def test_failed_line_search_has_its_own_status(monkeypatch):
    import toricmu.optimize as opt

    res = _bfgs_ascent(_Downhill(), [0.0, 0.0], 1e-8, 500, None)
    assert res.status == "line-search-failed"
    assert len(res.trace) == 1
    # unfinished, as a max-iter run is: no seed is chosen
    monkeypatch.setattr(opt, "_Objective", _Downhill)
    with pytest.raises(MaxIterExceeded):
        maximize_over_vectors(support.unit_square())
