import math
import re

import numpy as np
import pytest

import zswkb as z
from zswkb.errors import Collision, NoConvergence
from zswkb.turning import _turning_rows

from conftest import rng
from oracles import two_stage_turning_points

ATANH_HALF = math.atanh(0.5)


def test_monotone_real_roots(tanh_problem):
    pair = z.find_turning_points(tanh_problem, 1.0)
    assert pair.alpha == pytest.approx(-ATANH_HALF, abs=1e-10)
    assert pair.beta == pytest.approx(ATANH_HALF, abs=1e-10)
    assert pair.residual_alpha < 1e-12 * max(1.0, abs(pair.lam) ** 2)
    assert pair.residual_beta < 1e-12 * max(1.0, abs(pair.lam) ** 2)


def test_well_bottom_collision(well_problem):
    # lambda equals the well floor min A = 1: the pair merges at the origin
    with pytest.raises(Collision):
        z.find_turning_points(well_problem, 1.0)


def test_perturbed_pair_is_conjugate_reflected(well_problem):
    p = well_problem.with_(eps=0.05)
    pair = z.find_turning_points(p, 1.5)
    assert abs(pair.beta + pair.alpha.conjugate()) < 1e-10
    assert pair.residual_alpha < 1e-12 * max(1.0, abs(pair.lam) ** 2)
    assert pair.residual_beta < 1e-12 * max(1.0, abs(pair.lam) ** 2)
    assert pair.alpha.real < pair.beta.real


def test_real_lambda_keeps_real_roots(tanh_problem):
    pair = z.find_turning_points(tanh_problem, 1.15)
    assert abs(pair.alpha.imag) < 1e-12
    assert abs(pair.beta.imag) < 1e-12


def test_continuation_idempotent(tanh_problem):
    a = z.find_turning_points(tanh_problem, 1.0)
    b = z.find_turning_points(tanh_problem, 1.0)
    assert a.alpha == pytest.approx(b.alpha, abs=1e-12)
    assert a.beta == pytest.approx(b.beta, abs=1e-12)


def test_continuation_monotone_path(tanh_problem):
    lams = np.linspace(1.2, 1.8, 25)
    prob = tanh_problem.with_(delta=0.9)  # widen the window admission
    pairs = [z.find_turning_points(prob, lam) for lam in lams]
    alphas = np.array([p.alpha.real for p in pairs])
    betas = np.array([p.beta.real for p in pairs])
    assert np.all(np.diff(alphas) < 0)
    assert np.all(np.diff(betas) > 0)
    # closed form: -atanh(lam/2) and +atanh(lam/2)
    for lam, p in zip(lams, pairs):
        assert p.alpha == pytest.approx(-math.atanh(lam / 2.0), abs=1e-10)


def test_continuation_small_circle_returns(well_problem):
    lam0 = 1.5
    angles = np.linspace(0.0, 2 * np.pi, 41)
    pairs = [z.find_turning_points(well_problem, lam0 + 0.05 * np.exp(1j * a)) for a in angles]
    assert abs(pairs[0].alpha - pairs[-1].alpha) < 1e-10
    assert abs(pairs[0].beta - pairs[-1].beta) < 1e-10
    # neighbouring points on the circle never swap the two branches
    for prev, cur in zip(pairs[:-1], pairs[1:]):
        assert abs(cur.alpha - prev.alpha) < abs(cur.alpha - prev.beta)
        assert abs(cur.beta - prev.beta) < abs(cur.beta - prev.alpha)


def test_schwarz_pair_property(well_problem):
    # alpha_eps(conj lam) = -conj(beta_eps(lam)) under A even / B odd
    p = well_problem.with_(eps=0.05)
    r = rng(3)
    for _ in range(5):
        lam = complex(r.uniform(1.4, 1.6), r.uniform(-0.05, 0.05))
        pair = z.find_turning_points(p, lam)
        pair_c = z.find_turning_points(p, lam.conjugate())
        assert abs(pair_c.alpha + pair.beta.conjugate()) < 1e-10
        assert abs(pair_c.beta + pair.alpha.conjugate()) < 1e-10


def test_eps_to_zero_linear_rate(well_problem):
    lam = 1.55
    base = z.find_turning_points(well_problem, lam)
    eps_values = [1e-2, 1e-3, 1e-4]
    dists = []
    for eps in eps_values:
        p= well_problem.with_(eps=eps)
        pair = z.find_turning_points(p, lam)
        dists.append(abs(pair.alpha - base.alpha))
    slope = np.polyfit(np.log(eps_values), np.log(dists), 1)[0]
    assert slope >= 0.9


HOMOTOPY_PROBLEMS = {
    "well": z.Problem(z.well_even(), 1.5, 0.2, 0.05),
    "tanh": z.Problem(z.monotone_odd(), 1.0, 0.3, 0.05),
    "ctrl": z.Problem(z.custom([("const", 2.0), ("gauss", -1.0)], [("gauss", 1.0)]),
                      1.5, 0.2, 0.05),
    "well-3-2": z.Problem(z.well_even(3.0, 2.0), 2.0, 0.3, 0.05),
}


@pytest.mark.parametrize("eps", [0.05, 0.5, 1.2])
@pytest.mark.parametrize("name", sorted(HOMOTOPY_PROBLEMS))
def test_one_homotopy_path_matches_two_stage_reference(name, eps):
    # one path in (Im lambda, eps) together lands on the roots that continuing
    # first in Im lambda, then in eps, lands on; random lambda fill the window
    # rectangle
    p = HOMOTOPY_PROBLEMS[name].with_(eps=eps)
    r = rng(7)
    lams = (p.lambda0 + p.delta * r.uniform(-1.0, 1.0, 200)
            + 0.5j * p.delta * r.uniform(-1.0, 1.0, 200))
    ref = two_stage_turning_points(p, lams)
    pairs, errors = _turning_rows(p, lams)
    for pair, err, want in zip(pairs, errors, ref):
        if isinstance(want, Exception):
            assert type(err) is type(want)
        else:
            assert err is None
            assert abs(pair[0] - want[0]) < 1e-11
            assert abs(pair[1] - want[1]) < 1e-11


@pytest.mark.parametrize("eps", [0.0, 0.05, 0.5])
@pytest.mark.parametrize("name", sorted(HOMOTOPY_PROBLEMS))
def test_carried_pairs_match_a_fresh_continuation(name, eps):
    # one Newton stage from each row's pair at a nearby lambda lands where the
    # full homotopy from the A1 pair lands; half the window lambda are real.
    # Each path stops at the turning_residual test, about 1e-12 from the exact
    # root here, so the two agree to twice that
    p = HOMOTOPY_PROBLEMS[name].with_(eps=eps)
    r = rng(8)
    lams = (p.lambda0 + p.delta * r.uniform(-1.0, 1.0, 50)
            + 0.5j * p.delta * r.uniform(-1.0, 1.0, 50) * (np.arange(50) % 2))
    z_, errors = _turning_rows(p, lams)
    carried, carried_errors = _turning_rows(p, lams + 1e-3, z_)
    fresh, fresh_errors = _turning_rows(p, lams + 1e-3)
    assert errors == carried_errors == fresh_errors == [None] * len(lams)
    assert np.all(np.abs(carried - fresh) < 2e-12)


@pytest.mark.parametrize("name", ["well", "tanh"])
def test_newton_iterate_stops_at_the_cutoff(name):
    # above sup|A| = 2 the roots of A^2 - 2.5^2 are off the real axis, so the
    # real Newton iterate runs away along it; it stops before leaving the
    # A1 cutoff and names it, where it once ran out to |z| ~ 1e10
    p = HOMOTOPY_PROBLEMS[name].with_(h=0.1)
    with pytest.raises(NoConvergence, match=f"cutoff={p.cutoff}") as info:
        z.find_turning_points(p, 2.5)
    where = complex(re.search(r"z=\(([^)]*)\)", str(info.value)).group(1))
    assert abs(where.real) <= p.cutoff


def test_turning_newton_reports_a_stall():
    # a residual bound below rounding is never met, so the steps shrink below
    # turning_min_step with the residual still too large
    p = z.Problem(z.well_even(), 1.5, 0.2, 0.05,
                  tolerances=z.Tolerances(turning_residual=1e-30))
    with pytest.raises(NoConvergence, match="turning-point Newton stalled"):
        z.find_turning_points(p, 1.55)


def test_turning_newton_reports_a_vanishing_derivative():
    # A' = 0 at the well's bottom x = 0, so Newton cannot step from there
    p = z.Problem(z.well_even(), 1.5, 0.2, 0.05)
    _, (err,) = _turning_rows(p, [1.5], z=np.zeros((1, 2)))
    assert isinstance(err, NoConvergence)
    assert str(err).startswith("vanishing derivative at z=")
