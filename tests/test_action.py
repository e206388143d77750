import math

import numpy as np
import pytest

import zswkb as z
from zswkb.action import _continued_sqrt
from zswkb.errors import BranchAmbiguity, DegenerateSegment, SymmetryRequired

from conftest import rng

# Golden values for the monotone family A = 2 tanh x at eps = 0, computed with
# the brute-force oracle below (1e6-node trapezoid on the cos-substituted
# integrand) and cross-checked against 30-digit adaptive quadrature.
GOLD_I_AT_1 = 0.8417872144769329
GOLD_I_AT_1_MINUS = 0.8417854006787779   # lambda = 1 - 1e-6
GOLD_I_AT_1_PLUS = 0.8417890282775064    # lambda = 1 + 1e-6


def brute_force_action(lam: float, n: int = 1_000_000) -> float:
    """Independent oracle: trapezoid rule in theta for the tanh-family action."""
    half = math.atanh(lam / 2.0)
    theta = np.linspace(0.0, np.pi, n + 1)
    t = half * np.cos(theta)
    g2 = np.clip(lam * lam - 4.0 * np.tanh(t) ** 2, 0.0, None)
    integrand = np.sqrt(g2) * half * np.sin(theta)
    return float(np.trapezoid(integrand, theta))


def test_brute_force_oracle_reproduces_goldens():
    assert brute_force_action(1.0) == pytest.approx(GOLD_I_AT_1, abs=2e-13)
    assert brute_force_action(1.0 - 1e-6) == pytest.approx(GOLD_I_AT_1_MINUS, abs=2e-13)
    assert brute_force_action(1.0 + 1e-6) == pytest.approx(GOLD_I_AT_1_PLUS, abs=2e-13)


def test_action_against_golden(tanh_problem):
    act = z.action_integral(tanh_problem, 1.0)
    assert act.value.real == pytest.approx(GOLD_I_AT_1, abs=1e-12)
    assert abs(act.value.imag) < 1e-12
    assert act.quad_error_estimate < 1e-10 * max(1.0, abs(act.value))
    assert act.nodes_used <= 4096


def test_derivative_matches_golden_finite_difference(tanh_problem):
    act = z.action_integral(tanh_problem, 1.0)
    fd = (GOLD_I_AT_1_PLUS - GOLD_I_AT_1_MINUS) / 2e-6
    assert act.dvalue_dlambda.real == pytest.approx(fd, rel=1e-6)
    assert act.dvalue_dlambda.real > 0
    assert abs(act.dvalue_dlambda.imag) < 1e-10


def test_action_positive_real_on_window(well_problem):
    for lam in (1.35, 1.5, 1.65):
        act = z.action_integral(well_problem, lam)
        assert act.value.real > 0
        assert abs(act.value.imag) < 1e-10


def test_action_vanishes_toward_well_bottom(well_problem):
    act = z.action_integral(well_problem, 1.0 + 1e-4)
    assert 0 < act.value.real < 1e-3
    with pytest.raises(DegenerateSegment):
        z.action_integral(well_problem, 1.0)


def test_monotonicity_on_real_window(well_problem):
    lams = np.linspace(1.3, 1.7, 9)
    vals = [z.action_integral(well_problem, lam).value.real for lam in lams]
    assert np.all(np.diff(vals) > 0)


def test_derivative_consistency_random_points(well_problem):
    # the derivative rule against a central difference of the value rule
    r = rng(21)
    step = 1e-6
    for _ in range(10):
        lam = complex(r.uniform(1.35, 1.65), r.uniform(-0.05, 0.05))
        dv = z.action_integral(well_problem, lam).dvalue_dlambda
        plus = z.action_integral(well_problem, lam + step).value
        minus = z.action_integral(well_problem, lam - step).value
        fd = (plus - minus) / (2.0 * step)
        assert abs(fd - dv) <= 1e-6 * max(1.0, abs(dv))


def test_schwarz_symmetry_real_lambda(well_problem):
    p = well_problem.with_(eps=0.03)
    assert z.check_schwarz_symmetry(p, 1.5) < 1e-10


def test_schwarz_symmetry_complex_lambda(well_problem, tanh_problem):
    for prob, lam in ((well_problem, 1.5 + 0.02j), (tanh_problem, 1.0 + 0.02j)):
        p = prob.with_(eps=0.05)
        assert z.check_schwarz_symmetry(p, lam) < 1e-10


def test_schwarz_defect_for_asymmetric_control():
    ctrl = z.custom([("const", 2.0), ("gauss", -1.0)], [("gauss", 1.0)])
    p = z.Problem(ctrl, 1.5, 0.2, 0.05, eps=0.05)
    with pytest.raises(SymmetryRequired):
        z.check_schwarz_symmetry(p, 1.5 + 0.02j)
    defect = z.check_schwarz_symmetry(p, 1.5 + 0.02j, require_symmetry=False)
    assert defect > 1e-4


def test_branch_consistency_under_node_doubling(well_problem):
    # doubling the node floor must not flip the sign of Re(value)
    tol = well_problem.tolerances
    doubled = well_problem.with_(tolerances=z.Tolerances(
        **{**tol.as_dict(), "quad_min_nodes": 64}))
    for lam in (1.35, 1.62):
        a = z.action_integral(well_problem, lam)
        b = z.action_integral(doubled, lam)
        assert a.value.real > 0 and b.value.real > 0
        assert abs(a.value - b.value) < 1e-11


def test_continued_sqrt_flags_interior_zero():
    # values cross zero: the root turns by a right angle, neither sign continues
    w = np.array([0.04, 0.01, 1e-18, -0.01, -0.04], dtype=complex)
    with pytest.raises(BranchAmbiguity):
        _continued_sqrt(w, 0)


def test_continued_sqrt_follows_smooth_branch():
    theta = np.linspace(0.0, 1.5 * np.pi, 60)
    w = np.exp(1j * theta)  # crosses the principal cut near theta = pi
    s = _continued_sqrt(w, 0)
    expected = np.exp(0.5j * theta)
    assert np.max(np.abs(s - expected)) < 1e-12
