"""Action integral between turning points and its lambda-derivative.

The integrand sqrt(lambda^2 - A_eps(t)^2) vanishes like a square root at both
endpoints, so the straight segment alpha -> beta is parametrized as
t = m + r*cos(theta); Chebyshev-Gauss nodes in theta absorb the endpoint
behavior and converge spectrally for simple turning points.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (BranchAmbiguity, Collision, DegenerateSegment,
                     QuadratureNoConvergence, SymmetryRequired)
from .potential import SymmetryClass, eval_potential
from .problem import Problem, symmetry_class
from .turning import TurningPointPair, find_turning_points


@dataclass(frozen=True)
class ActionValue:
    """Converged quadrature value with its derivative and error bookkeeping."""

    value: complex
    dvalue_dlambda: complex
    quad_error_estimate: float
    nodes_used: int


def _continued_sqrt(w: np.ndarray, anchor: int) -> np.ndarray:
    """Square roots of w continued by sign from the principal root at ``anchor``.

    Raises BranchAmbiguity when consecutive continued values turn by close to
    a right angle, i.e. when neither sign choice follows the branch smoothly.
    """
    s = np.sqrt(w)
    out = s.copy()
    n = len(s)

    def propagate(indices):
        prev = out[anchor]
        for i in indices:
            cur = s[i]
            dot = (cur * prev.conjugate()).real
            if dot < 0.0:
                cur = -cur
                dot = -dot
            denom = abs(cur) * abs(prev)
            if denom == 0.0 or dot < 1e-6 * denom:
                raise BranchAmbiguity(
                    "square-root phase jump exceeds pi/2 between contour nodes")
            out[i] = cur
            prev = cur

    propagate(range(anchor + 1, n))
    propagate(range(anchor - 1, -1, -1))
    return out


def _integrand_roots(problem: Problem, t: np.ndarray, lam: complex) -> np.ndarray:
    """Branch-tracked sqrt(lambda^2 - A_eps(t)^2) along contour nodes t.

    Anchored at the node nearest the segment midpoint, where the principal
    root is the positive one for eps = 0 and real lambda in the window.
    """
    a, _ = eval_potential(problem.potential, t, problem.eps)
    w = lam * lam - a * a
    anchor = len(t) // 2
    return _continued_sqrt(w, anchor)


def _quad_value(problem: Problem, pair: TurningPointPair, lam: complex, n: int) -> complex:
    """Chebyshev-Gauss (2nd kind) rule for the action over the straight segment."""
    m = 0.5 * (pair.alpha + pair.beta)
    r = 0.5 * (pair.beta - pair.alpha)
    theta = np.arange(1, n + 1) * np.pi / (n + 1)
    t = m + r * np.cos(theta)
    g = _integrand_roots(problem, t, lam)
    return (np.pi * r / (n + 1)) * np.sum(np.sin(theta) * g)


def _quad_derivative(problem: Problem, pair: TurningPointPair, lam: complex, n: int) -> complex:
    """Chebyshev-Gauss (1st kind) rule for d/dlambda; endpoint terms vanish."""
    m = 0.5 * (pair.alpha + pair.beta)
    r = 0.5 * (pair.beta - pair.alpha)
    theta = (2.0 * np.arange(1, n + 1) - 1.0) * np.pi / (2 * n)
    t = m + r * np.cos(theta)
    g = _integrand_roots(problem, t, lam)
    return (np.pi * r * lam / n) * np.sum(np.sin(theta) / g)


def _doubling(problem: Problem, rule, pair, lam, budget: float):
    tol = problem.tolerances
    n = tol.quad_min_nodes
    prev = rule(problem, pair, lam, n)
    best = None
    while n <= tol.quad_max_nodes // 2:
        n *= 2
        cur = rule(problem, pair, lam, n)
        err = abs(cur - prev)
        if err < tol.quad_rel * max(1.0, abs(cur)):
            return cur, err, n
        if best is None or err < best[1]:
            best = (cur, err, n)
        prev = cur
    # near-degenerate segments floor out on roundoff before the doubling
    # criterion; accept the plateau if it is inside the error budget
    if best is not None and best[1] < budget * max(1.0, abs(best[0])):
        return best
    raise QuadratureNoConvergence(
        f"no convergence at {tol.quad_max_nodes} nodes for lambda={lam}")


def turning_pair(problem: Problem, lam: complex) -> TurningPointPair:
    """Turning points for the action contour; a Collision means no segment exists."""
    try:
        pair = find_turning_points(problem, lam)
    except Collision as exc:
        raise DegenerateSegment(str(exc)) from exc
    if abs(pair.beta - pair.alpha) < problem.tolerances.collision:
        raise DegenerateSegment(f"|beta - alpha| < {problem.tolerances.collision}")
    return pair


def action_integral(problem: Problem, lam: complex,
                    pair: TurningPointPair | None = None) -> ActionValue:
    """Integral of sqrt(lambda^2 - A_eps^2) over the straight segment alpha -> beta.

    Positive on the real window at eps = 0. Nodes double from the configured
    minimum until two successive values agree to the relative tolerance.
    """
    lam = complex(lam)
    if pair is None:
        pair = turning_pair(problem, lam)
    value, err, n = _doubling(problem, _quad_value, pair, lam,
                              problem.tolerances.quad_err_budget)
    # the derivative integrand has inverse square roots at the endpoints and a
    # harsher roundoff floor near segment collapse; its Newton consumers only
    # need ~1e-6, so its plateau budget is looser than the value's
    dvalue, _, _ = _doubling(problem, _quad_derivative, pair, lam, 1e-7)
    return ActionValue(complex(value), complex(dvalue), float(err), n)


def check_schwarz_symmetry(problem: Problem, lam: complex,
                           require_symmetry: bool = True) -> float:
    """|conj(I(conj lambda, eps)) - I(lambda, eps)|, zero under PT-like symmetry.

    With ``require_symmetry`` the call refuses potentials without a parity
    pairing; pass False to measure the defect of an asymmetric control.
    """
    if require_symmetry and symmetry_class(problem) is SymmetryClass.NONE:
        raise SymmetryRequired("potential pair has no PT-like parity pairing")
    lam = complex(lam)
    left = action_integral(problem, lam.conjugate()).value.conjugate()
    right = action_integral(problem, lam).value
    return abs(left - right)
