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
    nodes_used: int  # nodes of the last rule evaluated


def _continued_sqrt(w: np.ndarray, anchor: int) -> np.ndarray:
    """Square roots of w continued by sign from the principal root at ``anchor``.

    Neighbouring principal roots whose product has a negative real part turn
    by more than a right angle; each such pair flips the sign of the branch,
    and the flips accumulate outward from the anchor. Raises BranchAmbiguity
    when some neighbouring roots turn by close to a right angle, i.e. when
    neither sign choice follows the branch smoothly.
    """
    s = np.sqrt(w)
    dot = (s[1:] * s[:-1].conjugate()).real
    denom = np.abs(s[1:]) * np.abs(s[:-1])
    if np.any((denom == 0.0) | (np.abs(dot) < 1e-6 * denom)):
        raise BranchAmbiguity(
            "square-root phase jump exceeds pi/2 between contour nodes")
    sign = np.cumprod(np.concatenate(([1.0], np.where(dot < 0.0, -1.0, 1.0))))
    return np.where(sign == sign[anchor], s, -s)


def _rule(problem: Problem, pair: TurningPointPair, lam: complex, n: int) -> np.ndarray:
    """Midpoint rule in theta (Chebyshev-Gauss, 1st kind) for (I, dI/dlambda).

    Both integrands, sin(theta)*g and lambda*sin(theta)/g with
    g = sqrt(lambda^2 - A_eps^2), are smooth and periodic in theta, so one node
    set serves both. The branch is anchored at the node nearest the segment
    midpoint, where the principal root is the positive one for eps = 0 and
    real lambda in the window.
    """
    m = 0.5 * (pair.alpha + pair.beta)
    r = 0.5 * (pair.beta - pair.alpha)
    theta = (2.0 * np.arange(1, n + 1) - 1.0) * np.pi / (2 * n)
    a, _ = eval_potential(problem.potential, m + r * np.cos(theta), problem.eps)
    g = _continued_sqrt(lam * lam - a * a, n // 2)
    sin = np.sin(theta)
    return (np.pi * r / n) * np.array([np.sum(sin * g), lam * np.sum(sin / g)])


def _doubling(problem: Problem, pair: TurningPointPair, lam: complex):
    """Double the nodes until the value and the derivative both settle."""
    tol = problem.tolerances
    # near-degenerate segments floor out on roundoff before the doubling
    # criterion; each of the pair accepts its best plateau inside its budget.
    # The derivative integrand has a harsher roundoff floor near segment
    # collapse and its Newton consumers only need ~1e-6, so its budget is
    # looser than the value's
    budget = np.array([tol.quad_err_budget, 1e-7])
    n = tol.quad_min_nodes
    prev = best = _rule(problem, pair, lam, n)
    best_err = np.full(2, np.inf)
    while n <= tol.quad_max_nodes // 2:
        n *= 2
        cur = _rule(problem, pair, lam, n)
        err = np.abs(cur - prev)
        if np.all(err < tol.quad_rel * np.maximum(1.0, np.abs(cur))):
            return cur, err[0], n
        better = err < best_err
        best = np.where(better, cur, best)
        best_err = np.where(better, err, best_err)
        prev = cur
    if np.all(best_err < budget * np.maximum(1.0, np.abs(best))):
        return best, best_err[0], n
    raise QuadratureNoConvergence(
        f"no convergence at {tol.quad_max_nodes} nodes for lambda={lam}")


def turning_pair(problem: Problem, lam: complex) -> TurningPointPair:
    """Turning points for the action contour; a Collision means no segment exists."""
    try:
        return find_turning_points(problem, lam)
    except Collision as exc:
        raise DegenerateSegment(str(exc)) from exc


def action_integral(problem: Problem, lam: complex) -> ActionValue:
    """Integral of sqrt(lambda^2 - A_eps^2) over the straight segment alpha -> beta.

    Positive on the real window at eps = 0. One midpoint rule in theta gives
    the value and its lambda-derivative from the same nodes; the node count
    doubles from the configured minimum until both agree with the previous
    count to the relative tolerance.
    """
    lam = complex(lam)
    (value, dvalue), err, n = _doubling(problem, turning_pair(problem, lam), lam)
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
