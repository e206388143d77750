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
from .turning import _turning_rows

# relative accuracy the derivative needs: its Newton consumers need ~1e-6
_DERIVATIVE_BUDGET = 1e-7


@dataclass(frozen=True)
class ActionValue:
    """Converged quadrature value with its derivative and error bookkeeping."""

    value: complex
    dvalue_dlambda: complex
    quad_error_estimate: float
    nodes_used: int  # nodes of the last rule evaluated


def _continued_sqrt(w: np.ndarray, anchor: int) -> tuple:
    """Square roots of w continued along the last axis from the principal root at ``anchor``.

    Neighbouring principal roots whose product has a negative real part turn
    by more than a right angle; each such pair flips the sign of the branch,
    and the flips accumulate outward from the anchor.  Returns the roots and,
    per row, whether the continuation is unambiguous: it is not when some
    neighbouring roots turn by close to a right angle, i.e. when neither sign
    choice follows the branch smoothly.
    """
    s = np.sqrt(w)
    dot = (s[..., 1:] * s[..., :-1].conjugate()).real
    denom = np.abs(s[..., 1:]) * np.abs(s[..., :-1])
    ok = ~np.any((denom == 0.0) | (np.abs(dot) < 1e-6 * denom), axis=-1)
    flips = np.where(dot < 0.0, -1.0, 1.0)
    sign = np.cumprod(np.concatenate((np.ones(w.shape[:-1] + (1,)), flips), axis=-1), axis=-1)
    return np.where(sign == sign[..., anchor:anchor + 1], s, -s), ok


def _rule(problem: Problem, alpha: np.ndarray, beta: np.ndarray, lam: np.ndarray,
          n: int) -> tuple:
    """Midpoint rule in theta (Chebyshev-Gauss, 1st kind) for (I, dI/dlambda) per row.

    Both integrands, sin(theta)*g and lambda*sin(theta)/g with
    g = sqrt(lambda^2 - A_eps^2), are smooth and periodic in theta, so one node
    set serves both.  The branch is anchored at the node nearest the segment
    midpoint, where the principal root is the positive one for eps = 0 and
    real lambda in the window.  All rows share one (K, n) potential call.
    Returns the (K, 2) values and the per-row flag of ``_continued_sqrt``.
    """
    m = 0.5 * (alpha + beta)
    r = 0.5 * (beta - alpha)
    theta = (2.0 * np.arange(1, n + 1) - 1.0) * np.pi / (2 * n)
    a, _ = eval_potential(problem.potential, m[:, None] + r[:, None] * np.cos(theta),
                          problem.eps, derivative=False)
    g, ok = _continued_sqrt((lam * lam)[:, None] - a * a, n // 2)
    sin = np.sin(theta)
    with np.errstate(divide="ignore", invalid="ignore"):  # rows with g = 0 are not ok
        sums = np.stack((np.sum(sin * g, axis=1), lam * np.sum(sin / g, axis=1)), axis=1)
    return (np.pi * r / n)[:, None] * sums, ok


def _doubling(problem: Problem, alpha: np.ndarray, beta: np.ndarray, lam: np.ndarray) -> list:
    """Double the nodes of every row until its value and derivative both settle.

    The value stops at ``quad_rel``, the derivative at its own budget
    ``_DERIVATIVE_BUDGET``: its integrand ~ 1/g cancels in lambda^2 - A^2 next
    to turning points that are known only to ``turning_residual``, so at
    eps > 0 its difference between counts grows like n long after the value
    has settled.  Near-degenerate segments floor out on roundoff before either
    test; at the node cap each of the pair accepts its best plateau inside its
    budget.  Rows that settle drop out.  Returns an ActionValue or the error
    of each row.
    """
    tol = problem.tolerances
    budget = np.array([tol.quad_err_budget, _DERIVATIVE_BUDGET])
    stop = np.array([tol.quad_rel, _DERIVATIVE_BUDGET])
    out = [None] * len(lam)

    def rule(rows, n):
        vals, ok = _rule(problem, alpha[rows], beta[rows], lam[rows], n)
        for k in rows[~ok]:
            out[k] = BranchAmbiguity("square-root phase jump exceeds pi/2 between contour nodes")
        return vals, ok

    def settle(rows, vals, errs, n):
        for k, v, e in zip(rows, vals, errs):
            out[k] = ActionValue(complex(v[0]), complex(v[1]), float(e), n)

    n = tol.quad_min_nodes
    live = np.arange(len(lam))
    prev, ok = rule(live, n)
    live, prev = live[ok], prev[ok]
    best, best_err = prev, np.full(prev.shape, np.inf)
    while n <= tol.quad_max_nodes // 2 and live.size:
        n *= 2
        cur, ok = rule(live, n)
        err = np.abs(cur - prev)
        done = ok & np.all(err < stop * np.maximum(1.0, np.abs(cur)), axis=1)
        settle(live[done], cur[done], err[done, 0], n)
        better = err < best_err
        keep = ok & ~done
        live, prev = live[keep], cur[keep]
        best = np.where(better, cur, best)[keep]
        best_err = np.where(better, err, best_err)[keep]
    accept = np.all(best_err < budget * np.maximum(1.0, np.abs(best)), axis=1)
    settle(live[accept], best[accept], best_err[accept, 0], n)
    for k in live[~accept]:
        out[k] = QuadratureNoConvergence(
            f"no convergence at {tol.quad_max_nodes} nodes for lambda={complex(lam[k])}")
    return out


def _action_rows(problem: Problem, lams, z=None) -> tuple:
    """ActionValue, or the ZSWKBError that stopped it, for each lambda, and the (K, 2) pairs.

    The (K, 2) turning points of all rows come from one call of the array
    solver, continued from the pairs ``z`` when given, and go to the
    quadrature as they are.  A Collision of the turning points means no
    segment exists: DegenerateSegment.
    """
    lams = np.asarray(lams, dtype=complex).reshape(-1)
    pairs, results = _turning_rows(problem, lams, z)
    for k, err in enumerate(results):
        if isinstance(err, Collision):
            results[k] = DegenerateSegment(str(err))
            results[k].__cause__ = err
    live = np.flatnonzero([err is None for err in results])
    for k, act in zip(live, _doubling(problem, pairs[live, 0], pairs[live, 1], lams[live])):
        results[k] = act
    return results, pairs


def action_integral(problem: Problem, lam: complex) -> ActionValue:
    """Integral of sqrt(lambda^2 - A_eps^2) over the straight segment alpha -> beta.

    Positive on the real window at eps = 0. One midpoint rule in theta gives
    the value and its lambda-derivative from the same nodes; the node count
    doubles from the configured minimum until the value agrees with the
    previous count to ``quad_rel`` and the derivative to 1e-7.  A one-row call
    of the array quadrature that ``wkb_spectrum`` runs on all its indices at
    once; its failure is raised.
    """
    (act,), _ = _action_rows(problem, [lam])
    if isinstance(act, Exception):
        raise act
    return act


def check_schwarz_symmetry(problem: Problem, lam: complex) -> float:
    """|conj(I(conj lambda, eps)) - I(lambda, eps)|, zero under PT-like symmetry.

    SymmetryRequired for a potential pair without a parity pairing.
    """
    if symmetry_class(problem) is SymmetryClass.NONE:
        raise SymmetryRequired("potential pair has no PT-like parity pairing")
    lam = complex(lam)
    left = action_integral(problem, lam.conjugate()).value.conjugate()
    right = action_integral(problem, lam).value
    return abs(left - right)
