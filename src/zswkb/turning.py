"""Complex turning points: the roots of A_eps(z)^2 - lambda^2 continued from a known pair.

``_turning_rows`` solves a whole array of lambda at once.  A row starts from
the real pair alpha0 < beta0 of the A1 report, or from its own pair at a
nearby lambda, and each Newton iteration is one array potential call over
both roots of every row still iterating.  A row's result does not depend on
the other rows, and a failure removes only its own row.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import Collision, LeftStrip, NoConvergence
from .potential import eval_potential
from .problem import Problem, a1_report

_HOMOTOPY_STEPS = 8
_NEWTON_CAP = 50


@dataclass(frozen=True)
class TurningPointPair:
    """Roots alpha, beta of A_eps(z)^2 - lambda^2 with their residuals."""

    alpha: complex
    beta: complex
    residual_alpha: float
    residual_beta: float
    lam: complex
    eps: float


def _newton_stage(problem: Problem, z: np.ndarray, lam: np.ndarray, eps: float,
                  rows: np.ndarray, errors: list) -> None:
    """One homotopy stage: Newton on A_eps^2 - lam^2 for both roots of ``rows``.

    ``z`` (K, 2) is updated in place.  Each root stops on its own: at the
    residual test, after a step below ``turning_min_step`` (converged or
    stalled), at a vanishing derivative, before a step that would take
    |Re z| beyond ``problem.cutoff`` (the iterate keeps its last value), on
    leaving the strip, or after ``_NEWTON_CAP`` steps.  A row whose alpha
    fails takes alpha's error, otherwise beta's.
    """
    tol = problem.tolerances
    strip = problem.potential.strip_half_width
    zf = z.reshape(-1)
    lam_f = np.repeat(lam, 2)
    lam2 = lam_f * lam_f
    f_tol = tol.turning_residual * np.maximum(1.0, np.abs(lam_f) ** 2)
    live = np.repeat(rows, 2)
    small = np.zeros(len(zf), dtype=bool)
    failed = {}
    for it in range(_NEWTON_CAP + 1):
        idx = np.flatnonzero(live)
        if idx.size == 0:
            break
        a, da = eval_potential(problem.potential, zf[idx], eps)
        f = a * a - lam2[idx]
        fp = 2.0 * a * da
        unsolved = np.abs(f) >= f_tol[idx]
        stalled = unsolved & (small[idx] | (it == _NEWTON_CAP))
        flat = unsolved & ~stalled & (fp == 0)
        go = unsolved & ~stalled & ~flat
        for r in idx[stalled]:
            failed[r] = NoConvergence(f"turning-point Newton stalled at z={complex(zf[r])} "
                                      f"for lambda={complex(lam_f[r])}")
        for r in idx[flat]:
            failed[r] = NoConvergence(f"vanishing derivative at z={complex(zf[r])}")
        step = f[go] / fp[go]
        moved = idx[go]
        new = zf[moved] - step
        beyond = np.abs(new.real) > problem.cutoff
        if beyond.any():
            for r in moved[beyond]:
                failed[r] = NoConvergence(f"turning-point Newton step from z={complex(zf[r])} "
                                          f"leaves |Re z| <= cutoff={problem.cutoff}")
            live[moved[beyond]] = False
            moved, step, new = moved[~beyond], step[~beyond], new[~beyond]
        zf[moved] = new
        small[moved] = np.abs(step) < tol.turning_min_step
        out = np.abs(new.imag) >= strip
        for r in moved[out]:
            failed[r] = LeftStrip(f"iterate at z={complex(zf[r])} left |Im z| < {strip}")
        live[idx[~go]] = False
        live[moved[out]] = False
    for r in sorted(failed):
        if errors[r // 2] is None:
            errors[r // 2] = failed[r]


def _turning_rows(problem: Problem, lams, z=None) -> tuple:
    """The (K, 2) turning points (alpha, beta) of each lambda, and per row its error or None.

    Without ``z`` every row starts from the A1 report's (alpha0, beta0) at
    (lambda0, eps=0) and follows fixed homotopy stages along
    (lambda0 + t*(mu - lambda0), t*eps) for t = 1/8, ..., 1, where mu is
    lambda or, when Re lambda < 0, -lambda: the roots depend on lambda^2 only.
    A (K, 2) ``z`` holds each row's pair at a nearby lambda, and the row takes
    one Newton stage from it at its own lambda.  Pairs are ordered by real part.
    """
    lams = np.asarray(lams, dtype=complex).reshape(-1)
    errors = [None] * len(lams)

    def alive():
        return np.array([e is None for e in errors], dtype=bool)

    if z is None:
        rep = a1_report(problem)
        mu = np.where(lams.real < 0, -lams, lams)
        z = np.tile(np.array([rep.alpha0, rep.beta0], dtype=complex), (len(lams), 1))
        for j in range(1, _HOMOTOPY_STEPS + 1):
            # the last stage lands on mu exactly
            _newton_stage(problem, z, mu + (j / _HOMOTOPY_STEPS - 1.0) * (mu - rep.lambda0),
                          problem.eps * j / _HOMOTOPY_STEPS, alive(), errors)
    else:
        z = np.array(z, dtype=complex)
        _newton_stage(problem, z, lams, problem.eps, alive(), errors)

    for k in np.flatnonzero(alive()):
        gap = abs(z[k, 0] - z[k, 1])
        if gap < problem.tolerances.collision:
            errors[k] = Collision(f"|alpha - beta| = {gap:.3e} at lambda={complex(lams[k])}")
    ok = alive()
    swap = ok & (z[:, 0].real > z[:, 1].real)
    z[swap] = z[swap][:, ::-1]
    return z, errors


def find_turning_points(problem: Problem, lam: complex) -> TurningPointPair:
    """Track the two simple roots of A_eps^2 - lambda^2 from the real pair at lambda0.

    The roots are continued from the A1 report's alpha0 < beta0 at
    (lambda0, eps=0) to the target along one path of fixed homotopy stages
    in lambda and eps together.  A one-row call of the array solver that
    ``action_integral`` and ``wkb_spectrum`` run on many lambda at once; its
    failure is raised.  Only this probe forms the residuals.
    """
    z, (err,) = _turning_rows(problem, [lam])
    if err is not None:
        raise err
    lams = np.array([complex(lam)])  # numpy's complex product may round unlike Python's
    a, _ = eval_potential(problem.potential, z[0], problem.eps, derivative=False)
    res = np.abs(a * a - lams * lams)
    return TurningPointPair(*z[0].tolist(), *res.tolist(), complex(lam), problem.eps)
