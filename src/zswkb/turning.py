"""Complex turning points: the roots of A_eps(z)^2 - lambda^2 tracked from the real pair."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import Collision, LeftStrip, NoConvergence
from .potential import eval_potential, real_crossings
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


def _newton_root(problem: Problem, z0: complex, lam: complex, eps: float) -> complex:
    """Newton on f(z) = A_eps(z)^2 - lambda^2 with the analytic derivative."""
    tol = problem.tolerances
    strip = problem.potential.strip_half_width
    f_tol = tol.turning_residual * max(1.0, abs(lam) ** 2)
    z = complex(z0)
    lam2 = lam * lam
    for _ in range(_NEWTON_CAP):
        a, da = eval_potential(problem.potential, z, eps)
        a = complex(a)
        da = complex(da)
        f = a * a - lam2
        if abs(f) < f_tol:
            return z
        fp = 2.0 * a * da
        if fp == 0:
            raise NoConvergence(f"vanishing derivative at z={z}")
        step = f / fp
        z = z - step
        if abs(z.imag) >= strip:
            raise LeftStrip(f"iterate at z={z} left |Im z| < {strip}")
        if abs(step) < tol.turning_min_step:
            a, _ = eval_potential(problem.potential, z, eps)
            if abs(complex(a) ** 2 - lam2) < f_tol:
                return z
            break
    a, _ = eval_potential(problem.potential, z, eps)
    if abs(complex(a) ** 2 - lam2) < f_tol:
        return z
    raise NoConvergence(f"turning-point Newton stalled at z={z} for lambda={lam}")


def _real_seeds(problem: Problem, lam_re: float) -> tuple:
    """Real roots of A(x)^2 = lam_re^2 near alpha0, beta0 (eps = 0 reference)."""
    rep = a1_report(problem)
    roots, a = real_crossings(problem.potential, lam_re, problem.cutoff)
    if len(roots) < 2:
        if np.min(a.real ** 2 - lam_re ** 2) < 1e-6 * max(1.0, lam_re ** 2):
            # tangency: the real pair has already merged at this level
            raise Collision(f"turning points merge on the real axis at lambda={lam_re}")
        raise NoConvergence(f"no real turning-point seeds at lambda={lam_re}")
    seed_a = roots[np.argmin(np.abs(roots - rep.alpha0))]
    seed_b = roots[np.argmin(np.abs(roots - rep.beta0))]
    return complex(seed_a), complex(seed_b)


def _finish(problem: Problem, za: complex, zb: complex, lam: complex, eps: float) -> TurningPointPair:
    if abs(za - zb) < problem.tolerances.collision:
        raise Collision(f"|alpha - beta| = {abs(za - zb):.3e} at lambda={lam}")
    if za.real > zb.real:
        za, zb = zb, za
    lam2 = lam * lam

    def res(z):
        a, _ = eval_potential(problem.potential, z, eps)
        return abs(complex(a) ** 2 - lam2)

    return TurningPointPair(za, zb, res(za), res(zb), complex(lam), eps)


def find_turning_points(problem: Problem, lam: complex) -> TurningPointPair:
    """Track the two simple roots of A_eps^2 - lambda^2 from real seeds.

    The roots are found at (Re lambda, eps=0) by ``potential.real_crossings``
    and continued to the target in fixed homotopy stages, first in Im lambda,
    then in eps.
    """
    lam = complex(lam)
    za, zb = _real_seeds(problem, abs(lam.real))
    if lam.imag != 0.0:
        for j in range(1, _HOMOTOPY_STEPS + 1):
            lam_j = complex(lam.real, lam.imag * j / _HOMOTOPY_STEPS)
            za = _newton_root(problem, za, lam_j, 0.0)
            zb = _newton_root(problem, zb, lam_j, 0.0)
    if problem.eps != 0.0:
        for j in range(1, _HOMOTOPY_STEPS + 1):
            eps_j = problem.eps * j / _HOMOTOPY_STEPS
            za = _newton_root(problem, za, lam, eps_j)
            zb = _newton_root(problem, zb, lam, eps_j)
    return _finish(problem, za, zb, lam, problem.eps)
