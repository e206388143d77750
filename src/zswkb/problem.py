"""Immutable problem description: potential, perturbation, semiclassical and window parameters."""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import A1Violated
from .potential import (A1Report, PotentialSpec, SymmetryClass, classify_symmetry,
                        real_crossings, validate_A1)


@dataclass(frozen=True)
class Tolerances:
    """Named numerical tolerances; defaults are the module contracts."""

    turning_residual: float = 1e-12      # |A_eps^2 - lam^2| < this * max(1, |lam|^2)
    turning_min_step: float = 1e-14
    collision: float = 1e-6              # |alpha - beta| below this aborts
    quad_rel: float = 1e-12              # node-doubling stop criterion
    quad_err_budget: float = 1e-10       # acceptable roundoff plateau
    quad_min_nodes: int = 32
    quad_max_nodes: int = 4096
    quantize_residual: float = 1e-12     # |I - c_k*pi*h| at convergence
    ode_rtol: float = 1e-10              # propagator cell width scales like ode_rtol^(1/6)
    ode_atol: float = 1e-13              # unused by the propagator; kept for config compatibility
    boundary_min_w: float = 1e-8         # min |W| allowed on a counting contour
    distinct_roots: float = 1e-9
    winding_guard: float = 0.1           # max deviation of winding from integer
    slope_degeneracy: float = 1e-8

    def as_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}


@dataclass(frozen=True)
class Problem:
    """One spectral experiment: potential pair, eps, h, window and cutoffs."""

    potential: PotentialSpec
    lambda0: float
    delta: float
    h: float
    eps: float = 0.0
    cutoff: float = 8.0
    x_cut_left: float | None = None
    x_cut_right: float | None = None
    matching_point: float | None = None
    tolerances: Tolerances = Tolerances()

    def __post_init__(self):
        if not all(map(math.isfinite, (self.lambda0, self.delta, self.h, self.eps))):
            raise ValueError("lambda0, delta, h and eps must be finite")
        if not (self.lambda0 > 0 and self.delta > 0 and self.h > 0):
            raise ValueError("lambda0, delta and h must be positive")
        if self.eps < 0:
            raise ValueError("eps must be non-negative")

    def with_(self, **kw) -> "Problem":
        return replace(self, **kw)


@functools.lru_cache(maxsize=None)
def a1_report(problem: Problem) -> A1Report:
    return validate_A1(problem.potential, problem.lambda0, problem.cutoff,
                       slope_tol=problem.tolerances.slope_degeneracy)


@functools.lru_cache(maxsize=None)
def symmetry_class(problem: Problem) -> SymmetryClass:
    return classify_symmetry(problem.potential, half_width=problem.cutoff)


@functools.lru_cache(maxsize=None)
def domain_cuts(problem: Problem) -> tuple:
    """Boundary cut positions for the shooting solver.

    Default rule: the nearest x beyond the turning interval where |A| -
    lambda0 reaches half the asymptotic margin, pushed out by 2.0 and capped
    at the sampling cutoff; a side with no such x is cut at the cutoff. The
    x are ``real_crossings`` of that level on the A1 report's samples, so a
    paired potential gets exactly mirrored cuts.
    """
    if problem.x_cut_left is not None and problem.x_cut_right is not None:
        return problem.x_cut_left, problem.x_cut_right
    rep = a1_report(problem)
    target = problem.lambda0 + 0.5 * rep.margin_at_infinity
    # settled or not, a crossing lies in its grid bracket, 0.004 wide at cutoff 8
    _, x, _, _ = real_crossings(problem.potential, [target], problem.cutoff, rep.samples)
    left = max(np.max(x[x < rep.alpha0], initial=-np.inf) - 2.0, -problem.cutoff)
    right = min(np.min(x[x > rep.beta0], initial=np.inf) + 2.0, problem.cutoff)
    return (float(left) if problem.x_cut_left is None else problem.x_cut_left,
            float(right) if problem.x_cut_right is None else problem.x_cut_right)


def matching_point(problem: Problem) -> float:
    if problem.matching_point is not None:
        return problem.matching_point
    try:
        rep = a1_report(problem)
        return 0.5 * (rep.alpha0 + rep.beta0)
    except A1Violated:
        # no turning interval (e.g. window below the well floor): match midway
        left, right = domain_cuts(problem)
        return 0.5 * (left + right)


def window_rectangle(problem: Problem) -> tuple:
    """Default complex search rectangle: the real window widened by +/- delta/2 vertically."""
    lo = complex(problem.lambda0 - problem.delta, -0.5 * problem.delta)
    hi = complex(problem.lambda0 + problem.delta, +0.5 * problem.delta)
    return lo, hi
