"""Immutable problem description: potential, perturbation, semiclassical and window parameters."""
from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .errors import A1Violated
from .potential import (A1Report, PotentialSpec, SymmetryClass, _crossing_grid, _refuse_complex,
                        classify_symmetry, eval_A, real_crossings, validate_A1)


@dataclass(frozen=True)
class Tolerances:
    """Named numerical tolerances; defaults are the module contracts.

    ValueError unless every field is finite and positive, both node counts are
    integers (64.0 is refused, not coerced, so a config hashes as written) and
    quad_max_nodes >= 2 * quad_min_nodes.
    """

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

    def __post_init__(self):
        _refuse_complex(*self.as_dict().values())
        for name, value in self.as_dict().items():
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"tolerance {name}={value!r} must be finite and positive")
        nodes = (self.quad_min_nodes, self.quad_max_nodes)
        if not all(isinstance(n, numbers.Integral) and not isinstance(n, bool) for n in nodes):
            raise ValueError("quad_min_nodes and quad_max_nodes must be integers")
        if self.quad_max_nodes < 2 * self.quad_min_nodes:
            # the node doubling could never run, so every action quadrature would fail
            raise ValueError("quad_max_nodes must be at least 2 * quad_min_nodes")

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
        _refuse_complex(*vars(self).values())
        if not all(map(math.isfinite, (self.lambda0, self.delta, self.h, self.eps))):
            raise ValueError("lambda0, delta, h and eps must be finite")
        if not (self.lambda0 > 0 and self.delta > 0 and self.h > 0):
            raise ValueError("lambda0, delta and h must be positive")
        if self.eps < 0:
            raise ValueError("eps must be non-negative")
        cuts = (self.x_cut_left, self.x_cut_right)
        given = [v for v in (self.cutoff, self.matching_point, *cuts) if v is not None]
        if not all(map(math.isfinite, given)):
            raise ValueError("cutoff, cuts and matching_point must be finite")
        if not self.cutoff > 0:
            raise ValueError("cutoff must be positive")
        if cuts.count(None) == 1:
            raise ValueError("x_cut_left and x_cut_right must be given together")
        if None not in cuts and not cuts[0] < cuts[1]:
            raise ValueError("x_cut_left must lie below x_cut_right")

    def with_(self, **kw) -> "Problem":
        return replace(self, **kw)


@functools.lru_cache(maxsize=None)
def _a1_report(potential: PotentialSpec, lambda0: float, cutoff: float,
               slope_tol: float) -> A1Report:
    return validate_A1(potential, lambda0, cutoff, slope_tol=slope_tol)


def a1_report(problem: Problem) -> A1Report:
    """The A1 report of the problem, cached on the four inputs it reads, not on h or eps."""
    return _a1_report(problem.potential, problem.lambda0, problem.cutoff,
                      problem.tolerances.slope_degeneracy)


# the reports live in _a1_report's cache, and clearing a1_report clears them
a1_report.cache_clear = _a1_report.cache_clear


@functools.lru_cache(maxsize=None)
def symmetry_class(problem: Problem) -> SymmetryClass:
    return classify_symmetry(problem.potential)


# complex Newton on W fails an iterate whose real part lies this many deltas off lambda0
_NEWTON_REACH = 2.0

# a seed's error at a cut decays inward like exp(-2/h * int Re mu dx), so the
# default cut sits where that integral reaches this many multiples of h
_DECAY_ACTIONS = 12.0


def domain_cuts(problem: Problem) -> tuple:
    """Boundary cut positions for the shooting solver: the explicit pair, or the default cuts.

    An explicit pair is returned as given.  The default cuts are cached on
    the inputs they read, not on eps.  Default rule, per side: x_t is the
    nearest x beyond the turning interval where |A| = lambda0 + delta, the
    window's top edge, and the cut is the first crossing-grid sample where a
    trapezoid of sqrt(A^2 - (lambda0 + delta)^2) from x_t reaches
    _DECAY_ACTIONS*h. It is floored one grid sample beyond the crossing of
    lambda0 + _NEWTON_REACH*delta, the farthest real part Newton shoots, and
    capped at the older rule: the crossing of the level half way to the
    asymptotic margin, pushed out by 2.0 and capped at the sampling cutoff. A
    side where that level has no such crossing keeps the capped cut. The
    crossings are ``real_crossings`` on Re A sampled on the crossing grid,
    and each side reads the grid outward from 0, so a paired potential gets
    exactly mirrored cuts.
    """
    if problem.x_cut_left is not None:
        return problem.x_cut_left, problem.x_cut_right
    return _domain_cuts(problem.potential, problem.lambda0, problem.delta, problem.h,
                        problem.cutoff, problem.tolerances.slope_degeneracy)


@functools.lru_cache(maxsize=None)
def _domain_cuts(potential: PotentialSpec, lambda0: float, delta: float, h: float, cutoff: float,
                 slope_tol: float) -> tuple:
    rep = _a1_report(potential, lambda0, cutoff, slope_tol)
    top = lambda0 + delta
    levels = (lambda0 + 0.5 * rep.margin_at_infinity, top, lambda0 + _NEWTON_REACH * delta)
    # the grid is its own mirror, so the left side is the right one read on
    # -x: the same s values, |A| reversed
    s = _crossing_grid(cutoff)
    samples = eval_A(potential, s)[0].real
    # settled or not, a crossing lies in its grid bracket, 0.004 wide at cutoff 8
    crossings = [real_crossings(potential, level, cutoff, samples)[0] for level in levels]
    cuts = []
    for sign, turning in ((-1.0, rep.alpha0), (1.0, rep.beta0)):
        half, s_t, s_f = (np.min(sign * x[sign * x > sign * turning], initial=np.inf)
                          for x in crossings)
        cut = min(half + 2.0, cutoff)
        if s_f < cut:
            out = s > s_t
            a, s_out = (samples if sign > 0 else samples[::-1])[out], s[out]
            g = np.sqrt(np.maximum(a * a - top * top, 0.0))
            action = np.cumsum(0.5 * (np.append(0.0, g[:-1]) + g) * np.diff(s_out, prepend=s_t))
            i = np.searchsorted(action, _DECAY_ACTIONS * h)
            if i < len(g):
                floor = s[np.searchsorted(s, s_f, side="right")]
                cut = min(max(s_out[i], floor), cut)
        cuts.append(float(sign * cut))
    return tuple(cuts)


# the cuts live in _domain_cuts's cache, and clearing domain_cuts clears them
domain_cuts.cache_clear = _domain_cuts.cache_clear


def matching_point(problem: Problem) -> float:
    if problem.matching_point is not None:
        return problem.matching_point
    try:
        rep = a1_report(problem)
        return 0.5 * (rep.alpha0 + rep.beta0)
    except A1Violated:
        # no turning interval (e.g. window below the well floor): match midway
        # between explicit cuts; default cuts need the report that just failed
        if problem.x_cut_left is None:
            raise
        return 0.5 * (problem.x_cut_left + problem.x_cut_right)


def window_rectangle(problem: Problem) -> tuple:
    """Default complex search rectangle: the real window widened by +/- delta/2 vertically."""
    lo = complex(problem.lambda0 - problem.delta, -0.5 * problem.delta)
    hi = complex(problem.lambda0 + problem.delta, +0.5 * problem.delta)
    return lo, hi
