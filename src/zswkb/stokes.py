"""Stokes lines: level curves Re integral sqrt(A_eps^2 - lambda^2) dz = 0 from turning points.

Curves are traced in arc length with RK4 on the unit tangent field
i*sigma*|s|/s, s = sqrt(A_eps^2 - lambda^2). The running phase integral is
accumulated with per-step Gauss panels and a transverse Newton projection every
few iterations pins the trace back onto the level set, so drift cannot build up.

Each curve controls its own step (Hairer, Norsett and Wanner, Solving ODEs I,
section II.4) from values the step already has, with no extra potential call:
the error estimate is the larger of |Re| of the GL3 phase increment, which is
|s| times the step's departure from the level set, and the gap between that
increment and Simpson's rule on the two vertex roots and the middle GL3 node.
A step longer than _STEP that meets a termination event is retried shorter,
so only a step of at most _STEP ends a curve, as the fixed step of _STEP did.

A curve ends at the strip's edge, near a turning point, at its maximum length,
or where the level condition stops being resolvable: once |s| * |z| times ten
machine epsilons exceeds _TOL, the rounding of z moves the phase by more than
a tenth of the step bound.  On entire potentials |s| grows super-exponentially up
the strip, so the gaussian families end there, well inside a wide strip; both
ends are reported as ``strip-boundary``, the edge of the strip the tracer
resolves.

All curves of one call advance in lockstep iterations, one step attempt per
curve: each RK4 stage after the first is one array potential call over every
curve, and so are the new vertices together with their panel nodes. The first
stage needs no call: the aligned root at each vertex is already held from the
panel or projection call that made it. The events of an attempt clear their
curves from one mask, and a curve that ended takes the first rule that holds
for it. A curve whose attempt is rejected waits at its vertex and a curve that
terminates is frozen while the others go on; every decision is elementwise, so
a curve comes out the same whether it is traced alone or as one of the six of
a graph.
"""
from __future__ import annotations

import cmath
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DegenerateTurningPoint, StepFailure
from .potential import eval_potential
from .problem import Problem
from .turning import find_turning_points

_STEP = 1e-3                     # first step, and the longest step an event may end a curve on
_MAX_STEP = 5e-2
_TOL = 1e-10                     # per-step bound on the phase error estimate
_SAFETY = 0.8                    # shrinks the fifth-root step update so few steps are rejected
_FIRST_HOP = 1e-2
_MAX_ARC = 20.0
_NEAR_TP = 1e-3
_PROJECT_EVERY = 10
# a curve ends where |s| * |z| * _RESOLUTION exceeds _TOL: rounding a vertex to
# a double moves its phase by up to |s| * |z| * eps_mach, and that shift enters
# each step's increment and the drift the projection corrects; ten times it
# stays an order below _TOL, so steps are accepted on their truncation error,
# not on rounding (on the well the wall falls at |s| ~ 1.4e4, |z| ~ 3.2)
_RESOLUTION = 10 * np.finfo(float).eps
_HISTORY_ROWS = 1024             # first size of the vertex buffer; it doubles when full

# Gauss-Legendre panels for the running phase integral, as chord fractions
# and weights on [0, 1]
_GL3_T = 0.5 * (np.array([-np.sqrt(3 / 5), 0.0, np.sqrt(3 / 5)]) + 1.0)
_GL3_W = 0.5 * np.array([5 / 9, 8 / 9, 5 / 9])
_GL16_X, _GL16_W = np.polynomial.legendre.leggauss(16)
_HOP_U, _HOP_W = 0.5 * (_GL16_X + 1.0), 0.5 * _GL16_W


class Termination(Enum):
    STRIP_BOUNDARY = "strip-boundary"
    MAX_LENGTH = "max-length"
    NEAR_TURNING_POINT = "near-turning-point"
    STEP_FAILURE = "step-failure"



@dataclass
class StokesCurve:
    origin_index: int
    initial_angle: float
    points: np.ndarray
    termination: Termination


@dataclass
class StokesGraph:
    turning_points: list
    curves: list


def _slope(problem: Problem, z):
    """d/dz (A_eps^2 - lambda^2) = 2 A_eps A_eps', elementwise."""
    a, da = eval_potential(problem.potential, z, problem.eps)
    return 2.0 * a * da


def _sqrt(problem: Problem, lam2: complex, z):
    """Principal sqrt(A_eps(z)^2 - lambda^2), elementwise."""
    a, _ = eval_potential(problem.potential, z, problem.eps, derivative=False)
    return np.sqrt(a * a - lam2)


def _align(s, ref):
    """Flip each sign of ``s`` that points away from ``ref`` (branch continuation)."""
    return np.where((s * ref.conjugate()).real < 0.0, -s, s)


def stokes_directions(problem: Problem, lam: complex, tp: complex) -> tuple:
    """The three emanation angles at a simple turning point, sorted in [0, 2*pi).

    Locally f(z) ~ f'(tp)(z - tp) and the Stokes condition makes
    sqrt(f'(tp)) (z - tp)^{3/2} purely imaginary, which fixes three directions
    2*pi/3 apart.
    """
    fp = complex(_slope(problem, tp))
    if abs(fp) <= 1e-8:
        raise DegenerateTurningPoint(f"|d/dz (A_eps^2 - lam^2)| = {abs(fp):.2e} at {tp}")
    base = (np.pi - cmath.phase(fp)) / 3.0
    angles = sorted(((base + 2.0 * np.pi * j / 3.0) % (2.0 * np.pi)) for j in range(3))
    return tuple(angles)


def _hop_phase(problem: Problem, lam2: complex, tp, z1, fp) -> tuple:
    """Phase integrals over the first hops tp -> z1 with the sqrt endpoint resolved.

    Substituting z = tp + (z1 - tp)*u^2 makes the integrand smooth; the branch
    at each node follows the local model sqrt(f'(tp)(z1 - tp))*u.  All hops
    share one potential call.  Returns the integrals and the square root at
    each hop's last node.
    """
    dz = z1 - tp
    s = _align(_sqrt(problem, lam2, tp[:, None] + dz[:, None] * _HOP_U ** 2),
               np.sqrt(fp * dz)[:, None])
    return 2.0 * dz * (s @ (_HOP_W * _HOP_U)), s[:, -1]


def _trace(problem: Problem, lam: complex, tps, starts) -> list:
    """Trace one Stokes line per (index into ``tps``, angle) of ``starts``, in lockstep.

    A curve starts at its turning point and stops near any other entry of
    ``tps``.  Each lockstep iteration makes one step attempt per running curve,
    of that curve's own length: an accepted attempt adds a vertex, a rejected
    one leaves the curve where it is for the next iteration, and a curve that
    terminates keeps its last vertex and drops out of the checks.  Curves
    project on the same iterations, those that advanced in it.  Returns one
    (points, Termination) pair per start.
    """
    lam2 = complex(lam) ** 2
    strip = problem.potential.strip_half_width
    tps = np.asarray(tps, dtype=complex)
    own = np.array([i for i, _ in starts])
    angle = np.array([a for _, a in starts], dtype=float)
    tp = tps[own]
    fp = _slope(problem, tp)
    degenerate = np.abs(fp) <= 1e-8
    if degenerate.any():
        raise DegenerateTurningPoint(f"turning point at {tp[degenerate][0]} is not simple")

    z = tp + _FIRST_HOP * np.exp(1j * angle)
    if (np.abs(z.imag) >= strip).any():
        raise StepFailure("first hop already leaves the strip")
    phase, s = _hop_phase(problem, lam2, tp, z, fp)
    s = _align(_sqrt(problem, lam2, z), s)

    # the straight hop leaves the (curved) level set by O(hop^{5/2}); project
    # transversally right away so the drift never enters the march
    dz = -phase.real / s
    z = z + dz
    phase = phase + s * dz
    s = _align(_sqrt(problem, lam2, z), s)

    # orientation: unit tangent i*sigma*|s|/s must match the requested angle;
    # turn holds i*sigma
    tangent = 1j * np.abs(s) / s
    turn = np.where((tangent * np.exp(-1j * angle)).real > 0.0, 1j, -1j)

    other = own[:, None] != np.arange(len(tps))
    columns = np.arange(len(own))
    running = np.ones(len(own), dtype=bool)
    n_running = len(own)
    ends = [Termination.MAX_LENGTH] * len(own)
    n_points = np.full(len(own), 2)
    history = np.empty((_HISTORY_ROWS, len(own)), dtype=complex)
    history[0], history[1] = tp, z
    dist = np.abs(z[:, None] - tps)
    arc = np.full(len(own), _FIRST_HOP)
    step = np.full(len(own), _STEP)
    w0, w1, w2 = _GL3_W

    def field(zz, live):
        # a stage that leaves the strip is an event of its curve, and a curve
        # not stepping is evaluated at its vertex, which lies in the strip
        live &= ~(np.abs(zz.imag) >= strip)
        ss = _align(_sqrt(problem, lam2, np.where(live, zz, z)), s)
        return turn * np.abs(ss) / ss

    iteration = 0
    while n_running:
        iteration += 1
        # no step reaches halfway to a turning point, so none jumps its disk
        h = np.minimum(np.minimum(step, _MAX_STEP), 0.5 * dist.min(axis=1))
        # each event of the attempt clears its curve from ``live``
        live = running.copy()
        # s is the aligned root at z, so the first stage needs no potential call
        k1 = turn * np.abs(s) / s
        k2 = field(z + 0.5 * h * k1, live)
        k3 = field(z + 0.5 * h * k2, live)
        k4 = field(z + h * k3, live)
        staged = live.copy()
        z_try = z + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        live &= np.isfinite(z_try) & ~(np.abs(z_try.imag) >= strip)
        z_new = np.where(live, z_try, z)
        chord = z_new - z
        ss = _align(_sqrt(problem, lam2, np.concatenate(
            [z_new[:, None], z[:, None] + _GL3_T * chord[:, None]], axis=1)), s[:, None])
        s_new = ss[:, 0]
        # elementwise sums round alike for every batch shape, so a curve takes
        # the same step decisions alone and inside a graph
        increment = (w0 * ss[:, 1] + w1 * ss[:, 2] + w2 * ss[:, 3]) * chord
        simpson = (s + 4.0 * ss[:, 2] + s_new) * (chord / 6.0)
        # |s| times the step's departure from the level set, and the phase
        # increment's quadrature error against the fourth-order rule
        error = np.maximum(np.abs(increment.real), np.abs(increment - simpson))
        size = np.abs(s_new)
        blurred = size * np.abs(z_new) * _RESOLUTION > _TOL
        live &= (size >= 1e-12) & ~blurred & np.isfinite(error)
        # an event ends a curve only on a step of at most _STEP; a longer step
        # is retried at a quarter of its length, but not below _STEP
        event = running & ~live
        final = event & (h <= _STEP)
        accept = live & (error <= _TOL)
        # a zero estimate takes the largest growth; a rejected step's estimate
        # exceeds _TOL, so its factor is below _SAFETY and needs no upper clip
        grow = _SAFETY * (_TOL / np.maximum(error, 1e-10 * _TOL)) ** 0.2
        grow = np.maximum(np.minimum(grow, 2.0), np.where(accept, 1.0, 0.2))
        step = np.where(live, h * grow, np.where(event, np.maximum(_STEP, 0.25 * h), step))
        z = np.where(accept, z_new, z)
        s = np.where(accept, s_new, s)
        phase = np.where(accept, phase + increment, phase)
        arc = np.where(accept, arc + h, arc)
        far = np.zeros_like(accept)
        if iteration % _PROJECT_EVERY == 0:
            dz = -phase.real / s
            far = accept & (np.abs(dz) > _STEP)
            accept &= ~far
            dz = np.where(accept, dz, 0.0)
            z = z + dz
            phase = phase + s * dz
            s = _align(_sqrt(problem, lam2, z), s)
        # every curve writes its z one row past its last vertex, and only an
        # accepted step counts that row; that row is at most iteration + 1
        if iteration + 2 > len(history):
            history = np.concatenate([history, np.empty_like(history)])
        history[n_points, columns] = z
        n_points += accept
        dist = np.abs(z[:, None] - tps)
        # near its own turning point a curve stops only once it has left it
        near = (dist < _NEAR_TP) & (other | (arc > 5 * _FIRST_HOP)[:, None])
        close = accept & near.any(axis=1)
        too_long = accept & (arc >= _MAX_ARC)
        ended = final | far | close | too_long
        if ended.any():
            # a curve that ended takes the first rule that holds for it
            checks = [(running & ~staged, Termination.STRIP_BOUNDARY),
                      (~np.isfinite(z_try), Termination.STEP_FAILURE),
                      (np.abs(z_try.imag) >= strip, Termination.STRIP_BOUNDARY),
                      (size < 1e-12, Termination.STEP_FAILURE),
                      (blurred, Termination.STRIP_BOUNDARY),
                      (~np.isfinite(error), Termination.STEP_FAILURE)]
            checks = [(mask & final, end) for mask, end in checks] + [
                (far, Termination.STEP_FAILURE), (close, Termination.NEAR_TURNING_POINT),
                (too_long, Termination.MAX_LENGTH)]
            for j in np.flatnonzero(ended):
                ends[j] = next(end for mask, end in checks if mask[j])
            running &= ~ended
            n_running = np.count_nonzero(running)
    return [(history[:n, j].copy(), end) for j, (n, end) in enumerate(zip(n_points, ends))]


def trace_stokes_line(problem: Problem, lam: complex, tp: complex, angle: float,
                      origin_index: int = 0, other_tps=()) -> StokesCurve:
    """Trace one Stokes line from ``tp`` in the requested emanation direction."""
    ((points, termination),) = _trace(problem, lam, [tp, *other_tps], [(0, angle)])
    return StokesCurve(origin_index, float(angle), points, termination)


def build_graph(problem: Problem, lam: complex) -> StokesGraph:
    """All six Stokes lines (three per turning point) for one spectral parameter."""
    pair = find_turning_points(problem, lam)
    tps = [pair.alpha, pair.beta]
    starts = [(idx, angle) for idx, tp in enumerate(tps)
              for angle in stokes_directions(problem, lam, tp)]
    traced = _trace(problem, lam, tps, starts)
    curves = [StokesCurve(idx, float(angle), points, termination)
              for (idx, angle), (points, termination) in zip(starts, traced)]
    return StokesGraph(tps, curves)


def graph_to_json(graph: StokesGraph) -> dict:
    return {
        "turning_points": [[z.real, z.imag] for z in graph.turning_points],
        "curves": [
            {
                "origin": c.origin_index,
                "angle": c.initial_angle,
                "points": [[z.real, z.imag] for z in c.points],
                "termination": c.termination.value,
            }
            for c in graph.curves
        ],
    }
