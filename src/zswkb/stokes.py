"""Stokes lines: level curves Re integral sqrt(A_eps^2 - lambda^2) dz = 0 from turning points.

Curves are traced in arc length by predictor-corrector continuation on the
level set (Allgower and Georg, Introduction to Numerical Continuation Methods,
ch. 2), carrying at each vertex the running phase integral, s =
sqrt(A_eps^2 - lambda^2) and s' = A_eps A_eps' / s.  A step of length h:

- predicts a chord of length h along t + (h/2) dt/dsigma, where t =
  i*sigma*|s|/s is the unit tangent and dt/dsigma = -i t Im(t s'/s);
- evaluates the predicted vertex and the seven Gauss-Kronrod nodes of its
  chord in one potential call; the K7 sum is the phase increment;
- rotates the chord about its start onto Re phase = 0 of the quadratic model
  phase + s*d + s'*d^2/2 at the predicted vertex, so every vertex lies on the
  level set and |z_new - z| = h, and updates the phase and s from that model.

Each curve controls its own step (Hairer, Norsett and Wanner, Solving ODEs I,
section II.4) from values the step already has: the error estimate is the gap
between the K7 and G3 increments (the G3 nodes are K7 nodes; Laurie, Math.
Comp. 66, 1133, 1997) plus the model's cubic remainder, and the next step
grows by 0.8 * (_TOL / error)^(1/7).  A step longer than _STEP that meets a
termination event is retried shorter, so only a step of at most _STEP ends a
curve, as the fixed step of _STEP did.

A curve ends at the strip's edge, near a turning point, at its maximum length,
or where the level condition stops being resolvable: once |s| * |z| times ten
machine epsilons exceeds _TOL, the rounding of z moves the phase by more than
a tenth of the step bound.  On entire potentials |s| grows super-exponentially up
the strip, so the gaussian families end there, well inside a wide strip; both
ends are reported as ``strip-boundary``, the edge of the strip the tracer
resolves.

All curves of one call advance in lockstep iterations, one step attempt per
curve and one array potential call over every curve.  The events of an
attempt clear their curves from one mask, and a curve that ended takes the
first rule that holds for it.  A curve whose attempt is rejected waits at its
vertex and a curve that terminates is frozen while the others go on; every
decision is elementwise, so a curve comes out the same whether it is traced
alone or as one of the six of a graph.
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
_SAFETY = 0.8                    # shrinks the seventh-root step update so few steps are rejected
_FIRST_HOP = 1e-2
_MAX_ARC = 20.0
_NEAR_TP = 1e-3
# a curve ends where |s| * |z| * _RESOLUTION exceeds _TOL: rounding a vertex to
# a double moves its phase by up to |s| * |z| * eps_mach, and that shift enters
# each step's increment and the level the corrector solves for; ten times it
# stays an order below _TOL, so steps are accepted on their truncation error,
# not on rounding (on the well the wall falls at |s| ~ 1.4e4, |z| ~ 3.2)
_RESOLUTION = 10 * np.finfo(float).eps

# the 7-point Gauss-Kronrod extension of 3-point Gauss-Legendre: its nodes
# x >= 0 on [-1, 1] and their weights, mirrored below; _GK_T holds the chord's
# end and then the nodes as chord fractions, so the G3 nodes are its columns 2,
# 4 and 6
_K7_X = np.array([0.960491268708020283423507092629080, 0.774596669241483377035853079956480,
                  0.434243749346802558002071502844628, 0.0])
_K7_HALF_W = np.array([0.104656226026467265193823857192073, 0.268488089868333440728569280666710,
                       0.401397414775962222905051818618432, 0.450916538658474142345110087045571])
_GK_T = 0.5 * (1.0 + np.concatenate([[1.0], -_K7_X, _K7_X[2::-1]]))
_K7_W = 0.5 * np.concatenate([_K7_HALF_W, _K7_HALF_W[2::-1]])
_G3_W = 0.5 * np.array([5 / 9, 8 / 9, 5 / 9])
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


def _sqrt_slope(problem: Problem, lam2: complex, z) -> tuple:
    """Principal sqrt(f), f = A_eps(z)^2 - lambda^2, and A_eps A_eps' = f'/2, elementwise."""
    a, da = eval_potential(problem.potential, z, problem.eps)
    return np.sqrt(a * a - lam2), a * da


def _align(s, ref):
    """Flip each sign of ``s`` that points away from ``ref`` (branch continuation)."""
    return np.where((s * ref.conjugate()).real < 0.0, -s, s)


def stokes_directions(problem: Problem, lam: complex, tp: complex) -> tuple:
    """The three emanation angles at a simple turning point, sorted in [0, 2*pi).

    Locally f(z) ~ f'(tp)(z - tp) and the Stokes condition makes
    sqrt(f'(tp)) (z - tp)^{3/2} purely imaginary, which fixes three directions
    2*pi/3 apart.
    """
    fp = complex(2.0 * _sqrt_slope(problem, complex(lam) ** 2, tp)[1])
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
    s = _align(_sqrt_slope(problem, lam2, tp[:, None] + dz[:, None] * _HOP_U ** 2)[0],
               np.sqrt(fp * dz)[:, None])
    return 2.0 * dz * (s @ (_HOP_W * _HOP_U)), s[:, -1]


def _trace(problem: Problem, lam: complex, tps, starts) -> list:
    """Trace one Stokes line per (index into ``tps``, angle) of ``starts``, in lockstep.

    A curve starts at its turning point and stops near any other entry of
    ``tps``.  Each lockstep iteration makes one step attempt per running curve,
    of that curve's own length, and one potential call over all curves: an
    accepted attempt appends a vertex on the level set to the curve's list, a
    rejected one leaves the curve where it is for the next iteration, and a
    curve that terminates keeps its last vertex and drops out of the checks.
    Returns one (points, Termination) pair per start, the points an array of
    the curve's vertices from its turning point on.
    """
    lam2 = complex(lam) ** 2
    strip = problem.potential.strip_half_width
    tps = np.asarray(tps, dtype=complex)
    own = np.array([i for i, _ in starts])
    angle = np.array([a for _, a in starts], dtype=float)
    tp = tps[own]
    fp = 2.0 * _sqrt_slope(problem, lam2, tp)[1]
    degenerate = np.abs(fp) <= 1e-8
    if degenerate.any():
        raise DegenerateTurningPoint(f"turning point at {tp[degenerate][0]} is not simple")

    z = tp + _FIRST_HOP * np.exp(1j * angle)
    if (np.abs(z.imag) >= strip).any():
        raise StepFailure("first hop already leaves the strip")
    phase, s = _hop_phase(problem, lam2, tp, z, fp)
    s = _align(_sqrt_slope(problem, lam2, z)[0], s)

    # the straight hop leaves the (curved) level set by O(hop^{5/2}); project
    # transversally right away so the drift never enters the march
    dz = -phase.real / s
    z = z + dz
    phase = phase + s * dz
    root, slope = _sqrt_slope(problem, lam2, z)
    s = _align(root, s)
    ds = slope / s

    # orientation: unit tangent i*sigma*|s|/s must match the requested angle;
    # turn holds i*sigma
    tangent = 1j * np.abs(s) / s
    turn = np.where((tangent * np.exp(-1j * angle)).real > 0.0, 1j, -1j)

    other = own[:, None] != np.arange(len(tps))
    running = np.ones(len(own), dtype=bool)
    n_running = len(own)
    ends = [Termination.MAX_LENGTH] * len(own)
    points = [[a, b] for a, b in zip(tp, z)]
    dist = np.abs(z[:, None] - tps)
    arc = np.full(len(own), _FIRST_HOP)
    step = np.full(len(own), _STEP)

    while n_running:
        # no step reaches halfway to a turning point, so none jumps its disk
        h = np.minimum(np.minimum(step, _MAX_STEP), 0.5 * dist.min(axis=1))
        # predictor: a chord of length h along the tangent turned by half the
        # step's curvature, dt/dsigma = -i t Im(t s'/s)
        tangent = turn * np.abs(s) / s
        heading = tangent - 0.5j * h * tangent * (tangent * ds / s).imag
        chord = h * heading / np.abs(heading)
        z_try = z + chord
        # each event of the attempt clears its curve from ``live``; a curve
        # not stepping is evaluated at its vertex, which lies in the strip
        live = running & np.isfinite(z_try) & ~(np.abs(z_try.imag) >= strip)
        predicted = live.copy()
        chord = np.where(live, chord, 0.0)
        root, slope = _sqrt_slope(problem, lam2, z[:, None] + _GK_T * chord[:, None])
        ss = _align(root, s[:, None])
        # elementwise sums round alike for every batch shape, so a curve takes
        # the same step decisions alone and inside a graph
        kronrod = _K7_W[0] * ss[:, 1]
        for k in range(2, 8):
            kronrod = kronrod + _K7_W[k - 1] * ss[:, k]
        gauss = _G3_W[0] * ss[:, 2] + _G3_W[1] * ss[:, 4] + _G3_W[2] * ss[:, 6]
        s_try = ss[:, 0]
        ds_try = slope[:, 0] / s_try
        phase_try = phase + kronrod * chord
        # corrector: rotate the chord about z onto the level set of the
        # quadratic model phase + s*d + s'*d^2/2 of the phase at the predicted
        # vertex, where d = chord*(e^{i*angle} - 1): two Newton steps on the
        # angle from 0 leave the model's Re phase at rounding level
        rotation = np.zeros(len(own))
        shift = np.zeros_like(chord)
        solved = np.ones(len(own), dtype=bool)
        for _ in range(2):
            phase_new = phase_try + (s_try + 0.5 * ds_try * shift) * shift
            rate = ((chord + shift) * (s_try + ds_try * shift)).imag
            solved &= rate != 0.0
            rotation = rotation + phase_new.real / np.where(solved, rate, 1.0)
            shift = chord * (-2.0 * np.sin(0.5 * rotation) ** 2 + 1j * np.sin(rotation))
        z_new = z_try + shift
        phase_new = phase_try + (s_try + 0.5 * ds_try * shift) * shift
        s_new = s_try + ds_try * shift
        # the G3 gap bounds the K7 increment's error, and the model's cubic
        # remainder takes s'' from the change of s' over the chord
        remainder = np.abs(ds_try - ds) * np.abs(shift) ** 3 / (6.0 * h)
        error = np.where(solved, np.abs((kronrod - gauss) * chord) + remainder, np.inf)
        live &= np.isfinite(z_new) & ~(np.abs(z_new.imag) >= strip)
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
        grow = _SAFETY * (_TOL / np.maximum(error, 1e-10 * _TOL)) ** (1.0 / 7.0)
        grow = np.maximum(np.minimum(grow, 2.0), np.where(accept, 1.0, 0.2))
        step = np.where(live, h * grow, np.where(event, np.maximum(_STEP, 0.25 * h), step))
        z = np.where(accept, z_new, z)
        s = np.where(accept, s_new, s)
        ds = np.where(accept, ds_try, ds)
        phase = np.where(accept, phase_new, phase)
        arc = np.where(accept, arc + h, arc)
        for j in np.flatnonzero(accept):
            points[j].append(z[j])
        dist = np.abs(z[:, None] - tps)
        # near its own turning point a curve stops only once it has left it
        near = (dist < _NEAR_TP) & (other | (arc > 5 * _FIRST_HOP)[:, None])
        close = accept & near.any(axis=1)
        too_long = accept & (arc >= _MAX_ARC)
        ended = final | close | too_long
        if ended.any():
            # a curve that ended takes the first rule that holds for it
            checks = [(~np.isfinite(z_try), Termination.STEP_FAILURE),
                      (running & ~predicted, Termination.STRIP_BOUNDARY),
                      (~np.isfinite(z_new), Termination.STEP_FAILURE),
                      (np.abs(z_new.imag) >= strip, Termination.STRIP_BOUNDARY),
                      (size < 1e-12, Termination.STEP_FAILURE),
                      (blurred, Termination.STRIP_BOUNDARY),
                      (~np.isfinite(error), Termination.STEP_FAILURE)]
            checks = [(mask & final, end) for mask, end in checks] + [
                (close, Termination.NEAR_TURNING_POINT), (too_long, Termination.MAX_LENGTH)]
            for j in np.flatnonzero(ended):
                ends[j] = next(end for mask, end in checks if mask[j])
            running &= ~ended
            n_running = np.count_nonzero(running)
    return [(np.array(p), end) for p, end in zip(points, ends)]


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
