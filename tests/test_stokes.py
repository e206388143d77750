import functools
import json
import math

import numpy as np
import pytest

import zswkb as z
from zswkb.errors import DegenerateTurningPoint, StepFailure
from zswkb.stokes import _TOL, Termination

from oracles import assert_graph_document, independent_level_drift


def circular_angle_gap(a: float, b: float) -> float:
    d = abs(a - b) % (2 * math.pi)
    return min(d, 2 * math.pi - d)


def test_directions_monotone_family(tanh_problem):
    pair = z.find_turning_points(tanh_problem, 1.0)
    at_alpha = z.stokes_directions(tanh_problem, 1.0, pair.alpha)
    at_beta = z.stokes_directions(tanh_problem, 1.0, pair.beta)
    for got, want in zip(at_alpha, (0.0, 2 * math.pi / 3, 4 * math.pi / 3)):
        assert circular_angle_gap(got, want) < 1e-6
    for got, want in zip(at_beta, (math.pi / 3, math.pi, 5 * math.pi / 3)):
        assert circular_angle_gap(got, want) < 1e-6


def test_directions_well_family(well_problem):
    pair = z.find_turning_points(well_problem, 1.5)
    at_alpha = z.stokes_directions(well_problem, 1.5, pair.alpha)
    at_beta = z.stokes_directions(well_problem, 1.5, pair.beta)
    for got, want in zip(at_alpha, (0.0, 2 * math.pi / 3, 4 * math.pi / 3)):
        assert circular_angle_gap(got, want) < 1e-6
    for got, want in zip(at_beta, (math.pi / 3, math.pi, 5 * math.pi / 3)):
        assert circular_angle_gap(got, want) < 1e-6


def test_directions_continuous_in_eps(tanh_problem):
    pair0 = z.find_turning_points(tanh_problem, 1.0)
    base = z.stokes_directions(tanh_problem, 1.0, pair0.alpha)
    p = tanh_problem.with_(eps=0.05)
    pair = z.find_turning_points(p, 1.0)
    moved = z.stokes_directions(p, 1.0, pair.alpha)
    for ang in moved:
        assert min(circular_angle_gap(ang, b) for b in base) < 0.2


def test_directions_spacing(tanh_problem):
    pair = z.find_turning_points(tanh_problem, 1.0)
    angs = z.stokes_directions(tanh_problem, 1.0, pair.alpha)
    gaps = [circular_angle_gap(angs[(i + 1) % 3], angs[i]) for i in range(3)]
    for g in gaps:
        assert abs(g - 2 * math.pi / 3) < 1e-6


def test_degenerate_turning_point_rejected(well_problem):
    # the origin at lambda = 1 is a double root of A^2 - lambda^2
    with pytest.raises(DegenerateTurningPoint):
        z.stokes_directions(well_problem.with_(lambda0=1.0), 1.0, 0.0 + 0.0j)


def test_connecting_curve_reaches_other_turning_point(tanh_problem):
    pair = z.find_turning_points(tanh_problem, 1.0)
    curve = z.trace_stokes_line(tanh_problem, 1.0, pair.alpha, 0.0,
                                other_tps=[pair.beta])
    assert curve.termination is Termination.NEAR_TURNING_POINT
    assert abs(curve.points[-1] - pair.beta) < 2e-3
    # the eps = 0 connecting line is the real segment
    assert np.max(np.abs(curve.points.imag)) < 1e-6


def test_rising_curve_hits_strip_boundary(tanh_problem):
    pair = z.find_turning_points(tanh_problem, 1.0)
    curve = z.trace_stokes_line(tanh_problem, 1.0, pair.alpha, 2 * math.pi / 3,
                                other_tps=[pair.beta])
    assert curve.termination is Termination.STRIP_BOUNDARY
    ims = curve.points.imag
    assert np.all(np.diff(ims[1:]) > -1e-12)
    assert ims[-1] > 0.9 * tanh_problem.potential.strip_half_width


def test_graph_counts_and_fidelity(tanh_problem):
    graph = z.build_graph(tanh_problem, 1.0)
    assert len(graph.turning_points) == 2
    assert len(graph.curves) == 6
    for curve in graph.curves:
        assert independent_level_drift(tanh_problem, 1.0, curve) < 1e-6


def test_graph_contains_connecting_curve(well_problem):
    graph = z.build_graph(well_problem, 1.5)
    connecting = [c for c in graph.curves
                  if c.termination is Termination.NEAR_TURNING_POINT]
    assert len(connecting) >= 2  # one from each end of the real segment
    for curve in graph.curves:
        assert independent_level_drift(well_problem, 1.5, curve) < 1e-6


def test_graph_reflection_symmetry(tanh_problem):
    # at eps = 0 the level-set equation is invariant under z -> -conj(z)
    graph = z.build_graph(tanh_problem, 1.0)
    up_alpha = next(c for c in graph.curves if c.origin_index == 0
                    and abs(c.initial_angle - 2 * math.pi / 3) < 1e-9)
    up_beta = next(c for c in graph.curves if c.origin_index == 1
                   and abs(c.initial_angle - math.pi / 3) < 1e-9)
    m = min(len(up_alpha.points), len(up_beta.points))
    assert np.max(np.abs(up_alpha.points[:m] + np.conj(up_beta.points[:m]))) < 1e-6


def test_graph_json_roundtrip(tanh_problem):
    graph = z.build_graph(tanh_problem, 1.0)
    doc = json.loads(json.dumps(z.graph_to_json(graph)))
    assert set(doc) == {"turning_points", "curves"}
    assert_graph_document(doc, graph)


@pytest.mark.parametrize("name, lam", [("well", 1.5), ("tanh", 1.0)])
def test_graph_curves_equal_lone_traces(well_problem, tanh_problem, name, lam):
    # on well 4 curves stop at the strip and 2 at a turning point, so the
    # lockstep tracer masks curves out while others run on
    problem = {"well": well_problem, "tanh": tanh_problem}[name].with_(eps=0.05)
    graph = z.build_graph(problem, lam)
    ends = sorted(c.termination.value for c in graph.curves)
    assert ends == ["near-turning-point"] * 2 + ["strip-boundary"] * 4
    for curve in graph.curves:
        tp = graph.turning_points[curve.origin_index]
        other = graph.turning_points[1 - curve.origin_index]
        alone = z.trace_stokes_line(problem, lam, tp, curve.initial_angle,
                                    origin_index=curve.origin_index, other_tps=[other])
        assert alone.origin_index == curve.origin_index
        assert alone.termination is curve.termination
        assert len(alone.points) == len(curve.points)
        assert np.max(np.abs(alone.points - curve.points)) <= 1e-12


def test_graph_potential_calls_are_per_step(well_problem, monkeypatch):
    # per lockstep iteration, rejected attempts included: one array call, with
    # the derivative, for the predicted vertices with the seven Gauss-Kronrod
    # nodes of their chords, whose z has shape (curves, 8); and six per graph
    # (the slope at each turning point for its directions, then in the tracer
    # the slopes, the first hops, and the root before and after the first
    # projection).  The RK4 tracer made four calls per iteration
    calls = []
    eval_potential = z.stokes.eval_potential

    def counting(potential, zz, eps, derivative=True):
        calls.append((np.shape(zz), derivative))
        return eval_potential(potential, zz, eps, derivative=derivative)

    monkeypatch.setattr(z.stokes, "eval_potential", counting)
    graph = z.build_graph(well_problem.with_(eps=0.05), 1.5)
    steps = [derivative for shape, derivative in calls if shape == (len(graph.curves), 8)]
    assert all(steps)
    assert len(steps) >= max(len(c.points) for c in graph.curves) - 2
    assert len(calls) <= len(steps) + 6


CTRL = z.custom([("const", 2.0), ("gauss", -1.0)], [("gauss", 1.0)])
GRAPH_PROBLEMS = {
    "well": z.Problem(z.well_even(), 1.5, 0.2, 0.05),
    "tanh": z.Problem(z.monotone_odd(), 1.0, 0.3, 0.05),
    "ctrl": z.Problem(CTRL, 1.5, 0.2, 0.05),
}
NTP, SB = "near-turning-point", "strip-boundary"
# terminations of the fixed-step (1e-3) tracer, curve by curve in graph order
FIXED_STEP_ENDS = {
    ("well", 0.0): [NTP, SB, SB, SB, NTP, SB],
    ("well", 0.05): [SB, SB, NTP, SB, NTP, SB],
    ("well", 0.2): [SB, SB, NTP, SB, NTP, SB],
    ("tanh", 0.0): [NTP, SB, SB, SB, NTP, SB],
    ("tanh", 0.05): [SB, SB, NTP, SB, NTP, SB],
    ("tanh", 0.2): [SB, SB, NTP, SB, NTP, SB],
    ("ctrl", 0.0): [NTP, SB, SB, SB, NTP, SB],
    ("ctrl", 0.05): [SB] * 6,
    ("ctrl", 0.2): [SB] * 6,
}


@functools.cache
def graph_of(name, eps):
    return z.build_graph(GRAPH_PROBLEMS[name].with_(eps=eps), GRAPH_PROBLEMS[name].lambda0)


def roundoff_share(problem, point) -> float:
    """|s| * |z| * eps_mach * 10 / _TOL at ``point``: the tracer ends a curve above 1."""
    a, _ = z.eval_potential(problem.potential, point, problem.eps)
    s = np.sqrt(a * a - problem.lambda0 ** 2)
    return abs(s) * abs(point) * np.finfo(float).eps * 10 / _TOL


@pytest.mark.parametrize("name, eps", list(FIXED_STEP_ENDS))
def test_graph_terminations_and_reach(name, eps):
    problem = GRAPH_PROBLEMS[name].with_(eps=eps)
    graph = graph_of(name, eps)
    assert [c.termination.value for c in graph.curves] == FIXED_STEP_ENDS[name, eps]
    # the fixed step took up to 5,724 vertices on a curve of these graphs
    # (4,022 on each strip-boundary curve of well at eps = 0.05), and a wall
    # at |s| = 1e6 up to 1,440; the continuation tracer takes at most 142
    assert max(len(c.points) for c in graph.curves) <= 200
    strip = problem.potential.strip_half_width
    tps = np.asarray(graph.turning_points)
    for curve in graph.curves:
        # no step is longer than 0.05 or half the way to the nearest turning
        # point
        a, b = curve.points[1:-1], curve.points[2:]
        reach = np.minimum(0.5 * np.abs(a[:, None] - tps).min(axis=1), 0.05)
        assert np.all(np.abs(b - a) <= reach + 1e-9)
        last = curve.points[-1]
        if curve.termination is Termination.NEAR_TURNING_POINT:
            assert abs(last - graph.turning_points[1 - curve.origin_index]) < 1e-3
        elif name == "tanh":
            # the tanh strip is narrow, so its curves end at its edge
            assert abs(last.imag) >= strip - 1e-3
        else:
            # the gaussian families end where the level condition meets
            # roundoff, far inside the strip: the last vertex is within the
            # rule and a step of at most 1e-3 short of its threshold
            assert 0.5 <= roundoff_share(problem, last) <= 1.0


@pytest.mark.parametrize("name", list(GRAPH_PROBLEMS))
def test_strip_boundary_curves_end_at_the_roundoff_wall(name):
    # the wall moves the gaussian-family ends in from |s| = 1e6 to about
    # 1.4e4 without loosening the level set; tanh's narrow strip ends its
    # curves before the wall, so they keep their edge and length
    for eps in (0.0, 0.05, 0.2):
        problem = GRAPH_PROBLEMS[name].with_(eps=eps)
        graph = graph_of(name, eps)
        strip = problem.potential.strip_half_width
        if name == "tanh":
            assert max(len(c.points) for c in graph.curves) <= 121
        for curve in graph.curves:
            if curve.termination is not Termination.STRIP_BOUNDARY:
                continue
            last = curve.points[-1]
            if name == "tanh":
                assert abs(last.imag) >= strip - 1e-3
            else:
                assert 0.5 <= roundoff_share(problem, last) <= 1.0
                assert independent_level_drift(problem, problem.lambda0, curve) < 1e-8


def test_symmetry_broken_graph_stays_on_the_level_set():
    # the A5 acceptance graphs are symmetric pairs; here A and B are both even
    problem = GRAPH_PROBLEMS["ctrl"].with_(eps=0.05)
    for curve in graph_of("ctrl", 0.05).curves:
        assert independent_level_drift(problem, problem.lambda0, curve) < 1e-8


def test_trace_refuses_a_double_turning_point():
    # at lambda = 1.5 on the well, z = 0 is not a turning point and A' = 0
    # there, so no Stokes line starts from it
    with pytest.raises(DegenerateTurningPoint, match="not simple"):
        z.trace_stokes_line(z.Problem(z.well_even(), 1.5, 0.2, 0.05), 1.5, 0.0, 0.0)


def test_trace_refuses_a_first_hop_out_of_the_strip():
    # the tanh strip ends at |Im z| = 0.5; a start at Im z = 0.495 heading
    # straight up leaves it on the first hop
    p = z.Problem(z.monotone_odd(), 1.0, 0.3, 0.1, 0.05)
    with pytest.raises(StepFailure, match="first hop"):
        z.trace_stokes_line(p, 1.0, 0.55 + 0.495j, math.pi / 2)


def test_graph_curves_stay_on_the_level_set_in_few_vertices():
    # the corrector puts every vertex back on Re phase = 0, so the steps are
    # bounded by the phase quadrature alone; these graphs drift by at most
    # 6.1e-11 and take at most 142 vertices on a curve, where RK4 steps
    # drifted by up to 1.2e-9 and took 629-710 on the gaussian families
    for name, eps in FIXED_STEP_ENDS:
        problem = GRAPH_PROBLEMS[name].with_(eps=eps)
        graph = graph_of(name, eps)
        assert max(len(c.points) for c in graph.curves) <= 200
        for curve in graph.curves:
            assert independent_level_drift(problem, problem.lambda0, curve) < 1e-9
