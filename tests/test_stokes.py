import json
import math

import numpy as np
import pytest

import zswkb as z
from zswkb.errors import DegenerateTurningPoint, StepFailure
from zswkb.stokes import Termination

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
    # per lockstep iteration, rejected attempts included: one array call for
    # each of the three RK4 stages after the first, one for the new vertices
    # and their panel nodes, and one per projection every tenth iteration; a
    # scalar tracer makes about 8 calls per curve and step
    calls = []
    eval_potential = z.stokes.eval_potential

    def counting(*args, **kwargs):
        calls.append(1)
        return eval_potential(*args, **kwargs)

    monkeypatch.setattr(z.stokes, "eval_potential", counting)
    graph = z.build_graph(well_problem.with_(eps=0.05), 1.5)
    assert len(calls) <= 4.2 * max(len(c.points) for c in graph.curves)


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


@pytest.mark.parametrize("name, eps", list(FIXED_STEP_ENDS))
def test_graph_terminations_and_reach(name, eps):
    problem = GRAPH_PROBLEMS[name].with_(eps=eps)
    lam = problem.lambda0
    graph = z.build_graph(problem, lam)
    assert [c.termination.value for c in graph.curves] == FIXED_STEP_ENDS[name, eps]
    # the fixed step took up to 5,724 vertices on a curve of these graphs
    # (4,022 on each strip-boundary curve of well at eps = 0.05)
    assert max(len(c.points) for c in graph.curves) <= 1500
    strip = problem.potential.strip_half_width
    tps = np.asarray(graph.turning_points)
    for curve in graph.curves:
        # no step is longer than 0.05 or half the way to the nearest turning
        # point, up to the projection's nudge
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
            # the gaussian families end at the magnitude wall, far inside the strip
            a, _ = z.eval_potential(problem.potential, last, eps)
            assert abs(np.sqrt(a * a - lam * lam)) >= 0.99e6


def test_symmetry_broken_graph_stays_on_the_level_set():
    # the A5 acceptance graphs are symmetric pairs; here A and B are both even
    problem = GRAPH_PROBLEMS["ctrl"].with_(eps=0.05)
    graph = z.build_graph(problem, problem.lambda0)
    for curve in graph.curves:
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
