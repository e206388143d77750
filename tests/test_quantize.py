import dataclasses
import math
import sys
import warnings

import numpy as np
import pytest

import zswkb as z
from zswkb import action, potential, quantize
from zswkb.errors import EmptyWindow, LeftStrip, LeftWindow, NoConvergence, ZSWKBError
from zswkb.quantize import Branch, Method, branch_offset, indices_in_range


def test_select_branch(well_problem, tanh_problem):
    assert z.select_branch(z.a1_report(well_problem)) is Branch.HALF_INTEGER
    assert z.select_branch(z.a1_report(tanh_problem)) is Branch.INTEGER


def test_select_branch_depends_only_on_sign_product():
    # asymmetric profile whose two crossings carry equal signs of A
    spec = z.custom([("const", 2.0), ("gauss", -1.0, 1.0), ("xgauss", -0.15, 0.4)], [])
    rep = z.validate_A1(spec, 1.5, 8.0)
    assert rep.well_type is z.WellType.SIMPLE_WELL
    assert z.select_branch(rep) is Branch.HALF_INTEGER


def test_indices_in_range_integer_branch():
    # k*pi*h in [0.30, 0.60] at h = 0.05: 2*pi*0.05 = 0.314, 3*pi*0.05 = 0.471
    assert indices_in_range(0.30, 0.60, 0.05, Branch.INTEGER) == [2, 3]


def test_indices_in_range_half_integer_branch():
    # (k+1/2)*pi*h: 0.236 excluded, 0.393 and 0.550 inside
    ks = indices_in_range(0.30, 0.60, 0.05, Branch.HALF_INTEGER)
    assert ks == [2, 3]
    for k in ks:
        assert 0.30 <= (k + 0.5) * math.pi * 0.05 <= 0.60
    assert (1 + 0.5) * math.pi * 0.05 < 0.30


def test_indices_empty_when_h_large():
    assert indices_in_range(0.30, 0.60, 10.0, Branch.INTEGER) == []


def test_enumerate_indices_empty_window(well_problem):
    with pytest.raises(EmptyWindow):
        z.enumerate_indices(well_problem.with_(h=10.0))


def test_enumerate_indices_below_the_well_floor(well_problem):
    # lambda0 - delta = 0.9 lies below min|A| = 1: the window's lower edge has
    # no turning points, so no action range; the error type is not pinned
    with pytest.raises(ZSWKBError):
        z.enumerate_indices(well_problem.with_(lambda0=1.1))


def test_solve_quantization_real_monotone(tanh_problem):
    ks = z.enumerate_indices(tanh_problem)
    rec = z.solve_quantization(tanh_problem, ks[len(ks) // 2])
    assert rec.residual < 1e-12
    assert abs(rec.lam.imag) < 1e-12
    assert rec.branch is Branch.INTEGER
    assert rec.method is Method.WKB
    # the defining relation: I(lam) = k*pi*h to the solver tolerance
    act = z.action_integral(tanh_problem, rec.lam)
    assert abs(act.value - rec.k * math.pi * tanh_problem.h) < 1e-10


def test_solve_quantization_symmetric_perturbation_stays_real(well_problem):
    p = well_problem.with_(eps=0.05)
    ks = z.enumerate_indices(p)
    rec = z.solve_quantization(p, ks[len(ks) // 2])
    assert abs(rec.lam.imag) < 1e-10
    assert rec.residual < 1e-12


def test_solve_quantization_left_window(well_problem):
    ks = z.enumerate_indices(well_problem)
    with pytest.raises(LeftWindow):
        z.solve_quantization(well_problem, ks[-1] + 3)


def test_wkb_spectrum_count_and_order(well_problem):
    ks = z.enumerate_indices(well_problem)
    recs = z.wkb_spectrum(well_problem)
    assert len(recs) == len(ks)
    lams = [r.lam.real for r in recs]
    assert lams == sorted(lams)
    assert [r.k for r in recs] == ks


def test_wkb_spacing_matches_local_linearization(tanh_problem):
    p = tanh_problem.with_(h=0.02)
    recs = z.wkb_spectrum(p)
    for a, b in zip(recs[:-1], recs[1:]):
        mid = 0.5 * (a.lam + b.lam)
        predicted = math.pi * p.h / z.action_integral(p, mid).dvalue_dlambda.real
        actual = (b.lam - a.lam).real
        assert abs(actual - predicted) / predicted < 0.10


def test_wkb_continuity_in_eps(well_problem):
    base = z.wkb_spectrum(well_problem)
    bumped = z.wkb_spectrum(well_problem.with_(eps=1e-6))
    assert len(base) == len(bumped)
    for a, b in zip(base, bumped):
        assert abs(a.lam - b.lam) < 1e-4


def test_requantize_with_doubled_nodes_is_stable(well_problem):
    tol = well_problem.tolerances
    doubled = well_problem.with_(tolerances=z.Tolerances(
        **{**tol.as_dict(), "quad_min_nodes": 64}))
    for k in z.enumerate_indices(well_problem)[:3]:
        a = z.solve_quantization(well_problem, k)
        b = z.solve_quantization(doubled, k)
        assert abs(a.lam - b.lam) < 1e-9


@pytest.mark.parametrize("eps", [0.0, 0.05])
@pytest.mark.parametrize("spec, lambda0, delta", [
    (z.well_even(), 1.5, 0.2), (z.monotone_odd(), 1.0, 0.3)], ids=["well", "tanh"])
def test_wkb_spectrum_action_calls_per_root(monkeypatch, spec, lambda0, delta, eps):
    # each root costs its share of the window-edge actions plus a few Newton
    # steps; the lockstep solver hands those rows to the array action
    rows = []
    action_rows = quantize._action_rows

    def counted(problem, lams, *args):
        rows.append(len(lams))
        return action_rows(problem, lams, *args)

    monkeypatch.setattr(quantize, "_action_rows", counted)
    recs = z.wkb_spectrum(z.Problem(spec, lambda0, delta, 0.025, eps=eps))
    assert recs
    assert sum(rows) <= 10 * len(recs)


@pytest.mark.parametrize("spec, lambda0, delta, h, eps, count", [
    # the eps = 0 level at 1.199983 lies just below the window; eps moves it in
    (z.well_even(), 1.5, 0.3, 0.0125, 0.05, 59),
    (z.monotone_odd(), 1.0, 0.3, 0.1, 0.5, 4),
], ids=["well", "tanh"])
def test_wkb_spectrum_keeps_a_level_that_eps_moves_into_the_window(spec, lambda0, delta, h,
                                                                   eps, count):
    # under a pairing I(lambda, eps) is real on the real axis, so the index
    # range comes from the window's edge actions at the problem's own eps
    p = z.Problem(spec, lambda0, delta, h, eps=eps)
    assert len(z.wkb_spectrum(p)) == len(z.direct_spectrum_real(p)) == count


def test_wkb_spectrum_raises_where_the_edge_action_fails():
    # at eps = 1.2 the lower edge's turning points leave the tanh strip: the
    # range, and so the spectrum, fails with the action's own error
    with pytest.raises(LeftStrip):
        z.wkb_spectrum(z.Problem(z.monotone_odd(), 1.0, 0.3, 0.1, eps=1.2))


def test_wkb_spectrum_potential_calls_do_not_scale_with_roots(monkeypatch):
    # a Newton round is one array potential call per turning-point iteration
    # and per node count for all indices, so four times the roots cost about
    # as many calls
    calls = []
    eval_potential = z.eval_potential

    def counted(*args, **kwargs):
        calls.append(1)
        return eval_potential(*args, **kwargs)

    monkeypatch.setattr("zswkb.turning.eval_potential", counted)
    monkeypatch.setattr("zswkb.action.eval_potential", counted)
    counts = {}
    for h in (0.05, 0.0125):
        calls.clear()
        recs = z.wkb_spectrum(z.Problem(z.well_even(), 1.5, 0.2, h, eps=0.05))
        counts[h] = (len(recs), len(calls))
    assert counts[0.0125][0] >= 3 * counts[0.05][0]
    assert counts[0.0125][1] <= 1.5 * counts[0.05][1]


# a paired problem takes its window's edge actions at its own eps, so at
# eps > 0 no eps = 0 base problem is set up either
@pytest.mark.parametrize("eps, cold", [(0.0, 1), (0.05, 1)])
@pytest.mark.parametrize("spec, lambda0, delta", [
    (z.well_even(), 1.5, 0.2), (z.monotone_odd(), 1.0, 0.3)], ids=["well", "tanh"])
def test_wkb_spectrum_samples_the_crossing_grid_once_per_problem(monkeypatch, spec, lambda0,
                                                                 delta, eps, cold):
    # the real turning-point seeds are bracketed on the samples a1_report
    # keeps: a cold call samples A once per Problem, and a repeat call not at all
    grid = []
    eval_a = potential.eval_A

    def counted(spec_, x):
        grid.append(np.size(x) == potential._CROSSING_SAMPLES)
        return eval_a(spec_, x)

    monkeypatch.setattr(potential, "eval_A", counted)
    monkeypatch.setattr("zswkb.turning.eval_A", counted, raising=False)
    z.a1_report.cache_clear()
    p = z.Problem(spec, lambda0, delta, 0.05, eps=eps)
    z.wkb_spectrum(p)
    assert sum(grid) == cold
    grid.clear()
    z.wkb_spectrum(p)
    assert sum(grid) == 0


@pytest.mark.parametrize("eps, cold", [(0.0, 1), (0.05, 1)])
@pytest.mark.parametrize("spec, lambda0, delta", [
    (z.well_even(), 1.5, 0.2), (z.monotone_odd(), 1.0, 0.3)], ids=["well", "tanh"])
def test_wkb_spectrum_searches_real_crossings_only_for_a1(monkeypatch, spec, lambda0, delta,
                                                          eps, cold):
    # every Newton round continues its turning points from a known pair, so
    # the only crossing searches left are the A1 reports' of each Problem
    callers = []
    search = potential.real_crossings

    def counted(*args):
        callers.append(sys._getframe(1).f_code.co_name)
        return search(*args)

    monkeypatch.setattr(potential, "real_crossings", counted)
    monkeypatch.setattr("zswkb.problem.real_crossings", counted)
    monkeypatch.setattr("zswkb.turning.real_crossings", counted, raising=False)
    z.a1_report.cache_clear()
    assert z.wkb_spectrum(z.Problem(spec, lambda0, delta, 0.025, eps=eps))
    assert callers == ["validate_A1"] * cold


LOCKSTEP_PROBLEMS = {
    "well": (z.well_even(), 1.5, 0.2),
    "tanh": (z.monotone_odd(), 1.0, 0.3),
    "ctrl": (z.custom([("const", 2.0), ("gauss", -1.0)], [("gauss", 1.0)]), 1.5, 0.2),
}


@pytest.mark.parametrize("eps", [0.0, 0.05])
@pytest.mark.parametrize("name", sorted(LOCKSTEP_PROBLEMS))
def test_wkb_spectrum_equals_one_index_solves(name, eps):
    p = z.Problem(*LOCKSTEP_PROBLEMS[name], 0.025, eps=eps)
    recs = z.wkb_spectrum(p)
    ks = z.enumerate_indices(p)
    assert sorted(r.k for r in recs) == ks
    for rec in recs:
        alone = z.solve_quantization(p, rec.k)
        assert abs(rec.lam - alone.lam) < 1e-12
        assert rec.residual < p.tolerances.quantize_residual
        if rec.k in (ks[0], ks[-1]):
            assert alone.lam == rec.lam
    # the indices just outside the window's range are refused
    for k in (ks[0] - 1, ks[-1] + 1):
        with pytest.raises(LeftWindow, match=f"k={k} "):
            z.solve_quantization(p, k)


@pytest.mark.parametrize("name", sorted(LOCKSTEP_PROBLEMS))
def test_window_action_range_follows_eps_only_under_a_pairing(name):
    # without a pairing I(lambda, eps) is complex on the real axis, and the
    # index range stays at eps = 0
    p = z.Problem(*LOCKSTEP_PROBLEMS[name], 0.05, eps=0.05)
    paired = z.symmetry_class(p) is not z.SymmetryClass.NONE
    assert paired is (name != "ctrl")
    base = quantize._window(p.with_(eps=0.0))[1:3]
    assert (quantize._window(p)[1:3] != base) is paired


# the window's two edges read no h, cut or matching point: a sweep over h and
# a one-index solve continue them from the A1 pair once per eps they need, and
# every index starts between the edge pairs at the problem's own eps, with no
# homotopy of its own.  ``homotopies`` counts the edge sets: without a pairing
# at eps > 0 the index range comes from the edges at eps = 0 and the pairs
# from those at the problem's eps
@pytest.mark.parametrize("name, eps, homotopies", [
    ("well", 0.0, 1), ("well", 0.05, 1), ("tanh", 0.0, 1), ("tanh", 0.05, 1),
    ("ctrl", 0.0, 1), ("ctrl", 0.05, 2)])
def test_turning_points_are_continued_from_the_a1_pair_once_per_call(monkeypatch, name, eps,
                                                                     homotopies):
    p = z.Problem(*LOCKSTEP_PROBLEMS[name], 0.05, eps=eps)
    edges = [("edges", 0.0), ("edges", eps)][2 - homotopies:]
    calls = []
    turning_rows = action._turning_rows

    def counted(problem, lams, z_=None):
        if z_ is None:
            at_edges = np.array_equal(lams, [p.lambda0 - p.delta, p.lambda0 + p.delta])
            calls.append(("edges", problem.eps) if at_edges else ("first round", problem.eps))
        return turning_rows(problem, lams, z_)

    monkeypatch.setattr(action, "_turning_rows", counted)
    z.a1_report.cache_clear()
    for h in (0.05, 0.025, 0.0125):
        recs = z.wkb_spectrum(p.with_(h=h))
    z.solve_quantization(p.with_(h=0.0125), recs[len(recs) // 2].k)
    assert calls == edges
    # clearing the A1 reports clears the edges continued from them
    calls.clear()
    z.a1_report.cache_clear()
    z.wkb_spectrum(p)
    assert calls == edges


@pytest.mark.parametrize("h", [0.05, 0.0125])
@pytest.mark.parametrize("name, eps, rounds", [
    ("well", 0.0, 3), ("well", 0.05, 3), ("ctrl", 0.0, 3), ("ctrl", 0.05, 4), ("tanh", 0.0, 4),
    ("tanh", 0.05, 4)])
def test_hermite_seed_settles_every_index_in_few_newton_rounds(monkeypatch, name, eps, rounds,
                                                               h):
    # the cubic Hermite interpolant of lambda(I) through the edges, with the
    # edges' own slopes, starts each index closer than the secant did (4
    # rounds on well and ctrl, 5 on tanh)
    p = z.Problem(*LOCKSTEP_PROBLEMS[name], h, eps=eps)
    z.wkb_spectrum(p)  # with the edges cached, every array action call is a Newton round
    calls = []
    action_rows = quantize._action_rows

    def counted(problem, lams, *args):
        calls.append(len(lams))
        return action_rows(problem, lams, *args)

    monkeypatch.setattr(quantize, "_action_rows", counted)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        recs = z.wkb_spectrum(p)
    assert calls[0] == len(recs) == len(z.enumerate_indices(p))
    assert len(calls) <= rounds


def test_window_edges_are_cached_on_what_they_read():
    # h, the cuts and the matching point leave the edges alone and every eps
    # moves them; an unpaired problem at eps > 0 reads the shared eps = 0 set
    # for its index range and its own eps's set for its pairs
    well = z.Problem(*LOCKSTEP_PROBLEMS["well"], 0.05, eps=0.05)
    ctrl = z.Problem(*LOCKSTEP_PROBLEMS["ctrl"], 0.05)
    for cells, edges in [
            ([well, well.with_(h=0.0125), well.with_(x_cut_left=-3.0, x_cut_right=3.0),
              well.with_(matching_point=0.1)], 1),
            ([well, well.with_(eps=0.1)], 2),
            ([ctrl, ctrl.with_(eps=0.05), ctrl.with_(eps=0.2, h=0.025)], 3),
            ([ctrl.with_(eps=0.05), ctrl.with_(eps=0.05, h=0.0125)], 2)]:
        z.a1_report.cache_clear()
        for cell in cells:
            z.wkb_spectrum(cell)
        assert quantize._edges.cache_info().misses == edges
    # a cell's roots do not depend on which h continued its edges
    for cell in (well, ctrl.with_(eps=0.05)):
        z.a1_report.cache_clear()
        cold = z.wkb_spectrum(cell.with_(h=0.0125))
        z.a1_report.cache_clear()
        z.wkb_spectrum(cell)
        assert z.wkb_spectrum(cell.with_(h=0.0125)) == cold


@pytest.mark.parametrize("spec, lambda0, delta, h, eps, count", [
    *[pytest.param(*LOCKSTEP_PROBLEMS[name], 0.025, eps, None, id=f"{name}-{eps}")
      for name in sorted(LOCKSTEP_PROBLEMS) for eps in (0.0, 0.05)],
    # seeded from edges near the well floor, where the turning points close up
    pytest.param(z.well_even(), 1.5, 0.45, 0.0125, 0.05, 95, id="well-deep"),
    # no pairing at eps > 0: the index range comes from the eps = 0 edges,
    # and the first round starts between the edge pairs at eps = 0.3
    pytest.param(LOCKSTEP_PROBLEMS["ctrl"][0], 1.5, 0.49, 0.025, 0.3, 55, id="ctrl-wide"),
    # A and B both odd: no pairing, on a strip of half-width 0.5
    pytest.param(z.custom([("tanh", 2.0)], [("xgauss", 1.0)], strip_half_width=0.5),
                 1.0, 0.3, 0.025, 0.3, 14, id="odd-odd"),
])
def test_wkb_roots_meet_their_targets_by_the_one_row_action(spec, lambda0, delta, h, eps,
                                                            count):
    # action_integral continues each root's turning points from the A1 pair,
    # independently of the window-edge pairs that started the Newton solve
    p = z.Problem(spec, lambda0, delta, h, eps=eps)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        recs = z.wkb_spectrum(p)
    assert count is None or len(recs) == count
    offset = branch_offset(z.select_branch(z.a1_report(p)))
    for rec in recs:
        target = (rec.k + offset) * math.pi * p.h
        assert abs(z.action_integral(p, rec.lam).value - target) < 1e-11


def test_wkb_spectrum_failed_index_leaves_the_others(monkeypatch):
    p = z.Problem(z.well_even(), 1.5, 0.2, 0.025, eps=0.05)
    ks = z.enumerate_indices(p)
    clean = z.wkb_spectrum(p)
    bad = ks[len(ks) // 2]
    action_rows = quantize._action_rows
    first_round = [True]

    def failing(problem, lams, *args):
        acts, pairs = action_rows(problem, lams, *args)
        if len(lams) == len(ks) and first_round[0]:
            # the clean run cached the window's edges; every index is live
            # in the first Newton round, in index order
            first_round[0] = False
            acts[ks.index(bad)] = NoConvergence("injected")
        return acts, pairs

    monkeypatch.setattr(quantize, "_action_rows", failing)
    with pytest.warns(UserWarning) as caught:
        recs = z.wkb_spectrum(p)
    assert [str(w.message) for w in caught] == [f"quantization failed for k={bad}: injected"]
    assert recs == [r for r in clean if r.k != bad]


def test_wkb_spectrum_warns_for_an_iterate_that_leaves_the_window(monkeypatch):
    # a derivative a billion times too small sends one index's first Newton
    # step far outside the window; that index warns once, the others settle
    p = z.Problem(z.well_even(), 1.5, 0.2, 0.025, eps=0.05)
    ks = z.enumerate_indices(p)
    clean = z.wkb_spectrum(p)
    bad = ks[len(ks) // 2]
    action_rows = quantize._action_rows
    first_round = [True]

    def flattened(problem, lams, *args):
        acts, pairs = action_rows(problem, lams, *args)
        if len(lams) == len(ks) and first_round[0]:  # the first Newton round, not the edges
            first_round[0] = False
            j = ks.index(bad)
            acts[j] = dataclasses.replace(acts[j], dvalue_dlambda=1e-9 * acts[j].dvalue_dlambda)
        return acts, pairs

    monkeypatch.setattr(quantize, "_action_rows", flattened)
    with pytest.warns(UserWarning) as caught:
        recs = z.wkb_spectrum(p)
    assert len(caught) == 1
    assert str(caught[0].message).startswith(f"quantization failed for k={bad}: Newton iterate ")
    assert str(caught[0].message).endswith(" left the spectral window")
    assert recs == [r for r in clean if r.k != bad]


def test_wkb_spectrum_warns_once_per_index_at_the_round_cap(monkeypatch):
    # no Hermite seed meets the residual test, so one round leaves every index
    # unsettled
    p = z.Problem(z.well_even(), 1.5, 0.2, 0.05, eps=0.05)
    ks = z.enumerate_indices(p)
    monkeypatch.setattr(quantize, "_NEWTON_CAP", 1)
    with pytest.warns(UserWarning) as caught:
        assert z.wkb_spectrum(p) == []
    assert [str(w.message) for w in caught] == [
        f"quantization failed for k={k}: quantization Newton did not converge for k={k}"
        for k in ks]


def test_branch_offset_values():
    assert branch_offset(Branch.HALF_INTEGER) == 0.5
    assert branch_offset(Branch.INTEGER) == 0.0
