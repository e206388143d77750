"""Acceptance suite: one test per criterion, printing one PASS line each.

Heavy spectra are computed once per (family, h, eps) and shared across
criteria through the session cache.
"""
import math
import warnings

import numpy as np
import pytest

import zswkb as z

from conftest import rng
from oracles import independent_level_drift

FAMILIES = {
    "well": (z.well_even(), 1.5, 0.2),       # A even, B odd  (sym1)
    "tanh": (z.monotone_odd(), 1.0, 0.3),    # A odd,  B even (sym2)
}

H_SWEEP = (0.1, 0.05, 0.025)


def make_problem(name: str, h: float, eps: float = 0.0) -> z.Problem:
    spec, lam0, delta = FAMILIES[name]
    return z.Problem(spec, lam0, delta, h, eps)


@pytest.fixture(scope="module")
def direct_real(spectra_cache):
    def get(name: str, h: float):
        return spectra_cache((name, h, 0.0, "direct"),
                             lambda: z.direct_spectrum_real(make_problem(name, h)))
    return get


@pytest.fixture(scope="module")
def wkb(spectra_cache):
    def get(name: str, h: float):
        return spectra_cache((name, h, 0.0, "wkb"),
                             lambda: z.wkb_spectrum(make_problem(name, h)))
    return get


def test_a1_quantization_accuracy(direct_real, wkb, capsys):
    """Theorem-level h^2 agreement between quantization and the direct solver.

    The monotone family's remainder is numerically zero (quantization exact to
    roundoff), so the log-log slope is fitted on the pooled per-h maximum,
    which the well family dominates; both families must meet the absolute
    bound at the smallest h.
    """
    pooled = {}
    per_family = {}
    for name in FAMILIES:
        for h in H_SWEEP:
            wkb_records = wkb(name, h)
            direct_records = direct_real(name, h)
            assert len(wkb_records) == len(direct_records), (name, h)
            diff = max(abs(a.lam - b.lam)
                       for a, b in zip(wkb_records, direct_records))
            pooled[h] = max(pooled.get(h, 0.0), diff)
            per_family[(name, h)] = diff
    slope = np.polyfit(np.log(H_SWEEP), np.log([pooled[h] for h in H_SWEEP]), 1)[0]
    assert 1.6 <= slope <= 2.4
    for name in FAMILIES:
        assert per_family[(name, 0.025)] < 5e-3 * 0.025
    with capsys.disabled():
        print(f"ACCEPTANCE 1 quantization-accuracy: PASS "
              f"(slope={slope:.3f}, max diff at h=0.025: "
              f"well={per_family[('well', 0.025)]:.2e}, "
              f"tanh={per_family[('tanh', 0.025)]:.2e})")


def test_a2_branch_parity(direct_real, capsys):
    """Fractional parts of I/(pi*h) at direct eigenvalues: 0.5 vs 0.0."""
    h = 0.025
    fracs = {}
    for name in FAMILIES:
        problem = make_problem(name, h)
        vals = []
        for rec in direct_real(name, h):
            act = z.action_integral(problem, rec.lam.real)
            vals.append((act.value.real / (math.pi * h)) % 1.0)
        fracs[name] = vals
    assert all(abs(f - 0.5) < 0.1 for f in fracs["well"])
    assert all(min(f, 1.0 - f) < 0.1 for f in fracs["tanh"])
    with capsys.disabled():
        print(f"ACCEPTANCE 2 branch-parity: PASS "
              f"(well offsets from 1/2: {max(abs(f - 0.5) for f in fracs['well']):.3f}, "
              f"tanh offsets from 0: {max(min(f, 1 - f) for f in fracs['tanh']):.3f})")


def test_a3_spectral_reality_under_symmetry(spectra_cache, capsys):
    """Both PT-like pairings keep every Wronskian zero real, certified complete."""
    worst_im = 0.0
    for name in FAMILIES:
        for eps in (0.01, 0.05):
            for h in (0.05, 0.025):
                problem = make_problem(name, h, eps)
                records = spectra_cache(
                    (name, h, eps, "complex"),
                    lambda p=problem: z.direct_spectrum_complex(p))
                assert records, (name, h, eps)
                # the real scan reads W off its symmetry line: the same roots
                real = z.direct_spectrum_real(problem)
                assert len(real) == len(records), (name, h, eps)
                assert max(abs(a.lam - b.lam) for a, b in zip(real, records)) < 1e-12
                zc = z.count_zeros(problem, z.window_rectangle(problem))
                assert zc.winding == len(records), (name, h, eps)
                worst_im = max(worst_im, max(abs(r.lam.imag) for r in records))
    assert worst_im < 1e-8
    with capsys.disabled():
        print(f"ACCEPTANCE 3 spectral-reality: PASS (max |Im lambda| = {worst_im:.2e}, "
              f"winding counts certified over 8 cells)")


def test_a4_action_symmetry(capsys):
    """conj(I(conj lambda)) = I(lambda) for random complex window points."""
    r = rng(2024)
    worst = 0.0
    for name in FAMILIES:
        spec, lam0, delta = FAMILIES[name]
        for eps in (0.0, 0.05):
            problem = z.Problem(spec, lam0, delta, 0.05, eps)
            for _ in range(20):
                radius = delta * math.sqrt(r.uniform(0.0, 0.25))
                angle = r.uniform(0.0, 2 * math.pi)
                lam = lam0 + radius * complex(math.cos(angle), math.sin(angle))
                worst = max(worst, z.check_schwarz_symmetry(problem, lam))
    assert worst < 1e-10
    with capsys.disabled():
        print(f"ACCEPTANCE 4 action-symmetry: PASS (max discrepancy = {worst:.2e})")


def test_a5_stokes_directions_and_fidelity(capsys):
    """Emanation angles at both turning points; traced level-set fidelity."""
    targets_alpha = (0.0, 2 * math.pi / 3, 4 * math.pi / 3)
    targets_beta = (math.pi / 3, math.pi, 5 * math.pi / 3)
    worst_angle = 0.0
    worst_drift = 0.0
    for name in FAMILIES:
        spec, lam0, delta = FAMILIES[name]
        problem = z.Problem(spec, lam0, delta, 0.05)
        pair = z.find_turning_points(problem, lam0)
        for tp, targets in ((pair.alpha, targets_alpha), (pair.beta, targets_beta)):
            angles = z.stokes_directions(problem, lam0, tp)
            for got, want in zip(angles, targets):
                gap = abs(got - want) % (2 * math.pi)
                worst_angle = max(worst_angle, min(gap, 2 * math.pi - gap))
        graph = z.build_graph(problem, lam0)
        assert len(graph.curves) == 6
        for curve in graph.curves:
            worst_drift = max(worst_drift,
                              independent_level_drift(problem, lam0, curve))
    assert worst_angle < 1e-3
    assert worst_drift < 1e-6
    with capsys.disabled():
        print(f"ACCEPTANCE 5 stokes-geometry: PASS (max angle error = {worst_angle:.2e} rad, "
              f"max level drift = {worst_drift:.2e})")


def test_a6_self_adjoint_baseline(spectra_cache, capsys):
    """eps = 0 complex search finds only real zeros, every one the winding counts."""
    h = 0.05
    for name in FAMILIES:
        problem = make_problem(name, h)
        records = spectra_cache((name, h, 0.0, "complex"),
                                lambda p=problem: z.direct_spectrum_complex(p))
        assert max(abs(r.lam.imag) for r in records) < 1e-10
        # complete: as many roots as the argument principle counts in the window
        assert z.count_zeros(problem, z.window_rectangle(problem)).winding == len(records)
        base = problem.with_(eps=0.0)
        d_i = (z.action_integral(base, problem.lambda0 + problem.delta).value.real
               - z.action_integral(base, problem.lambda0 - problem.delta).value.real)
        predicted = round(d_i / (math.pi * h))
        assert abs(len(records) - predicted) <= 1, (name, len(records), predicted)
    with capsys.disabled():
        print("ACCEPTANCE 6 self-adjoint-baseline: PASS "
              "(real zeros only, counts match the winding and round(delta I / pi h) +/- 1)")


def test_a7_oracle_robustness(direct_real, wkb, capsys):
    """Eigenvalues are invariant to matching point, cutoffs and node counts."""
    h = 0.05
    worst = 0.0
    for name in FAMILIES:
        base = direct_real(name, h)
        problem = make_problem(name, h)
        x_l, x_r = z.domain_cuts(problem)
        variants = [
            problem.with_(matching_point=z.problem.matching_point(problem) + 0.2),
            problem.with_(matching_point=z.problem.matching_point(problem) - 0.2),
            problem.with_(x_cut_left=1.25 * x_l, x_cut_right=1.25 * x_r),
        ]
        for variant in variants:
            moved = z.direct_spectrum_real(variant)
            assert len(moved) == len(base)
            worst = max(worst, max(abs(a.lam - b.lam) for a, b in zip(moved, base)))
        doubled = problem.with_(tolerances=z.Tolerances(
            **{**problem.tolerances.as_dict(), "quad_min_nodes": 64}))
        for a, b in zip(wkb(name, h), z.wkb_spectrum(doubled)):
            worst = max(worst, abs(a.lam - b.lam))
    assert worst < 1e-9
    with capsys.disabled():
        print(f"ACCEPTANCE 7 oracle-robustness: PASS (max eigenvalue shift = {worst:.2e})")


def test_a8_symmetry_broken_control(capsys):
    """A even with B even must visibly break reality: the test has power."""
    spec = z.custom([("const", 2.0), ("gauss", -1.0)], [("gauss", 1.0)])
    problem = z.Problem(spec, 1.5, 0.2, 0.05, eps=0.05)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        records = z.direct_spectrum_complex(problem)
    assert records
    biggest = max(abs(r.lam.imag) for r in records)
    assert biggest > 1e-6
    with capsys.disabled():
        print(f"ACCEPTANCE 8 symmetry-broken-control: PASS "
              f"(max |Im lambda| = {biggest:.2e} > 1e-6)")
