import math

import numpy as np
import pytest

import zswkb as z
from zswkb.errors import A1Violated, OutOfStrip, ZSWKBError
from zswkb import potential
from zswkb.potential import axis_blend_callable, real_crossings
from zswkb.problem import matching_point

from conftest import rng

SQRT_LN2 = math.sqrt(math.log(2.0))  # root of exp(-x^2) = 1/2
ATANH_HALF = math.atanh(0.5)


def test_eval_well_even_at_origin(well_spec):
    val, dval = z.eval_potential(well_spec, 0.0, 0.0)
    assert val == pytest.approx(1.0)
    assert dval == pytest.approx(0.0)


def test_eval_monotone_at_origin(tanh_spec):
    val, dval = z.eval_potential(tanh_spec, 0.0, 0.0)
    assert val == pytest.approx(0.0)
    assert dval == pytest.approx(2.0)


def test_eval_perturbed_at_origin(well_spec):
    # B(0) = 0 and B'(0) = 1, so only the derivative picks up i*eps
    val, dval = z.eval_potential(well_spec, 0.0, 0.05)
    assert val == pytest.approx(1.0)
    assert dval == pytest.approx(0.05j)


def test_out_of_strip_raises(tanh_spec):
    with pytest.raises(OutOfStrip):
        z.eval_potential(tanh_spec, 0.4j + 0.2j, 0.0)


def test_out_of_strip_raises_for_one_point_of_an_array(tanh_spec):
    pts = np.array([0.1, -0.3 + 0.2j, 0.45j, 1.0 - 0.1j])
    z.eval_potential(tanh_spec, pts, 0.05)
    pts[2] = 0.55j
    with pytest.raises(OutOfStrip):
        z.eval_potential(tanh_spec, pts, 0.05)


@pytest.mark.parametrize("shape", [(), (1,), (3,), (2, 3)])
def test_strip_check_is_inclusive_at_the_boundary(tanh_spec, shape):
    # |Im z| == strip_half_width is out; the largest double below it is in,
    # and a NaN imaginary part is left to the arithmetic, as before
    edge = tanh_spec.strip_half_width
    inside = np.nextafter(edge, 0.0)
    for im in (inside, -inside, math.nan):
        z.eval_potential(tanh_spec, np.full(shape, 0.3 + 1j * im), 0.05)
    for im in (edge, -edge):
        pts = np.full(shape, 0.3 + 1j * inside)
        pts[np.unravel_index(pts.size - 1, shape)] = 0.3 + 1j * im
        for derivative in (True, False):
            with pytest.raises(OutOfStrip):
                z.eval_potential(tanh_spec, pts, 0.05, derivative=derivative)


def test_eps_must_be_nonnegative(well_spec):
    with pytest.raises(ValueError):
        z.eval_potential(well_spec, 0.0, -0.1)
    with pytest.raises(ValueError):
        z.eval_potential(well_spec, 0.0, math.nan)


@pytest.mark.parametrize("field,value", [
    ("lambda0", math.inf), ("lambda0", math.nan), ("delta", math.inf), ("h", math.inf),
    ("h", -0.1), ("eps", math.nan), ("eps", math.inf), ("eps", -0.1)])
def test_problem_rejects_non_finite_or_out_of_range(well_spec, field, value):
    args = {"lambda0": 1.5, "delta": 0.2, "h": 0.1, "eps": 0.0, field: value}
    with pytest.raises(ValueError):
        z.Problem(well_spec, **args)


@pytest.mark.parametrize("spec_fn", [
    lambda: z.well_even(),
    lambda: z.monotone_odd(),
    lambda: z.well_even(3.0, 1.5),
    lambda: z.custom([("const", 2.0), ("gauss", -1.0, 2.0)], [("xgauss", 0.7, 1.3)]),
])
def test_derivative_matches_finite_differences(spec_fn):
    spec = spec_fn()
    r = rng(7)
    width = min(0.4 * spec.strip_half_width, 2.0)
    step = 1e-5
    for _ in range(20):
        zz = complex(r.uniform(-3, 3), r.uniform(-width, width))
        _, dval = z.eval_potential(spec, zz, 0.03)
        plus, _ = z.eval_potential(spec, zz + step, 0.03)
        minus, _ = z.eval_potential(spec, zz - step, 0.03)
        fd = (plus - minus) / (2 * step)
        assert abs(dval - fd) < 1e-6 * max(1.0, abs(dval))


@pytest.mark.parametrize("preset, spelled", [
    (z.well_even(3.0, 1.5),
     z.custom([("const", 3.0), ("gauss", -1.5)], [("xgauss", 1.0)], strip_half_width=10.0)),
    (z.monotone_odd(2.0),
     z.custom([("tanh", 2.0)], [("gauss", 1.0)], strip_half_width=0.5)),
])
def test_presets_equal_their_custom_spelling(preset, spelled):
    r = rng(5)
    w = 0.9 * min(preset.strip_half_width, 2.0)
    pts = r.uniform(-4, 4, 200) + 1j * r.uniform(-w, w, 200)
    for eps in (0.0, 0.05):
        val, dval = z.eval_potential(preset, pts, eps)
        val_c, dval_c = z.eval_potential(spelled, pts, eps)
        assert np.array_equal(val, val_c)
        assert np.array_equal(dval, dval_c)


# every term kind, with an A gauss and a B xgauss of one scale that share
# their exponential and a B gauss of another scale that must not
ALL_KINDS = z.custom([("const", 2.0), ("tanh", 0.5, 0.8), ("gauss", -1.0, 1.3)],
                     [("const", 0.1), ("xgauss", 0.7, 1.3), ("gauss", 0.4, 2.0)])
CTRL = z.custom([("const", 2.0), ("gauss", -1.0)], [("gauss", 1.0)])  # A8's control


@pytest.mark.parametrize("spec", [z.well_even(), z.monotone_odd(), CTRL, ALL_KINDS],
                         ids=["well", "tanh", "ctrl", "all-kinds"])
@pytest.mark.parametrize("eps", [0.0, 0.05])
def test_value_only_path_is_bitwise_the_default_value(spec, eps):
    r = rng(11)
    w = 0.9 * min(spec.strip_half_width, 2.0)
    pts = r.uniform(-3, 3, 24) + 1j * r.uniform(-w, w, 24)
    for zz in (pts, pts.reshape(4, 6), pts[0]):
        val, _ = z.eval_potential(spec, zz, eps)
        fast, none = z.eval_potential(spec, zz, eps, derivative=False)
        assert none is None
        assert np.shape(fast) == np.shape(val)
        assert np.asarray(fast).tobytes() == np.asarray(val).tobytes()


def test_shared_exponentials_give_the_closed_form():
    r = rng(12)
    pts = r.uniform(-3, 3, 50) + 1j * r.uniform(-0.45, 0.45, 50)
    e13 = np.exp(-1.3 * pts * pts)
    a = 2.0 + 0.5 * np.tanh(0.8 * pts) - e13
    b = 0.1 + 0.7 * pts * e13 + 0.4 * np.exp(-2.0 * pts * pts)
    for derivative in (True, False):
        val, _ = z.eval_potential(ALL_KINDS, pts, 0.05, derivative=derivative)
        assert np.max(np.abs(val - (a + 0.05j * b))) < 1e-14 * np.max(np.abs(val))


def test_value_only_path_keeps_the_input_checks(tanh_spec):
    pts = np.array([[0.1, -0.3 + 0.2j], [0.55j, 1.0 - 0.1j]])
    with pytest.raises(OutOfStrip):
        z.eval_potential(tanh_spec, pts, 0.05, derivative=False)
    with pytest.raises(OutOfStrip):
        z.eval_potential(tanh_spec, 0.6j, 0.0, derivative=False)
    with pytest.raises(ValueError):
        z.eval_potential(tanh_spec, 0.0, -0.1, derivative=False)
    with pytest.raises(ValueError):
        z.eval_potential(tanh_spec, 0.0, math.nan, derivative=False)


@pytest.mark.parametrize("spec, levels, exact", [
    (z.well_even(2.0, 1.0), (1.3, 1.5, 1.7), lambda lam: math.sqrt(math.log(1.0 / (2.0 - lam)))),
    (z.well_even(3.0, 1.5), (1.6, 2.0, 2.4), lambda lam: math.sqrt(math.log(1.5 / (3.0 - lam)))),
    (z.monotone_odd(2.0), (0.5, 1.0, 1.5), lambda lam: math.atanh(lam / 2.0)),
])
def test_real_crossings_closed_forms(spec, levels, exact):
    for lam in levels:
        row, roots, done, a = real_crossings(spec, [lam], 8.0)
        assert a.shape == (4001,)
        assert len(roots) == 2
        assert done.all() and not row.any()
        assert abs(roots[0] + exact(lam)) < 1e-13
        assert abs(roots[1] - exact(lam)) < 1e-13


def test_real_crossings_evaluation_budget(monkeypatch):
    # one sampling pass plus a few vectorized Newton passes; a scalar
    # scan-and-bisect search costs over a hundred evaluations
    calls = []
    eval_a = potential.eval_A

    def counted(spec, z_):
        calls.append(z_)
        return eval_a(spec, z_)

    monkeypatch.setattr(potential, "eval_A", counted)
    for spec, lam in ((z.well_even(), 1.5), (z.well_even(3.0, 1.5), 2.0),
                      (z.monotone_odd(), 1.0)):
        calls.clear()
        _, roots, done, _ = real_crossings(spec, [lam], 8.0)
        assert len(roots) == 2 and done.all()
        assert len(calls) <= 12


@pytest.mark.parametrize("spec, levels", [
    (z.well_even(2.0, 1.0), (1.3, 1.5, 0.5, 1.7, 2.5)),
    (z.monotone_odd(2.0), (0.5, 1.0, 1.5)),
    (z.custom([("const", 2.0), ("gauss", -1.0)], [("gauss", 1.0)]), (1.4, 1.6)),
])
def test_real_crossings_multi_level_equals_single_levels(spec, levels):
    # brackets polish independently, so each level's roots are bit for bit
    # those of a call with that level alone, also for levels without roots
    row, roots, done, a = real_crossings(spec, levels, 8.0)
    assert np.all(np.diff(row) >= 0)
    for k, lam in enumerate(levels):
        row_k, roots_k, done_k, a_k = real_crossings(spec, [lam], 8.0, a)
        assert not row_k.any()
        assert np.array_equal(roots[row == k], roots_k)
        assert np.array_equal(done[row == k], done_k)
        assert a_k is a


def test_axis_blend_matches_eval_potential():
    for spec in (z.well_even(), z.monotone_odd(),
                 z.custom([("tanh", 1.5, 0.8)], [("gauss", 0.5, 2.0)])):
        blend = axis_blend_callable(spec, 0.07)
        for x in np.linspace(-3, 3, 11):
            ref, _ = z.eval_potential(spec, float(x), 0.07)
            assert abs(blend(float(x)) - complex(ref)) < 1e-14


def test_classify_symmetry_builtins(well_spec, tanh_spec):
    assert z.classify_symmetry(well_spec) is z.SymmetryClass.A_EVEN_B_ODD
    assert z.classify_symmetry(tanh_spec) is z.SymmetryClass.A_ODD_B_EVEN


def test_classify_symmetry_none():
    both_even = z.custom([("const", 2.0), ("gauss", -1.0)], [("gauss", 1.0)])
    assert z.classify_symmetry(both_even) is z.SymmetryClass.NONE


def test_classify_symmetry_invariant_under_scaling():
    r = rng(11)
    for _ in range(10):
        a = r.uniform(1.5, 4.0)
        b = r.uniform(0.2, a - 1.0)
        assert z.classify_symmetry(z.well_even(a, b)) is z.SymmetryClass.A_EVEN_B_ODD
        assert z.classify_symmetry(z.monotone_odd(r.uniform(0.5, 3.0))) \
            is z.SymmetryClass.A_ODD_B_EVEN


def test_validate_a1_well(well_spec):
    rep = z.validate_A1(well_spec, 1.5, 8.0)
    assert rep.alpha0 == pytest.approx(-SQRT_LN2, abs=1e-10)
    assert rep.beta0 == pytest.approx(SQRT_LN2, abs=1e-10)
    assert rep.well_type is z.WellType.SIMPLE_WELL
    assert rep.margin_at_infinity > 0
    a_at_alpha, _ = z.eval_potential(well_spec, rep.alpha0, 0.0)
    a_at_beta, _ = z.eval_potential(well_spec, rep.beta0, 0.0)
    assert abs(a_at_alpha - a_at_beta) < 1e-10


def test_validate_a1_monotone(tanh_spec):
    rep = z.validate_A1(tanh_spec, 1.0, 8.0)
    assert rep.alpha0 == pytest.approx(-ATANH_HALF, abs=1e-10)
    assert rep.beta0 == pytest.approx(ATANH_HALF, abs=1e-10)
    assert rep.well_type is z.WellType.MONOTONIC
    a_at_alpha, _ = z.eval_potential(tanh_spec, rep.alpha0, 0.0)
    a_at_beta, _ = z.eval_potential(tanh_spec, rep.beta0, 0.0)
    assert abs(a_at_alpha + a_at_beta) < 1e-10


def test_validate_a1_no_crossings(tanh_spec):
    with pytest.raises(A1Violated) as exc:
        z.validate_A1(tanh_spec, 2.5, 8.0)
    assert exc.value.reason == "no-margin-at-infinity"


def test_validate_a1_no_crossings_inside_margin():
    # lift the well floor above lambda0 while keeping tails high: no crossings
    spec = z.well_even(3.0, 0.5)
    with pytest.raises(A1Violated) as exc:
        z.validate_A1(spec, 1.5, 8.0)
    assert exc.value.reason == "no-crossings"


def test_validate_a1_extra_crossings():
    # wide dip with a narrow central bump: |A| crosses the level four times
    spec = z.custom([("const", 2.0), ("gauss", -1.3, 0.2), ("gauss", 1.2, 3.0)], [])
    with pytest.raises(A1Violated) as exc:
        z.validate_A1(spec, 1.5, 8.0)
    assert exc.value.reason == "extra-crossings"


def test_spec_json_roundtrip(well_spec):
    doc = z.spec_to_json(well_spec)
    assert doc == {"family": "well-even", "params": [2.0, 1.0], "strip_half_width": 10.0}
    back = z.spec_from_json(doc)
    assert back == well_spec


def test_custom_family_validation():
    with pytest.raises(ValueError):
        z.PotentialSpec("custom-sum-of-terms", (0, 1, 1.0), 1.0)  # not quadruples
    with pytest.raises(ValueError):
        z.PotentialSpec("well-even", (1.0, 2.0), 10.0)  # needs a > b
    with pytest.raises(ValueError):
        z.PotentialSpec("no-such-family", (), 1.0)
    with pytest.raises(ValueError):
        z.custom([("tanh", 1.0, 4.0)], [], strip_half_width=0.5)  # pole inside strip


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_spec_rejects_non_finite_params(bad):
    for make in (lambda: z.well_even(bad, 1.0), lambda: z.well_even(2.0, bad),
                 lambda: z.monotone_odd(bad),
                 lambda: z.custom([("const", 2.0), ("gauss", -1.0)], [("gauss", bad)]),
                 lambda: z.custom([("const", bad)], [("xgauss", 1.0)])):
        with pytest.raises(ValueError):
            make()
    with pytest.raises(ValueError, match="finite"):
        z.custom([("const", 2.0), ("gauss", -1.0)], [("gauss", bad)])


def test_custom_strip_default_stays_below_tanh_pole():
    spec = z.custom([("tanh", 1.0, 4.0)], [])
    assert spec.strip_half_width < np.pi / 8
    # evaluation at the strip edge stays finite
    val, _ = z.eval_potential(spec, 0.99j * spec.strip_half_width, 0.0)
    assert np.isfinite(val)


@pytest.mark.parametrize("spec, lam0, cutoff", [
    (z.well_even(), 1.5, 8.0),
    (z.monotone_odd(), 1.0, 8.0),
    (CTRL, 1.5, 8.0),
    (z.well_even(3.0, 2.0), 2.0, 8.0),
    # both turning points lie within 0.01 of the cutoff, so both cuts reach it
    (z.well_even(), 1.9813, 2.0),
])
def test_domain_cuts_follow_the_crossing_rule(spec, lam0, cutoff):
    problem = z.Problem(spec, lam0, 0.001, 0.1, cutoff=cutoff)
    rep = z.a1_report(problem)
    target = lam0 + 0.5 * rep.margin_at_infinity
    cuts = z.domain_cuts(problem)
    # each cut is the nearest crossing of the target level beyond the turning
    # interval, pushed out by 2.0, unless it is capped at the cutoff
    for cut, sign, turning in zip(cuts, (-1.0, 1.0), (rep.alpha0, rep.beta0)):
        if cut == sign * cutoff:
            continue
        crossing = cut - sign * 2.0
        assert abs(abs(potential.eval_A(spec, crossing)[0].real) - target) < 1e-12
        between = np.linspace(crossing, turning, 20001)[1:-1]
        assert np.all(np.abs(potential.eval_A(spec, between)[0].real) < target)
    if cutoff == 2.0:
        assert cuts == (-2.0, 2.0)


def paired_draw(r):
    """A random potential with a parity pairing and a level inside its well."""
    family = r.integers(3)
    if family == 0:
        b = r.uniform(0.2, 3.0)
        a = b + r.uniform(0.05, 3.0)
        return z.well_even(a, b), r.uniform(a - b, a)
    if family == 1:
        a = r.uniform(0.2, 4.0)
        return z.monotone_odd(a), r.uniform(0.0, a)
    scales = lambda n: r.choice([0.3, 1.0, 2.5], n) * r.uniform(0.8, 1.25, n)
    if r.integers(2):  # A even, B odd
        c0 = r.uniform(0.5, 3.0)
        a_terms = [("const", c0)] + [("gauss", -r.uniform(0.1, c0), s) for s in scales(2)]
        b_terms = [("xgauss", r.uniform(-1, 1), s) for s in scales(1)] + \
            [("tanh", r.uniform(-1, 1), s) for s in scales(1)]
        return z.custom(a_terms, b_terms), r.uniform(0.05, c0)
    # A odd, B even
    a_terms = [("tanh", r.uniform(0.5, 2.0), s) for s in scales(2)] + \
        [("xgauss", r.uniform(-0.5, 0.5), s) for s in scales(1)]
    b_terms = [("gauss", r.uniform(-1, 1), s) for s in scales(2)]
    return z.custom(a_terms, b_terms), r.uniform(0.05, 1.0)


def test_paired_potentials_get_a_mirror_exact_set_up():
    # the crossing grid, the secant seed and the cut search are mirror images,
    # so the set-up of every paired potential is exactly symmetric about 0
    r = rng(17)
    checked = 0
    try:
        for _ in range(1000):
            spec, lam0 = paired_draw(r)
            problem = z.Problem(spec, lam0, 0.1, 0.1)
            try:
                rep = z.a1_report(problem)
                cuts = z.domain_cuts(problem)
            except ZSWKBError:
                continue
            assert rep.alpha0 == -rep.beta0, (spec, lam0)
            assert matching_point(problem) == 0.0, (spec, lam0)
            assert cuts[0] == -cuts[1], (spec, lam0)
            checked += 1
    finally:
        # each cached report keeps its 4001 samples; drop the thousand drawn
        z.a1_report.cache_clear()
        z.domain_cuts.cache_clear()
    assert checked > 500
