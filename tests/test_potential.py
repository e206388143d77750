import math

import numpy as np
import pytest

import zswkb as z
from zswkb.errors import A1Violated, OutOfStrip
from zswkb import potential
from zswkb.potential import axis_blend_callable, real_crossings

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


def test_eps_must_be_nonnegative(well_spec):
    with pytest.raises(ValueError):
        z.eval_potential(well_spec, 0.0, -0.1)


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


@pytest.mark.parametrize("spec, levels, exact", [
    (z.well_even(2.0, 1.0), (1.3, 1.5, 1.7), lambda lam: math.sqrt(math.log(1.0 / (2.0 - lam)))),
    (z.well_even(3.0, 1.5), (1.6, 2.0, 2.4), lambda lam: math.sqrt(math.log(1.5 / (3.0 - lam)))),
    (z.monotone_odd(2.0), (0.5, 1.0, 1.5), lambda lam: math.atanh(lam / 2.0)),
])
def test_real_crossings_closed_forms(spec, levels, exact):
    for lam in levels:
        roots, a = real_crossings(spec, lam, 8.0)
        assert a.shape == (4001,)
        assert len(roots) == 2
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
        roots, _ = real_crossings(spec, lam, 8.0)
        assert len(roots) == 2
        assert len(calls) <= 12


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


def test_custom_strip_default_stays_below_tanh_pole():
    spec = z.custom([("tanh", 1.0, 4.0)], [])
    assert spec.strip_half_width < np.pi / 8
    # evaluation at the strip edge stays finite
    val, _ = z.eval_potential(spec, 0.99j * spec.strip_half_width, 0.0)
    assert np.isfinite(val)
