import math

import numpy as np
import pytest
import scipy.integrate
import scipy.optimize

import zswkb as z
from zswkb.errors import A1Violated, OutOfStrip, ZSWKBError
from zswkb import potential
from zswkb.potential import _crossing_grid, axis_blend_callable, real_crossings
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


@pytest.mark.parametrize("set_up", [
    {"cutoff": math.inf}, {"cutoff": math.nan}, {"cutoff": 0.0}, {"cutoff": -8.0},
    {"matching_point": math.nan}, {"x_cut_left": math.nan, "x_cut_right": 3.0},
    {"x_cut_left": -3.0, "x_cut_right": -math.inf},
    {"x_cut_left": 3.0, "x_cut_right": -3.0}, {"x_cut_left": 3.0, "x_cut_right": 3.0}])
def test_problem_rejects_bad_set_up_fields(well_spec, set_up):
    # caught at construction, not as an untyped error or warning of the first
    # shooting call or A1 check
    with pytest.raises(ValueError):
        z.Problem(well_spec, 1.5, 0.2, 0.1, **set_up)


@pytest.mark.parametrize("side, given", [("x_cut_left", -3.0), ("x_cut_right", 3.0)])
def test_problem_rejects_a_lone_cut(well_spec, side, given):
    # explicit cuts come as a pair; the default other side is one domain_cuts
    # call away, and a pair built from it is kept as given
    with pytest.raises(ValueError, match="given together"):
        z.Problem(well_spec, 1.5, 0.2, 0.05, **{side: given})
    p = z.Problem(well_spec, 1.5, 0.2, 0.05)
    cuts = dict(zip(("x_cut_left", "x_cut_right"), z.domain_cuts(p)), **{side: given})
    assert z.domain_cuts(p.with_(**cuts)) == tuple(cuts.values())


@pytest.mark.parametrize("bad", [
    {"ode_rtol": 0.0}, {"ode_rtol": -1e-10}, {"ode_rtol": math.nan},
    {"winding_guard": math.nan}, {"boundary_min_w": -1.0},
    {"quad_min_nodes": 0}, {"quad_min_nodes": 32.5}, {"quad_min_nodes": 64.0},
    {"quad_min_nodes": True}, {"quad_min_nodes": 64, "quad_max_nodes": 96}])
def test_tolerances_reject_bad_values_when_built(bad):
    # each once reached the solvers: a NaN guard passed any winding, a negative
    # boundary_min_w switched off inflation, a bad ode_rtol failed untyped
    # inside the propagator and a float node count as a slice index
    with pytest.raises(ValueError):
        z.Tolerances(**bad)


def test_tolerances_accept_integer_node_counts():
    tol = z.Tolerances(quad_min_nodes=np.int64(64), quad_max_nodes=128)
    assert (tol.quad_min_nodes, tol.quad_max_nodes) == (64, 128)


@pytest.mark.parametrize("terms", [[("sech", 1.0)], [("gauss",)], [()],
                                   [("gauss", 1.0, 1.0, 99.0)]])
def test_custom_refuses_a_bad_term_with_a_value_error(terms):
    # an unknown kind once raised KeyError, a term without a coefficient
    # IndexError, and a term past its scale was cut to three elements, where
    # a bad code in the spec raises ValueError
    with pytest.raises(ValueError, match="'const', 'tanh', 'gauss' or 'xgauss'"):
        z.custom([("const", 2.0)], terms)


@pytest.mark.parametrize("make", [
    lambda: z.monotone_odd(strip_half_width=2.0),
    lambda: z.spec_from_json({"family": "monotone-odd", "params": [2.0],
                              "strip_half_width": 2.0}),
    lambda: z.custom([("tanh", 2.0)], [], strip_half_width=2.0)])
def test_preset_strip_must_stop_short_of_the_tanh_pole(make):
    # the monotone-odd preset once took a strip past i*pi/2, where
    # eval_potential returned about 3e16 instead of raising OutOfStrip
    with pytest.raises(ValueError, match="reaches the tanh pole"):
        make()


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
    a = potential.eval_A(spec, _crossing_grid(8.0))[0].real
    for lam in levels:
        roots, done = real_crossings(spec, lam, 8.0, a)
        assert len(roots) == 2
        assert done.all()
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
        a = potential.eval_A(spec, _crossing_grid(8.0))[0].real
        roots, done = real_crossings(spec, lam, 8.0, a)
        assert len(roots) == 2 and done.all()
        assert len(calls) <= 12


@pytest.mark.parametrize("spec, index", [(z.monotone_odd(), 2150), (z.well_even(), 2150)],
                         ids=["tanh", "well"])
def test_crossing_on_a_grid_sample_is_found(spec, index):
    # the level equals |A| at the sample x = 0.6 and, by parity, at x = -0.6;
    # a zero of |A| - level on a sample is bracketed by its neighbours
    x = _crossing_grid(8.0)
    a = potential.eval_A(spec, x)[0].real
    level = abs(a[index])
    rep = z.validate_A1(spec, level, 8.0)
    nearby = z.validate_A1(spec, level * (1.0 + 1e-15), 8.0)
    assert rep.alpha0 == -rep.beta0 and abs(rep.beta0 - x[index]) < 1e-13
    assert abs(rep.beta0 - nearby.beta0) < 1e-13
    roots, done = real_crossings(spec, level, 8.0, a)
    assert done.all() and (roots[0], roots[1]) == (rep.alpha0, rep.beta0)


SCALAR_FAMILIES = {
    "well": z.well_even(),
    "tanh": z.monotone_odd(),
    "ctrl": z.custom([("const", 2.0), ("gauss", -1.0)], [("gauss", 1.0)]),
}


@pytest.mark.parametrize("eps", [0.0, 0.05, 0.8])
@pytest.mark.parametrize("name", sorted(SCALAR_FAMILIES))
def test_a_scalar_evaluates_as_inside_a_batch(name, eps):
    # a scalar goes through the batch code, so it rounds, value and
    # derivative, as it does at any place of a batch of any size
    spec = SCALAR_FAMILIES[name]
    evaluators = (lambda x: potential.eval_A(spec, x), lambda x: potential.eval_B(spec, x),
                  lambda x: z.eval_potential(spec, x, eps))
    for point in (0.3, -1.1, 2.5, 0.7 + 0.2j, -0.4 - 0.3j):
        for n in (1, 3, 8):
            batch = np.linspace(-2.0, 2.0, n).astype(complex)
            batch[n // 2] = point
            for evaluate in evaluators:
                val, dval = evaluate(point)
                bval, bdval = evaluate(batch)
                assert val.shape == dval.shape == ()
                assert (val, dval) == (bval[n // 2], bdval[n // 2]), (point, n)


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


def test_every_term_kind_has_a_parity_that_holds_at_mirror_points():
    # classify_symmetry trusts these parities for every scale
    r = rng(13)
    x = r.uniform(-4.0, 4.0, 64)
    for name, kind in potential._TERM_NAMES.items():
        parity = potential._TERM_PARITY[kind]
        for s in r.uniform(0.1, 4.0, 8):
            spec = z.custom([(name, r.uniform(0.5, 2.0), s)], [])
            (plus, _), (minus, _) = (z.eval_potential(spec, v, 0.0) for v in (x, -x))
            assert np.max(np.abs(minus - parity * plus)) <= 4e-16 * max(1.0, np.max(np.abs(plus)))


EVEN_ODD, ODD_EVEN, NONE = (z.SymmetryClass.A_EVEN_B_ODD, z.SymmetryClass.A_ODD_B_EVEN,
                            z.SymmetryClass.NONE)


@pytest.mark.parametrize("spec, expected", [
    (z.well_even(), EVEN_ODD),
    (z.monotone_odd(), ODD_EVEN),
    (z.custom([("const", 2.0), ("gauss", -1.0)], [("gauss", 1.0)]), NONE),  # the control
    # odd terms of A that cancel exactly within their (kind, scale) group
    (z.custom([("const", 2.0), ("tanh", 0.3, 2.0), ("gauss", -1.0), ("tanh", -0.3, 2.0)],
              [("xgauss", 1.0)]), EVEN_ODD),
    # ... but not across scales, where the functions are independent
    (z.custom([("const", 2.0), ("tanh", 0.3, 2.0), ("gauss", -1.0), ("tanh", -0.3, 1.0)],
              [("xgauss", 1.0)]), NONE),
    # even terms of A that cancel: const terms form one group whatever their scale
    (z.custom([("tanh", 2.0), ("const", 0.5, 1.0), ("gauss", 0.2, 0.5), ("const", -0.5, 3.0),
               ("gauss", -0.2, 0.5)], [("gauss", 1.0)]), ODD_EVEN),
    (z.custom([("tanh", 2.0)], [("gauss", 1.0), ("xgauss", 0.4, 2.0), ("xgauss", -0.4, 2.0)]),
     ODD_EVEN),
    (z.custom([("tanh", 2.0)], [("gauss", 1.0), ("xgauss", 0.4, 2.0), ("xgauss", -0.4, 1.0)]),
     NONE),
    # a B that is identically zero is both even and odd: an even A pairs first
    (z.custom([("const", 2.0), ("gauss", -1.0)], [("xgauss", 1.0), ("xgauss", -1.0)]), EVEN_ODD),
    (z.custom([("tanh", 2.0)], []), ODD_EVEN),
    (z.custom([("const", 2.0), ("tanh", 1.0)], []), NONE),
])
def test_classify_symmetry_reads_the_terms(spec, expected, monkeypatch):
    def no_evaluation(*args, **kwargs):
        raise AssertionError("classify_symmetry evaluated the potential")

    monkeypatch.setattr(potential, "_sum_terms", no_evaluation)
    assert z.classify_symmetry(spec) is expected


EVEN, ODD, BOTH = frozenset({1}), frozenset({-1}), frozenset({1, -1})


@pytest.mark.parametrize("spec, expected", [
    (z.well_even(), (EVEN, ODD)),
    (z.monotone_odd(), (ODD, EVEN)),
    (z.custom([("const", 2.0), ("gauss", -1.0)], [("gauss", 1.0)]), (EVEN, EVEN)),  # the control
    (z.custom([("tanh", 2.0)], [("xgauss", 1.0)]), (ODD, ODD)),
    (z.custom([("const", 2.0), ("gauss", -1.0)], [("gauss", 1.0), ("xgauss", 0.5)]),
     (EVEN, frozenset())),
    # B vanishes by cancellation inside each of its groups, over several scales
    (z.custom([("const", 2.0), ("gauss", -0.5, 0.5), ("gauss", -0.5, 2.0)],
              [("xgauss", 0.3, 2.0), ("gauss", 0.7, 0.5), ("xgauss", -0.3, 2.0),
               ("gauss", -0.7, 0.5)]), (EVEN, BOTH)),
    (z.custom([("tanh", 2.0)], []), (ODD, BOTH)),
    # groups of one kind at two scales are independent and do not cancel
    (z.custom([("const", 2.0), ("tanh", 1.0, 1.0), ("tanh", -1.0, 2.0)], [("gauss", 1.0)]),
     (frozenset(), EVEN)),
])
def test_parities_read_the_term_groups(spec, expected, monkeypatch):
    def no_evaluation(*args, **kwargs):
        raise AssertionError("_parities evaluated the potential")

    monkeypatch.setattr(potential, "_sum_terms", no_evaluation)
    assert potential._parities(spec) == expected


def sampled_parities(spec, x) -> tuple:
    """The parities A and B show at mirror points, each to 1e-12 of its size."""
    out = []
    for target in (potential.TARGET_A, potential.TARGET_B):
        (plus, _), = potential._sum_terms(spec, x, (target,), derivative=False)
        (minus, _), = potential._sum_terms(spec, -x, (target,), derivative=False)
        size = max(1.0, np.max(np.abs(plus)))
        out.append(frozenset(p for p in (1, -1)
                             if np.max(np.abs(minus - p * plus)) <= 1e-12 * size))
    return tuple(out)


def test_parities_and_pairing_match_mirror_samples_on_random_terms():
    # random sums over every kind at several scales, with dyadic coefficients
    # so that a group either cancels exactly or leaves at least 0.5
    r = rng(29)
    x = np.linspace(0.05, 3.0, 60)
    kinds = list(potential._TERM_NAMES)
    specs = [z.well_even(), z.monotone_odd(),
             z.custom([("const", 2.0), ("gauss", -1.0)], [("gauss", 1.0)])]
    for _ in range(60):
        terms = []
        for _ in range(2):
            target = []
            for _ in range(r.integers(0, 4)):
                term = (kinds[r.integers(4)], r.choice([-1.0, -0.5, 0.5, 1.0]),
                        r.choice([0.5, 1.0, 2.0]))
                target.append(term)
                if r.uniform() < 0.3:  # a partner that cancels the term in its group
                    target.append((term[0], -term[1], term[2]))
            terms.append(target)
        specs.append(z.custom(*terms))
    pairings = []
    for spec in specs:
        a, b = sampled_parities(spec, x)
        assert potential._parities(spec) == (a, b), spec.params
        expected = (z.SymmetryClass.A_EVEN_B_ODD if 1 in a and -1 in b else
                    z.SymmetryClass.A_ODD_B_EVEN if -1 in a and 1 in b else z.SymmetryClass.NONE)
        assert z.classify_symmetry(spec) is expected, spec.params
        pairings.append(expected)
    assert len(set(pairings)) == 3  # the draw reaches every class


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


def test_validate_a1_zero_slope():
    # |A'| at the crossings of the even well is about 0.83, below this bound
    with pytest.raises(A1Violated) as exc:
        z.validate_A1(z.well_even(), 1.5, 8.0, slope_tol=10.0)
    assert exc.value.reason == "zero-slope"


@pytest.mark.parametrize("lambda0, cutoff, message", [
    (0.0, 8.0, "lambda0 must be positive"), (-1.5, 8.0, "lambda0 must be positive"),
    (math.nan, 8.0, "lambda0 must be positive"), (1.5, 0.0, "cutoff must be positive"),
    (1.5, -8.0, "cutoff must be positive"), (1.5, math.nan, "cutoff must be positive")])
def test_validate_a1_rejects_a_non_positive_level_or_cutoff(well_spec, lambda0, cutoff,
                                                            message):
    with pytest.raises(ValueError, match=message):
        z.validate_A1(well_spec, lambda0, cutoff)


@pytest.mark.parametrize("make", [
    lambda: z.well_even(2.0 + 0.1j, 1.0),
    lambda: z.monotone_odd(2.0j),
    lambda: z.custom([("const", 2.0), ("gauss", -1.0 + 0.5j)], []),
    lambda: z.PotentialSpec(potential.CUSTOM, (0, 0, 2.0 + 0j, 1.0), 10.0)])
def test_spec_refuses_complex_params(make):
    # every term kind is real on the real axis for real parameters, so A is
    # real there, as validate_A1 reads it, for every spec that can be built
    with pytest.raises(TypeError, match="not 'complex'"):
        make()


@pytest.mark.parametrize("make", [
    lambda: z.well_even(np.complex128(2 + 1j), 1.0),
    lambda: z.custom([("const", np.complex128(2 + 1j))], []),
    lambda: z.spec_from_json({"family": "well-even", "params": [2.0, 1.0],
                              "strip_half_width": np.complex128(10 + 1j)}),
    lambda: z.Problem(z.well_even(), np.complex128(1.5 + 0.3j), 0.2, 0.1),
    lambda: z.Tolerances(quad_rel=np.complex128(1e-12 + 1j))],
    ids=["well_even", "custom", "spec_from_json", "Problem", "Tolerances"])
def test_numpy_complex_numbers_are_refused(make):
    # float() and math.isfinite would keep only the real part of a NumPy
    # complex, with just a ComplexWarning; a Python complex is refused already
    with pytest.raises(TypeError, match="not 'complex'"):
        make()


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


@pytest.mark.parametrize("make, message", [
    (lambda: z.well_even(strip_half_width=0.0), "strip_half_width must be positive"),
    (lambda: z.custom([("const", 2.0)], [], strip_half_width=-1.0),
     "strip_half_width must be positive"),
    (lambda: z.custom([("const", 2.0), ("gauss", -1.0, 0.0)], []), "term scale must be positive"),
    (lambda: z.PotentialSpec("custom-sum-of-terms", (0, 1, 1.0, -2.0), 0.5),
     "term scale must be positive")],
    ids=["preset-strip", "custom-strip", "gauss-scale", "tanh-scale"])
def test_spec_rejects_a_non_positive_strip_or_scale(make, message):
    with pytest.raises(ValueError, match=message):
        make()


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


# no pairing: |A| stays below 1.7 on the left and tends to 2.35 on the right
SKEW = z.custom([("const", 2.0), ("gauss", -1.0), ("tanh", 0.35)], [])


def outward_crossing(spec, level, s_turn, sign, s_end):
    """The nearest outward coordinate s = sign*x past s_turn where |A| = level, or None.

    Found by a fine scan and brentq, independent of the crossing grid.
    """
    absa = lambda s: np.abs(potential.eval_A(spec, sign * s)[0].real)
    s = np.linspace(s_turn, s_end, 20001)
    above = np.flatnonzero(absa(s) > level)
    if len(above) == 0:
        return None
    i = above[0]
    return scipy.optimize.brentq(lambda t: absa(t) - level, s[i - 1], s[i], xtol=1e-14)


# each case maps h to the rule that sets both cuts, or a (left, right) pair:
# "decay" where the decay integral sets it, "floor" where that lies inside the
# crossing of lambda0 + 2*delta, and "cap" where the older cut is kept
@pytest.mark.parametrize("spec, lam0, delta, cutoff, rules", [
    pytest.param(z.well_even(), 1.5, 0.2, 8.0, {0.25: "cap", 0.05: "decay", 0.0125: "floor"},
                 id="spec0-1.5-8.0"),
    pytest.param(z.monotone_odd(), 1.0, 0.3, 8.0, {0.05: "decay", 0.0125: "floor"},
                 id="spec1-1.0-8.0"),
    pytest.param(CTRL, 1.5, 0.2, 8.0, {0.1: "decay"}, id="spec2-1.5-8.0"),
    pytest.param(z.well_even(3.0, 2.0), 2.0, 0.3, 8.0, {0.05: "decay"}, id="spec3-2.0-8.0"),
    # both turning points lie within 0.01 of the cutoff, so both cuts reach it
    pytest.param(z.well_even(), 1.9813, 0.001, 2.0, {0.1: "cap"}, id="spec4-1.9813-2.0"),
    # lambda0 + 2*delta = 1.7 never crosses on the left
    pytest.param(SKEW, 1.3, 0.2, 8.0, {0.05: ("cap", "decay")}, id="spec5-1.3-8.0"),
])
def test_domain_cuts_follow_the_crossing_rule(spec, lam0, delta, cutoff, rules):
    top = lam0 + delta
    bracket = cutoff / 2000  # the crossing grid's spacing
    for h, rule in rules.items():
        problem = z.Problem(spec, lam0, delta, h, cutoff=cutoff)
        rep = z.a1_report(problem)
        cuts = z.domain_cuts(problem)
        sides = (rule, rule) if isinstance(rule, str) else rule
        for cut, sign, turning, expect in zip(cuts, (-1.0, 1.0), (rep.alpha0, rep.beta0), sides):
            s_turn, s_cut = sign * turning, sign * cut
            ends = np.abs(potential.eval_A(spec, np.array([-cutoff, cutoff]))[0].real)
            half = outward_crossing(spec, lam0 + 0.5 * (ends.min() - lam0), s_turn, sign, cutoff)
            older = cutoff if half is None else min(half + 2.0, cutoff)
            s_top = outward_crossing(spec, top, s_turn, sign, cutoff)
            s_floor = outward_crossing(spec, top + delta, s_turn, sign, cutoff)

            def action(s):
                g = lambda t: math.sqrt(max(potential.eval_A(spec, sign * t)[0].real ** 2
                                            - top ** 2, 0.0))
                return scipy.integrate.quad(g, s_top, s, epsabs=1e-12, limit=200)[0]

            if expect == "cap":
                assert s_floor is None or s_floor >= older or action(older) < 12 * h
                assert s_cut == pytest.approx(older, abs=1e-9)
                continue
            assert s_cut < older
            s_decay = scipy.optimize.brentq(lambda s: action(s) - 12 * h, s_top, older,
                                            xtol=1e-12)
            if expect == "floor":
                # one grid sample past the crossing, so |A| there clears the level
                assert s_decay < s_floor < s_cut <= s_floor + bracket
                assert abs(potential.eval_A(spec, cut)[0].real) > top + delta
            else:
                assert s_floor < s_decay
                assert abs(s_cut - s_decay) <= bracket
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


def test_matching_point_without_a1_reraises_the_report_error(monkeypatch):
    # below the well floor there is no turning interval, and default cuts need
    # the same report: its one error propagates, not a second one raised
    # while handling it
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return potential.validate_A1(*args, **kwargs)

    monkeypatch.setattr(z.problem, "validate_A1", counted)
    problem = z.Problem(z.well_even(), 0.5, 0.2, 0.1)
    with pytest.raises(A1Violated) as exc:
        matching_point(problem)
    assert len(calls) == 1
    assert exc.value.__context__ is None
    both = problem.with_(x_cut_left=-3.0, x_cut_right=3.0)
    assert matching_point(both) == 0.0


def test_a1_report_is_cached_on_the_inputs_it_reads(monkeypatch):
    # validate_A1 reads the potential, lambda0, the cutoff and the slope
    # tolerance; h, eps, delta, the cuts and the matching point share a report
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return potential.validate_A1(*args, **kwargs)

    monkeypatch.setattr(z.problem, "validate_A1", counted)
    z.a1_report.cache_clear()
    p = z.Problem(z.well_even(), 1.5, 0.2, 0.1)
    reports = {z.a1_report(p.with_(h=h, eps=eps, delta=delta, matching_point=x_m))
               for h in (0.1, 0.05) for eps in (0.0, 0.05) for delta in (0.2, 0.3)
               for x_m in (None, 0.2)}
    assert len(reports) == 1 and len(calls) == 1
    for changed in (p.with_(lambda0=1.4), p.with_(cutoff=7.0),
                    p.with_(tolerances=z.Tolerances(slope_degeneracy=1e-7))):
        z.a1_report(changed)
    assert len(calls) == 4
    z.a1_report.cache_clear()  # empties the cache that holds the reports
    z.a1_report(p)
    assert len(calls) == 5


def test_domain_cuts_are_cached_on_the_inputs_they_read(monkeypatch):
    # the default cuts read the potential, lambda0, delta, h, the cutoff and
    # the slope tolerance; eps, the matching point and the other tolerances
    # share them, and an explicit pair is returned without sampling A
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return potential.eval_A(*args, **kwargs)

    monkeypatch.setattr(z.problem, "eval_A", counted)
    z.domain_cuts.cache_clear()
    p = z.Problem(z.well_even(), 1.5, 0.2, 0.1)
    cuts = {z.domain_cuts(p.with_(eps=eps, matching_point=x_m,
                                  tolerances=z.Tolerances(ode_rtol=rtol)))
            for eps in (0.0, 0.05) for x_m in (None, 0.2) for rtol in (1e-10, 1e-12)}
    assert len(cuts) == 1 and len(calls) == 1
    for changed in (p.with_(lambda0=1.4), p.with_(delta=0.3), p.with_(h=0.05),
                    p.with_(cutoff=7.0),
                    p.with_(tolerances=z.Tolerances(slope_degeneracy=1e-7))):
        z.domain_cuts(changed)
    assert len(calls) == 6
    assert z.domain_cuts(p.with_(x_cut_left=-3.0, x_cut_right=3.0)) == (-3.0, 3.0)
    assert len(calls) == 6
    z.domain_cuts.cache_clear()  # empties the cache that holds the cuts
    z.domain_cuts(p)
    assert len(calls) == 7


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
        # drop the thousand cached reports and cuts drawn here
        z.a1_report.cache_clear()
        z.domain_cuts.cache_clear()
    assert checked > 500
