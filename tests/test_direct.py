import math
import re
import warnings

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg

import zswkb as z
from zswkb.direct import (_CHUNK_ELEMENTS, _integrate_batch, _line_factor, _newton_wronskian,
                          _perimeter, _seed_batch, _wronskian_batch)
from zswkb.errors import (InsideWell, MissedZerosWarning, NoConvergence, SymmetryMismatch,
                          SymmetryRequired)
from zswkb.potential import real_crossings

from oracles import matrix_window_eigenvalues


@pytest.fixture(scope="module")
def const_problem():
    """Constant A = 2: closed-form constant-coefficient system for oracles."""
    spec = z.custom([("const", 2.0)], [])
    return z.Problem(spec, 1.0, 0.2, 0.1, x_cut_left=-5.0, x_cut_right=5.0)


def system_matrix(a: complex, lam: complex, h: float) -> np.ndarray:
    return np.array([[-1j * lam / h, a / h], [a / h, 1j * lam / h]])


def one(lam) -> np.ndarray:
    return np.asarray([complex(lam)])


def test_boundary_seed_matches_eigendecomposition(const_problem):
    lam = 1.0
    for x_cut, sign in ((-5.0, 1), (5.0, -1)):
        seed = _seed_batch(const_problem, one(lam), x_cut, sign)[0]
        m = system_matrix(2.0, lam, const_problem.h)
        evals, evecs = np.linalg.eig(m)
        mu = math.sqrt(4.0 - lam * lam) / const_problem.h
        pick = int(np.argmin(np.abs(evals - sign * mu)))
        v = evecs[:, pick]
        overlap = abs(np.vdot(v, seed))
        assert overlap == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(seed) == pytest.approx(1.0, abs=1e-14)


def test_boundary_seed_inside_well_raises(const_problem):
    with pytest.raises(InsideWell):
        _seed_batch(const_problem, one(2.0), -5.0, 1)  # |A| = lambda
    with pytest.raises(InsideWell):
        _seed_batch(const_problem, np.asarray([1.0, 2.5 + 0j]), -5.0, 1)  # |A| < lambda in one row


def test_seeds_related_by_conjugation_symmetry(well_problem):
    # for even A, eps = 0, real lambda: conjugating the left seed and flipping
    # the sign of its second component gives the right seed up to a phase,
    # and each seed is itself swap-conjugate invariant up to a phase
    x_l, x_r = z.domain_cuts(well_problem)
    left = _seed_batch(well_problem, one(1.5), x_l, 1)[0]
    right = _seed_batch(well_problem, one(1.5), x_r, -1)[0]
    mapped = np.conj(left) * np.array([1.0, -1.0])
    assert abs(np.vdot(right, mapped)) == pytest.approx(1.0, abs=1e-12)
    swapped = np.conj(left[::-1])
    assert abs(np.vdot(left, swapped)) == pytest.approx(1.0, abs=1e-12)


# (spec, lambda0, delta); the control pairs an even A with an even B
WINDOWS = {
    "well": (z.well_even(), 1.5, 0.2),
    "tanh": (z.monotone_odd(), 1.0, 0.3),
    "ctrl": (z.custom([("const", 2.0), ("gauss", -1.0)], [("gauss", 1.0)]), 1.5, 0.2),
}


@pytest.mark.parametrize("name, eps", [("well", 0.0), ("tanh", 0.0), ("ctrl", 0.0),
                                       ("well", 0.01), ("tanh", 0.01),
                                       ("well", 0.05), ("tanh", 0.05)])
def test_real_scan_wronskian_lies_on_its_symmetry_line(name, eps):
    # self-adjointness (eps = 0, any potential) or the parity pairing (eps > 0,
    # mirror cuts) puts c*W on the real axis: the part the line discards is
    # rounding, with the default cuts, cuts 1.25x wider and x_m moved by 0.2
    spec, lambda0, delta = WINDOWS[name]
    lams = np.linspace(lambda0 - delta, lambda0 + delta, 401).astype(complex)
    for h in (0.1, 0.05):
        problem = z.Problem(spec, lambda0, delta, h, eps)
        x_m = z.problem.matching_point(problem)
        x_l, x_r = z.domain_cuts(problem)
        for p in (problem, problem.with_(matching_point=x_m + 0.2),
                  problem.with_(matching_point=x_m - 0.2),
                  problem.with_(x_cut_left=1.25 * x_l, x_cut_right=1.25 * x_r)):
            c = _line_factor(p, lams)
            assert np.max(np.abs(np.abs(c) - 1.0)) < 1e-12
            w, ls = _wronskian_batch(p, lams)
            g = c * w * np.exp(ls - ls.max())
            assert np.max(np.abs(g.imag)) <= 1e-11 * np.max(np.abs(g)), (h, p)


def test_integrate_matches_matrix_exponential(const_problem):
    lam = 1.0
    seed = _seed_batch(const_problem, one(lam), -5.0, 1)
    vec, ls = _integrate_batch(const_problem, one(lam), seed, -5.0, 0.0)
    m = system_matrix(2.0, lam, const_problem.h)
    exact = scipy.linalg.expm(m * 5.0) @ seed[0]
    exact_ls = math.log(np.linalg.norm(exact))
    assert off_direction(exact, vec[0]) < 1e-8
    assert ls[0] == pytest.approx(exact_ls, abs=1e-8)


def off_direction(exact: np.ndarray, vec: np.ndarray) -> float:
    """Sine of the angle between a vector and a unit state: its part off the vector's line."""
    unit = exact / np.linalg.norm(exact)
    return float(np.linalg.norm(vec - unit * np.vdot(unit, vec)))


def test_integrate_kernel_edge_cases_match_matrix_exponential(const_problem):
    # A = 2, so q^2 = (4 - lam^2)*(dx/h)^2 in every cell: exactly 0 at lam = 2
    # (a nilpotent generator, on the series path), positive real at lam = 1,
    # and negative real at lam = 2.5, with Im q^2 a signed zero or tiny
    lams = np.array([2.0, 2.0 + 1e-9j, 1.0, 1.0 + 1e-9j, 2.5, 2.5 + 1e-9j, 2.5 - 1e-9j])
    seed = np.tile([0.6, 0.8j], (len(lams), 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vecs, ls = _integrate_batch(const_problem, lams, seed, -5.0, 0.0)
    for lam, vec, log_scale in zip(lams, vecs, ls):
        exact = scipy.linalg.expm(system_matrix(2.0, lam, const_problem.h) * 5.0) @ seed[0]
        assert off_direction(exact, vec) < 1e-10, lam
        assert log_scale == pytest.approx(math.log(np.linalg.norm(exact)), abs=1e-10), lam


def test_integrate_matches_ode_solver_on_varying_potential(well_problem):
    # a non-constant A_eps: the Magnus cells against an adaptive high-order
    # Runge-Kutta solution of u' = M(x) u / h
    p = well_problem.with_(eps=0.05)
    x0, x1 = -1.2, -0.4
    lams = np.array([1.42 + 0.03j, 1.55 - 0.02j, 1.66 + 0.05j])
    seed = np.tile([0.8, 0.6], (len(lams), 1)).astype(complex)
    vecs, ls = _integrate_batch(p, lams, seed, x0, x1)
    for lam, vec, log_scale in zip(lams, vecs, ls):
        def rhs(x, u, lam=lam):
            a = complex(z.eval_potential(p.potential, x, p.eps)[0])
            return np.array([-1j * lam * u[0] + a * u[1], a * u[0] + 1j * lam * u[1]]) / p.h

        sol = scipy.integrate.solve_ivp(rhs, (x0, x1), seed[0], method="DOP853",
                                        rtol=1e-12, atol=1e-14)
        exact = sol.y[:, -1]
        assert off_direction(exact, vec) < 1e-9, lam
        assert log_scale == pytest.approx(math.log(np.linalg.norm(exact)), abs=1e-9), lam


def test_integrate_zero_length_is_identity(const_problem):
    seed = _seed_batch(const_problem, one(1.0), -5.0, 1)
    vec, ls = _integrate_batch(const_problem, one(1.0), seed, -5.0, -5.0)
    assert np.array_equal(vec, seed)
    assert ls[0] == 0.0


def test_integrate_reversibility(well_problem):
    # reverse across the oscillatory stretch, where both branches are neutral;
    # reversing through a growth region is exponentially ill-conditioned
    lams = one(1.5)
    x_l, _ = z.domain_cuts(well_problem)
    start, _ = _integrate_batch(well_problem, lams, _seed_batch(well_problem, lams, x_l, 1),
                                x_l, -0.5)
    fwd, ls_f = _integrate_batch(well_problem, lams, start, -0.5, 0.5)
    back, ls_b = _integrate_batch(well_problem, lams, fwd, 0.5, -0.5)
    assert off_direction(start[0], back[0]) < 1e-8
    assert ls_f[0] + ls_b[0] == pytest.approx(0.0, abs=1e-8)


def test_wronskian_bounded_away_from_zero_in_gap():
    p = z.Problem(z.well_even(), 1.5, 0.2, 0.05)
    sample = z.wronskian(p, 1.05)
    assert abs(sample.w_value) > 1e-3


def test_wronskian_small_at_wkb_eigenvalue_with_sign_change(tanh_problem):
    p = tanh_problem.with_(h=0.05)
    recs = z.wkb_spectrum(p)
    lam_star = recs[len(recs) // 2].lam.real
    assert abs(z.wronskian(p, lam_star).w_value) < 1e-2
    off = 5 * p.h ** 2
    w_lo = z.wronskian(p, lam_star - off).w_value
    w_hi = z.wronskian(p, lam_star + off).w_value
    assert (w_lo / w_hi).real < 0  # aligned sign change across the eigenvalue


def test_wronskian_conjugation_modulus(well_problem):
    p = well_problem.with_(eps=0.05)
    lam = 1.52 + 0.03j
    a = z.wronskian(p, lam)
    b = z.wronskian(p, lam.conjugate())
    mag_a = abs(a.w_value) * math.exp(a.log_scale - b.log_scale)
    assert abs(mag_a - abs(b.w_value)) < 1e-8 * max(1.0, abs(b.w_value))


def test_direct_spectrum_matches_matrix_oracle(well_problem):
    recs = z.direct_spectrum_real(well_problem)
    oracle = matrix_window_eigenvalues(well_problem.potential, well_problem.h, 0.0,
                                       1.3, 1.7, im_cap=1e-8)
    assert len(recs) == len(oracle)
    for r, ev in zip(recs, oracle):
        assert abs(r.lam - ev) < 1e-8


def test_direct_spectrum_counts_match_wkb_both_families(spectra_cache):
    for name, prob in (
            ("well", z.Problem(z.well_even(), 1.5, 0.2, 0.05)),
            ("tanh", z.Problem(z.monotone_odd(), 1.0, 0.3, 0.05))):
        direct = spectra_cache((name, 0.05, 0.0, "direct"),
                               lambda p=prob: z.direct_spectrum_real(p))
        wkb = z.wkb_spectrum(prob)
        assert len(direct) == len(wkb)


def test_direct_spectrum_empty_below_well_bottom():
    # |A| >= 1 everywhere, so a window around 0.7 has no classically allowed
    # region; cuts must be given since the simple-well validation cannot pass
    p = z.Problem(z.well_even(), 0.7, 0.1, 0.05,
                  x_cut_left=-3.18, x_cut_right=3.18)
    assert z.direct_spectrum_real(p) == []


@pytest.mark.parametrize("eps", [0.01, 0.05])
def test_real_scan_requires_a_parity_pairing_at_eps_above_zero(eps):
    # without a pairing W has no line on the real axis to read signs off
    spec, lambda0, delta = WINDOWS["ctrl"]
    with pytest.raises(SymmetryRequired):
        z.direct_spectrum_real(z.Problem(spec, lambda0, delta, 0.1, eps))


@pytest.mark.parametrize("eps, well_roots, tanh_roots", [
    (0.0, [0.2014207954621219, 0.37053545446469366, 0.4946339715082142,
           0.6006229344320371, 0.6950166659396297], [0.0, 0.44440972086591407]),
    (0.05, [0.20167011470264135, 0.37068645079495677, 0.49475339103822835,
            0.6007192686683819, 0.6950943987002479], [0.0, 0.44427088253245045]),
])
def test_real_scan_line_is_continuous_through_lambda_zero(eps, well_roots, tanh_roots):
    # windows reaching lambda <= 0: the principal root of the seeds' line
    # phase jumps at lambda = 0 (A > 0 on the right cut, A < 0 on the left
    # one), which would bracket a phantom root there
    well = z.Problem(z.custom([("const", 2.0), ("gauss", -1.9)], [("xgauss", 1.0)]),
                     0.3, 0.4, 0.05, eps)
    for problem, want in ((well, well_roots),
                          (z.Problem(z.monotone_odd(), 0.2, 0.3, 0.05, eps), tanh_roots)):
        got = [r.lam.real for r in z.direct_spectrum_real(problem)]
        assert len(got) == len(want)
        assert np.max(np.abs(np.subtract(got, want))) < 1e-12
    assert z.count_zeros(well, z.window_rectangle(well)).winding == len(well_roots)


def test_direct_spectrum_increasing_with_expected_spacing(well_problem):
    recs = z.direct_spectrum_real(well_problem)
    lams = np.array([r.lam.real for r in recs])
    assert np.all(np.diff(lams) > 0)
    for a, b in zip(recs[:-1], recs[1:]):
        mid = 0.5 * (a.lam.real + b.lam.real)
        predicted = math.pi * well_problem.h / \
            z.action_integral(well_problem, mid).dvalue_dlambda.real
        assert abs((b.lam.real - a.lam.real) - predicted) / predicted < 0.10


def test_count_zeros_gap_rectangle(well_problem):
    zc = z.count_zeros(well_problem, (1.31 - 0.02j, 1.345 + 0.02j))
    assert zc.winding == 0


def test_count_zeros_single_eigenvalue(well_problem, spectra_cache):
    recs = spectra_cache(("well", 0.1, 0.0, "direct"),
                         lambda: z.direct_spectrum_real(well_problem))
    lam = recs[2].lam.real
    zc = z.count_zeros(well_problem, (lam - 0.02 - 0.02j, lam + 0.02 + 0.02j))
    assert zc.winding == 1


def test_count_zeros_whole_window(well_problem, spectra_cache):
    recs = spectra_cache(("well", 0.1, 0.0, "direct"),
                         lambda: z.direct_spectrum_real(well_problem))
    zc = z.count_zeros(well_problem, z.window_rectangle(well_problem))
    assert zc.winding == len(recs)
    assert zc.samples_on_boundary >= 4


def record_batches(monkeypatch) -> list:
    """Sizes of the Wronskian batches the direct solver evaluates, in call order."""
    sizes = []

    def counted(problem, lams):
        sizes.append(len(lams))
        return _wronskian_batch(problem, lams)

    monkeypatch.setattr(z.direct, "_wronskian_batch", counted)
    return sizes


def test_direct_spectrum_real_wronskian_work(well_problem, monkeypatch):
    sizes = record_batches(monkeypatch)
    z.direct_spectrum_real(well_problem)
    # one scan batch, then Newton rounds of 3 rows per unconverged bracket
    assert (len(sizes), sum(sizes)) == (5, 92)


def test_complex_spectrum_seeds_from_the_eps_zero_scan_alone(well_problem, monkeypatch):
    # at eps > 0 the only eps = 0 batch is the real scan: its secant points
    # are lifted as they are, with no eps = 0 Newton polish
    batches = []

    def counted(problem, lams):
        batches.append((problem.eps, len(lams)))
        return _wronskian_batch(problem, lams)

    monkeypatch.setattr(z.direct, "_wronskian_batch", counted)
    recs = z.direct_spectrum_complex(well_problem.with_(eps=0.05), certify=False)
    assert recs
    assert [n for eps, n in batches if eps == 0.0] == [41]


@pytest.mark.parametrize("fault", ["outside", "failed"])
def test_direct_spectrum_real_rejects_unpolished_root(well_problem, monkeypatch, fault):
    # a Newton row that fails, or lands outside its own bracket, is an error,
    # never a reported eigenvalue
    def faulty(problem, seeds):
        lams, resid, failed = _newton_wronskian(problem, seeds)
        if fault == "outside":
            lams[1] = lams[2]  # a true root, but the next bracket's
        else:
            failed[1] = True
        return lams, resid, failed

    monkeypatch.setattr(z.direct, "_newton_wronskian", faulty)
    with pytest.raises(NoConvergence, match="bracket"):
        z.direct_spectrum_real(well_problem)


def patch_wronskian(monkeypatch, w_of_lam):
    """Replace the propagator by a closed-form W with unit log scales."""
    monkeypatch.setattr(z.direct, "_wronskian_batch",
                        lambda problem, lams: (w_of_lam(np.asarray(lams)), np.zeros(len(lams))))


def test_newton_wronskian_flags_a_two_cycle(well_problem, monkeypatch):
    # Newton on u^3 - 2u + 2 from u = 0 cycles 0 -> 1 -> 0 and never converges
    patch_wronskian(monkeypatch, lambda lam: ((lam - 1.5) / 0.1) ** 3 - 2 * (lam - 1.5) / 0.1 + 2)
    lams, resid, failed = _newton_wronskian(well_problem, one(1.5))
    assert failed[0]


def test_newton_wronskian_flags_a_flat_wronskian(well_problem, monkeypatch):
    # W' = 0 gives no finite Newton step
    patch_wronskian(monkeypatch, lambda lam: np.full(len(lam), 1.0 + 0j))
    lams, resid, failed = _newton_wronskian(well_problem, one(1.5))
    assert failed[0]


def test_count_zeros_wronskian_work(monkeypatch):
    p = z.Problem(z.well_even(), 1.5, 0.2, 0.0125, eps=0.05)
    sizes = record_batches(monkeypatch)
    zc = z.count_zeros(p, z.window_rectangle(p))
    assert zc.winding == 38
    assert sizes == [256, 106]
    assert zc.samples_on_boundary == 362


@pytest.mark.parametrize("spec, lambda0, delta, count", [
    (z.well_even(), 1.5, 0.2, 76), (z.monotone_odd(), 1.0, 0.3, 56)], ids=["well", "tanh"])
def test_count_zeros_counts_every_level_of_a_dense_window(spec, lambda0, delta, count):
    # with the cuts at a fixed distance, the evanescent stretch added about
    # int Im(mu)/h dx of turning to arg W along the top and bottom sides, and
    # whole turns aliased away (42 and 48 were counted); the decay-sized cuts
    # bound that turning whatever h is
    p = z.Problem(spec, lambda0, delta, 0.00625, eps=0.05)
    assert z.count_zeros(p, z.window_rectangle(p)).winding == len(z.direct_spectrum_real(p)) == count


def test_count_zeros_inflates_off_eigenvalue_on_contour(well_problem, spectra_cache, monkeypatch):
    # the left edge sits on an eigenvalue: the t = 3.5 sample has |W| ~ 1e-12,
    # so the rectangle grows by 1% per side and is counted again
    recs = spectra_cache(("well", 0.1, 0.0, "direct"),
                         lambda: z.direct_spectrum_real(well_problem))
    lam = recs[2].lam.real
    sizes = record_batches(monkeypatch)
    zc = z.count_zeros(well_problem, (lam - 0.02j, lam + 0.03 + 0.02j))
    assert zc.winding == 1
    assert sizes == [256, 256]
    lo, hi = zc.rectangle
    assert lo == pytest.approx(complex(lam - 0.0003, -0.0204), abs=1e-15)
    assert hi == pytest.approx(complex(lam + 0.0303, 0.0204), abs=1e-15)


def test_complex_spectrum_at_eps_zero_reproduces_real(well_problem, spectra_cache):
    real_recs = spectra_cache(("well", 0.1, 0.0, "direct"),
                              lambda: z.direct_spectrum_real(well_problem))
    with warnings.catch_warnings():
        warnings.simplefilter("error", MissedZerosWarning)
        cplx = z.direct_spectrum_complex(well_problem)
    # at eps = 0 the operator is self-adjoint: the real records, as they are
    assert cplx == real_recs


def test_complex_spectrum_certifies_an_empty_seed_set(well_problem, monkeypatch):
    # with no eps = 0 root the winding still counts the window's zeros
    monkeypatch.setattr(z.direct, "direct_spectrum_real", lambda problem: [])
    with pytest.warns(MissedZerosWarning, match="differs from 0 located roots"):
        assert z.direct_spectrum_complex(well_problem) == []


@pytest.mark.parametrize("fault", ["outside", "duplicate"])
def test_complex_spectrum_drops_roots_outside_the_window_and_duplicates(well_problem,
                                                                          monkeypatch, fault):
    # a converged Newton row off the window rectangle, or within
    # distinct_roots of another root, is not a record
    p = well_problem.with_(eps=0.05)
    clean = z.direct_spectrum_complex(p, certify=False)

    def faulty(problem, seeds):
        lams, resid, failed = _newton_wronskian(problem, seeds)
        extra = lams[0] + (2 * problem.delta if fault == "outside" else 1e-10)
        return np.append(lams, extra), np.append(resid, resid[0]), np.append(failed, False)

    monkeypatch.setattr(z.direct, "_newton_wronskian", faulty)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert z.direct_spectrum_complex(p, certify=False) == clean


def test_complex_spectrum_warns_for_diverged_seeds(well_problem, monkeypatch):
    p = well_problem.with_(eps=0.05)
    clean = z.direct_spectrum_complex(p, certify=False)

    def faulty(problem, seeds):
        lams, resid, failed = _newton_wronskian(problem, seeds)
        failed[0] = True
        return lams, resid, failed

    monkeypatch.setattr(z.direct, "_newton_wronskian", faulty)
    with pytest.warns(UserWarning, match=r"^1 Newton seed\(s\) diverged$"):
        recs = z.direct_spectrum_complex(p, certify=False)
    assert [r.lam for r in recs] == [r.lam for r in clean[1:]]


@pytest.mark.parametrize("h, count", [(0.05, 9), (0.025, 19)])
@pytest.mark.parametrize("eps", [0.01, 0.05, 0.1])
def test_complex_spectrum_locates_every_root_of_the_control(h, count, eps):
    # the symmetry-broken control's roots lie off the axis; with the
    # decay-sized cuts the eps = 0 seeds and the vertical probe reach all of
    # them at these h, so the winding certifies the located count
    p = z.Problem(CTRL, 1.5, 0.2, h, eps=eps)
    with warnings.catch_warnings():
        warnings.simplefilter("error", MissedZerosWarning)
        recs = z.direct_spectrum_complex(p, certify=True)
    assert len(recs) == count
    assert max(abs(r.lam.imag) for r in recs) > 1e-3


def test_complex_spectrum_symmetric_perturbation_real(well_problem):
    p = well_problem.with_(eps=0.05)
    with warnings.catch_warnings():
        warnings.simplefilter("error", MissedZerosWarning)
        recs = z.direct_spectrum_complex(p)
    assert recs
    assert max(abs(r.lam.imag) for r in recs) < 1e-8


def test_complex_spectrum_broken_symmetry_control():
    # the vertical probe must compare |W| with its log scale: the unit-state
    # determinant alone starts Newton off two of the nine roots at h = 0.05
    ctrl = z.custom([("const", 2.0), ("gauss", -1.0)], [("gauss", 1.0)])
    for h, eps in ((0.1, 0.05), (0.05, 0.01)):
        p = z.Problem(ctrl, 1.5, 0.2, h, eps=eps)
        with warnings.catch_warnings():
            warnings.simplefilter("error", MissedZerosWarning)
            recs = z.direct_spectrum_complex(p, certify=True)
        assert recs
        assert max(abs(r.lam.imag) for r in recs) > 1e-6


def test_matching_point_shift_invariance(well_problem, spectra_cache):
    base = spectra_cache(("well", 0.1, 0.0, "direct"),
                         lambda: z.direct_spectrum_real(well_problem))
    shifted = z.direct_spectrum_real(well_problem.with_(matching_point=0.2))
    assert len(base) == len(shifted)
    for a, b in zip(base, shifted):
        assert abs(a.lam - b.lam) < 1e-9


@pytest.mark.parametrize("x_m", [5.0, 3.5, -3.5, 2.6])
def test_matching_point_outside_the_cuts_is_rejected(x_m):
    # past a cut one Jost state is integrated the way it decays, so rounding
    # grows into the other solution and W's zeros are no longer the
    # eigenvalues; the cuts are +/-2.472 here, and 2.6 lies just outside
    p = z.Problem(z.well_even(), 1.5, 0.2, 0.1, eps=0.05, matching_point=x_m)
    assert z.domain_cuts(p) == (-2.472, 2.472)
    message = re.escape(f"matching point {x_m} lies outside the cuts [-2.472, 2.472]")
    for solve in (lambda: z.direct_spectrum_complex(p, certify=False),
                  lambda: z.count_zeros(p, z.window_rectangle(p)),
                  lambda: z.direct_spectrum_real(p.with_(eps=0.0))):
        with pytest.raises(ValueError, match=message):
            solve()


@pytest.mark.parametrize("side", ["x_cut_left", "x_cut_right"])
def test_one_sided_explicit_cut_keeps_the_default_other_side(side):
    # an explicit cut on one side is kept as given; the other side keeps its
    # default cut, and the wider domain leaves the roots in place
    p = z.Problem(z.well_even(), 1.5, 0.2, 0.05)
    given = -3.0 if side == "x_cut_left" else 3.0
    one_sided = p.with_(**{side: given})
    default = z.domain_cuts(p)
    assert default == pytest.approx((-1.892, 1.892), abs=1e-12)
    want = (given, default[1]) if side == "x_cut_left" else (default[0], given)
    assert z.domain_cuts(one_sided) == want
    roots = [r.lam for r in z.direct_spectrum_real(p)]
    moved = [r.lam for r in z.direct_spectrum_real(one_sided)]
    assert len(roots) == len(moved) == 9
    assert max(abs(a - b) for a, b in zip(roots, moved)) < 1e-12


def test_wronskian_batch_matches_scalar(well_problem):
    lams = np.array([1.42 + 0.0j, 1.55 + 0.01j])
    ws, ls = _wronskian_batch(well_problem, lams)
    for lam, w_b, ls_b in zip(lams, ws, ls):
        single = z.wronskian(well_problem, lam)
        total_b = w_b * np.exp(ls_b - single.log_scale)
        assert abs(total_b - single.w_value) < 1e-7 * max(1.0, abs(single.w_value))


def _total_w(sample: z.WronskianSample, log_ref: float) -> complex:
    return sample.w_value * math.exp(sample.log_scale - log_ref)


def test_propagator_sixth_order_self_convergence(well_problem):
    # the cell width scales like ode_rtol^(1/6): dividing rtol by 64 halves dx
    p = well_problem.with_(h=0.05, eps=0.05)
    lam = 1.52 + 0.02j
    samples = [z.wronskian(p.with_(tolerances=z.Tolerances(ode_rtol=rtol)), lam)
               for rtol in (1e-6, 1e-6 / 64, 1e-6 / 64 ** 2)]
    ws = [_total_w(s, samples[-1].log_scale) for s in samples]
    ratio = abs(ws[0] - ws[1]) / abs(ws[1] - ws[2])
    assert 56.0 < ratio < 72.0


@pytest.mark.parametrize("spec,lambda0,delta", [
    (z.well_even(), 1.5, 0.2), (z.monotone_odd(), 1.0, 0.3)], ids=["well", "tanh"])
@pytest.mark.parametrize("h", [0.1, 0.0125])
def test_default_cell_width_accuracy(spec, lambda0, delta, h):
    # against cells a tenth as wide, W at the default width is within 1e-9 of
    # max|W| over random rows of the window
    p = z.Problem(spec, lambda0, delta, h, eps=0.05)
    rng = np.random.default_rng(2024)
    lams = lambda0 + delta * (rng.uniform(-1, 1, 64) + 1j * rng.uniform(-1, 1, 64))
    w, ls = _wronskian_batch(p, lams)
    w_ref, ls_ref = _wronskian_batch(p.with_(tolerances=z.Tolerances(ode_rtol=1e-16)), lams)
    err = np.max(np.abs(w - w_ref * np.exp(ls_ref - ls))) / np.max(np.abs(w_ref))
    assert err < 1e-9


def test_wronskian_row_independent_of_batch(well_problem):
    p = well_problem.with_(eps=0.05)
    lams = np.linspace(1.3, 1.7, 256) + 0.1j * np.linspace(-1.0, 1.0, 256) ** 2
    ws, ls = _wronskian_batch(p, lams)
    for j in (0, 97, 255):
        single = z.wronskian(p, lams[j])
        in_batch = ws[j] * math.exp(ls[j] - single.log_scale)
        assert abs(in_batch - single.w_value) < 1e-12 * abs(single.w_value)


def cells_per_span(problem) -> list:
    """Cell counts of the two integrations of one Wronskian row."""
    counts = []

    def spy(spec, x, eps, **kwargs):
        if np.ndim(x):
            counts.append(len(x) // 3)  # three Gauss points per cell
        return z.eval_potential(spec, x, eps, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(z.direct, "eval_potential", spy)
        _wronskian_batch(problem, one(problem.lambda0))
    return counts


def chunking_rows(rows: int) -> np.ndarray:
    return np.linspace(1.3, 1.7, rows) + 0.1j * np.linspace(-1.0, 1.0, rows) ** 2


def odd_tail_rows(problem) -> int:
    """A batch size whose last chunk on one span holds an odd number (>= 3) of cells.

    Under a parity pairing the left span shoots the unique rows of the batch
    and its conjugate, so those rows set its chunks.
    """
    counts = cells_per_span(problem)
    for rows in range(8, 512):
        lams = chunking_rows(rows)
        step = _CHUNK_ELEMENTS // len(np.unique(np.concatenate([lams, lams.conj()])))
        if any(c > step and c % step >= 3 and c % step % 2 for c in counts):
            return rows
    raise AssertionError(f"no batch size gives an odd partial last chunk for {counts}")


@pytest.mark.parametrize("layout", ["one_cell_per_chunk", "odd_partial_last_chunk"])
def test_wronskian_row_independent_of_chunking(well_problem, layout):
    p = well_problem.with_(eps=0.05)
    rows = _CHUNK_ELEMENTS + 1 if layout == "one_cell_per_chunk" else odd_tail_rows(p)
    lams = chunking_rows(rows)
    ws, ls = _wronskian_batch(p, lams)
    for j in (0, rows // 3, rows - 1):
        single = z.wronskian(p, lams[j])
        in_batch = ws[j] * math.exp(ls[j] - single.log_scale)
        assert abs(in_batch - single.w_value) < 1e-12 * abs(single.w_value)


@pytest.mark.parametrize("spec", [
    z.well_even(),
    # |A| near 40 at the cuts: thousands of e-folds inside one propagation chunk
    z.custom([("const", 40.0), ("gauss", -39.0)], [("xgauss", 1.0)]),
], ids=["well", "steep"])
def test_single_row_full_span_finite_and_split_consistent(spec):
    p = z.Problem(spec, 1.5, 0.2, 0.0125, eps=0.05, x_cut_left=-8.0, x_cut_right=8.0)
    lams = one(1.53 + 0.01j)
    seed = _seed_batch(p, lams, -8.0, 1)
    full, ls_full = _integrate_batch(p, lams, seed, -8.0, 8.0)
    assert np.all(np.isfinite(full)) and math.isfinite(ls_full[0])
    x_m = z.problem.matching_point(p)
    for x_split in (x_m, x_m + 0.123456789):
        vec, ls_a = _integrate_batch(p, lams, seed, -8.0, x_split)
        vec, ls_b = _integrate_batch(p, lams, vec, x_split, 8.0)
        assert off_direction(full[0], vec[0]) < 1e-10
        assert ls_a[0] + ls_b[0] == pytest.approx(ls_full[0], rel=1e-10)


@pytest.mark.parametrize("spec,lambda0,delta", [
    (z.well_even(), 1.5, 0.2), (z.monotone_odd(), 1.0, 0.3)], ids=["well", "tanh"])
def test_wronskian_abel_identity_across_matching_points(spec, lambda0, delta):
    # the system is trace-free, so W of two fixed solutions does not depend on x
    p = z.Problem(spec, lambda0, delta, 0.05, eps=0.05)
    x_m = z.problem.matching_point(p)
    for lam in (lambda0 + 0.37 * delta + 0.05j, lambda0 - 0.61 * delta - 0.02j):
        ref = z.wronskian(p, lam)
        for shift in (0.2, -0.2):
            moved = z.wronskian(p.with_(matching_point=x_m + shift), lam)
            assert abs(_total_w(moved, ref.log_scale) - ref.w_value) < 1e-9 * abs(ref.w_value)


PAIRED = {
    "well": (z.well_even(), 1.5, 0.2),
    "tanh": (z.monotone_odd(), 1.0, 0.3),
    "well-3-2": (z.well_even(3.0, 2.0), 2.0, 0.3),
}


@pytest.mark.parametrize("eps", [0.0, 0.05, 0.5])
@pytest.mark.parametrize("name", sorted(PAIRED))
def test_reflected_wronskian_matches_two_sided(name, eps, monkeypatch):
    # the right state reflected from the left one at conj(lambda) gives the W
    # and the log scale that shooting from the right cut gives
    spec, lambda0, delta = PAIRED[name]
    p = z.Problem(spec, lambda0, delta, 0.05, eps)
    r = np.random.default_rng(11)
    lams = np.concatenate([np.linspace(lambda0 - delta, lambda0 + delta, 21),
                           lambda0 + delta * (r.uniform(-1, 1, 12) + 0.5j * r.uniform(-1, 1, 12))])
    w, ls = _wronskian_batch(p, lams)
    # an unpaired potential is shot from both cuts
    monkeypatch.setattr(z.direct, "symmetry_class", lambda problem: z.SymmetryClass.NONE)
    w_ref, ls_ref = _wronskian_batch(p, lams)
    assert np.max(np.abs(ls - ls_ref)) < 1e-12
    full = w * np.exp(ls - ls_ref.max())
    full_ref = w_ref * np.exp(ls_ref - ls_ref.max())
    assert np.max(np.abs(full - full_ref)) < 1e-10 * np.max(np.abs(full_ref))


CTRL = WINDOWS["ctrl"][0]


@pytest.mark.parametrize("variant, shot", [
    ("paired", [256, 1]),  # the unique rows of a conjugate-closed contour, then the guard row
    ("ctrl", [256, 256]),
    ("explicit_cuts", [256, 256]),
    ("matching_point", [256, 256]),
])
def test_count_zeros_integrated_rows(variant, shot, monkeypatch):
    p = z.Problem(z.well_even(), 1.5, 0.2, 0.05, eps=0.05)
    p = {"paired": p, "ctrl": p.with_(potential=CTRL),
         "explicit_cuts": p.with_(x_cut_left=-4.0, x_cut_right=3.6),
         "matching_point": p.with_(matching_point=0.2)}[variant]
    rows = []

    def counted(problem, lams, ys, x0, x1):
        rows.append(len(lams))
        return _integrate_batch(problem, lams, ys, x0, x1)

    monkeypatch.setattr(z.direct, "_integrate_batch", counted)
    zc = z.count_zeros(p, z.window_rectangle(p))
    assert (zc.winding, zc.samples_on_boundary) == (9, 256)
    assert rows == shot


@pytest.mark.parametrize("sym", [z.SymmetryClass.A_EVEN_B_ODD, z.SymmetryClass.A_ODD_B_EVEN])
def test_reflection_guard_rejects_a_false_pairing(sym, monkeypatch):
    # the control pairs an even A with an even B: a pairing reported for it
    # must fail the guard, never reflect into a silent W
    p = z.Problem(CTRL, 1.5, 0.2, 0.05, eps=0.05)
    monkeypatch.setattr(z.direct, "symmetry_class", lambda problem: sym)
    with pytest.raises(SymmetryMismatch, match="reflected right state"):
        z.count_zeros(p, z.window_rectangle(p))
    with pytest.raises(SymmetryMismatch):
        z.wronskian(p, 1.5)


@pytest.mark.parametrize("name", ["well", "tanh"])
def test_default_cuts_clear_the_newton_bound(name):
    # Newton shoots real parts up to lambda0 + 2*delta, so wherever that level
    # crosses inside the older cuts, |A| at the default cuts stays above it
    spec, lambda0, delta = WINDOWS[name]
    bound = lambda0 + 2 * delta
    for h in (0.1, 0.05, 0.025, 0.0125, 0.00625):
        cuts = z.domain_cuts(z.Problem(spec, lambda0, delta, h))
        assert np.all(np.abs(z.eval_potential(spec, np.array(cuts), 0.0)[0].real) > bound), h
    # the decay integral alone would cut at -1.392 (well) and -1.036 (tanh)
    # here, inside that crossing, and this row would raise InsideWell
    w = z.wronskian(z.Problem(spec, lambda0, delta, 0.0125), bound - 1e-9)
    assert np.isfinite(w.w_value) and w.w_value != 0


def older_cuts(problem) -> dict:
    """Explicit cuts by the h-blind rule: the half-margin crossing pushed out by 2.0, capped."""
    rep = z.a1_report(problem)
    level = problem.lambda0 + 0.5 * rep.margin_at_infinity
    x, _ = real_crossings(problem.potential, level, problem.cutoff, rep.samples)
    left = max(np.max(x[x < rep.alpha0], initial=-np.inf) - 2.0, -problem.cutoff)
    right = min(np.min(x[x > rep.beta0], initial=np.inf) + 2.0, problem.cutoff)
    return {"x_cut_left": float(left), "x_cut_right": float(right)}


# ctrl at eps > 0 is left out: its located count depends on the eps = 0 seeds
@pytest.mark.parametrize("h", [0.05, 0.0125])
@pytest.mark.parametrize("name, eps", [("well", 0.0), ("well", 0.05), ("tanh", 0.0),
                                       ("tanh", 0.05), ("ctrl", 0.0)])
def test_decay_sized_cuts_leave_the_roots_in_place(name, eps, h):
    spec, lambda0, delta = WINDOWS[name]
    p = z.Problem(spec, lambda0, delta, h, eps)
    wide = p.with_(**older_cuts(p))
    assert z.domain_cuts(p)[1] < z.domain_cuts(wide)[1]
    roots = [r.lam for r in z.direct_spectrum_complex(p, certify=False)]
    wide_roots = [r.lam for r in z.direct_spectrum_complex(wide, certify=False)]
    assert len(roots) == len(wide_roots) > 0
    assert max(abs(a - b) for a, b in zip(roots, wide_roots)) < 1e-12


@pytest.mark.parametrize("potential", [z.well_even(), CTRL], ids=["reflected", "two_sided"])
def test_empty_batch_returns_empty_arrays(potential):
    p = z.Problem(potential, 1.5, 0.2, 0.05, eps=0.05)
    w, ls = _wronskian_batch(p, np.array([]))
    assert w.shape == ls.shape == (0,)
    assert w.dtype == complex and ls.dtype == float


def conjugate_closed(lams) -> bool:
    return np.array_equal(np.sort(lams), np.sort(np.conj(lams)))


def test_perimeter_is_conjugate_closed_on_a_real_symmetric_rectangle(well_problem):
    re0, re1, im0, im1 = z.direct._rectangle_corners(z.window_rectangle(well_problem))
    assert im0 == -im1
    coarse = np.arange(0.0, 4.0, 1.0 / 64)
    mids = coarse + 1.0 / 128  # one refinement round, every gap bisected
    for ts in (coarse, np.sort(np.concatenate([coarse, mids]))):
        lams = _perimeter(ts, re0, re1, im0, im1)
        assert len(np.unique(lams)) == len(ts)
        assert conjugate_closed(lams)


def test_vertical_probe_is_mirror_exact(well_problem, monkeypatch):
    # the probe lifts the real seeds along vertical lines symmetric about the axis
    batches = []

    def counted(problem, lams):
        batches.append(np.array(lams))
        return _wronskian_batch(problem, lams)

    monkeypatch.setattr(z.direct, "_wronskian_batch", counted)
    z.direct_spectrum_complex(well_problem.with_(eps=0.05), certify=False)
    probe = batches[1]  # after the eps = 0 scan
    assert len(probe) % 17 == 0
    assert conjugate_closed(probe)
