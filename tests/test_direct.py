import math
import re
import warnings

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg

import zswkb as z
from zswkb.direct import (_CHUNK_ELEMENTS, _integrate_batch, _line_factor, _newton_wronskian,
                          _perimeter, _seed_batch, _shooting, _spans, _wronskian_batch)
from zswkb.errors import (BoundaryZero, InsideWell, MissedZerosWarning, NoConvergence,
                          PhaseResolution, SymmetryRequired)
from zswkb.potential import _crossing_grid, eval_A, real_crossings

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


def span(problem, x0, x1):
    """The propagator's cells from x0 to x1, as a solve's set-up builds them."""
    return _spans(problem, [(x0, x1)])[0][0]


def test_boundary_seed_matches_eigendecomposition(const_problem):
    lam = 1.0
    for sign in (1, -1):  # at the cuts -5 and 5
        seed = _seed_batch(_shooting(const_problem), one(lam), sign)[0]
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
        _seed_batch(_shooting(const_problem), one(2.0), 1)  # |A| = lambda
    with pytest.raises(InsideWell):
        _seed_batch(_shooting(const_problem), np.asarray([1.0, 2.5 + 0j]), 1)  # |A| < lambda in one row


def test_seeds_related_by_conjugation_symmetry(well_problem):
    # for even A, eps = 0, real lambda: conjugating the left seed and flipping
    # the sign of its second component gives the right seed up to a phase,
    # and each seed is itself swap-conjugate invariant up to a phase
    shooting = _shooting(well_problem)
    left = _seed_batch(shooting, one(1.5), 1)[0]
    right = _seed_batch(shooting, one(1.5), -1)[0]
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
            shooting = _shooting(p)
            c = _line_factor(shooting, lams)
            assert np.max(np.abs(np.abs(c) - 1.0)) < 1e-12
            w, ls = _wronskian_batch(shooting, lams)
            g = c * w * np.exp(ls - ls.max())
            assert np.max(np.abs(g.imag)) <= 1e-11 * np.max(np.abs(g)), (h, p)


def test_integrate_matches_matrix_exponential(const_problem):
    lam = 1.0
    seed = _seed_batch(_shooting(const_problem), one(lam), 1)
    vec, ls = _integrate_batch(span(const_problem, -5.0, 0.0), one(lam), seed)
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
        vecs, ls = _integrate_batch(span(const_problem, -5.0, 0.0), lams, seed)
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
    vecs, ls = _integrate_batch(span(p, x0, x1), lams, seed)
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
    seed = _seed_batch(_shooting(const_problem), one(1.0), 1)
    vec, ls = _integrate_batch(span(const_problem, -5.0, -5.0), one(1.0), seed)
    assert np.array_equal(vec, seed)
    assert ls[0] == 0.0


def test_integrate_reversibility(well_problem):
    # reverse across the oscillatory stretch, where both branches are neutral;
    # reversing through a growth region is exponentially ill-conditioned
    lams = one(1.5)
    x_l, _ = z.domain_cuts(well_problem)
    start, _ = _integrate_batch(span(well_problem, x_l, -0.5), lams,
                                _seed_batch(_shooting(well_problem), lams, 1))
    fwd, ls_f = _integrate_batch(span(well_problem, -0.5, 0.5), lams, start)
    back, ls_b = _integrate_batch(span(well_problem, 0.5, -0.5), lams, fwd)
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

    def counted(shooting, lams):
        sizes.append(len(lams))
        return _wronskian_batch(shooting, lams)

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

    def counted(shooting, lams):
        batches.append((shooting.problem.eps, len(lams)))
        return _wronskian_batch(shooting, lams)

    monkeypatch.setattr(z.direct, "_wronskian_batch", counted)
    recs = z.direct_spectrum_complex(well_problem.with_(eps=0.05), certify=False)
    assert recs
    assert [n for eps, n in batches if eps == 0.0] == [41]


@pytest.mark.parametrize("fault", ["outside", "failed"])
def test_direct_spectrum_real_rejects_unpolished_root(well_problem, monkeypatch, fault):
    # a Newton row that fails, or lands outside its own bracket, is an error,
    # never a reported eigenvalue
    def faulty(shooting, seeds):
        lams, resid, failed = _newton_wronskian(shooting, seeds)
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
                        lambda shooting, lams: (w_of_lam(np.asarray(lams)), np.zeros(len(lams))))


def test_newton_wronskian_flags_a_two_cycle(well_problem, monkeypatch):
    # Newton on u^3 - 2u + 2 from u = 0 cycles 0 -> 1 -> 0 and never converges
    patch_wronskian(monkeypatch, lambda lam: ((lam - 1.5) / 0.1) ** 3 - 2 * (lam - 1.5) / 0.1 + 2)
    lams, resid, failed = _newton_wronskian(_shooting(well_problem), one(1.5))
    assert failed[0]


def test_newton_wronskian_flags_a_flat_wronskian(well_problem, monkeypatch):
    # W' = 0 gives no finite Newton step
    patch_wronskian(monkeypatch, lambda lam: np.full(len(lam), 1.0 + 0j))
    lams, resid, failed = _newton_wronskian(_shooting(well_problem), one(1.5))
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


def test_count_zeros_raises_boundary_zero_after_three_inflations(well_problem, monkeypatch):
    # unit-norm states give |W| <= 1, so every sample is at the bound
    p = well_problem.with_(tolerances=z.Tolerances(boundary_min_w=1.0))
    sizes = record_batches(monkeypatch)
    with pytest.raises(BoundaryZero, match="after 3 inflations"):
        z.count_zeros(p, z.window_rectangle(p))
    assert sizes == [256] * 4


def test_count_zeros_raises_phase_resolution_past_the_sample_cap(well_problem, monkeypatch):
    # this count takes 362 samples; a cap of 256 stops the first refinement
    p = well_problem.with_(h=0.0125, eps=0.05)
    monkeypatch.setattr(z.direct, "_MAX_BOUNDARY_SAMPLES", 256)
    with pytest.raises(PhaseResolution, match="exceeded 256 samples"):
        z.count_zeros(p, z.window_rectangle(p))


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

    def faulty(shooting, seeds):
        lams, resid, failed = _newton_wronskian(shooting, seeds)
        extra = lams[0] + (2 * shooting.problem.delta if fault == "outside" else 1e-10)
        return np.append(lams, extra), np.append(resid, resid[0]), np.append(failed, False)

    monkeypatch.setattr(z.direct, "_newton_wronskian", faulty)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert z.direct_spectrum_complex(p, certify=False) == clean


def test_complex_spectrum_warns_for_diverged_seeds(well_problem, monkeypatch):
    p = well_problem.with_(eps=0.05)
    clean = z.direct_spectrum_complex(p, certify=False)

    def faulty(shooting, seeds):
        lams, resid, failed = _newton_wronskian(shooting, seeds)
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


@pytest.mark.parametrize("h, count", [(0.1, 5), (0.05, 10)])
def test_real_scan_steps_a_wide_well_by_its_action_derivative(h, count):
    # a narrow dip in a wide plateau: |I'(lambda0)| ~ 25.9, so the scan step
    # pi*h/(8*S), S the window's mean slope of I, is about h/66; h/10 is near
    # the level spacing pi*h/|I'|, and there Newton leaves its bracket
    # (NoConvergence at both h)
    spec = z.custom([("const", 2), ("gauss", -1, 0.02)], [("xgauss", 1, 0.02)])
    p = z.Problem(spec, 1.5, 0.03, h, cutoff=20.0)
    assert abs(z.action_integral(p, 1.5).dvalue_dlambda) > 10 * math.pi / 8
    roots = z.direct_spectrum_real(p)
    assert len(roots) == z.count_zeros(p, z.window_rectangle(p)).winding == count


@pytest.mark.parametrize("h, count, scan_rows", [(0.1, 5, 41), (0.05, 10, 81)])
def test_real_scan_needs_no_wkb_action(monkeypatch, h, count, scan_rows):
    # the direct solver is an independent check on the WKB one: with every
    # action quadrature failing, the wide well's scan still steps by its
    # sampled action slope and finds every root the winding counts
    def broken(*args, **kwargs):
        raise NoConvergence("action quadrature disabled")

    monkeypatch.setattr(z.action, "_action_rows", broken)
    sizes = record_batches(monkeypatch)
    spec = z.custom([("const", 2), ("gauss", -1, 0.02)], [("xgauss", 1, 0.02)])
    p = z.Problem(spec, 1.5, 0.03, h, cutoff=20.0)
    roots = z.direct_spectrum_real(p)
    assert sizes[0] == scan_rows
    assert len(roots) == z.count_zeros(p, z.window_rectangle(p)).winding == count


def test_wronskian_batch_matches_scalar(well_problem):
    lams = np.array([1.42 + 0.0j, 1.55 + 0.01j])
    ws, ls = _wronskian_batch(_shooting(well_problem), lams)
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
    w, ls = _wronskian_batch(_shooting(p), lams)
    w_ref, ls_ref = _wronskian_batch(_shooting(p.with_(tolerances=z.Tolerances(ode_rtol=1e-16))),
                                     lams)
    err = np.max(np.abs(w - w_ref * np.exp(ls_ref - ls))) / np.max(np.abs(w_ref))
    assert err < 1e-9


def test_wronskian_row_independent_of_batch(well_problem):
    p = well_problem.with_(eps=0.05)
    lams = np.linspace(1.3, 1.7, 256) + 0.1j * np.linspace(-1.0, 1.0, 256) ** 2
    ws, ls = _wronskian_batch(_shooting(p), lams)
    for j in (0, 97, 255):
        single = z.wronskian(p, lams[j])
        in_batch = ws[j] * math.exp(ls[j] - single.log_scale)
        assert abs(in_batch - single.w_value) < 1e-12 * abs(single.w_value)


def cells_per_span(problem) -> list:
    """Cell counts of the integrations of one Wronskian row."""
    return [span.k0.shape[1] for span in _shooting(problem).spans]


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
    ws, ls = _wronskian_batch(_shooting(p), lams)
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
    seed = _seed_batch(_shooting(p), lams, 1)  # at the cut -8
    full, ls_full = _integrate_batch(span(p, -8.0, 8.0), lams, seed)
    assert np.all(np.isfinite(full)) and math.isfinite(ls_full[0])
    x_m = z.problem.matching_point(p)
    for x_split in (x_m, x_m + 0.123456789):
        vec, ls_a = _integrate_batch(span(p, -8.0, x_split), lams, seed)
        vec, ls_b = _integrate_batch(span(p, x_split, 8.0), lams, vec)
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
    # custom pairings over several scales, read off their terms
    "even-multiscale": (
        z.custom([("const", 2.5), ("gauss", -0.7, 0.5), ("gauss", -0.6, 2.0)],
                 [("xgauss", 0.8, 0.5), ("tanh", 0.3, 2.0), ("xgauss", -0.4, 3.0)]), 1.8, 0.3),
    "odd-multiscale": (
        z.custom([("tanh", 1.5), ("tanh", 0.5, 2.0), ("xgauss", 0.2, 0.5)],
                 [("gauss", 0.6), ("gauss", 0.4, 3.0), ("const", 0.1)]), 1.0, 0.3),
}


def two_sided_wronskian(p, lams) -> tuple:
    """W and its log scale shot from both cuts to the matching point, with no reflection."""
    x_l, x_r = z.domain_cuts(p)
    x_m = z.problem.matching_point(p)
    shooting = _shooting(p)
    y_l, ls_l = _integrate_batch(span(p, x_l, x_m), lams, _seed_batch(shooting, lams, 1))
    y_r, ls_r = _integrate_batch(span(p, x_r, x_m), lams, _seed_batch(shooting, lams, -1))
    return y_l[:, 0] * y_r[:, 1] - y_l[:, 1] * y_r[:, 0], ls_l + ls_r


def window_rows(lambda0, delta) -> np.ndarray:
    """21 real rows across the window and 12 random rows off the axis."""
    r = np.random.default_rng(11)
    return np.concatenate([np.linspace(lambda0 - delta, lambda0 + delta, 21),
                           lambda0 + delta * (r.uniform(-1, 1, 12) + 0.5j * r.uniform(-1, 1, 12))])


def reflection_error(p, lams) -> tuple:
    """max |W*e^ls - reference| over max |reference|, and max |ls - reference ls|."""
    w, ls = _wronskian_batch(_shooting(p), lams)
    w_ref, ls_ref = two_sided_wronskian(p, lams)
    full = w * np.exp(ls - ls_ref.max())
    full_ref = w_ref * np.exp(ls_ref - ls_ref.max())
    return (np.max(np.abs(full - full_ref)) / np.max(np.abs(full_ref)),
            np.max(np.abs(ls - ls_ref)))


@pytest.mark.parametrize("eps", [0.0, 0.05, 0.5])
@pytest.mark.parametrize("name", sorted(PAIRED))
def test_reflected_wronskian_matches_two_sided(name, eps):
    # the right state reflected from the left one at conj(lambda) gives the W
    # and the log scale that shooting from the right cut gives
    spec, lambda0, delta = PAIRED[name]
    p = z.Problem(spec, lambda0, delta, 0.05, eps)
    x_l, x_r = z.domain_cuts(p)  # the conditions of the reflected route
    assert z.symmetry_class(p) is not z.SymmetryClass.NONE
    assert x_l == -x_r and z.problem.matching_point(p) == 0.0
    w_err, ls_err = reflection_error(p, window_rows(lambda0, delta))
    assert ls_err < 1e-12
    assert w_err < 1e-10


CTRL = WINDOWS["ctrl"][0]
# potentials with no PT-like pairing whose A_eps may have a parity of its own
PARITY = {
    "ctrl": (CTRL, 1.5, 0.2),  # A and B even: i*sigma_y
    "odd_odd": (z.custom([("tanh", 2.0)], [("xgauss", 1.0)]), 1.0, 0.3),  # A and B odd: sigma_x
    # B is neither even nor odd, so A_eps has A's parity only at eps = 0
    "mixed_b": (z.custom([("const", 2.0), ("gauss", -1.0)], [("gauss", 1.0), ("xgauss", 0.5)]),
                1.5, 0.2),
}


def record_starts(monkeypatch) -> list:
    """(rows, start) of every batch the propagator integrates, in call order."""
    starts = []

    def counted(span, lams, ys):
        starts.append((len(lams), span.x0))
        return _integrate_batch(span, lams, ys)

    monkeypatch.setattr(z.direct, "_integrate_batch", counted)
    return starts


@pytest.mark.parametrize("name, h, eps", [
    ("ctrl", 0.1, 0.0), ("ctrl", 0.1, 0.05), ("ctrl", 0.0125, 0.0), ("ctrl", 0.0125, 0.05),
    ("odd_odd", 0.1, 0.0), ("odd_odd", 0.1, 0.05), ("mixed_b", 0.1, 0.0)])
def test_parity_reflected_wronskian_matches_two_sided(name, h, eps, monkeypatch):
    # with A_eps even or odd, R*u_l(-x; lambda) is the right state at the same
    # lambda: one batch from the left cut gives the two-sided W and log scale
    spec, lambda0, delta = PARITY[name]
    p = z.Problem(spec, lambda0, delta, h, eps)
    x_l, x_r = z.domain_cuts(p)
    assert z.symmetry_class(p) is z.SymmetryClass.NONE
    assert x_l == -x_r and z.problem.matching_point(p) == 0.0
    lams = window_rows(lambda0, delta)
    starts = record_starts(monkeypatch)
    _wronskian_batch(_shooting(p), lams)
    assert starts == [(len(lams), x_l)]
    monkeypatch.undo()
    w_err, ls_err = reflection_error(p, lams)
    assert ls_err < 1e-12
    assert w_err < 1e-12


@pytest.mark.parametrize("variant, shot", [
    ("paired", [256]),  # the unique rows of a conjugate-closed contour, from the left cut only
    ("ctrl", [256]),  # A_eps even: every row once, from the left cut only
    ("explicit_cuts", [256, 256]),
    ("matching_point", [256, 256]),
    ("odd_odd", [256]),  # A_eps odd
    ("mixed_b", [256, 256]),  # no parity at eps > 0: both cuts
])
def test_count_zeros_integrated_rows(variant, shot, monkeypatch):
    # pins the work a count does, not its accuracy
    p = z.Problem(z.well_even(), 1.5, 0.2, 0.05, eps=0.05)
    p, winding = {"paired": (p, 9), "ctrl": (p.with_(potential=CTRL), 9),
                  "explicit_cuts": (p.with_(x_cut_left=-4.0, x_cut_right=3.6), 9),
                  "matching_point": (p.with_(matching_point=0.2), 9),
                  "odd_odd": (z.Problem(*PARITY["odd_odd"], 0.05, eps=0.05), 7),
                  "mixed_b": (p.with_(potential=PARITY["mixed_b"][0]), 9)}[variant]
    starts = record_starts(monkeypatch)
    zc = z.count_zeros(p, z.window_rectangle(p))
    assert (zc.winding, zc.samples_on_boundary) == (winding, 256)
    assert [rows for rows, _ in starts] == shot


def test_complex_newton_round_on_the_control_shoots_from_one_cut(monkeypatch):
    # the stack (lambda, lambda + s, lambda - s) of m roots is 3m rows, each
    # shot once from the left cut: the parity needs no conjugate partners
    p = z.Problem(CTRL, 1.5, 0.2, 0.05, eps=0.05)
    seeds = np.array([r.lam for r in z.direct_spectrum_complex(p, certify=False)])
    x_l = z.domain_cuts(p)[0]
    starts = record_starts(monkeypatch)
    _newton_wronskian(_shooting(p), seeds)
    assert len(seeds) == 9 and starts[0] == (3 * len(seeds), x_l)
    assert {x0 for _, x0 in starts} == {x_l}


# the four routes at eps = 0: paired (well, tanh), A_eps even (ctrl), and no
# parity at all, shot from both cuts (asym)
FOLD = {**WINDOWS, "asym": (z.custom([("const", 2.0), ("gauss", -1.0), ("xgauss", 0.3)],
                                     [("gauss", 1.0)]), 1.5, 0.2)}


@pytest.mark.parametrize("h", [0.1, 0.0125])
@pytest.mark.parametrize("name", sorted(FOLD))
def test_eps_zero_fold_matches_two_sided_at_the_conjugate(name, h):
    # W(conj(lam)) = -c_l*c_r*conj(W(lam)) at the same log scale: the rows
    # below the axis, never shot, agree with a reference shot at them
    spec, lambda0, delta = FOLD[name]
    p = z.Problem(spec, lambda0, delta, h)
    upper = window_rows(lambda0, delta)
    upper.imag = np.abs(upper.imag) + 0.01 * delta
    lams = np.concatenate([upper, upper.conj()])
    w, ls = _wronskian_batch(_shooting(p), lams)
    w_ref, ls_ref = two_sided_wronskian(p, upper.conj())
    below = slice(len(upper), None)
    full = w[below] * np.exp(ls[below] - ls_ref)
    assert np.max(np.abs(full - w_ref) / np.abs(w_ref)) < 1e-12
    assert np.max(np.abs(ls[below] - ls_ref)) < 1e-12


@pytest.mark.parametrize("name, winding", [("well", 5), ("tanh", 3), ("ctrl", 5), ("asym", 4)])
def test_eps_zero_count_shoots_one_row_per_conjugate_pair(name, winding, monkeypatch):
    # 129 of the contour's 256 samples have Im lam >= 0, on every route
    spec, lambda0, delta = FOLD[name]
    p = z.Problem(spec, lambda0, delta, 0.1)
    starts = record_starts(monkeypatch)
    zc = z.count_zeros(p, z.window_rectangle(p))
    assert (zc.winding, zc.samples_on_boundary) == (winding, 256)
    assert [rows for rows, _ in starts] == [129] * len(_shooting(p).spans)
    assert len(starts) == (2 if name == "asym" else 1)


def shot_as_given(p, lams) -> tuple:
    """W and its log scale with every row shot, by the set-up's route, as before the fold."""
    shooting = _shooting(p)
    if shooting.reflection is None:
        return two_sided_wronskian(p, lams)
    step, r, conjugate, _ = shooting.reflection
    mirror = lams.conj() if conjugate else lams
    rows, inverse = np.unique(np.concatenate([lams, mirror]), return_inverse=True)
    own, bar = np.split(inverse, 2)
    v_l = _seed_batch(shooting, rows, 1)
    y, ls = _integrate_batch(shooting.spans[0], rows, v_l)

    def reflected(v):
        v = v[bar][:, ::step]
        return np.conj(v) if conjugate else v

    kappa = np.sum(r * np.conj(reflected(v_l)) * _seed_batch(shooting, lams, -1), axis=1)
    y_r = kappa[:, None] * r * reflected(y)
    return y[own, 0] * y_r[:, 1] - y[own, 1] * y_r[:, 0], ls[own] + ls[bar]


@pytest.mark.parametrize("name", sorted(FOLD))
def test_eps_above_zero_contour_is_shot_as_before_the_fold(name):
    # the fold holds at eps = 0 only: at eps > 0 every row of a contour is shot
    # and every W is bitwise the one the unfolded route gives
    spec, lambda0, delta = FOLD[name]
    p = z.Problem(spec, lambda0, delta, 0.1, eps=0.05)
    re0, re1, im0, im1 = z.direct._rectangle_corners(z.window_rectangle(p))
    lams = _perimeter(np.arange(0.0, 4.0, 1.0 / 64), re0, re1, im0, im1)
    w, ls = _wronskian_batch(_shooting(p), lams)
    w_ref, ls_ref = shot_as_given(p, lams)
    assert np.array_equal(w, w_ref) and np.array_equal(ls, ls_ref)


def test_direct_spectrum_real_samples_the_potential_once(well_problem, monkeypatch):
    # one set-up per solve: the scan and every Newton round share its spans
    # and its A_eps at the cuts
    calls = []

    def spy(spec, x, eps, **kwargs):
        calls.append(np.size(x))
        return z.eval_potential(spec, x, eps, **kwargs)

    monkeypatch.setattr(z.direct, "eval_potential", spy)
    sizes = record_batches(monkeypatch)
    assert len(z.direct_spectrum_real(well_problem)) == 5
    assert len(sizes) == 5  # the scan and four Newton rounds
    assert len(calls) == 1 and calls[0] == 3 * sum(cells_per_span(well_problem)) + 2


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
    a = eval_A(problem.potential, _crossing_grid(problem.cutoff))[0].real
    x, _ = real_crossings(problem.potential, level, problem.cutoff, a)
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


@pytest.mark.parametrize("potential", [z.well_even(), PARITY["mixed_b"][0], CTRL],
                         ids=["reflected", "two_sided", "parity"])
def test_empty_batch_returns_empty_arrays(potential):
    p = z.Problem(potential, 1.5, 0.2, 0.05, eps=0.05)
    w, ls = _wronskian_batch(_shooting(p), np.array([]))
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

    def counted(shooting, lams):
        batches.append(np.array(lams))
        return _wronskian_batch(shooting, lams)

    monkeypatch.setattr(z.direct, "_wronskian_batch", counted)
    z.direct_spectrum_complex(well_problem.with_(eps=0.05), certify=False)
    probe = batches[1]  # after the eps = 0 scan
    assert len(probe) % 17 == 0
    assert conjugate_closed(probe)


def test_count_zeros_raises_phase_resolution_for_a_negative_winding(well_problem, monkeypatch):
    # a pole inside the window winds arg W once clockwise
    monkeypatch.setattr(z.direct, "_wronskian_batch",
                        lambda shooting, lams: (1.0 / (lams - 1.5), np.zeros(len(lams))))
    with pytest.raises(PhaseResolution, match=r"winding -1\.0000 is not close"):
        z.count_zeros(well_problem, z.window_rectangle(well_problem))
