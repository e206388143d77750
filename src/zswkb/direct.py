"""Direct reference solver: shoot the decaying solutions to a matching point, find Wronskian zeros.

The first-order system u' = (1/h) M(x) u with M = [[-i*lam, A_eps], [A_eps, i*lam]]
is started at each cut from the eigenvector of M that decays away from the
domain, and propagated to the matching point by closed-form sixth-order Magnus
transfer matrices on a fixed grid. Solutions vary like exp(+/- z/h), so the
states are rescaled to unit norm after every chunk of cells and the extracted
magnitude accumulates in a log scale; overflow cannot occur.

``_wronskian_batch`` is the one way into the propagator: it evaluates W for a
batch of spectral parameters on one grid, and ``wronskian`` is its public
one-lambda probe. Under a PT-like parity pairing, with mirror cuts and the
matching point at 0, the right state is the reflection of the left one at
conj(lambda), so a batch shoots only its rows and their conjugates from the
left cut, plus one guard row from the right cut that must agree with its
reflection (SymmetryMismatch otherwise); every other problem is shot from
both cuts. The window contour and the vertical probe sample conjugate-closed
sets, so their batches shoot each row once.

Every root-finding stage is array code over such batches, and
``_newton_wronskian`` is the one root polisher. ``_scan`` brackets the sign
changes of W on the real axis, where a symmetry puts W on a known line:
self-adjointness at eps = 0, a parity pairing at eps > 0. ``direct_spectrum_real``
polishes the brackets' secant points; at eps > 0 ``direct_spectrum_complex``
lifts the secant points of the eps = 0 scan off the axis, unpolished, and at
eps = 0 it returns the real records as they are.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .action import action_integral
from .errors import (BoundaryZero, InsideWell, MissedZerosWarning, NoConvergence,
                     PhaseResolution, SymmetryMismatch, SymmetryRequired, ZSWKBError)
# axis_blend_callable is unused here; the benchmark's tracer patches this name
from .potential import SymmetryClass, axis_blend_callable, eval_potential  # noqa: F401
from .problem import (Problem, a1_report, domain_cuts, matching_point, symmetry_class,
                      window_rectangle)
from .quantize import EigenvalueRecord, Method, select_branch

_NEWTON_FD_STEP = 1e-7
_MAX_BOUNDARY_SAMPLES = 2 ** 16
# cells x rows per propagation chunk; bounds the propagator's working memory
_CHUNK_ELEMENTS = 4096
_GAUSS3 = np.sqrt(15.0) / 10.0  # outer Gauss-Legendre nodes at mid -/+ _GAUSS3 * dx
_TINY = np.finfo(float).tiny
# relative gap allowed between the reflected and the shot right state
_REFLECTION_GUARD = 1e-9


@dataclass(frozen=True)
class WronskianSample:
    lam: complex
    w_value: complex
    log_scale: float


@dataclass(frozen=True)
class ZeroCount:
    rectangle: tuple
    winding: int
    samples_on_boundary: int


def _seed_batch(problem: Problem, lams: np.ndarray, x_cut: float, sign: int) -> np.ndarray:
    """Unit eigenvectors of M(x_cut) for sign*sqrt(A_eps^2 - lam^2), Re sqrt > 0, per lambda.

    sign = +1 at the left cut and -1 at the right cut select the solution that
    decays away from the domain; InsideWell is raised when a row cannot decay.
    """
    a_c, _ = eval_potential(problem.potential, x_cut, problem.eps, derivative=False)
    a_c = complex(a_c)
    mu = np.sqrt(a_c * a_c - lams * lams)
    if np.any(mu.real <= 1e-12 * np.maximum(1.0, np.abs(lams))):
        raise InsideWell(f"no decay margin at x_cut={x_cut}")
    signed = mu if sign > 0 else -mu
    v = np.stack([np.full(len(lams), a_c, dtype=complex), signed + 1j * lams], axis=1)
    v /= np.linalg.norm(v, axis=1)[:, None]
    return v


def _integrate_batch(problem: Problem, lams: np.ndarray, ys: np.ndarray,
                     x0: float, x1: float) -> tuple:
    """Fixed-grid sixth-order Magnus propagator for the whole batch; returns (ys, log_scales).

    The cells are those of the lattice dx*Z between x0 and x1; anchoring it at
    the origin gives overlapping integrations the same cells. A cell uses the
    three-Gauss-point Magnus-6 scheme of Blanes, Casas and Ros (BIT 40, 2000).
    With G1, G2, G3 the generator M/h at mid + (-1, 0, 1)*_GAUSS3*dx in the
    direction of travel,
        alpha1 = dx*G2, alpha2 = (sqrt(15)/3)*dx*(G3 - G1),
        alpha3 = (10/3)*dx*(G3 - 2*G2 + G1),
        C1 = [alpha1, alpha2], C2 = -[alpha1, 2*alpha3 + C1]/60,
        Omega = alpha1 + alpha3/12 + [-20*alpha1 - alpha3 + C1, alpha2 + C2]/240.
    Write a trace-free matrix as [[p, u+v], [u-v, -p]] = p*sz + u*sx + v*i*sy.
    Every G_i has the same p and no v, and alpha2, alpha3 have only a u part,
    so the commutators collapse to Omega = (P*(c1 + P^2*c3), e0 + P^2*e2,
    P*(f1 + P^2*f3)) with P = -i*lam*dx/h and six per-cell coefficients.
    Then exp(Omega) = cosh(q)*I + sinh(q)/q*Omega with q^2 = p^2 + u^2 - v^2.

    Both cosh(q) and sinh(q)/q are even in q, so the kernel works in real
    arithmetic from q^2 alone. Kahan's cancellation-free root gives the
    principal q = (Re q, Im q), Re q >= 0: with t = sqrt((|q^2| + |Re q^2|)/2)
    and o = Im q^2/(2t), q = (t, o) where Re q^2 >= 0 and (|o|, copysign(t,
    Im q^2)) elsewhere. Each cell matrix is scaled by exp(-Re q), the exponent
    going to the log scale, so no product of cells overflows: with
    near = exp(i*Im q) = cos + i*sin and far = exp(-2*Re q)*conj(near),
    cosh = (near + far)/2 and sinh(q)/q = (near - far)*conj(q)/(2*|q^2|),
    replaced by its Taylor series on the entries with |q| < 0.1, where the
    difference cancels.

    The cells go through in chunks of at most _CHUNK_ELEMENTS cells x rows,
    and every chunk reuses one block of buffers allocated per call. A chunk's
    matrices fill a (cells, 2, 2, rows) buffer and are multiplied by a
    pairwise tree, later cell on the left, that alternates between two such
    buffers. The product is applied to the states, which are then
    renormalized to unit norm.
    """
    h = problem.h
    rows = len(lams)
    if x1 == x0 or rows == 0:
        return ys.astype(complex), np.zeros(rows)
    # the global error scales like dx^6/h^5: halving dx cuts it 64-fold. At the
    # default rtol = 1e-10, dx = 0.008 at h = 0.1 gives W to about 1e-10 of
    # max|W|, and the h^(3/4) factor keeps it below 1e-9 down to h = 0.0125
    dx = 0.008 * (problem.tolerances.ode_rtol / 1e-10) ** (1 / 6) * min(1.0, h / 0.1) ** 0.75
    lo, hi = sorted((x0, x1))
    edges = np.concatenate([[lo], np.arange(np.floor(lo / dx) + 1, np.ceil(hi / dx)) * dx, [hi]])
    if x1 < x0:
        edges = edges[::-1]
    dx_h = np.diff(edges) / h  # signed cell widths over h
    mids = 0.5 * (edges[:-1] + edges[1:])
    offset = _GAUSS3 * h * dx_h
    a, _ = eval_potential(problem.potential, np.concatenate([mids - offset, mids, mids + offset]),
                          problem.eps, derivative=False)
    a1, a2, a3 = np.split(a, 3)
    # u parts of alpha1, alpha2, alpha3; alpha1 also has p = P
    u1 = dx_h * a2
    u2 = np.sqrt(15.0) / 3.0 * dx_h * (a3 - a1)
    u3 = 10.0 / 3.0 * dx_h * (a3 - 2.0 * a2 + a1)
    s = 20.0 * u1 + u3
    c1 = 1.0 + u2 * u2 / 60.0 - s * u3 / 1800.0
    c3 = -u2 * u2 / 900.0
    e0 = u1 + u3 / 12.0
    e2 = (10.0 * u3 - u1 * u2 * u2) / 900.0
    f1 = u2 * (s * u1 / 1800.0 - 1.0 / 6.0)
    f3 = u2 / 90.0
    # with d = -i*lam and P = dx_h*d, (p, u, v) = (d, 1, d)*(k0 + k1*d^2): one
    # column of k0 and of k1 per cell
    dx_h2 = dx_h * dx_h
    k0 = np.stack([dx_h * c1, e0, dx_h * f1])[:, :, None]
    k1 = np.stack([dx_h * dx_h2 * c3, dx_h2 * e2, dx_h * dx_h2 * f3])[:, :, None]
    d = -1j * lams
    d2 = d * d

    step = min(len(dx_h), max(1, _CHUNK_ELEMENTS // rows))
    # one block of (step, rows) slots per call. Slots 0-3 hold the chunk's
    # cell matrices as (cells, 2, 2, rows) and, until those are written, the
    # kernel's real scratch; slots 4-10 hold p, u/q2, v/tmp, u+v, u-v, cosh,
    # sinh(q)/q and then, in the tree, the second matrix set and the terms
    block = np.empty((11, step, rows), dtype=complex)
    real_buf = block[:4].reshape(-1).view(float).reshape(8, step, rows)
    mats_buf, spare_buf = (block[i:i + 4].reshape(step, 2, 2, rows) for i in (0, 4))
    term_buf = block[8:10].reshape(-1)[:(step // 2) * 4 * rows].reshape(step // 2, 2, 2, rows)
    flag_buf = np.empty((step, rows), dtype=bool)
    y = np.array(ys.T, dtype=complex)  # (2, rows): one row per state component
    y_next, y_tmp = np.empty((2, 2, rows), dtype=complex)
    norms = np.empty((2, rows))
    log_scales = np.zeros(rows)
    for k in range(0, len(dx_h), step):
        cells = slice(k, k + step)
        n = len(dx_h[cells])
        slots = block[:, :n]
        puv, uv = slots[4:7], slots[7:9]  # (p, u, v) and (u + v, u - v)
        p, cosh, sinhc = slots[4], slots[9], slots[10]
        q2, tmp = slots[5], slots[6]  # u and v are done with once uv is formed
        aq, re_q, im_q, w1, w2, cs, sn = real_buf[:7, :n]
        flag = flag_buf[:n]
        np.multiply(k1[:, cells], d2, out=puv)
        np.add(puv, k0[:, cells], out=puv)
        np.multiply(puv[0::2], d, out=puv[0::2])
        np.add(puv[1], puv[2], out=uv[0])
        np.subtract(puv[1], puv[2], out=uv[1])
        np.multiply(p, p, out=q2)
        np.multiply(uv[0], uv[1], out=tmp)
        np.add(q2, tmp, out=q2)
        # Kahan's root. |q^2| is floored at the smallest normal, so q^2 = 0
        # gives o = 0 and a finite 1/|q^2|: no division here can warn
        np.abs(q2, out=aq)
        np.maximum(aq, _TINY, out=aq)
        np.abs(q2.real, out=re_q)
        np.add(re_q, aq, out=re_q)
        np.multiply(re_q, 2.0, out=re_q)
        np.sqrt(re_q, out=re_q)  # 2t
        np.divide(q2.imag, re_q, out=im_q)  # o
        np.multiply(re_q, 0.5, out=re_q)  # t
        np.less(q2.real, 0.0, out=flag)  # where q = (|o|, copysign(t, Im q^2))
        np.abs(im_q, out=w1)
        np.copysign(re_q, q2.imag, out=w2)
        np.putmask(re_q, flag, w1)
        np.putmask(im_q, flag, w2)
        np.cos(im_q, out=cs)
        np.sin(im_q, out=sn)
        ep, em = w1, w2  # done with after the putmask
        np.multiply(re_q, -2.0, out=em)
        np.exp(em, out=em)
        np.multiply(em, 0.5, out=em)
        np.add(em, 0.5, out=ep)  # (1 + exp(-2 Re q))/2
        np.subtract(0.5, em, out=em)  # (1 - exp(-2 Re q))/2
        np.multiply(cs, ep, out=cosh.real)
        np.multiply(sn, em, out=cosh.imag)
        np.multiply(cs, em, out=sinhc.real)  # (near - far)/2
        np.multiply(sn, ep, out=sinhc.imag)
        np.divide(re_q, aq, out=tmp.real)
        np.divide(im_q, aq, out=tmp.imag)
        np.negative(tmp.imag, out=tmp.imag)  # conj(q)/|q^2|
        np.multiply(sinhc, tmp, out=sinhc)
        np.less(aq, 0.01, out=flag)  # |q| < 0.1
        if flag.any():  # series where near - far cancels
            at = np.flatnonzero(flag)
            z2 = q2.take(at)
            np.put(sinhc, at, np.exp(-re_q.take(at)) *
                   (1 + z2 * (1 / 6 + z2 * (1 / 120 + z2 / 5040))))
        log_scales += re_q.sum(axis=0)
        mats, spare = mats_buf[:n], spare_buf[:n]
        np.multiply(sinhc, p, out=p)
        np.add(cosh, p, out=mats[:, 0, 0])
        np.subtract(cosh, p, out=mats[:, 1, 1])
        np.multiply(sinhc, uv[0], out=mats[:, 0, 1])
        np.multiply(sinhc, uv[1], out=mats[:, 1, 0])
        while n > 1:  # pairwise tree, later cell on the left
            half = n // 2
            later, first = mats[1:2 * half:2], mats[0:2 * half:2]
            prod, term = spare[:half], term_buf[:half]
            np.multiply(later[:, :, 0, None], first[:, None, 0], out=prod)
            np.multiply(later[:, :, 1, None], first[:, None, 1], out=term)
            np.add(prod, term, out=prod)
            if n % 2:
                spare[half] = mats[n - 1]
            mats, spare = spare, mats
            n = half + n % 2
        np.multiply(mats[0, :, 0], y[0], out=y_next)
        np.multiply(mats[0, :, 1], y[1], out=y_tmp)
        np.add(y_next, y_tmp, out=y_next)
        y, y_next = y_next, y
        np.abs(y, out=norms)
        np.hypot(norms[0], norms[1], out=norms[0])
        y /= norms[0]
        log_scales += np.log(norms[0], out=norms[0])
    return y.T, log_scales


def _wronskian_batch(problem: Problem, lams: np.ndarray) -> tuple:
    """det(u_left, u_right) at the matching point for every lambda in the batch.

    Returns the determinant of the unit-norm states and the sum of their log
    scales. Two routes give the same W to rounding:

    - two-sided: each row is shot from the left cut and from the right cut to
      the matching point;
    - reflected, when the potential has a parity pairing, the cuts are exact
      mirrors (x_l == -x_r) and the matching point is 0.0: the right state is
      the reflection u_r(x; lam) = kappa*R*conj(u_l(-x; conj(lam))), with
      R = sigma_z (A even, B odd) or I (A odd, B even). Only the unique rows
      of lams and conj(lams) are shot, from the left cut to 0; each right
      state is kappa*R*conj(y_l(0; conj(lam))) with log scale
      ls_l(conj(lam)), and kappa, of modulus 1, is the overlap of the right
      seed with R*conj of the left seed at conj(lam). A conjugate-closed batch
      (a real scan, a window contour) shoots half the rows of the two-sided
      route, plus the guard row.

    The reflected route rests on ``classify_symmetry``'s sampled test, so on
    every call a guard shoots the first row from the right cut as well. The
    shot and the reflected right state must agree to _REFLECTION_GUARD
    relative to the state's norm, measured to first order as the gap of the
    unit states plus the gap of the log scales, or SymmetryMismatch is
    raised. Unit states give |W| <= 1, so that bounds the row's W error by
    1e-9 of the largest |W| unit states can give.
    """
    lams = np.asarray(lams, dtype=complex)
    x_l, x_r = domain_cuts(problem)
    x_m = matching_point(problem)
    if not x_l <= x_m <= x_r:
        raise ValueError(f"matching point {x_m} lies outside the cuts [{x_l}, {x_r}]")
    sym = symmetry_class(problem)
    if x_m != 0.0 or x_l != -x_r or sym is SymmetryClass.NONE:
        y_l, ls_l = _integrate_batch(problem, lams, _seed_batch(problem, lams, x_l, 1), x_l, x_m)
        y_r, ls_r = _integrate_batch(problem, lams, _seed_batch(problem, lams, x_r, -1), x_r, x_m)
    else:
        rows, inverse = np.unique(np.concatenate([lams, lams.conj()]), return_inverse=True)
        own, bar = np.split(inverse, 2)
        v_l = _seed_batch(problem, rows, x_l, 1)
        v_r = _seed_batch(problem, lams, x_r, -1)
        y, ls = _integrate_batch(problem, rows, v_l, x_l, 0.0)
        r = np.array([1.0, -1.0]) if sym is SymmetryClass.A_EVEN_B_ODD else np.ones(2)
        kappa = np.sum(r * v_l[bar] * v_r, axis=1)
        y_l, ls_l = y[own], ls[own]
        y_r, ls_r = kappa[:, None] * r * np.conj(y[bar]), ls[bar]
        # sliced, so an empty batch has an empty guard with no gap
        y_g, ls_g = _integrate_batch(problem, lams[:1], v_r[:1], x_r, 0.0)
        gap = np.linalg.norm(y_g - y_r[:1]) + np.sum(np.abs(ls_g - ls_r[:1]))
        if not gap <= _REFLECTION_GUARD:
            raise SymmetryMismatch(
                f"reflected right state differs from the shot one by {gap:.3e} at "
                f"lambda={complex(lams[0])} ({sym.value} pairing, cuts +/-{x_r})")
    w = y_l[:, 0] * y_r[:, 1] - y_l[:, 1] * y_r[:, 0]
    return w, ls_l + ls_r


def wronskian(problem: Problem, lam: complex) -> WronskianSample:
    """Wronskian W(u_left, u_right); zeros of W are the eigenvalues."""
    w, ls = _wronskian_batch(problem, np.asarray([complex(lam)]))
    return WronskianSample(complex(lam), complex(w[0]), float(ls[0]))


def _line_factor(problem: Problem, lams: np.ndarray) -> np.ndarray:
    """Unit factor c per real lambda of a scan such that c*W is real up to rounding.

    eps = 0: sigma_x*conj(u) solves the system with u, so a unit seed v times
    phi, phi^2 = conj(v1)/v0, is invariant, as is its state: phi_l*phi_r*W is
    imaginary. The principal root would jump at lambda = 0 (right seed with
    A > 0 at the cut, left with A < 0), so the ratio is first scaled by
    t = side*sign(A), to real part mu/|A| > 0, and sqrt(t) is carried apart.
    eps > 0: a parity pairing reflects the states, u_r(x) = kappa*R*conj(u_l(-x))
    with R = sigma_z (A even, B odd) or I (A odd, B even), kappa the overlap of
    the right seed with the reflected left one, and W/kappa is real or
    imaginary; exactly so for mirror cuts, as the default cuts of every
    paired potential are. Without a pairing there is no line: SymmetryRequired.
    """
    x_l, x_r = domain_cuts(problem)
    v_l = _seed_batch(problem, lams, x_l, 1)
    v_r = _seed_batch(problem, lams, x_r, -1)
    if problem.eps == 0.0:
        c = -1j
        for v, side in ((v_l, 1.0), (v_r, -1.0)):
            t = side * np.sign(v[0, 0].real)  # the seed's first entry is A at the cut
            c = c * np.sqrt(complex(t)) * np.sqrt(t * np.conj(v[:, 1]) / v[:, 0])
        return c
    sym = symmetry_class(problem)
    if sym is SymmetryClass.NONE:
        raise SymmetryRequired("at eps > 0 the real scan needs a PT-like parity pairing")
    if sym is SymmetryClass.A_EVEN_B_ODD:
        return np.conj(v_l[:, 0] * v_r[:, 0] - v_l[:, 1] * v_r[:, 1])
    return -1j * np.conj(v_l[:, 0] * v_r[:, 0] + v_l[:, 1] * v_r[:, 1])


def _records(problem: Problem, roots) -> list:
    """DIRECT records of (lam, resid) pairs, on the problem's quantization branch if A1 holds."""
    try:
        branch = select_branch(a1_report(problem))
    except ZSWKBError:
        branch = None
    return [EigenvalueRecord(complex(lam), k, branch, Method.DIRECT, float(r), problem.h,
                             problem.eps)
            for k, (lam, r) in enumerate(roots)]


def _scan(problem: Problem) -> tuple:
    """Sign-change brackets (a, b) of f = Re(c*W) on the real window, and their secant points.

    ``_line_factor``'s c puts W on the real axis: at eps = 0 by self-adjointness,
    at eps > 0 by the parity pairing, and SymmetryRequired where there is none.
    """
    try:
        base = problem.with_(eps=0.0)
        ip = action_integral(base, problem.lambda0).dvalue_dlambda.real
        step = min(problem.h / 10, np.pi * problem.h / (8 * abs(ip)))
    except ZSWKBError:
        step = problem.h / 10
    lo_edge = problem.lambda0 - problem.delta
    hi_edge = problem.lambda0 + problem.delta
    n = int(np.ceil((hi_edge - lo_edge) / step)) + 1
    lams = np.linspace(lo_edge, hi_edge, n)
    f = (_line_factor(problem, lams) * _wronskian_batch(problem, lams)[0]).real
    keep = np.flatnonzero(f)  # a sample with f = 0 exactly is bracketed by its neighbours
    flip = np.flatnonzero(np.sign(f[keep[:-1]]) != np.sign(f[keep[1:]]))
    i_a, i_b = keep[flip], keep[flip + 1]
    a, b = lams[i_a], lams[i_b]
    f_a, f_b = f[i_a], f[i_b]
    return a, b, b - f_b * (b - a) / (f_b - f_a)


def direct_spectrum_real(problem: Problem) -> list:
    """Scan the real window for sign changes of W on its symmetry line, then polish.

    Each sign-change bracket of ``_scan`` seeds one Newton row at its secant
    point; all rows are polished together by ``_newton_wronskian`` and the
    real parts kept. A row that Newton flags failed, or whose root leaves its
    own bracket, raises NoConvergence naming the bracket.
    """
    a, b, seeds = _scan(problem)
    if len(seeds) == 0:
        return []
    roots, resid, failed = _newton_wronskian(problem, seeds)
    roots = roots.real
    bad = failed | (roots < a - 1e-12) | (roots > b + 1e-12)
    if np.any(bad):
        i = int(np.argmax(bad))
        why = "failed" if failed[i] else f"left it for {roots[i]:.17g}"
        raise NoConvergence(f"Newton from the bracket [{a[i]:.17g}, {b[i]:.17g}] {why}")
    return _records(problem, zip(roots, resid))


def _rectangle_corners(rectangle) -> tuple:
    lo, hi = complex(rectangle[0]), complex(rectangle[1])
    re0, re1 = sorted((lo.real, hi.real))
    im0, im1 = sorted((lo.imag, hi.imag))
    return re0, re1, im0, im1


def _perimeter(ts: np.ndarray, re0, re1, im0, im1) -> np.ndarray:
    """Counterclockwise rectangle perimeter parametrized by t in [0, 4), one side per unit.

    Every coordinate is mid + half*s with s = -1, 1, 2f - 1 or 1 - 2f, f the
    fraction of t along its side. For dyadic t those s are exact negatives of
    each other, so a rectangle symmetric about the real axis gives a
    conjugate-closed sample set.
    """
    side = [ts < 1, ts < 2, ts < 3]
    up = 2.0 * (ts % 1.0) - 1.0
    lams = np.empty(len(ts), dtype=complex)
    lams.real = 0.5 * (re0 + re1) + 0.5 * (re1 - re0) * np.select(side, [up, 1.0, -up], -1.0)
    lams.imag = 0.5 * (im0 + im1) + 0.5 * (im1 - im0) * np.select(side, [-1.0, up, 1.0], -up)
    return lams


def count_zeros(problem: Problem, rectangle) -> ZeroCount:
    """Argument-principle zero count of the Wronskian over a rectangle boundary.

    Starts from 256 equally spaced perimeter samples and bisects every gap
    across which arg W turns by pi/2 or more. A sample with |W| at or below
    ``boundary_min_w`` grows the rectangle by 1% per side and starts over;
    after three such inflations BoundaryZero is raised.
    """
    tol = problem.tolerances
    re0, re1, im0, im1 = _rectangle_corners(rectangle)
    for _ in range(4):
        ts = np.arange(0.0, 4.0, 1.0 / 64)
        ws, _ = _wronskian_batch(problem, _perimeter(ts, re0, re1, im0, im1))
        while np.min(np.abs(ws)) > tol.boundary_min_w:
            if len(ts) > _MAX_BOUNDARY_SAMPLES:
                raise PhaseResolution(
                    f"boundary refinement exceeded {_MAX_BOUNDARY_SAMPLES} samples")
            incs = np.angle(np.roll(ws, -1) / ws)
            bad = np.abs(incs) >= np.pi / 2
            if not np.any(bad):
                winding = float(np.sum(incs)) / (2 * np.pi)
                if abs(winding - round(winding)) >= tol.winding_guard or round(winding) < 0:
                    raise PhaseResolution(
                        f"winding {winding:.4f} is not close to a non-negative integer")
                return ZeroCount((complex(re0, im0), complex(re1, im1)),
                                 int(round(winding)), len(ts))
            mids = 0.5 * (ts + np.append(ts[1:], ts[0] + 4.0))[bad] % 4.0
            new_ws, _ = _wronskian_batch(problem, _perimeter(mids, re0, re1, im0, im1))
            ts, first = np.unique(np.concatenate([ts, mids]), return_index=True)
            ws = np.concatenate([ws, new_ws])[first]
        # a zero is close to the contour: inflate
        grow_re, grow_im = 0.01 * (re1 - re0), 0.01 * (im1 - im0)
        re0, re1, im0, im1 = re0 - grow_re, re1 + grow_re, im0 - grow_im, im1 + grow_im
    raise BoundaryZero("Wronskian zero on the counting contour after 3 inflations")


def _newton_wronskian(problem: Problem, seeds: np.ndarray) -> tuple:
    """Batched complex Newton on W with a central-difference derivative.

    Returns (lams, resid, failed). A row stops when its step falls below
    1e-12; ``resid`` is the determinant of the unit-norm states at its last
    evaluated iterate, W without its log scale. A row is failed
    when it leaves the window (real part beyond 2*delta of lambda0, or |Im|
    above delta), when its step is not finite, or when it is still stepping
    after 40 rounds.
    """
    lams = np.array(seeds, dtype=complex)
    n = len(lams)
    resid = np.full(n, np.inf)
    active = np.ones(n, dtype=bool)
    failed = np.zeros(n, dtype=bool)
    s = _NEWTON_FD_STEP
    for _ in range(40):
        if not np.any(active):
            break
        idx = np.where(active)[0]
        stack = np.concatenate([lams[idx], lams[idx] + s, lams[idx] - s])
        w, ls = _wronskian_batch(problem, stack)
        m = len(idx)
        ref = np.max(ls.reshape(3, m), axis=0)
        w0 = w[:m] * np.exp(ls[:m] - ref)
        wp = w[m:2 * m] * np.exp(ls[m:2 * m] - ref)
        wm = w[2 * m:] * np.exp(ls[2 * m:] - ref)
        dw = (wp - wm) / (2 * s)
        with np.errstate(divide="ignore", invalid="ignore"):
            delta = w0 / dw
        stuck = ~np.isfinite(delta)  # W flat or not finite: no Newton step exists
        lams[idx] = lams[idx] - np.where(stuck, 0.0, delta)
        resid[idx] = np.abs(w[:m])
        out = stuck | (np.abs(lams[idx].real - problem.lambda0) > 2 * problem.delta) | \
            (np.abs(lams[idx].imag) > problem.delta)
        failed[idx[out]] = True
        done = (np.abs(delta) < 1e-12) | out
        active[idx[done]] = False
    failed |= active  # still stepping after the last round
    return lams, resid, failed


def _collect_roots(problem: Problem, lams, resid, failed) -> list:
    tol = problem.tolerances
    re0, re1, im0, im1 = _rectangle_corners(window_rectangle(problem))
    roots = []
    for lam, r, bad in sorted(zip(lams, resid, failed), key=lambda z: (z[0].real, z[0].imag)):
        if bad or not (re0 <= lam.real <= re1 and im0 <= lam.imag <= im1):
            continue
        if roots and abs(lam - roots[-1][0]) < tol.distinct_roots:
            continue
        roots.append((complex(lam), float(r)))
    return roots


def direct_spectrum_complex(problem: Problem, certify: bool = True) -> list:
    """Wronskian zeros in the window rectangle, real or complex.

    At eps = 0 the operator is self-adjoint and these are the records of
    ``direct_spectrum_real(problem)``. At eps > 0 complex Newton starts from
    the eps = 0 real scan's secant points; seeds whose Newton iteration diverges
    are dropped with a warning. With ``certify`` the root count, zero included,
    is checked against the argument-principle winding over the window
    rectangle; a mismatch emits MissedZerosWarning.
    """
    if problem.eps == 0.0:
        records = direct_spectrum_real(problem)
    else:
        records = []
        seeds = _scan(problem.with_(eps=0.0))[2].astype(complex)
        if len(seeds):
            # zeros lift off the real axis under the perturbation; probe each
            # seed along a vertical line and start Newton from the minimum of
            # |W|, log scale included, so it begins in the right basin
            t = 0.5 * problem.delta * np.linspace(-1.0, 1.0, 17)  # mirror-exact
            probe = (seeds[:, None] + 1j * t[None, :]).ravel()
            w, ls = (v.reshape(len(seeds), len(t)) for v in _wronskian_batch(problem, probe))
            picks = np.argmin(np.abs(w) * np.exp(ls - ls.max(axis=1, keepdims=True)), axis=1)
            lams, resid, failed = _newton_wronskian(problem, seeds + 1j * t[picks])
            if np.any(failed):
                warnings.warn(f"{int(np.sum(failed))} Newton seed(s) diverged", stacklevel=2)
            records = _records(problem, _collect_roots(problem, lams, resid, failed))
    if certify:
        zc = count_zeros(problem, window_rectangle(problem))
        if zc.winding != len(records):
            warnings.warn(
                f"winding {zc.winding} over the window differs from {len(records)} located roots",
                MissedZerosWarning, stacklevel=2)
    return records
