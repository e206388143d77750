"""Direct reference solver: shoot the decaying solutions to a matching point, find Wronskian zeros.

The first-order system u' = (1/h) M(x) u with M = [[-i*lam, A_eps], [A_eps, i*lam]]
is started at each cut from the eigenvector of M that decays away from the
domain, and propagated to the matching point by closed-form sixth-order Magnus
transfer matrices on a fixed grid. Solutions vary like exp(+/- z/h), so the
states are rescaled to unit norm after every chunk of cells and the extracted
magnitude accumulates in a log scale; overflow cannot occur.

``_wronskian_batch`` is the one way into the propagator: it evaluates W for a
batch of spectral parameters on one grid, and ``wronskian`` is its public
one-lambda probe. Each public call builds one ``_Shooting`` set-up (the cuts,
the route, and A_eps sampled at every cell's Gauss points and at the cuts)
and hands it to all its batches, so a solve samples the potential once per
eps. With mirror cuts and the matching point at 0 the right state is often a
reflection of the left one: at eps > 0, under a PT-like parity pairing, the
reflection at conj(lambda), so a batch shoots its rows and their conjugates
from the left cut; where A_eps itself is even or odd (the symmetry-broken
control, or at eps = 0 any even or odd A, paired or not) the reflection at
the same lambda, so a batch shoots only its own rows. Every other problem is
shot from both cuts. The parities are read exactly off the potential's
terms, so the reflection needs no check at run time. At eps = 0, A is real
and W at conj(lambda) follows from W at lambda, so on every route a batch
shoots one row per conjugate pair. The window contour and the vertical probe
sample conjugate-closed sets: a contour shoots 129 of its 256 rows at eps = 0
and all 256 at eps > 0.

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

from .errors import (BoundaryZero, InsideWell, NoConvergence, PhaseResolution,
                     SymmetryRequired, ZSWKBError)
# axis_blend_callable is unused here; the benchmark's tracer patches this name
from .potential import (SymmetryClass, _crossing_grid, _parities,  # noqa: F401
                        axis_blend_callable, eval_A, eval_potential)
from .problem import (Problem, a1_report, domain_cuts, matching_point, symmetry_class,
                      window_rectangle)
from .quantize import EigenvalueRecord, Method, select_branch

_NEWTON_FD_STEP = 1e-7
_MAX_BOUNDARY_SAMPLES = 2 ** 16
# cells x rows per propagation chunk; bounds the propagator's working memory
_CHUNK_ELEMENTS = 4096
_GAUSS3 = np.sqrt(15.0) / 10.0  # outer Gauss-Legendre nodes at mid -/+ _GAUSS3 * dx
_TINY = np.finfo(float).tiny
# the reflections R*y = signs*y[::step] that map the left Jost state onto the
# right one for mirror cuts, as (step, signs, conjugate, phase). Under a
# PT-like pairing A_eps(-x) = +/-conj(A_eps(x)), u_r(x; lam) =
# kappa*R*conj(u_l(-x; conj(lam))) with R = sigma_z (A even, B odd) or I (A odd,
# B even), and the phase puts W/kappa on the real axis. Where A_eps itself is
# even (key 1) or odd (key -1), u_r(x; lam) = kappa*R*u_l(-x; lam) with
# R = i*sigma_y or sigma_x
_REFLECTIONS = {SymmetryClass.A_EVEN_B_ODD: (1, np.array([1.0, -1.0]), True, 1.0),
                SymmetryClass.A_ODD_B_EVEN: (1, np.array([1.0, 1.0]), True, -1j),
                1: (-1, np.array([1.0, -1.0]), False, None),
                -1: (-1, np.array([1.0, 1.0]), False, None)}


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


@dataclass(frozen=True)
class _Span:
    """The cells of one integration from x0 to x1, as the (3, cells, 1) coefficients k0 and k1."""
    x0: float
    x1: float
    k0: np.ndarray
    k1: np.ndarray


@dataclass(frozen=True)
class _Shooting:
    """What every Wronskian batch of one solve shares, built once by ``_shooting``.

    ``cuts`` are the left and right cut and ``a_cuts`` A_eps there, for the
    seeds. ``reflection`` is the ``_REFLECTIONS`` entry of the reflected
    route, or None for the two-sided one. ``spans`` holds the span from the
    left cut to the matching point and, on the two-sided route, the one from
    the right cut.
    """
    problem: Problem
    cuts: tuple
    a_cuts: tuple
    reflection: tuple | None
    spans: tuple


def _spans(problem: Problem, ends, points=()) -> tuple:
    """The _Span of each (x0, x1) in ends, and A_eps at the points, from one eval_potential call.

    The cells are those of the lattice dx*Z between x0 and x1; anchoring it at
    the origin gives overlapping integrations the same cells. Each cell takes
    A_eps at its three Gauss points, mid + (-1, 0, 1)*_GAUSS3*dx in the
    direction of travel, and ``_integrate_batch`` reads the six per-cell
    coefficients formed here from them.
    """
    h = problem.h
    # the global error scales like dx^6/h^5: halving dx cuts it 64-fold. At the
    # default rtol = 1e-10, dx = 0.008 at h = 0.1 gives W to about 1e-10 of
    # max|W|, and the h^(3/4) factor keeps it below 1e-9 down to h = 0.0125
    dx = 0.008 * (problem.tolerances.ode_rtol / 1e-10) ** (1 / 6) * min(1.0, h / 0.1) ** 0.75
    widths, nodes = [], []
    for x0, x1 in ends:
        lo, hi = sorted((x0, x1))
        edges = np.concatenate([[lo], np.arange(np.floor(lo / dx) + 1, np.ceil(hi / dx)) * dx, [hi]])
        if x1 < x0:
            edges = edges[::-1]
        dx_h = np.diff(edges) / h  # signed cell widths over h
        mids = 0.5 * (edges[:-1] + edges[1:])
        offset = _GAUSS3 * h * dx_h
        widths.append(dx_h)
        nodes += [mids - offset, mids, mids + offset]
    a, _ = eval_potential(problem.potential, np.concatenate([*nodes, points]), problem.eps,
                          derivative=False)
    spans = []
    for (x0, x1), dx_h in zip(ends, widths):
        a1, a2, a3, a = np.split(a, np.arange(1, 4) * len(dx_h))
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
        spans.append(_Span(x0, x1, np.stack([dx_h * c1, e0, dx_h * f1])[:, :, None],
                           np.stack([dx_h * dx_h2 * c3, dx_h2 * e2, dx_h * dx_h2 * f3])[:, :, None]))
    return spans, a


def _shooting(problem: Problem) -> _Shooting:
    """The problem's cuts, route, spans and A_eps at the cuts, from one sampling of A_eps.

    ValueError when the matching point lies outside the cuts: one state would
    be integrated the way it decays.
    """
    x_l, x_r = domain_cuts(problem)
    x_m = matching_point(problem)
    if not x_l <= x_m <= x_r:
        raise ValueError(f"matching point {x_m} lies outside the cuts [{x_l}, {x_r}]")
    reflection = None if x_m != 0.0 or x_l != -x_r else _reflection(problem)
    ends = [(x_l, x_m)] if reflection is not None else [(x_l, x_m), (x_r, x_m)]
    spans, a_cuts = _spans(problem, ends, [x_l, x_r])
    return _Shooting(problem, (x_l, x_r), tuple(map(complex, a_cuts)), reflection, tuple(spans))


def _seed_batch(shooting: _Shooting, lams: np.ndarray, sign: int) -> np.ndarray:
    """Unit eigenvectors of M at a cut for sign*sqrt(A_eps^2 - lam^2), Re sqrt > 0, per lambda.

    sign = +1 at the left cut and -1 at the right cut select the solution that
    decays away from the domain; InsideWell is raised when a row cannot decay.
    """
    side = 0 if sign > 0 else 1
    x_cut, a_c = shooting.cuts[side], shooting.a_cuts[side]
    mu = np.sqrt(a_c * a_c - lams * lams)
    if np.any(mu.real <= 1e-12 * np.maximum(1.0, np.abs(lams))):
        raise InsideWell(f"no decay margin at x_cut={x_cut}")
    signed = mu if sign > 0 else -mu
    v = np.stack([np.full(len(lams), a_c, dtype=complex), signed + 1j * lams], axis=1)
    v /= np.linalg.norm(v, axis=1)[:, None]
    return v


def _integrate_batch(span: _Span, lams: np.ndarray, ys: np.ndarray) -> tuple:
    """Fixed-grid sixth-order Magnus propagator for the whole batch; returns (ys, log_scales).

    The span's cells (``_spans``) are taken from x0 to x1. A cell uses the
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
    rows = len(lams)
    if span.x1 == span.x0 or rows == 0:
        return ys.astype(complex), np.zeros(rows)
    k0, k1 = span.k0, span.k1
    n_cells = k0.shape[1]
    d = -1j * lams
    d2 = d * d

    step = min(n_cells, max(1, _CHUNK_ELEMENTS // rows))
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
    for k in range(0, n_cells, step):
        cells = slice(k, k + step)
        n = min(step, n_cells - k)
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


def _reflection(problem: Problem):
    """The ``_REFLECTIONS`` entry that holds for the problem's A_eps, or None.

    At eps > 0 a PT-like pairing (``symmetry_class``) comes first. Otherwise
    A_eps has parity s when A has it and, at eps > 0, B too, read off the
    terms by ``_parities`` as the pairing is. At eps = 0 that is the parity
    of A, which every paired potential has, so no eps = 0 route conjugates.
    """
    if problem.eps > 0.0:
        pairing = _REFLECTIONS.get(symmetry_class(problem))
        if pairing is not None:
            return pairing
    a, b = _parities(problem.potential)
    return next((_REFLECTIONS[s] for s in (1, -1) if s in a and (problem.eps == 0.0 or s in b)),
                None)


def _shoot(shooting: _Shooting, lams: np.ndarray) -> tuple:
    """det(u_left, u_right) at the matching point and the summed log scales, by the set-up's route.

    - two-sided: each row is shot from the left cut and from the right cut to
      the matching point;
    - reflected, when a reflection R of ``_REFLECTIONS`` maps the left Jost
      state onto the right one (``_reflection``), the cuts are exact mirrors
      (x_l == -x_r) and the matching point is 0.0. Under a PT-like pairing
      u_r(x; lam) = kappa*R*conj(u_l(-x; conj(lam))) with R = sigma_z (A even,
      B odd) or I (A odd, B even), and the unique rows of lams and conj(lams)
      are shot; under a plain parity of A_eps, u_r(x; lam) = kappa*R*u_l(-x; lam)
      with R = i*sigma_y (even) or sigma_x (odd), and only the unique rows of
      lams are shot. Either way the rows go from the left cut to 0, each right
      state is kappa*R*y_l(0), conjugated under a pairing, with the log scale
      of the row it reflects, and kappa, of modulus 1, is the overlap of the
      right seed with the seed reflected the same way. The parities are exact,
      read off the terms, so nothing is shot from the right cut.
    """
    spans = shooting.spans
    if shooting.reflection is None:
        y_l, ls_l = _integrate_batch(spans[0], lams, _seed_batch(shooting, lams, 1))
        y_r, ls_r = _integrate_batch(spans[1], lams, _seed_batch(shooting, lams, -1))
    else:
        step, r, conjugate, _ = shooting.reflection
        rows, inverse = np.unique(np.concatenate([lams, lams.conj() if conjugate else lams]),
                                  return_inverse=True)
        own, bar = np.split(inverse, 2)
        v_l = _seed_batch(shooting, rows, 1)
        v_r = _seed_batch(shooting, lams, -1)
        y, ls = _integrate_batch(spans[0], rows, v_l)

        def mirrored(v):  # the rows R reflects, components in R's order, conjugated under a pairing
            v = v[bar][:, ::step]
            return np.conj(v) if conjugate else v

        kappa = np.sum(r * np.conj(mirrored(v_l)) * v_r, axis=1)
        y_l, ls_l = y[own], ls[own]
        y_r, ls_r = kappa[:, None] * r * mirrored(y), ls[bar]
    w = y_l[:, 0] * y_r[:, 1] - y_l[:, 1] * y_r[:, 0]
    return w, ls_l + ls_r


def _wronskian_batch(shooting: _Shooting, lams: np.ndarray) -> tuple:
    """det(u_left, u_right) at the matching point for every lambda in the batch.

    Returns the determinant of the unit-norm states and the sum of their log
    scales. At eps > 0 every row goes through ``_shoot``'s route. At eps = 0
    A is real, so sigma_x*conj maps the Jost states at lam onto those at
    conj(lam): on each side u(x; conj(lam)) = c*sigma_x*conj(u(x; lam)) with
    the unit factor c = v1(lam)*v0(conj(lam)) + v0(lam)*v1(conj(lam)) read
    off the two seeds, and W(conj(lam)) = -c_l*c_r*conj(W(lam)) at the same
    log scale. The batch is folded onto Im lam >= 0, its unique rows are
    shot by any route, two-sided or reflected, and the rows below the axis
    are unfolded: a conjugate-closed window contour shoots 129 of its 256
    rows, and an eps = 0 Newton iterate that drifts off the axis shoots no
    conjugate row.
    """
    lams = np.asarray(lams, dtype=complex)
    if shooting.problem.eps != 0.0:
        return _shoot(shooting, lams)
    below = lams.imag < 0
    rows, inverse = np.unique(np.where(below, lams.conj(), lams), return_inverse=True)
    w, ls = (v[inverse] for v in _shoot(shooting, rows))
    if np.any(below):
        low = lams[below]
        c = -1.0
        for sign in (1, -1):
            v, v_bar = _seed_batch(shooting, low.conj(), sign), _seed_batch(shooting, low, sign)
            c = c * (v[:, 1] * v_bar[:, 0] + v[:, 0] * v_bar[:, 1])
        w[below] = c * np.conj(w[below])
    return w, ls


def wronskian(problem: Problem, lam: complex) -> WronskianSample:
    """Wronskian W(u_left, u_right); zeros of W are the eigenvalues."""
    w, ls = _wronskian_batch(_shooting(problem), np.asarray([complex(lam)]))
    return WronskianSample(complex(lam), complex(w[0]), float(ls[0]))


def _line_factor(shooting: _Shooting, lams: np.ndarray) -> np.ndarray:
    """Unit factor c per real lambda of a scan such that c*W is real up to rounding.

    eps = 0: sigma_x*conj(u) solves the system with u, so a unit seed v times
    phi, phi^2 = conj(v1)/v0, is invariant, as is its state: phi_l*phi_r*W is
    imaginary. The principal root would jump at lambda = 0 (right seed with
    A > 0 at the cut, left with A < 0), so the ratio is first scaled by
    t = side*sign(A), to real part mu/|A| > 0, and sqrt(t) is carried apart.
    eps > 0: a parity pairing reflects the states, u_r(x) = kappa*R*conj(u_l(-x))
    with R and the phase from ``_REFLECTIONS``, kappa the overlap of the right
    seed with the reflected left one, and phase*W/kappa is real; exactly so
    for mirror cuts, as the default cuts of every paired potential are.
    Without a pairing there is no line: SymmetryRequired.
    """
    problem = shooting.problem
    v_l = _seed_batch(shooting, lams, 1)
    v_r = _seed_batch(shooting, lams, -1)
    if problem.eps == 0.0:
        c = -1j
        for v, side in ((v_l, 1.0), (v_r, -1.0)):
            t = side * np.sign(v[0, 0].real)  # the seed's first entry is A at the cut
            c = c * np.sqrt(complex(t)) * np.sqrt(t * np.conj(v[:, 1]) / v[:, 0])
        return c
    reflection = _REFLECTIONS.get(symmetry_class(problem))
    if reflection is None:
        raise SymmetryRequired("at eps > 0 the real scan needs a PT-like parity pairing")
    _, r, _, phase = reflection
    return phase * np.conj(np.sum(r * v_l * v_r, axis=1))


def _records(problem: Problem, roots) -> list:
    """DIRECT records of (lam, resid) pairs, on the problem's quantization branch if A1 holds."""
    try:
        branch = select_branch(a1_report(problem))
    except ZSWKBError:
        branch = None
    return [EigenvalueRecord(complex(lam), k, branch, Method.DIRECT, float(r), problem.h,
                             problem.eps)
            for k, (lam, r) in enumerate(roots)]


def _scan(shooting: _Shooting) -> tuple:
    """Sign-change brackets (a, b) of f = Re(c*W) on the real window, and their secant points.

    ``_line_factor``'s c puts W on the real axis: at eps = 0 by self-adjointness,
    at eps > 0 by the parity pairing, and SymmetryRequired where there is none.
    Levels lie about pi*h/S apart, S >= 0 the window's mean slope of the eps = 0
    action int sqrt(max(lam^2 - A^2, 0)) dx summed on the crossing grid, so the
    step is h/max(10, 8*S/pi), eight samples a level, from no WKB call.
    """
    problem = shooting.problem
    lo_edge = problem.lambda0 - problem.delta
    hi_edge = problem.lambda0 + problem.delta
    x = _crossing_grid(problem.cutoff)
    a2 = eval_A(problem.potential, x)[0].real ** 2
    i_lo, i_hi = (np.sum(np.sqrt(np.maximum(lam * lam - a2, 0.0))) for lam in (lo_edge, hi_edge))
    step = problem.h / max(10.0, 4.0 * (i_hi - i_lo) * (x[1] - x[0]) / (problem.delta * np.pi))
    n = int(np.ceil((hi_edge - lo_edge) / step)) + 1
    lams = np.linspace(lo_edge, hi_edge, n)
    f = (_line_factor(shooting, lams) * _wronskian_batch(shooting, lams)[0]).real
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
    shooting = _shooting(problem)
    a, b, seeds = _scan(shooting)
    if len(seeds) == 0:
        return []
    roots, resid, failed = _newton_wronskian(shooting, seeds)
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
    shooting = _shooting(problem)
    re0, re1, im0, im1 = _rectangle_corners(rectangle)
    for _ in range(4):
        ts = np.arange(0.0, 4.0, 1.0 / 64)
        ws, _ = _wronskian_batch(shooting, _perimeter(ts, re0, re1, im0, im1))
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
            new_ws, _ = _wronskian_batch(shooting, _perimeter(mids, re0, re1, im0, im1))
            ts, first = np.unique(np.concatenate([ts, mids]), return_index=True)
            ws = np.concatenate([ws, new_ws])[first]
        # a zero is close to the contour: inflate
        grow_re, grow_im = 0.01 * (re1 - re0), 0.01 * (im1 - im0)
        re0, re1, im0, im1 = re0 - grow_re, re1 + grow_re, im0 - grow_im, im1 + grow_im
    raise BoundaryZero("Wronskian zero on the counting contour after 3 inflations")


def _newton_wronskian(shooting: _Shooting, seeds: np.ndarray) -> tuple:
    """Batched complex Newton on W with a central-difference derivative.

    Returns (lams, resid, failed). A row stops when its step falls below
    1e-12; ``resid`` is the determinant of the unit-norm states at its last
    evaluated iterate, W without its log scale. A row is failed
    when it leaves the window (real part beyond 2*delta of lambda0, or |Im|
    above delta), when its step is not finite, or when it is still stepping
    after 40 rounds.
    """
    problem = shooting.problem
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
        w, ls = _wronskian_batch(shooting, stack)
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


def direct_spectrum_complex(problem: Problem) -> list:
    """Wronskian zeros in the window rectangle, real or complex.

    At eps = 0 the operator is self-adjoint and these are the records of
    ``direct_spectrum_real(problem)``. At eps > 0 complex Newton starts from
    the eps = 0 real scan's secant points; seeds whose Newton iteration diverges
    are dropped with a warning. Completeness is not checked here: compare the
    record count with ``count_zeros(problem, window_rectangle(problem)).winding``.
    """
    if problem.eps == 0.0:
        return direct_spectrum_real(problem)
    seeds = _scan(_shooting(problem.with_(eps=0.0)))[2].astype(complex)
    if not len(seeds):
        return []
    shooting = _shooting(problem)
    # zeros lift off the real axis under the perturbation; probe each seed
    # along a vertical line and start Newton from the minimum of |W|, log
    # scale included, so it begins in the right basin
    t = 0.5 * problem.delta * np.linspace(-1.0, 1.0, 17)  # mirror-exact
    probe = (seeds[:, None] + 1j * t[None, :]).ravel()
    w, ls = (v.reshape(len(seeds), len(t)) for v in _wronskian_batch(shooting, probe))
    picks = np.argmin(np.abs(w) * np.exp(ls - ls.max(axis=1, keepdims=True)), axis=1)
    lams, resid, failed = _newton_wronskian(shooting, seeds + 1j * t[picks])
    if np.any(failed):
        warnings.warn(f"{int(np.sum(failed))} Newton seed(s) diverged", stacklevel=2)
    return _records(problem, _collect_roots(problem, lams, resid, failed))
