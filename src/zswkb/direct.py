"""Direct reference solver: shoot decaying solutions from both cuts, find Wronskian zeros.

The first-order system u' = (1/h) M(x) u with M = [[-i*lam, A_eps], [A_eps, i*lam]]
is propagated by closed-form fourth-order Magnus transfer matrices on a fixed
grid. Solutions vary like exp(+/- z/h), so the states are rescaled to unit norm
after every chunk of cells and the extracted magnitude accumulates in a log
scale; overflow cannot occur.

All Wronskian evaluations at distinct spectral parameters are independent; the
heavy entry points batch them and propagate the whole batch on one grid.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .action import action_integral
from .errors import (BoundaryZero, InsideWell, MissedZerosWarning,
                     PhaseResolution, PhaseTrackingLost, ZSWKBError)
# axis_blend_callable is unused here; the benchmark's tracer patches this name
from .potential import axis_blend_callable, eval_potential  # noqa: F401
from .problem import (Problem, a1_report, domain_cuts, matching_point,
                      window_rectangle)
from .quantize import EigenvalueRecord, Method, select_branch

_NEWTON_FD_STEP = 1e-7
_MAX_BOUNDARY_SAMPLES = 2 ** 16
# cells x rows per propagation chunk; bounds the propagator's working memory
_CHUNK_ELEMENTS = 4096
_GAUSS = np.sqrt(3.0) / 6.0  # Gauss-Legendre nodes at mid -/+ _GAUSS * dx


class Direction(Enum):
    FROM_LEFT = "from-left"
    FROM_RIGHT = "from-right"


@dataclass
class BoundaryData:
    """Unit-norm decaying seed at a cut, with its extracted log magnitude."""

    x_cut: float
    direction: Direction
    seed_vector: np.ndarray
    log_scale: float = 0.0


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


def _decay_rates(problem: Problem, lams: np.ndarray, x_cut: float) -> tuple:
    """Principal decay rate sqrt(A_eps^2 - lam^2) at the cut, per batch row."""
    a_c, _ = eval_potential(problem.potential, x_cut, problem.eps)
    a_c = complex(a_c)
    mu = np.sqrt(a_c * a_c - lams * lams)
    mu = np.where(mu.real < 0, -mu, mu)
    return a_c, mu


def _seed_batch(problem: Problem, lams: np.ndarray, direction: Direction) -> np.ndarray:
    x_l, x_r = domain_cuts(problem)
    x_cut = x_l if direction is Direction.FROM_LEFT else x_r
    a_c, mu = _decay_rates(problem, lams, x_cut)
    if np.any(mu.real <= 1e-12 * np.maximum(1.0, np.abs(lams))):
        raise InsideWell(f"no decay margin at x_cut={x_cut}")
    signed = mu if direction is Direction.FROM_LEFT else -mu
    # eigenvector of [[-i*lam, A], [A, i*lam]] for eigenvalue `signed`
    v = np.stack([np.full(len(lams), a_c, dtype=complex), signed + 1j * lams], axis=1)
    v /= np.linalg.norm(v, axis=1)[:, None]
    return v


def boundary_seed(problem: Problem, lam: complex, direction: Direction) -> BoundaryData:
    """Decaying-branch seed at the cut with Re sqrt(A_eps^2 - lam^2) > 0."""
    lams = np.asarray([complex(lam)])
    v = _seed_batch(problem, lams, direction)
    x_l, x_r = domain_cuts(problem)
    x_cut = x_l if direction is Direction.FROM_LEFT else x_r
    return BoundaryData(x_cut, direction, v[0], 0.0)


def _integrate_batch(problem: Problem, lams: np.ndarray, ys: np.ndarray,
                     x0: float, x1: float) -> tuple:
    """Fixed-grid fourth-order Magnus propagator for the whole batch; returns (ys, log_scales).

    The cells are those of the lattice dx*Z between x0 and x1; anchoring it at
    the origin gives overlapping integrations the same cells. On a cell, with
    a1, a2 the values of A_eps at its Gauss points in the direction of travel
    and d = -i*lam, the two-point Magnus generator is
    Omega = [[p, u+v], [u-v, -p]] with p = d*dx/h, u = dx*(a1+a2)/(2h) and
    v = (sqrt(3)/6)*(dx/h)^2*d*(a1-a2), and exp(Omega) = cosh(q)*I +
    sinh(q)/q*Omega with q^2 = p^2 + u^2 - v^2. Each cell matrix is scaled by
    exp(-|Re q|), the exponent going to the log scale, so no product of cells
    overflows. Chunks of cells are multiplied by a pairwise tree and applied to
    the states, which are then renormalized to unit norm.
    """
    h = problem.h
    y = ys.astype(complex)
    log_scales = np.zeros(len(lams))
    if x1 == x0:
        return y, log_scales
    # the global error scales like dx^4/h^3; dx = 0.002 at h = 0.1 and
    # rtol = 1e-10 gives W to about 1e-9 of max|W|
    dx = 0.002 * (problem.tolerances.ode_rtol / 1e-10) ** 0.25 * min(1.0, h / 0.1) ** 0.75
    lo, hi = sorted((x0, x1))
    edges = np.concatenate([[lo], np.arange(np.floor(lo / dx) + 1, np.ceil(hi / dx)) * dx, [hi]])
    if x1 < x0:
        edges = edges[::-1]
    dx_h = np.diff(edges) / h  # signed cell widths over h
    mids = 0.5 * (edges[:-1] + edges[1:])
    offset = _GAUSS * h * dx_h
    a, _ = eval_potential(problem.potential, np.concatenate([mids - offset, mids + offset]),
                          problem.eps)
    a1, a2 = np.split(a, 2)
    u_all = 0.5 * dx_h * (a1 + a2)
    v_all = _GAUSS * dx_h * dx_h * (a1 - a2)
    d = -1j * lams
    step = max(1, _CHUNK_ELEMENTS // len(lams))
    for k in range(0, len(dx_h), step):
        p = dx_h[k:k + step, None] * d
        u = u_all[k:k + step, None]
        v = v_all[k:k + step, None] * d
        q2 = p * p + u * u - v * v
        q = np.sqrt(q2)  # principal root, Re q >= 0
        near = np.exp(1j * q.imag)  # exp(q - Re q)
        far = np.exp(-2.0 * q.real) * near.conj()  # exp(-q - Re q)
        cosh = 0.5 * (near + far)
        with np.errstate(divide="ignore", invalid="ignore"):
            sinhc = np.where(np.abs(q) < 0.1,  # series where the difference cancels
                             np.exp(-q.real) * (1 + q2 * (1 / 6 + q2 * (1 / 120 + q2 / 5040))),
                             (near - far) / (2.0 * q))
        mats = np.array([[cosh + sinhc * p, sinhc * (u + v)],
                         [sinhc * (u - v), cosh - sinhc * p]])
        while mats.shape[2] > 1:  # pairwise tree, later cell on the left
            n = mats.shape[2]
            first, second = mats[:, :, 0:n - 1:2], mats[:, :, 1::2]
            prod = second[:, 0, None] * first[None, 0] + second[:, 1, None] * first[None, 1]
            mats = np.concatenate([prod, mats[:, :, n - 1:]], axis=2) if n % 2 else prod
        y = (mats[:, 0, 0] * y[:, 0] + mats[:, 1, 0] * y[:, 1]).T
        norms = np.linalg.norm(y, axis=1)
        y /= norms[:, None]
        log_scales += np.log(norms) + q.real.sum(axis=0)
    return y, log_scales


def integrate(problem: Problem, lam: complex, data: BoundaryData,
              x_target: float) -> tuple:
    """Propagate a boundary seed to ``x_target``; returns (unit vector, log_scale)."""
    if abs(x_target) > problem.cutoff:
        raise ValueError(f"x_target {x_target} outside [-{problem.cutoff}, {problem.cutoff}]")
    lams = np.asarray([complex(lam)])
    ys = data.seed_vector[None, :].astype(complex)
    out, ls = _integrate_batch(problem, lams, ys, data.x_cut, x_target)
    return out[0], data.log_scale + float(ls[0])


def _wronskian_batch(problem: Problem, lams: np.ndarray) -> tuple:
    """det(u_left, u_right) at the matching point for every lambda in the batch."""
    lams = np.asarray(lams, dtype=complex)
    x_l, x_r = domain_cuts(problem)
    x_m = matching_point(problem)
    y_l = _seed_batch(problem, lams, Direction.FROM_LEFT)
    y_r = _seed_batch(problem, lams, Direction.FROM_RIGHT)
    y_l, ls_l = _integrate_batch(problem, lams, y_l, x_l, x_m)
    y_r, ls_r = _integrate_batch(problem, lams, y_r, x_r, x_m)
    w = y_l[:, 0] * y_r[:, 1] - y_l[:, 1] * y_r[:, 0]
    return w, ls_l + ls_r


def wronskian(problem: Problem, lam: complex) -> WronskianSample:
    """Wronskian W(u_left, u_right); zeros of W are the eigenvalues."""
    w, ls = _wronskian_batch(problem, np.asarray([complex(lam)]))
    return WronskianSample(complex(lam), complex(w[0]), float(ls[0]))


def _phase_track(ws: np.ndarray) -> tuple:
    """Track the real line the aligned Wronskian lives on along a real scan.

    Returns (signs, line_phases). A line drift above pi/4 between samples is
    indistinguishable from a sign flip and raises PhaseTrackingLost. Samples
    with negligible magnitude get sign 0.
    """
    amps = np.abs(ws)
    tiny = 1e-12 * float(np.max(amps))
    signs = np.zeros(len(ws), dtype=int)
    phases = np.zeros(len(ws))
    start = int(np.argmax(amps > tiny))
    psi = float(np.angle(ws[start]))
    sign = 1
    signs[start] = sign
    phases[:start + 1] = psi
    for i in range(start + 1, len(ws)):
        if amps[i] <= tiny:
            phases[i] = psi
            continue
        d = float(np.angle(ws[i])) - psi
        d = (d + np.pi) % (2 * np.pi) - np.pi
        m = round(d / np.pi)
        r = d - m * np.pi
        if abs(r) > np.pi / 4:
            raise PhaseTrackingLost(
                f"line phase drifted {r:+.3f} rad between consecutive samples")
        psi += d  # unwrapped phase; a pi jump is a sign flip on a slowly turning line
        if m % 2 != 0:
            sign = -sign
        signs[i] = sign
        phases[i] = psi
    return signs, phases


def _refine_brackets(problem: Problem, lo, hi, f_lo, f_hi, phases) -> tuple:
    """Illinois-style bisection/secant refinement of sign-change brackets.

    All brackets advance together; each round is one batched Wronskian
    evaluation over the still-active rows. Stops at |interval| < 1e-12.
    """
    lo = np.array(lo, dtype=float)
    hi = np.array(hi, dtype=float)
    f_lo = np.array(f_lo, dtype=float)
    f_hi = np.array(f_hi, dtype=float)
    phases = np.array(phases, dtype=float)
    align = np.exp(-1j * phases)
    for _ in range(90):
        active = (hi - lo) > 1e-12
        if not np.any(active):
            break
        idx = np.where(active)[0]
        c = np.empty(len(idx))
        for j, i in enumerate(idx):
            denom = f_hi[i] - f_lo[i]
            cand = hi[i] - f_hi[i] * (hi[i] - lo[i]) / denom if denom != 0 else np.nan
            width = hi[i] - lo[i]
            if not np.isfinite(cand) or not (lo[i] + 0.01 * width < cand < hi[i] - 0.01 * width):
                cand = 0.5 * (lo[i] + hi[i])
            c[j] = cand
        w, _ = _wronskian_batch(problem, c.astype(complex))
        fc = (w * align[idx]).real
        for j, i in enumerate(idx):
            if (fc[j] < 0) == (f_lo[i] < 0):
                lo[i], f_lo[i] = c[j], fc[j]
                f_hi[i] *= 0.5  # Illinois damping keeps the stale end honest
            else:
                hi[i], f_hi[i] = c[j], fc[j]
                f_lo[i] *= 0.5
    mid = 0.5 * (lo + hi)
    w, _ = _wronskian_batch(problem, mid.astype(complex))
    return mid, np.abs(w)


def direct_spectrum_real(problem: Problem) -> list:
    """Scan the real window for sign changes of the phase-aligned Wronskian."""
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
    ws, _ = _wronskian_batch(problem, lams.astype(complex))
    signs, phases = _phase_track(ws)

    keep = np.where(signs != 0)[0]
    brackets = []
    for a, b in zip(keep[:-1], keep[1:]):
        if signs[a] * signs[b] < 0:
            align = np.exp(-1j * phases[a])
            brackets.append((lams[a], lams[b],
                             (ws[a] * align).real, (ws[b] * align).real, phases[a]))
    if not brackets:
        return []
    lo, hi, f_lo, f_hi, phs = map(np.array, zip(*brackets))
    roots, resid = _refine_brackets(problem, lo, hi, f_lo, f_hi, phs)

    try:
        branch = select_branch(a1_report(problem))
    except ZSWKBError:
        branch = None
    order = np.argsort(roots)
    return [EigenvalueRecord(complex(roots[i]), int(k), branch, Method.DIRECT,
                             float(resid[i]), problem.h, problem.eps)
            for k, i in enumerate(order)]


def _rectangle_corners(rectangle) -> tuple:
    lo, hi = complex(rectangle[0]), complex(rectangle[1])
    re0, re1 = sorted((lo.real, hi.real))
    im0, im1 = sorted((lo.imag, hi.imag))
    return re0, re1, im0, im1


def _boundary_point(re0, re1, im0, im1, t: float) -> complex:
    """Counterclockwise perimeter parametrized by t in [0, 4)."""
    seg, frac = int(t) % 4, t % 1.0
    if seg == 0:
        return complex(re0 + frac * (re1 - re0), im0)
    if seg == 1:
        return complex(re1, im0 + frac * (im1 - im0))
    if seg == 2:
        return complex(re1 - frac * (re1 - re0), im1)
    return complex(re0, im1 - frac * (im1 - im0))


def count_zeros(problem: Problem, rectangle) -> ZeroCount:
    """Argument-principle zero count of the Wronskian over a rectangle boundary."""
    tol = problem.tolerances
    re0, re1, im0, im1 = _rectangle_corners(rectangle)
    for attempt in range(4):
        ts = list(np.arange(0.0, 4.0, 1.0 / 64))
        cache = {}

        def values(points):
            missing = [t for t in points if t not in cache]
            if missing:
                lams = np.asarray([_boundary_point(re0, re1, im0, im1, t)
                                   for t in missing])
                w, _ = _wronskian_batch(problem, lams)
                for t, wv in zip(missing, w):
                    cache[t] = complex(wv)
            return np.asarray([cache[t] for t in points])

        ws = values(ts)
        if np.min(np.abs(ws)) <= tol.boundary_min_w:
            grow_re = 0.01 * (re1 - re0)
            grow_im = 0.01 * (im1 - im0)
            re0 -= grow_re
            re1 += grow_re
            im0 -= grow_im
            im1 += grow_im
            continue
        while True:
            ws = values(ts)
            nxt = np.roll(ws, -1)
            incs = np.angle(nxt / ws)
            bad = np.where(np.abs(incs) >= np.pi / 2)[0]
            if len(bad) == 0:
                total = float(np.sum(incs))
                winding = total / (2 * np.pi)
                if abs(winding - round(winding)) >= tol.winding_guard or round(winding) < 0:
                    raise PhaseResolution(
                        f"winding {winding:.4f} is not close to a non-negative integer")
                return ZeroCount((complex(re0, im0), complex(re1, im1)),
                                 int(round(winding)), len(ts))
            inserts = []
            for i in bad:
                t_a = ts[i]
                t_b = ts[(i + 1) % len(ts)]
                if t_b <= t_a:
                    t_b += 4.0
                t_mid = 0.5 * (t_a + t_b) % 4.0
                inserts.append(t_mid)
            new_ws = values(inserts)  # warm the cache in one batch
            if np.min(np.abs(new_ws)) <= tol.boundary_min_w:
                break  # a zero is close to the contour: inflate
            ts = sorted(set(ts) | set(inserts))
            if len(ts) > _MAX_BOUNDARY_SAMPLES:
                raise PhaseResolution(
                    f"boundary refinement exceeded {_MAX_BOUNDARY_SAMPLES} samples")
        grow_re = 0.01 * (re1 - re0)
        grow_im = 0.01 * (im1 - im0)
        re0 -= grow_re
        re1 += grow_re
        im0 -= grow_im
        im1 += grow_im
    raise BoundaryZero("Wronskian zero on the counting contour after 3 inflations")


def _newton_wronskian(problem: Problem, seeds: np.ndarray) -> tuple:
    """Batched complex Newton on W with a central-difference derivative."""
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
            delta = np.where(dw != 0, w0 / dw, 0.0)
        lams[idx] = lams[idx] - delta
        resid[idx] = np.abs(w[:m])
        out = (np.abs(lams[idx].real - problem.lambda0) > 2 * problem.delta) | \
              (np.abs(lams[idx].imag) > problem.delta)
        failed[idx[out]] = True
        done = (np.abs(delta) < 1e-12) | out
        active[idx[done]] = False
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
    """Complex Newton on the Wronskian from every eps = 0 real eigenvalue.

    Seeds whose Newton iteration diverges are dropped with a warning. With
    ``certify`` the root count is checked against the argument-principle
    winding over the window rectangle; a mismatch emits MissedZerosWarning.
    """
    base = problem if problem.eps == 0.0 else problem.with_(eps=0.0)
    seeds = np.asarray([r.lam for r in direct_spectrum_real(base)], dtype=complex)
    if len(seeds) == 0:
        return []
    if problem.eps > 0.0:
        # zeros lift off the real axis under the perturbation; probe each seed
        # along a vertical line and start Newton from the |W| minimum so the
        # iteration begins in the right basin
        t = np.linspace(-0.5 * problem.delta, 0.5 * problem.delta, 17)
        probe = (seeds[:, None] + 1j * t[None, :]).ravel()
        w, _ = _wronskian_batch(problem, probe)
        picks = np.argmin(np.abs(w).reshape(len(seeds), len(t)), axis=1)
        seeds = seeds + 1j * t[picks]
    lams, resid, failed = _newton_wronskian(problem, seeds)
    roots = _collect_roots(problem, lams, resid, failed)
    if np.any(failed):
        warnings.warn(f"{int(np.sum(failed))} Newton seed(s) diverged", stacklevel=2)

    rect = window_rectangle(problem)

    if certify:
        zc = count_zeros(problem, rect)
        if zc.winding != len(roots):
            warnings.warn(
                f"winding {zc.winding} over the window differs from {len(roots)} located roots",
                MissedZerosWarning, stacklevel=2)

    try:
        branch = select_branch(a1_report(problem))
    except ZSWKBError:
        branch = None
    return [EigenvalueRecord(lam, k, branch, Method.DIRECT, r, problem.h, problem.eps)
            for k, (lam, r) in enumerate(roots)]
