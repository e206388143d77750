"""Independent reference computations and checks used only by the tests.

The matrix oracle discretizes the 2x2 first-order system with a periodic
Fourier collocation derivative on a box large enough that the decaying
eigenfunctions do not feel the wrap-around; its window eigenvalues are
spectrally accurate and computed by dense eigendecomposition, a route with
nothing in common with the shooting solver.
"""
import cmath

import numpy as np

import zswkb as z
from zswkb.errors import Collision, NoConvergence
from zswkb.potential import _crossing_grid, eval_A, eval_potential, real_crossings
from zswkb.turning import _HOMOTOPY_STEPS, _newton_stage


def independent_level_drift(problem, lam, curve) -> float:
    """Re-integrate sqrt(A_eps^2 - lam^2) along a traced polyline with fresh code.

    Five-point Gauss panels per segment; the square-root endpoint at the
    origin turning point is handled with the z = tp + dz*u^2 substitution.
    Returns the worst |Re integral| over the polyline vertices.
    """
    nodes, weights = np.polynomial.legendre.leggauss(5)

    def f_sqrt(zz, ref):
        a, _ = eval_potential(problem.potential, zz, problem.eps)
        s = np.sqrt(complex(a) ** 2 - lam * lam)
        return -s if (s * ref.conjugate()).real < 0 else s

    pts = curve.points
    tp = complex(pts[0])
    a_tp, da_tp = eval_potential(problem.potential, tp, problem.eps)
    fp = 2.0 * complex(a_tp) * complex(da_tp)
    dz = complex(pts[1]) - tp
    c_model = cmath.sqrt(fp * dz)
    acc = 0.0 + 0.0j
    ref = c_model
    for xi, wi in zip(nodes, weights):
        u = 0.5 * (xi + 1.0)
        s = f_sqrt(tp + dz * u * u, c_model * max(u, 1e-3))
        acc += 0.5 * wi * s * 2.0 * dz * u
        ref = s
    worst = abs(acc.real)
    for z0, z1 in zip(pts[1:-1], pts[2:]):
        seg = complex(z1) - complex(z0)
        for xi, wi in zip(nodes, weights):
            zz = complex(z0) + 0.5 * (xi + 1.0) * seg
            s = f_sqrt(zz, ref)
            acc += 0.5 * wi * s * seg
            ref = s
        worst = max(worst, abs(acc.real))
    return worst


def two_stage_turning_points(problem, lams) -> list:
    """Turning points continued first in Im lambda at eps = 0, then in eps.

    The reference for the one-path homotopy of ``zswkb.turning._turning_rows``:
    it shares that solver's Newton stage, but seeds each row at the real
    crossings of |A| = |Re lambda| nearest alpha0 and beta0, so the path
    differs.  Returns, per lambda, (alpha, beta) ordered by real part, or the
    error that stopped the row.
    """
    lams = np.asarray(lams, dtype=complex)
    errors = [None] * len(lams)
    rep = z.a1_report(problem)
    a = eval_A(problem.potential, _crossing_grid(problem.cutoff))[0].real
    z_ = np.zeros((len(lams), 2), dtype=complex)
    for k, lam in enumerate(lams):
        t, done = real_crossings(problem.potential, abs(lam.real), problem.cutoff, a)
        if len(t) < 2 or not done.all():
            errors[k] = NoConvergence(f"no settled real seeds at lambda={lam}")
        else:
            z_[k] = [t[np.argmin(np.abs(t - x0))] for x0 in (rep.alpha0, rep.beta0)]

    def alive():
        return np.array([e is None for e in errors], dtype=bool)

    for j in range(1, _HOMOTOPY_STEPS + 1):
        lam_j = lams.copy()
        lam_j.imag = lams.imag * j / _HOMOTOPY_STEPS
        _newton_stage(problem, z_, lam_j, 0.0, alive() & (lams.imag != 0.0), errors)
    if problem.eps != 0.0:
        for j in range(1, _HOMOTOPY_STEPS + 1):
            _newton_stage(problem, z_, lams, problem.eps * j / _HOMOTOPY_STEPS, alive(), errors)
    out = []
    for err, (a, b) in zip(errors, z_):
        if err is None and abs(a - b) < problem.tolerances.collision:
            err = Collision(f"|alpha - beta| = {abs(a - b):.3e}")
        out.append(err if err is not None else tuple(sorted((a, b), key=lambda w: w.real)))
    return out


def assert_graph_document(doc, graph) -> None:
    """``doc`` holds every field of the Stokes ``graph``, exactly, in the JSON layout."""
    assert doc["turning_points"] == [[tp.real, tp.imag] for tp in graph.turning_points]
    assert len(doc["curves"]) == len(graph.curves)
    for c, curve in zip(doc["curves"], graph.curves):
        assert set(c) == {"origin", "angle", "points", "termination"}
        assert c["origin"] == curve.origin_index
        assert c["angle"] == curve.initial_angle
        assert c["points"] == [[p.real, p.imag] for p in curve.points]
        assert c["termination"] == curve.termination.value


def fourier_diff_matrix(n: int, half_width: float) -> np.ndarray:
    grid_step = 2 * half_width / n
    col = np.zeros(n)
    j = np.arange(1, n)
    col[1:] = 0.5 * (-1.0) ** j / np.tan(j * grid_step * np.pi / (2 * half_width)) \
        * (np.pi / half_width)
    d = np.zeros((n, n))
    for k in range(n):
        d[k] = np.roll(col, k)
    return -d.T


def matrix_window_eigenvalues(spec, h: float, eps: float, lo: float, hi: float,
                              im_cap: float = 0.3, n: int = 512,
                              half_width: float = 6.0) -> np.ndarray:
    """Eigenvalues of the collocation matrix inside the window strip."""
    x = -half_width + 2 * half_width * np.arange(n) / n
    d = fourier_diff_matrix(n, half_width)
    a, _ = z.eval_potential(spec, x, eps)
    top = np.hstack([1j * h * d, -1j * np.diag(a)])
    bot = np.hstack([1j * np.diag(a), -1j * h * d])
    ev = np.linalg.eigvals(np.vstack([top, bot]))
    keep = (ev.real > lo) & (ev.real < hi) & (np.abs(ev.imag) < im_cap)
    return np.sort_complex(ev[keep])
