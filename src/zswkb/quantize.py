"""Bohr-Sommerfeld-type quantization: I(lambda, eps) = (k + 1/2)*pi*h or k*pi*h."""
from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .action import _action_rows
from .errors import EmptyWindow, LeftWindow, NoConvergence, ZSWKBError
from .potential import A1Report, PotentialSpec, SymmetryClass, WellType
from .problem import Problem, Tolerances, a1_report, symmetry_class

_NEWTON_CAP = 50


class Branch(Enum):
    HALF_INTEGER = "half-integer"
    INTEGER = "integer"


class Method(Enum):
    WKB = "wkb"
    DIRECT = "direct"


@dataclass(frozen=True)
class EigenvalueRecord:
    lam: complex
    k: int
    branch: Branch | None
    method: Method
    residual: float
    h: float
    eps: float


def branch_offset(branch: Branch) -> float:
    return 0.5 if branch is Branch.HALF_INTEGER else 0.0


def select_branch(report: A1Report) -> Branch:
    """Half-integer multiples for a simple well, integer for a monotonic profile."""
    return Branch.HALF_INTEGER if report.well_type is WellType.SIMPLE_WELL else Branch.INTEGER


def indices_in_range(i_lo: float, i_hi: float, h: float, branch: Branch) -> list:
    """All integers k with (k + offset)*pi*h inside the closed action range."""
    off = branch_offset(branch)
    fuzz = 1e-12 * max(1.0, abs(i_hi))
    k_min = math.ceil((i_lo - fuzz) / (math.pi * h) - off)
    k_max = math.floor((i_hi + fuzz) / (math.pi * h) - off)
    return list(range(k_min, k_max + 1))


@functools.lru_cache(maxsize=None)
def _edges(potential: PotentialSpec, lambda0: float, delta: float, cutoff: float,
           tolerances: Tolerances, eps: float) -> tuple:
    # h = 1 stands in for every h: the turning points and actions never read it
    problem = Problem(potential, lambda0, delta, 1.0, eps=eps, cutoff=cutoff,
                      tolerances=tolerances)
    edges, pairs = _action_rows(problem, [lambda0 - delta, lambda0 + delta])
    for act in edges:
        if isinstance(act, Exception):
            raise act
    pairs.flags.writeable = False  # shared by every cell that hits the cache
    # I depends on lambda^2 and grows with |lambda|, and |lambda0 - delta| < lambda0 + delta
    return (edges[0].value.real, edges[1].value.real,
            (edges[0].dvalue_dlambda.real, edges[1].dvalue_dlambda.real), pairs)


# the edges are continued from the A1 pair, so clearing a1_report clears them too
_clear_a1_reports = a1_report.cache_clear


def _clear_reports() -> None:
    _clear_a1_reports()
    _edges.cache_clear()


a1_report.cache_clear = _clear_reports


def _window(problem: Problem) -> tuple:
    """(branch, i_lo, i_hi, slopes, edge_pairs): what ``_solve_rows`` starts the indices from.

    The edges' actions and their lambda-derivatives (``slopes``) are taken at
    the problem's own eps under a pairing, which keeps I(lambda, eps) real on
    the real axis so that eps moves each target and edge action together, and
    at eps = 0 without one; the (2, 2) edge turning-point pairs always at the
    problem's own eps.  Both come from the cached ``_edges``.
    """
    branch = select_branch(a1_report(problem))
    key = (problem.potential, problem.lambda0, problem.delta, problem.cutoff,
           problem.tolerances)
    own = problem.eps == 0.0 or symmetry_class(problem) is not SymmetryClass.NONE
    i_lo, i_hi, slopes, _ = _edges(*key, problem.eps if own else 0.0)
    return branch, i_lo, i_hi, slopes, _edges(*key, problem.eps)[3]


def enumerate_indices(problem: Problem) -> list:
    """Quantization indices whose targets fall in the window's action range."""
    branch, i_lo, i_hi, _, _ = _window(problem)
    ks = indices_in_range(i_lo, i_hi, problem.h, branch)
    if not ks:
        raise EmptyWindow(
            f"no quantization target in action range [{i_lo:.6g}, {i_hi:.6g}] at h={problem.h}")
    return ks


def solve_quantization(problem: Problem, k: int) -> EigenvalueRecord:
    """Newton-solve I(lambda, eps) = c_k*pi*h from the Hermite seed through the window's edges.

    The seed is where the cubic Hermite interpolant of lambda(I) through the
    two window-edge actions and their slopes meets the target, and its first
    turning points lie between the edges' pairs at the problem's own eps; the
    edges are shared with every call on the same potential and window (see
    ``_window``).  A one-row call of the lockstep solver that ``wkb_spectrum``
    runs on all indices; its failure is raised.
    """
    (rec,) = _solve_rows(problem, [k], *_window(problem))
    if isinstance(rec, Exception):
        raise rec
    return rec


def _solve_rows(problem: Problem, ks: list, branch: Branch, i_lo: float, i_hi: float,
                slopes: tuple, edge_pairs) -> list:
    """EigenvalueRecord, or the ZSWKBError that stopped it, for each index k.

    Each row starts from its Hermite seed, a real lambda at a fraction of the
    window: the cubic Hermite interpolant of lambda as a function of I through
    the two edges, with slopes 1 / I'(edge) from the edges' ``slopes``, read
    at the row's target.  The rows take Newton steps in lockstep: a round is
    one call of the array action over the rows still iterating.  The first
    round starts each row's pair at the same fraction between the (2, 2)
    ``edge_pairs`` (the edges' turning points at the problem's own eps), and
    every later round from the row's pair of the round before; each takes one
    Newton stage at the row's lambda.  A row stops on its own at the residual
    test, on its action's failure, on leaving the window, or after
    ``_NEWTON_CAP`` rounds.
    """
    results = [None] * len(ks)
    targets = [(k + branch_offset(branch)) * math.pi * problem.h for k in ks]
    fuzz = 1e-9 * max(1.0, i_hi)
    for j, target in enumerate(targets):
        if not (i_lo - fuzz <= target <= i_hi + fuzz):
            results[j] = LeftWindow(
                f"target {target:.6g} outside action range [{i_lo:.6g}, {i_hi:.6g}]")
    # t is each target's place between the edge actions; against t, lambda's
    # fraction of the window has slope secant / I'(edge) at each edge
    secant = (i_hi - i_lo) / (2.0 * problem.delta)
    m0, m1 = (secant / s for s in slopes)
    t = (np.array(targets) - i_lo) / (i_hi - i_lo)
    fracs = t * t * (3.0 - 2.0 * t) + t * (1.0 - t) * (m0 * (1.0 - t) - m1 * t)
    lams = [complex(problem.lambda0 + problem.delta * (2.0 * f - 1.0)) for f in fracs]

    tol = problem.tolerances.quantize_residual
    live = [j for j, res in enumerate(results) if res is None]
    pairs = edge_pairs[0] + fracs[:, None] * (edge_pairs[1] - edge_pairs[0])
    for _ in range(_NEWTON_CAP):
        if not live:
            break
        acts, pairs[live] = _action_rows(problem, [lams[j] for j in live], pairs[live])
        still = []
        for j, act in zip(live, acts):
            if isinstance(act, Exception):
                results[j] = act
                continue
            resid = act.value - targets[j]
            if abs(resid) < tol:
                results[j] = EigenvalueRecord(lams[j], ks[j], branch, Method.WKB,
                                              abs(resid), problem.h, problem.eps)
                continue
            lams[j] = lams[j] - resid / act.dvalue_dlambda
            if abs(lams[j] - problem.lambda0) > 1.5 * problem.delta:
                results[j] = LeftWindow(f"Newton iterate {lams[j]} left the spectral window")
                continue
            still.append(j)
        live = still
    for j in live:
        results[j] = NoConvergence(f"quantization Newton did not converge for k={ks[j]}")
    return results


def wkb_spectrum(problem: Problem) -> list:
    """Roots of I(lambda, eps) = c_k*pi*h for every admissible index, sorted by Re lambda.

    The index list is ``enumerate_indices``'s, the window's edge actions,
    slopes and turning points are computed once, and all indices are solved
    in lockstep from their Hermite seeds.  The edges read no h, so a sweep
    over h continues them once per potential, window and eps, and clearing
    ``a1_report`` clears them.  Each index's first turning points are
    interpolated between the two edge pairs at the problem's own eps and
    polished by one Newton stage, so the turning points are continued from
    the A1 report only at the edges.  Every later Newton round continues the
    turning points of every unsettled index from the round before and finds
    their actions with one array call.
    Each index gives the root ``solve_quantization`` gives for it alone.
    Per-index failures are reported as warnings, in index order; the other
    indices are unaffected.
    """
    ks = enumerate_indices(problem)
    records = []
    for k, rec in zip(ks, _solve_rows(problem, ks, *_window(problem))):
        if isinstance(rec, ZSWKBError):
            warnings.warn(f"quantization failed for k={k}: {rec}", stacklevel=2)
        else:
            records.append(rec)
    return sorted(records, key=lambda r: r.lam.real)
