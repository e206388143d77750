"""Bohr-Sommerfeld-type quantization: I(lambda, eps) = (k + 1/2)*pi*h or k*pi*h."""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .action import _action_rows
from .errors import EmptyWindow, LeftWindow, NoConvergence, ZSWKBError
from .potential import A1Report, SymmetryClass, WellType
from .problem import Problem, a1_report, symmetry_class

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


def _window_action_range(problem: Problem) -> tuple:
    """Action at the real window edges, and their turning points where they are the problem's.

    A pairing keeps I(lambda, eps) real for real lambda, so a level that eps
    moves across an edge moves its target across that edge's action too.
    Without one the edges are taken for the eps = 0 reference problem.
    Returns the two edge actions and the (2, 2) edge pairs, or None for the
    pairs where they were continued at eps = 0 for a problem at eps > 0.
    """
    paired = symmetry_class(problem) is not SymmetryClass.NONE
    own = paired or problem.eps == 0.0
    edges, pairs = _action_rows(problem if own else problem.with_(eps=0.0),
                                [problem.lambda0 - problem.delta, problem.lambda0 + problem.delta])
    for act in edges:
        if isinstance(act, Exception):
            raise act
    # I depends on lambda^2 and grows with |lambda|, and |lambda0 - delta| < lambda0 + delta
    return edges[0].value.real, edges[1].value.real, pairs if own else None


def _window(problem: Problem) -> tuple:
    """(branch, i_lo, i_hi, edge_pairs): what ``_solve_rows`` starts a call's indices from."""
    return (select_branch(a1_report(problem)), *_window_action_range(problem))


def _indices(problem: Problem, window: tuple) -> list:
    branch, i_lo, i_hi, _ = window
    ks = indices_in_range(i_lo, i_hi, problem.h, branch)
    if not ks:
        raise EmptyWindow(
            f"no quantization target in action range [{i_lo:.6g}, {i_hi:.6g}] at h={problem.h}")
    return ks


def enumerate_indices(problem: Problem) -> list:
    """Quantization indices whose targets fall in the window's action range."""
    return _indices(problem, _window(problem))


def solve_quantization(problem: Problem, k: int) -> EigenvalueRecord:
    """Newton-solve I(lambda, eps) = c_k*pi*h from the secant seed through the window's edges.

    The seed is where the secant through the two window-edge actions meets
    the target; the edges are those of the index range, at the problem's own
    eps under a parity pairing and at eps = 0 without one.  A one-row call of
    the lockstep solver that ``wkb_spectrum`` runs on all indices; its
    failure is raised.
    """
    (rec,) = _solve_rows(problem, [k], *_window(problem))
    if isinstance(rec, Exception):
        raise rec
    return rec


def _solve_rows(problem: Problem, ks: list, branch: Branch, i_lo: float, i_hi: float,
                edge_pairs) -> list:
    """EigenvalueRecord, or the ZSWKBError that stopped it, for each index k.

    Each row starts from its secant seed, a real lambda at a fraction of the
    window set by where its target lies between the edge actions, and takes
    Newton steps in lockstep: a round is one call of the array action over
    the rows still iterating.  Given the (2, 2) ``edge_pairs`` (turning
    points continued at the problem's own eps), the first round starts each
    row's pair at the same fraction between the two edge pairs and takes one
    Newton stage at its lambda; without them it continues the turning points
    from the A1 report's real pair along the full homotopy.  Every later
    round continues each row's pair from the round before.  A row stops on
    its own at the residual test, on its action's failure, on leaving the
    window, or after ``_NEWTON_CAP`` rounds.
    """
    results = [None] * len(ks)
    targets = [(k + branch_offset(branch)) * math.pi * problem.h for k in ks]
    fracs = []
    fuzz = 1e-9 * max(1.0, i_hi)
    for j, target in enumerate(targets):
        if not (i_lo - fuzz <= target <= i_hi + fuzz):
            results[j] = LeftWindow(
                f"target {target:.6g} outside action range [{i_lo:.6g}, {i_hi:.6g}]")
        fracs.append((target - i_lo) / (i_hi - i_lo))
    lams = [complex(problem.lambda0 + problem.delta * (2.0 * f - 1.0)) for f in fracs]

    tol = problem.tolerances.quantize_residual
    live = [j for j, res in enumerate(results) if res is None]
    seeded = edge_pairs is not None
    pairs = np.zeros((len(ks), 2), dtype=complex)
    if seeded:
        pairs[:] = edge_pairs[0] + np.array(fracs)[:, None] * (edge_pairs[1] - edge_pairs[0])
    for n in range(_NEWTON_CAP):
        if not live:
            break
        acts, pairs[live] = _action_rows(problem, [lams[j] for j in live],
                                         pairs[live] if n or seeded else None)
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

    The branch, the window's edge actions and turning points and the index
    list are computed once, and all indices are solved in lockstep.  Where
    the edges are the problem's own (under a parity pairing, or at eps = 0)
    each index's first turning points are interpolated between the two edge
    pairs and polished by one Newton stage, so the turning points are
    continued from the A1 report only at the two edges; without a pairing at
    eps > 0 the first round follows the full homotopy.  Every later Newton
    round continues the turning points of every unsettled index from the
    round before and finds their actions with one array call.
    Each index gives the root ``solve_quantization`` gives for it alone.
    Per-index failures are reported as warnings, in index order; the other
    indices are unaffected.
    """
    window = _window(problem)
    ks = _indices(problem, window)
    records = []
    for k, rec in zip(ks, _solve_rows(problem, ks, *window)):
        if isinstance(rec, ZSWKBError):
            warnings.warn(f"quantization failed for k={k}: {rec}", stacklevel=2)
        else:
            records.append(rec)
    return sorted(records, key=lambda r: r.lam.real)
