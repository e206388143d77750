"""Bohr-Sommerfeld-type quantization: I(lambda, eps) = (k + 1/2)*pi*h or k*pi*h."""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .action import _action_rows
from .errors import EmptyWindow, LeftWindow, NoConvergence, ZSWKBError
from .potential import A1Report, WellType
from .problem import Problem, a1_report

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
    """Action at the real window edges for the eps = 0 reference problem."""
    edges, _ = _action_rows(problem.with_(eps=0.0),
                            [problem.lambda0 - problem.delta, problem.lambda0 + problem.delta])
    for act in edges:
        if isinstance(act, Exception):
            raise act
    # I depends on lambda^2 and grows with |lambda|, and |lambda0 - delta| < lambda0 + delta
    return edges[0].value.real, edges[1].value.real


def enumerate_indices(problem: Problem) -> list:
    """Quantization indices whose targets fall in the window's action range."""
    branch = select_branch(a1_report(problem))
    i_lo, i_hi = _window_action_range(problem)
    ks = indices_in_range(i_lo, i_hi, problem.h, branch)
    if not ks:
        raise EmptyWindow(
            f"no quantization target in action range [{i_lo:.6g}, {i_hi:.6g}] at h={problem.h}")
    return ks


def solve_quantization(problem: Problem, k: int) -> EigenvalueRecord:
    """Newton-solve I(lambda, eps) = c_k*pi*h from the eps = 0 secant seed.

    The seed is where the secant through the eps = 0 actions at the two
    window edges meets the target.  A one-row call of the lockstep solver
    that ``wkb_spectrum`` runs on all indices; its failure is raised.
    """
    (rec,) = _solve_rows(problem, [k], select_branch(a1_report(problem)),
                         *_window_action_range(problem))
    if isinstance(rec, Exception):
        raise rec
    return rec


def _solve_rows(problem: Problem, ks: list, branch: Branch, i_lo: float,
                i_hi: float) -> list:
    """EigenvalueRecord, or the ZSWKBError that stopped it, for each index k.

    Each row starts from its secant seed and takes Newton steps in lockstep:
    a round is one call of the array action over the rows still iterating.
    The first round continues the turning points from the A1 report's real
    pair, and every later round continues each row's pair from the round
    before.  A row stops on its own at the residual test, on its action's
    failure, on leaving the window, or after ``_NEWTON_CAP`` rounds.
    """
    results = [None] * len(ks)
    targets = [(k + branch_offset(branch)) * math.pi * problem.h for k in ks]
    lams = []
    fuzz = 1e-9 * max(1.0, i_hi)
    for j, target in enumerate(targets):
        if not (i_lo - fuzz <= target <= i_hi + fuzz):
            results[j] = LeftWindow(
                f"target {target:.6g} outside action range [{i_lo:.6g}, {i_hi:.6g}]")
        frac = (target - i_lo) / (i_hi - i_lo)
        lams.append(complex(problem.lambda0 + problem.delta * (2.0 * frac - 1.0)))

    tol = problem.tolerances.quantize_residual
    live = [j for j, res in enumerate(results) if res is None]
    pairs = np.zeros((len(ks), 2), dtype=complex)
    for n in range(_NEWTON_CAP):
        if not live:
            break
        acts, pairs[live] = _action_rows(problem, [lams[j] for j in live],
                                         pairs[live] if n else None)
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

    The branch and the window's action range are computed once, and all
    indices are solved in lockstep: each Newton round continues the turning
    points of every unsettled index from the round before and finds their
    actions with one array call.
    Each index gives the root ``solve_quantization`` gives for it alone.
    Per-index failures are reported as warnings, in index order; the other
    indices are unaffected.
    """
    ks = enumerate_indices(problem)
    branch = select_branch(a1_report(problem))
    i_lo, i_hi = _window_action_range(problem)
    records = []
    for k, rec in zip(ks, _solve_rows(problem, ks, branch, i_lo, i_hi)):
        if isinstance(rec, ZSWKBError):
            warnings.warn(f"quantization failed for k={k}: {rec}", stacklevel=2)
        else:
            records.append(rec)
    return sorted(records, key=lambda r: r.lam.real)
