"""Bohr-Sommerfeld-type quantization: I(lambda, eps) = (k + 1/2)*pi*h or k*pi*h."""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum

from .action import action_integral
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


def record_to_json(record: EigenvalueRecord) -> dict:
    return {
        "re_lambda": record.lam.real,
        "im_lambda": record.lam.imag,
        "k": record.k,
        "branch": record.branch.value if record.branch else None,
        "method": record.method.value,
        "residual": record.residual,
        "h": record.h,
        "eps": record.eps,
    }


def record_from_json(obj: dict) -> EigenvalueRecord:
    return EigenvalueRecord(
        complex(obj["re_lambda"], obj["im_lambda"]), int(obj["k"]),
        Branch(obj["branch"]) if obj["branch"] else None,
        Method(obj["method"]), float(obj["residual"]),
        float(obj["h"]), float(obj["eps"]))


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
    base = problem.with_(eps=0.0)
    i_lo = action_integral(base, problem.lambda0 - problem.delta).value.real
    i_hi = action_integral(base, problem.lambda0 + problem.delta).value.real
    if i_lo > i_hi:
        i_lo, i_hi = i_hi, i_lo
    return i_lo, i_hi


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
    window edges meets the target.
    """
    return _solve(problem, k, select_branch(a1_report(problem)), *_window_action_range(problem))


def _solve(problem: Problem, k: int, branch: Branch, i_lo: float,
           i_hi: float) -> EigenvalueRecord:
    target = (k + branch_offset(branch)) * math.pi * problem.h
    fuzz = 1e-9 * max(1.0, i_hi)
    if not (i_lo - fuzz <= target <= i_hi + fuzz):
        raise LeftWindow(f"target {target:.6g} outside action range [{i_lo:.6g}, {i_hi:.6g}]")
    frac = (target - i_lo) / (i_hi - i_lo)
    lam = complex(problem.lambda0 + problem.delta * (2.0 * frac - 1.0))

    tol = problem.tolerances.quantize_residual
    for _ in range(_NEWTON_CAP):
        act = action_integral(problem, lam)
        resid = act.value - target
        if abs(resid) < tol:
            return EigenvalueRecord(lam, k, branch, Method.WKB, abs(resid),
                                    problem.h, problem.eps)
        lam = lam - resid / act.dvalue_dlambda
        if abs(lam - problem.lambda0) > 1.5 * problem.delta:
            raise LeftWindow(f"Newton iterate {lam} left the spectral window")
    raise NoConvergence(f"quantization Newton did not converge for k={k}")


def wkb_spectrum(problem: Problem) -> list:
    """solve_quantization over every admissible index, sorted by Re lambda.

    The branch and the window's action range are computed once for all
    indices. Per-index failures are reported as warnings; the batch continues.
    """
    ks = enumerate_indices(problem)
    branch = select_branch(a1_report(problem))
    i_lo, i_hi = _window_action_range(problem)
    records = []
    for k in ks:
        try:
            records.append(_solve(problem, k, branch, i_lo, i_hi))
        except ZSWKBError as exc:
            warnings.warn(f"quantization failed for k={k}: {exc}", stacklevel=2)
    return sorted(records, key=lambda r: r.lam.real)
