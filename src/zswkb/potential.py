"""Analytic potential families A(x), B(x) and the blended profile A(x) + i*eps*B(x).

Every family is a list of (target, kind, coeff, scale) terms; the built-in
families are presets over that list.  All terms are entire or strip-analytic
closed forms, so values and derivatives at complex points come from formulas,
never from numerical differentiation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import A1Violated, NoConvergence, OutOfStrip

WELL_EVEN = "well-even"
MONOTONE_ODD = "monotone-odd"
CUSTOM = "custom-sum-of-terms"

# custom-family term encoding: flat (target, kind, coeff, scale) quadruples
TARGET_A, TARGET_B = 0, 1
TERM_CONST, TERM_TANH, TERM_GAUSS, TERM_XGAUSS = 0, 1, 2, 3
_TERM_NAMES = {"const": TERM_CONST, "tanh": TERM_TANH,
               "gauss": TERM_GAUSS, "xgauss": TERM_XGAUSS}
# each kind's parity on the real axis: +1 even, -1 odd, for every scale
_TERM_PARITY = {TERM_CONST: 1, TERM_TANH: -1, TERM_GAUSS: 1, TERM_XGAUSS: -1}

# Newton on a real crossing stops once its step is below this share of
# max(1, |x|); the step it then takes leaves an error of order its square.
# Simple crossings settle in two or three passes; the cap leaves room for
# levels just above a well floor, where a poor secant seed halves its
# distance to the root per pass.
_CROSSING_XTOL = 1e-10
_CROSSING_NEWTON_CAP = 64
_CROSSING_SAMPLES = 4001         # odd: the crossing grid holds 0 and mirrors about it


def _refuse_complex(*values) -> None:
    """TypeError for a complex number, Python or NumPy, which float() would refuse or truncate."""
    for v in values:
        if isinstance(v, (complex, np.complexfloating)):
            raise TypeError(f"expected a real number, not 'complex': {v!r}")


class SymmetryClass(Enum):
    A_EVEN_B_ODD = "A-even-B-odd"
    A_ODD_B_EVEN = "A-odd-B-even"
    NONE = "none"


class WellType(Enum):
    SIMPLE_WELL = "simple-well"
    MONOTONIC = "monotonic"


@dataclass(frozen=True)
class PotentialSpec:
    """Closed-form potential pair (A, B) with its strip of analyticity."""

    family: str
    params: tuple
    strip_half_width: float

    def __post_init__(self):
        _refuse_complex(*self.params, self.strip_half_width)
        object.__setattr__(self, "params", tuple(float(p) for p in self.params))
        if self.family not in (WELL_EVEN, MONOTONE_ODD, CUSTOM):
            raise ValueError(f"unknown potential family {self.family!r}")
        if not self.strip_half_width > 0:
            raise ValueError("strip_half_width must be positive")
        if self.family == WELL_EVEN:
            a, b = self.params
            if not (a > b > 0):
                raise ValueError("well-even requires params (a, b) with a > b > 0")
            terms = ((TARGET_A, TERM_CONST, a, 1.0), (TARGET_A, TERM_GAUSS, -b, 1.0),
                     (TARGET_B, TERM_XGAUSS, 1.0, 1.0))
        elif self.family == MONOTONE_ODD:
            (a,) = self.params
            if not a > 0:
                raise ValueError("monotone-odd requires a positive slope parameter")
            terms = ((TARGET_A, TERM_TANH, a, 1.0), (TARGET_B, TERM_GAUSS, 1.0, 1.0))
        else:
            if len(self.params) % 4 != 0:
                raise ValueError("custom params must be flat (target, kind, coeff, scale) quadruples")
            terms = []
            for t, k, c, s in zip(*[iter(self.params)] * 4):
                if t not in (TARGET_A, TARGET_B) or k not in _TERM_NAMES.values():
                    raise ValueError(f"bad custom term codes ({t:g}, {k:g}): target must be "
                                     f"0 or 1 and kind 0, 1, 2 or 3")
                terms.append((int(t), int(k), c, s))
        for _, k, _, s in terms:
            if k != TERM_CONST and not s > 0:
                raise ValueError("term scale must be positive")
            # tanh(s*z) has poles at Im z = pi/(2s); the strip must stop short
            if k == TERM_TANH and self.strip_half_width >= np.pi / (2 * s):
                raise ValueError(
                    f"strip_half_width {self.strip_half_width} reaches the "
                    f"tanh pole at {np.pi / (2 * s):.4f}")
        # checked last, so a NaN term code is still reported as a bad code
        if not np.all(np.isfinite(self.params)):
            raise ValueError("potential params must be finite")
        # the one representation every evaluator reads; not a dataclass field,
        # so equality, hashing and JSON see only (family, params, strip)
        object.__setattr__(self, "terms", tuple(terms))


def well_even(a: float = 2.0, b: float = 1.0, strip_half_width: float = 10.0) -> PotentialSpec:
    """A(x) = a - b*exp(-x^2) with odd partner B(x) = x*exp(-x^2)."""
    return PotentialSpec(WELL_EVEN, (a, b), strip_half_width)


def monotone_odd(a: float = 2.0, strip_half_width: float = 0.5) -> PotentialSpec:
    """A(x) = a*tanh(x) with even partner B(x) = exp(-x^2).

    The default strip stops short of the tanh poles at +/- i*pi/2.
    """
    return PotentialSpec(MONOTONE_ODD, (a,), strip_half_width)


def custom(a_terms, b_terms, strip_half_width: float | None = None) -> PotentialSpec:
    """Build a custom-sum-of-terms spec from ("const"|"tanh"|"gauss"|"xgauss", coeff[, scale]) tuples."""
    flat = []
    max_tanh_scale = 0.0
    for target, terms in ((TARGET_A, a_terms), (TARGET_B, b_terms)):
        for term in terms:
            if not 2 <= len(term) <= 3 or term[0] not in _TERM_NAMES:
                raise ValueError(f"bad custom term {term!r}: want (kind, coeff[, scale]) with "
                                 f"kind 'const', 'tanh', 'gauss' or 'xgauss'")
            kind = _TERM_NAMES[term[0]]
            _refuse_complex(*term[1:])
            coeff = float(term[1])
            scale = float(term[2]) if len(term) > 2 else 1.0
            if kind == TERM_TANH:
                max_tanh_scale = max(max_tanh_scale, scale)
            flat.extend((target, kind, coeff, scale))
    if strip_half_width is None:
        if max_tanh_scale > 0.0:
            strip_half_width = min(0.5, 0.9 * np.pi / (2 * max_tanh_scale))
        else:
            strip_half_width = 10.0
    return PotentialSpec(CUSTOM, tuple(flat), strip_half_width)


def spec_to_json(spec: PotentialSpec) -> dict:
    return {"family": spec.family, "params": list(spec.params),
            "strip_half_width": spec.strip_half_width}


def spec_from_json(obj: dict) -> PotentialSpec:
    _refuse_complex(obj["strip_half_width"])
    return PotentialSpec(obj["family"], tuple(obj["params"]), float(obj["strip_half_width"]))


def _sum_terms(spec: PotentialSpec, z, targets: tuple, derivative: bool = True) -> list:
    """(value, z-derivative) of the terms of ``spec``, one pair per entry of ``targets``.

    Every input, a scalar too, is evaluated as a flat batch and reshaped back
    (0-d for a scalar), so a point rounds alike alone and in any batch.  One
    pass over the terms serves every target, and a gauss and an xgauss of the
    same scale share exp(-s*z^2).  Without ``derivative`` each pair is
    (value, None) and no derivative is formed; the values are the same either
    way.  The sums accumulate in place: fresh temporaries for every term of a
    large grid make the allocator map and unmap pages on each call.
    """
    z = np.asarray(z, dtype=complex)
    shape, z = z.shape, z.ravel()
    val = {t: np.zeros(z.shape, dtype=complex) for t in targets}
    dval = {t: np.zeros(z.shape, dtype=complex) for t in targets} if derivative else {}
    gauss = {}
    for t, k, c, s in spec.terms:
        if t not in val:
            continue
        if k == TERM_CONST:
            val[t] += c
        elif k == TERM_TANH:
            th = np.tanh(s * z)
            val[t] += c * th
            if derivative:
                dval[t] += c * s * (1.0 - th * th)
        else:
            e = gauss.get(s)
            if e is None:
                e = gauss[s] = np.exp(-s * z * z)
            if k == TERM_GAUSS:
                val[t] += c * e
                if derivative:
                    dval[t] -= 2.0 * c * s * z * e
            else:
                val[t] += c * z * e
                if derivative:
                    dval[t] += c * (1.0 - 2.0 * s * z * z) * e
    return [(val[t].reshape(shape), dval[t].reshape(shape) if derivative else None) for t in targets]


def eval_A(spec: PotentialSpec, z):
    """(A(z), A'(z)) as arrays of z's shape; z may be a scalar or ndarray, real or complex."""
    return _sum_terms(spec, z, (TARGET_A,))[0]


def eval_B(spec: PotentialSpec, z):
    """(B(z), B'(z)) like ``eval_A``; no package code calls it, but bench/spans.py wraps it."""
    return _sum_terms(spec, z, (TARGET_B,))[0]


def eval_potential(spec: PotentialSpec, z, eps: float, *, derivative: bool = True):
    """A_eps(z) = A(z) + i*eps*B(z) and its z-derivative from closed forms, as arrays of z's shape.

    With ``derivative=False`` the call returns (A_eps(z), None): the same
    value, bit for bit, without forming any derivative, for callers that need
    only the value.  Either way it raises ValueError for a negative or NaN
    eps, and OutOfStrip when some point has |Im z| >= strip_half_width.
    """
    if not eps >= 0:  # also rejects NaN
        raise ValueError("eps must be non-negative")
    zz = np.asarray(z, dtype=complex)
    if np.count_nonzero(np.abs(zz.imag) >= spec.strip_half_width):
        raise OutOfStrip(f"|Im z| >= {spec.strip_half_width}")
    if eps == 0.0:
        return _sum_terms(spec, zz, (TARGET_A,), derivative)[0]
    (a, da), (b, db) = _sum_terms(spec, zz, (TARGET_A, TARGET_B), derivative)
    a += 1j * eps * b  # in place, so a 0-d result stays an array
    if derivative:
        da += 1j * eps * db
    return a, da


def axis_blend_callable(spec: PotentialSpec, eps: float):
    """Scalar A_eps(x) for real x.

    Nothing in the package calls it; it remains only because bench/spans.py
    patches ``zswkb.direct.axis_blend_callable`` to count blend calls.
    """
    return lambda x: complex(eval_potential(spec, x, eps)[0])


def _parities(spec: PotentialSpec) -> tuple:
    """The parities (1 even, -1 odd) that A and B each have, read exactly off the spec's terms.

    Each term kind has one parity on the real axis (``_TERM_PARITY``), and
    terms of different (kind, scale) are linearly independent, so a target is
    even exactly when the coefficients of each of its odd (kind, scale) groups
    sum to zero, and odd when those of each even group do.  All const terms
    form one group whatever their scale.  A target that vanishes identically
    has both parities, one of no parity neither.  No potential is evaluated.
    """
    groups = {}
    for t, k, c, s in spec.terms:
        groups.setdefault((t, k, 0.0 if k == TERM_CONST else s), []).append(c)
    # a group whose coefficients do not cancel rules out the opposite parity
    broken = {(t, -_TERM_PARITY[k]) for (t, k, _), cs in groups.items() if math.fsum(cs) != 0.0}
    return tuple(frozenset(p for p in (1, -1) if (t, p) not in broken)
                 for t in (TARGET_A, TARGET_B))


def classify_symmetry(spec: PotentialSpec) -> SymmetryClass:
    """The PT-like parity pairing of (A, B): A even and B odd, or A odd and B even (``_parities``)."""
    a, b = _parities(spec)
    if 1 in a and -1 in b:
        return SymmetryClass.A_EVEN_B_ODD
    if -1 in a and 1 in b:
        return SymmetryClass.A_ODD_B_EVEN
    return SymmetryClass.NONE


@dataclass(frozen=True)
class A1Report:
    """Verified simple-well data for (A, lambda0): |A| = lambda0 exactly at alpha0 < beta0."""

    alpha0: float
    beta0: float
    lambda0: float
    slopes: tuple
    well_type: WellType
    margin_at_infinity: float


def _crossing_grid(cutoff: float) -> np.ndarray:
    """``_CROSSING_SAMPLES`` equispaced points on [-cutoff, cutoff]: 0 and exact mirror pairs."""
    half = np.linspace(0.0, cutoff, _CROSSING_SAMPLES // 2 + 1)
    return np.concatenate([-half[:0:-1], half])


def real_crossings(spec: PotentialSpec, level: float, cutoff: float, a: np.ndarray) -> tuple:
    """Real roots of |A(x)| = level in [-cutoff, cutoff].

    Sign changes of |A| - level between neighbouring samples ``a`` of Re A on
    ``_crossing_grid(cutoff)`` bracket the roots; a sample where it is exactly
    zero is skipped, so its neighbours bracket it.  Each bracket is seeded at
    its secant point and polished by Newton on A's analytic derivative; an
    iterate that leaves its (shrinking) bracket is replaced by the bracket's
    midpoint.  Grid, skipped samples and secant point are mirror-exact, so
    every paired potential, with |A| even, gets exactly negated roots.
    Returns ``(t, done)``: per bracket its root and whether that root settled
    within ``_CROSSING_NEWTON_CAP`` passes.
    """
    x = _crossing_grid(cutoff)
    f = np.abs(a) - level
    keep = np.flatnonzero(f)
    flip = np.flatnonzero(f[keep[:-1]] * f[keep[1:]] < 0)
    i, j = keep[flip], keep[flip + 1]
    lo, hi, flo, fhi = x[i], x[j], f[i], f[j]
    t = (lo * fhi - hi * flo) / (fhi - flo)
    ftol = 4.0 * np.finfo(float).eps * max(1.0, level)
    done = np.zeros(len(t), dtype=bool)
    for _ in range(_CROSSING_NEWTON_CAP):
        if done.all():
            break
        v, dv = eval_A(spec, t)
        v, dv = v.real, dv.real
        g = np.abs(v) - level
        with np.errstate(divide="ignore", invalid="ignore"):
            step = g / (np.sign(v) * dv)
        small_step = np.abs(step) <= _CROSSING_XTOL * np.maximum(1.0, np.abs(t))
        settled = ~done & (small_step | (np.abs(g) <= ftol))
        left = (g < 0) == (flo < 0)
        lo, hi = np.where(left, t, lo), np.where(left, hi, t)
        newton = t - step
        inside = (newton > lo) & (newton < hi)
        # a settled root takes its last Newton step only when that step is
        # small; an unsettled iterate that leaves its bracket goes to the midpoint
        t = np.select([done, small_step, settled, inside], [t, newton, t, newton],
                      0.5 * (lo + hi))
        done |= settled
    return t, done


def validate_A1(spec: PotentialSpec, lambda0: float, cutoff: float,
                slope_tol: float = 1e-8) -> A1Report:
    """Locate the two real crossings of |A(x)| = lambda0 in [-cutoff, cutoff].

    The decay condition at infinity is only checked through the margin at the
    cutoffs; finitely many samples cannot verify a liminf.
    """
    if not lambda0 > 0:
        raise ValueError("lambda0 must be positive")
    if not cutoff > 0:
        raise ValueError("cutoff must be positive")
    a = eval_A(spec, _crossing_grid(cutoff))[0].real
    roots, done = real_crossings(spec, lambda0, cutoff, a)
    if not done.all():
        raise NoConvergence(f"real crossings of |A| = {lambda0} did not settle near "
                            f"x = {roots[~done]}")
    margin = min(abs(a[0]), abs(a[-1])) - lambda0
    if margin <= 0:
        raise A1Violated("no-margin-at-infinity",
                         f"|A| at +/-{cutoff} does not exceed lambda0={lambda0}")
    if len(roots) == 0:
        raise A1Violated("no-crossings", f"|A| never crosses lambda0={lambda0}")
    if len(roots) != 2:
        raise A1Violated("extra-crossings", f"found {len(roots)} crossings, need exactly 2")
    alpha0, beta0 = roots
    v, dv = eval_A(spec, roots)
    slopes = (dv[0].real.item(), dv[1].real.item())
    if min(abs(slopes[0]), abs(slopes[1])) <= slope_tol:
        raise A1Violated("zero-slope", f"|A'| at a crossing is below {slope_tol}")
    prod = v[0].real.item() * v[1].real.item()
    well = WellType.SIMPLE_WELL if prod > 0 else WellType.MONOTONIC
    return A1Report(float(alpha0), float(beta0), float(lambda0), slopes, well, float(margin))
