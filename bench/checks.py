"""Correctness checks on one pass's cells, at the acceptance suite's floors.

Seed 0 compares every output with the frozen reference of the seed commit.
Every seed, 0 included, also checks the invariants that hold for any problem
drawn from the seed.  A cell fails when any of these does not hold, and every
reason is reported; no check is looser than the acceptance floors.
"""
from __future__ import annotations

import json
from pathlib import Path

import workloads as wl

ROOT_TOL = 1e-9            # A7: eigenvalue shift
REAL_TOL = 1e-8            # A3: max |Im lambda| under PT-like symmetry
BROKEN_MIN_IM = 1e-6       # A8: max |Im lambda| of the symmetry-broken control
TP_TOL = 1e-9              # turning points, held to the eigenvalue floor

REFERENCE = Path(__file__).resolve().parent / "reference" / "seed0.json"


def expected_cells(workload: str) -> list:
    """Names of the cells one pass of ``workload`` must produce."""
    if workload == "pt_sweep":
        eps_values = sorted(set(wl.PT_EPS) | {0.0}, reverse=True)
        return [wl.cell_name("pt", p, h, e) for p in wl.PT_PROBLEMS
                for h in wl.PT_H for e in eps_values]
    if workload == "semiclassical":
        return ([wl.cell_name("wkb", p, h, e) for p in wl.SEMI_PROBLEMS
                 for h in wl.SEMI_H for e in wl.SEMI_EPS]
                + [wl.cell_name("stokes", p, eps=wl.STOKES_EPS) for p in wl.STOKES_PROBLEMS])
    return [wl.cell_name("winding", p, h, wl.WINDING_EPS) for p in wl.WINDING_PROBLEMS
            for h in wl.WINDING_H]


def roots_to_json(roots) -> list:
    return [[r.real, r.imag] for r in roots]


def roots_from_json(pairs) -> list:
    return [complex(re, im) for re, im in pairs]


def load_reference() -> dict:
    """name -> cell reference, with roots and turning points as complex numbers."""
    cells = json.loads(REFERENCE.read_text())["cells"]
    for ref in cells.values():
        if "roots" in ref:
            ref["roots"] = roots_from_json(ref["roots"])
        if "stokes" in ref:
            ref["stokes"]["turning_points"] = roots_from_json(ref["stokes"]["turning_points"])
    return cells


def _reality(cell) -> list:
    """A3 for the PT-like pairs and at eps = 0; A8 for the broken control at eps > 0."""
    if not cell.roots:
        return []
    max_im = max(abs(r.imag) for r in cell.roots)
    if (cell.problem in wl.SYMMETRIC or cell.eps == 0.0) and not max_im < REAL_TOL:
        return [f"A3: max |Im lambda| = {max_im:.3e} is not below {REAL_TOL:g}"]
    if cell.problem == "ctrl" and cell.eps > 0.0 and not max_im > BROKEN_MIN_IM:
        return [f"A8: max |Im lambda| = {max_im:.3e} is not above {BROKEN_MIN_IM:g}"]
    return []


def _count(n: int, derived: dict) -> list:
    """A6: the count is within one of round(Delta I / (pi h))."""
    if abs(n - derived["predicted"]) > 1:
        return [f"A6: {n} roots, round(dI/(pi h)) = {derived['predicted']}"]
    return []


def _against_roots(got, want) -> list:
    if len(got) != len(want):
        return [f"{len(got)} roots, reference has {len(want)}"]
    worst = max((abs(a - b) for a, b in zip(got, want)), default=0.0)
    if not worst <= ROOT_TOL:
        return [f"root moved by {worst:.3e} from the reference (floor {ROOT_TOL:g})"]
    return []


def _stokes(st: dict, ref: dict | None) -> list:
    out = []
    tps = st["turning_points"]
    if len(tps) != 2 or len(st["terminations"]) != 6:
        return [f"{len(tps)} turning points and {len(st['terminations'])} curves, want 2 and 6"]
    # PT-like pairing at real lambda mirrors the graph: beta = -conj(alpha)
    mirror = abs(tps[0] + tps[1].conjugate())
    if not mirror < TP_TOL:
        out.append(f"turning points are not mirror images (defect {mirror:.3e})")
    ends = [sorted(t for o, t in zip(st["origins"], st["terminations"]) if o == k)
            for k in (0, 1)]
    if ends[0] != ends[1]:
        out.append(f"terminations are not mirrored: {ends}")
    if ref is not None:
        worst = max(abs(a - b) for a, b in zip(tps, ref["turning_points"]))
        if not worst <= TP_TOL:
            out.append(f"turning point moved by {worst:.3e} from the reference")
        if st["terminations"] != ref["terminations"]:
            out.append(f"terminations {st['terminations']} differ from {ref['terminations']}")
    return out


def check_cell(cell, derived: dict | None, ref: dict | None) -> list:
    """Reasons ``cell`` fails; empty when it passes.

    ``derived`` holds the counts the invariants need for the cell's (problem, h):
    ``predicted`` = round(Delta I / (pi h)) and ``indices``, the number of
    quantization indices in the window.  ``ref`` is the cell's frozen
    reference, or None for seeds other than 0.
    """
    if cell.error:
        return [f"raised {cell.error}"]
    out = [f"warned: {w}" for w in cell.warnings]
    kind = cell.name.split("/")[0]
    if kind == "stokes":
        if cell.stokes is None:
            return out + ["no Stokes graph"]
        return out + _stokes(cell.stokes, None if ref is None else ref["stokes"])
    if kind == "winding":
        if cell.winding is None:
            return out + ["no winding count"]
        want = derived["indices"] if ref is None else len(ref["roots"])
        if cell.winding != want:
            out.append(f"winding {cell.winding} differs from the {want} roots in the window")
        if ref is not None and cell.winding != ref["winding"]:
            out.append(f"winding {cell.winding}, reference {ref['winding']}")
        return out + _count(cell.winding, derived)
    if cell.roots is None:
        return out + ["no roots"]
    if kind == "pt":
        if cell.winding != len(cell.roots):
            out.append(f"winding {cell.winding} differs from {len(cell.roots)} roots")
        if ref is not None and cell.winding != ref["winding"]:
            out.append(f"winding {cell.winding}, reference {ref['winding']}")
    out += _reality(cell) + _count(len(cell.roots), derived)
    if ref is not None:
        out += _against_roots(cell.roots, ref["roots"])
    return out


def check_pass(workload: str, cells, derived: dict, reference: dict | None) -> dict:
    """name -> failure reasons for every expected cell of one pass.

    ``derived`` maps (problem, h) to the counts ``check_cell`` needs;
    ``reference`` is the frozen seed-0 table, or None for other seeds.
    """
    by_name = {c.name: c for c in cells}
    failures = {}
    for name in expected_cells(workload):
        cell = by_name.get(name)
        if cell is None:
            failures[name] = ["cell missing from the pass"]
            continue
        ref = None
        if reference is not None:
            ref = reference.get(name)
            if ref is None:
                failures[name] = ["cell missing from the reference"]
                continue
        failures[name] = check_cell(cell, derived.get((cell.problem, cell.h)), ref)
    for name in set(by_name) - set(expected_cells(workload)):
        failures[name] = ["unexpected cell"]
    return failures
