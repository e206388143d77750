"""The benchmark's checks have power: a reference moved or cut by one root fails a cell.

These run on the frozen seed-0 reference alone, so they need no solver time.
Run from the root of a checkout: ``python3 -m pytest -q bench/tests``.
"""
import copy

import pytest

import checks
import workloads as wl

REFERENCE = checks.load_reference()


def _cell(name: str, ref: dict) -> wl.Cell:
    """The cell a pass that reproduces the reference exactly would return."""
    kind, problem, *rest = name.split("/")
    fields = dict(part.split("=") for part in rest)
    cell = wl.Cell(name, problem, float(fields["h"]) if "h" in fields else None,
                   float(fields["eps"]))
    if "stokes" in ref:
        cell.stokes = copy.deepcopy(ref["stokes"])
    elif kind == "winding":
        cell.winding = ref["winding"]
    else:
        cell.roots = list(ref["roots"])
        cell.winding = ref.get("winding")
    return cell


def _pass(workload: str):
    cells = [_cell(name, REFERENCE[name]) for name in checks.expected_cells(workload)]
    derived = {(c.problem, c.h): {"predicted": len(REFERENCE[c.name]["roots"]),
                                  "indices": len(REFERENCE[c.name]["roots"])}
               for c in cells if c.h is not None}
    return cells, derived


def _fail_frac(workload: str, reference: dict, cells=None) -> float:
    own_cells, derived = _pass(workload)
    failures = checks.check_pass(workload, cells or own_cells, derived, reference)
    return sum(1 for reasons in failures.values() if reasons) / len(failures)


def _first_with_roots(workload: str) -> str:
    return next(name for name in checks.expected_cells(workload)
                if REFERENCE[name].get("roots"))


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_reference_reproduced_passes(workload):
    assert _fail_frac(workload, REFERENCE) == 0.0
    assert _fail_frac(workload, None) == 0.0


@pytest.mark.parametrize("workload", ["pt_sweep", "semiclassical"])
def test_root_moved_by_1e6_fails(workload):
    name = _first_with_roots(workload)
    moved = copy.deepcopy(REFERENCE)
    moved[name]["roots"][0] += 1e-6
    assert _fail_frac(workload, moved) > 0.0


@pytest.mark.parametrize("workload", ["pt_sweep", "semiclassical"])
def test_root_moved_below_the_floor_passes(workload):
    name = _first_with_roots(workload)
    moved = copy.deepcopy(REFERENCE)
    moved[name]["roots"][0] += 0.5 * checks.ROOT_TOL
    assert _fail_frac(workload, moved) == 0.0


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_dropped_root_fails(workload):
    name = _first_with_roots(workload)
    dropped = copy.deepcopy(REFERENCE)
    dropped[name]["roots"].pop()
    assert _fail_frac(workload, dropped) > 0.0


def test_turning_point_moved_by_1e6_fails():
    name = wl.cell_name("stokes", "well", eps=wl.STOKES_EPS)
    moved = copy.deepcopy(REFERENCE)
    moved[name]["stokes"]["turning_points"][0] += 1e-6
    assert _fail_frac("semiclassical", moved) > 0.0


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_warning_or_error_fails(workload):
    for field, value in (("warnings", ["1 Newton seed(s) diverged"]),
                         ("error", "PhaseResolution: winding 2.4 is not close to an integer")):
        cells, _ = _pass(workload)
        setattr(cells[0], field, value)
        assert _fail_frac(workload, REFERENCE, cells) > 0.0


def test_reality_floors_bite_without_reference():
    cells, _ = _pass("pt_sweep")
    well = next(c for c in cells if c.problem == "well" and c.eps > 0)
    well.roots[0] += 2e-8j                        # A3 breaks under symmetry
    assert _fail_frac("pt_sweep", None, cells) > 0.0
    cells, _ = _pass("pt_sweep")
    ctrl = next(c for c in cells if c.problem == "ctrl" and c.eps > 0)
    ctrl.roots = [complex(r.real, 0.0) for r in ctrl.roots]   # A8's control turns real
    assert _fail_frac("pt_sweep", None, cells) > 0.0
