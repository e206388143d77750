"""Freeze the program's seed-0 outputs as the benchmark's reference data.

Run from the root of a checkout of the commit whose outputs are the reference:

    python3 bench/freeze.py

It runs one pass of every workload at seed 0, refuses to freeze a pass that
fails the invariant checks, and writes ``bench/reference/seed0.json``: the
roots of every cell, the winding counts, and the Stokes turning points and
curve terminations.  Winding cells take the roots of the WKB cell with the same
(problem, h, eps), so their count is checked against the number of roots.
"""
from __future__ import annotations

import json
import sys
import time

import checks
import run
import workloads as wl


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    cells = {}
    for workload in wl.WORKLOADS:
        st = wl.setup(workload, 0)
        t0 = time.perf_counter()
        done = wl.run_pass(st)
        seconds = time.perf_counter() - t0
        failures = checks.check_pass(workload, done, wl.derived_counts(st), None)
        bad = {name: reasons for name, reasons in failures.items() if reasons}
        if bad:
            print(f"{workload}: refusing to freeze failing cells: {bad}", file=sys.stderr)
            return 1
        print(f"{workload}: {len(done)} cells in {seconds:.1f} s")
        cells.update({c.name: c for c in done})

    ref = {}
    for name, c in sorted(cells.items()):
        if c.stokes is not None:
            ref[name] = {"stokes": {**c.stokes, "turning_points":
                                    checks.roots_to_json(c.stokes["turning_points"])}}
            continue
        entry = {}
        if c.roots is not None:
            entry["roots"] = checks.roots_to_json(c.roots)
        if c.winding is not None:
            entry["winding"] = c.winding
        if name.startswith("winding/"):
            twin = cells[wl.cell_name("wkb", c.problem, c.h, c.eps)]
            entry["roots"] = checks.roots_to_json(twin.roots)
            if c.winding != len(twin.roots):
                print(f"{name}: winding {c.winding} but {len(twin.roots)} WKB roots",
                      file=sys.stderr)
                return 1
        ref[name] = entry
    checks.REFERENCE.parent.mkdir(exist_ok=True)
    checks.REFERENCE.write_text(json.dumps({"meta": run.stamp(), "cells": ref}, indent=1,
                                           sort_keys=True) + "\n")
    print(f"wrote {checks.REFERENCE} ({len(ref)} cells)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
