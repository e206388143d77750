"""zswkb benchmark: one workload, timed end to end and checked at the acceptance floors.

Run from the root of a checkout:

    python3 bench/run.py --workload pt_sweep --seed 0 --seconds 30 --trace 0

The workloads are in ``workloads.py`` and the checks in ``checks.py``.  With
``--trace 0`` the last line of standard output reports the end-to-end metrics;
with ``--trace 1`` it reports the per-layer metrics of one traced pass and the
tracing overhead.  Full results, the per-layer table and the spans go to
``.bench_out/`` in the checkout.  See ``bench/README.md``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import calibrate
import checks
import spans
import workloads as wl

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 5

# One probe process: import zswkb and parse the workload's configs, as the CLI
# does.  It prints the set-up seconds since the parent started it, without the
# calibration kernels, and the kernel's time before and after set-up (the best
# of three each, so that one interrupt does not count).
_PROBE = """\
import json, sys, time
t0 = float(sys.argv[1])
sys.path[:0] = [sys.argv[2], sys.argv[3]]
from calibrate import interpreter_seconds   # imports numpy, as zswkb does
k0 = time.monotonic()
before = min(interpreter_seconds() for _ in range(3))
k1 = time.monotonic()
import zswkb.cli
for doc in json.loads(sys.argv[4]).values():
    zswkb.cli.config_from_json(doc)
seconds = time.monotonic() - t0 - (k1 - k0)
after = min(interpreter_seconds() for _ in range(3))
print(repr(seconds), repr(before), repr(after))
"""


def measure_setup(docs: dict) -> tuple:
    """Median set-up seconds over fresh processes: (wall, at the uncontended speed).

    Set-up runs from process start until zswkb is imported and the configs
    are parsed.
    """
    wall, corrected = [], []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()   # CLOCK_MONOTONIC is shared by all processes on Linux
        proc = subprocess.run([sys.executable, "-c", _PROBE, repr(t0), str(SRC), str(BENCH),
                               json.dumps(docs)],
                              cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        seconds, before, after = map(float, proc.stdout.split()[-3:])
        wall.append(seconds)
        corrected.append(seconds * calibrate.REF_INTERPRETER_S / (0.5 * (before + after)))
    return statistics.median(wall), statistics.median(corrected)


def timed_pass(st) -> tuple:
    """One pass: (wall seconds, seconds at the uncontended speed, cells)."""
    with calibrate.Sampler() as sampler:
        t0 = time.perf_counter()
        cells = wl.run_pass(st)
        t1 = time.perf_counter()
    return t1 - t0, sampler.corrected(t0, t1), cells


def stamp() -> dict:
    """What later results need to be compared with this one."""
    sha = "unknown"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30).stdout.strip() or sha
        except (OSError, subprocess.SubprocessError):
            pass
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"git_sha": sha, "python": platform.python_version(), "numpy": np.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu}


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "zswkb" / "__init__.py").is_file():
        print(f"bench: no zswkb sources under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    st = wl.setup(args.workload, args.seed)
    if not Path(st.z.__file__).resolve().is_relative_to(SRC):
        print(f"bench: imported zswkb from {st.z.__file__}, not {SRC}", file=sys.stderr)
        return 2
    setup_wall_s, setup_s = measure_setup(st.docs)
    reference = checks.load_reference() if args.seed == 0 else None

    # closed loop: passes back to back while another one fits in --seconds
    passes = []
    deadline = time.perf_counter() + args.seconds
    while True:
        passes.append(timed_pass(st))
        if time.perf_counter() + passes[-1][0] > deadline:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    sweep_s = statistics.median(seconds for _, seconds, _ in passes)

    tracer = None
    if args.trace:
        with spans.Tracer(st.z) as tracer:
            passes.append(timed_pass(st))

    OUT.mkdir(exist_ok=True)
    derived = wl.derived_counts(st)
    layers = tracer.layer_table() if tracer is not None else None
    attempted = failed = 0
    report = []
    print(f"setup: wall {setup_wall_s:.4f} s, at the uncontended speed {setup_s:.4f} s")
    for i, (wall, seconds, cells) in enumerate(passes):
        label = "traced pass" if tracer is not None and i == len(passes) - 1 else f"pass {i + 1}"
        failures = checks.check_pass(args.workload, cells, derived, reference)
        attempted += len(failures)
        failed += sum(1 for reasons in failures.values() if reasons)
        print(f"{label}: wall {wall:.3f} s, at the uncontended speed {seconds:.3f} s")
        for cell in cells:
            reasons = failures.get(cell.name, [])
            print(f"  {cell.name:<32} {cell.seconds:8.3f} s  {'FAIL: ' + '; '.join(reasons) if reasons else 'ok'}")
        for name in failures.keys() - {c.name for c in cells}:
            print(f"  {name:<32} FAIL: {'; '.join(failures[name])}")
        report.append({"label": label, "wall_s": wall, "seconds": seconds, "cells": [
            {"name": c.name, "seconds": c.seconds, "failures": failures.get(c.name, [])}
            for c in cells]})

    if tracer is None:
        metrics = {"sweep_s": (sweep_s, "s"), "setup_s": (setup_s, "s"),
                   "peak_rss_mb": (peak_rss_mb, "MB")}
    else:
        traced_s = passes[-1][1]
        metrics = tracer.metrics()
        metrics["trace.sweep_s"] = (traced_s, "s")
        metrics["trace.overhead_s"] = (traced_s - sweep_s, "s")
        np.savez_compressed(OUT / f"spans_{args.workload}_seed{args.seed}.npz", **tracer.span_arrays())
        print("layer            calls     self_s    total_s")
        for layer, row in layers.items():
            print(f"  {layer:<14} {row['calls']:8d} {row['self_s']:10.3f} {row['total_s']:10.3f}")
    print(f"fail_frac: {failed}/{attempted} = {failed / attempted:.4f}")
    info = stamp()
    print("stamp " + json.dumps(info, sort_keys=True))

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    (OUT / f"result_{args.workload}_seed{args.seed}_trace{args.trace}.json").write_text(json.dumps(
        {**result, "workload": args.workload, "seed": args.seed, "stamp": info,
         "setup_wall_s": setup_wall_s,
         "fail_frac": failed / attempted, "passes": report, "layers": layers},
        indent=1, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
