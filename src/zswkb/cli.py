"""Batch experiment harness: config ingestion, sweeps, comparison tables, CSV/JSON emission.

One command table drives the CSV commands: a cell yields rows in its command's
column order, or the command's failure rows. Outputs are deterministic: fixed
column order, 17 significant digits, rows sorted after any parallel execution,
and every file carries the config hash and the tolerance set that produced it.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import logging
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import direct, quantize, stokes
from .errors import A1Violated, ConfigError, ZSWKBError
from .potential import PotentialSpec, spec_from_json, spec_to_json
from .problem import Problem, Tolerances, a1_report, symmetry_class, window_rectangle

log = logging.getLogger("zswkb")

_RECORD_HEADER = ["re_lambda", "im_lambda", "k", "branch", "method", "residual", "h", "eps"]
_COMPARE_HEADER = ["h", "eps", "k_proxy", "re_lambda_wkb", "im_lambda_wkb",
                   "re_lambda_direct", "im_lambda_direct", "abs_diff", "branch", "error"]
_PT_HEADER = ["eps", "h", "max_im_lambda", "symmetry_class", "winding_ok", "n_roots", "error"]


@dataclass(frozen=True)
class ExperimentConfig:
    """One sweep; ValueError on an empty, ascending or repeating h/eps list or an invalid cell."""

    potential: PotentialSpec
    lambda0: float
    delta: float
    h_list: tuple
    eps_list: tuple
    cutoff: float = 8.0
    tolerances: Tolerances = Tolerances()
    output_dir: str = "."
    seed_metadata: str = ""

    def __post_init__(self):
        for name, values in (("h_list", self.h_list), ("eps_list", self.eps_list)):
            # a repeated value would run its cells twice
            if not values or list(values) != sorted(set(values), reverse=True):
                raise ValueError(f"{name} must be sorted descending and nonempty, "
                                 f"with no repeated value")
        for h in self.h_list:
            for eps in self.eps_list:
                make_problem(self, h, eps)


def config_from_json(obj: dict) -> ExperimentConfig:
    """Parse an experiment config; ConfigError on a bad shape or value.

    Each value is checked by the type that holds it, each cell's Problem included.
    """
    try:
        tol_overrides = obj.get("tolerances", {})
        if not isinstance(tol_overrides, dict):
            raise ConfigError("tolerances must be a JSON object of name: value")
        # float() and the tolerance checks would read a JSON true as 1
        pot = obj["potential"]
        numbers = (obj["lambda0"], obj["delta"], obj.get("cutoff", 8.0), *obj["h_list"],
                   *obj["eps_list"], *tol_overrides.values(), *pot["params"],
                   pot["strip_half_width"])
        if any(isinstance(v, bool) for v in numbers):
            raise ConfigError("a boolean is not a number in an experiment config")
        unknown = set(tol_overrides) - set(Tolerances.__dataclass_fields__)
        if unknown:
            raise ConfigError(f"unknown tolerance names: {sorted(unknown)}")
        cfg = ExperimentConfig(
            potential=spec_from_json(pot),
            lambda0=float(obj["lambda0"]),
            delta=float(obj["delta"]),
            h_list=tuple(float(h) for h in obj["h_list"]),
            eps_list=tuple(float(e) for e in obj["eps_list"]),
            cutoff=float(obj.get("cutoff", 8.0)),
            tolerances=Tolerances(**tol_overrides),
            output_dir=str(obj.get("output_dir", ".")),
            seed_metadata=str(obj.get("seed_metadata", "")),
        )
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad experiment config: {exc}") from exc
    return cfg


def load_config(path) -> ExperimentConfig:
    try:
        obj = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return config_from_json(obj)


def config_hash(config: ExperimentConfig) -> str:
    semantic = {
        "potential": spec_to_json(config.potential),
        "lambda0": config.lambda0,
        "delta": config.delta,
        "h_list": list(config.h_list),
        "eps_list": list(config.eps_list),
        "cutoff": config.cutoff,
        "tolerances": config.tolerances.as_dict(),
        "seed_metadata": config.seed_metadata,
    }
    blob = json.dumps(semantic, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def make_problem(config: ExperimentConfig, h: float, eps: float) -> Problem:
    return Problem(config.potential, config.lambda0, config.delta, h, eps,
                   cutoff=config.cutoff, tolerances=config.tolerances)


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def write_csv(path, header, rows, meta: dict) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as f:
        # the metadata lines stay raw: the tolerance JSON holds commas and quotes
        f.writelines(f"# {k}={v}\n" for k, v in sorted(meta.items()))
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_fmt(v) for v in row] for row in rows)


def _meta(config: ExperimentConfig) -> dict:
    return {
        "config_sha256": config_hash(config),
        "tolerances": json.dumps(config.tolerances.as_dict(),
                                 sort_keys=True, separators=(",", ":")),
        "seed_metadata": config.seed_metadata,
    }


def _match_records(wkb_records, direct_records) -> tuple:
    """Greedy nearest-lambda matching; a bijection when the counts agree.

    The (distance, i, j) triples are sorted once, and each whose two indices
    are still free is taken: the pairs, ties included, that repeatedly taking
    the nearest free pair gives.
    """
    pairs, free_w, free_d = [], set(range(len(wkb_records))), set(range(len(direct_records)))
    for _, i, j in sorted((abs(w.lam - d.lam), i, j) for i, w in enumerate(wkb_records)
                          for j, d in enumerate(direct_records)):
        if i in free_w and j in free_d:
            pairs.append((i, j))
            free_w.remove(i)
            free_d.remove(j)
    return pairs, sorted(free_w), sorted(free_d)


def _compare_rows(problem: Problem) -> list:
    wkb_records = quantize.wkb_spectrum(problem)
    direct_records = direct.direct_spectrum_complex(problem)
    pairs, free_w, free_d = _match_records(wkb_records, direct_records)

    def row(wr, dr, error=""):
        # an unmatched record leaves the other side's columns empty
        w, d = [(None, None) if r is None else (r.lam.real, r.lam.imag) for r in (wr, dr)]
        branch = (wr or dr).branch
        return [problem.h, problem.eps, dr.k if dr else None, *w, *d,
                abs(wr.lam - dr.lam) if wr and dr else None,
                branch.value if branch else "", error]

    return ([row(wkb_records[i], direct_records[j]) for i, j in pairs]
            + [row(wkb_records[i], None, "unmatched-wkb") for i in free_w]
            + [row(None, direct_records[j], "unmatched-direct") for j in free_d])


def _pt_rows(problem: Problem) -> list:
    # classified first, so the row of a failed cell reads the cached class
    sym = symmetry_class(problem).value
    records = direct.direct_spectrum_complex(problem)
    zc = direct.count_zeros(problem, window_rectangle(problem))
    max_im = max((abs(r.lam.imag) for r in records), default=0.0)
    return [[problem.eps, problem.h, max_im, sym, zc.winding == len(records), len(records), ""]]


def _record_rows(records) -> list:
    return [[r.lam.real, r.lam.imag, r.k, r.branch.value if r.branch else "",
             r.method.value, r.residual, r.h, r.eps] for r in records]


class _Command(NamedTuple):
    header: list
    file_name: str             # default, in the config's output_dir
    noun: str                  # of the "wrote" line
    rows: Callable             # Problem -> rows of one cell, in header order
    failed_rows: Callable      # (Problem, error) -> rows a failed cell writes
    with_zero: bool            # eps = 0 is swept whatever eps_list holds
    key: Callable              # sort key of the rows


_COMMANDS = {
    "wkb": _Command(_RECORD_HEADER, "wkb.csv", "records",
                    lambda p: _record_rows(quantize.wkb_spectrum(p)), lambda p, err: [],
                    False, lambda r: (-r[6], r[7], r[0])),
    "direct": _Command(_RECORD_HEADER, "direct.csv", "records",
                       lambda p: _record_rows(direct.direct_spectrum_complex(p)),
                       lambda p, err: [], False, lambda r: (-r[6], r[7], r[0])),
    "compare": _Command(_COMPARE_HEADER, "compare.csv", "rows", _compare_rows,
                        lambda p, err: [[p.h, p.eps, *[None] * 6, "", err]], True,
                        lambda r: (-r[0], r[1], 1 << 30 if r[2] is None else r[2], r[9])),
    "pt-sweep": _Command(_PT_HEADER, "pt_sweep.csv", "rows", _pt_rows,
                         lambda p, err: [[p.eps, p.h, None, symmetry_class(p).value,
                                          None, None, err]],
                         True, lambda r: (-r[0], -r[1])),
}


def _cell(args):
    """One (h, eps) cell of a sweep: its rows, and its failure line or None."""
    command, config, h, eps = args
    problem = make_problem(config, h, eps)
    cmd = _COMMANDS[command]
    try:
        return cmd.rows(problem), None
    except ZSWKBError as exc:
        err = f"{type(exc).__name__}: {exc}"
        return cmd.failed_rows(problem, err), f"h={h} eps={eps}: {err}"


def _sweep(command: str, config: ExperimentConfig, jobs: int):
    """Every (h, eps) cell of a CSV command, h-major, in ``jobs`` processes when jobs > 1.

    Returns all cells' rows sorted by the command's key, and each failed cell's line.
    """
    cmd = _COMMANDS[command]
    eps_values = sorted({*config.eps_list, 0.0}, reverse=True) if cmd.with_zero else config.eps_list
    cells = [(command, config, h, eps) for h in config.h_list for eps in eps_values]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_cell, cells))
    else:
        results = [_cell(c) for c in cells]
    rows = sorted((row for cell_rows, _ in results for row in cell_rows), key=cmd.key)
    return rows, [err for _, err in results if err is not None]


def fit_convergence_slope(rows) -> float | None:
    """Least-squares slope of log(max |wkb - direct|) against log h over eps = 0 compare rows."""
    by_h = {}
    for h, eps, *_, abs_diff, _branch, _error in rows:
        if eps == 0.0 and abs_diff is not None:
            by_h.setdefault(h, []).append(abs_diff)
    pts = [(h, max(d)) for h, d in by_h.items() if max(d) > 0]
    if len(pts) < 2:
        return None
    lx = np.log([p[0] for p in pts])
    ly = np.log([p[1] for p in pts])
    return float(np.polyfit(lx, ly, 1)[0])


def run_compare(config: ExperimentConfig, jobs: int = 1):
    """Both spectra per (h, eps) cell, matched by nearest lambda; eps = 0 always included."""
    rows, errors = _sweep("compare", config, jobs)
    return rows, fit_convergence_slope(rows), errors


def run_pt_sweep(config: ExperimentConfig, jobs: int = 1):
    """Direct complex spectra per (eps, h) with reality and completeness summaries."""
    return _sweep("pt-sweep", config, jobs)


def run_stokes(config: ExperimentConfig, lam: float | None = None,
               eps: float | None = None, out=None) -> dict:
    """Trace the Stokes graph at one (lambda, eps) and write it as JSON.

    Raises ConfigError for a non-finite ``lam`` or a negative or non-finite ``eps``.
    """
    if lam is None:
        lam = config.lambda0
    if eps is None:
        eps = config.eps_list[0]
    if not math.isfinite(lam):
        raise ConfigError(f"stokes lambda must be finite, got {lam}")
    try:
        problem = make_problem(config, config.h_list[0], eps)
    except ValueError as exc:
        raise ConfigError(f"stokes eps={eps}: {exc}") from exc
    graph = stokes.build_graph(problem, complex(lam))
    doc = {"meta": {**_meta(config), "lambda": lam, "eps": eps}}
    doc.update(stokes.graph_to_json(graph))
    if out is None:
        out = Path(config.output_dir) / "stokes.json"
    out = Path(out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(doc, sort_keys=True))
    n_term = {}
    for c in graph.curves:
        n_term[c.termination.value] = n_term.get(c.termination.value, 0) + 1
    log.info("stokes graph: %d turning points, %d curves, terminations %s",
             len(graph.turning_points), len(graph.curves), n_term)
    return doc


def run_spectra(config: ExperimentConfig, which: str, jobs: int = 1):
    """WKB (``which="wkb"``) or direct (``"direct"``) records per (h, eps) cell."""
    return _sweep(which, config, jobs)


def run_validate(config: ExperimentConfig) -> dict:
    problem = make_problem(config, config.h_list[0], config.eps_list[0])
    report, sym = a1_report(problem), symmetry_class(problem)
    return {
        "config_sha256": config_hash(config),
        "family": config.potential.family,
        "symmetry_class": sym.value,
        "alpha0": report.alpha0,
        "beta0": report.beta0,
        "lambda0": report.lambda0,
        "slopes": list(report.slopes),
        "well_type": report.well_type.value,
        "margin_at_infinity": report.margin_at_infinity,
    }


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="zswkb", description=__doc__)
    p.add_argument("--verbose", action="store_true")
    sub = p.add_subparsers(dest="command", required=True)
    for name in ("validate", *_COMMANDS, "stokes"):
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True)
        sp.add_argument("--out", default=None)
        if name in _COMMANDS:
            sp.add_argument("--jobs", type=int, default=1)
        if name == "stokes":
            sp.add_argument("--lam", type=float, default=None)
            sp.add_argument("--eps", type=float, default=None)
    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    logging.basicConfig(level=logging.INFO if args.verbose else logging.WARNING,
                        format="%(levelname)s %(message)s")
    try:
        config = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    out_dir = Path(config.output_dir)
    try:
        if args.command == "validate":
            try:
                doc = run_validate(config)
            except A1Violated as exc:
                print(f"config error: potential fails the simple-well check: {exc}",
                      file=sys.stderr)
                return 1
            text = json.dumps(doc, sort_keys=True, indent=2)
            if args.out:
                Path(args.out).parent.mkdir(parents=True, exist_ok=True)
                Path(args.out).write_text(text)
            print(text)
            return 0
        if args.command == "stokes":
            out = args.out if args.out else out_dir / "stokes.json"
            try:
                doc = run_stokes(config, lam=args.lam, eps=args.eps, out=out)
            except ConfigError as exc:
                print(f"config error: {exc}", file=sys.stderr)
                return 1
            print(f"wrote {out} ({len(doc['curves'])} curves)")
            return 0
        rows, errors = _sweep(args.command, config, args.jobs)
        meta, note = _meta(config), ""
        if args.command == "compare":
            slope = fit_convergence_slope(rows)
            meta["convergence_slope"] = "" if slope is None else f"{slope:.17g}"
            note = f", convergence slope: {slope}"
        cmd = _COMMANDS[args.command]
        out = Path(args.out) if args.out else out_dir / cmd.file_name
        write_csv(out, cmd.header, rows, meta)
        print(f"wrote {out} ({len(rows)} {cmd.noun}){note}")
        for e in errors:
            print(f"cell failed: {e}", file=sys.stderr)
        return 2 if errors else 0
    except ZSWKBError as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def main_entry() -> None:
    sys.exit(main())
