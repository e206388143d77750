"""The benchmark's workloads: problems drawn from a seed, their cell lists, and one timed pass.

Every workload is a closed loop in one process with ``jobs=1``: each cell starts
when the one before it has finished.  A pass runs the workload's fixed cell
list once, through zswkb's public entry points, and returns one ``Cell`` per
cell with the outputs the checks need.
"""
from __future__ import annotations

import functools
import math
import random
import time
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("pt_sweep", "semiclassical", "winding")

# The acceptance suite's problems: (potential JSON, lambda0, delta).  ``ctrl`` is
# A8's symmetry-broken control, A = 2 - exp(-x^2) with B = exp(-x^2).
BASE_PROBLEMS = {
    "well": ({"family": "well-even", "params": [2.0, 1.0], "strip_half_width": 10.0}, 1.5, 0.2),
    "tanh": ({"family": "monotone-odd", "params": [2.0], "strip_half_width": 0.5}, 1.0, 0.3),
    "ctrl": ({"family": "custom-sum-of-terms",
              "params": [0, 0, 2.0, 1.0, 0, 2, -1.0, 1.0, 1, 2, 1.0, 1.0],
              "strip_half_width": 10.0}, 1.5, 0.2),
}
SYMMETRIC = ("well", "tanh")

PT_PROBLEMS = ("well", "ctrl")
PT_H = [0.1]
PT_EPS = [0.05]                 # run_pt_sweep adds eps = 0 itself
SEMI_PROBLEMS = ("well", "tanh", "ctrl")
SEMI_H = [0.05, 0.025, 0.0125]
SEMI_EPS = [0.05, 0.0]
STOKES_PROBLEMS = ("well", "tanh")
STOKES_EPS = 0.05
WINDING_PROBLEMS = ("well", "tanh", "ctrl")
WINDING_H = (0.05, 0.025, 0.0125)
WINDING_EPS = 0.05

# Seeds other than 0 scale lambda0 and every potential parameter by a factor
# drawn from [1 - JITTER, 1 + JITTER].  The jitter is small so that the amount
# of work barely moves between seeds: at 1% a third of the seeds needed 17% more
# integration on ``winding``, where an extra contour-refinement round costs a
# whole Wronskian batch; at 0.2% most seeds do the same work as seed 0.
JITTER = 0.002
# A draw is rejected when a quantization level of a ``winding`` h falls within
# this share of a level spacing of a window edge.  The winding count and the
# quantization would then each count a root on the edge on either side, and
# the check that they agree would fail on the input rather than on the program.
# At eps = 0.05 the roots' real parts move by less than 0.03 level spacings.
EDGE_MARGIN = 0.05


@dataclass
class Cell:
    """One unit of work and what it produced."""

    name: str
    problem: str
    h: float
    eps: float
    seconds: float = 0.0
    roots: list | None = None          # complex eigenvalues, sorted by (Re, Im)
    winding: int | None = None
    stokes: dict | None = None         # turning points and curve terminations
    error: str | None = None
    warnings: list = field(default_factory=list)


def cell_name(kind: str, problem: str, h: float | None = None, eps: float | None = None) -> str:
    parts = [kind, problem]
    if h is not None:
        parts.append(f"h={h:g}")
    if eps is not None:
        parts.append(f"eps={eps:g}")
    return "/".join(parts)


def _jittered(name: str, rnd: random.Random) -> tuple:
    pot, lam0, delta = BASE_PROBLEMS[name]
    if rnd is None:
        return dict(pot), lam0, delta

    def scale(v):
        return v * (1.0 + JITTER * rnd.uniform(-1.0, 1.0))

    params = list(pot["params"])
    if pot["family"] == "custom-sum-of-terms":
        for i in range(0, len(params), 4):     # (target, kind, coeff, scale)
            params[i + 2] = scale(params[i + 2])
            if params[i + 1] != 0:              # const terms have no scale
                params[i + 3] = scale(params[i + 3])
    else:
        params = [scale(p) for p in params]
    return {**pot, "params": params}, scale(lam0), delta


def _admissible(z, pot: dict, lam0: float, delta: float) -> bool:
    """A1 holds at lambda0 and at both window edges, and no level sits on an edge."""
    spec = z.spec_from_json(pot)
    try:
        for lam in (lam0 - delta, lam0, lam0 + delta):
            z.validate_A1(spec, lam, 8.0)
    except z.ZSWKBError:
        return False
    base = z.Problem(spec, lam0, delta, 0.1)
    edges = [z.action_integral(base, lam).value.real for lam in (lam0 - delta, lam0 + delta)]
    offset = z.quantize.branch_offset(z.select_branch(z.a1_report(base)))
    for h in WINDING_H:
        for edge in edges:
            frac = (edge / (math.pi * h) - offset) % 1.0
            if min(frac, 1.0 - frac) < EDGE_MARGIN:
                return False
    return True


def problem_table(z, seed: int) -> dict:
    """name -> (potential JSON, lambda0, delta); seed 0 is exactly the base problems."""
    table = {}
    for i, name in enumerate(BASE_PROBLEMS):
        if seed == 0:
            table[name] = _jittered(name, None)
            continue
        rnd = random.Random(seed * 1009 + i)
        for _ in range(100):
            drawn = _jittered(name, rnd)
            if _admissible(z, *drawn):
                table[name] = drawn
                break
        else:
            raise RuntimeError(f"seed {seed}: no admissible draw for {name}")
    return table


@dataclass
class Setup:
    """The imported package and the parsed configs of one workload."""

    z: object
    workload: str
    docs: dict          # name -> config JSON, as a CLI user would write it
    configs: dict       # name -> the parsed ExperimentConfig
    caches: tuple       # the problem-level lru_caches, emptied before each pass


def config_docs(workload: str, table: dict, seed: int) -> dict:
    """name -> the experiment config a CLI user would write for this workload."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    names, h_list, eps_list = {
        "pt_sweep": (PT_PROBLEMS, PT_H, PT_EPS),
        "semiclassical": (SEMI_PROBLEMS, SEMI_H, SEMI_EPS),
        "winding": (WINDING_PROBLEMS, list(WINDING_H), [WINDING_EPS]),
    }[workload]
    docs = {}
    for name in names:
        pot, lam0, delta = table[name]
        docs[name] = {"potential": pot, "lambda0": lam0, "delta": delta,
                      "h_list": h_list, "eps_list": eps_list,
                      "output_dir": ".bench_out", "seed_metadata": f"bench seed {seed}"}
    return docs


def setup(workload: str, seed: int) -> Setup:
    """Import zswkb, draw the problems from ``seed`` and parse the workload's configs."""
    import zswkb as z
    import zswkb.cli  # noqa: F401  (the entry points the workloads call)

    docs = config_docs(workload, problem_table(z, seed), seed)
    configs = {name: z.cli.config_from_json(doc) for name, doc in docs.items()}
    caches = (z.problem.a1_report, z.problem.symmetry_class, z.problem.domain_cuts)
    return Setup(z, workload, docs, configs, caches)


def derived_counts(st: Setup) -> dict:
    """(problem, h) -> the counts the invariant checks need, from the eps = 0 action.

    ``predicted`` is round(Delta I / (pi h)) over the window (A6) and
    ``indices`` the number of quantization levels inside it.
    """
    z = st.z
    out = {}
    hs = {"pt_sweep": PT_H, "semiclassical": SEMI_H, "winding": WINDING_H}[st.workload]
    for name, cfg in st.configs.items():
        for h in hs:
            base = z.cli.make_problem(cfg, h, 0.0)
            d_i = (z.action_integral(base, cfg.lambda0 + cfg.delta).value.real
                   - z.action_integral(base, cfg.lambda0 - cfg.delta).value.real)
            out[(name, h)] = {"predicted": round(d_i / (math.pi * h)),
                              "indices": len(z.enumerate_indices(base))}
    return out


def _sorted_roots(records) -> list:
    return sorted((complex(r.lam) for r in records), key=lambda l: (l.real, l.imag))


@contextmanager
def _observed(cell: Cell):
    """Add the block's time, warnings and exception to ``cell``; the exception propagates."""
    t0 = time.perf_counter()
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            yield
    except Exception as exc:
        cell.error = f"{type(exc).__name__}: {exc}"
        raise
    finally:
        cell.seconds += time.perf_counter() - t0
        cell.warnings.extend(str(w.message) for w in caught)


class _Capture:
    """Route each call of one module attribute through ``_observed`` into the cell of its problem."""

    def __init__(self, module, attr: str, cell_for, store):
        self.module, self.attr = module, attr
        self.original = getattr(module, attr)
        self.cell_for, self.store = cell_for, store

    def __enter__(self):
        original, cell_for, store = self.original, self.cell_for, self.store

        @functools.wraps(original)
        def wrapper(problem, *args, **kwargs):
            cell = cell_for(problem)
            with _observed(cell):
                result = original(problem, *args, **kwargs)
            store(cell, result)
            return result

        setattr(self.module, self.attr, wrapper)
        return self

    def __exit__(self, *exc):
        setattr(self.module, self.attr, self.original)
        return False


def _cell_lookup(st: Setup, kind: str, cells: dict):
    by_spec = {cfg.potential: name for name, cfg in st.configs.items()}

    def cell_for(problem):
        name = by_spec[problem.potential]
        key = cell_name(kind, name, problem.h, problem.eps)
        return cells.setdefault(key, Cell(key, name, problem.h, problem.eps))

    return cell_for


# The CLI catches ZSWKBError per cell and reports it in its rows; the captures
# have already recorded it in the cell by then.

def _pass_pt_sweep(st: Setup) -> list:
    z = st.z
    cells = {}
    cell_for = _cell_lookup(st, "pt", cells)

    def store_roots(cell, records):
        cell.roots = _sorted_roots(records)

    def store_winding(cell, zc):
        cell.winding = zc.winding

    with _Capture(z.direct, "direct_spectrum_complex", cell_for, store_roots), \
            _Capture(z.direct, "count_zeros", cell_for, store_winding):
        for name in PT_PROBLEMS:
            z.cli.run_pt_sweep(st.configs[name], jobs=1)
    return list(cells.values())


def _pass_semiclassical(st: Setup) -> list:
    z = st.z
    cells = {}
    cell_for = _cell_lookup(st, "wkb", cells)

    def store_roots(cell, records):
        cell.roots = _sorted_roots(records)

    with _Capture(z.quantize, "wkb_spectrum", cell_for, store_roots):
        for name in SEMI_PROBLEMS:
            z.cli.run_spectra(st.configs[name], "wkb", jobs=1)
    out = list(cells.values())
    Path(".bench_out").mkdir(exist_ok=True)
    for name in STOKES_PROBLEMS:
        cell = Cell(cell_name("stokes", name, eps=STOKES_EPS), name,
                    st.configs[name].h_list[0], STOKES_EPS)
        try:
            with _observed(cell):
                doc = z.cli.run_stokes(st.configs[name], eps=STOKES_EPS,
                                       out=Path(".bench_out") / f"stokes_{name}.json")
            cell.stokes = {
                "turning_points": [complex(re, im) for re, im in doc["turning_points"]],
                "origins": [c["origin"] for c in doc["curves"]],
                "terminations": [c["termination"] for c in doc["curves"]],
            }
        except z.ZSWKBError:
            pass
        out.append(cell)
    return out


def _pass_winding(st: Setup) -> list:
    z = st.z
    out = []
    for name in WINDING_PROBLEMS:
        for h in WINDING_H:
            problem = z.cli.make_problem(st.configs[name], h, WINDING_EPS)
            cell = Cell(cell_name("winding", name, h, WINDING_EPS), name, h, WINDING_EPS)
            try:
                with _observed(cell):
                    cell.winding = z.direct.count_zeros(problem, z.window_rectangle(problem)).winding
            except z.ZSWKBError:
                pass
            out.append(cell)
    return out


PASSES = {"pt_sweep": _pass_pt_sweep, "semiclassical": _pass_semiclassical,
          "winding": _pass_winding}


def run_pass(st: Setup) -> list:
    """One cold pass over the workload's cell list; returns its cells by name."""
    for cache in st.caches:     # every pass starts cold, as a new CLI process does
        cache.cache_clear()
    return sorted(PASSES[st.workload](st), key=lambda c: c.name)
