"""Semiclassical Zakharov-Shabat eigenvalue toolkit.

Computes eigenvalues of the 2x2 Zakharov-Shabat system two independent ways:
Bohr-Sommerfeld-type quantization of the action integral between complex
turning points, and a direct Wronskian shooting solver, then cross-validates
and probes the reality of spectra under PT-like symmetric perturbations.
"""

from .action import ActionValue, action_integral, check_schwarz_symmetry
from .direct import (WronskianSample, ZeroCount, count_zeros, direct_spectrum_complex,
                     direct_spectrum_real, wronskian)
from .errors import ZSWKBError
from .potential import (A1Report, PotentialSpec, SymmetryClass, WellType,
                        classify_symmetry, custom, eval_potential, monotone_odd,
                        spec_from_json, spec_to_json, validate_A1, well_even)
from .problem import Problem, Tolerances, a1_report, domain_cuts, symmetry_class, window_rectangle
from .quantize import (Branch, EigenvalueRecord, Method, enumerate_indices,
                       select_branch, solve_quantization, wkb_spectrum)
from .stokes import (StokesCurve, StokesGraph, Termination, build_graph,
                     graph_to_json, stokes_directions, trace_stokes_line)
from .turning import TurningPointPair, find_turning_points

__version__ = "0.1.0"

__all__ = [
    "ActionValue", "A1Report", "Branch", "EigenvalueRecord", "Method",
    "PotentialSpec", "Problem", "StokesCurve", "StokesGraph", "SymmetryClass",
    "Termination", "Tolerances", "TurningPointPair", "WellType",
    "WronskianSample", "ZSWKBError", "ZeroCount",
    "a1_report", "action_integral", "build_graph", "check_schwarz_symmetry",
    "classify_symmetry", "count_zeros", "custom", "direct_spectrum_complex",
    "direct_spectrum_real", "domain_cuts", "enumerate_indices", "eval_potential",
    "find_turning_points", "graph_to_json", "monotone_odd",
    "select_branch", "solve_quantization",
    "spec_from_json", "spec_to_json", "stokes_directions", "symmetry_class",
    "trace_stokes_line", "validate_A1", "well_even", "window_rectangle",
    "wkb_spectrum", "wronskian",
]
