import csv
import dataclasses
import json
import math

import numpy as np
import pytest

import zswkb as z
from zswkb.cli import (_COMPARE_HEADER, _fmt, _match_records, _sweep, config_from_json,
                       config_hash, fit_convergence_slope, load_config, main, make_problem,
                       run_pt_sweep, run_spectra, run_stokes, run_validate)
from zswkb.errors import BoundaryZero, ConfigError, NoConvergence, ZSWKBError

from oracles import assert_graph_document


def base_config_dict(tmp_path, **overrides):
    doc = {
        "potential": {"family": "monotone-odd", "params": [2.0],
                      "strip_half_width": 0.5},
        "lambda0": 1.0,
        "delta": 0.3,
        "h_list": [0.1],
        "eps_list": [0.0],
        "cutoff": 8.0,
        "output_dir": str(tmp_path),
        "seed_metadata": "test-run",
    }
    doc.update(overrides)
    return doc


def write_config(tmp_path, **overrides):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(base_config_dict(tmp_path, **overrides)))
    return path


def test_config_validation_errors(tmp_path):
    with pytest.raises(ConfigError):
        config_from_json(base_config_dict(tmp_path, h_list=[]))
    with pytest.raises(ConfigError):
        config_from_json(base_config_dict(tmp_path, h_list=[0.05, 0.1]))
    with pytest.raises(ConfigError):
        config_from_json(base_config_dict(tmp_path, eps_list=[-0.1]))
    with pytest.raises(ConfigError, match="eps_list must be sorted descending"):
        config_from_json(base_config_dict(tmp_path, eps_list=[0.01, 0.05]))
    with pytest.raises(ConfigError):
        config_from_json(base_config_dict(tmp_path, tolerances={"bogus": 1.0}))
    with pytest.raises(ConfigError):
        config_from_json(base_config_dict(tmp_path, tolerances={"quad_rel": -1.0}))
    with pytest.raises(ConfigError):
        config_from_json({})
    nan = float("nan")
    for bad in ({"tolerances": {"quad_rel": "abc"}}, {"tolerances": {"quad_rel": nan}},
                {"tolerances": {"quad_min_nodes": 32.5}}, {"tolerances": {"quad_min_nodes": 64.0}},
                {"cutoff": 0.0}, {"cutoff": -1.0},
                {"h_list": [nan]}, {"eps_list": [nan]}, {"lambda0": nan}, {"delta": nan},
                {"tolerances": {"quad_max_nodes": 32}},
                {"tolerances": {"quad_min_nodes": 64, "quad_max_nodes": 96}}):
        with pytest.raises(ConfigError):
            config_from_json(base_config_dict(tmp_path, **bad))
    pot = {"family": "monotone-odd", "params": [2.0], "strip_half_width": 0.5}
    for bad in ({"lambda0": True}, {"delta": True}, {"cutoff": True}, {"h_list": [True]},
                {"eps_list": [False]}, {"tolerances": {"quad_max_nodes": True}},
                {"tolerances": {"ode_rtol": True}}, {"potential": {**pot, "params": [True]}},
                {"potential": {**pot, "strip_half_width": True}}):
        with pytest.raises(ConfigError, match="boolean"):
            config_from_json(base_config_dict(tmp_path, **bad))


@pytest.mark.parametrize("fields, message", [
    ({"h_list": ()}, "h_list must be sorted descending and nonempty"),
    ({"eps_list": ()}, "eps_list must be sorted descending and nonempty"),
    ({"h_list": (0.05, 0.1)}, "h_list must be sorted descending"),
    ({"h_list": (0.1, 0.1)}, "h_list must be sorted descending.*no repeated value"),
    ({"eps_list": (0.05, 0.0, 0.0)}, "eps_list must be sorted descending.*no repeated value"),
    ({"lambda0": -1.5}, "lambda0, delta and h must be positive"),
], ids=["empty_h", "empty_eps", "ascending_h", "repeated_h", "repeated_eps",
        "negative_lambda0"])
def test_experiment_config_checks_its_lists_and_cells_when_built(fields, message):
    # a library caller that builds the config without config_from_json gets
    # the same checks: no empty sweep, no IndexError from run_stokes, no
    # ValueError from the middle of a sweep, and no cell run twice (a repeated
    # h once wrote every pt-sweep row twice)
    given = {"potential": z.well_even(), "lambda0": 1.5, "delta": 0.2, "h_list": (0.1,),
             "eps_list": (0.05,), **fields}
    with pytest.raises(ValueError, match=message):
        z.cli.ExperimentConfig(**given)


def test_float_node_count_is_a_config_error(tmp_path, capsys):
    # 64.0 once passed the check as an integer, then failed the action
    # quadrature with a TypeError traceback on a slice index
    config_path = write_config(tmp_path, tolerances={"quad_min_nodes": 64.0})
    assert main(["wkb", "--config", str(config_path)]) == 1
    assert capsys.readouterr().err.startswith("config error: ")
    assert not (tmp_path / "wkb.csv").exists()


@pytest.mark.parametrize("command", ["validate", "stokes"])
def test_jobs_is_an_option_of_the_csv_commands_only(tmp_path, command):
    config_path = write_config(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", str(config_path), "--jobs", "2"])
    assert exc.value.code == 2


@pytest.mark.parametrize("tolerances", [[1], "x", 5])
def test_config_rejects_tolerances_that_are_not_an_object(tmp_path, capsys, tolerances):
    with pytest.raises(ConfigError, match="tolerances"):
        config_from_json(base_config_dict(tmp_path, tolerances=tolerances))
    config_path = write_config(tmp_path, tolerances=tolerances)
    assert main(["validate", "--config", str(config_path)]) == 1
    assert capsys.readouterr().err.startswith("config error: ")


@pytest.mark.parametrize("command", ["validate", "pt-sweep"])
def test_config_rejects_non_finite_potential_params(tmp_path, capsys, command):
    # a NaN coefficient of B once passed validate as a simple well, and
    # pt-sweep then failed with a misleading BoundaryZero
    pot = {"family": "custom-sum-of-terms",
           "params": [0, 0, 2.0, 1.0, 0, 2, -1.0, 1.0, 1, 2, math.nan, 1.0],
           "strip_half_width": 10.0}
    config_path = write_config(tmp_path, potential=pot, lambda0=1.5, delta=0.2)
    assert main([command, "--config", str(config_path)]) == 1
    assert capsys.readouterr().err.startswith("config error: ")


def test_validate_creates_the_parent_of_its_output(tmp_path):
    config_path = write_config(tmp_path)
    out = tmp_path / "a" / "b" / "v.json"
    assert main(["validate", "--config", str(config_path), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["well_type"] == "monotonic"


def test_config_hash_ignores_output_dir(tmp_path):
    a = config_from_json(base_config_dict(tmp_path))
    b = config_from_json(base_config_dict(tmp_path, output_dir="elsewhere"))
    c = config_from_json(base_config_dict(tmp_path, lambda0=1.1))
    assert config_hash(a) == config_hash(b)
    assert config_hash(a) != config_hash(c)


@pytest.mark.parametrize("params", [
    [0, 2.9, 2.0, 1.0],     # kind 2.9 must not be read as gauss
    [1.2, 0, 2.0, 1.0],     # target 1.2 must not be read as B
    [0, 4, 2.0, 1.0],
    [-1, 0, 2.0, 1.0],
    [0, float("nan"), 2.0, 1.0],
])
def test_config_rejects_bad_custom_term_codes(tmp_path, params):
    pot = {"family": "custom-sum-of-terms", "params": params, "strip_half_width": 10.0}
    with pytest.raises(ConfigError, match="term codes"):
        config_from_json(base_config_dict(tmp_path, potential=pot))


# SHA-256 of the benchmark's three problems, pinned from the commit before the
# built-in families became presets of the term list: family names, params and
# the config JSON must hash exactly as they did.
BENCH_PROBLEM_HASHES = {
    "well": ({"family": "well-even", "params": [2.0, 1.0], "strip_half_width": 10.0}, 1.5, 0.2,
             "3bbb6abc614c0b1ea91c38eeaf3f01cdc7269f4f85fb8df3a1980bf9acaa981d"),
    "tanh": ({"family": "monotone-odd", "params": [2.0], "strip_half_width": 0.5}, 1.0, 0.3,
             "275a666f7dc7ca3f154a3b8ea62fe30bded5b02b792341a09706ba16f2b9251d"),
    "ctrl": ({"family": "custom-sum-of-terms",
              "params": [0, 0, 2.0, 1.0, 0, 2, -1.0, 1.0, 1, 2, 1.0, 1.0],
              "strip_half_width": 10.0}, 1.5, 0.2,
             "fa60d924c37e143d07a2adcfddca0ddeab4ff68ef78247c9528191f43acf34b8"),
}


@pytest.mark.parametrize("name", sorted(BENCH_PROBLEM_HASHES))
def test_config_hash_pinned_for_bench_problems(name):
    pot, lam0, delta, digest = BENCH_PROBLEM_HASHES[name]
    cfg = config_from_json({"potential": pot, "lambda0": lam0, "delta": delta,
                            "h_list": [0.05, 0.025, 0.0125], "eps_list": [0.05, 0.0]})
    assert config_hash(cfg) == digest
    assert z.spec_to_json(cfg.potential) == {**pot, "params": [float(p) for p in pot["params"]]}


def test_run_validate_reports_well_data(tmp_path):
    cfg = config_from_json(base_config_dict(tmp_path))
    doc = run_validate(cfg)
    assert doc["well_type"] == "monotonic"
    assert doc["symmetry_class"] == "A-odd-B-even"
    assert doc["alpha0"] == pytest.approx(-math.atanh(0.5), abs=1e-9)


def test_compare_rows_and_determinism(tmp_path):
    config_path = write_config(tmp_path)
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert main(["compare", "--config", str(config_path), "--out", str(out_a)]) == 0
    assert main(["compare", "--config", str(config_path), "--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    lines = out_a.read_text().splitlines()
    meta = [l for l in lines if l.startswith("#")]
    assert any("config_sha256=" in l for l in meta)
    assert any("tolerances=" in l for l in meta)
    header = next(l for l in lines if not l.startswith("#"))
    assert header.split(",")[:3] == ["h", "eps", "k_proxy"]
    data = [l.split(",") for l in lines[lines.index(header) + 1:] if l]
    assert data
    cols = header.split(",")
    for row in data:
        rec = dict(zip(cols, row))
        # self-describing: abs_diff is recomputable from the paired columns
        lw = complex(float(rec["re_lambda_wkb"]), float(rec["im_lambda_wkb"]))
        ld = complex(float(rec["re_lambda_direct"]), float(rec["im_lambda_direct"]))
        assert abs(lw - ld) == pytest.approx(float(rec["abs_diff"]), rel=1e-12)


def compare_row(row: list) -> dict:
    return dict(zip(_COMPARE_HEADER, row, strict=True))


def test_compare_matching_is_bijection(tmp_path):
    cfg = config_from_json(base_config_dict(tmp_path))
    rows, errors = _sweep("compare", cfg, 1)
    slope = fit_convergence_slope(rows)
    assert not errors
    matched = [r for r in map(compare_row, rows) if r["error"] == ""]
    assert all(r[f"{part}_lambda_{side}"] is not None
               for r in matched for part in ("re", "im") for side in ("wkb", "direct"))
    k_list = [r["k_proxy"] for r in matched]
    assert len(set(k_list)) == len(k_list)
    assert slope is None  # single h cannot support a fit


@pytest.mark.parametrize("fault, error", [("drop", "unmatched-wkb"),
                                          ("extra", "unmatched-direct")])
def test_compare_writes_unmatched_records(tmp_path, monkeypatch, fault, error):
    # a WKB root with no direct partner, or a direct root with no WKB partner,
    # is written as a row of its own, with the other side's columns empty
    spectrum = z.direct.direct_spectrum_complex

    def faulty(problem):
        recs = spectrum(problem)
        if fault == "drop":
            return recs[1:]
        return recs + [dataclasses.replace(recs[-1], lam=recs[-1].lam + 0.05, k=len(recs))]

    monkeypatch.setattr(z.direct, "direct_spectrum_complex", faulty)
    out = tmp_path / "compare.csv"
    assert main(["compare", "--config", str(write_config(tmp_path)), "--out", str(out)]) == 0
    lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    rows = [dict(zip(lines[0].split(","), l.split(","))) for l in lines[1:]]
    assert len(rows) > 2
    odd = [r for r in rows if r["error"]]
    assert [r["error"] for r in odd] == [error]
    empty, full = ("direct", "wkb") if fault == "drop" else ("wkb", "direct")
    assert odd[0][f"re_lambda_{empty}"] == odd[0][f"im_lambda_{empty}"] == ""
    assert odd[0][f"re_lambda_{full}"] != "" and odd[0]["abs_diff"] == ""
    assert (odd[0]["k_proxy"] == "") == (fault == "drop")


def test_fit_convergence_slope_on_synthetic_rows():
    rows = []
    for h in (0.1, 0.05, 0.025):
        for diff in (0.2 * h ** 2, 0.7 * h ** 2):  # max per h is 0.7 h^2
            rows.append([h, 0.0, 0, 1.0, 0.0, 1.0 + diff, 0.0, diff, "b", ""])
        rows.append([h, 0.05, 0, 1.0, 0.0, 1.5, 0.0, 0.5, "b", ""])  # ignored
    assert fit_convergence_slope(rows) == pytest.approx(2.0, abs=1e-12)
    assert fit_convergence_slope(rows[:3]) is None  # single h: no fit


def test_pt_sweep_rows(tmp_path):
    cfg = config_from_json(base_config_dict(tmp_path, eps_list=[0.01],
                                            h_list=[0.1]))
    rows, errors = run_pt_sweep(cfg)
    assert not errors
    assert len(rows) == 2  # eps = 0.01 and the always-included baseline 0
    by_eps = {r[0]: r for r in rows}
    assert by_eps[0.01][3] == "A-odd-B-even"
    assert by_eps[0.01][2] < 1e-8   # reality under (A2)
    assert by_eps[0.01][4] is True  # winding completeness
    assert by_eps[0.0][2] < 1e-10


def test_stokes_output_roundtrip(tmp_path):
    cfg = config_from_json(base_config_dict(tmp_path))
    out = tmp_path / "graph.json"
    doc = run_stokes(cfg, lam=1.0, eps=0.0, out=out)
    assert out.exists()
    parsed = json.loads(out.read_text())
    assert parsed == doc
    assert len(parsed["curves"]) == 6
    assert len(parsed["turning_points"]) == 2
    assert parsed["meta"]["config_sha256"] == config_hash(cfg)
    # the eps = 0 graph contains the curve connecting the two turning points
    assert any(c["termination"] == "near-turning-point" for c in parsed["curves"])
    assert_graph_document(parsed, z.build_graph(make_problem(cfg, 0.1, 0.0), 1.0))


def test_cli_exit_codes(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["validate", "--config", str(bad)]) == 1

    config_path = write_config(tmp_path)
    assert main(["validate", "--config", str(config_path)]) == 0
    assert main(["--verbose", "validate", "--config", str(config_path)]) == 0

    # a window below the well floor has no action range: numerical failure
    broken = tmp_path / "broken.json"
    doc = base_config_dict(tmp_path,
                           potential={"family": "well-even", "params": [2.0, 1.0],
                                      "strip_half_width": 10.0},
                           lambda0=1.5, delta=0.2, h_list=[10.0])
    broken.write_text(json.dumps(doc))
    assert main(["wkb", "--config", str(broken)]) == 2


EVEN_WELL = {"family": "well-even", "params": [2.0, 1.0], "strip_half_width": 10.0}


def test_csv_quotes_an_error_that_holds_a_comma(tmp_path):
    # at h = 10 the window holds no quantization target, and the message
    # names the action range as "[lo, hi]"
    path = write_config(tmp_path, potential=EVEN_WELL, lambda0=1.5, delta=0.2, h_list=[10.0])
    out = tmp_path / "compare.csv"
    assert main(["compare", "--config", str(path), "--out", str(out)]) == 2
    with pytest.raises(ZSWKBError) as exc:
        z.wkb_spectrum(make_problem(load_config(path), 10.0, 0.0))
    message = f"{type(exc.value).__name__}: {exc.value}"
    assert "," in message
    with out.open(newline="") as f:
        rows = list(csv.reader(line for line in f if not line.startswith("#")))
    assert rows[0] == _COMPARE_HEADER
    assert rows[1:] and all(len(row) == len(_COMPARE_HEADER) for row in rows[1:])
    assert all(row[-1] == message for row in rows[1:])


def test_validate_rejects_a_window_above_the_well(tmp_path, capsys):
    # |A| < 2.5 everywhere, so the level never meets the margin at the cutoff
    path = write_config(tmp_path, potential=EVEN_WELL, lambda0=2.5, delta=0.2)
    assert main(["validate", "--config", str(path)]) == 1
    assert capsys.readouterr().err.startswith(
        "config error: potential fails the simple-well check: ")


def test_stokes_failure_exits_2(tmp_path, capsys):
    # above sup|A| = 2 the turning-point Newton runs out to the cutoff
    path = write_config(tmp_path, potential=EVEN_WELL, lambda0=1.5, delta=0.2,
                        eps_list=[0.05])
    out = tmp_path / "graph.json"
    assert main(["stokes", "--config", str(path), "--out", str(out), "--lam", "2.5"]) == 2
    assert capsys.readouterr().err.startswith("numerical failure: NoConvergence: ")
    assert not out.exists()


def test_stokes_rejects_bad_lam_and_eps(tmp_path, capsys):
    config_path = write_config(tmp_path)
    out = tmp_path / "graph.json"
    for bad in (["--lam", "nan"], ["--lam", "inf"], ["--eps", "-0.1"], ["--eps", "nan"],
                ["--eps", "inf"]):
        assert main(["stokes", "--config", str(config_path), "--out", str(out), *bad]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: stokes "), (bad, err)
    assert not out.exists()
    # a negative finite lambda is a valid spectral parameter
    assert main(["stokes", "--config", str(config_path), "--out", str(out),
                 "--lam", "-1.0"]) == 0
    assert len(json.loads(out.read_text())["curves"]) == 6


def test_run_spectra_returns_the_rows_the_wkb_command_writes(tmp_path):
    path = write_config(tmp_path, eps_list=[0.05, 0.0])
    rows, errors = run_spectra(load_config(path), "wkb")
    assert errors == [] and len(rows) > 2
    out = tmp_path / "wkb.csv"
    assert main(["wkb", "--config", str(path), "--out", str(out)]) == 0
    written = list(csv.reader(l for l in out.read_text().splitlines() if not l.startswith("#")))
    assert written[1:] == [[_fmt(v) for v in row] for row in rows]


def test_cli_wkb_csv_schema(tmp_path):
    config_path = write_config(tmp_path)
    out = tmp_path / "wkb.csv"
    assert main(["wkb", "--config", str(config_path), "--out", str(out)]) == 0
    lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert lines[0] == "re_lambda,im_lambda,k,branch,method,residual,h,eps"
    assert all(len(l.split(",")) == 8 for l in lines[1:])
    assert len(lines) > 1


@pytest.mark.parametrize("command", ["wkb", "compare", "pt-sweep"])
def test_cli_parallel_jobs_match_serial(tmp_path, command):
    config_path = write_config(tmp_path)
    out_serial = tmp_path / "serial.csv"
    out_par = tmp_path / "par.csv"
    assert main([command, "--config", str(config_path), "--out", str(out_serial)]) == 0
    assert main([command, "--config", str(config_path), "--out", str(out_par),
                 "--jobs", "2"]) == 0
    assert out_serial.read_bytes() == out_par.read_bytes()


def test_pt_sweep_failed_cell_is_reported_with_its_cell(tmp_path, monkeypatch, capsys):
    count_zeros = z.direct.count_zeros

    def failing(problem, rect):
        if problem.eps > 0:
            raise BoundaryZero("zero on the contour")
        return count_zeros(problem, rect)

    monkeypatch.setattr(z.direct, "count_zeros", failing)
    config_path = write_config(tmp_path, eps_list=[0.01])
    out = tmp_path / "pt.csv"
    assert main(["pt-sweep", "--config", str(config_path), "--out", str(out)]) == 2
    lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    rows = [dict(zip(lines[0].split(","), l.split(","))) for l in lines[1:]]
    assert [r["error"] for r in rows] == ["BoundaryZero: zero on the contour", ""]
    assert rows[0]["symmetry_class"] == "A-odd-B-even"
    assert capsys.readouterr().err.splitlines() == [
        "cell failed: h=0.1 eps=0.01: BoundaryZero: zero on the contour"]


def test_pt_sweep_reports_roots_the_winding_counts_but_no_scan_locates(tmp_path, monkeypatch):
    # winding_ok is the sweep's one completeness report: a real scan that
    # finds no bracket seeds no root at either eps, while the argument
    # principle still counts the window's zeros
    monkeypatch.setattr(z.direct, "_scan", lambda shooting: (np.empty(0),) * 3)
    out = tmp_path / "pt.csv"
    assert main(["pt-sweep", "--config", str(write_config(tmp_path, eps_list=[0.01])),
                 "--out", str(out)]) == 0
    assert [(r["n_roots"], r["max_im_lambda"], r["winding_ok"], r["error"])
            for r in csv_dicts(out)] == [("0", "0", "false", "")] * 2


# lambda0 - delta = 0.9 lies below the floor of the even well, so the window
# has no turning interval: every WKB cell fails, and the direct ones find none
BELOW_FLOOR = {"potential": EVEN_WELL, "lambda0": 1.1, "delta": 0.2, "eps_list": [0.05]}
ERROR_NAMES = {c.__name__ for c in vars(z.errors).values()
               if isinstance(c, type) and issubclass(c, ZSWKBError)}


def csv_dicts(path) -> list:
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    return [dict(zip(lines[0].split(","), l.split(","))) for l in lines[1:]]


def assert_failed_cells(err: str, cells: list) -> None:
    # one line per cell, naming the cell and a typed error; the messages of
    # these failures are not pinned
    lines = err.splitlines()
    assert [l.split(": ")[:2] for l in lines] == [["cell failed", c] for c in cells]
    assert all(l.split(": ")[2] in ERROR_NAMES for l in lines)


@pytest.mark.parametrize("command, cells", [
    ("wkb", ["h=0.1 eps=0.05"]),
    ("compare", ["h=0.1 eps=0.05", "h=0.1 eps=0.0"]),
])
def test_failed_wkb_cells_are_reported(tmp_path, capsys, command, cells):
    path = write_config(tmp_path, **BELOW_FLOOR)
    out = tmp_path / "out.csv"
    assert main([command, "--config", str(path), "--out", str(out)]) == 2
    assert_failed_cells(capsys.readouterr().err, cells)
    rows = csv_dicts(out)
    if command == "wkb":
        assert rows == []
        return
    # compare writes one row per failed cell, with only its cell and error
    assert [(r["h"], r["eps"]) for r in rows] == [("0.10000000000000001", "0"),
                                                  ("0.10000000000000001",
                                                   "0.050000000000000003")]
    for r in rows:
        assert {k for k, v in r.items() if v} == {"h", "eps", "error"}
        assert r["error"].split(": ")[0] in ERROR_NAMES


def test_failed_direct_cell_is_reported(tmp_path, monkeypatch, capsys):
    def failing(problem):
        raise NoConvergence("no root")

    monkeypatch.setattr(z.direct, "direct_spectrum_complex", failing)
    path = write_config(tmp_path, eps_list=[0.05, 0.01])
    out = tmp_path / "direct.csv"
    assert main(["direct", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert_failed_cells(err, ["h=0.1 eps=0.05", "h=0.1 eps=0.01"])
    assert all(l.endswith(": NoConvergence: no root") for l in err.splitlines())
    assert csv_dicts(out) == []


def test_load_config_roundtrip(tmp_path):
    config_path = write_config(tmp_path)
    cfg = load_config(config_path)
    assert cfg.potential.family == "monotone-odd"
    assert cfg.h_list == (0.1,)
    assert cfg.seed_metadata == "test-run"


def test_match_records_takes_the_nearest_free_pair_first():
    # the nearest pair overall, (1, 0), comes before (0, 1) in neither index;
    # a tie in distance goes to the lower wkb index, then the lower direct one
    def recs(*lams):
        return [z.EigenvalueRecord(complex(lam), k, None, z.Method.WKB, 0.0, 0.1, 0.0)
                for k, lam in enumerate(lams)]

    assert _match_records(recs(1.0, 2.0, 3.0), recs(2.0625, 0.875, 3.25, 5.0)) == \
        ([(1, 0), (0, 1), (2, 2)], [], [3])
    assert _match_records(recs(1.0, 1.5), recs(1.25)) == ([(0, 0)], [1], [])
    assert _match_records(recs(1.25), recs(1.5, 1.0)) == ([(0, 0)], [], [1])

    def rescanning(wkb, direct):  # the reference: the least free triple, found afresh each time
        pairs, free_w, free_d = [], list(range(len(wkb))), list(range(len(direct)))
        while free_w and free_d:
            _, i, j = min((abs(wkb[i].lam - direct[j].lam), i, j) for i in free_w for j in free_d)
            pairs.append((i, j))
            free_w.remove(i)
            free_d.remove(j)
        return pairs, free_w, free_d

    r = np.random.default_rng(5)
    for _ in range(200):  # lambdas on a coarse grid, so many distances tie
        wkb, direct = (recs(*(r.integers(0, 8, r.integers(0, 10)) / 4.0)) for _ in range(2))
        assert _match_records(wkb, direct) == rescanning(wkb, direct)
