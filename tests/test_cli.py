import json
import math

import pytest

import zswkb as z
from zswkb.cli import (config_from_json, config_hash, load_config, main,
                       run_compare, run_pt_sweep, run_stokes, run_validate)
from zswkb.errors import ConfigError


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
    with pytest.raises(ConfigError):
        config_from_json(base_config_dict(tmp_path, tolerances={"bogus": 1.0}))
    with pytest.raises(ConfigError):
        config_from_json(base_config_dict(tmp_path, tolerances={"quad_rel": -1.0}))
    with pytest.raises(ConfigError):
        config_from_json({})


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


def test_compare_matching_is_bijection(tmp_path):
    cfg = config_from_json(base_config_dict(tmp_path))
    rows, slope, errors = run_compare(cfg)
    assert not errors
    matched = [r for r in rows if r.error == ""]
    assert all(r.lambda_wkb is not None and r.lambda_direct is not None
               for r in matched)
    k_list = [r.k_proxy for r in matched]
    assert len(set(k_list)) == len(k_list)
    assert slope is None  # single h cannot support a fit


def test_fit_convergence_slope_on_synthetic_rows():
    from zswkb.cli import ComparisonRow, fit_convergence_slope
    rows = []
    for h in (0.1, 0.05, 0.025):
        for diff in (0.2 * h ** 2, 0.7 * h ** 2):  # max per h is 0.7 h^2
            rows.append(ComparisonRow(h, 0.0, 0, 1.0 + 0j, 1.0 + diff, diff, "b"))
        rows.append(ComparisonRow(h, 0.05, 0, 1.0 + 0j, 1.5 + 0j, 0.5, "b"))  # ignored
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
    graph = z.graph_from_json(parsed)
    assert len(graph.curves) == 6


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


def test_cli_wkb_csv_schema(tmp_path):
    config_path = write_config(tmp_path)
    out = tmp_path / "wkb.csv"
    assert main(["wkb", "--config", str(config_path), "--out", str(out)]) == 0
    lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert lines[0] == "re_lambda,im_lambda,k,branch,method,residual,h,eps"
    assert all(len(l.split(",")) == 8 for l in lines[1:])
    assert len(lines) > 1


def test_cli_parallel_jobs_match_serial(tmp_path):
    config_path = write_config(tmp_path)
    out_serial = tmp_path / "serial.csv"
    out_par = tmp_path / "par.csv"
    assert main(["wkb", "--config", str(config_path), "--out", str(out_serial)]) == 0
    assert main(["wkb", "--config", str(config_path), "--out", str(out_par),
                 "--jobs", "2"]) == 0
    assert out_serial.read_bytes() == out_par.read_bytes()


def test_load_config_roundtrip(tmp_path):
    config_path = write_config(tmp_path)
    cfg = load_config(config_path)
    assert cfg.potential.family == "monotone-odd"
    assert cfg.h_list == (0.1,)
    assert cfg.seed_metadata == "test-run"
