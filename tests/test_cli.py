"""Command-line surface: schema strictness, exit codes, determinism."""

import inspect
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

from ahmass import cli, quadrature
from ahmass.cli import (COMMAND_KEYS, EXIT_CHECK_FAILURE, EXIT_INTERNAL, EXIT_NUMERICAL,
                        EXIT_SCHEMA, NUMERIC_KEYS, SchemaError, check_numeric,
                        load_config, main, resolve_metric, run)
from ahmass.metrics import FAMILIES, N_MAX
from ahmass.reporting import write_csv, write_report


def write_config(tmp_path, doc, name="config.json"):
    p = tmp_path / name
    p.unlink(missing_ok=True)   # a truncating overwrite stalls on ext4
    p.write_text(json.dumps(doc))
    return str(p)


def read_report(out_dir, command):
    stem = command.replace("-", "_")
    return json.loads((Path(out_dir) / f"{stem}_report.json").read_text())


HYP = {"family": "hyperbolic", "n": 3, "params": {}}
HYP4 = {"family": "hyperbolic", "n": 4, "params": {}}
SCHW = {"family": "schwarzschild_ads", "n": 3, "params": {"m": 0.5}}


def test_mass_on_background(tmp_path):
    cfg = write_config(tmp_path, {"command": "mass", "metric": HYP})
    out = tmp_path / "out"
    assert main(["mass", "--config", cfg, "--out", str(out)]) == 0
    doc = read_report(out, "mass")
    assert doc["results"]["p"] == [0, 0, 0, 0]
    assert doc["results"]["defect"] == 0
    # two all-zero ladders agree at 0: the second rule of the sequence
    assert doc["results"]["quadrature"] == {"polar": 6, "azimuth": 12, "nodes": 72,
                                            "error": 0}
    assert "quadrature-unresolved" not in doc["results"]["flags"]
    assert (out / "mass_mass_ladder.csv").exists()
    assert (out / "mass_meta.json").exists()


def test_mass_on_static_family(tmp_path):
    cfg = write_config(tmp_path, {"command": "mass", "metric": SCHW})
    out = tmp_path / "out"
    assert main(["mass", "--config", cfg, "--out", str(out)]) == 0
    doc = read_report(out, "mass")
    p = doc["results"]["p"]
    assert abs(p[0] - 16 * np.pi * 0.5) < 0.01 * 16 * np.pi * 0.5
    assert max(abs(v) for v in p[1:]) < 1e-4
    # the default rule, chosen below the 48 x 96 cap, recovers 8 pi closely
    assert abs(p[0] - 8 * np.pi) <= 1e-8 * 8 * np.pi
    assert max(abs(v) for v in p[1:]) <= 1e-9 * p[0]
    quad = doc["results"]["quadrature"]
    assert quad["nodes"] < 48 * 96 and quad["polar"] < 48
    assert 0 <= quad["error"] <= 1e-8 * p[0]
    assert "quadrature-unresolved" not in doc["results"]["flags"]
    # the report embeds the resolved config and the metric spec
    assert doc["config"]["metric"] == SCHW


def _mass_results(tmp_path, metric, numeric=None, name="out"):
    cfg = write_config(tmp_path, {"command": "mass", "metric": metric,
                                  "numeric": numeric or {}})
    out = tmp_path / name
    assert main(["mass", "--config", cfg, "--out", str(out)]) == 0
    return read_report(out, "mass")["results"]


def test_default_mass_rule_matches_the_cap_on_conformal(tmp_path):
    # the sphere workload's conformal metric: the chosen rule's p_0 is the
    # 48 x 96 rule's to 1e-8 relative
    metric = {"family": "conformal", "n": 3, "params": {"base": HYP, "profile": {
        "kind": "power_tail", "amp": 0.1, "rate": 3.0, "onset": 5.0}}}
    chosen = _mass_results(tmp_path, metric)
    cap = _mass_results(tmp_path, metric, {"quad_polar": 48, "quad_azimuth": 96}, "cap")
    assert abs(chosen["p"][0] - cap["p"][0]) <= 1e-8 * abs(cap["p"][0])
    assert chosen["quadrature"]["nodes"] < 48 * 96


def test_explicit_mass_rule_is_evaluated_alone(tmp_path):
    from ahmass.massflux import DEFAULT_RADII, mass_vector
    from ahmass.quadrature import sphere_rule
    metric = {"family": "conformal", "n": 3, "params": {"base": SCHW, "profile": {
        "kind": "power_tail", "amp": 0.05, "rate": 3.0}}}
    res = _mass_results(tmp_path, metric, {"quad_polar": 10, "quad_azimuth": 14})
    expected = mass_vector(resolve_metric(metric)[0], DEFAULT_RADII, sphere_rule(3, 10, 14))
    assert res["p"] == expected.p.tolist()
    assert res["quadrature"] == {"polar": 10, "azimuth": 14, "nodes": 140, "error": None}


# the axis bump of the battery's run 11: no rotational symmetry, and no two
# rules below the cap agree to the target
BATTERY_PERTURBED4 = {"family": "perturbed", "n": 4, "params": {
    "base": HYP4, "perturbation": {"kind": "axis_bump", "axis": [1.0, 0.0, 0.0, 0.0],
                                   "rate": 4.0}}}


def test_unresolved_mass_rule_is_a_flag(tmp_path):
    res = _mass_results(tmp_path, BATTERY_PERTURBED4)
    quad = res["quadrature"]
    assert (quad["polar"], quad["azimuth"], quad["nodes"]) == (13, 26, 13 * 13 * 26)
    assert quad["error"] > 1e-8 * max(abs(v) for v in res["p"])
    assert "quadrature-unresolved" in res["flags"]
    explicit = _mass_results(tmp_path, BATTERY_PERTURBED4,
                             {"quad_polar": 13, "quad_azimuth": 26}, "explicit")
    assert res["p"] == explicit["p"]
    assert "quadrature-unresolved" not in explicit["flags"]


def test_ode_verify_trivial(tmp_path):
    cfg = write_config(tmp_path, {
        "command": "ode-verify",
        "numeric": {"ode": {"p_amp": 0.0, "q_amp": 0.0, "f_amp": 0.0,
                            "decay": 1.0}}})
    out = tmp_path / "out"
    assert main(["ode-verify", "--config", cfg, "--out", str(out)]) == 0
    doc = read_report(out, "ode-verify")
    assert abs(doc["results"]["C_certificate"] - 1.0) < 1e-5
    csv = (out / "ode_verify_ode_solutions.csv").read_text().splitlines()
    assert csv[0] == "t,u1,u2,wronskian"


def test_unknown_keys_rejected(tmp_path):
    cfg = write_config(tmp_path, {"command": "mass", "metric": HYP,
                                  "numeric": {"nope": 1}})
    assert main(["mass", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_SCHEMA
    cfg = write_config(tmp_path, {"command": "mass", "metric": HYP,
                                  "extra_top": 2})
    assert main(["mass", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_SCHEMA
    cfg = write_config(tmp_path, {"command": "mass",
                                  "metric": {"family": "hyperbolic", "n": 3,
                                             "params": {"bad": 1}}})
    assert main(["mass", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_SCHEMA


def test_every_default_tolerance_is_read():
    # a tolerance no check of the command reads is a knob that does nothing
    for command, handler in cli.HANDLERS.items():
        read = re.findall(r'_tol\(numeric, "(\w+)"\)', inspect.getsource(handler))
        assert set(read) == set(COMMAND_KEYS[command][1]), command


# the numeric keys a handler reads through the cli's parsers
PARSED_KEYS = {"_radii": ["radii"], "_sphere": ["quad_polar", "quad_azimuth"],
               "_rng": ["seed"]}


def test_every_declared_key_is_read():
    # so is a numeric key the command accepts but never reads
    for command, handler in cli.HANDLERS.items():
        source = inspect.getsource(handler)
        read = set(re.findall(r'numeric\.get\("(\w+)"', source))
        read.update(*(keys for parser, keys in PARSED_KEYS.items()
                      if f"{parser}(numeric" in source))
        assert read - {"seed"} == set(COMMAND_KEYS[command][0]), command


def test_handler_reading_an_undeclared_tolerance_fails(tmp_path, capsys, monkeypatch):
    # _tol reads the command's resolved tolerances only, so a handler that
    # reads a tolerance its command does not declare is an internal error
    monkeypatch.setitem(cli.HANDLERS, "mass",
                        lambda spec, numeric: cli._tol(numeric, "wang_gap"))
    cfg = write_config(tmp_path, {"command": "mass", "metric": HYP})
    assert main(["mass", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_INTERNAL
    assert capsys.readouterr().err == "internal error: KeyError: 'wang_gap'\n"


def test_tolerances_must_be_positive(tmp_path):
    cfg = write_config(tmp_path, {
        "command": "duality-check", "metric": HYP,
        "numeric": {"tolerances": {"duality_residual": -1.0}}})
    assert main(["duality-check", "--config", cfg,
                 "--out", str(tmp_path / "o")]) == EXIT_SCHEMA


@pytest.mark.parametrize("axis", [[1.0, 0.0], [0, 0, 0]])
def test_bad_axis_bump_rejected(tmp_path, axis):
    # a wrong-length or zero axis is a schema error, not a crash or a NaN report
    metric = {"family": "perturbed", "n": 3,
              "params": {"base": HYP, "perturbation": {"kind": "axis_bump",
                                                       "axis": axis}}}
    cfg = write_config(tmp_path, {"command": "verify-ah", "metric": metric})
    assert main(["verify-ah", "--config", cfg,
                 "--out", str(tmp_path / "o")]) == EXIT_SCHEMA


def test_two_radii_rejected(tmp_path):
    # a 3-parameter extrapolation cannot be fitted on 2 radii
    cfg = write_config(tmp_path, {"command": "mass", "metric": SCHW,
                                  "numeric": {"radii": {"min": 20.0, "max": 200.0,
                                                        "count": 2}}})
    assert main(["mass", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_SCHEMA


PERTURBED3 = {"family": "perturbed", "n": 3, "params": {
    "base": HYP, "perturbation": {"kind": "axis_bump", "axis": [1.0, 0.0, 0.0]}}}
PERTURBED4 = {"family": "perturbed", "n": 4, "params": {
    "base": {"family": "hyperbolic", "n": 4, "params": {}},
    "perturbation": {"kind": "axis_bump", "axis": [1.0, 0.0, 0.0, 0.0]}}}


@pytest.mark.parametrize("command,metric,numeric", [
    ("deform", PERTURBED3, {}),          # no radial reduction
    ("eigenfunction", PERTURBED3, {}),   # no radial reduction
    ("rigidity-check", {"family": "hyperbolic", "n": 4}, {}),   # n = 3 fixture only
    # its checks read hyperbolic's V_0 and a fixture, not the metric given
    ("rigidity-check", SCHW, {}),
    ("rigidity-check", {"family": "conformal", "n": 3, "params": {"base": HYP, "profile": {
        "kind": "power_tail", "amp": 0.05, "rate": 3.0}}}, {}),
    ("first-variation", PERTURBED3, {}),   # its potential needs a radial reduction
], ids=["deform", "eigenfunction", "rigidity-check-n4",
        "rigidity-check-schwarzschild", "rigidity-check-conformal", "first-variation"])
def test_unsupported_metric_rejected(tmp_path, capsys, monkeypatch, command, metric,
                                     numeric):
    import ahmass.geodesics as geodesics
    import ahmass.radial as radial
    import ahmass.rigidity as rigidity
    # a rejected run reaches none of these numerics
    calls = []
    record = lambda *args, **kwargs: calls.append(args)
    monkeypatch.setattr(radial, "scalar_curvature_profile", record)
    monkeypatch.setattr(rigidity, "wang_identity_check", record)
    monkeypatch.setattr(geodesics, "integrate_geodesic", record)
    cfg = write_config(tmp_path, {"command": command, "metric": metric,
                                  "numeric": numeric})
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_SCHEMA
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "Traceback" not in err
    assert len(err.splitlines()) == 1
    assert calls == []


@pytest.mark.parametrize("command,metric,numeric,status", [
    ("rigidity-check", HYP4, {}, EXIT_SCHEMA),
    ("first-variation", PERTURBED3, {}, EXIT_SCHEMA),
    ("verify-ah", HYP, {"q_claimed": 1.0}, EXIT_SCHEMA),
    ("deform", HYP, {"decay_rate": 5.0}, EXIT_SCHEMA),
    ("eigenfunction", HYP, {"r_max": 0.1}, EXIT_SCHEMA),
    ("rigidity-check", HYP, {"wang_radius": 0.005}, EXIT_SCHEMA),
    ("verify-ah", {"family": "schwarzschild_ads", "n": 3, "params": {"m": 40.0}},
     {"radii": [0.5, 1.0, 2.0, 5.5]}, EXIT_NUMERICAL),
], ids=["rigidity-check-n4", "first-variation-perturbed", "verify-ah-q-claimed",
        "deform-decay-rate", "eigenfunction-r-max", "rigidity-check-wang-radius",
        "verify-ah-inside-horizon"])
def test_rejected_run_makes_no_output_directory(tmp_path, command, metric, numeric,
                                                status):
    # the output directory is made with the reports, so a run a handler
    # rejects or a numerical failure stops writes nothing
    cfg = write_config(tmp_path, {"command": command, "metric": metric,
                                  "numeric": numeric})
    out = tmp_path / "o" / "deep"
    assert main([command, "--config", cfg, "--out", str(out)]) == status
    assert not (tmp_path / "o").exists()


# a minimal document of each spec family
FAMILY_DOCS = {
    "hyperbolic": HYP,
    "schwarzschild_ads": SCHW,
    "conformal": {"family": "conformal", "n": 3, "params": {"base": HYP, "profile": {
        "kind": "power_tail", "amp": 0.05, "rate": 3.0}}},
    "perturbed": PERTURBED3,
}


@pytest.mark.parametrize("family", FAMILIES)
def test_verify_ah_accepts_every_spec_family(tmp_path, capsys, family):
    # verify-ah reads coordinate 0 as the radius of the exterior (r, angles)
    # chart: it runs its checks on every family a spec can name
    cfg = write_config(tmp_path, {"command": "verify-ah", "metric": FAMILY_DOCS[family],
                                  "numeric": {"radii": {"min": 20.0, "max": 200.0,
                                                        "count": 4}}})
    code = main(["verify-ah", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code in (0, EXIT_CHECK_FAILURE), capsys.readouterr().err


@pytest.mark.parametrize("metric", [
    [HYP],
    {"family": "hyperbolic", "n": 3, "params": 5},
    {"family": "perturbed", "n": 3, "params": {"base": [], "perturbation": {}}},
    {"family": "perturbed", "n": 3, "params": {"base": HYP, "perturbation": [1]}},
    {"family": "conformal", "n": 3, "params": {"base": HYP, "profile": 1}},
    {"family": "conformal", "n": 3, "params": {
        "base": HYP, "profile": {"kind": "constant", "value": None}}},
    {"family": "schwarzschild_ads", "n": 3, "params": {"m": [1]}},
    # NaN and Infinity, which Python's json reads, are not finite parameters
    {"family": "schwarzschild_ads", "n": 3, "params": {"m": float("nan")}},
    {"family": "schwarzschild_ads", "n": 3, "params": {"m": float("inf")}},
    {"family": "conformal", "n": 3, "params": {"base": HYP, "profile": {
        "kind": "power_tail", "amp": 0.1, "rate": float("inf")}}},
    {"family": "perturbed", "n": 3, "params": {"base": HYP, "perturbation": {
        "kind": "axis_bump", "axis": [1.0, 0.0, 0.0], "width": float("nan")}}},
    # strings and bools are not numbers, although float() would take them
    {"family": "schwarzschild_ads", "n": 3, "params": {"m": "0.5"}},
    {"family": "schwarzschild_ads", "n": 3, "params": {"m": True}},
    {"family": "conformal", "n": 3, "params": {"base": HYP, "profile": {
        "kind": "power_tail", "amp": "0.1", "rate": 3.0}}},
    {"family": "perturbed", "n": 3, "params": {"base": HYP, "perturbation": {
        "kind": "axis_bump", "axis": ["1", 0.0, 0.0]}}},
    # a base has the n of the spec around it
    {"family": "conformal", "n": 3, "params": {"base": HYP4, "profile": {
        "kind": "power_tail", "amp": 0.05, "rate": 3.0}}},
    {"family": "perturbed", "n": 3, "params": {"base": HYP4, "perturbation": {
        "kind": "axis_bump", "axis": [1.0, 0.0, 0.0]}}},
    {"family": "hyperbolic", "n": N_MAX + 1, "params": {}},
], ids=["spec-list", "params-int", "base-list", "perturbation-list", "profile-int",
        "profile-value-null", "mass-list", "mass-nan", "mass-inf",
        "power-tail-rate-inf", "axis-bump-width-nan", "mass-string", "mass-bool",
        "power-tail-amp-string", "axis-bump-axis-string", "conformal-base-other-n",
        "perturbed-base-other-n", "n-above-bound"])
def test_malformed_metric_spec_rejected(tmp_path, capsys, metric):
    # a spec, or a part of one, of the wrong JSON type is a config error
    cfg = write_config(tmp_path, {"command": "mass", "metric": metric})
    assert main(["mass", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_SCHEMA
    err = capsys.readouterr().err
    assert err.startswith("config error: bad metric spec: ") and "Traceback" not in err


@pytest.mark.parametrize("command,metric,message", [
    ("mass", {"family": "nope", "n": 3}, "bad metric spec: "),
    ("mass", "missing.json", "[Errno 2] "),
    # ode-verify reads no metric, so any metric given to it is refused
    ("ode-verify", {"family": "nope"}, "ode-verify takes no metric spec"),
    ("ode-verify", HYP, "ode-verify takes no metric spec"),
], ids=["inline", "missing-file", "ode-verify-bad", "ode-verify-valid"])
def test_rejected_metric_makes_no_output_directory(tmp_path, capsys, command, metric,
                                                   message):
    # the metric is resolved before the output directory is made
    cfg = write_config(tmp_path, {"command": command, "metric": metric})
    out = tmp_path / "o2" / "deep"
    assert main([command, "--config", cfg, "--out", str(out)]) == EXIT_SCHEMA
    err = capsys.readouterr().err
    assert err.startswith("config error: " + message) and len(err.splitlines()) == 1
    assert not (tmp_path / "o2").exists()


@pytest.mark.parametrize("axis,unit", [([1e308, 1e308, 0.0], [1.0, 1.0, 0.0]),
                                       ([1e-320, 0.0, 0.0], [1.0, 0.0, 0.0])],
                         ids=["axis-huge", "axis-tiny"])
def test_axis_bump_axis_is_a_direction(tmp_path, axis, unit):
    # the axis is scaled by its largest entry before it is normalised, so
    # finite entries of any size neither overflow nor underflow its norm
    reports = []
    for a in (axis, unit):
        metric = {"family": "perturbed", "n": 3, "params": {
            "base": HYP, "perturbation": {"kind": "axis_bump", "axis": a}}}
        cfg = write_config(tmp_path, {"command": "mass", "metric": metric, "numeric": {
            "quad_polar": 8, "quad_azimuth": 16}})
        out = tmp_path / f"out{len(reports)}"
        assert main(["mass", "--config", cfg, "--out", str(out)]) == 0
        doc = read_report(out, "mass")
        reports.append((doc["results"], doc["checks"]))
    assert reports[0] == reports[1]


def test_report_echoes_the_metric_spec_as_given(tmp_path):
    # no defaults are filled in: the conformal profile has no onset and the
    # inner schwarzschild_ads no m
    metric = {"family": "conformal", "n": 3, "params": {
        "base": {"family": "schwarzschild_ads", "n": 3, "params": {}},
        "profile": {"kind": "power_tail", "amp": 0.05, "rate": 3.0}}}
    spec_path = tmp_path / "metric.json"
    spec_path.write_text(json.dumps(metric))
    for i, given in enumerate((metric, str(spec_path))):
        cfg = write_config(tmp_path, {"command": "curvature", "metric": given,
                                      "numeric": {"sample_points": 4}})
        out = tmp_path / f"out{i}"
        assert main(["curvature", "--config", cfg, "--out", str(out)]) == 0
        assert read_report(out, "curvature")["config"]["metric"] == metric


def test_mass_without_rotational_symmetry_n4(tmp_path):
    # the sphere rule is exact at every n, so mass needs no symmetry at n = 4
    cfg = write_config(tmp_path, {"command": "mass", "metric": PERTURBED4})
    out = tmp_path / "out"
    assert main(["mass", "--config", cfg, "--out", str(out)]) == 0
    assert np.isfinite(read_report(out, "mass")["results"]["p"][0])


ODE = {"p_amp": 0.1, "q_amp": 0.1, "f_amp": 1.0, "decay": 2.0}
HYP5 = {"family": "hyperbolic", "n": 5, "params": {}}


@pytest.mark.parametrize("command,numeric,metric,code", [
    ("duality-check", {"pairs": 0}, HYP, EXIT_SCHEMA),
    ("duality-check", {"pairs": "ten"}, HYP, EXIT_SCHEMA),
    ("mass", {"quad_polar": 2}, HYP, EXIT_SCHEMA),
    ("mass", {"radii": [20.0, float("nan"), 200.0]}, HYP, EXIT_SCHEMA),
    ("curvature", {"sample_points": 0}, HYP, EXIT_SCHEMA),
    ("mass", {"seed": True}, HYP, EXIT_SCHEMA),
    ("first-variation", {"eps_ladder": []}, SCHW, EXIT_SCHEMA),
    ("first-variation", {"eps_ladder": []}, HYP, EXIT_SCHEMA),
    ("first-variation", {"eps_ladder": [0.01]}, HYP, EXIT_SCHEMA),
    ("first-variation", {"eps_ladder": [0.01, 0.0, 0.001]}, HYP, EXIT_SCHEMA),
    ("eigenfunction", {"decay_rate": "x"}, HYP, EXIT_SCHEMA),
    ("curvature", {"r_max": "x"}, HYP, EXIT_SCHEMA),
    ("deform", {"decay_rate": "two"}, HYP, EXIT_SCHEMA),
    ("verify-ah", {"q_claimed": "x"}, HYP, EXIT_SCHEMA),
    # q_claimed outside (n/2, n] and a ladder short of a decade are config
    # errors, rejected before any numerics
    ("verify-ah", {"q_claimed": 10.0}, HYP, EXIT_SCHEMA),
    ("verify-ah", {"q_claimed": 1.0}, HYP, EXIT_SCHEMA),
    ("mass", {"radii": [20.0, 30.0, 40.0]}, HYP, EXIT_SCHEMA),
    ("verify-ah", {"radii": [20.0, 21.0, 22.0]}, SCHW, EXIT_SCHEMA),
    ("ode-verify", {"ode": dict(ODE, p_amp="a")}, None, EXIT_SCHEMA),
    ("ode-verify", {"ode": dict(ODE, decay=0)}, None, EXIT_SCHEMA),
    ("rigidity-check", {"wang_radius": -1.0}, HYP, EXIT_SCHEMA),
    # input ranges the library states are config errors too: a ball inside
    # the inner radius of the identity's volume rule, a target decay outside
    # the solvable window (-1, n), an outer radius at or below the inner
    # truncation radius (1.3 x horizon = 0.887 here) and 1 + Q <= 0
    ("rigidity-check", {"wang_radius": 0.005}, HYP, EXIT_SCHEMA),
    ("deform", {"decay_rate": 3.5}, HYP, EXIT_SCHEMA),
    ("deform", {"decay_rate": -1.5}, HYP, EXIT_SCHEMA),
    ("eigenfunction", {"r_max": 0.5}, SCHW, EXIT_SCHEMA),
    ("deform", {"r_max": 0.1}, HYP, EXIT_SCHEMA),
    ("ode-verify", {"ode": {"q_amp": -2, "decay": 1}}, None, EXIT_SCHEMA),
    ("rigidity-check", {"tolerances": {"wang_gap": True}}, HYP, EXIT_SCHEMA),
    ("mass", {"radii": {"min": 20.0, "max": 200.0, "count": 10**7}}, HYP,
     EXIT_SCHEMA),
    # 100^3 x 12 nodes on S^4: rejected before the rule is built
    ("mass", {"quad_polar": 100}, HYP5, EXIT_SCHEMA),
    # volume rules beyond VOLUME_NODES_MAX: 288 x 100000 and 16000 x 48 nodes,
    # rejected before the mesh is built
    ("duality-check", {"radial_nodes": 100000}, HYP, EXIT_SCHEMA),
    ("first-variation", {"quad_polar": 20, "quad_azimuth": 40}, HYP4, EXIT_SCHEMA),
    ("rigidity-check", {"radial_nodes": 100000}, HYP, EXIT_SCHEMA),
    # counts beyond their bounds: rejected by check_numeric before anything is built
    ("curvature", {"sample_points": 10**9}, HYP, EXIT_SCHEMA),
    ("duality-check", {"pairs": 257}, HYP, EXIT_SCHEMA),
    ("dichotomy", {"fan_count": 10**6}, HYP, EXIT_SCHEMA),
    # horizons beyond ODE_HORIZON_MAX = 36, where ode-verify's exhaustion
    # cannot settle: rejected before any grid or fan is built
    ("ode-verify", {"ode_horizon": 1e12, "ode": ODE}, None, EXIT_SCHEMA),
    ("dichotomy", {"ode_horizon": 37}, HYP, EXIT_SCHEMA),
    # an r_max within the 2% sample margins of the inner radius 0.1 leaves
    # no residual-check radii (it must exceed 0.1 x 1.02/0.98 = 0.1041)
    ("eigenfunction", {"r_max": 0.102}, HYP, EXIT_SCHEMA),
    ("deform", {"r_max": 0.102}, HYP, EXIT_SCHEMA),
    # the conformal factor 1 + r^150 and the curvature built from it overflow
    ("curvature", {"sample_points": 20, "r_min": 0.5, "r_max": 200.0, "seed": 4},
     {"family": "conformal", "n": 3, "params": {"base": HYP, "profile": {
         "kind": "power_tail", "amp": 1.0, "rate": -150.0}}}, EXIT_NUMERICAL),
    # inverted radius windows, [7, 6] and [10, 5], are rejected before any numerics
    ("duality-check", {"r_min": 7.0}, HYP, EXIT_SCHEMA),
    ("curvature", {"r_min": 10.0, "r_max": 5.0}, HYP, EXIT_SCHEMA),
    # geodesics are sampled every 0.05 and at T; up to T = 0.15 the tail half
    # [T/2, T] of the growth fits holds fewer than 3 samples
    ("dichotomy", {"fan_count": 1, "ode_horizon": 0.05}, HYP, EXIT_SCHEMA),
    ("dichotomy", {"fan_count": 1, "ode_horizon": 0.0501}, HYP, EXIT_SCHEMA),
    ("dichotomy", {"fan_count": 1, "ode_horizon": 0.15}, HYP, EXIT_SCHEMA),
    # a key or tolerance the command does not read, whatever its value
    ("mass", {"pairs": 10}, HYP, EXIT_SCHEMA),
    ("ode-verify", {"quad_polar": 8}, None, EXIT_SCHEMA),
    ("curvature", {"tolerances": {"wang_gap": 1e-300}}, HYP, EXIT_SCHEMA),
    ("mass", {"ode": None}, HYP, EXIT_SCHEMA),
    # the rule spans the support (2, 6) of h alone, so no outer radius applies
    ("first-variation", {"r_max": 3.0}, HYP, EXIT_SCHEMA),
], ids=["pairs-zero", "pairs-string", "quad-polar-2", "radius-nan",
        "sample-points-zero", "seed-bool", "eps-ladder-empty-schw",
        "eps-ladder-empty", "eps-ladder-one", "eps-ladder-zero",
        "decay-rate-string", "r-max-string", "deform-decay-rate-string",
        "q-claimed-string", "q-claimed-above-n", "q-claimed-below-half-n",
        "mass-radii-short-of-decade", "verify-ah-radii-short-of-decade",
        "ode-amp-string", "ode-decay-zero",
        "wang-radius-negative", "wang-radius-inside-inner", "deform-decay-rate-above-n",
        "deform-decay-rate-below-minus-one", "eigenfunction-r-max-inside-clamp",
        "deform-r-max-at-inner-radius", "ode-one-plus-q-negative", "tolerance-bool",
        "radii-count-huge", "sphere-nodes-huge", "duality-volume-huge",
        "first-variation-volume-huge", "rigidity-volume-huge",
        "sample-points-huge", "pairs-huge", "fan-count-huge",
        "ode-verify-horizon-huge", "dichotomy-horizon-above-max",
        "eigenfunction-r-max-inside-margin", "deform-r-max-inside-margin",
        "curvature-conformal-overflow",
        "duality-window-inverted", "curvature-window-inverted",
        "dichotomy-tail-one-sample", "dichotomy-tail-two-samples",
        "dichotomy-tail-two-samples-at-0.15", "mass-pairs", "ode-verify-quad-polar",
        "curvature-wang-gap", "mass-ode-null", "first-variation-r-max"])
def test_bad_numeric_value_rejected(tmp_path, capsys, command, numeric, metric, code):
    cfg = write_config(tmp_path, {"command": command, "metric": metric, "numeric": numeric})
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == code
    err = capsys.readouterr().err
    prefix = "config error: " if code == EXIT_SCHEMA else "numerical failure: "
    assert err.startswith(prefix) and "Traceback" not in err
    assert len(err.splitlines()) == 1
    # an unread key is named, with the command that does not read it
    keys, tolerances = COMMAND_KEYS[command]
    unread = set(numeric) - {"seed", *keys, *["tolerances"] * bool(tolerances)}
    if not unread:
        unread = set(numeric.get("tolerances") or {}) - set(tolerances)
    assert all(key in err for key in unread) and (not unread or command in err)


def test_run_checks_numeric_before_any_apparatus(tmp_path, monkeypatch):
    # run, which the battery and the benchmarks call without load_config,
    # applies the same check as main: an out-of-range count is rejected before
    # any point is sampled and before the output directory is made
    import ahmass.curvature as curvature
    built = []
    monkeypatch.setattr(curvature, "finite_curvature", lambda *args: built.append(args))
    config = {"command": "curvature", "metric": HYP, "numeric": {"sample_points": 10**6}}
    with pytest.raises(SchemaError, match="sample_points"):
        run(config, out_dir=tmp_path / "o")
    assert built == [] and not (tmp_path / "o").exists()


@pytest.mark.parametrize("where", ["config", "metric-file"])
def test_non_utf8_file_rejected(tmp_path, capsys, where):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{}")
    cfg = (str(bad) if where == "config"
           else write_config(tmp_path, {"command": "mass", "metric": str(bad)}))
    assert main(["mass", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_SCHEMA
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "Traceback" not in err


def test_short_ode_horizon_rejected(tmp_path, capsys):
    # the forced-remainder fit window 2 <= t <= T - 2 is empty at T = 3: a
    # config error, raised before the fundamental pair is integrated
    cfg = write_config(tmp_path, {"command": "ode-verify",
                                  "numeric": {"ode_horizon": 3.0, "ode": ODE}})
    assert main(["ode-verify", "--config", cfg,
                 "--out", str(tmp_path / "o")]) == EXIT_SCHEMA
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "Traceback" not in err
    assert len(err.splitlines()) == 1 and "at least 4.03" in err


@pytest.mark.parametrize("T, rejected", [(0.15, True), (0.1501, False)])
def test_short_dichotomy_horizon_rejected_before_integration(tmp_path, monkeypatch,
                                                            capsys, T, rejected):
    # the fan's tail half [T/2, T] holds 2 samples at T = 0.15 and 3 at 0.1501
    import ahmass.geodesics as geodesics
    calls = []

    def counted(*args, **kwargs):
        if rejected:
            raise AssertionError("geodesic fan integrated before the tail rule")
        calls.append(args[3])
        return fan(*args, **kwargs)

    fan = geodesics.integrate_geodesic_fan
    monkeypatch.setattr(geodesics, "integrate_geodesic_fan", counted)
    cfg = write_config(tmp_path, {"command": "dichotomy", "metric": HYP,
                                  "numeric": {"fan_count": 1, "ode_horizon": T}})
    code = main(["dichotomy", "--config", cfg, "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    if rejected:
        assert code == EXIT_SCHEMA and len(err.splitlines()) == 1
        assert err.startswith("config error: ") and "exceed 0.15" in err
    else:
        assert code in (0, EXIT_CHECK_FAILURE) and calls == [T] and err == ""


def test_short_unforced_ode_horizon_passes(tmp_path):
    # without forcing there is no remainder fit, so T = 3 runs
    cfg = write_config(tmp_path, {"command": "ode-verify",
                                  "numeric": {"ode_horizon": 3.0,
                                              "ode": dict(ODE, f_amp=0.0)}})
    assert main(["ode-verify", "--config", cfg, "--out", str(tmp_path / "o")]) == 0


# mixed-type JSON values; integers stay small so a fuzzed radii count cannot
# ask for a huge ladder
SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-3, 60), st.floats(),
                    st.text(max_size=3))
VALUES = st.one_of(SCALARS, st.lists(SCALARS, max_size=5),
                   st.dictionaries(st.text(max_size=3), SCALARS, max_size=3))
SHAPED_VALUES = {
    "radii": st.one_of(VALUES, st.fixed_dictionaries(
        {}, optional={"min": SCALARS, "max": SCALARS, "count": SCALARS})),
    "ode": st.one_of(VALUES, st.fixed_dictionaries({}, optional=dict.fromkeys(
        ["p_amp", "q_amp", "f_amp", "decay"], SCALARS))),
}


def numeric_docs(command):
    """Numeric documents of the keys and tolerances ``command`` reads."""
    keys, tolerances = COMMAND_KEYS[command]
    optional = {key: SHAPED_VALUES.get(key, VALUES) for key in ("seed", *keys)}
    if tolerances:
        optional["tolerances"] = st.one_of(VALUES, st.dictionaries(
            st.sampled_from(sorted(tolerances)), SCALARS, max_size=4))
    return st.fixed_dictionaries({}, optional=optional)


@pytest.mark.parametrize("command", cli.COMMANDS)
def test_check_numeric_returns_or_raises_schema_error(command):
    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(numeric=numeric_docs(command))
    def check(numeric):
        try:
            check_numeric(command, numeric)
        except SchemaError:
            pass
    check()


# Metric documents of every family and kind, valid except for up to two
# corrupted entries: values of the wrong JSON type, NaN and +-inf, bools,
# numeric strings, an n out of range or another n in a nested base, missing
# and unknown keys.  Valid axes include huge and tiny entries.
JUNK = st.one_of(st.none(), st.booleans(),
                 st.sampled_from(["0.5", "3", "x", float("nan"), float("inf"),
                                  -float("inf"), 10**400, -1.0, 0, 2, 3, 4,
                                  N_MAX + 1, 10**9]),
                 st.lists(st.sampled_from([0, 1.0, "1", True, None]), max_size=4),
                 st.dictionaries(st.text(max_size=2), st.integers(0, 2), max_size=1))
PARAM = st.floats(0.1, 5.0)
AXIS_ENTRY = st.sampled_from([0.0, 1.0, -0.5, 2, 1e308, -1e308, 1e-320, 5e-324])


@st.composite
def valid_metric_docs(draw, n=None, depth=0):
    n = draw(st.sampled_from([3, 4])) if n is None else n
    family = draw(st.sampled_from(["hyperbolic", "schwarzschild_ads"]
                                  + ["conformal", "perturbed"] * (depth < 2)))
    params = {}
    if family == "schwarzschild_ads":
        params["m"] = draw(PARAM)
    elif family == "conformal":
        params["base"] = draw(valid_metric_docs(n, depth + 1))
        params["profile"] = draw(st.one_of(
            st.fixed_dictionaries({"kind": st.just("constant"), "value": PARAM}),
            st.fixed_dictionaries({"kind": st.just("power_tail"), "amp": PARAM,
                                   "rate": PARAM}, optional={"onset": PARAM})))
    elif family == "perturbed":
        params["base"] = draw(valid_metric_docs(n, depth + 1))
        params["perturbation"] = draw(st.fixed_dictionaries(
            {"kind": st.just("axis_bump"),
             "axis": st.lists(AXIS_ENTRY, min_size=n, max_size=n)},
            optional=dict.fromkeys(["amp", "rate", "width", "onset"], PARAM)))
    return {"family": family, "n": n, "params": params}


def _objects(doc):
    """Every object of a document, outermost first."""
    found = [doc]
    for val in doc.values():
        if isinstance(val, dict):
            found += _objects(val)
    return found


@st.composite
def metric_docs(draw):
    doc = draw(valid_metric_docs())
    for _ in range(draw(st.integers(0, 2))):
        obj = draw(st.sampled_from(_objects(doc)))
        action = draw(st.sampled_from(["junk", "drop", "unknown"]))
        if action == "unknown" or not obj:
            obj[draw(st.sampled_from(["extra", "kind", "family", "n"]))] = draw(JUNK)
        elif action == "junk":
            obj[draw(st.sampled_from(sorted(obj)))] = draw(JUNK)
        else:
            del obj[draw(st.sampled_from(sorted(obj)))]
    return doc


@settings(derandomize=True, max_examples=400, deadline=None)
@given(doc=metric_docs())
def test_resolve_metric_returns_spec_or_raises_schema_error(doc):
    try:
        spec, resolved = resolve_metric(doc)
    except SchemaError:
        return
    assert resolved is doc
    base = getattr(spec, "base", None)
    assert base is None or base.n == spec.n


# End-to-end fuzz of main: every command, valid and malformed metric specs, and
# numeric documents of the command's own keys, with small in-range values and
# at most one malformed entry: a bad value or a key the command does not read.
# The keys that set a run's cost are always present and small, and a malformed
# value never names a large count, so no example is heavy.
MALFORMED = st.one_of(st.none(), st.booleans(), st.text(max_size=3),
                      st.integers(-3, 0), st.sampled_from([float("nan"), float("inf"), -1.0]),
                      st.lists(SCALARS, max_size=3),
                      st.dictionaries(st.text(max_size=3), SCALARS, max_size=2))


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False)


RUN_SPECS = st.sampled_from([
    HYP, SCHW, HYP4,
    {"family": "schwarzschild_ads", "n": 4, "params": {"m": 0.5}},
    {"family": "schwarzschild_ads", "n": 3, "params": {"m": -0.3}},
    {"family": "perturbed", "n": 3, "params": {
        "base": HYP, "perturbation": {"kind": "axis_bump", "axis": [0.0, 0.0, 1.0]}}},
    {"family": "conformal", "n": 3, "params": {
        "base": HYP, "profile": {"kind": "power_tail", "amp": 0.05, "rate": 3.0}}},
    {"family": "warped_product", "n": 3, "params": {}},
    {"family": "hyperbolic", "n": 2, "params": {}},
    {"family": "nope", "n": 3},
    {"family": "perturbed", "n": 3, "params": {"base": [], "perturbation": {}}},
    {"family": "conformal", "n": 3, "params": {"base": HYP, "profile": 1}},
    {"family": "schwarzschild_ads", "n": 3, "params": {"m": [1]}},
    "/nonexistent/metric.json", None, -1.0, [], {"family": "hyperbolic"},
])
COST_KEYS = {
    "quad_polar": st.integers(4, 8),
    "quad_azimuth": st.integers(4, 8),
    "radial_nodes": st.integers(1, 8),
    "pairs": st.integers(1, 2),
    "fan_count": st.integers(1, 4),
    "sample_points": st.integers(1, 20),
    "ode_horizon": _floats(0.5, 10.0),
}
IN_RANGE = COST_KEYS | {
    "radii": st.one_of(
        st.lists(_floats(0.5, 300.0), min_size=3, max_size=8, unique=True).map(sorted),
        st.fixed_dictionaries({"min": _floats(0.5, 50.0), "max": _floats(60.0, 300.0),
                               "count": st.integers(3, 8)})),
    "seed": st.integers(0, 1000),
    "ode": st.fixed_dictionaries({}, optional={
        "p_amp": _floats(-1.0, 1.0), "q_amp": _floats(-1.0, 1.0),
        "f_amp": _floats(-1.0, 1.0), "decay": _floats(0.1, 3.0)}),
    "eps_ladder": st.lists(_floats(1e-4, 0.1), min_size=2, max_size=4, unique=True),
    "q_claimed": _floats(0.5, 5.0),
    "decay_rate": _floats(-1.0, 4.0),
    "phi_amp": _floats(-0.3, 0.3),
    "r_min": _floats(0.1, 10.0),
    "r_max": _floats(1.0, 300.0),
    "wang_radius": _floats(1e-3, 15.0),
}


@st.composite
def numeric_docs(draw, command):
    """A numeric document of ``command``: the cost keys it reads, always, and
    its other keys and tolerances, optionally."""
    keys, tolerances = COMMAND_KEYS[command]
    optional = {key: IN_RANGE[key] for key in ("seed", *keys) if key not in COST_KEYS}
    if tolerances:
        optional["tolerances"] = st.dictionaries(
            st.sampled_from(sorted(tolerances)), _floats(1e-12, 1.0), max_size=3)
    doc = draw(st.fixed_dictionaries(
        {key: COST_KEYS[key] for key in keys if key in COST_KEYS}, optional=optional))
    if draw(st.sampled_from(range(4))) == 3:      # one document in four
        key = draw(st.sampled_from(sorted(NUMERIC_KEYS) + ["tolerances", "unknown"]))
        doc[key] = draw(MALFORMED)
    return doc


@pytest.mark.parametrize("command", cli.COMMANDS)
@settings(derandomize=True, max_examples=4, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
# a document for every command, of which each run reads its own
@given(docs=st.fixed_dictionaries({c: numeric_docs(c) for c in cli.COMMANDS}),
       metric=RUN_SPECS)
# two smallest epsilons one ulp apart leave the order fit rank 1
@example(docs={"first-variation": {"quad_polar": 4, "quad_azimuth": 4,
                                   "eps_ladder": [0.03, 0.001, 0.0010000000000000002]}},
         metric=SCHW)
# a horizon of 0.01 leaves one sample in every tail-half growth fit
@example(docs={"dichotomy": {"fan_count": 1, "ode_horizon": 0.01}}, metric=HYP)
def test_main_exit_code_contract(tmp_path, capfd, command, docs, metric):
    # exit 4 is an input that reached a failure nobody classified, and a
    # warning a numerical event nobody classified: both fail.  Every warning
    # is an error here
    assume(command in docs)      # each @example is for one command
    numeric = docs[command]
    metric = None if command == "ode-verify" else metric    # it takes no metric
    cfg = write_config(tmp_path, {"command": command, "metric": metric,
                                  "numeric": numeric})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([command, "--config", cfg, "--out", str(tmp_path / "o")])
    err = capfd.readouterr().err
    assert code in (0, EXIT_CHECK_FAILURE, EXIT_SCHEMA, EXIT_NUMERICAL), err
    assert "Traceback" not in err and "Warning" not in err


def test_null_tolerances_and_ode_mean_empty(tmp_path):
    cfg = write_config(tmp_path, {"command": "ode-verify",
                                  "numeric": {"tolerances": None, "ode": None}})
    assert run(load_config(cfg), out_dir=tmp_path / "o") == 0
    numeric = read_report(tmp_path / "o", "ode-verify")["config"]["numeric"]
    assert numeric["tolerances"] == numeric["ode"] == {}


@pytest.mark.parametrize("blocker", ["out", "out/mass_report.json"],
                         ids=["out-is-file", "report-is-directory"])
def test_unwritable_output_rejected(tmp_path, capsys, blocker):
    # --out names a regular file, or the report path is a directory (which the
    # unlink before each write refuses): exit 2, one line, no traceback
    if blocker == "out":
        (tmp_path / "out").write_text("")
    else:
        (tmp_path / blocker).mkdir(parents=True)
    cfg = write_config(tmp_path, {"command": "mass", "metric": HYP})
    assert main(["mass", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_SCHEMA
    err = capsys.readouterr().err
    assert err.startswith("output error: ") and "Traceback" not in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ["mass", "--config", "c.json", "--seed", "3"],
    ["mass"],
    ["nope", "--config", "c.json"],
], ids=["unknown-option", "missing-config", "unknown-command"])
def test_bad_command_line_is_one_usage_error_line(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_SCHEMA
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and "Traceback" not in err
    assert len(err.splitlines()) == 1


def test_unexpected_exception_is_internal_error(tmp_path, capsys, monkeypatch):
    def broken(spec, numeric):
        raise KeyError("boom")
    monkeypatch.setitem(cli.HANDLERS, "mass", broken)
    cfg = write_config(tmp_path, {"command": "mass", "metric": HYP})
    assert main(["mass", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_INTERNAL
    assert capsys.readouterr().err == "internal error: KeyError: 'boom'\n"


def test_command_mismatch_rejected(tmp_path):
    cfg = write_config(tmp_path, {"command": "mass", "metric": HYP})
    assert main(["curvature", "--config", cfg,
                 "--out", str(tmp_path / "o")]) == EXIT_SCHEMA


def test_numerical_failure_exit(tmp_path):
    # a decay ladder dipping inside the horizon is a numerical failure (3)
    cfg = write_config(tmp_path, {
        "command": "verify-ah",
        "metric": {"family": "schwarzschild_ads", "n": 3, "params": {"m": 40.0}},
        "numeric": {"radii": [0.5, 1.0, 2.0, 5.5]}})
    rc = main(["verify-ah", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == EXIT_NUMERICAL


@pytest.mark.parametrize("command,solver,numeric", [
    ("deform", "ahmass.radial.solve_bvp", {}),
    ("dichotomy", "ahmass.geodesics.solve_ivp", {"fan_count": 1}),
], ids=["deform", "dichotomy"])
def test_solver_failure_is_a_numerical_failure(tmp_path, capsys, monkeypatch, command,
                                               solver, numeric):
    # a solver that reports failure exits 3 with one stderr line
    monkeypatch.setattr(solver, lambda *args, **kwargs: SimpleNamespace(
        success=False, message="forced failure"))
    cfg = write_config(tmp_path, {"command": command, "metric": HYP, "numeric": numeric})
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: ") and "forced failure" in err
    assert len(err.splitlines()) == 1


def test_deform_that_cannot_converge_stops_at_the_node_cap(tmp_path, capsys,
                                                            monkeypatch):
    # a target decay next to -1 refines collocation until the node cap runs out
    import ahmass.radial as radial
    caps, real = [], radial.solve_bvp

    def spy(*args, **kwargs):
        caps.append(kwargs["max_nodes"])
        return real(*args, **kwargs)

    monkeypatch.setattr(radial, "solve_bvp", spy)
    cfg = write_config(tmp_path, {"command": "deform", "metric": HYP,
                                  "numeric": {"decay_rate": -0.999}})
    assert main(["deform", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_NUMERICAL
    assert "collocation failed" in capsys.readouterr().err
    assert caps and set(caps) == {radial.BVP_MAX_NODES}


@pytest.mark.parametrize("metric", [HYP, SCHW], ids=["hyperbolic", "schwarzschild_ads"])
def test_deform_passes_on_the_zero_target(tmp_path, metric):
    # u = 0 solves phi = 0 exactly: the Newton residuals after the zero first
    # one are roundoff (3e-15 to 3e-13), below radial.RESIDUAL_FLOOR, so no
    # contraction ratio is read from them
    cfg = write_config(tmp_path, {"command": "deform", "metric": metric,
                                  "numeric": {"phi_amp": 0}})
    out = tmp_path / "o"
    assert main(["deform", "--config", cfg, "--out", str(out)]) == 0
    results = read_report(out, "deform")["results"]
    assert results["newton_residuals"][0] == 0
    assert max(results["newton_residuals"][1:]) < 1e-12
    assert results["contraction_ratios"] == [0, 0, 0]


def test_check_failure_exit(tmp_path):
    # claim an absurdly sharp duality tolerance: checks fail, exit code 1
    cfg = write_config(tmp_path, {
        "command": "duality-check", "metric": HYP,
        "numeric": {"pairs": 1, "radial_nodes": 8, "quad_polar": 6,
                    "quad_azimuth": 8,
                    "tolerances": {"duality_residual": 1e-30}}})
    assert main(["duality-check", "--config", cfg,
                 "--out", str(tmp_path / "o")]) == EXIT_CHECK_FAILURE


@pytest.mark.parametrize("command,metric,numeric", [
    ("curvature", SCHW, {"sample_points": 50}),
    ("verify-ah", SCHW, {"q_claimed": 3.0}),
    ("eigenfunction", HYP, {}),
    ("eigenfunction", SCHW, {}),
    ("deform", HYP, {}),
    ("dichotomy", HYP, {"fan_count": 9}),
    ("rigidity-check", HYP, {}),
    ("duality-check", {"family": "schwarzschild_ads", "n": 4, "params": {"m": 0.5}},
     {"quad_polar": 10, "quad_azimuth": 20, "radial_nodes": 16, "pairs": 1}),
    # no quad_*: the 16 x 32 default is scaled to 6 x 12 on S^3
    ("first-variation", HYP4, {}),
    # a metric built on schwarzschild_ads keeps its horizon clamp (0.887)
    ("curvature", {"family": "conformal", "n": 3, "params": {"base": SCHW, "profile": {
        "kind": "power_tail", "amp": 0.05, "rate": 3.0}}}, {"sample_points": 50, "r_min": 0.5}),
    ("curvature", {"family": "perturbed", "n": 3, "params": {"base": SCHW, "perturbation": {
        "kind": "axis_bump", "axis": [1.0, 0.0, 0.0]}}}, {"sample_points": 50, "r_min": 0.5}),
])
def test_remaining_commands_pass(tmp_path, command, metric, numeric):
    cfg = write_config(tmp_path, {"command": command, "metric": metric,
                                  "numeric": numeric})
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 0
    doc = read_report(out, command)
    assert doc["command"] == command
    assert all(c["pass"] for c in doc["checks"])


def test_dichotomy_axis_seed_rides_in_the_fan(hyp3, monkeypatch):
    # one solve_ivp call for the seed fan and the decaying combination's axis
    # seed; the axis result matches a standalone one-seed classification
    import ahmass.geodesics as geodesics
    from ahmass.fields import ScalarField
    from ahmass.metrics import static_potential
    V0, x1 = static_potential(3, 0), static_potential(3, 1)
    diff = ScalarField(lambda c, order: V0.jet(c, order) - x1.jet(c, order))
    axis = geodesics.axis_seed(3)[None]
    axis_fan = geodesics.integrate_geodesic_fan(
        hyp3, axis, geodesics.unit_radial_direction(hyp3, axis[0])[None], 9.0)
    alone = geodesics.classify_growth(diff, axis_fan)[0]
    calls = []
    solve_ivp = geodesics.solve_ivp

    def counted(*args, **kwargs):
        calls.append(args[1])
        return solve_ivp(*args, **kwargs)

    monkeypatch.setattr(geodesics, "solve_ivp", counted)
    results, checks, tables = cli.run_dichotomy(hyp3, {"fan_count": 16})
    assert len(calls) == 1
    axis = results["V0_minus_x1_axis"]
    assert axis["label"] == alone.label == "decay"
    assert abs(axis["slope"] - alone.slope) < 1e-8
    assert {row[1] for row in tables["labels"][1]} == set(range(16))
    assert {row[0] for row in tables["trajectories"][1]} == set(range(16))


# a first-order-correct draw whose eps^2 term at eps = 0.03 pulls a fit over
# the whole ladder to order 0.896; the two smallest epsilons give 0.98
FIRST_ORDER_DRAW = {"command": "first-variation", "numeric": {"seed": 847720050},
                    "metric": {"family": "schwarzschild_ads", "n": 3,
                               "params": {"m": 0.636646}}}


def test_first_variation_order_is_taken_at_the_small_end(tmp_path):
    cfg = write_config(tmp_path, FIRST_ORDER_DRAW)
    out = tmp_path / "out"
    assert main(["first-variation", "--config", cfg, "--out", str(out)]) == 0
    results = read_report(out, "first-variation")["results"]
    eps, errors = results["epsilons"], results["errors"]
    local = np.log(errors[-2] / errors[-1]) / np.log(eps[-2] / eps[-1])
    assert results["order"] == pytest.approx(local, rel=1e-12)
    assert 0.9 <= results["order"] < 1.1


def test_first_variation_wrong_side_fails(tmp_path, monkeypatch):
    # L_g h off by 1% shifts every difference quotient by a constant, so the
    # errors stop shrinking with eps
    import ahmass.operators as ops
    exact = ops.linearized_scalar_values
    monkeypatch.setattr(ops, "linearized_scalar_values",
                        lambda app, h: 1.01 * exact(app, h))
    cfg = write_config(tmp_path, FIRST_ORDER_DRAW)
    out = tmp_path / "out"
    assert main(["first-variation", "--config", cfg, "--out", str(out)]) == EXIT_CHECK_FAILURE
    assert read_report(out, "first-variation")["results"]["order"] < 0.9


def test_first_variation_on_an_indefinite_metric_is_a_numerical_failure(tmp_path, capsys):
    # at eps = 100, g + eps h has det <= 0 at some nodes: no report is computed
    # on a tensor that is not a metric, and numpy warns of no invalid sqrt
    doc = dict(FIRST_ORDER_DRAW, numeric={"seed": 847720050, "eps_ladder": [100, 50],
                                          "quad_polar": 6, "quad_azimuth": 12})
    cfg = write_config(tmp_path, doc)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        status = main(["first-variation", "--config", cfg, "--out", str(tmp_path / "o")])
    assert status == EXIT_NUMERICAL
    # the 48 x 6 x 12 = 3,456 support nodes span two node blocks; the count
    # is taken over all of them
    found = re.search(r"det g <= 0 at (\d+) of (\d+) points", capsys.readouterr().err)
    assert int(found.group(2)) == 48 * 6 * 12 > quadrature.NODE_BLOCK
    # the count numpy's determinant gives on these nodes
    assert int(found.group(1)) == 1116


def test_dichotomy_through_an_indefinite_metric_is_a_numerical_failure(tmp_path, monkeypatch,
                                                                       capsys):
    # the geodesic right-hand side inverts g with the apparatus's determinant
    # test: a fan that runs into det g < 0 (here beyond r = 3) stops with the
    # apparatus's message instead of integrating through a non-metric
    from ahmass import jets as J
    from ahmass.metrics import HyperbolicMetric

    class IndefiniteBeyond3(HyperbolicMetric):
        def component_jets(self, coords, order=2):
            g, dg, ddg = super().component_jets(coords, order)
            far = np.asarray(coords)[:, 0] > 3.0
            g[far, 2, 2] *= -1.0
            dg[far, :, 2, 2] *= -1.0
            if ddg is not None:
                ddg[far, :, :, 2, 2] *= -1.0
            return J.Jet(g, dg, ddg)

    monkeypatch.setattr(cli, "resolve_metric", lambda doc: (IndefiniteBeyond3(3), HYP))
    cfg = write_config(tmp_path, {"command": "dichotomy", "metric": HYP,
                                  "numeric": {"fan_count": 4, "ode_horizon": 3.0}})
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        status = main(["dichotomy", "--config", cfg, "--out", str(tmp_path / "o")])
    assert status == EXIT_NUMERICAL
    assert "not positive definite: det g <= 0 at" in capsys.readouterr().err


# 72 directions x 32 radii = 2,304 duality nodes and 72 x 48 = 3,456
# first-variation nodes: two node blocks each, the second a short one
BLOCKED_RUNS = [
    {"command": "duality-check", "metric": SCHW,
     "numeric": {"seed": 5, "pairs": 3, "quad_polar": 6, "quad_azimuth": 12}},
    dict(FIRST_ORDER_DRAW, numeric={"seed": 847720050, "quad_polar": 6,
                                    "quad_azimuth": 12}),
]


def _volume_reports(tmp_path, label):
    reports = {}
    for doc in BLOCKED_RUNS:
        command = doc["command"]
        out = tmp_path / label / command
        cfg = write_config(tmp_path, doc, name=f"{command}.json")
        assert main([command, "--config", cfg, "--out", str(out)]) == 0
        reports.update({p.name: p.read_bytes() for p in out.iterdir()
                        if not p.name.endswith("_meta.json")})
    return reports


def test_volume_reports_do_not_depend_on_node_blocks(tmp_path, monkeypatch):
    from concurrent.futures import ThreadPoolExecutor
    default = _volume_reports(tmp_path, "default")
    assert len(default) == 3      # two reports and the duality CSV
    with monkeypatch.context() as m:
        m.setattr(quadrature, "NODE_BLOCK", 10 ** 6)        # the whole rule
        assert _volume_reports(tmp_path, "whole") == default
    with monkeypatch.context() as m:
        m.setattr(quadrature, "_usable_cpus", lambda: 1)    # inline blocks
        assert _volume_reports(tmp_path, "inline") == default
    with monkeypatch.context() as m, ThreadPoolExecutor(1) as pool:
        m.setattr(quadrature, "_usable_cpus", lambda: 2)
        m.setattr(quadrature, "_node_pool", pool)           # one pool worker
        assert _volume_reports(tmp_path, "one_worker") == default


def test_an_error_in_one_node_block_is_a_numerical_failure(tmp_path, monkeypatch):
    import ahmass.operators as ops
    adjoint = ops.adjoint_values

    def failing_in_the_short_block(app, jet):
        if len(app.coords) < quadrature.NODE_BLOCK:
            raise ArithmeticError("not finite")
        return adjoint(app, jet)

    monkeypatch.setattr(ops, "adjoint_values", failing_in_the_short_block)
    cfg = write_config(tmp_path, BLOCKED_RUNS[0])
    out = tmp_path / "out"
    assert main(["duality-check", "--config", cfg, "--out", str(out)]) == EXIT_NUMERICAL


def test_reports_byte_identical(tmp_path):
    cfg = write_config(tmp_path, {"command": "verify-ah", "metric": SCHW,
                                  "numeric": {"seed": 11}})
    out = tmp_path / "same"
    assert main(["verify-ah", "--config", cfg, "--out", str(out)]) == 0
    first = (out / "verify_ah_report.json").read_bytes()
    assert main(["verify-ah", "--config", cfg, "--out", str(out)]) == 0
    second = (out / "verify_ah_report.json").read_bytes()
    assert first == second


def test_reports_independent_of_output_directory(tmp_path):
    cfg = write_config(tmp_path, {"command": "mass", "metric": SCHW,
                                  "numeric": {"quad_polar": 8, "quad_azimuth": 16}})
    files = []
    for name in ("a", "b/c"):
        out = tmp_path / name
        assert main(["mass", "--config", cfg, "--out", str(out)]) == 0
        meta = json.loads((out / "mass_meta.json").read_text())
        assert meta["output"] == str(out)
        files.append({p.name: p.read_bytes() for p in out.iterdir()
                      if not p.name.endswith("_meta.json")})
    assert sorted(files[0]) == ["mass_mass_ladder.csv", "mass_report.json"]
    assert files[0] == files[1]


ROUND_TRIP = [np.pi, 1.0 / 3.0, 1e-300, 5e-324, 2.5e17, 0.1, -0.0, 3.0,
              np.float64(np.e)]


def test_float_serialization_round_trips(tmp_path):
    results = {"x": ROUND_TRIP, "arr": np.array([1.0 / 3.0, 2.0]),
               "bad": [np.inf, -np.inf, np.nan], "count": 2}
    write_report(tmp_path / "r.json", "mass", {}, results, [], version="0")
    doc = json.loads((tmp_path / "r.json").read_text())["results"]
    for v, back in zip(ROUND_TRIP, doc["x"], strict=True):
        assert back == v and type(back) is float
        assert np.copysign(1.0, back) == np.copysign(1.0, v)
    assert doc["arr"] == [1.0 / 3.0, 2.0]
    assert doc["bad"] == ["inf", "-inf", "nan"] and doc["count"] == 2
    write_csv(tmp_path / "t.csv", ["v"], [[v] for v in ROUND_TRIP])
    cells = (tmp_path / "t.csv").read_text().splitlines()[1:]
    assert [float(c) for c in cells] == ROUND_TRIP
    assert cells[6] == "-0.0"
    # a numpy bool nobody converted is refused, not written
    with pytest.raises(TypeError):
        write_report(tmp_path / "b.json", "mass", {}, {"ok": np.bool_(True)}, [],
                     version="0")


def test_csv_format(tmp_path):
    path = tmp_path / "t.csv"
    rows = [[1.0 / 3.0, 2], [np.pi, 4], [np.float64(0.1), "label"]]
    write_csv(path, ["a", "b"], rows)
    lines = path.read_text().splitlines()
    assert lines[0] == "a,b"
    assert [line.split(",")[0] for line in lines[1:]] == [repr(float(r[0])) for r in rows]
    assert lines[3] == "0.1,label"


SETUP_PROBE = """
import json, sys, tempfile
from pathlib import Path
from ahmass.cli import load_config, resolve_metric
path = Path(tempfile.mkdtemp()) / "config.json"
metric = {"family": "schwarzschild_ads", "n": 3, "params": {"m": 0.5}}
path.write_text(json.dumps({"command": "duality-check", "metric": metric,
                            "numeric": {"pairs": 10, "seed": 1}}))
resolve_metric(load_config(path)["metric"])
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_every_package_export_resolves():
    # the namespace is lazy, so a stale name in __all__ fails only on access
    import ahmass
    for name in ahmass.__all__:
        getattr(ahmass, name)


def test_config_setup_imports_no_scipy():
    # loading and validating a config (the set-up of every command) stays
    # clear of scipy: the package namespace imports its modules on demand
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run([sys.executable, "-c", SETUP_PROBE], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": str(src)},
                         timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
