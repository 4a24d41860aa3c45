"""Command-line surface: schema strictness, exit codes, determinism."""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from ahmass import cli
from ahmass.cli import (DEFAULT_TOLERANCES, EXIT_CHECK_FAILURE, EXIT_INTERNAL,
                        EXIT_NUMERICAL, EXIT_SCHEMA, NUMERIC_KEYS, SchemaError,
                        load_config, main, run)
from ahmass.reporting import dump_json, format_float, write_csv


def write_config(tmp_path, doc, name="config.json"):
    p = tmp_path / name
    p.unlink(missing_ok=True)   # a truncating overwrite stalls on ext4
    p.write_text(json.dumps(doc))
    return str(p)


def read_report(out_dir, command):
    stem = command.replace("-", "_")
    return json.loads((Path(out_dir) / f"{stem}_report.json").read_text())


HYP = {"family": "hyperbolic", "n": 3, "params": {}}
SCHW = {"family": "schwarzschild_ads", "n": 3, "params": {"m": 0.5}}


def test_mass_on_background(tmp_path):
    cfg = write_config(tmp_path, {"command": "mass", "metric": HYP})
    out = tmp_path / "out"
    assert main(["mass", "--config", cfg, "--out", str(out)]) == 0
    doc = read_report(out, "mass")
    assert doc["results"]["p"] == [0, 0, 0, 0]
    assert doc["results"]["defect"] == 0
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
    # the report embeds the resolved config and the metric spec
    assert doc["config"]["metric"] == SCHW


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


WARPED = {"family": "warped_product", "n": 3}


@pytest.mark.parametrize("command,metric", [
    ("deform", PERTURBED3),          # no radial reduction
    ("eigenfunction", PERTURBED3),   # no radial reduction
    ("mass", WARPED),                # not on the exterior chart
    ("verify-ah", WARPED),           # not on the exterior chart
    ("rigidity-check", {"family": "hyperbolic", "n": 4}),   # n = 3 fixture only
], ids=["deform", "eigenfunction", "mass-warped", "verify-ah-warped",
        "rigidity-check-n4"])
def test_unsupported_metric_rejected(tmp_path, capsys, command, metric):
    cfg = write_config(tmp_path, {"command": command, "metric": metric})
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_SCHEMA
    err = capsys.readouterr().err
    assert err.startswith("unsupported: ") and "Traceback" not in err


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
], ids=["spec-list", "params-int", "base-list", "perturbation-list", "profile-int",
        "profile-value-null", "mass-list", "mass-nan", "mass-inf",
        "power-tail-rate-inf", "axis-bump-width-nan"])
def test_malformed_metric_spec_rejected(tmp_path, capsys, metric):
    # a spec, or a part of one, of the wrong JSON type is a config error
    cfg = write_config(tmp_path, {"command": "mass", "metric": metric})
    assert main(["mass", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_SCHEMA
    err = capsys.readouterr().err
    assert err.startswith("config error: bad metric spec: ") and "Traceback" not in err


def test_mass_without_rotational_symmetry_n4(tmp_path):
    # the sphere rule is exact at every n, so mass needs no symmetry at n = 4
    cfg = write_config(tmp_path, {"command": "mass", "metric": PERTURBED4})
    out = tmp_path / "out"
    assert main(["mass", "--config", cfg, "--out", str(out)]) == 0
    assert np.isfinite(read_report(out, "mass")["results"]["p"][0])


ODE = {"p_amp": 0.1, "q_amp": 0.1, "f_amp": 1.0, "decay": 2.0}
HYP4 = {"family": "hyperbolic", "n": 4, "params": {}}
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
    ("ode-verify", {"ode": dict(ODE, p_amp="a")}, None, EXIT_SCHEMA),
    ("ode-verify", {"ode": dict(ODE, decay=0)}, None, EXIT_SCHEMA),
    ("rigidity-check", {"wang_radius": -1.0}, HYP, EXIT_SCHEMA),
    # a ball inside the inner radius of the identity's volume rule
    ("rigidity-check", {"wang_radius": 0.005}, HYP, EXIT_NUMERICAL),
    ("mass", {"tolerances": {"wang_gap": True}}, HYP, EXIT_SCHEMA),
    ("mass", {"radii": {"min": 20.0, "max": 200.0, "count": 10**7}}, HYP,
     EXIT_SCHEMA),
    # 100^3 x 12 nodes on S^4: rejected before the rule is built
    ("mass", {"quad_polar": 100}, HYP5, EXIT_SCHEMA),
    # volume rules beyond VOLUME_NODES_MAX: 288 x 100000 and 16000 x 112 nodes,
    # rejected before the mesh is built
    ("duality-check", {"radial_nodes": 100000}, HYP, EXIT_SCHEMA),
    ("first-variation", {"quad_polar": 20, "quad_azimuth": 40}, HYP4, EXIT_SCHEMA),
    ("rigidity-check", {"radial_nodes": 100000}, HYP, EXIT_SCHEMA),
    # cosh(t)^2 of the warped metric overflows at t near 200
    ("curvature", {"sample_points": 20, "r_min": 0.5, "r_max": 200.0, "seed": 4},
     WARPED, EXIT_NUMERICAL),
], ids=["pairs-zero", "pairs-string", "quad-polar-2", "radius-nan",
        "sample-points-zero", "seed-bool", "eps-ladder-empty-schw",
        "eps-ladder-empty", "eps-ladder-one", "eps-ladder-zero",
        "decay-rate-string", "r-max-string", "deform-decay-rate-string",
        "q-claimed-string", "ode-amp-string", "ode-decay-zero",
        "wang-radius-negative", "wang-radius-inside-inner", "tolerance-bool",
        "radii-count-huge", "sphere-nodes-huge", "duality-volume-huge",
        "first-variation-volume-huge", "rigidity-volume-huge",
        "curvature-warped-overflow"])
def test_bad_numeric_value_rejected(tmp_path, capsys, command, numeric, metric, code):
    cfg = write_config(tmp_path, {"command": command, "metric": metric, "numeric": numeric})
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == code
    err = capsys.readouterr().err
    prefix = "config error: " if code == EXIT_SCHEMA else "numerical failure: "
    assert err.startswith(prefix) and "Traceback" not in err


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
    # the forced-remainder fit window 2 <= t <= T - 2 is empty at T = 3
    cfg = write_config(tmp_path, {"command": "ode-verify",
                                  "numeric": {"ode_horizon": 3.0, "ode": ODE}})
    assert main(["ode-verify", "--config", cfg,
                 "--out", str(tmp_path / "o")]) == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: ") and "Traceback" not in err
    assert len(err.splitlines()) == 1 and "at least 4.03" in err


# mixed-type JSON values; integers stay small so a fuzzed radii count cannot
# ask for a huge ladder
SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-3, 60), st.floats(),
                    st.text(max_size=3))
VALUES = st.one_of(SCALARS, st.lists(SCALARS, max_size=5),
                   st.dictionaries(st.text(max_size=3), SCALARS, max_size=3))
NUMERIC_DOCS = st.fixed_dictionaries({}, optional=dict.fromkeys(NUMERIC_KEYS, VALUES) | {
    "radii": st.one_of(VALUES, st.fixed_dictionaries(
        {}, optional={"min": SCALARS, "max": SCALARS, "count": SCALARS})),
    "tolerances": st.one_of(VALUES, st.dictionaries(
        st.sampled_from(sorted(DEFAULT_TOLERANCES)), SCALARS, max_size=4)),
    "ode": st.one_of(VALUES, st.fixed_dictionaries({}, optional=dict.fromkeys(
        ["p_amp", "q_amp", "f_amp", "decay"], SCALARS))),
})


@settings(derandomize=True, max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(numeric=NUMERIC_DOCS, tol=st.one_of(st.none(), st.floats()))
def test_load_config_returns_or_raises_schema_error(tmp_path, numeric, tol):
    cfg = write_config(tmp_path, {"command": "mass", "metric": HYP, "numeric": numeric})
    for overrides in (None, {"tol": tol}):
        try:
            load_config(cfg, overrides)
        except SchemaError:
            pass


# End-to-end fuzz of main: every command, valid and malformed metric specs, and
# numeric documents of small in-range values with at most one malformed entry.
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
OTHER_KEYS = {
    "radii": st.one_of(
        st.lists(_floats(0.5, 300.0), min_size=3, max_size=8, unique=True).map(sorted),
        st.fixed_dictionaries({"min": _floats(0.5, 50.0), "max": _floats(60.0, 300.0),
                               "count": st.integers(3, 8)})),
    "seed": st.integers(0, 1000),
    "tolerances": st.dictionaries(st.sampled_from(sorted(DEFAULT_TOLERANCES)),
                                  _floats(1e-12, 1.0), max_size=3),
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
def run_numeric(draw):
    doc = draw(st.fixed_dictionaries(COST_KEYS, optional=OTHER_KEYS))
    if draw(st.sampled_from(range(4))) == 3:      # one document in four
        doc[draw(st.sampled_from(sorted(NUMERIC_KEYS) + ["unknown"]))] = draw(MALFORMED)
    return doc


@settings(derandomize=True, max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command=st.sampled_from(cli.COMMANDS),
       metric=RUN_SPECS, numeric=run_numeric())
def test_main_exit_code_contract(tmp_path, capfd, command, metric, numeric):
    cfg = write_config(tmp_path, {"command": command, "metric": metric,
                                  "numeric": numeric})
    code = main([command, "--config", cfg, "--out", str(tmp_path / "o")])
    assert code in (0, EXIT_CHECK_FAILURE, EXIT_SCHEMA, EXIT_NUMERICAL, EXIT_INTERNAL)
    assert "Traceback" not in capfd.readouterr().err


def test_null_tolerances_without_overrides(tmp_path):
    cfg = write_config(tmp_path, {"command": "mass", "metric": HYP,
                                  "numeric": {"tolerances": None, "ode": None}})
    assert run(load_config(cfg), out_dir=tmp_path / "o") == 0


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
])
def test_remaining_commands_pass(tmp_path, command, metric, numeric):
    cfg = write_config(tmp_path, {"command": command, "metric": metric,
                                  "numeric": numeric})
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 0
    doc = read_report(out, command)
    assert doc["command"] == command
    assert all(c["pass"] for c in doc["checks"])


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


def test_float_serialization_round_trips():
    vals = [np.pi, 1.0 / 3.0, 1e-300, 2.5e17, 0.1]
    for v in vals:
        assert float(format_float(v)) == v
    doc = json.loads(dump_json({"x": np.pi, "arr": [1.0 / 3.0, 2]}))
    assert doc["x"] == np.pi
    assert doc["arr"][0] == 1.0 / 3.0


def test_csv_format(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["a", "b"], [[1.0 / 3.0, 2], [np.pi, 4]])
    lines = path.read_text().splitlines()
    assert lines[0] == "a,b"
    assert float(lines[1].split(",")[0]) == 1.0 / 3.0
