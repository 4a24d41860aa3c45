"""Self-tests of the benchmark: generator, tracer, gate and a smoke run.

    python3 -m pytest perfbench/tests -q
"""

import importlib
import inspect
import json
import shutil
import subprocess
import sys
from pathlib import Path

import gate
import run
import tracing
import workloads

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_generator_is_deterministic_and_follows_the_seed():
    for name in workloads.WORKLOADS:
        cases = workloads.make_workload(name, 7)
        assert cases == workloads.make_workload(name, 7)
        assert cases != workloads.make_workload(name, 8)
        assert len({case.label for case in cases}) == len(cases)


def test_generated_configs_pass_the_cli_validator(tmp_path):
    for name in workloads.WORKLOADS:
        prepared = workloads.prepare(name, 3, tmp_path / name)
        assert [config["command"] for _, config, _ in prepared] == [
            case.config["command"] for case in workloads.make_workload(name, 3)]


def _bindings():
    """Every attribute of the ahmass modules and of the classes they define."""
    import ahmass
    owners = [ahmass] + [importlib.import_module(f"ahmass.{m}") for m in tracing.MODULES]
    owners += [obj for mod in owners[1:] for obj in vars(mod).values()
               if inspect.isclass(obj) and obj.__module__ == mod.__name__]
    return {(owner.__name__, attr): value
            for owner in owners for attr, value in vars(owner).items()}


def test_uninstall_restores_every_patched_attribute():
    before = _bindings()
    tracer = tracing.Tracer()
    with tracer.installed():
        during = _bindings()
        changed = {key for key in before if during[key] is not before[key]}
        assert ("ahmass.curvature", "metric_apparatus") in changed
        assert ("ahmass.massflux", "metric_apparatus") in changed   # re-bound copy
        assert ("ahmass.odes", "solve_ivp") in changed
        assert ("Jet", "__rmul__") in changed
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_every_named_target_is_wrapped():
    tracer = tracing.Tracer()
    with tracer.installed():
        assert tracer.missing_targets() == []


def test_install_fails_when_a_named_target_is_gone(monkeypatch):
    before = _bindings()
    monkeypatch.setitem(tracing.METHOD_GROUPS, ("jets", "Jet", "gone"), "jets.gone")
    tracer = tracing.Tracer()
    try:
        tracer.install()
    except LookupError as exc:
        assert "jets.Jet.gone" in str(exc)
    else:
        tracer.uninstall()
        raise AssertionError("install accepted a missing target")
    after = _bindings()
    assert all(after[key] is before[key] for key in before)


def _traced_counts(prepared):
    tracer = tracing.Tracer()
    with tracer.installed():
        _, _, failed = run.run_pass(prepared)
    assert failed == 0
    metrics = tracing.layer_metrics(tracer.spans, 0, len(tracer.spans), tracer.counts)
    return {name: value for name, (value, unit) in metrics.items() if unit != "s"}


def test_traced_counts_repeat_exactly(tmp_path):
    # one case per solver and apparatus level, to keep the test short
    labels = {"curvature_ads", "mass_ads", "ode_decay2", "eigenfunction_ads"}
    prepared = [p for name in ("sphere", "solvers")
                for p in workloads.prepare(name, 5, tmp_path / name)
                if p[0].label in labels]
    first, second = _traced_counts(prepared), _traced_counts(prepared)
    assert first == second
    for name in ("curvature.apparatus_l2.points", "solver.solve_ivp.nfev",
                 "solver.solve_bvp.nodes", "solver.least_squares.nfev",
                 "reporting.bytes"):
        assert first[name] > 0, name


def test_gate_rejects_a_wrong_mass(tmp_path):
    case = next(c for c in workloads.make_workload("sphere", 1) if c.oracle == "mass_ads")
    m = case.config["metric"]["params"]["m"]
    report = {"results": {"p": [1.02 * gate.P0_SLOPE * m, 0.0, 0.0, 0.0]}}
    gate.report_path(case.config, tmp_path).write_text(json.dumps(report))
    assert gate.check_run(case, case.config, tmp_path, 0)
    assert gate.check_run(case, case.config, tmp_path, 1) == ["exit code 1"]
    report["results"]["p"][0] = gate.P0_SLOPE * m
    gate.report_path(case.config, tmp_path).write_text(json.dumps(report))
    assert gate.check_run(case, case.config, tmp_path, 0) == []


def test_metric_names_match_benchmark_json():
    layer = [name for name, _, _ in tracing.LAYER_METRICS] + ["trace.overhead_s"]
    assert layer == [m["name"] for m in BENCHMARK["per_layer"]]
    units = {name: unit for name, unit, _ in tracing.LAYER_METRICS}
    for metric in BENCHMARK["per_layer"]:
        assert units.get(metric["name"], "s") == metric["unit"]


def _run(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_smoke_run_passes_the_gate():
    out = _run(ROOT, "--workload", "solvers", "--seed", "2", "--seconds", "0",
               "--trace", "0")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 6
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == list(result["metrics"])
    for metric in BENCHMARK["end_to_end"]:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"] and reported["value"] > 0


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    out = _run(tmp_path, "--workload", "sphere", "--seed", "1", "--seconds", "1",
               "--trace", "0")
    assert out.returncode != 0
    assert out.stdout.strip() == ""
