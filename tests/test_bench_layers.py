"""The layer-benchmark harness writes the layout of the committed BENCH files.

Nothing is timed: ``_timed`` and ``time_run`` are stubbed, so only each
suite's untimed set-up runs (and ``sphere_rules``' counting ``mass`` runs,
whose reports give its rule fields).
"""

import json
import shutil
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "scripts"))
import bench_layers  # noqa: E402


def _names(cases):
    """Each case with its field names, and those of a field that is an object."""
    return {case: {key: sorted(value) if isinstance(value, dict) else None
                   for key, value in fields.items()}
            for case, fields in cases.items()}


def test_every_committed_bench_file_has_a_suite():
    assert {path.name for path in ROOT.glob("BENCH_*.json")} == {
        f"BENCH_{suite}.json" for suite in bench_layers.SUITES}


@pytest.mark.parametrize("suite", sorted(bench_layers.SUITES))
def test_suite_writes_the_cases_and_fields_of_its_last_committed_run(
        suite, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(bench_layers, "_timed", lambda fn: 0.0)
    monkeypatch.setattr(bench_layers, "time_run", lambda config, out_dir: (0.0, 0.0))
    committed = ROOT / f"BENCH_{suite}.json"
    shutil.copy(committed, tmp_path)
    assert bench_layers.main([suite, "--label", "probe", "--repeats", "1",
                              "--out-dir", str(tmp_path)]) == 0
    runs = json.loads(committed.read_text())["runs"]
    merged = json.loads((tmp_path / committed.name).read_text())["runs"]
    assert list(merged) == [*runs, "probe"]       # earlier runs kept, in order
    assert {label: merged[label] for label in runs} == runs
    *_, last = runs.values()
    assert list(merged["probe"]) == list(last) == ["machine", "repeats", "cases"]
    assert _names(merged["probe"]["cases"]) == _names(last["cases"])
