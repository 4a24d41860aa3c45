"""The README runs and reads as the code does: its library quick tour runs as
written, its config tables and example match the command declarations, and
its metric families are the spec language's."""

import json
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_tour_runs(capsys):
    tour = README.read_text(encoding="utf-8").split("## Library quick tour", 1)[1]
    code = re.search(r"```python\n(.*?)```", tour, re.S).group(1)
    exec(compile(code, f"{README.name} quick tour", "exec"), {})
    assert len(capsys.readouterr().out.split()) == 4   # the four printed values


def _table(header):
    """The rows of the README table under ``header``, as lists of cells."""
    lines = README.read_text(encoding="utf-8").split(f"\n{header}\n", 1)[1].splitlines()
    rows = []
    for line in lines[1:]:               # past the |---| line
        if not line.startswith("|"):
            return rows
        rows.append([cell.strip() for cell in line.strip("|").split(" | ")])
    return rows


def _commands(cell):
    from ahmass.cli import COMMANDS
    if cell.startswith("every command"):
        return set(COMMANDS)
    return set(re.findall(r"`([\w-]+)`", cell)) & set(COMMANDS)


def test_readme_key_table_names_the_commands_that_read_each_key():
    from ahmass.cli import COMMAND_KEYS, NUMERIC_KEYS
    documented = {}
    for key_cell, command_cell, _ in _table("| key | command | value |"):
        for key in re.findall(r"`(\w+)`", key_cell):
            documented[key] = _commands(command_cell)
    declared = {key: {c for c, (keys, _) in COMMAND_KEYS.items() if key in keys}
                for key in NUMERIC_KEYS}
    declared["seed"] = set(COMMAND_KEYS)
    declared["tolerances"] = {c for c, (_, tols) in COMMAND_KEYS.items() if tols}
    assert documented == declared


def test_readme_tolerance_table_matches_the_declarations():
    from ahmass.cli import COMMAND_KEYS
    documented = {}
    for command_cell, names in _table("| command | tolerances (default) |"):
        command, = _commands(command_cell)
        documented[command] = {name: float(default) for name, default in
                               re.findall(r"`(\w+)` \(([^,)]+)", names)}
    assert documented == {c: tols for c, (_, tols) in COMMAND_KEYS.items() if tols}


def test_readme_config_example_is_accepted():
    from ahmass.cli import CONFIG_KEYS, check_numeric
    from ahmass.fields import check_document
    text = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    doc = check_document(json.loads(re.search(r"```json\n(.*?)```", text, re.S).group(1)),
                         CONFIG_KEYS, "config")
    check_numeric(doc["command"], doc["numeric"])


def test_readme_metric_families_are_the_spec_families():
    from ahmass.metrics import FAMILIES
    text = README.read_text(encoding="utf-8")
    bullets = re.search(r"\nMetric families[^\n]*:\n\n((?:.+\n)+)", text).group(1)
    assert re.findall(r'^- `\{"family": "(\w+)"', bullets, re.M) == list(FAMILIES)
