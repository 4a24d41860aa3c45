"""The README's library quick tour runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_tour_runs(capsys):
    tour = README.read_text(encoding="utf-8").split("## Library quick tour", 1)[1]
    code = re.search(r"```python\n(.*?)```", tour, re.S).group(1)
    exec(compile(code, f"{README.name} quick tour", "exec"), {})
    assert len(capsys.readouterr().out.split()) == 4   # the four printed values
