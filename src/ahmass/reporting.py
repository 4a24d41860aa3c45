"""Deterministic report and CSV emission.

Reports are JSON documents with keys {"command", "config", "results",
"checks"}; floats are serialized with 17 significant digits so values
round-trip exactly and reruns with the same configuration are byte-identical.
Timestamps, runtimes and the output path go to a separate metadata file, so
the same configuration gives the same report and CSV bytes in any directory.

Every file is written by ``_write``, which unlinks an existing file first and
then writes a new one.  On ext4 with its default ``auto_da_alloc``, replacing
a recently written file by truncating it forces the file's data out to disk
(so that a crash cannot leave it empty), and a rerun into an existing output
directory waited tens of milliseconds per file with the CPU idle.  Writing a
temporary file and renaming it over the old one is not used: ext4 forces the
same flush on a rename over an existing file, and it stalled the same way.
The cost of the unlink is that an overwritten report loses that
flush-on-truncate protection, so a crash just after a rerun can leave it
empty or missing.  That is acceptable because every report can be
regenerated from its configuration.
"""

from __future__ import annotations

import math
from pathlib import Path


def format_float(x: float) -> str:
    if isinstance(x, float):
        if math.isnan(x):
            return '"nan"'
        if math.isinf(x):
            return '"inf"' if x > 0 else '"-inf"'
        return format(x, ".17g")
    return repr(x)


def _serialize(obj, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        rows = []
        for key in obj:  # insertion order is deterministic by construction
            rows.append(f'{pad}  "{key}": {_serialize(obj[key], indent + 1)}')
        return "{\n" + ",\n".join(rows) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if len(obj) == 0:
            return "[]"
        rows = [f"{pad}  {_serialize(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(rows) + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, float):
        return format_float(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, str):
        return '"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"'
    raise TypeError(f"cannot serialize {type(obj)}")


def _write(path, text: str) -> None:
    """Replace ``path`` with ``text``: unlink, then write a new file."""
    path = Path(path)
    path.unlink(missing_ok=True)
    path.write_text(text)


def dump_json(doc: dict) -> str:
    return _serialize(doc) + "\n"


def write_report(path, command: str, config: dict, results: dict,
                 checks: list, version: str) -> bool:
    """Write the report JSON; returns True when every check passes."""
    doc = {"command": command, "config": config, "results": results,
           "checks": checks, "toolkit_version": version}
    _write(path, dump_json(doc))
    return all(c["pass"] for c in checks)


def write_meta(path, runtime_seconds: float, version: str, output: str):
    import datetime
    doc = {"timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
           "runtime_seconds": runtime_seconds, "toolkit_version": version,
           "output": output}
    _write(path, dump_json(doc))


def write_csv(path, header: list, rows) -> None:
    """Comma-separated table, decimal points, no locale formatting."""
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for v in row:
            if isinstance(v, float):
                cells.append(format(v, ".17g"))
            else:
                cells.append(str(v))
        lines.append(",".join(cells))
    _write(path, "\n".join(lines) + "\n")


def check(name: str, value: float, tolerance: float, passed=None) -> dict:
    if passed is None:
        passed = bool(value <= tolerance)
    return {"name": name, "value": float(value), "tolerance": float(tolerance),
            "pass": bool(passed)}
