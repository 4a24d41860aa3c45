"""Deterministic report and CSV emission.

Reports are JSON documents with keys {"command", "config", "results",
"checks"}, written by ``json.dumps``; CSV cells are ``str`` of their values.
Both write a float as its shortest repr that round-trips, so values parse back
to the same double and reruns with the same configuration are byte-identical.
A non-finite float is written as the string "nan", "inf" or "-inf"; any other
value ``json`` cannot encode (a numpy bool or integer scalar, say) raises
TypeError.
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

import json
import math
from pathlib import Path

import numpy as np


def _plain(obj):
    """``obj`` as plain JSON containers, each non-finite float as a string."""
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, dict):
        return {key: _plain(val) for key, val in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(val) for val in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return "nan" if math.isnan(obj) else "inf" if obj > 0 else "-inf"
    return obj


def _write(path, text: str) -> None:
    """Replace ``path`` with ``text``: unlink, then write a new file."""
    path = Path(path)
    path.unlink(missing_ok=True)
    path.write_text(text)


def _write_json(path, doc: dict) -> None:
    _write(path, json.dumps(_plain(doc), indent=2, allow_nan=False) + "\n")


def write_report(path, command: str, config: dict, results: dict,
                 checks: list, version: str) -> bool:
    """Write the report JSON; returns True when every check passes."""
    _write_json(path, {"command": command, "config": config, "results": results,
                       "checks": checks, "toolkit_version": version})
    return all(c["pass"] for c in checks)


def write_meta(path, runtime_seconds: float, version: str, output: str):
    import datetime
    doc = {"timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
           "runtime_seconds": runtime_seconds, "toolkit_version": version,
           "output": output}
    _write_json(path, doc)


def write_csv(path, header: list, rows) -> None:
    """Comma-separated table, decimal points, no locale formatting."""
    lines = [",".join(header)] + [",".join(map(str, row)) for row in rows]
    _write(path, "\n".join(lines) + "\n")


def check(name: str, value: float, tolerance: float, passed=None) -> dict:
    if passed is None:
        passed = bool(value <= tolerance)
    return {"name": name, "value": float(value), "tolerance": float(tolerance),
            "pass": bool(passed)}
