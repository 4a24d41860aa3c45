"""Outside-in tracing of ahmass: spans and counters from wrapped public functions.

``Tracer.installed()`` replaces, for the duration of a ``with`` block, every
public module-level function of each ``ahmass`` module, the layer methods
named in ``METHOD_GROUPS``, and the scipy solvers where ``ahmass`` modules
bind them, with wrappers that record a span (group, name, start, end,
parent).  Every binding of a wrapped object in the package is replaced, so a
function imported into another module with ``from .x import f`` is traced
there too.  The source tree is not changed, and on exit every patched
attribute is restored.  Untraced runs install nothing.  Installing fails if
a named target (``REQUIRED``, ``FUNCTION_GROUPS``, ``METHOD_GROUPS`` or a
scipy solver) is no longer found, so a renamed layer is an error, not a
layer that reads 0.

Spans stay in memory; ``layer_metrics`` reduces a slice of them to per-layer
calls, self time (span time minus child spans) and work counters.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import inspect
import os
import time
from collections import Counter, defaultdict

from ahmass.cli import COMMANDS

MODULES = ("chart", "cli", "curvature", "decay", "fields", "geodesics", "jets",
           "massflux", "metrics", "odes", "operators", "quadrature", "radial",
           "reporting", "rigidity")

# Functions whose layer is narrower than their module.
FUNCTION_GROUPS = {
    ("jets", "compose"): "jets.compose",
    ("massflux", "flux_integrand_values"): "massflux.flux_integrand",
    ("massflux", "extrapolate_limit"): "massflux.extrapolate",
}
# Methods wrapped on the classes of a module that define them: (module,
# class name or "*", method) -> group.
METHOD_GROUPS = {
    ("jets", "Jet", "__mul__"): "jets.product",
    ("jets", "Jet", "__rmul__"): "jets.product",
    ("metrics", "*", "component_jets"): "metrics.component_jets",
    ("fields", "*", "component_arrays"): "fields.component_arrays",
    ("fields", "ScalarField", "jet"): "fields.scalar_jet",
}
# Functions with their own span labels, which must exist.
REQUIRED = (("curvature", "metric_apparatus"), ("cli", "run"))
# Writers of the deterministic report files, whose bytes are counted under
# "reporting.bytes"; write_meta is left out, its timestamp varies.
WRITERS = ("write_report", "write_csv")


def _count_points_of_first(counts, group, args, result):
    counts[f"{group}.points"] += len(result[0])


def _count_apparatus(counts, group, args, app):
    counts[f"{group}.points"] += len(app.coords)
    if app.level >= 2:
        counts[f"{group}.bytes_computed"] += sum(
            v.nbytes for v in vars(app).values() if hasattr(v, "nbytes"))


def _count_fallbacks(counts, group, args, result):
    counts[f"{group}.fallbacks"] += bool(result[3])   # flags of the fit


def _count_file_bytes(counts, group, args, result):
    counts["reporting.bytes"] += os.path.getsize(args[0])


def _count_nfev(counts, group, args, result):
    counts[f"{group}.nfev"] += int(result.nfev)


def _count_nodes(counts, group, args, result):
    counts[f"{group}.nodes"] += int(result.x.size)


# Work counters added after each successful call, by group.
TALLIES = {
    "metrics.component_jets": _count_points_of_first,
    "fields.component_arrays": _count_points_of_first,
    "massflux.flux_integrand": _count_points_of_first,
    "massflux.extrapolate": _count_fallbacks,
    "solver.solve_ivp": _count_nfev,
    "solver.least_squares": _count_nfev,
    "solver.solve_bvp": _count_nodes,
}


def _apparatus_label(args, app):
    level = getattr(app, "level", None)   # app is None when the call raised
    return (f"curvature.apparatus_l{level}" if level else "curvature",
            "curvature.metric_apparatus")


def _run_label(args, result):
    return "cli.run", f"cli.run.{args[0].get('command')}"


def _scipy_solvers() -> dict:
    from scipy.integrate import solve_bvp, solve_ivp
    from scipy.optimize import least_squares
    return {"solve_ivp": solve_ivp, "solve_bvp": solve_bvp,
            "least_squares": least_squares}


class Tracer:
    """In-memory span and counter store plus the wrappers that feed it."""

    def __init__(self):
        self.spans = []            # (group, name, start, end, parent index)
        self.counts = Counter()    # "<group>.<unit>" -> amount
        self._stack = []
        self._patches = []         # (owner, attribute, original)
        self._targets = set()      # (module, attr) and (module, class, method) wrapped

    def _wrap(self, fn, group, name, label=None, tally=None):
        """Span-recording wrapper.  ``label(args, result)`` may rename the span
        (group, name) once the call returns; ``tally(counts, group, args,
        result)`` adds work counters after a successful call."""
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                g, nm = (group, name) if label is None else label(args, result)
                spans[index] = (g, nm, start, end, parent)
            if tally is not None:
                tally(counts, g, args, result)
            return result

        return wrapper

    def _function_wrapper(self, module: str, attr: str, fn):
        name = f"{module}.{attr}"
        if (module, attr) == ("curvature", "metric_apparatus"):
            return self._wrap(fn, "curvature", name, _apparatus_label, _count_apparatus)
        if (module, attr) == ("cli", "run"):
            return self._wrap(fn, "cli.run", name, _run_label)
        if module == "quadrature":
            return self._wrap(fn, "quadrature.rules", name)
        if module == "reporting" and attr in WRITERS:
            return self._wrap(fn, "reporting", name, tally=_count_file_bytes)
        group = FUNCTION_GROUPS.get((module, attr), module)
        return self._wrap(fn, group, name, tally=TALLIES.get(group))

    def _patch(self, owner, attr, original, wrapper):
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _patch_everywhere(self, owners, original, wrapper) -> int:
        patched = 0
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                if value is original:
                    self._patch(owner, attr, original, wrapper)
                    patched += 1
        return patched

    def install(self):
        """Wrap every traced function and method; see the module docstring."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        self._targets.clear()
        import ahmass
        mods = {name: importlib.import_module(f"ahmass.{name}") for name in MODULES}
        owners = [ahmass, *mods.values()]
        try:
            for attr, solver in _scipy_solvers().items():
                group = f"solver.{attr}"
                if self._patch_everywhere(owners, solver,
                                          self._wrap(solver, group, group,
                                                     tally=TALLIES[group])):
                    self._targets.add(("scipy", attr))
            for name, mod in mods.items():
                # a function is wrapped by its defining module only, so the
                # wrappers other modules already received are skipped here
                for attr, obj in list(vars(mod).items()):
                    if getattr(obj, "__module__", None) != mod.__name__:
                        continue
                    if inspect.isfunction(obj) and not attr.startswith("_"):
                        self._patch_everywhere(
                            owners, obj, self._function_wrapper(name, attr, obj))
                        self._targets.add((name, attr))
                    elif inspect.isclass(obj):
                        self._install_methods(name, obj)
            missing = [".".join(key) for key in self.missing_targets()]
            if missing:
                raise LookupError(f"tracer targets not found in ahmass: {missing}")
        except BaseException:
            self.uninstall()
            raise

    def _install_methods(self, module: str, cls):
        wrappers = {}   # one wrapper per function object (__rmul__ is __mul__)
        for attr, raw in list(vars(cls).items()):
            group = (METHOD_GROUPS.get((module, cls.__name__, attr))
                     or METHOD_GROUPS.get((module, "*", attr)))
            if group is None or not inspect.isfunction(raw):
                continue
            if id(raw) not in wrappers:
                wrappers[id(raw)] = self._wrap(raw, group,
                                               f"{module}.{cls.__name__}.{attr}",
                                               tally=TALLIES.get(group))
            self._patch(cls, attr, raw, wrappers[id(raw)])
            self._targets.update({(module, cls.__name__, attr), (module, "*", attr)})

    def missing_targets(self) -> list:
        """The named targets the last ``install`` did not wrap."""
        wanted = [*REQUIRED, *FUNCTION_GROUPS, *METHOD_GROUPS,
                  *(("scipy", attr) for attr in _scipy_solvers())]
        return [key for key in wanted if key not in self._targets]

    def uninstall(self):
        """Restore every patched attribute, last patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def write_spans(self, path):
        """Write every span as ``group,name,start,end,parent`` (gzip CSV)."""
        with gzip.open(path, "wt") as out:
            out.write("group,name,start,end,parent\n")
            for group, name, start, end, parent in self.spans:
                out.write(f"{group},{name},{start!r},{end!r},{parent}\n")


def self_times(spans, lo: int, hi: int):
    """Calls and self seconds by group, total seconds by span name, over
    spans[lo:hi].

    Parents of spans in the slice lie in the slice or before ``lo``; a child
    is subtracted from its parent only when both are in the slice.
    """
    child = [0.0] * (hi - lo)
    for group, name, start, end, parent in spans[lo:hi]:
        if parent >= lo:
            child[parent - lo] += end - start
    calls, self_s, total_s = Counter(), defaultdict(float), defaultdict(float)
    for k, (group, name, start, end, parent) in enumerate(spans[lo:hi]):
        calls[group] += 1
        self_s[group] += end - start - child[k]
        total_s[name] += end - start
    return calls, self_s, total_s


# Per-layer metric names, in report order: (name, unit, source) where source
# is ("calls", group), ("self", group), ("count", key) or ("total", span name).
def _layer(group, *units):
    out = []
    for unit in units:
        if unit == "calls":
            out.append((f"{group}.calls", "count", ("calls", group)))
        elif unit == "self_s":
            out.append((f"{group}.self_s", "s", ("self", group)))
        else:
            out.append((f"{group}.{unit}", "count" if unit != "bytes_computed"
                        else "bytes", ("count", f"{group}.{unit}")))
    return out


LAYER_METRICS = [
    *_layer("curvature.apparatus_l2", "calls", "points", "self_s", "bytes_computed"),
    *_layer("curvature.apparatus_l1", "calls", "points", "self_s"),
    *_layer("jets.product", "calls", "self_s"),
    *_layer("jets.compose", "calls", "self_s"),
    *_layer("fields.component_arrays", "calls", "points", "self_s"),
    *_layer("fields.scalar_jet", "calls", "self_s"),
    *_layer("metrics.component_jets", "calls", "points", "self_s"),
    *_layer("solver.solve_ivp", "calls", "nfev", "self_s"),
    *_layer("solver.solve_bvp", "calls", "nodes", "self_s"),
    *_layer("solver.least_squares", "calls", "nfev", "self_s"),
    *_layer("odes", "self_s"),
    *_layer("radial", "self_s"),
    *_layer("geodesics", "self_s"),
    *_layer("rigidity", "self_s"),
    *_layer("decay", "self_s"),
    *_layer("massflux.flux_integrand", "calls", "points", "self_s"),
    *_layer("massflux.extrapolate", "calls", "fallbacks"),
    *_layer("quadrature.rules", "calls", "self_s"),
    *_layer("operators", "calls", "self_s"),
    *[(f"cli.run.{c}_s", "s", ("total", f"cli.run.{c}")) for c in COMMANDS],
    ("reporting.write_s", "s", ("self", "reporting")),
    ("reporting.bytes", "bytes", ("count", "reporting.bytes")),
]


def layer_metrics(spans, lo: int, hi: int, counts) -> dict:
    """Every LAYER_METRICS value for spans[lo:hi] and the matching counters."""
    calls, self_s, total_s = self_times(spans, lo, hi)
    out = {}
    for name, unit, (kind, key) in LAYER_METRICS:
        if kind == "calls":
            value = calls[key]
        elif kind == "self":
            value = self_s[key]
        elif kind == "total":
            value = total_s[key]
        else:
            value = counts[key]
        out[name] = (value, unit)
    return out
