"""The library's surface is what the commands reach.

Four rules, each over the code of ``src/ahmass``, ``scripts/`` and
``perfbench/`` (not their tests), which is what "used" means below:

* every top-level function and class of ``src/ahmass`` is used outside its
  own definition, or it is on ``KEPT`` with the reason it stays;
* every non-dunder method is used by name outside its own definition, or it
  is on ``KEPT_METHODS``;
* every parameter with a default, of a function or method that some call
  reaches, is passed (by keyword or by position) by at least one such call,
  or it is on ``KEPT_PARAMS``: a parameter no call sets is a constant;
* every field of a dataclass is read: loaded as an attribute by name (a
  class's own methods count, annotations and constructor keywords do not),
  or it is on ``KEPT_FIELDS``; and every field default, other than that of a
  ``field(init=False)``, is left out by at least one construction of its
  class: a default every construction overrides is dead.

Names and calls match by name alone, so a name shared with another object
can hide a finding but cannot invent one.  The name strings of ``_EXPORTS``
and ``__all__`` do not count as uses."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# reached only by tests, kept on purpose, each with its one-word reason
KEPT = {
    "shooting_radial_solve": "cross-check",          # vs collocation
    "divergence_form_check": "finite-difference",    # central differences of S(grad f)
    "trace_identity_gap": "oracle",                  # L_g(u g) in closed form
    "estimate_decay_rate": "oracle",                 # fits known decay rates
    "sphere_area": "oracle",
    "to_cartesian": "oracle",                        # the chart map the jets follow
    "hyperbolic_metric": "oracle",                   # the background model
    "prop27_check": "item-1",                        # mass vs Ricci flux
}
KEPT_METHODS = {
    "fields.AxisConcentratedPerturbation.rotated": "oracle",       # rotation equivariance
    "rigidity.WarpedProductFixture.mixed_sectional": "oracle",     # K of the factor plane
    "rigidity.WarpedProductFixture.velocity_sectional": "oracle",  # K = -1 with d/dt
}
KEPT_PARAMS = {
    "cli.main.argv": "entry-point",                  # sys.argv unless given
    # test_odes compares the default solve against an rtol 1e-13 solve
    "odes.build_decaying_solution.rtol": "reference",
}
KEPT_FIELDS = {
    # tests compare the forced remainder with closed forms (docs/oracles.md)
    "odes.ParticularReport.remainder": "oracle",
    # tests check K = -1 on the hyperbolic background
    "rigidity.SectionalReport.K": "oracle",
}
REASONS = {"cross-check", "oracle", "finite-difference", "item-1", "entry-point",
           "reference"}


def _identifiers(tree, skip=None):
    """The identifiers a tree uses (names, attribute names and imported
    names), outside the subtree ``skip``."""
    found = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
        stack.extend(ast.iter_child_nodes(node))
    return found


def _library(root):
    return {path: ast.parse(path.read_text()) for path in
            sorted((root / "src" / "ahmass").glob("*.py"))}


def _outside(root):
    """The parsed modules of ``scripts/`` and ``perfbench/``, without tests."""
    return [ast.parse(path.read_text())
            for folder in ("scripts", "perfbench")
            for path in sorted((root / folder).rglob("*.py"))
            if "tests" not in path.relative_to(root).parts]


def unreferenced(root=ROOT):
    """The top-level functions and classes of ``root``'s library that nothing
    outside their own definition uses, as ``module.name``."""
    library = _library(root)
    outside = set().union(*map(_identifiers, _outside(root)))
    found = []
    for path, tree in library.items():
        used = outside.union(*(_identifiers(other) for p, other in library.items()
                               if p != path))
        for node in tree.body:
            # dunder functions are protocol hooks: Python calls them
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("__")
                    and node.name not in used | _identifiers(tree, skip=node)):
                found.append(f"{path.stem}.{node.name}")
    return found


def _definitions(library):
    """(label, call name, def, is_method) for every top-level function and
    every method of a top-level class; ``__init__`` is called by its class
    name."""
    for path, tree in library.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                yield f"{path.stem}.{node.name}", node.name, node, False
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        name = node.name if item.name == "__init__" else item.name
                        yield f"{path.stem}.{node.name}.{item.name}", name, item, True


def unused_methods(root=ROOT):
    """The non-dunder methods of ``root``'s library whose name nothing
    outside their own definition uses, as ``module.Class.method``."""
    library = _library(root)
    trees = [*library.values(), *_outside(root)]
    return [label for label, name, node, is_method in _definitions(library)
            if is_method and not node.name.startswith("__")
            and not any(name in _identifiers(tree, skip=node) for tree in trees)]


def _calls(trees):
    """Call name -> [(positional count, keywords)] over ``trees``; a call
    with ``*args`` or ``**kwargs`` may pass anything, so it passes all."""
    calls = {}
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = (func.id if isinstance(func, ast.Name)
                    else func.attr if isinstance(func, ast.Attribute) else None)
            if name is None:
                continue
            if (any(isinstance(a, ast.Starred) for a in node.args)
                    or any(k.arg is None for k in node.keywords)):
                calls.setdefault(name, []).append((float("inf"), set()))
            else:
                calls.setdefault(name, []).append(
                    (len(node.args), {k.arg for k in node.keywords}))
    return calls


def unset_parameters(root=ROOT):
    """The parameters with a default, of a library function or method that
    some library, script or perfbench call reaches, that no such call
    passes, as ``module.[Class.]function.parameter``."""
    library = _library(root)
    calls = _calls([*library.values(), *_outside(root)])
    found = []
    for label, name, node, is_method in _definitions(library):
        if name not in calls:
            continue
        args = node.args
        positional = [*args.posonlyargs, *args.args][1 if is_method else 0:]
        defaulted = [(a.arg, i) for i, a in enumerate(positional)
                     if i >= len(positional) - len(args.defaults)]
        defaulted += [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                      if d is not None]
        for param, index in defaulted:
            if not any(param in keywords or (index is not None and count > index)
                       for count, keywords in calls[name]):
                found.append(f"{label.rsplit('.__init__', 1)[0]}.{param}")
    return found


def _dataclasses(library):
    """(label, class name, field nodes) for every top-level ``@dataclass``."""
    for path, tree in library.items():
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and any(
                    getattr(d.func if isinstance(d, ast.Call) else d, "id", None)
                    == "dataclass" for d in node.decorator_list):
                fields = [item for item in node.body if isinstance(item, ast.AnnAssign)
                          and isinstance(item.target, ast.Name)]
                yield f"{path.stem}.{node.name}", node.name, fields


def _no_init(value):
    """Whether a field's default is ``field(..., init=False)``."""
    return (isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
            and value.func.id == "field"
            and any(k.arg == "init" and isinstance(k.value, ast.Constant)
                    and k.value.value is False for k in value.keywords))


def unread_fields(root=ROOT):
    """The dataclass fields of ``root``'s library that no library, script or
    perfbench code loads as an attribute, as ``module.Class.field``."""
    library = _library(root)
    loaded = {node.attr for tree in [*library.values(), *_outside(root)]
              for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return [f"{label}.{item.target.id}" for label, _, fields in _dataclasses(library)
            for item in fields if item.target.id not in loaded]


def overridden_defaults(root=ROOT):
    """The dataclass field defaults of ``root``'s library that every library,
    script and perfbench construction of the class passes, as
    ``module.Class.field``; a class nothing constructs has none."""
    library = _library(root)
    calls = _calls([*library.values(), *_outside(root)])
    found = []
    for label, name, fields in _dataclasses(library):
        init = [item for item in fields if not _no_init(item.value)]
        for index, item in enumerate(init):
            if item.value is not None and name in calls and all(
                    item.target.id in keywords or count > index
                    for count, keywords in calls[name]):
                found.append(f"{label}.{item.target.id}")
    return found


def test_every_definition_is_reached_or_kept():
    assert set(KEPT.values()) <= REASONS
    unreached = {name.split(".")[1]: name for name in unreferenced()}
    assert sorted(unreached[name] for name in set(unreached) - set(KEPT)) == []
    # a kept name that the library comes to reach leaves the table
    assert sorted(set(KEPT) - set(unreached)) == []


def test_every_method_is_used_or_kept():
    assert set(KEPT_METHODS.values()) <= REASONS
    unused = set(unused_methods())
    assert sorted(unused - set(KEPT_METHODS)) == []
    assert sorted(set(KEPT_METHODS) - unused) == []


def test_every_defaulted_parameter_is_set_by_a_caller_or_kept():
    assert set(KEPT_PARAMS.values()) <= REASONS
    unset = set(unset_parameters())
    assert sorted(unset - set(KEPT_PARAMS)) == []
    assert sorted(set(KEPT_PARAMS) - unset) == []


def test_every_field_is_read_or_kept():
    assert set(KEPT_FIELDS.values()) <= REASONS
    unread = set(unread_fields())
    assert sorted(unread - set(KEPT_FIELDS)) == []
    assert sorted(set(KEPT_FIELDS) - unread) == []


def test_every_field_default_is_used_by_a_construction():
    assert overridden_defaults() == []
