"""The library's surface is what the commands reach: every top-level function
and class of ``src/ahmass`` is referenced from library code outside its own
definition, from ``scripts/`` or from ``perfbench/``, or it is on ``KEPT``
with the reason it stays.  Tests do not count as references, and neither do
the name strings of ``_EXPORTS`` and ``__all__``."""

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
REASONS = {"cross-check", "oracle", "finite-difference", "item-1"}


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


def unreferenced(root=ROOT):
    """The top-level functions and classes of ``root``'s library that nothing
    outside their own definition uses, as ``module.name``."""
    library = {path: ast.parse(path.read_text()) for path in
               sorted((root / "src" / "ahmass").glob("*.py"))}
    outside = set().union(*(_identifiers(ast.parse(path.read_text()))
                            for folder in ("scripts", "perfbench")
                            for path in sorted((root / folder).rglob("*.py"))
                            if "tests" not in path.relative_to(root).parts))
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


def test_every_definition_is_reached_or_kept():
    assert set(KEPT.values()) <= REASONS
    unreached = {name.split(".")[1]: name for name in unreferenced()}
    assert sorted(unreached[name] for name in set(unreached) - set(KEPT)) == []
    # a kept name that the library comes to reach leaves the table
    assert sorted(set(KEPT) - set(unreached)) == []
