"""Every top-level function, class and method of ``src/znlcs`` is reached
from a command or from the acceptance gate.

Reachability is read from the source with ``ast``, by name. The roots are
the module-level statements of every module (``cli.COMMANDS`` names each
command's handler and pre-flight check), the whole acceptance gate, and
``ALLOWED``. A reached definition reaches what its body reads: a name
defined in its module or imported from a sibling by name, and, through
``x.attr``, every definition called ``attr``. A reached class reaches its
bases, decorators, class-level statements and dunder methods. Annotations
are left out: they name types, not code that runs.

Code that only its own unit tests reach does not belong in ``src/``: an
independent oracle, or a check of a paper claim that no command reports,
moves into the tests as a reference; anything else is deleted.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "znlcs"
GATE = ROOT / "tests" / "test_acceptance.py"

# Unreached on purpose: qualified name -> why it stays.
ALLOWED = {}


def _reads(nodes):
    """The names and attribute names that nodes read, annotations left
    out."""
    names, attrs = set(), set()
    stack = list(nodes)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attrs.add(node.attr)
        for field, value in ast.iter_fields(node):
            if field in ("annotation", "returns"):
                continue
            values = value if isinstance(value, list) else [value]
            stack.extend(v for v in values if isinstance(v, ast.AST))
    return names, attrs


def _imported_names(tree, prefix):
    """{local name: "module.name"} for each ``from <prefix>module import
    name`` in tree."""
    out = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        path = "." * node.level + (node.module or "")
        if path.startswith(prefix) and len(path) > len(prefix):
            for alias in node.names:
                out[alias.asname or alias.name] = \
                    f"{path[len(prefix):]}.{alias.name}"
    return out


def _parse():
    """Definitions {qualified name: node}, module trees and each module's
    name table."""
    defs, trees, scopes = {}, {}, {}
    for path in sorted(SRC.glob("*.py")):
        module = path.stem
        tree = trees[module] = ast.parse(path.read_text())
        scopes[module] = _imported_names(tree, ".")
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[f"{module}.{node.name}"] = node
                scopes[module][node.name] = f"{module}.{node.name}"
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef):
                        defs[f"{module}.{node.name}.{sub.name}"] = sub
    return defs, trees, scopes


def _reached(extra_roots):
    defs, trees, scopes = _parse()
    by_last = {}
    for qualname in defs:
        by_last.setdefault(qualname.rsplit(".", 1)[1], []).append(qualname)

    def refs(nodes, scope):
        names, attrs = _reads(nodes)
        return ([scope[n] for n in names if scope.get(n) in defs]
                + [q for a in attrs for q in by_last.get(a, [])])

    work = list(extra_roots)
    for module, tree in trees.items():
        work += refs([node for node in tree.body if not isinstance(
            node, (ast.FunctionDef, ast.ClassDef))], scopes[module])
    gate = ast.parse(GATE.read_text())
    work += refs([gate], _imported_names(gate, "znlcs."))
    reached = set()
    while work:
        qualname = work.pop()
        if qualname in reached:
            continue
        reached.add(qualname)
        node, scope = defs[qualname], scopes[qualname.split(".")[0]]
        if isinstance(node, ast.ClassDef):
            work += refs(node.bases + node.decorator_list
                         + [s for s in node.body
                            if not isinstance(s, ast.FunctionDef)], scope)
            work += [f"{qualname}.{s.name}" for s in node.body
                     if isinstance(s, ast.FunctionDef)
                     and s.name.startswith("__")]
        else:
            work += refs([node], scope)
    return set(defs), reached


def test_every_definition_is_reached():
    defs, reached = _reached(ALLOWED)
    assert sorted(defs - reached) == []


def test_every_allowed_name_is_otherwise_unreached():
    # Dropping an entry leaves that name unreached and no other: an entry
    # keeps only itself alive.
    for name in ALLOWED:
        defs, reached = _reached(set(ALLOWED) - {name})
        assert sorted(defs - reached) == [name]
