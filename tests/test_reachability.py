"""Every top-level function, class and method of ``src/znlcs`` is reached
from a command or from the benchmark's tracer.

Reachability is read from the source with ``ast``, by name. The roots are
the module-level statements of every module (``cli.COMMANDS`` names each
command's handler and pre-flight check) and each function that
``perfbench/tracer.py`` names in ``TRACED``, the one user of ``src/``
outside the tests. A ``TRACED`` name resolves through its module's imports:
``groupkit.MonomialUnitary.power`` is ``monomial.MonomialUnitary.power``.
A reached definition reaches what its body reads: a name defined in its
module or imported from a sibling by name, and, through ``x.attr``, every
definition called ``attr``. A reached class reaches its bases, decorators,
class-level statements and dunder methods, and the methods that a base
from outside ``src`` (``argparse.ArgumentParser``) defines too: that base
calls them, as the interpreter calls a dunder method. Annotations are left
out: they name types, not code that runs.

The same holds for module-level constants: each top-level assignment of
``src/znlcs`` must be read somewhere in ``src/``, by name or by attribute.

Code that only tests reach does not belong in ``src/``: an independent
oracle, or a check of a paper claim that no command reports (the
acceptance gate's references among them), moves into the tests as a
reference; anything else is deleted.
"""

import ast
import importlib
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "znlcs"
TRACER = ROOT / "perfbench" / "tracer.py"


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


def _imported_names(tree):
    """{local name: "module.name"} for each ``from .module import name``
    in tree."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1 \
                and node.module:
            for alias in node.names:
                out[alias.asname or alias.name] = \
                    f"{node.module}.{alias.name}"
    return out


def _parse():
    """Definitions {qualified name: node}, module trees and each module's
    name table."""
    defs, trees, scopes = {}, {}, {}
    for path in sorted(SRC.glob("*.py")):
        module = path.stem
        tree = trees[module] = ast.parse(path.read_text())
        scopes[module] = _imported_names(tree)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[f"{module}.{node.name}"] = node
                scopes[module][node.name] = f"{module}.{node.name}"
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef):
                        defs[f"{module}.{node.name}.{sub.name}"] = sub
    return defs, trees, scopes


def _traced():
    """{(module, qualified name): the definition it names, or None} for
    each entry of the tracer's ``TRACED``, read from its source."""
    defs, _, scopes = _parse()
    tree = ast.parse(TRACER.read_text())
    value = next(node.value for node in tree.body
                 if isinstance(node, ast.Assign)
                 and [getattr(t, "id", None) for t in node.targets]
                 == ["TRACED"])
    out = {}
    for module, qualname, _ in ast.literal_eval(value):
        head, *rest = qualname.split(".")
        target = scopes.get(module, {}).get(head)
        name = ".".join([target, *rest]) if target else None
        out[module, qualname] = name if name in defs else None
    return out


def _external_methods(node):
    """The attribute names of the bases of class node that are read as
    ``module.Class`` of a module outside ``src``."""
    names = set()
    for base in node.bases:
        if isinstance(base, ast.Attribute) \
                and isinstance(base.value, ast.Name):
            try:
                module = importlib.import_module(base.value.id)
            except ImportError:
                continue
            names |= set(dir(getattr(module, base.attr)))
    return names


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
            inherited = _external_methods(node)
            work += [f"{qualname}.{s.name}" for s in node.body
                     if isinstance(s, ast.FunctionDef)
                     and (s.name.startswith("__") or s.name in inherited)]
        else:
            work += refs([node], scope)
    return set(defs), reached


def test_every_traced_name_is_a_definition():
    assert [entry for entry, name in _traced().items() if name is None] == []


def test_every_definition_is_reached():
    defs, reached = _reached(filter(None, _traced().values()))
    assert sorted(defs - reached) == []


def test_what_only_the_tracer_reaches():
    # No command runs these; the benchmark traces them. A benchmark that
    # stops tracing one leaves it to the tests, where it moves.
    _, with_tracer = _reached(filter(None, _traced().values()))
    _, commands = _reached([])
    assert sorted(with_tracer - commands) == [
        "biaskit.bias_operator", "biaskit.bias_spectrum",
        "strategykit.schmidt"]


def test_every_module_constant_is_read():
    # A top-level assignment in src/ that no src/ code reads, by name or by
    # attribute (``numerics.ORDER_TOL``), is a constant that only the
    # tests or the docs still use. Each is named with its line.
    reads, assigned = set(), []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.add(node.id)
            elif isinstance(node, ast.Attribute) \
                    and isinstance(node.ctx, ast.Load):
                reads.add(node.attr)
        for node in tree.body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            assigned += [(f"{path.stem}:{node.lineno}", target.id)
                         for target in targets
                         if isinstance(target, ast.Name)]
    assert [f"{where} {name}" for where, name in assigned
            if name not in reads] == []


# numpy's eigensolvers, by the attribute (``np.linalg.eigh``) or the name
# (``from numpy.linalg import eigh``) a module reads them through.
EIGENSOLVERS = {"eigh", "eigvalsh", "eig", "eigvals"}


def test_numerics_is_the_one_eigensolver_entry_point():
    # Every spectrum in src/ comes from numerics.hermitian_eig: a module
    # that reads an eigensolver itself is named with the line it reads on.
    reads = []
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "numerics":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            else:
                continue
            reads += [f"{path.stem}:{node.lineno} reads {name}"
                      for name in names if name in EIGENSOLVERS]
    assert reads == []


# The ways a module ends the process, by the attribute it reads them through
# (``sys.exit``) or the name it imports (``from os import _exit``).
EXITS = {("os", "_exit"), ("sys", "exit")}


def test_the_process_ends_in_cli_run_only():
    # run() ends each process: it runs the atexit handlers and flushes the
    # std streams before os._exit. An os._exit elsewhere would drop buffered
    # output, and a sys.exit or an atexit handler elsewhere would depend on
    # an exit path run() does not take. Each use is named with its line.
    uses = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        if path.stem == "cli":
            tree.body = [node for node in tree.body
                         if getattr(node, "name", None) != "run"]
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) \
                    and isinstance(node.value, ast.Name):
                pairs = [(node.value.id, node.attr)]
            elif isinstance(node, ast.ImportFrom):
                pairs = [(node.module, alias.name) for alias in node.names]
            else:
                continue
            uses += [f"{path.stem}:{node.lineno} uses {module}.{name}"
                     for module, name in pairs
                     if (module, name) in EXITS or module == "atexit"]
    assert uses == []


def test_every_handler_is_read_from_a_kit():
    # cli.py defines no command handler: each COMMANDS entry reads its
    # handler from the kit that defines it when the command runs
    # (``lambda: gamekit.classical_command``), so a process compiles only
    # the handlers of the kits its command loads. A handler named by a
    # string would hide it from the reachability guard above. Each other
    # entry is named.
    defs, trees, _ = _parse()
    commands = next(node.value for node in trees["cli"].body
                    if isinstance(node, ast.Assign)
                    and [getattr(t, "id", None) for t in node.targets]
                    == ["COMMANDS"])
    wrong = []
    for key, value in zip(commands.keys, commands.values):
        handler = value.elts[0]
        body = getattr(handler, "body", None)
        if not (isinstance(handler, ast.Lambda)
                and isinstance(body, ast.Attribute)
                and isinstance(body.value, ast.Name)
                and body.value.id != "cli"
                and f"{body.value.id}.{body.attr}" in defs):
            wrong.append(" ".join(ast.literal_eval(key)))
    assert wrong == []


def test_no_module_imports_cli():
    # cli is the entry point, run as __main__ by ``python -m znlcs.cli``: a
    # module that imported it would load a second copy of it, and tie the
    # kits to the command line. Each import is named with its line.
    imports = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                if node.level:
                    base = ".".join(filter(None, ["znlcs", base]))
                names = [base] + [f"{base}.{alias.name}"
                                  for alias in node.names]
            else:
                continue
            imports += [f"{path.stem}:{node.lineno} imports {name}"
                        for name in names if name == "znlcs.cli"]
    assert imports == []
