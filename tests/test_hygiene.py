"""Source hygiene, read from the syntax trees alone: no module imports a name
it never uses, no private module-level name or slot of the library goes
unused, an import inside a function only ever breaks an import cycle, the
library imports nothing beyond the standard library, work limits are
errors.Budget objects with their defaults in `errors`, not per-engine
integers, no search is refused by the size of its input, every public
function or class of the library has a caller outside the tests, every
method, property and field of a library class is read somewhere, and every
function the benchmark's tracer wraps is still where the tracer looks.
"""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "minorkit"


def parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def loaded_names(node):
    """Names a subtree reads: bare names, attribute names and imported names."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name.split(".")[0])
    return out


def unused_imports(tree):
    """Names bound by an import statement and never read in the module;
    a name listed in `__all__` counts as read."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {
        n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)
    }
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read |= {elt.value for elt in node.value.elts}
    return sorted((line, name) for name, line in bound.items() if name not in read)


def private_definitions(tree):
    """(name, top-level node) for each module-level `_private` name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def test_no_module_imports_a_name_it_never_uses():
    found = []
    for path in sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "tests").glob("*.py")):
        for line, name in unused_imports(parse(path)):
            found.append(f"{path.relative_to(ROOT)}:{line}: {name}")
    assert not found, "unused imports:\n" + "\n".join(found)


def test_every_private_name_of_the_library_is_used():
    trees = {path: parse(path) for path in sorted(PACKAGE.glob("*.py"))}
    # the names each top-level statement reads, so that a definition's own
    # body (a recursive call) does not count as a use of it
    reads = [(node, loaded_names(node)) for tree in trees.values() for node in tree.body]
    found = []
    for path, tree in trees.items():
        for name, home in private_definitions(tree):
            if not any(name in names for node, names in reads if node is not home):
                found.append(f"{path.relative_to(ROOT)}: {name}")
    assert not found, "private names nothing uses:\n" + "\n".join(found)


def private_slots(tree):
    """(class name, slot) for each `_private` entry of a class's `__slots__`."""
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in cls.body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__slots__" for t in node.targets
            ):
                for elt in node.value.elts:
                    if elt.value.startswith("_"):
                        yield cls.name, elt.value


def test_every_private_slot_of_the_library_is_read():
    trees = {path: parse(path) for path in sorted(PACKAGE.glob("*.py"))}
    read = {
        node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    found = [
        f"{path.relative_to(ROOT)}: {cls}.{slot}"
        for path, tree in trees.items()
        for cls, slot in private_slots(tree)
        if slot not in read
    ]
    assert not found, "private slots nothing reads:\n" + "\n".join(found)


def package_imports_at_top(tree):
    """The package modules a module imports at top level."""
    return {
        node.module
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
    }


def test_function_level_imports_only_break_cycles():
    # `from .x import ...` inside a function is allowed only when module x
    # imports this module at top level, the cycle a top-level import would close
    trees = {path.stem: parse(path) for path in sorted(PACKAGE.glob("*.py"))}
    found = []
    for name, tree in trees.items():
        top = set(tree.body)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node not in top:
                if name not in package_imports_at_top(trees[node.module]):
                    found.append(f"src/minorkit/{name}.py:{node.lineno}: from .{node.module}")
    assert not found, "function-level imports that break no cycle:\n" + "\n".join(found)


def test_the_library_imports_only_the_standard_library():
    # pyproject.toml declares `dependencies = []`; networkx is a test partner
    # only (importing it would also cost the library about 18 MB of memory)
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(parse(path)):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top != "minorkit" and top not in sys.stdlib_module_names:
                    found.append(f"{path.relative_to(ROOT)}:{node.lineno}: {name}")
    assert not found, "imports from outside the standard library:\n" + "\n".join(found)


def parameters(fn):
    """The names of a function's parameters."""
    a = fn.args
    params = a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]
    return {p.arg for p in params if p is not None}


PER_ENGINE_BUDGETS = {"max_nodes", "max_states", "max_multisets", "vitality_budget", "max_deletions"}


def test_budgets_are_budget_objects_with_defaults_in_errors():
    # a search takes a Budget (or none, for the default in errors), so no
    # function or config field takes a bare limit, and only errors defines
    # a *_BUDGET default
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        where = path.relative_to(ROOT)
        for node in ast.walk(parse(path)):
            if isinstance(node, ast.FunctionDef):
                names = parameters(node)
            elif isinstance(node, ast.ClassDef):
                names = {
                    stmt.target.id
                    for stmt in node.body
                    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
                }
            else:
                names = set()
            for name in sorted(names & PER_ENGINE_BUDGETS):
                found.append(f"{where}:{node.lineno}: parameter {name}")
            if path.stem == "errors":
                continue
            if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [t.id for t in targets if isinstance(t, ast.Name)]
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            else:
                defined = []
            for name in defined:
                if name.endswith("_BUDGET"):
                    found.append(f"{where}:{node.lineno}: defines {name}")
    assert not found, "budget integers outside errors.Budget:\n" + "\n".join(found)


# caps that bound the size of a precomputed object (the pattern lattice, the
# root multisets, the gadget family), not the work of a search
OBJECT_CAPS = {"ORACLE_DETAIL_CAP", "ORACLE_ROOT_CAP", "MULTISET_CAP", "GADGET_ORDER_CAP"}
CANONICAL_FUNCTIONS = {"_canonical_search", "canonical_form", "canonical_code"}
# perfbench/checks.py still passes pattern_cap=, which find_red_minor ignores
IGNORED_PATTERN_CAP = ("minors", "find_red_minor")


def test_searches_are_bounded_by_budgets_not_by_input_size():
    # no module-level *_CAP but the object caps, no pattern_cap parameter
    # but the ignored one, and no cap parameter on the canonical functions
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        where = path.relative_to(ROOT)
        tree = parse(path)
        for node in tree.body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            for t in targets:
                if isinstance(t, ast.Name) and t.id.endswith("_CAP") and t.id not in OBJECT_CAPS:
                    found.append(f"{where}:{node.lineno}: defines {t.id}")
        for node in ast.walk(tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            names = parameters(node)
            if "pattern_cap" in names and (path.stem, node.name) != IGNORED_PATTERN_CAP:
                found.append(f"{where}:{node.lineno}: {node.name} takes pattern_cap")
            if node.name in CANONICAL_FUNCTIONS and "cap" in names:
                found.append(f"{where}:{node.lineno}: {node.name} takes cap")
    assert not found, "searches refused by input size:\n" + "\n".join(found)



# public names that no caller in src/, perfbench/ or tools/ reads, kept on
# purpose: tests use the first as a checker, and the second composes the
# paper's pipeline
KEPT_FOR_TESTS = {
    "verify_trace",  # pipeline: replays and re-checks every deletion
    "solve_folio",  # pipeline: reduce, then the folio of what is left
}


def reads(node):
    """loaded_names, plus the parts of each dotted-name string constant:
    perfbench looks functions up by strings such as "folios.folio_dp"."""
    out = loaded_names(node)
    for sub in ast.walk(node):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            parts = sub.value.split(".")
            if all(part.isidentifier() for part in parts):
                out.update(parts)
    return out


def test_every_public_name_of_the_library_has_a_caller():
    # a module-level function or class is used when perfbench, tools, a
    # top-level statement of the library or a used definition reads it,
    # directly or through an import alias; the re-exports of __init__ are
    # not uses
    defs = {}
    aliases = {}
    live = set(KEPT_FOR_TESTS)
    for path in sorted(PACKAGE.glob("*.py")):
        for node in parse(path).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.setdefault(node.name, []).append((path, node))
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    if alias.asname:
                        aliases[alias.asname] = alias.name
            elif path.stem != "__init__":
                live |= reads(node)
    for path in sorted((ROOT / "perfbench").glob("*.py")) + sorted((ROOT / "tools").glob("*.py")):
        live |= reads(parse(path))
    todo = list(live)
    while todo:
        name = todo.pop()
        new = {aliases[name]} if name in aliases else set()
        for _, node in defs.get(name, ()):
            new |= reads(node)
        new -= live
        live |= new
        todo.extend(new)
    found = [
        f"{path.relative_to(ROOT)}: {name}"
        for name, homes in sorted(defs.items())
        if name not in live and not name.startswith("_")
        for path, _ in homes
    ]
    assert not found, "public names only tests call:\n" + "\n".join(found)


def class_members(tree):
    """(class name, member) for each method, property and dataclass field
    of each class in a module. Special methods, which Python calls by
    itself, are left out."""
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in cls.body:
            if isinstance(node, ast.FunctionDef):
                name = node.name
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                name = node.target.id
            else:
                continue
            if not (name.startswith("__") and name.endswith("__")):
                yield cls.name, name


def test_every_member_of_a_library_class_is_read():
    # read means loaded as an attribute anywhere in src/, tests/, perfbench/
    # or tools/; a field that is only ever passed to the constructor is dead
    read = {
        node.attr
        for folder in ("src", "tests", "perfbench", "tools")
        for path in sorted((ROOT / folder).rglob("*.py"))
        for node in ast.walk(parse(path))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    found = [
        f"{path.relative_to(ROOT)}: {cls}.{member}"
        for path in sorted(PACKAGE.glob("*.py"))
        for cls, member in class_members(parse(path))
        if member not in read
    ]
    assert not found, "class members nothing reads:\n" + "\n".join(found)


def test_every_traced_function_is_bound_in_its_module():
    # perfbench/tracing.py wraps each TARGETS function by module and name,
    # so a renamed or moved function would fail only a traced benchmark run
    tree = parse(ROOT / "perfbench" / "tracing.py")
    targets = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["TARGETS"]
    )
    missing = []
    for module, names in sorted(targets.items()):
        bound = set()
        for node in parse(PACKAGE / f"{module}.py").body:
            if isinstance(node, ast.FunctionDef):
                bound.add(node.name)
            elif isinstance(node, ast.ImportFrom):
                bound |= {alias.asname or alias.name for alias in node.names}
        missing += [f"{module}.{name}" for name in names if name not in bound]
    assert targets and not missing, "traced functions not found:\n" + "\n".join(missing)
