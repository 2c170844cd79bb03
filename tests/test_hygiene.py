"""Import and export hygiene, checked with the standard library only: every
name that a module of the package imports is used in that module or listed
in its __all__, every public function or class is exported or used, and
every package name the benchmark in perfbench/ reads is defined."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "pairspec"


def unused_imports(path):
    """'file:line: name' for each imported name the module never reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted(f"{path.name}:{line}: {name}"
                  for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def file_writes(source):
    """'line: call' for each call in Python source that writes a file: an `open`
    whose mode (`mode=`, or the second argument of a function and the first of
    a method such as Path.open) writes, appends or creates, or is not a string
    literal, and each `write_text` and `write_bytes`."""
    writes = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name == "open":
            at = 0 if isinstance(func, ast.Attribute) else 1
            modes = [kw.value for kw in node.keywords if kw.arg == "mode"] + node.args[at:at + 1]
            if modes and not (isinstance(modes[0], ast.Constant) and isinstance(modes[0].value, str)
                              and not set("wax+") & set(modes[0].value)):
                writes.append(f"{node.lineno}: {name}")
        elif name in ("write_text", "write_bytes"):
            writes.append(f"{node.lineno}: {name}")
    return writes


@pytest.mark.parametrize("path", [path for path in sorted(PACKAGE.glob("*.py"))
                                  if path.name != "tables.py"], ids=lambda p: p.name)
def test_only_the_tables_module_writes_files(path):
    # One writer per output format: tables.write_csv and tables.write_json.
    assert file_writes(path.read_text()) == []


def test_the_writer_scan_finds_every_kind_of_write():
    source = ("open(p, 'w'); open(p, mode='ab'); open(p, 'r+'); Path(p).open('x'); open(p, m)\n"
              "p.write_text(t); p.write_bytes(b)\n"
              "open(p); open(p, 'rb'); Path(p).open(); p.read_text(); fh.write(t)\n")
    assert file_writes(source) == ["1: open"] * 5 + ["2: write_text", "2: write_bytes"]
    # The opens of write_csv and write_json.
    assert len(file_writes((PACKAGE / "tables.py").read_text())) == 2


PERFBENCH = PACKAGE.parents[1] / "perfbench"


def global_loads(node, local=frozenset()):
    """Bare names that the node reads from module scope. Inside a function,
    a name that the function binds (an argument or an assignment anywhere
    in its body) is local there and does not count."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        args = node.args
        params = args.posonlyargs + args.args + args.kwonlyargs + [
            a for a in (args.vararg, args.kwarg) if a]
        body = node.body if isinstance(node.body, list) else [node.body]
        bound = {a.arg for a in params} | {
            n.id for stmt in body for n in ast.walk(stmt)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
        # Decorators, defaults and annotations are read in the enclosing scope.
        outer = (getattr(node, "decorator_list", []) + args.defaults
                 + [d for d in args.kw_defaults if d]
                 + [a.annotation for a in params if a.annotation]
                 + ([node.returns] if getattr(node, "returns", None) else []))
        names = set()
        for child in outer:
            names |= global_loads(child, local)
        for stmt in body:
            names |= global_loads(stmt, local | bound)
        return names
    names = set()
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id not in local:
        names.add(node.id)
    for child in ast.iter_child_nodes(node):
        names |= global_loads(child, local)
    return names


def names_taken_from(module, tree):
    """Names the tree imports from `module` (`from .module import name`) or
    reaches through an import of it (`module.name` after `from . import
    module`, or `pairspec.module.name`)."""
    names, aliases = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if (node.module or "").split(".")[-1] == module:
                names.update(alias.name for alias in node.names)
            elif node.module in (None, "pairspec"):
                aliases.update(alias.asname or alias.name for alias in node.names
                               if alias.name == module)
        elif isinstance(node, ast.Import):
            aliases.update(alias.asname for alias in node.names
                           if alias.name == f"pairspec.{module}" and alias.asname)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        base = node.value
        if (isinstance(base, ast.Name) and base.id in aliases
                or isinstance(base, ast.Attribute) and base.attr == module
                and isinstance(base.value, ast.Name) and base.value.id == "pairspec"):
            names.add(node.attr)
    return names


def unreferenced_public_names():
    """'module.name' for each public top-level function or class of the
    package that is neither in pairspec.__all__ nor used besides its own
    definition: read from module scope elsewhere in its module, or imported
    from or reached through its module by another module of the package or
    of perfbench."""
    import pairspec

    trees = {path: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(PACKAGE.glob("*.py")) + sorted(PERFBENCH.glob("*.py"))}
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        body = trees[path].body
        elsewhere = set().union(*(names_taken_from(path.stem, tree)
                                  for other, tree in trees.items() if other != path))
        for defn in body:
            if (not isinstance(defn, (ast.FunctionDef, ast.ClassDef))
                    or defn.name.startswith("_") or defn.name in pairspec.__all__
                    or defn.name in elsewhere):
                continue
            in_module = set().union(*(global_loads(stmt) for stmt in body if stmt is not defn))
            if defn.name not in in_module:
                unused.append(f"{path.stem}.{defn.name}")
    return unused


def test_every_public_name_is_used_or_exported():
    assert unreferenced_public_names() == []



def module_scope(module):
    """(names that pairspec.<module> binds at module scope, its functions
    and methods as 'function' and 'Class.method')."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    bound, functions = set(), set()
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            functions.add(node.name)
        elif isinstance(node, ast.ClassDef):
            functions.update(f"{node.name}.{item.name}" for item in node.body
                             if isinstance(item, ast.FunctionDef))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound.update(t.id for t in targets if isinstance(t, ast.Name))
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound.add(node.name)
    return bound, functions


def must_hit_names():
    """Every 'module.name' of MUST_HIT in perfbench/workloads.py."""
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "MUST_HIT" for t in node.targets)):
            return sorted({name for names in ast.literal_eval(node.value).values()
                           for name in names})
    raise AssertionError("perfbench/workloads.py has no MUST_HIT")


@pytest.mark.parametrize("name", must_hit_names())
def test_benchmark_must_hit_names_are_defined(name):
    # A traced benchmark run wraps functions and methods by these names; a
    # rename would otherwise show only as a failed traced run.
    module, _, qualname = name.partition(".")
    assert (PACKAGE / f"{module}.py").is_file()
    assert qualname in module_scope(module)[1]


def test_benchmark_imports_resolve():
    """Every `from pairspec.<module> import <name>` in perfbench/*.py, at
    any depth, names something that module binds."""
    imports, missing = 0, []
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not (isinstance(node, ast.ImportFrom)
                    and (node.module or "").startswith("pairspec.")):
                continue
            module = node.module.partition(".")[2]
            bound = (module_scope(module)[0] if (PACKAGE / f"{module}.py").is_file()
                     else set())
            imports += len(node.names)
            missing += [f"{path.name}:{node.lineno}: {node.module}.{alias.name}"
                        for alias in node.names if alias.name not in bound]
    assert imports > 0
    assert missing == []
