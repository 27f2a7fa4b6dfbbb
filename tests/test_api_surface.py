"""The public API holds no function that only tests use, and one memo rule.

Every function or class that ``satk/__init__.py`` exports must be referenced
somewhere in ``src/satk`` or ``bench/`` outside its own definition and
``__init__``.  A reference from inside another export that is itself unused
does not count, so a chain of test-only helpers is caught whole.

Every field of a dataclass in ``src/satk`` is read as an attribute somewhere
in ``src/satk`` or ``bench/``, a read in its class's ``__post_init__`` (which
only checks the value) not counting: a field that only tests read is a value
each constructor must supply for nothing.

Every matrix memo is a ``linalg.matrix_memo``: the tools of the memo policy
appear nowhere else in ``src/satk``.

Every BLAS and LAPACK call in ``src/satk`` passes its arguments by position.

No module of ``src/satk`` imports ``scipy`` or anything under it:
``linalg``'s loader of scipy's two compiled modules is the only way in.

No CLI command converts one of its own parameters: ``cli.run_command``
checks each ``--config`` value once.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "satk"


def _exports():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }


def _referenced_names(node):
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
    return names


def _owners():
    """(owner, names referenced) for each top-level function or class of the
    sources, and for the module-level code of each file (owner None)."""
    files = [f for f in sorted(PACKAGE.glob("*.py")) if f.name != "__init__.py"]
    files += sorted((ROOT / "bench").glob("*.py"))
    out = []
    for path in files:
        module_refs = set()
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                out.append((node.name, _referenced_names(node)))
            else:
                module_refs |= _referenced_names(node)
        out.append((None, module_refs))
    return out


def unused_exports():
    """Exported defs with no reference outside themselves and other unused exports."""
    exports, owners = _exports(), _owners()
    defined = {name for name, _ in owners if name is not None}
    unused = set()
    changed = True
    while changed:
        changed = False
        for name in sorted(exports & defined - unused):
            if not any(
                name in refs for owner, refs in owners if owner != name and owner not in unused
            ):
                unused.add(name)
                changed = True
    return sorted(unused)


def test_every_export_is_used_outside_tests():
    assert unused_exports() == []


def _is_dataclass(node):
    return any(
        isinstance(d, ast.Name) and d.id == "dataclass"
        or isinstance(d, ast.Call) and isinstance(d.func, ast.Name) and d.func.id == "dataclass"
        for d in node.decorator_list
    )


def unread_fields():
    """``Class.field`` for each dataclass field of src/satk that no code of
    src/satk or bench/ outside the class's __post_init__ reads as an attribute."""
    trees = [ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))]
    trees += [ast.parse(path.read_text()) for path in sorted((ROOT / "bench").glob("*.py"))]
    classes = [
        node
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and _is_dataclass(node)
    ]
    reads = {}  # attribute name -> the nodes that read it
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.setdefault(node.attr, []).append(node)
    unread = []
    for cls in classes:
        checks = [f for f in cls.body if isinstance(f, ast.FunctionDef) and f.name == "__post_init__"]
        inside = {id(node) for f in checks for node in ast.walk(f)}
        for stmt in cls.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                name = stmt.target.id
                if all(id(node) in inside for node in reads.get(name, [])):
                    unread.append(f"{cls.name}.{name}")
    return unread


def test_every_dataclass_field_is_read_outside_tests():
    assert unread_fields() == []


def test_memo_policy_lives_in_linalg():
    # a memo keyed by bytes (lru_cache), rebuilding its matrix (frombuffer)
    # and freezing its result (.flags.writeable) by hand would show here;
    # cli's functools.cache calls are not matrix memos
    tools = ("lru_cache", "frombuffer", ".flags.writeable")
    memo = next(
        node
        for node in ast.parse((PACKAGE / "linalg.py").read_text()).body
        if isinstance(node, ast.FunctionDef) and node.name == "matrix_memo"
    )
    found = [
        f"{path.name}:{i}"
        for path in sorted(PACKAGE.glob("*.py"))
        for i, line in enumerate(path.read_text().splitlines(), 1)
        if any(tool in line for tool in tools)
        and not (path.name == "linalg.py" and memo.lineno <= i <= memo.end_lineno)
    ]
    assert found == []


def test_lapack_calls_are_positional():
    # f2py looks up each keyword argument by name, a few tenths of a
    # microsecond per call against a flag step's few microseconds of LAPACK
    # work; a routine bound to a name (gemm = blas.zgemm) is held to it too
    def routine(node):
        return (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in ("lapack", "blas")
        )

    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        bound = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    pairs = [(target, node.value)]
                    if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple):
                        pairs = zip(target.elts, node.value.elts)
                    bound |= {t.id for t, v in pairs if isinstance(t, ast.Name) and routine(v)}
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and node.keywords
            and (routine(node.func) or isinstance(node.func, ast.Name) and node.func.id in bound)
        ]
    assert found == []


def test_no_module_imports_scipy():
    # linalg finds scipy's _flapack and _fblas with importlib and runs them
    # from their files; an import statement would load a second binding (and
    # scipy.linalg's __init__ with numpy.f2py, numpy.testing and numpy.random)
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for name in names if name.split(".")[0] == "scipy"]
    assert found == []


def test_commands_convert_no_parameter():
    # run_command checks each --config value against its parameter's default;
    # a float(), int() or positive_int() in a command body would be a second,
    # coercing check of the same value
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    found = [
        f"{func.name}:{node.lineno}"
        for func in tree.body
        if isinstance(func, ast.FunctionDef) and func.name.startswith("_cmd_")
        for node in ast.walk(func)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("float", "int", "positive_int")
        and any(
            isinstance(arg, ast.Name) and arg.id in {a.arg for a in func.args.args}
            for arg in node.args
        )
    ]
    assert found == []
