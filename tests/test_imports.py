"""Every name a cyclrc module imports is used in that module."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "cyclrc"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def imported_names(tree):
    """(bound name, line) for each import outside `from __future__`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            for arg in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]:
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def used_names(tree):
    """Names read anywhere, plus those inside string annotations."""
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for ann in annotations(tree):
        for sub in ast.walk(ann):
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                used |= used_names(ast.parse(sub.value, mode="eval"))
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = used_names(tree)
    unused = [f"{name} (line {line})" for name, line in imported_names(tree) if name not in used]
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"


# patched by name by `perfbench/trace_layers.py` (goes with ROADMAP item 3),
# and the reference encoder of the tests
UNREFERENCED_ALLOWED = {"batch_det", "batch_nullvec", "mat_vec", "CyclicCode.encode"}
FUNCTION_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)


def referenced_names(tree):
    """(names read, imported or listed in `__all__`; attributes read)."""
    names, attrs = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attrs.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            names.update(elt.value for elt in node.value.elts)
    return names, attrs


def defined_functions(tree):
    """(qualified name, name, is a method) of each module-level function and
    of each public method of a module-level class."""
    for node in tree.body:
        if isinstance(node, FUNCTION_NODES):
            yield node.name, node.name, False
        elif isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, FUNCTION_NODES) and not sub.name.startswith("_"):
                    yield f"{node.name}.{sub.name}", sub.name, True


def test_every_module_function_is_referenced():
    # a method counts as referenced only when some module reads it as an
    # attribute; a bare name of the same spelling (a local, `math.gcd`'s
    # import) does not reach it
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in SRC.glob("*.py")}
    refs = [referenced_names(t) for t in trees.values()]
    attrs = set().union(*(a for _, a in refs))
    names = attrs.union(*(n for n, _ in refs))
    dead = [f"{name}:{qualname}" for name, tree in sorted(trees.items())
            for qualname, short, method in defined_functions(tree)
            if short not in (attrs if method else names) and qualname not in UNREFERENCED_ALLOWED]
    assert not dead, f"functions and public methods that no src module references: {', '.join(dead)}"
