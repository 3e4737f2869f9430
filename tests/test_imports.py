"""Every name a cyclrc module imports is used in that module."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

from cyclrc.cyclic import DEFAULT_BUDGET, cyc_context
from cyclrc.locality import anchor_dual_word

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


# patched by name by `perfbench/trace_layers.py` (they go once the tracer no
# longer patches them)
UNREFERENCED_ALLOWED = {"batch_det", "batch_nullvec", "batch_rank", "mat_vec", "rank"}
FUNCTION_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)


def package_bindings(tree):
    """{bound name: (module, function)} of a module's package imports:
    `from . import m` binds m to (m, None), `from .m import f` f to (m, f)."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                bound = (alias.name, None) if node.module is None else (node.module, alias.name)
                out[alias.asname or alias.name] = bound
    return out


def unshadowed_reads(tree):
    """Names read where no parameter or assigned local of an enclosing
    function shadows them."""
    reads = set()

    def visit(node, shadowed):
        if isinstance(node, (*FUNCTION_NODES, ast.Lambda)):
            a = node.args
            args = [arg for arg in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg] if arg is not None]
            stores = [sub.id for sub in ast.walk(node) if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store)]
            shadowed = shadowed | {arg.arg for arg in args} | set(stores)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id not in shadowed:
            reads.add(node.id)
        for child in ast.iter_child_nodes(node):
            visit(child, shadowed)

    visit(tree, frozenset())
    return reads


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
    # a function counts as used only when some module reads it through its
    # defining module (`bounds.bch_lower`), imports it by name and reads it,
    # or reads it in its own module where no local shadows it; `__all__` and
    # a bare name of the same spelling elsewhere do not count.  A method
    # counts when some module reads it as an attribute.
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in SRC.glob("*.py")}
    used, attrs = set(), set()
    for module, tree in trees.items():
        binds, reads = package_bindings(tree), unshadowed_reads(tree)
        used |= {(module, name) for name in reads}
        used |= {binds[name] for name in reads if name in binds}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                attrs.add(node.attr)
                if isinstance(node.value, ast.Name) and binds.get(node.value.id, (None, ""))[1] is None:
                    used.add((binds[node.value.id][0], node.attr))
    dead = [f"{module}.py:{qualname}" for module, tree in sorted(trees.items())
            for qualname, short, method in defined_functions(tree)
            if not (short in attrs if method else (module, short) in used) and qualname not in UNREFERENCED_ALLOWED]
    assert not dead, f"functions and public methods that no src module uses: {', '.join(dead)}"


def self_attributes(target):
    """Attribute names assigned on `self` by one assignment target."""
    if isinstance(target, ast.Attribute) and isinstance(target.value, ast.Name) and target.value.id == "self":
        yield target.attr
    elif isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            yield from self_attributes(elt)


def test_every_self_attribute_is_read():
    # an attribute a class stores on `self` is read as an attribute somewhere
    # in src; a stale table copy or cache that nothing consults fails here
    assigned, read = set(), set()
    for path in SRC.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
            for node in ast.walk(cls):
                if isinstance(node, ast.Assign):
                    targets = node.targets
                elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                    targets = [node.target]
                else:
                    continue
                assigned.update(f"{path.name}:{cls.name}.{attr}" for t in targets for attr in self_attributes(t))
        read.update(node.attr for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load))
    assert assigned, "no attribute assignments found; the walk is broken"
    unread = sorted(name for name in assigned if name.rsplit(".", 1)[1] not in read)
    assert not unread, f"attributes stored on self that no src module reads: {', '.join(unread)}"


def test_every_traced_function_resolves():
    # the benchmark's tracer (perfbench/trace_layers.py) patches these names
    # with getattr and reads anchor_dual_word's exact flag at index 3, so a
    # rename or a reshaped result would break its traced runs
    path = SRC.parents[1] / "perfbench" / "trace_layers.py"
    spec = importlib.util.spec_from_file_location("trace_layers", path)
    trace_layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trace_layers)
    missing = [f"{module}.{name}" for module, name, _ in trace_layers.FUNCTIONS
               if not callable(getattr(importlib.import_module(module), name, None))]
    assert not missing, f"traced functions missing from src: {', '.join(missing)}"
    ctx = cyc_context(13, 12)
    # the criterion, the exact oracle and the subgroup fallback
    for exps, budget in (([0, 3, 9], DEFAULT_BUDGET), ([0, 1, 2], DEFAULT_BUDGET), ([0, 1, 2], 144)):
        assert type(anchor_dual_word(ctx.exponent_set(exps), budget)[3]) is bool
