"""README's library example runs as written, prints what its comments say, and
imports exactly the names the package exports."""

import ast
import contextlib
import io
import re
from pathlib import Path

import cyclrc

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example() -> str:
    section = README.read_text(encoding="utf-8").split("## Library", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_example_runs_as_written():
    source = library_example()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(source, "README.md", "exec"), {})
    # each print line ends in a comment holding what it prints
    expected = [line.rsplit("#", 1)[1].strip() for line in source.splitlines() if line.startswith("print(")]
    assert len(expected) == 2 and out.getvalue().splitlines() == expected


def test_package_exports_exactly_the_example_imports():
    imports = [node for node in ast.walk(ast.parse(library_example()))
               if isinstance(node, ast.ImportFrom) and node.module == "cyclrc"]
    assert len(imports) == 1
    assert sorted(cyclrc.__all__) == sorted(alias.name for alias in imports[0].names)
