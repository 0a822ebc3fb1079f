"""The package surface: every name the demos, the benchmark and the README import
from `nsexpand` resolves, and the README's Library block runs."""

import ast
import contextlib
import importlib.util
import io
import re
from pathlib import Path

import nsexpand

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def python_blocks():
    return re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)


def sources():
    files = sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    yield from ((path.relative_to(ROOT).as_posix(), path.read_text()) for path in files)
    yield from ((f"README.md python block {i}", block) for i, block in enumerate(python_blocks()))


def test_every_name_imported_from_the_package_resolves():
    imported = {}
    for where, text in sources():
        for node in ast.walk(ast.parse(text, where)):
            if isinstance(node, ast.ImportFrom) and node.module == "nsexpand" and not node.level:
                for alias in node.names:
                    imported.setdefault(alias.name, where)
    assert imported, "no `from nsexpand import` found"
    # `from nsexpand import cli` names a submodule, which the import statement loads itself
    missing = {
        name: where
        for name, where in imported.items()
        if not hasattr(nsexpand, name) and importlib.util.find_spec(f"nsexpand.{name}") is None
    }
    assert missing == {}


def test_readme_library_block_runs():
    (block,) = [b for b in python_blocks() if "from nsexpand import" in b]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    lines = out.getvalue().splitlines()
    assert [line.split()[0] for line in lines] == ["1", "2", "3"]
