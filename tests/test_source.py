"""Source-level rules for the package itself."""

import ast
import re
import sys
from pathlib import Path

import frieze_mod

SRC = Path(frieze_mod.__file__).parent


def test_no_assert_in_library_code():
    # python -O strips assert statements, so none may carry a check
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found


def _imported(node):
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom):
        return [node.module or "."]
    return []


def test_cli_imports_only_sys_at_load_time():
    # every other import sits in the command that needs it
    tree = ast.parse((SRC / "cli.py").read_text())
    assert [name for node in tree.body for name in _imported(node)] == ["sys"]


def test_ring_imports_only_math_at_load_time():
    # size, classify and witness load ring: its residues are plain ints,
    # so it needs no record type (collections) or other module
    tree = ast.parse((SRC / "ring.py").read_text())
    assert [name for node in tree.body for name in _imported(node)
            if name != "__future__"] == ["math"]


def test_pair_imports_only_ring_and_the_standard_library():
    # classify and witness load pair: it may bring in no range fill
    # (rows), parser (usage) or other package module
    found = [(node.level, node.module) if isinstance(node, ast.ImportFrom)
             else (0, name)
             for node in ast.walk(ast.parse((SRC / "pair.py").read_text()))
             for name in _imported(node)]
    assert found and all((level, name) == (1, "ring") or level == 0
                         and name.split(".")[0] in sys.stdlib_module_names
                         for level, name in found), found


def test_no_module_imports_click():
    # click is a test dependency only (CliRunner); no command path needs it
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if any(name.split(".")[0] == "click" for name in _imported(node))]
    assert not found, found


def test_readme_lists_every_public_name():
    # the Public names section of README names each name of __all__ in
    # backticks
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    section = readme.split("\n## Public names\n")[1].split("\n## ")[0]
    public = set(frieze_mod.__all__) - {"__version__"}
    assert sorted(public - set(re.findall(r"`(\w+)`", section))) == []
