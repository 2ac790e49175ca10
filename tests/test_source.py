"""Checks on the program's source text."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "parataur"


def test_src_holds_no_assert_statement():
    """python -O drops assert statements, so no check may be one: no
    module's syntax tree holds an Assert node."""
    modules = sorted(SRC.rglob("*.py"))
    assert modules
    found = [f"{path.name}:{node.lineno}" for path in modules
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []
