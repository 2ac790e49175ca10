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


# Definitions kept though no code in src/ names them, each with its reason.
UNUSED_BY_SRC = {
    "verify_witness": "decide's exact witness check, kept as the tests' oracle",
    "reachable": "RegionGraph.reachable, called by the perfbench workloads",
}


def test_src_defines_no_function_or_class_it_never_names():
    """Every function, method and class defined in src/ is named somewhere
    in src/: by a Name, an Attribute or an __all__ entry.  Dunder methods
    are called by the language and need no name."""
    defined, named = {}, set()
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.setdefault(node.name, f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                named.update(e.value for e in node.value.elts)
    unused = {name: where for name, where in defined.items()
              if name not in named and name not in UNUSED_BY_SRC
              and not (name.startswith("__") and name.endswith("__"))}
    assert unused == {}
    assert set(UNUSED_BY_SRC) <= set(defined) - named


TESTS = pathlib.Path(__file__).resolve().parent


def test_every_public_conftest_function_is_named_by_a_test_module():
    """The shared helpers and reference operators in conftest.py stay in
    use: each public function defined there is named by some test module,
    by an import, a Name or an Attribute."""
    conftest = TESTS / "conftest.py"
    defined = {node.name for node in ast.parse(conftest.read_text()).body
               if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}
    named = set()
    for path in sorted(TESTS.glob("test_*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom):
                named.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    assert defined
    assert sorted(defined - named) == []
