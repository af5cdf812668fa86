"""Rules on the package's source text itself."""

import argparse
import ast
from pathlib import Path

import mortality2x2

PACKAGE = Path(mortality2x2.__file__).resolve().parent


def test_no_assert_statement_in_the_package():
    # `python -O` strips asserts, so a check that bears on a verdict must
    # raise; this holds for every assert, reached by a test or not
    paths = sorted(PACKAGE.glob("*.py"))
    assert "spectral.py" in {path.name for path in paths}
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_no_private_argparse_attribute_in_the_package():
    # argparse's underscore names are not its API and may change with any
    # Python release; `cli` states its grammar in its own table instead.
    # The private names of a parser, a subparsers action and a group, taken
    # from argparse itself; dunders are Python's own and are left alone.
    parser = argparse.ArgumentParser()
    probes = (parser, parser.add_subparsers(), parser.add_mutually_exclusive_group())
    private = {name for probe in probes for name in dir(probe) if name.startswith("_") and not name.endswith("__")}
    assert {"_actions", "_defaults", "_subparsers", "_group_actions", "_mutually_exclusive_groups"} <= private
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr.startswith("_") and not node.attr.endswith("__"):
                on_module = isinstance(node.value, ast.Name) and node.value.id == "argparse"
                if on_module or node.attr in private:
                    found.append(f"{path.name}:{node.lineno}: .{node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module == "argparse":
                found += [f"{path.name}:{node.lineno}: {a.name}" for a in node.names if a.name.startswith("_")]
    assert found == []
