"""Rules on the package's source text itself."""

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
