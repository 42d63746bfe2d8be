"""The package namespace: every name it imports is public."""

import ast
from pathlib import Path

import sendovlab


def test_imported_names_are_in_all():
    tree = ast.parse(Path(sendovlab.__file__).read_text())
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
    }
    assert imported
    assert sorted(imported - set(sendovlab.__all__)) == []
    for name in sendovlab.__all__:
        assert hasattr(sendovlab, name)
