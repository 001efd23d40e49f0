"""The package's export list."""

import ast
from pathlib import Path

import selrec


def test_all_lists_every_public_import_once():
    # __all__ names __version__ and exactly the public names that
    # selrec/__init__.py imports, each once, and each resolves
    tree = ast.parse(Path(selrec.__file__).read_text())
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    public = {name for name in imported if not name.startswith("_")}
    assert len(selrec.__all__) == len(set(selrec.__all__))
    assert set(selrec.__all__) == public | {"__version__"}
    for name in selrec.__all__:
        assert getattr(selrec, name) is not None, name
