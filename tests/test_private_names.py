"""The package uses numpy and scipy through their public names only, so that
their declared version floors in pyproject.toml are the only contract it
relies on. Tests may still patch private names."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "dckpca"
LIBRARIES = {"numpy", "scipy"}
ALIASES = {"np", "numpy", "scipy", "sparse"}


def _private_uses(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] in LIBRARIES and any(p.startswith("_") for p in parts):
                    yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            parts = node.module.split(".")
            if parts[0] in LIBRARIES:
                for name in parts + [alias.name for alias in node.names]:
                    if name.startswith("_"):
                        yield node.lineno, f"{node.module}: {name}"
        elif isinstance(node, ast.Attribute) and node.attr.startswith("_"):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in ALIASES:
                yield node.lineno, f"{root.id}...{node.attr}"


def test_package_uses_no_private_numpy_or_scipy_name():
    paths = sorted(SRC.glob("*.py"))
    assert paths
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{line}: {name}" for line, name in _private_uses(tree)]
    assert not found, found
