"""Static checks on the caralab sources, read as syntax trees."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "caralab"


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def top_level_imports(module: ast.Module) -> dict[str, int]:
    """Name -> line of each name that a top-level import binds, __future__ imports aside."""
    bound = {}
    for node in module.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


# __init__.py imports names to re-export them, which is their use
@pytest.mark.parametrize(
    "path", sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"), ids=lambda p: p.name
)
def test_no_unused_top_level_import(path):
    module = parse(path)
    used = {node.id for node in ast.walk(module) if isinstance(node, ast.Name)}
    assert {name: line for name, line in top_level_imports(module).items() if name not in used} == {}


def test_cli_imports_no_private_name():
    private = [
        f"{node.module or '.'}.{alias.name}"
        for node in ast.walk(parse(PACKAGE / "cli.py"))
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("caralab"))
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []
