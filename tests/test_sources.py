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


def private_and_constant_definitions(module: ast.Module) -> dict[str, int]:
    """Name -> line of each top-level private function, private method (dunders aside) and ALL-CAPS constant."""
    defined = {}
    for node in module.body:
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_"):
            defined[node.name] = node.lineno
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and item.name.startswith("_") and not item.name.endswith("__"):
                    defined[f"{node.name}.{item.name}"] = item.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                if isinstance(target, ast.Name) and target.id.isupper():
                    defined[target.id] = node.lineno
    return defined


def names_read(module: ast.Module) -> set[str]:
    """Names a module loads, attribute names it uses and names it imports from another module."""
    read = set()
    for node in ast.walk(module):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def test_every_private_definition_and_constant_is_read():
    modules = {path.name: parse(path) for path in sorted(PACKAGE.glob("*.py"))}
    read = set().union(*map(names_read, modules.values()))
    orphans = {
        f"{name}:{qualified}": line
        for name, module in modules.items()
        for qualified, line in private_and_constant_definitions(module).items()
        if qualified.rpartition(".")[2] not in read
    }
    assert orphans == {}
