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


#: public names that no module of src/caralab or tools/ reads, kept on purpose
UNREAD_PUBLIC = {
    # the public Hermitian decomposition; the package decomposes through validate_positive_contraction
    "hermitian.py:spectral_decompose",
    # references the tests compare the batched routes against
    "hermitian.py:SpectralDecomposition.projector",
    "pencil.py:sample_bidisk",
    # the prescribed-v_tau builder of the tests, until the conjugated-Haar builder replaces it
    "realization.py:colligation_with_ray_limit",
    # the performance tracer times it by name
    "realization.py:GeneralizedRealization.model_vector",
    # the finite-difference derivative of any callable phi, the route that model-scaled steps extend
    "boundary.py:derivative_fd",
}


def public_definitions(module: ast.Module) -> dict[str, int]:
    """Name -> line of each top-level public function and class, and each public method."""
    defined = {}
    for node in module.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            defined[node.name] = node.lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    defined[f"{node.name}.{item.name}"] = item.lineno
    return defined


def test_every_public_definition_is_read():
    # a re-export in __init__.py is not a read; cli.main finds the cmd_* handlers by name
    modules = {path.name: parse(path) for path in sorted(PACKAGE.glob("*.py"))}
    tools = [parse(path) for path in sorted((PACKAGE.parents[1] / "tools").glob("*.py"))]
    readers = [module for name, module in modules.items() if name != "__init__.py"] + tools
    read = set().union(*map(names_read, readers))
    orphans = {
        f"{name}:{qualified}": line
        for name, module in modules.items()
        for qualified, line in public_definitions(module).items()
        if qualified.rpartition(".")[2] not in read and not qualified.startswith("cmd_")
    }
    assert orphans.keys() - UNREAD_PUBLIC == set()
    # a kept name that gains a reader leaves the list
    assert UNREAD_PUBLIC <= orphans.keys()
