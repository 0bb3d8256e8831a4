"""Every name a module in the package or the test suite imports is used.

A plain ast scan stands in for a linter: the package's __init__.py is skipped
because its imports are the public re-exports, and an import counts as used
when its bound name appears as a name or as the base of an attribute.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_linalg_imports_no_harmop_module():
    """linalg owns the numerical guards every other module calls, so it sits
    below all of them."""
    tree = ast.parse((ROOT / "src" / "harmop" / "linalg.py").read_text())
    modules = [a.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for a in node.names]
    modules += ["." * node.level + (node.module or "") for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)]
    assert [m for m in modules if m.startswith((".", "harmop"))] == []


def test_no_unused_imports_in_package_or_tests():
    files = sorted((ROOT / "src" / "harmop").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    assert len(files) > 10
    unused = {str(p.relative_to(ROOT)): names for p in files
              if p.name != "__init__.py" and (names := _unused_imports(p))}
    assert unused == {}
