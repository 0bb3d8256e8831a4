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


# public names that nothing in the package or the benchmark calls, each kept
# for a reason of its own
UNREFERENCED_ALLOWED = {
    "function_to_json": "wire-format writer, the inverse of function_from_json",
    "GroupTable.to_json": "wire-format writer, the inverse of parse_group",
    "parse_report": "the inverse of emit",
    "convolve_measures": "its homomorphism test pins the convolution convention",
    "delta_measure": "constructor of test inputs",
    "indicator_function": "constructor of test inputs",
    "theta_hat_sum_form": "the sum form of theta_hat, to become a CLI check",
    "pre_annihilator_ideal": "the pre-annihilator basis; the CLI reads only its "
                             "dimension, pre_annihilator_dim, which the tests hold to it",
    "operator_support": "the one-operator form of operator_supports, which the CLI "
                        "calls on stacks",
}


def _public_definitions() -> set[str]:
    """Public module functions and methods of src/harmop, methods as 'Class.name'."""
    names = set()
    for path in (ROOT / "src" / "harmop").glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            members = node.body if isinstance(node, ast.ClassDef) else [node]
            prefix = f"{node.name}." if isinstance(node, ast.ClassDef) else ""
            names.update(prefix + m.name for m in members
                         if isinstance(m, ast.FunctionDef) and not m.name.startswith("_"))
    return names


def _referenced_names(paths) -> set[str]:
    """Names, attributes and the dotted parts of string constants: the
    benchmark's tracer names what it hooks as 'layer.function'."""
    refs = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                refs.add(node.id)
            elif isinstance(node, ast.Attribute):
                refs.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                refs.update(node.value.split("."))
    return refs


def test_every_public_library_name_is_referenced():
    paths = [p for p in (ROOT / "src" / "harmop").glob("*.py") if p.name != "__init__.py"]
    refs = _referenced_names(paths + sorted((ROOT / "perfbench").glob("*.py")))
    unreferenced = {name for name in _public_definitions()
                    if name.rsplit(".", 1)[-1] not in refs}
    assert unreferenced == set(UNREFERENCED_ALLOWED)


def _dataclass_fields() -> set[str]:
    """Fields of the dataclasses of src/harmop, as 'Class.field'."""
    fields = set()
    for path in (ROOT / "src" / "harmop").glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef) and any(
                    (d.func if isinstance(d, ast.Call) else d).id == "dataclass"
                    for d in node.decorator_list):
                fields.update(f"{node.name}.{m.target.id}" for m in node.body
                              if isinstance(m, ast.AnnAssign))
    return fields


def _read_names(paths) -> set[str]:
    """Attributes read anywhere, and the dotted parts of string constants;
    an attribute that is only assigned or a plain name does not count."""
    refs = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                refs.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                refs.update(node.value.split("."))
    return refs


def test_every_dataclass_field_is_read():
    fields = _dataclass_fields()
    assert "HarmonicReport.p1_mode" in fields and "CheckRecord.passed" in fields
    paths = [p for top in ("src", "tests", "perfbench") for p in sorted((ROOT / top).rglob("*.py"))]
    refs = _read_names(paths)
    assert {f for f in fields if f.split(".")[1] not in refs} == set()
