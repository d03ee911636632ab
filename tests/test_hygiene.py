"""Source hygiene: every module uses each name it imports, and only
``eisopt.measurement`` writes CSV or JSON files."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "eisopt"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _imported(tree):
    """(bound name, dotted origin) for every import outside __future__."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], alias.name
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, f"{node.module}.{alias.name}"


def test_the_check_sees_package_modules():
    assert {p.name for p in MODULES} >= {"cli.py", "design.py", "information.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(origin for name, origin in _imported(tree) if name not in used)
    assert unused == [], f"{path.name} imports names it never uses: {unused}"


# The shared writers: a CSV table or a JSON file written anywhere else would
# be a second copy of a format that readers of the files rely on.
_WRITERS = {("csv", "writer"), ("json", "dump")}


def _writer_uses(tree):
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and (node.value.id, node.attr) in _WRITERS):
            yield f"{node.value.id}.{node.attr} (line {node.lineno})"
        elif isinstance(node, ast.ImportFrom) and node.module in ("csv", "json"):
            for alias in node.names:
                if (node.module, alias.name) in _WRITERS:
                    yield f"from {node.module} import {alias.name} (line {node.lineno})"


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "measurement.py"], ids=lambda p: p.name
)
def test_only_measurement_writes_csv_or_json(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    uses = list(_writer_uses(tree))
    assert uses == [], f"{path.name} writes files itself; use write_table/write_json: {uses}"


def test_the_writer_check_sees_the_shared_writers():
    tree = ast.parse((SRC / "measurement.py").read_text(encoding="utf-8"))
    assert len(list(_writer_uses(tree))) == 2
