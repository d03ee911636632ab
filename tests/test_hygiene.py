"""Source hygiene: every module uses each name it imports and imports only
the standard library, NumPy and eisopt at module level, no module imports
SciPy and no command or report loads it, only ``eisopt.measurement`` writes CSV or JSON
files, one function of ``eisopt.design`` holds the loop's move rule, every
binding the benchmark's tracer wraps exists, and every public name, and
every public method or property of a public class, has a use outside the
tests."""

import ast
import importlib
import os
import re
import subprocess
import sys
import textwrap
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "eisopt"
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


# What a module may import at its top: importing eisopt then costs only the
# interpreter's own modules and NumPy.  A heavier dependency would be
# imported where it is used; SciPy is imported nowhere (see below).
_TOP_LEVEL_ALLOWED = set(sys.stdlib_module_names) | {"numpy", "eisopt"}


def _top_level_imports(tree):
    """(line, top-level package) of every import in the module's body;
    relative imports are eisopt's own."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            yield node.lineno, "eisopt" if node.level else node.module.split(".")[0]


@pytest.mark.parametrize("path", MODULES + [SRC / "__init__.py"], ids=lambda p: p.name)
def test_module_level_imports_are_stdlib_numpy_or_eisopt(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    heavy = [f"{name} (line {line})" for line, name in _top_level_imports(tree)
             if name not in _TOP_LEVEL_ALLOWED]
    assert heavy == [], f"{path.name} imports at module level: {heavy}"


def test_the_import_check_sees_module_level_imports():
    tree = ast.parse("import numpy as np\nimport scipy.linalg\n"
                     "from scipy.linalg.lapack import dpotrf\nfrom .circuit import N\n"
                     "def f():\n    import mpmath\n")
    assert list(_top_level_imports(tree)) == [
        (1, "numpy"), (2, "scipy"), (3, "scipy"), (4, "eisopt")]


def _scipy_imports(tree):
    """The line of every import of SciPy at any depth, function and class
    bodies included; relative imports are eisopt's own."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        if any(name.split(".")[0] == "scipy" for name in names):
            yield node.lineno


@pytest.mark.parametrize("path", MODULES + [SRC / "__init__.py"], ids=lambda p: p.name)
def test_no_module_imports_scipy(path):
    # eisopt runs on NumPy alone: the CRLB inverts with NumPy's LAPACK
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = list(_scipy_imports(tree))
    assert lines == [], f"{path.name} imports SciPy on lines {lines}"


def test_the_scipy_check_sees_imports_at_any_depth():
    tree = ast.parse("import numpy as np\nimport scipy as sp\nfrom .scipy import x\n"
                     "def f():\n    from scipy.linalg.lapack import dpotrf\n"
                     "class C:\n    def g(self):\n        import os, scipy.linalg\n"
                     "import scipyx\n")
    assert list(_scipy_imports(tree)) == [2, 5, 8]


# Runs in a fresh interpreter: other tests have long imported SciPy here.
_SCIPY_GUARD = textwrap.dedent("""
    import sys
    from eisopt import (STATE_A, DesignConfig, ErrorStructure, crlb, fisher, fit_wcnls,
                        initialize, log_spaced_inclusive, reduce_ppd, run_design, synthesize,
                        uncertainty_report)
    from eisopt.cli import main

    out = sys.argv[1]
    err = ErrorStructure()
    grid = log_spaced_inclusive(1e4, 0.01, 10)
    spectrum = synthesize(STATE_A, reduce_ppd(grid, 0.1, 7), err, seed=1)
    fit_wcnls(spectrum, initialize(spectrum))
    run_design(spectrum, STATE_A, DesignConfig(max_iterations=2), err=err, seed=2,
               reference_grid=grid)
    crlb(fisher(STATE_A, grid, err))
    uncertainty_report(fisher(STATE_A, grid, err))
    for argv in (["synth"], ["fit", f"{out}/spectrum.csv"], ["design", "--max-iterations", "1"],
                 ["crlb-sweep"], ["report"]):
        assert main(argv + ["--output-dir", out]) == 0, argv
    loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
    assert loaded == [], f"SciPy was loaded: {loaded}"
""")


def test_scipy_never_loads(tmp_path):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", _SCIPY_GUARD, str(tmp_path)],
                          capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120)
    assert proc.returncode == 0, proc.stderr


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


# The design loop's move rule has one home: outside DesignConfig, one
# function of eisopt.design reads the separation, the floor and the time
# budget, so the scan cannot rank moves that the climb may not make.
_MOVE_RULE_NAMES = {"MIN_SEPARATION_DECADES", "min_frequency_hz", "time_budget_s"}


def _move_rule_readers(tree):
    """Sorted names of the top-level functions and methods (``Class.name``,
    DesignConfig's excepted) that read a name of the move rule, as a
    variable or an attribute; a read outside any function is ``<module>``."""

    def reads(node):
        return any(
            isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)
            and (n.id if isinstance(n, ast.Name) else n.attr) in _MOVE_RULE_NAMES
            for n in ast.walk(node)
        )

    readers = set()
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            if node.name != "DesignConfig":
                readers.update(f"{node.name}.{item.name}" for item in node.body
                               if isinstance(item, ast.FunctionDef) and reads(item))
        elif reads(node):
            readers.add(node.name if isinstance(node, ast.FunctionDef) else "<module>")
    return sorted(readers)


def test_one_function_holds_the_design_move_rule():
    tree = ast.parse((SRC / "design.py").read_text(encoding="utf-8"))
    readers = _move_rule_readers(tree)
    assert len(readers) == 1, f"eisopt.design reads the move rule in {readers}"


def test_the_move_rule_check_sees_every_reader():
    tree = ast.parse(textwrap.dedent("""
        MIN_SEPARATION_DECADES = 1e-6
        class DesignConfig:
            def __post_init__(self):
                return self.time_budget_s
        class Workspace:
            def probe(self, cfg):
                return cfg.min_frequency_hz
            def solve(self, cfg):
                return cfg.n_p
        def scan(cfg):
            def inner():
                return MIN_SEPARATION_DECADES
            return inner
        def climb(cfg, min_frequency_hz):
            cfg.time_budget_s = None
            return cfg.n_p
        LIMIT = 2 * MIN_SEPARATION_DECADES
    """))
    assert _move_rule_readers(tree) == ["<module>", "Workspace.probe", "scan"]


def _tracer_bindings():
    """(module, attribute) of every entry in perfbench/tracer.py's
    LAYER_BINDINGS, read from the source without importing the benchmark."""
    path = ROOT / "perfbench" / "tracer.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "LAYER_BINDINGS" for t in node.targets)):
            return [tuple(ast.literal_eval(e) for e in entry.elts[:2]) for entry in node.value.elts]
    raise AssertionError("perfbench/tracer.py defines no LAYER_BINDINGS")


def test_every_traced_binding_exists():
    # the tracer skips a binding it cannot find, which would silently empty
    # that layer's metrics in a traced benchmark run
    bindings = _tracer_bindings()
    assert ("eisopt.frequency", "reduce_ppd") in bindings
    missing = [f"{module}.{attr}" for module, attr in bindings
               if not hasattr(importlib.import_module(module), attr)]
    assert missing == [], f"bindings the benchmark tracer cannot find: {missing}"


# A public name that only the tests call is code kept working for no user.
# Each name in eisopt.__all__ must be used by another eisopt module or by
# the benchmark, or be documented in the README.


def _names_read(tree):
    """Every name the module reads, as a variable, an attribute or an
    import; the names its own definitions and assignments bind are not
    reads."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def _names_used(sources, readme):
    used = set(re.findall(r"\w+", readme))
    for source in sources:
        used.update(_names_read(ast.parse(source)))
    return used


def _public_names_without_a_use(public, sources, readme):
    return sorted(set(public) - _names_used(sources, readme))


def _public_members_without_a_use(classes, sources, readme):
    """``Class.name`` of every public def, property or classmethod that a
    class defines itself and no source reads by name."""
    used = _names_used(sources, readme)
    return sorted(
        f"{cls.__name__}.{name}" for cls in classes for name, value in vars(cls).items()
        if not name.startswith("_") and name not in used
        and isinstance(value, (types.FunctionType, property, classmethod, staticmethod))
    )


def _sources_outside_the_tests():
    paths = MODULES + sorted((ROOT / "perfbench").glob("*.py"))
    return ([p.read_text(encoding="utf-8") for p in paths],
            (ROOT / "README.md").read_text(encoding="utf-8"))


def test_every_public_name_is_used_outside_the_tests():
    import eisopt

    unused = _public_names_without_a_use(eisopt.__all__, *_sources_outside_the_tests())
    assert unused == [], f"public names that only the tests use: {unused}"


def test_every_public_method_is_used_outside_the_tests():
    import eisopt

    classes = [obj for obj in map(eisopt.__dict__.get, eisopt.__all__) if isinstance(obj, type)]
    assert eisopt.FrequencyGrid in classes and eisopt.AdjustmentTrace in classes
    unused = _public_members_without_a_use(classes, *_sources_outside_the_tests())
    assert unused == [], f"public methods and properties that only the tests use: {unused}"


def test_the_public_name_check_sees_uses_not_definitions():
    source = textwrap.dedent("""
        from .circuit import model_polar
        import eisopt
        N_POINTS = 3
        def unused_helper(grid):
            return eisopt.crlb(fisher(grid))
    """)
    public = ["model_polar", "crlb", "fisher", "save_spectrum", "N_POINTS",
              "unused_helper", "total_time"]
    assert _public_names_without_a_use(public, [source], "call `save_spectrum(s, path)`") == [
        "N_POINTS", "total_time", "unused_helper"]


def test_the_public_method_check_sees_uses_not_definitions():
    class Grid:
        points = 3  # a class attribute, not a method

        def __len__(self):
            return 0

        def _private(self):
            return 0

        def read(self):
            return 0

        def unread(self):
            return 0

        @property
        def start(self):
            return 0

        @classmethod
        def load(cls):
            return cls()

    # a def of the same name is a definition, not a use
    source = textwrap.dedent("""
        def unread(grid):
            return grid.read() + grid.start
    """)
    assert _public_members_without_a_use([Grid], [source], "call `Grid.load()`") == [
        "Grid.unread"]
