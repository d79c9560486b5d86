"""Public names: every export resolves, and so does every function the
benchmark's tracer rebinds, or it lives in tests/oracles.py; every
definition, public or private, has a use in the package; every imported
name has a use in its module; and the package imports no process pool."""
from __future__ import annotations

import ast
import importlib
import pkgutil
from pathlib import Path

import oracles
import realtoric

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"
SRC = ROOT / "src" / "realtoric"
# tracer TARGETS that the package does not define: each is a test reference
# in oracles.py under this name; the tracer reads 0 calls for a missing
# target.  A method whose class left the package names the class kept in
# oracles.py, or None when the class was deleted.
MOVED_TO_ORACLES = {
    "Mat2.submatrix": "submatrix",
    "exterior_power": "exterior_power",
    "assemble_blocks": "assemble_blocks",
    "induced_projection_mod2": "induced_projection_mod2",
    "y_basis_change": "y_basis_change",
    "determinant": "determinant",
    "quotient_with_section": "quotient_with_section",
    "lin_rank": "lin_rank",
    "orbit_lattice": "orbit_lattice",
    "ChainComplex.__init__": None,
}


def _tracer_targets():
    """TARGETS of perfbench/tracer.py, read from its source, not imported."""
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.AnnAssign) and getattr(node.target, "id", None) == "TARGETS":
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no TARGETS")


def test_exports_and_tracer_targets_resolve():
    names = ["realtoric"] + [
        f"realtoric.{info.name}" for info in pkgutil.iter_modules(realtoric.__path__)
    ]
    for name in names:
        module = importlib.import_module(name)
        missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
        assert not missing, (name, missing)
    targets = _tracer_targets()
    assert targets
    for _, module_name, dotted in targets:
        obj = importlib.import_module(module_name)
        *outer, last = dotted.split(".")
        if dotted in MOVED_TO_ORACLES and outer and not hasattr(obj, outer[0]):
            # the class is gone from the package: kept in oracles.py, or deleted
            kept = MOVED_TO_ORACLES[dotted]
            if kept is None:
                assert not hasattr(oracles, outer[0]), dotted
            else:
                assert callable(getattr(oracles, kept, None)), dotted
            continue
        for attr in outer:
            assert hasattr(obj, attr), (module_name, dotted)
            obj = getattr(obj, attr)
        if dotted in MOVED_TO_ORACLES:
            assert not hasattr(obj, last), (module_name, dotted)
            assert callable(getattr(oracles, MOVED_TO_ORACLES[dotted], None)), dotted
        else:
            assert hasattr(obj, last), (module_name, dotted)


def test_every_definition_is_used_in_the_package():
    # every function and class in the package has a use in it; being public
    # API is not one, so what only tests call belongs in tests/oracles.py
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))]
    assert trees
    used = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    definitions = (ast.FunctionDef, ast.ClassDef)
    unused = [
        node.name
        for tree in trees
        for node in tree.body
        if isinstance(node, definitions) and node.name not in used
    ]
    # so has every method, but for the dunders, which Python calls, and
    # the argparse hook _Parser.error
    unused += [
        f"{cls.name}.{node.name}"
        for tree in trees
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, definitions)
        and node.name not in used
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and f"{cls.name}.{node.name}" != "_Parser.error"
    ]
    assert unused == []


def test_every_imported_name_is_used_in_its_module():
    # in the package, the tests and the scripts; a name in a module's
    # __all__ is a use (a re-export), and the __future__ import is exempt
    paths = sorted(path for folder in (SRC, ROOT / "tests", ROOT / "scripts")
                   for path in folder.glob("*.py"))
    assert paths
    unused = []
    for path in paths:
        imported, used = {}, set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                if getattr(node, "module", None) != "__future__":
                    # `import a.b` binds a
                    for alias in node.names:
                        imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "__all__" for t in node.targets
            ):
                used.update(ast.literal_eval(node.value))
        unused += [(path.relative_to(ROOT).as_posix(), line, name)
                   for name, line in imported.items() if name not in used]
    assert unused == []


def test_package_imports_no_process_or_thread_pool():
    # every computation runs in the caller's process
    found, paths = [], sorted(SRC.glob("*.py"))
    assert paths
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module]
            else:
                continue
            found += [
                (path.name, m) for m in modules
                if m.split(".")[0] in ("concurrent", "multiprocessing")
            ]
    assert found == []
