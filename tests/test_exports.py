"""Public names: every export resolves, and so does every function the
benchmark's tracer rebinds; and the package imports no process pool."""
from __future__ import annotations

import ast
import importlib
import pkgutil
from pathlib import Path

import realtoric

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
SRC = Path(__file__).resolve().parents[1] / "src" / "realtoric"


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
        for attr in dotted.split("."):
            assert hasattr(obj, attr), (module_name, dotted)
            obj = getattr(obj, attr)


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
