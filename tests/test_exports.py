"""Public names: every export resolves, and so does every function the
benchmark's tracer rebinds."""
from __future__ import annotations

import ast
import importlib
import pkgutil
from pathlib import Path

import realtoric

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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
