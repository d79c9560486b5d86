"""The committed fans/*.json are what scripts/make_example_fans.py writes,
byte for byte, and no file there lacks a construction."""
from __future__ import annotations

import importlib.util
from pathlib import Path

from realtoric.fan import fan_to_json

ROOT = Path(__file__).resolve().parents[1]

# the script's own list of example fans
_spec = importlib.util.spec_from_file_location(
    "make_example_fans", ROOT / "scripts" / "make_example_fans.py"
)
make_example_fans = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_example_fans)


def test_example_fans_regenerate_byte_for_byte():
    fans = make_example_fans.example_fans()
    names = [f"{fan.name}.json" for fan in fans]
    assert sorted(names) == sorted(p.name for p in (ROOT / "fans").glob("*.json"))
    for name, fan in zip(names, fans):
        committed = (ROOT / "fans" / name).read_text(encoding="utf-8")
        assert fan_to_json(fan) + "\n" == committed, name
