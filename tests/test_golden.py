"""Report bytes pinned by sha256; regenerate deliberately with scripts/pin_goldens.py."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("pin_goldens", ROOT / "scripts" / "pin_goldens.py")
pin_goldens = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pin_goldens)

PINS = json.loads(pin_goldens.DIGESTS.read_text())
CELLS = pin_goldens.cells()


def test_every_cell_is_pinned():
    assert sorted(CELLS) == sorted(PINS)


@pytest.mark.parametrize("name", sorted(CELLS))
def test_report_bytes_match_pin(name, monkeypatch):
    monkeypatch.chdir(ROOT)
    got = pin_goldens.digest(CELLS[name])
    assert got == PINS[name], f"report bytes changed for cell {name!r}"
