"""Report bytes pinned by sha256; regenerate deliberately with scripts/pin_goldens.py."""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from packidx import obstruction, packing
from packidx.groups import DenseBox

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


def test_every_sweep_cross_check_works_out_its_own_checks(monkeypatch):
    # each of the 255 cross-checks of the exhaustive Z_4 + Z_2 sweep, the
    # window's family memo notwithstanding, works out its subset's D with
    # diff_mask and certifies its family on the subset's own elements
    diffs, certified, checks = [], [], []
    diff_mask, certify, solve = DenseBox.diff_mask, packing._certify_family, obstruction.max_packing_family

    def spy_diff_mask(box, mask):
        diffs.append((box, mask))
        return diff_mask(box, mask)

    def spy_certify(A, shifts):
        certified.append((A, tuple(shifts)))
        return certify(A, shifts)

    def spy_solve(A, window):
        before = len(diffs), len(certified)
        family = solve(A, window)
        checks.append((A, window, family, diffs[before[0] :], certified[before[1] :]))
        return family

    monkeypatch.setattr(DenseBox, "diff_mask", spy_diff_mask)
    monkeypatch.setattr(packing, "_certify_family", spy_certify)
    monkeypatch.setattr(obstruction, "max_packing_family", spy_solve)
    monkeypatch.chdir(ROOT)
    name = "obstruct Z_4 + Z_2 k=4"
    runner, cfg = CELLS[name]
    report = runner(cfg)
    assert report.results["cross_checks"] == len(checks) == 255
    assert hashlib.sha256(report.to_json().encode()).hexdigest() == PINS[name]
    for A, window, family, made, certificates in checks:
        box = window.box()
        assert any(b is box and mask == box.mask_of(A.elements) for b, mask in made)
        assert any(a is A and shifts == family.shifts.elements for a, shifts in certificates)
