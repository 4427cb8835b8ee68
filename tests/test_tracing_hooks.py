"""The benchmark tracer patches packidx functions by name; a rename must
fail here rather than only in a traced benchmark run."""

import importlib.util
import sys
from pathlib import Path

import pytest

import packidx.runners  # noqa: F401  (the tracer patches runners' bindings too)
from packidx import obstruction
from packidx.groups import parse_group
from packidx.reports import Report

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("tracing", ROOT / "perfbench" / "tracing.py")
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


def _bindings() -> dict:
    return {
        (name, attr): value
        for name, mod in list(sys.modules.items())
        if name == "packidx" or name.startswith("packidx.")
        for attr, value in vars(mod).items()
        if callable(value)
    }


@pytest.mark.parametrize("recorder", [tracing.Tracer, tracing.Counter])
def test_hooks_install_and_undo(recorder):
    before, to_json = _bindings(), Report.to_json
    rec, patches = recorder(), tracing.Patches()
    try:
        rec.install(patches, Report)
        report = obstruction.exhaustive_no_index_check(parse_group("Z_4 + Z_2"), 4)
    finally:
        patches.undo()
    assert not report.violations
    assert _bindings() == before and Report.to_json is to_json
    if recorder is tracing.Tracer:
        names = {span.name for span in rec.spans}
        assert {"obstruction.exhaustive_no_index_check", "obstruction.classify_triple"} <= names
    else:
        assert rec.totals()["obstruction.subsets"] == 255
