"""Acceptance matrix: every criterion at its stated tolerance.

Each test runs one ``packidx.demo.criterion_N`` and asserts on its outcome,
so the matrix and its logic live in ``demo.py`` alone. Each test prints one
`ACCEPTANCE <n>: PASS/FAIL` line; run with `pytest -s` (or read captured
output) to see the roll-up. `pack demo` drives the same matrix from the
command line. A time bound covers the whole criterion call.
"""

import time

from packidx import demo

# every nonempty subset of each swept group
SWEEP_SUBSETS = {"Z_3^2": 511, "Z_2^4": 65535, "Z_4 + Z_2": 255, "Z_4 + Z_2^2": 65535}


def report(cid: int, ok: bool, detail: str = ""):
    print(f"ACCEPTANCE {cid}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"criterion {cid} failed: {detail}"


def timed(criterion, *args):
    started = time.time()
    outcome = criterion(*args)
    return outcome, time.time() - started


def sweeps_ok(outcome, groups) -> bool:
    """Every group swept over all its subsets, each family extended."""
    cells = outcome.details
    return list(cells) == list(groups) and all(
        cells[g]["subsets"] == SWEEP_SUBSETS[g]
        and cells[g]["violations"] == 0
        and cells[g]["extensions_certified"] >= cells[g]["families_found"]
        for g in groups
    )


def test_criterion_1_exceptional_family_k3():
    outcome, elapsed = timed(demo.criterion_1)
    ok = outcome.passed and sweeps_ok(outcome, demo.OBSTRUCTION_K3_GROUPS)
    ok &= elapsed <= 10.0
    cells = outcome.details.values()
    found = sum(c["families_found"] for c in cells)
    violations = sum(c["violations"] for c in cells)
    subsets = {g: c["subsets"] for g, c in outcome.details.items()}
    report(
        1,
        ok,
        f"subsets {subsets}, {found} pairs extended, {violations} violations, {elapsed:.1f}s",
    )


def test_criterion_2_exceptional_family_k4():
    outcome, elapsed = timed(demo.criterion_2)
    ok = outcome.passed and sweeps_ok(outcome, demo.OBSTRUCTION_K4_GROUPS)
    ok &= elapsed <= 300.0
    violations = sum(c["violations"] for c in outcome.details.values())
    subsets = {g: c["subsets"] for g, c in outcome.details.items()}
    report(2, ok, f"subsets {subsets}, {violations} violations, {elapsed:.1f}s")


def test_criterion_3_attainability_matrix():
    outcome, elapsed = timed(demo.criterion_3)
    assert len(demo.ATTAINABILITY_CELLS) == 14
    ok = outcome.passed and elapsed <= 60.0
    ok &= list(outcome.details) == [f"{t} k={k}" for t, k in demo.ATTAINABILITY_CELLS]
    for (text, kappa), cell in zip(demo.ATTAINABILITY_CELLS, outcome.details.values()):
        cell_ok = (
            cell["witness_size"] == kappa - 1
            and cell["property_2"]
            and cell["max_clique"] == kappa - 1
        )
        if not cell_ok:
            report(3, False, f"cell ({text}, {kappa}): clique {cell['max_clique']}")
    report(3, ok, f"{len(outcome.details)} cells in {elapsed:.1f}s")


def test_criterion_4_witness_construction():
    outcome, elapsed = timed(demo.criterion_4)
    assert list(demo.WITNESS_KAPPAS) == list(range(2, 10))
    ok = outcome.passed and elapsed <= 60.0
    ok &= list(outcome.details) == [f"k={k}" for k in demo.WITNESS_KAPPAS]
    for kappa, cell in zip(demo.WITNESS_KAPPAS, outcome.details.values()):
        idx = cell["windowed_sharp_index"]
        if not (cell["i1"] and cell["i2"] and idx == kappa):
            report(4, False, f"kappa={kappa}: i1={cell['i1']} i2={cell['i2']} index={idx}")
    kappas = demo.WITNESS_KAPPAS
    cells = f"kappa {kappas[0]}..{kappas[-1]} on [-{demo.WITNESS_WINDOW},{demo.WITNESS_WINDOW}]"
    report(4, ok, f"{cells} in {elapsed:.1f}s")


def test_criterion_5_pairmap_boundary():
    outcome, elapsed = timed(demo.criterion_5)
    d = outcome.details
    found = d.get("(5,5)", {})
    ok = (
        outcome.passed
        and d["(5,4)"]["outcome"] == "none"
        and d["(5,3)"]["outcome"] == "none"
        and elapsed <= 300.0
        and found.get("outcome") == "found"
        and found["valid"]
        and all(c is not None for c in found["common_points"])
    )
    report(
        5,
        ok,
        f"(5,4) none in {d['(5,4)']['nodes']} nodes; (5,3) none in {d['(5,3)']['nodes']} "
        f"nodes; (5,5) witness with pivots {found.get('common_points')}; {elapsed:.1f}s",
    )


def test_criterion_6_solver_soundness():
    outcome = demo.criterion_6(seed=0)
    agree, total = outcome.details["agree"], outcome.details["total"]
    ok = outcome.passed and agree == total == 200
    report(6, ok, f"{agree}/{total} instances agree")


def test_criterion_7_determinism_across_hash_seeds():
    outcome = demo.criterion_7()
    d = outcome.details
    ok = outcome.passed and d["cells"] == 25 and d["hash_seeds"] == [0, 1]
    ok = ok and not d["differing"] and not d["failed"]
    report(7, ok, f"{d['cells']} reports byte-compared under hash seeds {d['hash_seeds']}")


def test_criterion_7_fails_when_a_child_interpreter_fails(tmp_path, monkeypatch):
    fake = tmp_path / "python"
    fake.write_text("#!/bin/sh\necho 'first line' >&2\necho 'ImportError: no packidx' >&2\nexit 3\n")
    fake.chmod(0o755)
    monkeypatch.setattr(demo.sys, "executable", str(fake))
    outcome = demo.criterion_7()
    assert not outcome.passed
    assert outcome.details["failed"] == {
        seed: {"exit": 3, "stderr": "ImportError: no packidx"} for seed in (0, 1)
    }
    assert outcome.details["differing"] == []
