"""Acceptance matrix: every criterion at its stated tolerance.

Each test prints one `ACCEPTANCE <n>: PASS/FAIL` line; run with `pytest -s`
(or read captured output) to see the roll-up. `pack demo` drives the same
matrix from the command line.
"""

import time

from packidx.bsets import build_bset, check_property_1, check_property_2
from packidx.clique import exhaustive_max_clique_size
from packidx.demo import (
    ATTAINABILITY_CELLS,
    OBSTRUCTION_K3_GROUPS,
    OBSTRUCTION_K4_GROUPS,
    WITNESS_KAPPAS,
    WITNESS_WINDOW,
    deterministic_cells,
    solver_instances,
)
from packidx.groups import Window, parse_group
from packidx.obstruction import exhaustive_no_index_check
from packidx.packing import (
    compatibility_graph,
    max_clique_in_bset,
    max_packing_family,
)
from packidx.pairmap import common_point, search_pairmap, validate_pairmap
from packidx.witness import build_witness, verify_witness, windowed_sharp_index

Z = parse_group("Z")

# every nonempty subset of each swept group
SWEEP_SUBSETS = {"Z_3^2": 511, "Z_2^4": 65535, "Z_4 + Z_2": 255, "Z_4 + Z_2^2": 65535}


def report(cid: int, ok: bool, detail: str = ""):
    print(f"ACCEPTANCE {cid}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"criterion {cid} failed: {detail}"


def test_criterion_1_exceptional_family_k3():
    started = time.time()
    totals, found, violations = {}, 0, 0
    ok = True
    for text in OBSTRUCTION_K3_GROUPS:
        sweep = exhaustive_no_index_check(parse_group(text), 3)
        totals[text] = sweep.subsets_examined
        found += sweep.families_found
        violations += len(sweep.violations)
        ok &= sweep.subsets_examined == SWEEP_SUBSETS[text] and not sweep.violations
        ok &= sweep.extensions_certified >= sweep.families_found
    elapsed = time.time() - started
    ok &= elapsed <= 10.0
    report(
        1,
        ok,
        f"subsets {totals}, {found} pairs extended, {violations} violations, {elapsed:.1f}s",
    )


def test_criterion_2_exceptional_family_k4():
    started = time.time()
    totals, violations = {}, 0
    ok = True
    for text in OBSTRUCTION_K4_GROUPS:
        sweep = exhaustive_no_index_check(parse_group(text), 4)
        totals[text] = sweep.subsets_examined
        violations += len(sweep.violations)
        ok &= sweep.subsets_examined == SWEEP_SUBSETS[text] and not sweep.violations
        ok &= sweep.extensions_certified >= sweep.families_found
    elapsed = time.time() - started
    ok &= elapsed <= 300.0
    report(2, ok, f"subsets {totals}, {violations} violations, {elapsed:.1f}s")


def test_criterion_3_attainability_matrix():
    ok = True
    worst = 0.0
    for text, kappa in ATTAINABILITY_CELLS:
        started = time.time()
        built = build_bset(parse_group(text), kappa)
        witness = check_property_1(built)
        prop2 = check_property_2(built)
        exact = max_clique_in_bset(built.elements).size
        elapsed = time.time() - started
        worst = max(worst, elapsed)
        cell_ok = (
            len(witness) == kappa - 1 and prop2 and exact == kappa - 1 and elapsed <= 60.0
        )
        if not cell_ok:
            report(3, False, f"cell ({text}, {kappa}): clique {exact}, {elapsed:.1f}s")
        ok &= cell_ok
    report(3, ok, f"{len(ATTAINABILITY_CELLS)} cells, worst cell {worst:.1f}s")


def test_criterion_4_witness_construction():
    ok = True
    worst = 0.0
    for kappa in WITNESS_KAPPAS:
        started = time.time()
        built = build_bset(Z, kappa)
        w = build_witness(built, Window.for_group(Z, WITNESS_WINDOW))
        inv = verify_witness(w)
        idx = windowed_sharp_index(w) if inv.all_hold else None
        elapsed = time.time() - started
        worst = max(worst, elapsed)
        cell_ok = inv.i1_holds and inv.i2_holds and idx == kappa and elapsed <= 60.0
        if not cell_ok:
            report(4, False, f"kappa={kappa}: i1={inv.i1_holds} i2={inv.i2_holds} index={idx}")
        ok &= cell_ok
    cells = f"kappa {WITNESS_KAPPAS[0]}..{WITNESS_KAPPAS[-1]} on [-{WITNESS_WINDOW},{WITNESS_WINDOW}]"
    report(4, ok, f"{cells}, worst cell {worst:.1f}s")


def test_criterion_5_pairmap_boundary():
    started = time.time()
    at_54, n54 = search_pairmap(5, 4)
    t54 = time.time() - started

    started = time.time()
    at_53, n53 = search_pairmap(5, 3)
    t53 = time.time() - started

    found, _ = search_pairmap(5, 5)
    commons = [common_point(found, a0) for a0 in range(5)] if found else []
    ok = (
        at_54 is None
        and at_53 is None
        and t54 <= 300.0
        and t53 <= 300.0
        and found is not None
        and validate_pairmap(found).valid
        and all(c is not None for c in commons)
    )
    report(
        5,
        ok,
        f"(5,4) none in {n54} nodes {t54:.1f}s; (5,3) none in {n53} nodes {t53:.1f}s; "
        f"(5,5) witness with pivots {commons}",
    )


def test_criterion_6_solver_soundness():
    agree = total = 0
    for A, window, vertices in solver_instances(seed=0, count=200):
        total += 1
        solver = max_packing_family(A, window).size
        oracle = exhaustive_max_clique_size(compatibility_graph(A, vertices))
        agree += solver == oracle
    report(6, agree == total == 200, f"{agree}/{total} instances agree")


def test_criterion_7_determinism_across_threads():
    one = deterministic_cells(threads=1)
    eight = deterministic_cells(threads=8)
    same = len(one) == len(eight) and all(x == y for x, y in zip(one, eight))
    report(7, same, f"{len(one)} reports byte-compared")
