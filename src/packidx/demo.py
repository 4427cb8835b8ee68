"""The full acceptance matrix behind ``pack demo``.

Each criterion is one function returning a structured outcome; the demo
report aggregates them and the exit code reflects the overall verdict.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import bsets, witness as witness_mod
from .clique import exhaustive_max_clique_size
from .groups import Window, enumerate_window, parse_group
from .obstruction import exhaustive_no_index_check
from .packing import (
    ElementSet,
    compatibility_graph,
    max_clique_in_bset,
    max_packing_family,
)
from .pairmap import common_point, search_pairmap, validate_pairmap
from .reports import Report
from .runners import RunConfig, run_bset, run_pairmap, run_witness

ATTAINABILITY_CELLS = (
    [("Z", k) for k in range(2, 10)]
    + [("Z_5^w", 4), ("Z_3^w", 4)]
    + [("Prufer(2)", 5), ("Prufer(2)", 6), ("Z_3^w", 5), ("Z_3^w", 6)]
)

OBSTRUCTION_K3_GROUPS = ["Z_3^2"]
OBSTRUCTION_K4_GROUPS = ["Z_2^4", "Z_4 + Z_2", "Z_4 + Z_2^2"]

WITNESS_KAPPAS = range(2, 10)
WITNESS_WINDOW = 200

SOLVER_INSTANCES = 200

_INSTANCE_POOL = [
    ("Z", {"bound": None}),  # bound drawn per instance
    ("Z_12", {}),
    ("Z_17", {}),
    ("Z_5 + Z_3", {}),
    ("Z_2^w", {"repeated_m": 4}),
    ("Prufer(2)", {"prufer_level": 4}),
    ("Z_4 + Z_4", {}),
    ("Z_2 + Z_3", {}),
]


@dataclass
class CriterionOutcome:
    cid: int
    description: str
    passed: bool
    details: dict


def solver_instances(seed: int, count: int = SOLVER_INSTANCES):
    """Deterministic random (set, window) instances with <= 18 vertices."""
    rng = random.Random(seed)
    for _ in range(count):
        text, kwargs = _INSTANCE_POOL[rng.randrange(len(_INSTANCE_POOL))]
        group = parse_group(text)
        kw = dict(kwargs)
        if kw.get("bound", 0) is None:
            kw["bound"] = rng.randint(2, 8)
        window = Window.for_group(group, **kw)
        vertices = list(enumerate_window(window))
        size = rng.randint(1, 6)
        A = ElementSet.of(group, rng.sample(vertices, min(size, len(vertices))))
        yield A, window, vertices


def criterion_1() -> CriterionOutcome:
    reports = {}
    ok = True
    for text in OBSTRUCTION_K3_GROUPS:
        sweep = exhaustive_no_index_check(parse_group(text), 3)
        reports[text] = {
            "subsets": sweep.subsets_examined,
            "families_found": sweep.families_found,
            "extensions_certified": sweep.extensions_certified,
            "violations": len(sweep.violations),
        }
        ok &= not sweep.violations
        ok &= sweep.extensions_certified >= sweep.families_found
    return CriterionOutcome(
        1, "exceptional family kappa=3: exhaustive sweep, zero violations", ok, reports
    )


def criterion_2() -> CriterionOutcome:
    reports = {}
    ok = True
    for text in OBSTRUCTION_K4_GROUPS:
        sweep = exhaustive_no_index_check(parse_group(text), 4)
        reports[text] = {
            "subsets": sweep.subsets_examined,
            "families_found": sweep.families_found,
            "extensions_certified": sweep.extensions_certified,
            "case_counts": dict(sweep.case_counts),
            "violations": len(sweep.violations),
        }
        ok &= not sweep.violations
    return CriterionOutcome(
        2, "exceptional family kappa=4: exhaustive sweeps, zero violations", ok, reports
    )


def criterion_3() -> CriterionOutcome:
    cells = {}
    ok = True
    for text, kappa in ATTAINABILITY_CELLS:
        built = bsets.build_bset(parse_group(text), kappa)
        witness = bsets.check_property_1(built)
        prop2 = bsets.check_property_2(built)
        clique = max_clique_in_bset(built.elements)
        cell_ok = len(witness) == kappa - 1 and prop2 and clique.size == kappa - 1
        cells[f"{text} k={kappa}"] = {
            "provenance": built.provenance,
            "witness_size": len(witness),
            "max_clique": clique.size,
            "property_2": prop2,
        }
        ok &= cell_ok
    return CriterionOutcome(
        3, "attainability matrix: property checks are exact", ok, cells
    )


def criterion_4() -> CriterionOutcome:
    cells = {}
    ok = True
    group = parse_group("Z")
    for kappa in WITNESS_KAPPAS:
        built = bsets.build_bset(group, kappa)
        w = witness_mod.build_witness(built, Window.for_group(group, WITNESS_WINDOW))
        inv = witness_mod.verify_witness(w)
        idx = witness_mod.max_family(w).size + 1 if inv.all_hold else None
        cells[f"k={kappa}"] = {
            "set_size": len(w.elements),
            "i1": inv.i1_holds,
            "i2": inv.i2_holds,
            "windowed_sharp_index": idx,
        }
        ok &= inv.all_hold and idx == kappa
    return CriterionOutcome(
        4, "greedy witnesses on [-200,200] hit their index exactly", ok, cells
    )


def criterion_5() -> CriterionOutcome:
    details = {}
    none_54, n54 = search_pairmap(5, 4)
    none_53, n53 = search_pairmap(5, 3)
    found_55, n55 = search_pairmap(5, 5)
    details["(5,4)"] = {"outcome": "none" if none_54 is None else "found", "nodes": n54}
    details["(5,3)"] = {"outcome": "none" if none_53 is None else "found", "nodes": n53}
    ok = none_54 is None and none_53 is None and found_55 is not None
    if found_55 is not None:
        validation = validate_pairmap(found_55)
        commons = [common_point(found_55, a0) for a0 in range(5)]
        details["(5,5)"] = {
            "outcome": "found",
            "nodes": n55,
            "valid": validation.valid,
            "common_points": commons,
        }
        ok &= validation.valid and all(c is not None for c in commons)
    return CriterionOutcome(
        5, "pair-map boundary: none at (5,4),(5,3); witness at (5,5)", ok, details
    )


def criterion_6(seed: int) -> CriterionOutcome:
    agree = 0
    total = 0
    mismatches = []
    for A, window, vertices in solver_instances(seed):
        total += 1
        solver_size = max_packing_family(A, window).size
        oracle_size = exhaustive_max_clique_size(compatibility_graph(A, vertices))
        if solver_size == oracle_size:
            agree += 1
        elif len(mismatches) < 5:
            mismatches.append(
                {"set": A.to_texts(), "solver": solver_size, "oracle": oracle_size}
            )
    return CriterionOutcome(
        6,
        "solver equals the exhaustive-subset oracle on seeded instances",
        agree == total,
        {"agree": agree, "total": total, "mismatches": mismatches},
    )


def deterministic_cells(threads: int) -> list[str]:
    """Report bytes of criterion 7's cells, run with ``RunConfig.threads`` set."""
    payloads = []
    for text, kappa in ATTAINABILITY_CELLS:
        cfg = RunConfig(command="bset", group=text, kappa=kappa, check=True, threads=threads)
        payloads.append(run_bset(cfg).to_json())
    for kappa in WITNESS_KAPPAS:
        cfg = RunConfig(
            command="witness",
            group="Z",
            kappa=kappa,
            window=WITNESS_WINDOW,
            verify=True,
            threads=threads,
        )
        payloads.append(run_witness(cfg).to_json())
    for a, b in [(5, 4), (5, 3), (5, 5)]:
        cfg = RunConfig(command="pairmap", a=a, b=b, threads=threads)
        payloads.append(run_pairmap(cfg).to_json())
    return payloads


def criterion_7() -> CriterionOutcome:
    one = deterministic_cells(threads=1)
    eight = deterministic_cells(threads=8)
    diffs = [i for i, (x, y) in enumerate(zip(one, eight)) if x != y]
    return CriterionOutcome(
        7,
        "byte-identical reports across thread counts 1 and 8",
        len(one) == len(eight) and not diffs,
        {"cells": len(one), "differing": diffs},
    )


def run_demo_matrix(seed: int = 0, only: int | None = None) -> Report:
    runners = {
        1: criterion_1,
        2: criterion_2,
        3: criterion_3,
        4: criterion_4,
        5: criterion_5,
        6: lambda: criterion_6(seed),
        7: criterion_7,
    }
    picked = [only] if only else sorted(runners)
    outcomes = [runners[cid]() for cid in picked]
    results = {
        "criteria": [
            {
                "id": o.cid,
                "description": o.description,
                "passed": o.passed,
                "details": o.details,
            }
            for o in outcomes
        ]
    }
    summary = [
        {
            "check": f"criterion_{o.cid}",
            "status": "pass" if o.passed else "fail",
            "detail": o.description,
        }
        for o in outcomes
    ]
    return Report(
        command="demo",
        config={"seed": seed, "only": only},
        results=results,
        summary=summary,
        timing={"criteria": len(outcomes)},
    )
