"""The full acceptance matrix behind ``pack demo``.

Each criterion is one function returning a structured outcome; the runner
body ``run_demo`` aggregates them into one report, and the exit code
reflects the overall verdict.
Criteria 1-5 read the reports of the ``pack`` runners on their cells, so
each check is made once, by its runner; criterion 6 cross-checks the solver
against the exhaustive oracle and criterion 7 compares report bytes.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from dataclasses import asdict, dataclass

from .clique import exhaustive_max_clique_size
from .groups import Window, enumerate_window, parse_group
from .packing import ElementSet, compatibility_graph, max_packing_family
from .reports import Report, row
from .runners import RunConfig, _runner, run_bset, run_obstruct, run_pairmap, run_witness

ATTAINABILITY_CELLS = (
    [("Z", k) for k in range(2, 10)]
    + [("Z_5^w", 4), ("Z_3^w", 4)]
    + [("Prufer(2)", 5), ("Prufer(2)", 6), ("Z_3^w", 5), ("Z_3^w", 6)]
)

OBSTRUCTION_K3_GROUPS = ["Z_3^2"]
OBSTRUCTION_K4_GROUPS = ["Z_2^4", "Z_4 + Z_2", "Z_4 + Z_2^2"]

WITNESS_KAPPAS = range(2, 10)
WITNESS_WINDOW = 200

PAIRMAP_CELLS = [(5, 4), (5, 3), (5, 5)]

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
    id: int
    description: str
    passed: bool
    details: dict


def solver_instances(seed: int):
    """Deterministic random (set, window) instances with <= 18 vertices."""
    rng = random.Random(seed)
    for _ in range(SOLVER_INSTANCES):
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


def _sweep(text: str, kappa: int) -> tuple[Report, dict]:
    """``pack obstruct`` over every subset of ``text``, and its criterion cell."""
    report = run_obstruct(RunConfig(command="obstruct", group=text, kappa=kappa))
    r = report.results
    cell = {
        "subsets": r["subsets_examined"],
        "families_found": r["families_found"],
        "extensions_certified": r["extensions_certified"],
        "violations": len(r["violations"]),
    }
    return report, cell


def _bset_reports() -> list[Report]:
    """``pack bset --check`` on each attainability cell."""
    return [
        run_bset(RunConfig(command="bset", group=text, kappa=kappa, check=True))
        for text, kappa in ATTAINABILITY_CELLS
    ]


def _witness_reports() -> list[Report]:
    """``pack witness --verify`` on ``Z`` for each kappa."""
    return [
        run_witness(
            RunConfig(command="witness", group="Z", kappa=kappa, window=WITNESS_WINDOW, verify=True)
        )
        for kappa in WITNESS_KAPPAS
    ]


def _pairmap_reports() -> list[Report]:
    """``pack pairmap`` on each boundary cell."""
    return [run_pairmap(RunConfig(command="pairmap", a=a, b=b)) for a, b in PAIRMAP_CELLS]


def criterion_1() -> CriterionOutcome:
    reports = {}
    ok = True
    for text in OBSTRUCTION_K3_GROUPS:
        report, cell = _sweep(text, 3)
        reports[text] = cell
        ok &= report.passed and cell["extensions_certified"] >= cell["families_found"]
    return CriterionOutcome(
        1, "exceptional family kappa=3: exhaustive sweep, zero violations", ok, reports
    )


def criterion_2() -> CriterionOutcome:
    reports = {}
    ok = True
    for text in OBSTRUCTION_K4_GROUPS:
        report, cell = _sweep(text, 4)
        cell["case_counts"] = report.results["case_counts"]
        reports[text] = cell
        ok &= report.passed
    return CriterionOutcome(
        2, "exceptional family kappa=4: exhaustive sweeps, zero violations", ok, reports
    )


def criterion_3() -> CriterionOutcome:
    cells = {}
    ok = True
    for (text, kappa), report in zip(ATTAINABILITY_CELLS, _bset_reports()):
        checks = report.results["checks"]
        witness = checks["property_1"]
        cells[f"{text} k={kappa}"] = {
            "provenance": report.results["provenance"],
            "witness_size": len(witness["detail"]) if witness["holds"] else None,
            "max_clique": checks["property_2"]["detail"],
            "property_2": checks["property_2"]["holds"],
        }
        ok &= report.passed
    return CriterionOutcome(
        3, "attainability matrix: property checks are exact", ok, cells
    )


def criterion_4() -> CriterionOutcome:
    cells = {}
    ok = True
    for kappa, report in zip(WITNESS_KAPPAS, _witness_reports()):
        r = report.results
        cells[f"k={kappa}"] = {
            "set_size": len(r["elements"]),
            "i1": r["invariants"]["i1"]["holds"],
            "i2": r["invariants"]["i2"]["holds"],
            "windowed_sharp_index": r.get("windowed_sharp_index"),
        }
        ok &= report.passed
    return CriterionOutcome(
        4, "greedy witnesses on [-200,200] hit their index exactly", ok, cells
    )


def criterion_5() -> CriterionOutcome:
    details = {}
    ok = True
    for (a, b), report in zip(PAIRMAP_CELLS, _pairmap_reports()):
        r = report.results
        cell = details[f"({a},{b})"] = {"outcome": r["outcome"], "nodes": r["nodes_visited"]}
        # with a >= 5, no map exists once b < a; one does at b = a
        ok &= r["outcome"] == ("found" if b >= a else "none")
        if "witness" in r:
            cell["valid"] = report.passed
            cell["common_points"] = r["witness"]["common_points"]
            ok &= report.passed and None not in cell["common_points"]
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


def deterministic_cells() -> list[str]:
    """Report bytes of criterion 7's cells."""
    reports = _bset_reports() + _witness_reports() + _pairmap_reports()
    return [report.to_json() for report in reports]


def _child_cells(seed: int, failed: dict) -> list[str]:
    """``deterministic_cells()`` of this packidx, in a fresh interpreter under this hash
    seed; a non-zero exit leaves its code and last stderr line in ``failed``."""
    path = [os.path.dirname(os.path.dirname(os.path.abspath(__file__))), os.getenv("PYTHONPATH")]
    env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=os.pathsep.join(filter(None, path)))
    code = "import json, packidx.demo as d; print(json.dumps(d.deterministic_cells()))"
    child = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    if child.returncode:
        failed[seed] = {"exit": child.returncode, "stderr": child.stderr.strip().split("\n")[-1]}
        return []
    return json.loads(child.stdout)


def criterion_7() -> CriterionOutcome:
    here, seeds, failed = deterministic_cells(), [0, 1], {}
    runs = [_child_cells(seed, failed) for seed in seeds]
    diffs = sorted({i for run in runs if run for i, x in enumerate(here) if run[i : i + 1] != [x]})
    return CriterionOutcome(
        7,
        "byte-identical reports in this process and in fresh interpreters under hash seeds 0 and 1",
        all(run == here for run in runs),
        {"cells": len(here), "hash_seeds": seeds, "differing": diffs, "failed": failed},
    )


@_runner
def run_demo(cfg: RunConfig):
    """The criteria, or criterion ``cfg.only`` alone, as one report."""
    criteria = {
        1: criterion_1,
        2: criterion_2,
        3: criterion_3,
        4: criterion_4,
        5: criterion_5,
        6: lambda: criterion_6(cfg.seed),
        7: criterion_7,
    }
    picked = [cfg.only] if cfg.only else sorted(criteria)
    outcomes = [criteria[cid]() for cid in picked]
    summary = [row(f"criterion_{o.id}", o.passed, o.description) for o in outcomes]
    return {"criteria": [asdict(o) for o in outcomes]}, summary, {"criteria": len(outcomes)}
