"""Subcommand implementations: configs in, reports out.

Each runner is a pure function of its RunConfig (seed included), so repeated
runs produce byte-identical reports. A runner body returns its results,
summary rows and work counters; ``_runner`` turns them into the Report, and
turns a domain error into an error report with a failing summary row rather
than a traceback.
"""

from __future__ import annotations

import functools
from dataclasses import asdict, dataclass

from . import bsets, obstruction, pairmap as pairmap_mod, witness as witness_mod
from .errors import (
    ElementSyntaxError,
    GroupSyntaxError,
    PackError,
    SearchBudgetExceededError,
)
from .groups import Window, parse_group
from .packing import max_packing_family, read_set_file
from .reports import Report, row

# config keys each command echoes: RunConfig attributes, ``set`` being ``set_path``
_ECHOED = {
    "bset": ["group", "kappa", "m", "level", "check"],
    "witness": ["group", "kappa", "window", "m", "level", "verify"],
    "index": ["set", "window", "m", "level"],
    "obstruct": ["group", "kappa", "sample", "seed"],
    "pairmap": ["a", "b", "budget"],
    "demo": ["seed", "only"],
}


@dataclass
class RunConfig:
    """Flags of one CLI invocation that a runner may read. ``threads`` is
    no flag and read by nothing; perfbench's cells still set it."""

    command: str
    group: str | None = None
    kappa: int | None = None
    window: int | None = None
    m: int = 4
    level: int = 4
    set_path: str | None = None
    a: int | None = None
    b: int | None = None
    budget: int | None = None
    sample: int | None = None
    seed: int = 0
    check: bool = False
    verify: bool = False
    only: int | None = None
    threads: int = 1

    def echo_config(self) -> dict:
        return {
            key: getattr(self, "set_path" if key == "set" else key)
            for key in _ECHOED[self.command]
        }


def _runner(body):
    """Make ``body(cfg) -> (results, summary, timing)`` a ``(cfg) -> Report``
    runner: the one place that echoes the config, builds the Report and
    turns a domain error into an error report."""

    @functools.wraps(body)
    def run(cfg: RunConfig) -> Report:
        config = cfg.echo_config()
        try:
            results, summary, timing = body(cfg)
        except PackError as exc:
            # syntax problems are usage errors (exit 2), not report payloads
            if isinstance(exc, (GroupSyntaxError, ElementSyntaxError)):
                raise
            results = {"error": {"type": exc.kind, "message": str(exc)}}
            summary = [row(cfg.command, False, exc.kind)]
            # a search stopped by its budget says how far it got
            timing = {}
            if isinstance(exc, SearchBudgetExceededError):
                timing = {"nodes_visited": exc.nodes, "depth": exc.depth}
        return Report(
            command=cfg.command, config=config, results=results, summary=summary, timing=timing
        )

    return run


@_runner
def run_bset(cfg: RunConfig):
    group = parse_group(cfg.group)
    built = bsets.build_bset(group, cfg.kappa)
    results = {
        "group": str(group),
        "kappa": cfg.kappa,
        "provenance": built.provenance,
        "elements": built.elements.to_texts(),
    }
    summary = [row("build", True, built.provenance)]
    if cfg.check:
        checked = bsets.run_checks(built)
        results["checks"] = {name: {"holds": ok, "detail": detail} for name, ok, detail in checked}
        summary += [row(name, ok, detail) for name, ok, detail in checked]
    return results, summary, {"bset_size": len(built.elements)}


@_runner
def run_witness(cfg: RunConfig):
    group = parse_group(cfg.group)
    built = bsets.build_bset(group, cfg.kappa)
    window = Window.for_group(
        group, bound=cfg.window, repeated_m=cfg.m, prufer_level=cfg.level
    )
    # the index solve would refuse a window past the cap, and the builder
    # lists it whole; size() refuses it before building, with or without --verify
    size = window.size()
    w = witness_mod.build_witness(built, window)
    results = {
        "group": str(group),
        "kappa": cfg.kappa,
        "window_size": size,
        "bset": built.elements.to_texts(),
        "elements": w.elements.to_texts(),
        "trace": [
            {"g": str(s.g), "a": str(s.a), "forbidden": s.forbidden_size}
            for s in w.trace
        ],
    }
    summary = [row("build", True, f"{len(w.elements)} points")]
    if cfg.verify:
        report = witness_mod.verify_witness(w)
        results["invariants"] = {
            "i1": {
                "holds": report.i1_holds,
                "counterexample": (
                    None
                    if report.i1_counterexample is None
                    else [str(x) for x in report.i1_counterexample]
                ),
            },
            "i2": {
                "holds": report.i2_holds,
                "missing": (
                    None if report.i2_missing is None else str(report.i2_missing)
                ),
            },
        }
        summary += [row("i1", report.i1_holds), row("i2", report.i2_holds)]
        if report.all_hold:
            idx = max_packing_family(w.elements, w.window).size + 1
            results["windowed_sharp_index"] = idx
            summary.append(row("windowed_sharp_index", idx == cfg.kappa, idx))
    return results, summary, {"trace_steps": len(w.trace), "set_size": len(w.elements)}


@_runner
def run_index(cfg: RunConfig):
    A = read_set_file(cfg.set_path)
    window = Window.for_group(
        A.group, bound=cfg.window, repeated_m=cfg.m, prufer_level=cfg.level
    )
    family = max_packing_family(A, window)
    results = {
        "group": str(A.group),
        "set": A.to_texts(),
        "window_size": window.size(),
        "family": {
            "size": family.size,
            "shifts": family.shifts.to_texts(),
            "certified": family.certified,
        },
        "windowed_sharp_index": family.size + 1,
    }
    summary = [row("family_certified", family.certified, family.size)]
    return results, summary, {"window_vertices": window.size()}


@_runner
def run_obstruct(cfg: RunConfig):
    group = parse_group(cfg.group)
    sweep = obstruction.exhaustive_no_index_check(
        group, cfg.kappa, sample=cfg.sample, seed=cfg.seed
    )
    # ``sample`` is already in the config echo
    results = asdict(sweep)
    del results["sample"]
    results["case_counts"] = dict(sweep.case_counts)
    results["violations"] = list(sweep.violations)
    summary = [row("no_violations", not sweep.violations, f"{len(sweep.violations)} violations")]
    timing = {"subsets_examined": sweep.subsets_examined, "cross_checks": sweep.cross_checks}
    return results, summary, timing


@_runner
def run_pairmap(cfg: RunConfig):
    budget = pairmap_mod.DEFAULT_NODE_BUDGET if cfg.budget is None else cfg.budget
    found, nodes = pairmap_mod.search_pairmap(cfg.a, cfg.b, node_budget=budget)
    results: dict = {
        "a": cfg.a,
        "b": cfg.b,
        "outcome": "found" if found else "none",
        "nodes_visited": nodes,
    }
    summary = [row("search_complete", True, results["outcome"])]
    if found:
        validation = pairmap_mod.validate_pairmap(found)
        results["witness"] = {
            "table": [
                {"pair": list(p), "image": list(img)}
                for p, img in zip(pairmap_mod.domain_pairs(cfg.a), found.table)
            ],
            "separately_injective": validation.separately_injective,
            "preserves_intersections": validation.preserves_intersections,
            "common_points": [
                pairmap_mod.common_point(found, a0) for a0 in range(cfg.a)
            ],
        }
        summary.append(row("witness_valid", validation.valid))
    return results, summary, {"nodes_visited": nodes}
