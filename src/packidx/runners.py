"""Subcommand implementations: configs in, reports out.

Each runner is a pure function of its RunConfig (seed included), so repeated
runs produce byte-identical reports; domain errors become error payloads with
a failing summary row rather than tracebacks.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import bsets, obstruction, pairmap as pairmap_mod, witness as witness_mod
from .errors import (
    ElementSyntaxError,
    GroupSyntaxError,
    PackError,
    SearchBudgetExceededError,
    WindowTooLargeError,
)
from .groups import Window, parse_group
from .packing import DEFAULT_MAX_VERTICES, max_packing_family, read_set_file
from .reports import Report


@dataclass
class RunConfig:
    """Flags of one CLI invocation. ``fmt`` and ``out`` steer delivery only
    and never appear in report bytes; ``threads`` is accepted and read by
    nothing, since every runner is serial."""

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
    threads: int = 1
    fmt: str = "json"
    out: str | None = None

    def echo_config(self) -> dict:
        keys = {
            "bset": ["group", "kappa", "m", "level", "check"],
            "witness": ["group", "kappa", "window", "m", "level", "verify"],
            "index": ["set", "window", "m", "level"],
            "obstruct": ["group", "kappa", "sample", "seed"],
            "pairmap": ["a", "b", "budget"],
            "demo": ["seed"],
        }[self.command]
        values = {
            "group": self.group,
            "kappa": self.kappa,
            "window": self.window,
            "m": self.m,
            "level": self.level,
            "set": self.set_path,
            "a": self.a,
            "b": self.b,
            "budget": self.budget,
            "sample": self.sample,
            "seed": self.seed,
            "check": self.check,
            "verify": self.verify,
        }
        return {k: values[k] for k in keys}


def _error_report(cfg: RunConfig, exc: PackError) -> Report:
    # syntax problems are usage errors (exit 2), not report payloads
    if isinstance(exc, (GroupSyntaxError, ElementSyntaxError)):
        raise exc
    # a search stopped by its budget says how far it got
    timing = {}
    if isinstance(exc, SearchBudgetExceededError):
        timing = {"nodes_visited": exc.nodes, "depth": exc.depth}
    return Report(
        command=cfg.command,
        config=cfg.echo_config(),
        results={"error": {"type": exc.kind, "message": str(exc)}},
        summary=[{"check": cfg.command, "status": "fail", "detail": exc.kind}],
        timing=timing,
    )


def run_bset(cfg: RunConfig) -> Report:
    config = cfg.echo_config()
    try:
        group = parse_group(cfg.group)
        built = bsets.build_bset(group, cfg.kappa)
        results = {
            "group": str(group),
            "kappa": cfg.kappa,
            "provenance": built.provenance,
            "elements": built.elements.to_texts(),
        }
        summary = [{"check": "build", "status": "pass", "detail": built.provenance}]
        if cfg.check:
            checked = bsets.run_checks(built)
            checks = {}
            for name, ok, detail in checked.check_results:
                checks[name] = {"holds": ok, "detail": detail}
                summary.append(
                    {"check": name, "status": "pass" if ok else "fail", "detail": str(detail)}
                )
            results["checks"] = checks
        return Report(
            command="bset",
            config=config,
            results=results,
            summary=summary,
            timing={"bset_size": len(built.elements)},
        )
    except PackError as exc:
        return _error_report(cfg, exc)


def run_witness(cfg: RunConfig) -> Report:
    config = cfg.echo_config()
    try:
        group = parse_group(cfg.group)
        built = bsets.build_bset(group, cfg.kappa)
        window = Window.for_group(
            group, bound=cfg.window, repeated_m=cfg.m, prufer_level=cfg.level
        )
        # the index solve would refuse this window; say so before building
        if cfg.verify and window.size() > DEFAULT_MAX_VERTICES:
            raise WindowTooLargeError(window.size(), DEFAULT_MAX_VERTICES)
        w = witness_mod.build_witness(built, window)
        results = {
            "group": str(group),
            "kappa": cfg.kappa,
            "window_size": window.size(),
            "bset": built.elements.to_texts(),
            "elements": w.elements.to_texts(),
            "trace": [
                {"g": str(s.g), "a": str(s.a), "forbidden": s.forbidden_size}
                for s in w.trace
            ],
        }
        summary = [
            {"check": "build", "status": "pass", "detail": f"{len(w.elements)} points"}
        ]
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
            summary.append(
                {"check": "i1", "status": "pass" if report.i1_holds else "fail", "detail": ""}
            )
            summary.append(
                {"check": "i2", "status": "pass" if report.i2_holds else "fail", "detail": ""}
            )
            if report.all_hold:
                idx = witness_mod.max_family(w).size + 1
                results["windowed_sharp_index"] = idx
                summary.append(
                    {
                        "check": "windowed_sharp_index",
                        "status": "pass" if idx == cfg.kappa else "fail",
                        "detail": str(idx),
                    }
                )
        return Report(
            command="witness",
            config=config,
            results=results,
            summary=summary,
            timing={"trace_steps": len(w.trace), "set_size": len(w.elements)},
        )
    except PackError as exc:
        return _error_report(cfg, exc)


def run_index(cfg: RunConfig) -> Report:
    config = cfg.echo_config()
    try:
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
        return Report(
            command="index",
            config=config,
            results=results,
            summary=[
                {
                    "check": "family_certified",
                    "status": "pass" if family.certified else "fail",
                    "detail": str(family.size),
                }
            ],
            timing={"window_vertices": window.size()},
        )
    except PackError as exc:
        return _error_report(cfg, exc)


def run_obstruct(cfg: RunConfig) -> Report:
    config = cfg.echo_config()
    try:
        group = parse_group(cfg.group)
        sweep = obstruction.exhaustive_no_index_check(
            group, cfg.kappa, sample=cfg.sample, seed=cfg.seed
        )
        results = {
            "group": sweep.group,
            "kappa": sweep.kappa,
            "mode": sweep.mode,
            "seed": sweep.seed,
            "subsets_examined": sweep.subsets_examined,
            "families_found": sweep.families_found,
            "extensions_certified": sweep.extensions_certified,
            "no_family": sweep.no_family,
            "case_counts": dict(sweep.case_counts),
            "cross_checks": sweep.cross_checks,
            "violations": list(sweep.violations),
        }
        ok = not sweep.violations
        return Report(
            command="obstruct",
            config=config,
            results=results,
            summary=[
                {
                    "check": "no_violations",
                    "status": "pass" if ok else "fail",
                    "detail": f"{len(sweep.violations)} violations",
                }
            ],
            timing={
                "subsets_examined": sweep.subsets_examined,
                "cross_checks": sweep.cross_checks,
            },
        )
    except PackError as exc:
        return _error_report(cfg, exc)


def run_pairmap(cfg: RunConfig) -> Report:
    config = cfg.echo_config()
    try:
        budget = pairmap_mod.DEFAULT_NODE_BUDGET if cfg.budget is None else cfg.budget
        found, nodes = pairmap_mod.search_pairmap(cfg.a, cfg.b, node_budget=budget)
        results: dict = {
            "a": cfg.a,
            "b": cfg.b,
            "outcome": "found" if found else "none",
            "nodes_visited": nodes,
        }
        summary = [
            {
                "check": "search_complete",
                "status": "pass",
                "detail": results["outcome"],
            }
        ]
        if found:
            validation = pairmap_mod.validate_pairmap(found)
            results["witness"] = {
                "table": [
                    {"pair": list(p), "image": list(img)}
                    for p, img in zip(
                        pairmap_mod.domain_pairs(cfg.a), found.table
                    )
                ],
                "separately_injective": validation.separately_injective,
                "preserves_intersections": validation.preserves_intersections,
                "common_points": [
                    pairmap_mod.common_point(found, a0) for a0 in range(cfg.a)
                ],
            }
            summary.append(
                {
                    "check": "witness_valid",
                    "status": "pass" if validation.valid else "fail",
                    "detail": "",
                }
            )
        return Report(
            command="pairmap",
            config=config,
            results=results,
            summary=summary,
            timing={"nodes_visited": nodes},
        )
    except PackError as exc:
        return _error_report(cfg, exc)
