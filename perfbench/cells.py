"""The three workloads: their cells, their seeded inputs and their verdicts.

A cell is one unit of work with a verdict. Most cells run one ``pack``
subcommand through ``packidx.runners`` and return the report bytes, whose
sha256 is compared with a pinned digest; oracle cells return no report.

Every call goes through a module attribute (``px.runners.run_witness``), so
the tracer's patches see it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

WITNESS_KAPPAS = range(2, 10)
# Criterion 4 uses window 200. There, on a shared 2-vCPU host, a pass takes
# about 20 s, so a run holds one pass; such runs spread by a quarter of their
# median.
WITNESS_WINDOW = 100

EXHAUSTIVE_SWEEPS = [("Z_3^2", 3), ("Z_2^4", 4), ("Z_4 + Z_2", 4), ("Z_4 + Z_2^2", 4)]
SAMPLED_SWEEPS = [("Z_3^3", 3, 2000), ("Z_2^5", 4, 2000)]
SWEEP_THREADS = 2
# The largest exhaustive sweep (tied with Z_2^4 at 65535 subsets); the traced
# run also times it on one thread, for obstruction.speedup_2w.
LARGEST_SWEEP = "Z_4 + Z_2^2"
PAIRMAP_CELLS = [(5, 3), (5, 4), (5, 5), (6, 5), (7, 6), (7, 7), (8, 6)]

ATTAINABILITY_CELLS = (
    [("Z", k) for k in range(2, 10)]
    + [("Z_5^w", 4), ("Z_3^w", 4)]
    + [("Prufer(2)", 5), ("Prufer(2)", 6), ("Z_3^w", 5), ("Z_3^w", 6)]
)

# Windows of at most 100 vertices where the clique search dominates. The
# base sets are drawn once, from CATALOG_SEED; the workload seed translates
# each by a random element. A translate has the same difference set, so the
# same compatibility graph and the same search: only the input bytes change.
# Random sets, or random automorphic images of fixed ones, vary the search
# from a few hundred to several hundred thousand nodes per instance, which
# would make a pass's time depend on the seed far beyond any useful bound.
INDEX_POOL = [
    ("Z_7 + Z_7", {}),
    ("Z_8 + Z_8", {}),
    ("Z_10 + Z_10", {}),
    ("Z_4 + Z_4 + Z_4", {}),
    ("Z_3^w", {"m": 4}),
    ("Z_2^w", {"m": 6}),
    ("Prufer(2)", {"level": 6}),
    ("Z", {"window": 40}),
]
INDEX_SET_SIZES = range(3, 7)
CATALOG_SEED = 0

# Windows of at most 17 vertices, where the subset-DP oracle is affordable.
# The oracle's work depends only on the vertex count, so seeded sets keep a
# pass's time steady.
ORACLE_POOL = [
    ("Z", {"window": 8}),
    ("Z_12", {}),
    ("Z_17", {}),
    ("Z_5 + Z_3", {}),
    ("Z_2^w", {"m": 4}),
    ("Prufer(2)", {"level": 4}),
    ("Z_4 + Z_4", {}),
    ("Z_2 + Z_3", {}),
]
ORACLE_SET_SIZES = range(1, 7)


@dataclass
class Outcome:
    text: str | None  # report bytes, or None for a cell without a report
    ok: bool
    detail: str = ""


@dataclass
class Cell:
    id: str
    run: Callable[[], Outcome]
    seeded: bool = False  # report bytes depend on the workload seed
    # for the largest sweep: rerun it at a given thread count
    probe: Callable[[int], Outcome] | None = None


def _window(px, group, opts: dict):
    return px.groups.Window.for_group(
        group, bound=opts.get("window"), repeated_m=opts.get("m", 4), prufer_level=opts.get("level", 4)
    )


def _summary_ok(report) -> bool:
    return report.passed and bool(report.summary)


# -- witness -------------------------------------------------------------------


def witness_cells(px, seed: int, workdir: Path, pins: dict) -> list[Cell]:
    """Criterion-4 witnesses, at a smaller window; nothing in them is random,
    so the seed is unused."""

    def cell(kappa):
        def run():
            cfg = px.runners.RunConfig(
                command="witness", group="Z", kappa=kappa, window=WITNESS_WINDOW, verify=True
            )
            report = px.runners.run_witness(cfg)
            text = report.to_json()
            inv = report.results.get("invariants", {})
            ok = (
                _summary_ok(report)
                and inv.get("i1", {}).get("holds") is True
                and inv.get("i2", {}).get("holds") is True
                and report.results.get("windowed_sharp_index") == kappa
            )
            return Outcome(text, ok, f"index {report.results.get('windowed_sharp_index')}")

        return Cell(f"witness/k{kappa}", run)

    return [cell(k) for k in WITNESS_KAPPAS]


# -- sweep ---------------------------------------------------------------------


def sweep_cells(px, seed: int, workdir: Path, pins: dict) -> list[Cell]:
    def obstruct(text, kappa, sample=None):
        subsets = None if sample else (1 << px.groups.parse_group(text).cardinality) - 1

        def run(threads=SWEEP_THREADS):
            cfg = px.runners.RunConfig(
                command="obstruct", group=text, kappa=kappa, sample=sample, seed=seed if sample else 0, threads=threads
            )
            report = px.runners.run_obstruct(cfg)
            out = report.to_json()
            res = report.results
            examined = res.get("subsets_examined", 0)
            ok = (
                _summary_ok(report)
                and res.get("violations") == []
                and (examined == subsets if subsets else 0 < examined <= sample)
            )
            return Outcome(out, ok, f"{len(res.get('violations', []))} violations")

        if sample:
            return Cell(f"sweep/obstruct/{text}/k{kappa}/sample{sample}", run, seeded=True)
        probe = run if text == LARGEST_SWEEP else None
        return Cell(f"sweep/obstruct/{text}/k{kappa}/exhaustive", run, probe=probe)

    def pairmap(a, b):
        def run():
            report = px.runners.run_pairmap(px.runners.RunConfig(command="pairmap", a=a, b=b))
            text = report.to_json()
            want = "none" if (b < a and a >= 5) else "found"
            ok = _summary_ok(report) and report.results.get("outcome") == want
            if want == "found":
                found = report.results.get("witness", {})
                ok = ok and found.get("separately_injective") is True and found.get("preserves_intersections") is True
            return Outcome(text, ok, report.results.get("outcome", ""))

        return Cell(f"sweep/pairmap/{a},{b}", run)

    return (
        [obstruct(t, k) for t, k in EXHAUSTIVE_SWEEPS]
        + [obstruct(t, k, s) for t, k, s in SAMPLED_SWEEPS]
        + [pairmap(a, b) for a, b in PAIRMAP_CELLS]
    )


# -- solve ---------------------------------------------------------------------


def index_catalog(px) -> list[tuple[dict, list]]:
    """The fixed base sets: (window options, elements)."""
    rng = random.Random(CATALOG_SEED)
    out = []
    for text, opts in INDEX_POOL:
        group = px.groups.parse_group(text)
        vertices = list(px.groups.enumerate_window(_window(px, group, opts)))
        for size in INDEX_SET_SIZES:
            out.append((opts, rng.sample(vertices, size)))
    return out


def solve_cells(px, seed: int, workdir: Path, pins: dict) -> list[Cell]:
    rng = random.Random(seed)
    cells = []

    def bset(text, kappa):
        def run():
            cfg = px.runners.RunConfig(command="bset", group=text, kappa=kappa, check=True)
            report = px.runners.run_bset(cfg)
            out = report.to_json()
            checks = report.results.get("checks", {})
            ok = _summary_ok(report) and all(checks.get(p, {}).get("holds") is True for p in ("property_1", "property_2"))
            return Outcome(out, ok, report.results.get("provenance", ""))

        return Cell(f"solve/bset/{text}/k{kappa}", run)

    cells += [bset(t, k) for t, k in ATTAINABILITY_CELLS]

    sizes = pins.get("index_sizes", {})
    for i, (opts, base) in enumerate(index_catalog(px)):
        group = base[0].group
        window = _window(px, group, opts)
        shift = rng.choice(list(px.groups.enumerate_window(window)))
        A = px.packing.ElementSet.of(group, [shift + a for a in base])
        path = workdir / f"index-{i:02d}.json"
        px.packing.write_set_file(path, A)
        cid = f"solve/index/{i:02d}"

        def run(path=path, opts=opts, cid=cid):
            cfg = px.runners.RunConfig(
                command="index",
                set_path=str(path),
                window=opts.get("window"),
                m=opts.get("m", 4),
                level=opts.get("level", 4),
            )
            report = px.runners.run_index(cfg)
            out = report.to_json()
            fam = report.results.get("family", {})
            # translation keeps the index, so the pinned size holds for every seed
            ok = _summary_ok(report) and fam.get("certified") is True
            if sizes:  # empty only while pinning
                ok = ok and report.results.get("windowed_sharp_index") == sizes.get(cid)
            return Outcome(out, ok, f"index {report.results.get('windowed_sharp_index')}")

        cells.append(Cell(cid, run, seeded=True))

    for text, opts in ORACLE_POOL:
        group = px.groups.parse_group(text)
        window = _window(px, group, opts)
        vertices = list(px.groups.enumerate_window(window))
        for size in ORACLE_SET_SIZES:
            A = px.packing.ElementSet.of(group, rng.sample(vertices, size))

            def run(A=A, window=window, vertices=vertices):
                family = px.packing.max_packing_family(A, window)
                oracle = px.clique.exhaustive_max_clique_size(px.packing.compatibility_graph(A, vertices))
                ok = family.certified and family.size == oracle
                return Outcome(None, ok, f"solver {family.size} oracle {oracle}")

            cells.append(Cell(f"solve/oracle/{text}/n{size}", run, seeded=True))
    return cells


WORKLOADS = {"witness": witness_cells, "sweep": sweep_cells, "solve": solve_cells}

# A small subset of each workload's cells, for the self-test.
TINY = {
    "witness": ["witness/k2", "witness/k3"],
    "sweep": [
        "sweep/obstruct/Z_3^2/k3/exhaustive",
        "sweep/obstruct/Z_4 + Z_2/k4/exhaustive",
        "sweep/obstruct/Z_4 + Z_2^2/k4/exhaustive",
        "sweep/pairmap/5,3",
        "sweep/pairmap/5,5",
    ],
    "solve": [
        "solve/bset/Z/k3",
        "solve/bset/Z_3^w/k5",
        "solve/index/00",
        "solve/index/12",
        "solve/oracle/Z_12/n3",
        "solve/oracle/Z_2 + Z_3/n2",
    ],
}
