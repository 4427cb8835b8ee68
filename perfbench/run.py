"""packidx benchmark: times seeded workloads end to end, or layer by layer.

    python3 perfbench/run.py --workload witness|sweep|solve --seed N \\
        --seconds S --trace 0|1

Run it from the repository root. It imports packidx from ``src/`` and drives
it in-process through ``packidx.runners`` and ``Report.to_json``.

--trace 0  repeats rounds of a set-up and a pass over the workload's cells,
           at least one, while the next round should end within --seconds.
           setup_s is the median set-up, wall_s and cpu_s add up each cell's
           median over the passes, all in reference seconds (see pace());
           peak_rss_mb and pass_ratio cover the whole run.
--trace 1  sets up once, then makes one untraced pass, one pass under spans,
           one pass under counters and, on sweep, the one- versus two-thread
           timing of the largest sweep; it prints the per-layer metrics and
           writes the spans to perfbench/_run/<workload>/spans-seed<N>.jsonl.

Every cell's verdict is checked, and each report's sha256 is compared with
the digest pinned in digests.json (for seed-dependent cells, only at the
pinned seed) and with the same cell's bytes in every other pass. The last
line of stdout is one JSON object: correct, attempted, failed and metrics.
The exit code is 0 only when every cell passed. ``--pin`` rewrites
digests.json from the current code, and ``--tiny`` runs the small cell subset
that selftest.py uses.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUN_DIR = HERE.relative_to(ROOT) / "_run"  # relative: set-file paths appear in report bytes
sys.path.insert(0, str(HERE))

import cells as cellmod  # noqa: E402
import metrics as metricmod  # noqa: E402
from tracing import Counter, Patches, Tracer, duration, self_times  # noqa: E402

PIN_SEED = 0
MODULES = ["groups", "clique", "packing", "bsets", "witness", "obstruction", "pairmap", "reports", "runners"]


class BenchError(Exception):
    """The benchmark cannot run here; nothing is measured."""


def load_packidx() -> SimpleNamespace:
    """Import packidx afresh from this checkout's src/."""
    if not (SRC / "packidx" / "__init__.py").is_file():
        raise BenchError(f"no packidx sources under {SRC}")
    for name in [m for m in sys.modules if m == "packidx" or m.startswith("packidx.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("packidx")
    if not Path(pkg.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"packidx was imported from {pkg.__file__}, not from {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"packidx.{m}") for m in MODULES})


def cpu_seconds() -> float:
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


# Reference seconds. A shared host's speed drifts by up to 2x for tens of
# seconds at a time, and that drift moves every Python loop alike: on a
# 2-vCPU host, raw cell times spread 0.5-1.2 s while their ratio to an
# adjacent reference sample stayed within a few percent. So each time is
# measured against reference_work() timed right before and right after it,
# and reported as REF_SECONDS times that ratio: the seconds it would take on
# a host where one reference sample takes REF_SECONDS.
REF_SECONDS = 0.004
REF_REPS = 5  # samples per pace reading; the reading is their median
PACE_EVERY = 0.25  # seconds of cell work between pace readings


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int):
        self.a = a
        self.b = b


def reference_work() -> int:
    """Fixed interpreter work of the kind packidx does (small objects,
    tuples, dict and set operations); nothing in packidx affects it."""
    counts: dict[tuple[int, int], int] = {}
    acc = 0
    for i in range(3000):
        p = _Pair(i % 97, (i * 7) % 101)
        key = (p.a, p.b)
        counts[key] = counts.get(key, 0) + 1
        acc ^= hash(key) & 0xFF
    return acc + len(set(counts))


def pace() -> tuple[float, float]:
    """The host's current speed: median wall and CPU seconds of reference_work()."""
    walls, cpus = [], []
    for _ in range(REF_REPS):
        w0, c0 = perf_counter(), time.process_time()
        reference_work()
        walls.append(perf_counter() - w0)
        cpus.append(time.process_time() - c0)
    return statistics.median(walls), statistics.median(cpus)


def in_reference_seconds(wall: float, cpu: float, before: tuple[float, float], after: tuple[float, float]):
    """Wall and CPU seconds scaled by the pace read just before and just after them."""
    return (
        wall * 2 * REF_SECONDS / (before[0] + after[0]),
        cpu * 2 * REF_SECONDS / (before[1] + after[1]),
    )


class Checker:
    """Counts cells attempted and failed: a verdict, a pinned digest or a
    byte change between passes of one run fails the cell."""

    def __init__(self, pins: dict, seed: int):
        self.pinned = pins.get("reports", {})
        self.at_pin_seed = seed == pins.get("seed", PIN_SEED)
        self.first: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0

    def check(self, cell, outcome) -> None:
        self.attempted += 1
        problems = []
        if outcome is None:
            problems.append("raised")
        else:
            if not outcome.ok:
                problems.append(f"verdict failed ({outcome.detail})")
            if outcome.text is not None:
                digest = hashlib.sha256(outcome.text.encode()).hexdigest()
                if not cell.seeded or self.at_pin_seed:
                    if cell.id not in self.pinned:
                        problems.append("no pinned digest")
                    elif digest != self.pinned[cell.id]:
                        problems.append("digest differs from the pinned one")
                if self.first.setdefault(cell.id, digest) != digest:
                    problems.append("bytes differ from an earlier pass")
        if problems:
            self.failed += 1
            print(f"FAIL {cell.id}: {'; '.join(problems)}", file=sys.stderr)


def attempt(fn, *args):
    """Call fn; one that raises yields None, which counts as a failure."""
    try:
        return fn(*args)
    except Exception:
        traceback.print_exc()
        return None


def run_pass(cells, checker: Checker, call=None) -> tuple[list[float], list[float]]:
    """One pass over the cells; returns each cell's wall and CPU time in
    reference seconds. The pace is read before the first cell, after the
    last, and between cells once PACE_EVERY seconds of work have passed
    since the last reading. Checks happen after the pass."""
    outcomes, raw, readings = [], [], [pace()]
    since = perf_counter()
    for i, cell in enumerate(cells):
        w0, c0 = perf_counter(), cpu_seconds()
        outcomes.append(attempt(call, cell.id, cell.run) if call else attempt(cell.run))
        raw.append((perf_counter() - w0, cpu_seconds() - c0, len(readings) - 1))
        if perf_counter() - since >= PACE_EVERY or i == len(cells) - 1:
            readings.append(pace())
            since = perf_counter()
    for cell, outcome in zip(cells, outcomes):
        checker.check(cell, outcome)
    scaled = [in_reference_seconds(w, c, readings[r], readings[r + 1]) for w, c, r in raw]
    return [w for w, _ in scaled], [c for _, c in scaled]


def setup(workload: str, seed: int, pins: dict, tiny: bool, checker: Checker | None):
    """Import packidx, make the seeded inputs, run one untimed warm-up cell.
    Returns the time this took in reference seconds, packidx and the cells."""
    before = pace()
    t0, c0 = perf_counter(), cpu_seconds()
    px = load_packidx()
    workdir = RUN_DIR / workload
    workdir.mkdir(parents=True, exist_ok=True)
    cells = cellmod.WORKLOADS[workload](px, seed, workdir, pins)
    if tiny:
        keep = set(cellmod.TINY[workload])
        cells = [c for c in cells if c.id in keep]
    warm = attempt(cells[0].run)
    if checker is not None:
        checker.check(cells[0], warm)
    elapsed, _ = in_reference_seconds(perf_counter() - t0, cpu_seconds() - c0, before, pace())
    return elapsed, px, cells


def measure(workload: str, seed: int, seconds: float, pins: dict, tiny: bool) -> tuple[Checker, dict]:
    checker = Checker(pins, seed)
    setups, walls, cpus = [], [], []  # walls and cpus: per pass, per cell
    start = perf_counter()
    # Set up again before every pass, so the set-ups sample the whole run
    # rather than one moment of it; start another round only while the
    # last one, repeated, would end inside the time budget.
    last_round = 0.0
    while not walls or perf_counter() - start + last_round <= seconds:
        round_start = perf_counter()
        elapsed, _, cells = setup(workload, seed, pins, tiny, checker)
        setups.append(elapsed)
        wall, cpu = run_pass(cells, checker)
        walls.append(wall)
        cpus.append(cpu)
        last_round = perf_counter() - round_start
    print(
        f"{workload} seed {seed}: {len(walls)} passes of {['%.3f' % sum(w) for w in walls]} s, "
        f"setups {['%.3f' % s for s in setups]} s (reference seconds)",
        file=sys.stderr,
    )
    values = {
        "wall_s": median_pass(walls),
        "cpu_s": median_pass(cpus),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "pass_ratio": (checker.attempted - checker.failed) / checker.attempted,
        "setup_s": statistics.median(setups),
    }
    return checker, values


def median_pass(per_pass: list[list[float]]) -> float:
    """One pass assembled from each cell's median run. A pace reading cannot
    fall inside a cell, so a cell during which the host's speed changed is
    scaled wrongly; taking the median per cell keeps such a cell from moving
    the whole pass."""
    return sum(statistics.median(times) for times in zip(*per_pass))


def thread_speedup(cell, checker: Checker, reps: int = 3) -> float:
    """Median one-thread over median two-thread wall time of one sweep,
    alternating the two, untraced. Every rerun must give the same bytes."""
    times = {1: [], 2: []}
    for _ in range(reps):
        for threads in (1, 2):
            t0 = perf_counter()
            outcome = attempt(cell.probe, threads)
            times[threads].append(perf_counter() - t0)
            checker.check(cell, outcome)
    return statistics.median(times[1]) / statistics.median(times[2])


def layer_values(tracer: Tracer, counts: dict, wall_traced: float, wall_plain: float, speedup: float) -> dict:
    spans = tracer.spans
    selfs = self_times(spans, tracer.root_thread)
    by_id = {s.id: s for s in spans}

    def outermost(pred) -> float:
        """Summed duration of matching spans with no matching ancestor."""
        total = 0.0
        for s in spans:
            if not pred(s):
                continue
            p = by_id.get(s.parent)
            while p is not None and not pred(p):
                p = by_id.get(p.parent)
            if p is None:
                total += duration(s, tracer.root_thread)
        return total

    def incl(name: str) -> float:
        return outermost(lambda s: s.name == name)

    def ratio(a, b) -> float:
        return a / b if b else 0.0

    layer_self: dict[str, float] = {layer: 0.0 for layer in metricmod.LAYERS}
    for s in spans:
        layer_self[s.layer] += selfs[s.id]
    total_self = sum(layer_self.values())
    search_s = outermost(lambda s: s.layer == "clique" and s.name != "clique.exhaustive_max_clique_size")
    c = lambda key: counts.get(key, 0)  # noqa: E731

    values = {
        "groups.add_coord.calls": c("groups.add_coord.calls"),
        "groups.enumerate_window.s": incl("groups.enumerate_window"),
        "groups.enumerate_window.elements": c("groups.enumerate_window.elements"),
        "packing.compatibility_graph.s": incl("packing.compatibility_graph"),
        "packing.compatibility_graph.pairs": c("packing.compatibility_graph.pairs"),
        "packing.max_packing_family.s": incl("packing.max_packing_family"),
        "packing.max_packing_family.calls": c("packing.max_packing_family.calls"),
        "packing.translates_disjoint.calls": c("packing.translates_disjoint.calls"),
        "packing.translates_disjoint.s": incl("packing.translates_disjoint"),
        "packing.max_clique_in_bset.s": incl("packing.max_clique_in_bset"),
        "clique.first_max_clique.s": incl("clique.first_max_clique"),
        "clique.nodes": c("clique.nodes"),
        "clique.nodes_per_s": ratio(c("clique.nodes"), search_s),
        "clique.exists_clique.calls": c("clique.exists_clique.calls"),
        "clique.extract_hit_ratio": ratio(c("clique.extract_hits"), c("clique.extract_calls")),
        "clique.exhaustive_max_clique_size.s": incl("clique.exhaustive_max_clique_size"),
        "bsets.build_bset.s": incl("bsets.build_bset"),
        "bsets.run_checks.s": incl("bsets.run_checks"),
        "witness.build_witness.s": sum(selfs[s.id] for s in spans if s.name == "witness.build_witness"),
        "witness.trace_steps": c("witness.trace_steps"),
        "witness.candidates_scanned": c("witness.candidates_scanned"),
        "witness.anchor_hit_ratio": ratio(c("witness.trace_steps"), c("witness.candidates_scanned")),
        "witness.verify_witness.s": incl("witness.verify_witness"),
        "witness.verify_witness.calls": c("witness.verify_witness.calls"),
        "obstruction.exhaustive_no_index_check.s": incl("obstruction.exhaustive_no_index_check"),
        "obstruction.subsets": c("obstruction.subsets"),
        "obstruction.subsets_per_s": ratio(c("obstruction.subsets"), incl("obstruction.exhaustive_no_index_check")),
        "obstruction.cross_checks": c("obstruction.cross_checks"),
        "obstruction.cross_check.s": outermost(
            lambda s: s.name == "packing.max_packing_family" and s.site == "obstruction"
        ),
        "obstruction.speedup_2w": speedup,
        "pairmap.search_pairmap.s": incl("pairmap.search_pairmap"),
        "pairmap.nodes": c("pairmap.nodes"),
        "pairmap.nodes_per_s": ratio(c("pairmap.nodes"), incl("pairmap.search_pairmap")),
        **{f"runners.{cmd}.s": incl(f"runners.run_{cmd}") for cmd in ("bset", "witness", "index", "obstruct", "pairmap")},
        "reports.to_json.s": incl("reports.to_json"),
        "reports.bytes": c("reports.bytes"),
        **{f"{layer}.self_share": ratio(layer_self[layer], total_self) for layer in metricmod.LAYERS},
        "trace.overhead_s": wall_traced - wall_plain,
        "trace.spans": len(spans),
    }
    return values


def measure_traced(workload: str, seed: int, pins: dict, tiny: bool) -> tuple[Checker, dict]:
    checker = Checker(pins, seed)
    _, px, cells = setup(workload, seed, pins, tiny, checker)
    report_cls = px.reports.Report

    wall_plain = sum(run_pass(cells, checker)[0])

    tracer, patches = Tracer(), Patches()
    tracer.install(patches, report_cls)
    try:
        wall_traced = sum(run_pass(cells, checker, tracer.run_cell)[0])
    finally:
        patches.undo()

    counter = Counter()
    counter.install(patches, report_cls)
    try:
        run_pass(cells, checker)
    finally:
        patches.undo()

    probe = next((c for c in cells if c.probe is not None), None)
    speedup = thread_speedup(probe, checker) if probe else 0.0

    out = RUN_DIR / workload / f"spans-seed{seed}.jsonl"
    tracer.write(out)
    print(
        f"{workload} seed {seed}: untraced pass {wall_plain:.3f} s, traced pass {wall_traced:.3f} s, "
        f"{len(tracer.spans)} spans in {out}",
        file=sys.stderr,
    )
    return checker, layer_values(tracer, counter.totals(), wall_traced, wall_plain, speedup)


def pin(digests: Path) -> int:
    """Rewrite the pinned digests from one pass at the pin seed."""
    pins = {"seed": PIN_SEED, "reports": {}, "index_sizes": {}}
    for workload in cellmod.WORKLOADS:
        _, px, cells = setup(workload, PIN_SEED, {}, False, None)
        for cell in cells:
            outcome = attempt(cell.run)
            if outcome is None or not outcome.ok:
                print(f"not pinning: {cell.id} failed its verdict", file=sys.stderr)
                return 1
            if outcome.text is not None:
                pins["reports"][cell.id] = hashlib.sha256(outcome.text.encode()).hexdigest()
                if cell.id.startswith("solve/index/"):
                    pins["index_sizes"][cell.id] = json.loads(outcome.text)["results"]["windowed_sharp_index"]
    digests.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"pinned {len(pins['reports'])} reports in {digests}", file=sys.stderr)
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(cellmod.WORKLOADS))
    ap.add_argument("--seed", type=int, default=PIN_SEED)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="run the self-test's small cell subset")
    ap.add_argument("--digests", type=Path, default=HERE / "digests.json")
    ap.add_argument("--pin", action="store_true", help="rewrite the pinned digests and exit")
    args = ap.parse_args(argv)

    try:
        if args.pin:
            return pin(args.digests)
        if args.workload is None:
            ap.error("--workload is required")
        pins = json.loads(args.digests.read_text())
        if args.trace:
            checker, values = measure_traced(args.workload, args.seed, pins, args.tiny)
            table = metricmod.PER_LAYER
        else:
            checker, values = measure(args.workload, args.seed, args.seconds, pins, args.tiny)
            table = metricmod.END_TO_END
    except (BenchError, OSError) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2

    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {m.name: {"value": values[m.name], "unit": m.unit} for m in table},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    os.chdir(ROOT)
    sys.exit(main())
