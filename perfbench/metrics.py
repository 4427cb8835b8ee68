"""The benchmark's metric table: every metric it prints, with its unit.

``BENCHMARK.json`` lists the same names; ``selftest.py`` checks that the two
agree. For a per-layer metric, ``moves`` names the end-to-end metric and
workload it should move, so a later change can say in advance which numbers
it expects to shift.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    moves: str = ""
    about: str = ""


END_TO_END = [
    Metric("wall_s", "s", "lower", about="reference seconds of one pass over the workload's cells, each cell at its median run"),
    Metric("cpu_s", "s", "lower", about="CPU reference seconds of one pass, all threads and child processes, each cell at its median run"),
    Metric("peak_rss_mb", "MB", "lower", about="peak resident memory of the process, set-up included"),
    Metric(
        "pass_ratio",
        "ratio",
        "higher",
        about="cells passing verdict and pinned digest over cells attempted; "
        "1 - failed_ratio, kept nonzero so its bound is a share of a nonzero median",
    ),
    Metric("setup_s", "s", "lower", about="median of repeated set-ups in reference seconds: import, seeded inputs, one warm-up cell"),
]

LAYERS = ["groups", "packing", "clique", "bsets", "witness", "obstruction", "pairmap", "runners", "reports", "harness"]

_W, _SW, _SO, _ALL = "wall_s on witness", "wall_s on sweep", "wall_s on solve", "wall_s on every workload"

PER_LAYER = [
    Metric("groups.add_coord.calls", "count", "lower", _W),
    Metric("groups.enumerate_window.s", "s", "lower", _W, "time spent producing window elements"),
    Metric("groups.enumerate_window.elements", "count", "lower", _W),
    Metric("packing.compatibility_graph.s", "s", "lower", _W + "; flat on solve"),
    Metric("packing.compatibility_graph.pairs", "count", "lower", _W + "; flat on solve"),
    Metric("packing.max_packing_family.s", "s", "lower", _SO),
    Metric("packing.max_packing_family.calls", "count", "lower", _SO),
    Metric("packing.translates_disjoint.calls", "count", "lower", _SO),
    Metric("packing.translates_disjoint.s", "s", "lower", _SO),
    Metric("packing.max_clique_in_bset.s", "s", "lower", _SO),
    Metric("clique.first_max_clique.s", "s", "lower", _SO + "; not on witness"),
    Metric("clique.nodes", "count", "lower", _SO, "color_sort calls"),
    Metric("clique.nodes_per_s", "1/s", "higher", _SO, "clique.nodes over time in clique search entry points"),
    Metric("clique.exists_clique.calls", "count", "lower", _SO),
    Metric("clique.extract_hit_ratio", "ratio", "higher", _SO, "true exists_clique results during extraction over calls"),
    Metric("clique.exhaustive_max_clique_size.s", "s", "lower", _SO),
    Metric("bsets.build_bset.s", "s", "lower", _SO),
    Metric("bsets.run_checks.s", "s", "lower", _SO),
    Metric("witness.build_witness.s", "s", "lower", _W + " and peak_rss_mb on witness", "self time"),
    Metric("witness.trace_steps", "count", "lower", _W + " and peak_rss_mb on witness"),
    Metric("witness.candidates_scanned", "count", "lower", _W + " and peak_rss_mb on witness"),
    Metric("witness.anchor_hit_ratio", "ratio", "higher", _W, "trace steps over candidates scanned"),
    Metric("witness.verify_witness.s", "s", "lower", _W),
    Metric("witness.verify_witness.calls", "count", "lower", _W),
    Metric("obstruction.exhaustive_no_index_check.s", "s", "lower", _SW + " and cpu_s on sweep"),
    Metric("obstruction.subsets", "count", "lower", _SW + " and cpu_s on sweep"),
    Metric("obstruction.subsets_per_s", "1/s", "higher", _SW + " and cpu_s on sweep"),
    Metric("obstruction.cross_checks", "count", "lower", _SW),
    Metric("obstruction.cross_check.s", "s", "lower", _SW, "max_packing_family called from obstruction"),
    Metric("obstruction.speedup_2w", "ratio", "higher", _SW, "largest sweep: 1-thread over 2-thread wall time"),
    Metric("pairmap.search_pairmap.s", "s", "lower", _SW),
    Metric("pairmap.nodes", "count", "lower", _SW),
    Metric("pairmap.nodes_per_s", "1/s", "higher", _SW),
    Metric("runners.bset.s", "s", "lower", _ALL),
    Metric("runners.witness.s", "s", "lower", _ALL),
    Metric("runners.index.s", "s", "lower", _ALL),
    Metric("runners.obstruct.s", "s", "lower", _ALL),
    Metric("runners.pairmap.s", "s", "lower", _ALL),
    Metric("reports.to_json.s", "s", "lower", _ALL),
    Metric("reports.bytes", "count", "lower", _ALL),
    *[
        Metric(f"{layer}.self_share", "ratio", "lower", _ALL, "share of the traced pass's busy time spent in the layer itself")
        for layer in LAYERS
    ],
    Metric("trace.overhead_s", "s", "lower", _ALL, "traced pass wall time minus untraced pass wall time, in reference seconds"),
    Metric("trace.spans", "count", "lower", _ALL),
]

# Counts that repeat exactly from run to run for one workload and seed;
# later changes may cite them as counts.
EXACT_COUNTS = [
    "clique.nodes",
    "pairmap.nodes",
    "obstruction.subsets",
    "obstruction.cross_checks",
    "groups.add_coord.calls",
    "witness.candidates_scanned",
]
