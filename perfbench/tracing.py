"""Spans and counts recorded from outside packidx, by patching its bindings.

A function is patched at every module binding that holds it (``packidx.witness
.max_packing_family`` as well as ``packidx.packing.max_packing_family``), so a
span also records the module that made the call: its *site*. Two passes use
two recorders:

* ``Tracer`` keeps one span per call of the coarse public functions, with
  name, site, start, end, parent and cell id, and the parent tracked per
  thread. A span on a worker thread also records the thread's CPU time,
  which leaves out the time the thread waited for the interpreter lock.
  ``enumerate_window`` returns a generator whose work interleaves
  with its caller's, so its span holds the time spent producing elements
  instead of an interval.
* ``Counter`` counts the hot functions (``add_coord``, ``color_sort``,
  ``exists_clique``, window elements) and the work numbers functions return.
  Wrapping hot functions in spans would inflate every span's self time, so
  counts come from their own pass.
"""

from __future__ import annotations

import itertools
import json
import sys
import threading
from collections import defaultdict
from time import perf_counter, thread_time

# (module, function) pairs timed as spans; Report.to_json is patched on the class.
SPANNED = [
    ("groups", "parse_group"),
    ("groups", "enumerate_window"),
    ("packing", "read_set_file"),
    ("packing", "write_set_file"),
    ("packing", "difference_set"),
    ("packing", "translates_disjoint"),
    ("packing", "compatibility_graph"),
    ("packing", "max_packing_family"),
    ("packing", "max_clique_in_bset"),
    ("packing", "clique_in_bset_of_size"),
    ("clique", "max_clique_size"),
    ("clique", "clique_of_size"),
    ("clique", "first_max_clique"),
    ("clique", "exhaustive_max_clique_size"),
    ("bsets", "is_exceptional"),
    ("bsets", "build_bset"),
    ("bsets", "check_property_1"),
    ("bsets", "check_property_2"),
    ("bsets", "check_property_3"),
    ("bsets", "run_checks"),
    ("witness", "build_witness"),
    ("witness", "verify_witness"),
    ("witness", "windowed_sharp_index"),
    ("obstruction", "classify_triple"),
    ("obstruction", "extend_pair_exponent3"),
    ("obstruction", "extend_triple"),
    ("obstruction", "exhaustive_no_index_check"),
    ("pairmap", "validate_pairmap"),
    ("pairmap", "search_pairmap"),
    ("pairmap", "common_point"),
    ("runners", "run_bset"),
    ("runners", "run_witness"),
    ("runners", "run_index"),
    ("runners", "run_obstruct"),
    ("runners", "run_pairmap"),
]
GENERATORS = {("groups", "enumerate_window")}
CELL = "harness.cell"


class Patches:
    """Replaces a function at every packidx binding, and puts it back."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def function(self, module: str, name: str, make) -> None:
        """Bind ``make(original, site)`` wherever ``packidx.<module>.<name>`` is bound."""
        original = getattr(sys.modules[f"packidx.{module}"], name)
        for modname, mod in list(sys.modules.items()):
            if modname != "packidx" and not modname.startswith("packidx."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, make(original, modname.rpartition(".")[2]))

    def method(self, cls: type, name: str, wrapper) -> None:
        self._undo.append((cls, name, cls.__dict__[name]))
        setattr(cls, name, wrapper)

    def undo(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()


class Span:
    __slots__ = ("id", "name", "site", "parent", "cell", "thread", "start", "end", "cpu", "gen_s", "busy")

    def __init__(self, sid, name, site, parent, cell, thread):
        self.id, self.name, self.site, self.parent = sid, name, site, parent
        self.cell, self.thread = cell, thread
        self.start = self.end = self.cpu = 0.0
        self.gen_s = 0.0  # generator time charged to this span while it was open
        self.busy = None  # set for generator spans: time spent producing elements

    @property
    def layer(self) -> str:
        return self.name.partition(".")[0]

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__slots__}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root: list[Span] = []  # stack of the thread running the cells
        self.root_thread = threading.get_ident()  # the tracer lives on that thread
        self.cell = ""

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self) -> Span | None:
        """Innermost open span of this thread; a worker thread with nothing
        open hangs under the innermost open span of the cell's thread."""
        stack = self._stack()
        if stack:
            return stack[-1]
        return self._root[-1] if self._root else None

    def _new(self, name: str, site: str) -> Span:
        parent = self._open()
        return Span(
            next(self._ids), name, site, parent.id if parent else 0, self.cell, threading.get_ident()
        )

    def call(self, fn, name: str, site: str):
        def traced(*args, **kwargs):
            span = self._new(name, site)
            stack = self._stack()
            stack.append(span)
            c0 = thread_time()
            span.start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                span.cpu = thread_time() - c0
                stack.pop()
                self.spans.append(span)

        return traced

    def generator(self, fn, name: str, site: str):
        def traced(*args, **kwargs):
            span = self._new(name, site)
            span.start = span.end = perf_counter()
            span.busy = 0.0
            self.spans.append(span)
            return self._produce(iter(fn(*args, **kwargs)), span)

        return traced

    def _produce(self, it, span: Span):
        while True:
            t0 = perf_counter()
            try:
                item = next(it)
            except StopIteration:
                self._charge(span, t0)
                return
            self._charge(span, t0)
            yield item

    def _charge(self, span: Span, t0: float) -> None:
        span.end = t1 = perf_counter()
        span.busy += t1 - t0
        consumer = self._open()
        if consumer is not None:
            consumer.gen_s += t1 - t0

    def run_cell(self, cell_id: str, fn):
        """Run one cell under a root span on this thread."""
        self.cell = cell_id
        self._local.stack = self._root
        return self.call(fn, CELL, "harness")()

    def install(self, patches: Patches, report_cls: type) -> None:
        for module, name in SPANNED:
            qual = f"{module}.{name}"
            wrap = self.generator if (module, name) in GENERATORS else self.call
            patches.function(module, name, lambda fn, site, q=qual, w=wrap: w(fn, q, site))
        patches.method(report_cls, "to_json", self.call(report_cls.to_json, "reports.to_json", "reports"))

    def write(self, path) -> None:
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(span.to_dict()) + "\n")


def duration(span: Span, root_thread: int) -> float:
    """Time a span kept its thread busy: wall time on the thread running
    the cells, CPU time on a worker thread, where waiting for the
    interpreter lock would otherwise count twice."""
    if span.busy is not None:
        return span.busy
    return span.end - span.start if span.thread == root_thread else span.cpu


def self_times(spans: list[Span], root_thread: int) -> dict[int, float]:
    """Self time per span: its duration minus its children's durations and
    minus generator time charged to it. Children on the span's own thread
    run one after another, so their durations never overlap; children on
    worker threads share the interpreter lock, so theirs add up to no more
    than the parent's wall time."""
    out = {s.id: duration(s, root_thread) - (s.gen_s if s.busy is None else 0.0) for s in spans}
    for s in spans:
        if s.busy is None and s.parent in out:
            out[s.parent] -= duration(s, root_thread)
    return out


class Counter:
    """Per-thread counters, summed when read, so worker threads lose no update."""

    def __init__(self):
        self._local = threading.local()
        self._all: list[dict] = []
        self._lock = threading.Lock()

    def local(self):
        loc = self._local
        if not hasattr(loc, "counts"):
            loc.counts = defaultdict(int)
            loc.extract = None  # exists_clique calls seen in the open clique_of_size
            loc.witness_enums = None  # enumerate_window calls seen in the open build_witness
            with self._lock:
                self._all.append(loc.counts)
        return loc

    def totals(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for counts in self._all:
            for k, v in counts.items():
                out[k] += v
        return dict(out)

    def install(self, patches: Patches, report_cls: type) -> None:
        def calls(key, measure=None):
            def make(fn, site):
                def counted(*args, **kwargs):
                    result = fn(*args, **kwargs)
                    counts = self.local().counts
                    counts[key + ".calls"] += 1
                    if measure is not None:
                        for k, v in measure(result).items():
                            counts[k] += v
                    return result

                return counted

            return make

        def tally(key):
            def make(fn, site):
                def counted(*args):
                    self.local().counts[key] += 1
                    return fn(*args)

                return counted

            return make

        def exists_clique(fn, site):
            def counted(*args, **kwargs):
                loc = self.local()
                result = fn(*args, **kwargs)
                loc.counts["clique.exists_clique.calls"] += 1
                if loc.extract is not None:
                    # the first call in clique_of_size decides feasibility; the rest extract
                    if loc.extract:
                        loc.counts["clique.extract_calls"] += 1
                        loc.counts["clique.extract_hits"] += bool(result)
                    loc.extract += 1
                return result

            return counted

        def clique_of_size(fn, site):
            def counted(*args, **kwargs):
                loc = self.local()
                saved, loc.extract = loc.extract, 0
                try:
                    return fn(*args, **kwargs)
                finally:
                    loc.extract = saved

            return counted

        def enumerate_window(fn, site):
            def counted(*args, **kwargs):
                loc = self.local()
                scanning = False
                if loc.witness_enums is not None:
                    # build_witness enumerates the targets once, then scans candidates
                    scanning = loc.witness_enums > 0
                    loc.witness_enums += 1
                return _count_items(fn(*args, **kwargs), loc.counts, scanning)

            return counted

        def build_witness(fn, site):
            def counted(*args, **kwargs):
                loc = self.local()
                saved, loc.witness_enums = loc.witness_enums, 0
                try:
                    result = fn(*args, **kwargs)
                finally:
                    loc.witness_enums = saved
                loc.counts["witness.trace_steps"] += len(result.trace)
                return result

            return counted

        patches.function("groups", "add_coord", tally("groups.add_coord.calls"))
        patches.function("groups", "enumerate_window", enumerate_window)
        patches.function("clique", "color_sort", tally("clique.nodes"))
        patches.function("clique", "exists_clique", exists_clique)
        patches.function("clique", "clique_of_size", clique_of_size)
        patches.function("witness", "build_witness", build_witness)
        patches.function("witness", "verify_witness", calls("witness.verify_witness"))
        patches.function("packing", "max_packing_family", calls("packing.max_packing_family"))
        patches.function("packing", "translates_disjoint", calls("packing.translates_disjoint"))
        patches.function(
            "packing",
            "compatibility_graph",
            calls("packing.compatibility_graph", lambda r: {"packing.compatibility_graph.pairs": len(r) * (len(r) - 1) // 2}),
        )
        patches.function(
            "pairmap", "search_pairmap", calls("pairmap.search_pairmap", lambda r: {"pairmap.nodes": r[1]})
        )
        patches.function(
            "obstruction",
            "exhaustive_no_index_check",
            calls(
                "obstruction.exhaustive_no_index_check",
                lambda r: {"obstruction.subsets": r.subsets_examined, "obstruction.cross_checks": r.cross_checks},
            ),
        )
        patches.method(
            report_cls,
            "to_json",
            calls("reports.to_json", lambda r: {"reports.bytes": len(r.encode())})(report_cls.to_json, "reports"),
        )


def _count_items(it, counts, scanning: bool):
    for item in it:
        counts["groups.enumerate_window.elements"] += 1
        if scanning:
            counts["witness.candidates_scanned"] += 1
        yield item
