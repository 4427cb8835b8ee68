"""Greedy construction of sets with a prescribed windowed sharp packing index.

Given a verified base set B and a window W, the builder walks the window's
elements g (outside the nonzero part of B) in canonical order and greedily
picks anchor points a so that the growing set A = U {a, g + a} never meets
its own B-translates. Two invariants certify the outcome:

  I1: (B* + A) and A are disjoint, where B* = B minus zero
  I2: every window element outside B* is a difference of two points of A

Together they force the windowed sharp index of A to be exactly kappa.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .bsets import BSet
from .errors import (
    CandidateExhaustedError,
    GroupMismatchError,
    PreconditionError,
    PropertyThreeViolatedError,
)
from .groups import (
    DenseBox,
    Element,
    GroupSpec,
    Window,
    enumerate_window,
    extents,
    sum_bounds,
)
from .packing import ElementSet, difference_mask, max_packing_family

# ambient doublings build_witness tries before it gives up on a target
MAX_EXPANSIONS = 8


@dataclass(frozen=True)
class TraceStep:
    """One greedy step: the difference g being realized, the anchor a picked,
    and the size of the forbidden region the anchor had to avoid."""

    g: Element
    a: Element
    forbidden_size: int


@dataclass(frozen=True)
class WitnessSet:
    group: GroupSpec
    kappa: int
    bset: BSet
    window: Window
    elements: ElementSet
    trace: tuple[TraceStep, ...]
    ambient: Window


def _witness_box(bset: BSet, window: Window, ambient: Window) -> DenseBox:
    """A box holding F - g for every target g. Anchors come from the ambient
    and A gains a + g, so F = A + B lies in ambient + window + B, and F - g
    in ambient + 2 window + B."""
    group = bset.group
    bext = extents(group, bset.elements)
    return DenseBox(group, sum_bounds(group, ambient.bounds, window.bounds, window.bounds, bext))


def build_witness(bset: BSet, window: Window) -> WitnessSet:
    """Run the greedy construction over the window, expanding the candidate
    search region (ambient) by doubling when it runs dry, up to
    ``MAX_EXPANSIONS`` times.

    The forbidden region F = A + B is a bitmask over a box. The anchor for g
    is the first ambient element outside F | (F - g); F only grows, so the
    search starts after the leading run of ambient elements already in F.
    """
    group = bset.group
    if window.group != group:
        raise GroupMismatchError("window group differs from the base set's group")
    if group.zero().coords not in bset.elements.coords_set():
        raise PreconditionError("base set must contain zero")
    bstar = {e.coords for e in bset.elements if not e.is_zero()}

    targets = [g for g in enumerate_window(window) if g.coords not in bstar]

    ambient = window
    expansions = 0
    box = None
    points: list[Element] = []
    trace: list[TraceStep] = []

    for g in targets:
        a = None
        while a is None:
            if box is None:
                box = _witness_box(bset, window, ambient)
                codes = box.codes(ambient.bounds)
                bmask = box.mask_of(bset.elements)
                amask = box.mask_of(points)
                forbidden = 0
                for b in bset.elements:
                    forbidden |= box.translate(amask, box.encode(b))
                cursor = 0
            while cursor < len(codes) and forbidden >> codes[cursor] & 1:
                cursor += 1
            unsafe = forbidden | box.translate(forbidden, box.encode(-g))
            for c in itertools.islice(codes, cursor, None):
                if not unsafe >> c & 1:
                    a = box.decode(c)
                    break
            else:
                bigger = ambient.expanded()
                if bigger is None:
                    raise PropertyThreeViolatedError(
                        f"no anchor left for g={g} in the finite group {group}"
                    )
                expansions += 1
                if expansions > MAX_EXPANSIONS:
                    raise CandidateExhaustedError(
                        f"no anchor for g={g} after {MAX_EXPANSIONS} ambient expansions"
                    )
                ambient = bigger
                box = None

        trace.append(TraceStep(g, a, unsafe.bit_count()))

        for fresh in (a, a + g):
            code = box.encode(fresh)
            if not amask >> code & 1:
                amask |= 1 << code
                points.append(fresh)
                forbidden |= box.translate(bmask, code)

    elements = ElementSet.of(group, points)
    return WitnessSet(
        group, bset.kappa, bset, window, elements, tuple(trace), ambient
    )


@dataclass(frozen=True)
class InvariantReport:
    i1_holds: bool
    i1_counterexample: tuple[Element, Element] | None
    i2_holds: bool
    i2_missing: Element | None

    @property
    def all_hold(self) -> bool:
        return self.i1_holds and self.i2_holds


def verify_witness(w: WitnessSet) -> InvariantReport:
    """Exhaustively check both defining invariants; failures carry witnesses.

    Both read the differences D = A - A: I1 holds iff no beta in B* lies in
    D, since beta + a = a' means beta = a' - a, and I2 asks every window
    element outside B* to lie in D. D is taken over the doubled window, the
    region the compatibility graph of the index solve reads, so that solve
    finds this D in A's memo. A beta outside D's box is tested pair by pair.
    """
    group = w.group
    window = w.window.bounds
    bstar = [e for e in w.bset.elements if not e.is_zero()]
    box, diff = difference_mask(w.elements, sum_bounds(group, window, window))

    bstar_codes = [box.encode(e) for e in bstar]
    acoords = w.elements.coords_set()
    i1_counter = None
    for beta, code in zip(bstar, bstar_codes):
        if code is not None and not diff >> code & 1:
            continue
        a = next((a for a in w.elements if (beta + a).coords in acoords), None)
        if a is not None:
            i1_counter = (beta, a)
            break

    i2_missing = None
    for c in box.codes(window):
        if c not in bstar_codes and not diff >> c & 1:
            i2_missing = box.decode(c)
            break

    return InvariantReport(
        i1_holds=i1_counter is None,
        i1_counterexample=i1_counter,
        i2_holds=i2_missing is None,
        i2_missing=i2_missing,
    )


def windowed_sharp_index(w: WitnessSet) -> int:
    """Size of the largest in-window disjoint-translate family, plus one."""
    report = verify_witness(w)
    if not report.all_hold:
        raise PreconditionError(
            "witness invariants do not hold; refusing to report an index"
        )
    family = max_packing_family(w.elements, w.window)
    return family.size + 1
