"""Construction of symmetric base sets pinning a target packing index.

For a finite target ``kappa >= 2`` and an infinite group, ``build_bset``
produces a symmetric set containing zero whose internal difference structure
admits a (kappa-1)-point configuration but no kappa-point one, and which is
too sparse for any small translate family to cover the group. Two group
families are exceptional and rejected: index 3 is unattainable in direct
sums of Z_3, index 4 in direct sums of Z_2 (with at most one Z_4 summand).
``exceptional_family`` states that rule once, for finite and infinite
groups alike; the obstruction sweeps ask it which finite groups they cover.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .errors import (
    ExceptionalGroupError,
    FiniteGroupError,
    NoCarrierError,
    PropertyCheckFailedError,
)
from .groups import (
    CYCLIC,
    INFINITE_CYCLIC,
    PRUFER,
    REPEATED_CYCLIC,
    Element,
    GroupSpec,
    Window,
    enumerate_window,
    zero_coord,
)
from .packing import (
    ElementSet,
    clique_in_bset_of_size,
    difference_set,
    max_clique_in_bset,
)

K2_ZERO = "K2-Zero"
K3 = "K3"
K4_ORDER_GT5 = "K4-Order>5"
K4_Z3 = "K4-Z3Subgroup"
K4_ZIZJ = "K4-ZiZj"
KN_Z = "Kn-Z"
KN_PRUFER = "Kn-Prufer"
KN_DIRECT_SUM = "Kn-DirectSum"


@dataclass(frozen=True)
class BSet:
    """A symmetric candidate set with provenance and optional check results."""

    group: GroupSpec
    kappa: int
    elements: ElementSet
    provenance: str
    check_results: tuple | None = None


def exceptional_family(group: GroupSpec, kappa: int) -> bool:
    """True iff every factor of the group, finite or not, lies in the
    exceptional family of ``kappa``: Z_3 for index 3, and Z_2 with at most
    one Z_4 summand for index 4. No other index has such a family."""
    kinds = [(f.kind, f.param) for f in group.factors]
    if kappa == 3:
        return all(k in (CYCLIC, REPEATED_CYCLIC) and p == 3 for k, p in kinds)
    if kappa == 4:
        fours = kinds.count((CYCLIC, 4))
        twos = sum(1 for k, p in kinds if k in (CYCLIC, REPEATED_CYCLIC) and p == 2)
        return fours <= 1 and fours + twos == len(kinds)
    return False


def is_exceptional(group: GroupSpec, kappa: int) -> bool:
    """True iff no subset of the group can have sharp index ``kappa``."""
    if group.is_finite:
        raise FiniteGroupError("index attainability is characterized for infinite groups only")
    if kappa < 2:
        raise ValueError("kappa must be >= 2")
    return exceptional_family(group, kappa)


def _unit_at(group: GroupSpec, index: int, coord) -> Element:
    coords = [zero_coord(f) for f in group.factors]
    coords[index] = coord
    return group.element(*coords)


def _repeated_generator(group: GroupSpec, index: int, copy: int) -> Element:
    return _unit_at(group, index, (0,) * copy + (1,))


def _element_of_order_not_3(group: GroupSpec) -> Element:
    """A unit of order != 3 on the first carrier in the order Z, Prufer,
    Z_n^w, Z_n, keeping factor order within a kind. The factor's kind and
    parameter decide: a Z unit has infinite order; a Prufer(p) unit is taken
    at level 1, or at level 2 (order 9) when p = 3; a Z_n^w or Z_n unit has
    order n, so it is taken when n != 3. Only the returned unit is built."""
    rank = (INFINITE_CYCLIC, PRUFER, REPEATED_CYCLIC, CYCLIC)
    carriers = [
        (rank.index(f.kind), i)
        for i, f in enumerate(group.factors)
        if f.kind == PRUFER or f.param != 3
    ]
    if not carriers:
        raise NoCarrierError("no generator of order != 3 is available")
    i = min(carriers)[1]
    f = group.factors[i]
    if f.kind == PRUFER:
        return _unit_at(group, i, (1, 2 if f.param == 3 else 1))
    return _unit_at(group, i, (1,) if f.kind == REPEATED_CYCLIC else 1)


def _element_of_order_gt_5(group: GroupSpec) -> Element | None:
    for i, f in enumerate(group.factors):
        if f.kind == INFINITE_CYCLIC:
            return _unit_at(group, i, 1)
    for i, f in enumerate(group.factors):
        if f.kind == PRUFER:
            level = 1
            while f.param**level <= 5:
                level += 1
            return _unit_at(group, i, (1, level))
    for i, f in enumerate(group.factors):
        if f.kind in (CYCLIC, REPEATED_CYCLIC) and f.param > 5:
            if f.kind == CYCLIC:
                return _unit_at(group, i, 1)
            return _repeated_generator(group, i, 0)
    # mixed torsion: the sum of all factor generators has order lcm(moduli)
    coords = []
    for f in group.factors:
        coords.append((1,) if f.kind == REPEATED_CYCLIC else 1)
    combined = group.element(*coords)
    return combined if combined.order() > 5 else None


def _order3_generator(group: GroupSpec) -> Element | None:
    for i, f in enumerate(group.factors):
        if f.kind in (CYCLIC, REPEATED_CYCLIC) and f.param % 3 == 0:
            step = f.param // 3
            if f.kind == CYCLIC:
                return _unit_at(group, i, step)
            return _unit_at(group, i, (step,))
    return None


def _two_order45_generators(group: GroupSpec) -> tuple[Element, Element] | None:
    slots: list[Element] = []
    for i, f in enumerate(group.factors):
        if f.kind == CYCLIC and f.param in (4, 5):
            slots.append(_unit_at(group, i, 1))
        elif f.kind == REPEATED_CYCLIC and f.param in (4, 5):
            slots.append(_repeated_generator(group, i, 0))
            slots.append(_repeated_generator(group, i, 1))
        if len(slots) >= 2:
            return slots[0], slots[1]
    return None


def _symmetric_hull(group: GroupSpec, elements: list[Element]) -> ElementSet:
    zero = group.zero()
    out = [zero]
    for e in elements:
        out.append(e)
        out.append(-e)
    return ElementSet.of(group, out)


def build_bset(group: GroupSpec, kappa: int) -> BSet:
    """Deterministic construction of the base set for (group, kappa)."""
    if group.is_finite:
        raise FiniteGroupError("base-set construction requires an infinite group")
    if kappa < 2:
        raise ValueError("kappa must be >= 2")
    if is_exceptional(group, kappa):
        raise ExceptionalGroupError(
            f"index {kappa} is unattainable in {group}"
        )
    zero = group.zero()

    if kappa == 2:
        return BSet(group, 2, ElementSet.of(group, [zero]), K2_ZERO)

    if kappa == 3:
        g = _element_of_order_not_3(group)
        return BSet(group, 3, _symmetric_hull(group, [g]), K3)

    if kappa == 4:
        g = _element_of_order_gt_5(group)
        if g is not None:
            return BSet(group, 4, _symmetric_hull(group, [g, g.scaled(2)]), K4_ORDER_GT5)
        h = _order3_generator(group)
        if h is not None:
            subgroup = ElementSet.of(group, [zero, h, h.scaled(2)])
            return BSet(group, 4, subgroup, K4_Z3)
        pair = _two_order45_generators(group)
        if pair is None:
            raise NoCarrierError("no pair of independent order-4/5 generators")
        g1, g2 = pair
        base = ElementSet.of(group, [zero, g1, g2])
        return BSet(group, 4, difference_set(base), K4_ZIZJ)

    # kappa > 4: carrier preference Z, then Prufer, then a repeated block
    for i, f in enumerate(group.factors):
        if f.kind == INFINITE_CYCLIC:
            unit = _unit_at(group, i, 1)
            base = ElementSet.of(group, [unit.scaled(l) for l in range(1, kappa)])
            return BSet(group, kappa, difference_set(base), KN_Z)
    for i, f in enumerate(group.factors):
        if f.kind == PRUFER:
            n = 1
            while f.param**n < 2 * kappa:
                n += 1
            base = ElementSet.of(
                group, [_unit_at(group, i, (l, n)) for l in range(1, kappa)]
            )
            return BSet(group, kappa, difference_set(base), KN_PRUFER)
    for i, f in enumerate(group.factors):
        if f.kind == REPEATED_CYCLIC:
            base = ElementSet.of(
                group, [_repeated_generator(group, i, c) for c in range(kappa - 1)]
            )
            return BSet(group, kappa, difference_set(base), KN_DIRECT_SUM)
    raise NoCarrierError(f"no factor of {group} can carry {kappa - 1} generators")


def check_property_1(bset: BSet) -> ElementSet:
    """A (kappa-1)-point witness whose differences all stay inside the set.

    Subsets of the witness cover every smaller size. Raises when the maximum
    such configuration is smaller than kappa-1 (a construction bug, surfaced).
    """
    witness = clique_in_bset_of_size(bset.elements, bset.kappa - 1)
    if witness is None:
        best = max_clique_in_bset(bset.elements)
        raise PropertyCheckFailedError(
            f"largest difference-compatible set has {best.size} < {bset.kappa - 1} points"
        )
    return witness


def check_property_2(bset: BSet) -> bool:
    """True iff no kappa-point set keeps all its differences inside the set."""
    return max_clique_in_bset(bset.elements).size <= bset.kappa - 1


@dataclass(frozen=True)
class CoverageCheck:
    """Outcome of the no-small-cover check over a finite window."""

    holds: bool
    cardinality_certificate: bool
    missing: Element | None
    covered: int
    universe: int


def check_property_3(bset: BSet, F: ElementSet, window: Window) -> CoverageCheck:
    """True iff F + elements does not cover the whole window universe."""
    covered = {(f + b).coords for f in F.elements for b in bset.elements.elements}
    universe = window.size()
    certificate = len(F) * len(bset.elements) < universe
    missing = None
    for e in enumerate_window(window):
        if e.coords not in covered:
            missing = e
            break
    return CoverageCheck(
        holds=missing is not None,
        cardinality_certificate=certificate,
        missing=missing,
        covered=len(covered),
        universe=universe,
    )


def run_checks(bset: BSet) -> BSet:
    """Attach pass/fail results for the two clique-side properties."""
    clique_max = max_clique_in_bset(bset.elements)
    rows = []
    try:
        witness = check_property_1(bset)
        rows.append(("property_1", True, witness.to_texts()))
    except PropertyCheckFailedError as exc:
        rows.append(("property_1", False, str(exc)))
    rows.append(("property_2", clique_max.size <= bset.kappa - 1, clique_max.size))
    return replace(bset, check_results=tuple(rows))
