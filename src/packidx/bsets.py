"""Construction of symmetric base sets pinning a target packing index.

For a finite target ``kappa >= 2`` and an infinite group, ``build_bset``
produces a symmetric set containing zero whose internal difference structure
admits a (kappa-1)-point configuration but no kappa-point one, and which is
too sparse for any small translate family to cover the group. Two group
families are exceptional and rejected: index 3 is unattainable in direct
sums of Z_3, index 4 in direct sums of Z_2 (with at most one Z_4 summand).
``exceptional_family`` states that rule once, for finite and infinite
groups alike; the obstruction sweeps ask it which finite groups they cover.

Each case is carried by one factor, chosen in its own order of kinds and
then in factor order: at kappa 3 a unit of order != 3 on Z, Prufer, Z_n^w,
then Z_n; at kappa 4 a unit of order > 5 on Z, Prufer, then Z_n and Z_n^w
together (else the sum of every unit, an order-3 subgroup or two order-4/5
units); at kappa >= 5 the first Z, Prufer, then Z_n^w. ``_carriers`` is the
one scan of the factors, and ``_unit`` builds every unit, only the ones a
base set uses.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from math import lcm

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
    CliqueResult,
    ElementSet,
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
    """A symmetric candidate set with its provenance."""

    group: GroupSpec
    kappa: int
    elements: ElementSet
    provenance: str


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


def _carriers(group: GroupSpec, *ranks: tuple, accept=lambda f: True) -> Iterator[int]:
    """Indices of the factors ``accept`` takes, rank by rank: each rank is a
    tuple of kinds, and a rank's factors come in factor order."""
    for kinds in ranks:
        for i, f in enumerate(group.factors):
            if f.kind in kinds and accept(f):
                yield i


def _least_level(p: int, bound: int) -> int:
    """The least level L >= 1 with p^L > ``bound``."""
    level = 1
    while p**level <= bound:
        level += 1
    return level


def _unit(group: GroupSpec, picked, value: int = 1, copy: int = 0, above: int = 1) -> Element:
    """The sum, over the factors whose indices are in ``picked``, of
    ``value`` times the factor's generator: an integer on ``Z`` and ``Z_n``,
    copy ``copy`` of ``Z_n^w``, and on ``Prufer(p)`` level L, the least with
    p^L > ``above``."""

    def coord(f):
        if f.kind == REPEATED_CYCLIC:
            return (0,) * copy + (value,)
        if f.kind == PRUFER:
            return (value, _least_level(f.param, above))
        return value

    return group.element(
        *(coord(f) if i in picked else zero_coord(f) for i, f in enumerate(group.factors))
    )


def _symmetric_hull(g: Element, r: int) -> ElementSet:
    """{0, ±g, ..., ±r·g}."""
    return ElementSet.of(g.group, [g.scaled(k) for k in range(-r, r + 1)])


def build_bset(group: GroupSpec, kappa: int) -> BSet:
    """Deterministic construction of the base set for (group, kappa)."""
    if group.is_finite:
        raise FiniteGroupError("base-set construction requires an infinite group")
    if kappa < 2:
        raise ValueError("kappa must be >= 2")
    if exceptional_family(group, kappa):
        raise ExceptionalGroupError(f"index {kappa} is unattainable in {group}")
    zero = group.zero()
    factors = group.factors

    if kappa == 2:
        return BSet(group, 2, ElementSet.of(group, [zero]), K2_ZERO)

    if kappa == 3:
        # a unit of order != 3: a Prufer(3) unit at level 2, no Z_3 or Z_3^w unit
        ranks = (INFINITE_CYCLIC,), (PRUFER,), (REPEATED_CYCLIC,), (CYCLIC,)
        i = next(_carriers(group, *ranks, accept=lambda f: f.kind == PRUFER or f.param != 3), None)
        if i is None:
            raise NoCarrierError("no generator of order != 3 is available")
        g = _unit(group, (i,), above=3 if factors[i].param == 3 else 1)
        return BSet(group, 3, _symmetric_hull(g, 1), K3)

    if kappa == 4:
        # a unit of order > 5 on Z, then Prufer, then Z_n and Z_n^w together
        torsion = (CYCLIC, REPEATED_CYCLIC)
        ranks = (INFINITE_CYCLIC,), (PRUFER,), torsion
        i = next(_carriers(group, *ranks, accept=lambda f: f.kind not in torsion or f.param > 5), None)
        if i is not None:
            return BSet(group, 4, _symmetric_hull(_unit(group, (i,), above=5), 2), K4_ORDER_GT5)
        # every factor is now Z_n or Z_n^w with n <= 5; the sum of their
        # units has order lcm(n)
        if lcm(*(f.param for f in factors)) > 5:
            g = _unit(group, range(len(factors)))
            return BSet(group, 4, _symmetric_hull(g, 2), K4_ORDER_GT5)
        i = next(_carriers(group, torsion, accept=lambda f: f.param % 3 == 0), None)
        if i is not None:
            h = _unit(group, (i,), factors[i].param // 3)
            return BSet(group, 4, _symmetric_hull(h, 1), K4_Z3)
        # a Z_n unit fills one slot and a Z_n^w block two; only two are built
        order45 = _carriers(group, torsion, accept=lambda f: f.param in (4, 5))
        slots = [(i, c) for i in order45 for c in range(1 + (factors[i].kind == REPEATED_CYCLIC))]
        slots = slots[:2]
        if len(slots) < 2:
            raise NoCarrierError("no pair of independent order-4/5 generators")
        base = ElementSet.of(group, [zero] + [_unit(group, (i,), copy=c) for i, c in slots])
        return BSet(group, 4, difference_set(base), K4_ZIZJ)

    # kappa > 4: carrier preference Z, then Prufer, then a repeated block
    i = next(_carriers(group, (INFINITE_CYCLIC,), (PRUFER,), (REPEATED_CYCLIC,)), None)
    if i is None:
        raise NoCarrierError(f"no factor of {group} can carry {kappa - 1} generators")
    kind = factors[i].kind
    if kind == REPEATED_CYCLIC:
        base = [_unit(group, (i,), copy=c) for c in range(kappa - 1)]
        return BSet(group, kappa, difference_set(ElementSet.of(group, base)), KN_DIRECT_SUM)
    # the differences of g, 2g, ..., (kappa-1)g are the k*g with |k| <= kappa-2,
    # all distinct since g has order above 2*kappa - 1
    g = _unit(group, (i,), above=2 * kappa - 1)
    return BSet(group, kappa, _symmetric_hull(g, kappa - 2), KN_Z if kind == INFINITE_CYCLIC else KN_PRUFER)


def check_property_1(bset: BSet, best: CliqueResult) -> ElementSet:
    """A (kappa-1)-point witness whose differences all stay inside the set:
    the first kappa-1 points of the witness of ``best``, the set's one
    solve, so the lexicographically-first one when the clique number is
    kappa-1, as on every built base set. Raises when the clique number is
    smaller than kappa-1 (a construction bug, surfaced).
    """
    if best.size < bset.kappa - 1:
        raise PropertyCheckFailedError(f"largest difference-compatible set has {best.size} < {bset.kappa - 1} points")
    return ElementSet(bset.group, best.witness.elements[: bset.kappa - 1])


def check_property_2(bset: BSet, best: CliqueResult) -> bool:
    """True iff no kappa-point set keeps all its differences inside the set:
    ``best``, the set's one solve, has fewer than kappa points."""
    return best.size <= bset.kappa - 1


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


def run_checks(bset: BSet) -> tuple[tuple, tuple]:
    """Pass/fail rows ``(name, holds, detail)`` for the two clique-side
    properties, both read from one solve."""
    best = max_clique_in_bset(bset.elements)
    try:
        first = ("property_1", True, check_property_1(bset, best).to_texts())
    except PropertyCheckFailedError as exc:
        first = ("property_1", False, str(exc))
    return first, ("property_2", check_property_2(bset, best), best.size)
