"""Constructive disjoint-family extensions and exhaustive finite-group sweeps.

In an exponent-3 group, any pair of disjoint translates extends to a triple
by shifting twice more around the 3-cycle. In a group of 2-torsion with at
most one Z_4 summand, any disjoint triple of translates extends to a
quadruple; which fourth shift works depends on a three-way case split over
the orders and Z_4 coordinates of the two nonzero shifts. The sweeps below
apply those extensions to every (or a sampled set of) nonzero subsets of a
small finite group and certify each produced family, demonstrating that no
subset's maximum family size lands exactly on the forbidden value.

Which groups a sweep covers is ``bsets.exceptional_family``, the same test
that rejects these families in ``build_bset``. A sweep checks the family on
the group's factors, and the 32-element cap and the exhaustive limit on its
cardinality, before it enumerates a single element.
"""

from __future__ import annotations

import random
import sys
from array import array
from collections import Counter
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from operator import itemgetter

from .bsets import exceptional_family
from .errors import (
    CertificationError,
    NotApplicableError,
    PreconditionError,
)
from .groups import Element, GroupSpec, Window, apply_steps
from .packing import ElementSet, _certify_family, max_packing_family, translates_disjoint

ORDER_TWO = "OrderTwo"
SAME_G = "SameG"
OPPOSITE_G = "OppositeG"

EXHAUSTIVE_LIMIT = 16


# -- case analysis -----------------------------------------------------------


def _z4_factor_index(group: GroupSpec) -> int | None:
    """Index of the single Z_4 summand in a covered group, if present."""
    if not exceptional_family(group, 4):
        raise NotApplicableError(
            f"{group} is outside the 2-torsion-with-one-Z_4 family"
        )
    return next((i for i, f in enumerate(group.factors) if f.param == 4), None)


@dataclass(frozen=True)
class TripleCase:
    """Case classification of a disjoint triple {0, b1, b2}."""

    variant: str
    swapped: bool  # the order-2 shift was the second argument
    b1: Element  # post-swap first shift (order 2 in the OrderTwo case)
    b2: Element
    g1: int  # Z_4 coordinates of b1, b2 (0 when the group has no Z_4 part)
    g2: int


def classify_triple(group: GroupSpec, b1: Element, b2: Element) -> TripleCase:
    """Total, unambiguous case split for nonzero distinct b1, b2."""
    if b1.is_zero() or b2.is_zero() or b1 == b2:
        raise PreconditionError("shifts must be nonzero and distinct")
    i4 = _z4_factor_index(group)
    swapped = b1.order() != 2 and b2.order() == 2
    if swapped:
        b1, b2 = b2, b1
    g1 = b1.coords[i4] if i4 is not None else 0
    g2 = b2.coords[i4] if i4 is not None else 0
    if b1.order() == 2:
        variant = ORDER_TWO
    elif g1 == g2:
        variant = SAME_G
    else:
        variant = OPPOSITE_G
    return TripleCase(variant, swapped, b1, b2, g1, g2)


def _fourth_shift(case: TripleCase) -> Element:
    """b1 + b2, b2 - b1 or b1 - b2 by variant. Outside the Z_4 coordinate
    every element has order 2, so the two differences agree with b1 + b2
    there; on it they give 0 (SameG) and g1 - g2 = 2 g1 (OppositeG)."""
    if case.variant == ORDER_TWO:
        return case.b1 + case.b2
    if case.variant == SAME_G:
        return case.b2 - case.b1
    return case.b1 - case.b2


def _certify(A: ElementSet, shifts: list[Element]) -> None:
    if len({b.coords for b in shifts}) != len(shifts):
        raise CertificationError("extension produced coinciding shifts")
    if not _certify_family(A, shifts):
        family = ", ".join(map(str, shifts))
        raise CertificationError(f"translates by {{{family}}} intersect after extension")


def extend_pair_exponent3(A: ElementSet, b: Element) -> ElementSet:
    """Extend a disjoint pair {0, b} with 3b = 0 to the certified triple
    of shifts {0, b, 2b}."""
    if b.is_zero():
        raise PreconditionError("b must be nonzero")
    if not b.scaled(3).is_zero():
        raise PreconditionError("b must satisfy 3b = 0")
    zero = A.group.zero()
    if not translates_disjoint(A, zero, b):
        raise PreconditionError("A and b + A must be disjoint")
    shifts = [zero, b, b.scaled(2)]
    _certify(A, shifts)
    return ElementSet.of(A.group, shifts)


def extend_triple(A: ElementSet, b1: Element, b2: Element) -> Element:
    """Produce the fourth shift completing a disjoint triple {0, b1, b2}
    to a certified disjoint quadruple; raises NotApplicable outside the
    covered 2-torsion family."""
    group = A.group
    zero = group.zero()
    for u, v in ((zero, b1), (zero, b2), (b1, b2)):
        if not translates_disjoint(A, u, v):
            raise PreconditionError(f"translates by {u} and {v} are not disjoint")
    case = classify_triple(group, b1, b2)
    b3 = _fourth_shift(case)
    _certify(A, [zero, b1, b2, b3])
    return b3


# -- bitmask sweep machinery ---------------------------------------------------


def _little_endian(table: array) -> array:
    """Swap ``table``'s items between host and little-endian byte order,
    which changes nothing on a little-endian host."""
    if sys.byteorder == "big":
        table.byteswap()
    return table


class _GroupTables:
    """Index arithmetic for one small finite group. Its elements, their
    codes and negatives and the translation steps are the tables of the
    box of ``window``, the group's one window, which the sweep's solver
    cross-checks read too; ``add`` is worked out on coordinates, with the
    group's per-factor add that :class:`Element` addition calls. The
    exhaustive difference masks (one 16-bit lane per subset) and
    ``_family_disjoint`` read ``add``; the sampled difference masks (one
    32-bit lane per draw) and ``_find_triple`` read the box's steps. Every solver cross-check of the
    sweep runs on the one ``window`` made here, so the families it keeps by
    difference mask last one sweep, as its box and the tables do.

    Element i has box code i, because a finite group's box numbers its codes
    in window order; so a subset is a mask of element indices. The group is
    finite and small: ``exhaustive_no_index_check`` checks both first.
    """

    def __init__(self, group: GroupSpec):
        self.group = group
        self.window = Window.for_group(group)
        tables = self.window.box().tables()
        assert tables.place is None
        self.elements, self.index, self.neg, self.steps, _ = tables
        self.n = len(self.elements)
        add, index = group._add, self.index
        coords = [a.coords for a in self.elements]
        self.add = [[index[add(a, b)] for b in coords] for a in coords]
        self.order = [a.order() for a in self.elements]
        self.order4 = sum(1 << i for i, o in enumerate(self.order) if o == 4)
        self.full = (1 << self.n) - 1
        self._pair_families: dict[tuple[int, int], tuple[str, tuple[int, ...]]] = {}

    def exhaustive_diff_masks(self) -> array:
        """The box's ``diff_mask(m)`` for m = 1, 2, ..., 2^n - 1, as a 16-bit
        table (``EXHAUSTIVE_LIMIT`` allows it).

        With x the top element of m and m' = m without x, D(m) = D(m') | E_x(m'),
        where E_x(m') holds 0 and x - i, i - x for each i in m'. Each table is
        one int with a 16-bit lane per subset, lane m' at bit 16 m': E_x's
        table doubles once per element i below x, each new lane the old lane
        OR i's two bits, and D's doubles once per x. The int becomes an
        ``array`` once, at the end.
        """
        add, neg = self.add, self.neg
        diffs = 0  # D's lanes for the subsets of the elements below x
        for x in range(self.n):
            e = ones = 1  # E_x's lanes, and a 1 in each of them
            for i in range(x):
                b = (1 << add[i][neg[x]]) | (1 << add[x][neg[i]])
                shift = 16 << i  # 16 bits a lane, 2^i lanes
                e |= (e | b * ones) << shift
                ones |= ones << shift
            diffs |= (diffs | e) << (16 << x)
        return _little_endian(array("H", diffs.to_bytes(2 << self.n, "little")[2:]))

    def sampled_diff_masks(self, masks: Sequence[int]) -> array:
        """The box's ``diff_mask(m)`` for each m in ``masks``, as a 32-bit
        table (the sweep's 32-element cap allows it).

        The masks go into one int with a 32-bit lane per mask, mask k at bit
        32 k. D(m) is the OR of m's translates by -x over the x in m; so for
        each element x of the group every lane is translated by -x at once,
        by the box's steps with each step mask cut to n bits and repeated in
        every lane, and only the lanes that hold x keep the translate:
        ``((M >> x) & ones) * full`` is all ones in those lanes. The int
        becomes an ``array`` once, at the end.
        """
        n, full, neg, steps = self.n, self.full, self.neg, self.steps
        ones = int.from_bytes(b"\1\0\0\0" * len(masks), "little")
        lanes = int.from_bytes(_little_endian(array("I", masks)).tobytes(), "little")
        # each distinct step mask, cut to n bits, in every lane
        cuts = {m for move in steps for low, _, high, _ in move for m in (low, high)}
        spread = {m: (m & full) * ones for m in cuts}
        diffs = 0
        for x in range(n):
            moved = lanes
            for low, up, high, down in steps[neg[x]]:
                moved = ((moved & spread[low]) << up) | ((moved & spread[high]) >> down)
            diffs |= moved & ((lanes >> x) & ones) * full
        return _little_endian(array("I", diffs.to_bytes(4 * len(masks), "little")))

    def family(self, b1: int, b2: int) -> tuple[str, tuple[int, ...]]:
        """Variant and element indices of the quadruple {0, b1, b2, b3} that
        ``classify_triple`` and ``_fourth_shift`` make from shifts b1, b2.
        Many difference masks share a shift pair, so each pair's answer is
        kept for the life of these tables, which is one sweep."""
        answer = self._pair_families.get((b1, b2))
        if answer is None:
            case = classify_triple(self.group, self.elements[b1], self.elements[b2])
            shifts = (case.b1, case.b2, _fourth_shift(case))
            answer = self._pair_families[b1, b2] = case.variant, (0, *(self.index[b.coords] for b in shifts))
        return answer


def _find_triple(t: _GroupTables, dstar: int, pool: int) -> tuple[int, int] | None:
    """First shifts b1 < b2 in ``pool`` (shifts compatible with 0) that are
    compatible with each other."""
    rest = pool
    while rest:
        b1 = (rest & -rest).bit_length() - 1
        rest &= rest - 1
        # b2 compatible with both 0 and b1, above b1 for determinism
        m = pool & ~apply_steps(dstar, t.steps[b1]) & ~((1 << (b1 + 1)) - 1)
        if m:
            return b1, (m & -m).bit_length() - 1
    return None


@dataclass(frozen=True)
class SweepReport:
    group: str
    kappa: int
    mode: str
    seed: int | None
    sample: int | None
    subsets_examined: int
    families_found: int
    extensions_certified: int
    no_family: int
    case_counts: tuple[tuple[str, int], ...]
    cross_checks: int
    violations: tuple[dict, ...]


def _family_disjoint(t: _GroupTables, dstar: int, family: tuple[int, ...]) -> bool:
    if len(set(family)) != len(family):
        return False
    add, neg = t.add, t.neg
    for i, u in enumerate(family):
        for v in family[i + 1 :]:
            if (1 << add[u][neg[v]]) & dstar:
                return False
    return True


def _verdict(t: _GroupTables, kappa: int, d: int) -> tuple[tuple[str, bool], ...]:
    """What a sweep step finds for any subset with difference mask ``d``:
    each extended family's variant and whether its translates are disjoint
    (empty when no (kappa-1)-family exists). It reads nothing but ``d``.

    At kappa 3 the family {0, b, 2b} needs 3b = 0, which the exponent-3
    family check before the sweep guarantees; a shift of another order
    raises ``CertificationError``, as ``extend_pair_exponent3`` raises on
    3b != 0."""
    dstar = d & ~1
    compat0 = ~dstar & t.full & ~1

    families: list[tuple[str, tuple[int, ...]]] = []
    if kappa == 3:
        if compat0:
            b = (compat0 & -compat0).bit_length() - 1
            if t.order[b] != 3:
                raise CertificationError(f"shift {t.elements[b]} has order {t.order[b]}, not 3")
            families.append(("Exponent3", (0, b, t.add[b][b])))
    else:
        hit = _find_triple(t, dstar, compat0)
        if hit is not None:
            variant, fam = t.family(*hit)
            families.append((variant, fam))
            if variant == ORDER_TWO and t.order4:
                # also certify the first triple with both shifts of
                # order 4, so the four-coordinate cases get exercised
                hit4 = _find_triple(t, dstar, compat0 & t.order4)
                if hit4 is not None:
                    families.append(t.family(*hit4))
    return tuple((variant, _family_disjoint(t, dstar, fam)) for variant, fam in families)


def _sweep(
    t: _GroupTables,
    kappa: int,
    masks: Sequence[int],
    diffs: Sequence[int],
    checked: Iterable[tuple[int, int]],
) -> dict:
    """SweepReport's counting fields; ``diffs[k]`` is the difference mask of
    ``masks[k]``, and ascending masks keep violations in subset order.

    Subsets share few difference masks, so the subsets are counted per
    distinct D, and each D's verdict is worked out once and counted that
    many times. Most subsets of an exhaustive sweep have the whole group
    as D, which leaves no shift compatible with 0 and so no family: those
    lanes are left out of the count and join "no family" as one number,
    and that D's verdict is the empty one. Only when some D is bad are the
    subsets scanned, to list each one's violations. ``checked`` holds the
    (mask, D) pairs of the subsets cross-checked against the solver, which
    runs on the subset itself. Element i has code i, window order and so ``sort_key`` order,
    so a subset's elements in index order make its ``ElementSet`` as is.
    """
    found = certified = checks = 0
    cases: dict[str, int] = {}
    bad: set[int] = set()
    verdicts: dict[int, tuple[tuple[str, bool], ...]] = {t.full: ()}
    counts = Counter(d for d in diffs if d != t.full)
    nofam = len(diffs) - counts.total()

    for d, count in counts.items():
        verdict = verdicts[d] = _verdict(t, kappa, d)
        if not verdict:
            nofam += count
            continue
        found += count
        for variant, disjoint in verdict:
            cases[variant] = cases.get(variant, 0) + count
            if disjoint:
                certified += count
            else:
                bad.add(d)

    violations: list[dict] = []
    if bad:
        for mask, d in zip(masks, diffs):
            if d not in bad:
                continue
            for variant, disjoint in verdicts[d]:
                if not disjoint:
                    violations.append(
                        {"subset": mask, "reason": f"{variant} extension not disjoint"}
                    )

    for mask, d in checked:
        checks += 1
        found_family = bool(verdicts[d])
        A = ElementSet(t.group, tuple(t.elements[i] for i in range(t.n) if mask >> i & 1))
        size = max_packing_family(A, t.window).size
        if found_family and size < kappa:
            violations.append({"subset": mask, "reason": f"solver max {size} < {kappa}"})
        if not found_family and size > kappa - 2:
            violations.append({"subset": mask, "reason": f"solver max {size} > {kappa - 2}"})
    # a stable sort: within a subset, the verdict's violations stay first
    violations.sort(key=itemgetter("subset"))

    return {
        "families_found": found,
        "extensions_certified": certified,
        "no_family": nofam,
        "case_counts": tuple(sorted(cases.items())),
        "cross_checks": checks,
        "violations": tuple(violations),
    }


def _validate_family_membership(group: GroupSpec, kappa: int) -> None:
    if kappa == 3:
        if not (group.is_finite and exceptional_family(group, 3)):
            raise NotApplicableError(f"{group} is not a finite exponent-3 group")
    elif kappa == 4:
        if not group.is_finite:
            raise NotApplicableError("sweeps run on finite groups only")
        _z4_factor_index(group)
    else:
        raise NotApplicableError("sweeps cover kappa in {3, 4} only")


def exhaustive_no_index_check(
    group: GroupSpec,
    kappa: int,
    sample: int | None = None,
    seed: int = 0,
) -> SweepReport:
    """Sweep subsets of a finite group, extending every found (kappa-1)-family
    to a certified kappa-family; reports must contain zero violations.

    Every nonzero subset is swept, or ``sample`` seeded random ones when a
    sample count is given. With N subsets swept, each subset whose mask is a
    multiple of max(1, N // 128) is also cross-checked against the exact
    solver: all 255 on ``Z_4 + Z_2``, 170 of the 511 on ``Z_3^2``, 128 of
    the 65,535 on ``Z_2^4``. The family and both size caps are checked on
    the group's spec before any element is listed.

    An exhaustive sweep builds every subset's difference mask at once, one
    16-bit lane per subset; a sampled sweep sorts its distinct draws and
    builds theirs at once too, one 32-bit lane per draw.

    Sampled masks are uniform, so a drawn subset holds about half the group
    and seldom has a disjoint (kappa-1)-family: at seed 7, ``Z_2^5`` at
    kappa 4 finds 0 families in 500 draws and 4 in 2,000, and ``Z_3^3`` at
    kappa 3 finds 4 and 34.
    """
    _validate_family_membership(group, kappa)
    n = group.cardinality
    if n > 32:
        raise NotApplicableError(f"sweep supports at most 32 elements, got {n}")
    if sample is None and n > EXHAUSTIVE_LIMIT:
        raise NotApplicableError(
            f"group has {n} elements; exhaustive sweeps stop at "
            f"{EXHAUSTIVE_LIMIT}, use sampled mode"
        )
    if sample is not None and sample < 1:
        raise PreconditionError("sampled mode needs a positive sample count")
    t = _GroupTables(group)

    if sample is None:
        mode = "exhaustive"
        masks = range(1, 1 << n)
        diffs = t.exhaustive_diff_masks()
        stride = max(1, len(masks) // 128)
        # mask k sits at index k - 1, so the multiples of stride are a slice
        checked = zip(range(stride, 1 << n, stride), diffs[stride - 1 :: stride])
        seed_used = None
    else:
        mode = "sampled"
        rng = random.Random(seed)
        masks = sorted({rng.randrange(1, 1 << n) for _ in range(sample)})
        diffs = t.sampled_diff_masks(masks)
        stride = max(1, len(masks) // 128)
        checked = [(mask, d) for mask, d in zip(masks, diffs) if mask % stride == 0]
        seed_used = seed

    return SweepReport(
        group=str(group),
        kappa=kappa,
        mode=mode,
        seed=seed_used,
        sample=sample,
        subsets_examined=len(masks),
        **_sweep(t, kappa, masks, diffs, checked),
    )
