"""Difference sets, translate disjointness, and exact packing-family search.

Two shifts b, b' are compatible for a set A when the translated copies
``b + A`` and ``b' + A`` are disjoint; a packing family is a set of pairwise
compatible shifts, i.e. a clique of the compatibility graph. The search here
is exact: branch-and-bound for the answer, plus an independent exhaustive
oracle used by the test suite to cross-check it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from . import clique
from .errors import (
    CertificationError,
    EmptySetError,
    GroupMismatchError,
    PreconditionError,
    WindowTooLargeError,
)
from .groups import (
    DenseBox,
    Element,
    GroupSpec,
    Window,
    apply_steps,
    enumerate_window,
    extents,
    format_element,
    format_group,
    hull_bounds,
    parse_element,
    parse_group,
    sum_bounds,
)

DEFAULT_MAX_VERTICES = 1024
# Largest box, in bits, that difference_mask builds around a set; a set
# spread wider gets its differences one pair at a time instead.
MAX_BOX_BITS = 1 << 20


@dataclass(frozen=True)
class ElementSet:
    """A finite set of elements of one group, in canonical iteration order.
    ``_differences`` keeps what :func:`difference_mask` worked out for the
    set, by region; it takes no part in equality or hashing."""

    group: GroupSpec
    elements: tuple[Element, ...]
    _differences: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @classmethod
    def of(cls, group: GroupSpec, elements: Iterable[Element]) -> ElementSet:
        seen = {}
        for e in elements:
            if e.group is not group and e.group != group:
                raise GroupMismatchError("set elements must share one group spec")
            seen[e.coords] = e
        ordered = sorted(seen.values(), key=Element.sort_key)
        return cls(group, tuple(ordered))

    @classmethod
    def parse(cls, group: GroupSpec, texts: Iterable[str]) -> ElementSet:
        return cls.of(group, (parse_element(group, t) for t in texts))

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[Element]:
        return iter(self.elements)

    def coords_set(self) -> frozenset:
        return frozenset(e.coords for e in self.elements)

    def to_texts(self) -> list[str]:
        return [format_element(e) for e in self.elements]


def difference_set(A: ElementSet) -> ElementSet:
    """All pairwise differences a - a'; symmetric and contains zero."""
    if not A.elements:
        raise EmptySetError("difference set of an empty set is undefined")
    return ElementSet.of(A.group, (x - y for x in A.elements for y in A.elements))


def difference_mask(A: ElementSet, region: tuple) -> tuple[DenseBox, int]:
    """The differences a - a' as a mask over a box that holds the box
    ``region``: on its whole box the mask is (A - A) ∩ box. A keeps the
    answer for each region, so the D a subgroup window's cover check reads
    is the D its graph reads, and the D a witness check reads is the D its
    index solve's graph reads. :func:`max_packing_family` stores the D of
    a set inside a subgroup window here first, on the window's own box.

    The mask is an OR of translates of A, so its box must hold A itself; a
    set spread past ``MAX_BOX_BITS`` gets the region's box instead, with
    its differences filtered one pair at a time.
    """
    answer = A._differences.get(region)
    if answer is not None:
        return answer
    group = A.group
    box = DenseBox(group, hull_bounds(region, extents(group, A.elements)))
    if box.size <= MAX_BOX_BITS:
        answer = box, box.diff_mask(box.mask_of(A.elements))
    else:
        box = DenseBox(group, region)
        diffs = (x - y for x in A.elements for y in A.elements)
        answer = box, box.mask_of(d for d in diffs if box.encode(d) is not None)
    A._differences[region] = answer
    return answer


def translates_disjoint(A: ElementSet, b: Element, b2: Element) -> bool:
    """True iff (b + A) and (b2 + A) share no element."""
    if b.coords == b2.coords and b.group == b2.group:
        raise PreconditionError("shifts must be distinct")
    left = {(b + a).coords for a in A.elements}
    return not any((b2 + a).coords in left for a in A.elements)


@dataclass(frozen=True)
class PackingFamily:
    """A set of shifts whose translates of ``base`` are pairwise disjoint."""

    base: ElementSet
    shifts: ElementSet
    certified: bool

    @property
    def size(self) -> int:
        return len(self.shifts)


def compatibility_graph(A: ElementSet, vertices: list[Element]) -> list[int]:
    """Bit-packed adjacency of the shift-compatibility graph on ``vertices``.

    Row i holds the vertices v with v - v_i outside the nonzero differences
    of A, that is the vertices missing from the translate of D* by v_i.
    When the vertices' codes ascend in one run from some lo, that translate
    shifted down by lo is the row itself: so on a subgroup window's box in
    code order (lo = 0), and on a window whose only or leftmost factor is
    ``Z``, in code order, when A's other coordinates lie inside the window.
    Any other vertex list has each row gathered from the translate by code.
    """
    if not vertices:
        return []
    group = A.group
    span = extents(group, vertices)
    box, diff = difference_mask(A, sum_bounds(group, span, span))
    dstar = diff & ~(1 << box.encode(group.zero()))
    codes = [box.encode(v) for v in vertices]
    full = (1 << len(vertices)) - 1
    lo = codes[0]
    if codes == list(range(lo, lo + len(codes))):
        return [full ^ ((box.translate(dstar, c) >> lo) & full) ^ (1 << i) for i, c in enumerate(codes)]
    # format() writes bit c at string position size-1-c; vertex n-1 comes first
    # so that the picked string reads as the row in binary
    pick = itemgetter(*(box.size - 1 - c for c in reversed(codes)))
    width = f"0{box.size}b"
    return [
        full ^ int("".join(pick(format(box.translate(dstar, c), width))), 2) ^ (1 << i)
        for i, c in enumerate(codes)
    ]


def _certify_family(A: ElementSet, shifts: Sequence[Element]) -> bool:
    """True iff the translates b + A are pairwise disjoint. The sums take
    the group's per-factor add on coordinates, as ``Element`` addition
    does, and never a box's codes. Fewer than two shifts have no pair that
    could meet."""
    if len(shifts) < 2:
        return True
    add = A.group._add
    covered: set = set()
    for b in shifts:
        translate = {add(b.coords, a.coords) for a in A.elements}
        if not covered.isdisjoint(translate):
            return False
        covered |= translate
    return True


def max_packing_family(A: ElementSet, window: Window) -> PackingFamily:
    """Exact maximum family of shifts inside the window, ties broken canonically.

    A window with no ``Z`` factor is a subgroup H (a whole ``Z_n``, the first
    m copies of ``Z_n^w``, ``Prufer(p)`` up to level L). Compatibility of b, b'
    depends only on b - b' in H, so the graph is the Cayley graph of H with
    connection set H minus (A - A); translation by h in H is an automorphism,
    so every vertex lies in a maximum clique. Shifts meet only when their
    difference lies in D* = (A - A) minus 0, so the graph is the join of
    its subgraphs on the cosets of K = <D* ∩ H>, each a translate of K's:
    the clique number is [H : K] times K's, and the one root branch at
    vertex 0, inside K, proves it (``clique.first_max_clique`` finds K as
    the complement's component of vertex 0, in the window's codes). That
    branch also prunes by translation: a neighbour v of 0 whose subtree is
    done bounds every clique through 0 and v or -v, so both are dropped
    from the root and, translated by each vertex a deeper node adds, from
    its candidates.
    Inside the root branch of r the search also drops r - w with each
    finished depth-1 vertex w, by the reflection x -> r - x. The
    lexicographically-first family is each coset's first family, extracted
    in one pass; each starts at the coset's first vertex in scan order,
    vertex 0 for K, with the root search's family moved onto it as
    known. When A - A covers the window, {0} is a maximum
    family and no graph is built. The window is the whole of its box
    (``window.box()``, kept with the window, tables and all): the graph is
    built on the box's elements in code order, where each row of a set A
    inside the window is a translate of D* with no gather, and the box's
    tables give ``neg`` and the steps for the rules. The search runs on
    that graph, and the extraction scans the window's enumeration order
    through the box's ``place``. A set inside the window gets its D on
    that box too, with its tables, stored where ``compatibility_graph``
    finds it; a set that leaves the window gets D on the hull box. When
    D's box has the window's bounds, the graph and so the family depend on
    D alone: the window keeps the finished family, the ``ElementSet`` of
    shifts, by D (``Window._families``), and a later set with the same D
    on the same window object skips the graph, the search, the extraction
    and the sort. Its D, its cover test and its certificate on its own
    coordinates are still worked out. A covered window's {0} is not kept.

    A window with a ``Z`` factor is no subgroup. With exactly one, of bound
    w, say Z + H, translate any family so that its lowest ``Z`` coordinate
    becomes -w and that shift's H part 0: the ``Z`` span of a family in the
    window is at most 2w and H is a subgroup, so the translate stays inside
    the window, and differences, hence compatibility, do not change. So the
    corner (-w, 0) lies in a maximum family. The graph is split into its
    complement's components, each solved apart, and one root branch at
    the corner proves the size of the corner's component. The family
    itself is the whole graph's lexicographically-first one, which need
    not hold the corner. A window with several ``Z`` factors gets a size
    search per component, with no root. A window with a ``Z`` factor is
    listed in code order, where the corner is vertex 0 and, with ``Z``
    leftmost and A's other coordinates inside the window, each row is a
    shifted translate of D*; the search reads the window's enumeration
    order through ``place``. x -> -x is an automorphism of the graph, and
    the box's ``neg`` hands it to the extraction.
    """
    if not A.elements:
        raise EmptySetError("packing index of the empty set is undefined")
    group = A.group
    if window.group is not group and window.group != group:
        raise GroupMismatchError("window and set belong to different groups")
    if window.size() > DEFAULT_MAX_VERTICES:
        raise WindowTooLargeError(window.size(), DEFAULT_MAX_VERTICES)
    if group._z_factors:
        box = window.box()
        place = box.codes(window.bounds)
        vertices = [None] * len(place)
        for e, c in zip(enumerate_window(window), place):
            vertices[c] = e
        adj = compatibility_graph(A, vertices)
        # with one Z factor the corner has the window's lowest code
        size, picked = clique.first_max_clique(adj, 0 if group._z_factors == 1 else None, place, box.neg)
        shifts = _extracted(group, vertices, place, size, picked)
    else:
        region = window.bounds
        box = window.box()
        vertices, index, neg, steps, place = box.tables()
        if region not in A._differences and all(a.coords in index for a in A.elements):
            # A lies inside the window: D on the window's own box, whose
            # tables the graph rows then read
            A._differences[region] = box, box.diff_mask(box.mask_of(A.elements))
        box, diff = difference_mask(A, region)
        # D's box has the window's bounds unless A leaves it
        own = box.size == len(vertices)
        inside = (1 << box.size) - 1 if own else box.mask_of(vertices)
        if diff & inside == inside:
            # D covers the window, so {0} is a maximum family; code 0 is zero
            shifts = ElementSet(group, (vertices[0],))
        else:
            shifts = window._families.get(diff) if own else None
            if shifts is None:
                adj = compatibility_graph(A, vertices)
                size, picked = clique.first_max_clique(adj, 0, place, neg, lambda mask, v: apply_steps(mask, steps[v]))
                shifts = _extracted(group, vertices, place, size, picked)
                if own:
                    window._families[diff] = shifts
    if not _certify_family(A, shifts.elements):
        raise CertificationError("the solver's family has intersecting translates")
    return PackingFamily(A, shifts, True)


def _extracted(
    group: GroupSpec, vertices: list[Element], place: list[int] | None, size: int, picked: list[int] | None
) -> ElementSet:
    """The solver's family as a set of shifts: ``picked`` indexes the
    enumeration order, read through ``place`` when that is not code order.
    A family short of the proven ``size``, missing or with a vertex picked
    twice, raises ``CertificationError``."""
    picked = picked or []
    if place is not None:
        picked = [place[i] for i in picked]
    shifts = ElementSet.of(group, (vertices[i] for i in picked))
    if len(shifts) != size:
        raise CertificationError(f"the solver found no family of the {size} shifts it proved")
    return shifts


@dataclass(frozen=True)
class CliqueResult:
    """Maximum set C with all pairwise differences inside a symmetric base set."""

    size: int
    witness: ElementSet
    certified: bool


def _bset_graph(B: ElementSet) -> tuple[list[Element], list[int]]:
    """B's elements, two joined when their difference lies in B: a clique is a C with C - C in B.
    Pairs i < j are tested on coordinates, with the add and negation ``Element`` subtraction runs."""
    group = B.group
    add, neg = group._add, group._neg
    coords = B.coords_set()
    if group.zero().coords not in coords:
        raise PreconditionError("the base set must contain zero")
    negs = [neg(e.coords) for e in B.elements]
    if not coords.issuperset(negs):
        raise PreconditionError("the base set must be symmetric")
    adj = [0] * len(negs)
    for i, a in enumerate(e.coords for e in B.elements):
        for j in range(i + 1, len(negs)):
            if add(a, negs[j]) in coords:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return list(B.elements), adj


def _certified_clique(B: ElementSet, vertices: list[Element], size: int, picked: list[int] | None) -> ElementSet:
    """The picked vertices as a set, once checked to be ``size`` distinct points
    whose differences lie in B, else ``CertificationError``. ``_bset_graph`` has
    refused a B without zero or not symmetric, so pairs i < j suffice, on coordinates."""
    if picked is None or len(picked) != size or len(set(picked)) != size:
        raise CertificationError(f"the solver found no clique of the {size} points it proved")
    add, neg = B.group._add, B.group._neg
    coords = B.coords_set()
    chosen = [vertices[i].coords for i in picked]
    negs = [neg(c) for c in chosen]
    if not all(add(a, negs[j]) in coords for i, a in enumerate(chosen) for j in range(i + 1, size)):
        raise CertificationError("the solver's clique has a difference outside the base set")
    return ElementSet.of(B.group, (vertices[i] for i in picked))


def max_clique_in_bset(B: ElementSet) -> CliqueResult:
    """Largest C with C - C inside B, searched over subsets of B itself: any
    such C, translated by one of its own points, sits inside B with the same
    differences. The witness is the lexicographically-first such C in B's
    order, through ``_certified_clique``."""
    vertices, adj = _bset_graph(B)
    size, picked = clique.first_max_clique(adj)
    return CliqueResult(size, _certified_clique(B, vertices, size, picked), True)


def clique_in_bset_of_size(B: ElementSet, target: int) -> ElementSet | None:
    """Lexicographically-first C of exactly ``target`` points with C - C in
    B, through ``_certified_clique``; None when there is none."""
    vertices, adj = _bset_graph(B)
    picked = clique.clique_of_size(adj, target)
    return None if picked is None else _certified_clique(B, vertices, target, picked)


# -- set files ----------------------------------------------------------------


def read_set_file(path: str | Path) -> ElementSet:
    """Load ``{"group": <DSL>, "elements": [...]}`` from a JSON file.

    Raises ValueError when the file is not JSON of that shape with string
    values.
    """
    data = json.loads(Path(path).read_text())
    if not (
        isinstance(data, dict)
        and isinstance(data.get("group"), str)
        and isinstance(data.get("elements"), list)
        and all(isinstance(t, str) for t in data["elements"])
    ):
        raise ValueError(
            f'{path}: expected {{"group": "<group spec>", "elements": ["<element>", ...]}}'
        )
    group = parse_group(data["group"])
    return ElementSet.parse(group, data["elements"])


def write_set_file(path: str | Path, A: ElementSet) -> None:
    payload = {"group": format_group(A.group), "elements": A.to_texts()}
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
