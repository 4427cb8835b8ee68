"""Difference sets, translate disjointness, and exact packing-family search.

Two shifts b, b' are compatible for a set A when the translated copies
``b + A`` and ``b' + A`` are disjoint; a packing family is a set of pairwise
compatible shifts, i.e. a clique of the compatibility graph. The search here
is exact: branch-and-bound for the answer, plus an independent exhaustive
oracle used by the test suite to cross-check it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Iterator

from . import clique
from .errors import (
    CertificationError,
    EmptySetError,
    GroupMismatchError,
    PreconditionError,
    WindowTooLargeError,
)
from .groups import (
    INFINITE_CYCLIC,
    DenseBox,
    Element,
    GroupSpec,
    Window,
    apply_steps,
    box_for,
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
    """A finite set of elements of one group, in canonical iteration order."""

    group: GroupSpec
    elements: tuple[Element, ...]

    @classmethod
    def of(cls, group: GroupSpec, elements: Iterable[Element]) -> ElementSet:
        seen = {}
        for e in elements:
            if e.group != group:
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

    def __contains__(self, e: Element) -> bool:
        return e.group == self.group and e.coords in self.coords_set()

    def coords_set(self) -> frozenset:
        return frozenset(e.coords for e in self.elements)

    def translate(self, b: Element) -> ElementSet:
        return ElementSet.of(self.group, (b + a for a in self.elements))

    def to_texts(self) -> list[str]:
        return [format_element(e) for e in self.elements]


def difference_set(A: ElementSet) -> ElementSet:
    """All pairwise differences a - a'; symmetric and contains zero."""
    if not A.elements:
        raise EmptySetError("difference set of an empty set is undefined")
    return ElementSet.of(A.group, (x - y for x in A.elements for y in A.elements))


def difference_mask(A: ElementSet, region: tuple) -> tuple[DenseBox, int]:
    """The differences a - a' lying in the box ``region``, as a mask over a
    box that holds the region.

    The mask is an OR of translates of A, so its box must hold A itself:
    a translate drops what leaves the box, and only the region is exact.
    """
    group = A.group
    box = box_for(group, hull_bounds(region, extents(group, A.elements)))
    if box.size <= MAX_BOX_BITS:
        amask = box.mask_of(A.elements)
        diff = 0
        for a in A.elements:
            diff |= box.translate(amask, -a)
        return box, diff
    box = box_for(group, region)
    diffs = (x - y for x in A.elements for y in A.elements)
    return box, box.mask_of(d for d in diffs if box.encode(d) is not None)


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
    """
    if not vertices:
        return []
    group = A.group
    span = extents(group, vertices)
    box, diff = difference_mask(A, sum_bounds(group, span, span))
    dstar = diff & ~(1 << box.encode(group.zero()))
    # format() writes bit c at string position size-1-c; vertex n-1 comes first
    # so that the picked string reads as the row in binary
    pick = itemgetter(*(box.size - 1 - box.encode(v) for v in reversed(vertices)))
    width = f"0{box.size}b"
    full = (1 << len(vertices)) - 1
    return [
        full ^ int("".join(pick(format(box.translate(dstar, v), width))), 2) ^ (1 << i)
        for i, v in enumerate(vertices)
    ]


def _certify_family(A: ElementSet, shifts: list[Element]) -> bool:
    """True iff the translates b + A are pairwise disjoint."""
    covered: set = set()
    for b in shifts:
        translate = {(b + a).coords for a in A.elements}
        if not covered.isdisjoint(translate):
            return False
        covered |= translate
    return True


def _root_clique_size(adj: list[int], window: Window, vertices: list[Element]) -> int:
    """Clique number of N(0) in the Cayley graph of a subgroup window,
    searched in code order under the translation rule of ``clique._search``.
    The window is its own box, and the search reads that box's tables:
    ``place`` to renumber the graph, ``neg`` and ``steps`` for the rule."""
    if not adj[0]:
        return 0
    _, _, neg, steps, place = box_for(window.group, window.bounds).tables(vertices)
    if place is not None:
        adj = clique.relabel(adj, place)
    return clique.max_clique_size(adj, adj[0], neg, lambda mask, v: apply_steps(mask, steps[v]))


def max_packing_family(A: ElementSet, window: Window) -> PackingFamily:
    """Exact maximum family of shifts inside the window, ties broken canonically.

    A window with no ``Z`` factor is a subgroup H (a whole ``Z_n``, the first
    m copies of ``Z_n^w``, ``Prufer(p)`` up to level L). Compatibility of b, b'
    depends only on b - b' in H, so the graph is the Cayley graph of H with
    connection set H minus (A - A); translation by h in H is an automorphism,
    so every vertex lies in a maximum clique, and the one root branch at
    vertex 0 proves the clique number. That branch also prunes by
    translation: a neighbour v of 0 whose subtree is done bounds every
    clique through 0 and v or -v, so both are dropped from the root and,
    translated by each vertex a deeper node adds, from its candidates. The
    lexicographically-first family then starts at vertex 0, the lowest
    index, so its extraction runs inside N(0). A window with a ``Z`` factor
    is no subgroup and gets the full search.
    """
    if not A.elements:
        raise EmptySetError("packing index of the empty set is undefined")
    if window.group != A.group:
        raise GroupMismatchError("window and set belong to different groups")
    size = window.size()
    if size > DEFAULT_MAX_VERTICES:
        raise WindowTooLargeError(size, DEFAULT_MAX_VERTICES)
    vertices = list(enumerate_window(window))
    adj = compatibility_graph(A, vertices)
    if any(f.kind == INFINITE_CYCLIC for f in A.group.factors):
        _, picked = clique.first_max_clique(adj)
    else:
        picked = [0] + clique.clique_of_size(adj, _root_clique_size(adj, window, vertices), adj[0])
    shifts = [vertices[i] for i in picked]
    if not _certify_family(A, shifts):
        raise CertificationError("the solver's family has intersecting translates")
    return PackingFamily(A, ElementSet.of(A.group, shifts), True)


@dataclass(frozen=True)
class CliqueResult:
    """Maximum set C with all pairwise differences inside a symmetric base set."""

    size: int
    witness: ElementSet
    certified: bool


def _bset_graph(B: ElementSet) -> tuple[list[Element], list[int]]:
    group = B.group
    coords = B.coords_set()
    zero = group.zero()
    if zero.coords not in coords:
        raise PreconditionError("the base set must contain zero")
    for e in B.elements:
        if (-e).coords not in coords:
            raise PreconditionError("the base set must be symmetric")
    vertices = list(B.elements)
    n = len(vertices)
    adj = [0] * n
    for i in range(n):
        vi = vertices[i]
        for j in range(i + 1, n):
            if (vi - vertices[j]).coords in coords:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return vertices, adj


def _verify_in_bset(B: ElementSet, chosen: list[Element]) -> bool:
    coords = B.coords_set()
    return all((a - b).coords in coords for a in chosen for b in chosen)


def max_clique_in_bset(B: ElementSet) -> CliqueResult:
    """Largest C with C - C inside B, searched over subsets of B itself.

    Any such C can be translated by one of its own points to sit inside
    B while keeping all differences, so the restriction loses nothing.
    """
    vertices, adj = _bset_graph(B)
    size, picked = clique.first_max_clique(adj)
    chosen = [vertices[i] for i in picked]
    if not _verify_in_bset(B, chosen):
        raise CertificationError("the solver's clique has a difference outside the base set")
    return CliqueResult(size, ElementSet.of(B.group, chosen), True)


def clique_in_bset_of_size(B: ElementSet, target: int) -> ElementSet | None:
    """Lexicographically-first C of exactly ``target`` points with C - C in B."""
    vertices, adj = _bset_graph(B)
    picked = clique.clique_of_size(adj, target)
    if picked is None:
        return None
    return ElementSet.of(B.group, [vertices[i] for i in picked])


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
