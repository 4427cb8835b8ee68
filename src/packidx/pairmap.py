"""Maps from index pairs to index pairs: validation and exhaustive search.

A map f from the 2-element subsets of {0..a-1} into the 2-element subsets
of {0..b-1} is *separately injective* when fixing one index makes it
injective in the other, and *preserves intersections* when images of pairs
sharing an index always intersect. Backtracking over the pair table with
early pruning, on image bitmasks and an explicit stack, and counting the
subtrees that a codomain permutation maps onto exhausted ones instead of
walking them, decides, exhaustively, whether any map has both properties
for given sizes; the combinatorial fact being exercised is that none
exists once a >= 5 and b < a.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import PreconditionError, SearchBudgetExceededError

DEFAULT_NODE_BUDGET = 50_000_000


def domain_pairs(n: int) -> list[tuple[int, int]]:
    """All pairs {i, j} with i < j < n, in colexicographic order."""
    return [(i, j) for j in range(n) for i in range(j)]


def codomain_pairs(n: int) -> list[tuple[int, int]]:
    return list(combinations(range(n), 2))


def _pair_rank(i: int, j: int) -> int:
    return j * (j - 1) // 2 + i


@dataclass(frozen=True)
class PairMap:
    """A total map on index pairs; ``table[k]`` is the image of the k-th
    domain pair in colex order."""

    size_a: int
    size_b: int
    table: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.size_a < 2 or self.size_b < 2:
            raise PreconditionError("both index sets need at least two points")
        if len(self.table) != self.size_a * (self.size_a - 1) // 2:
            raise PreconditionError("table must cover every domain pair")
        for k, l in self.table:
            if not (0 <= k < l < self.size_b):
                raise PreconditionError(f"image ({k},{l}) is not a codomain pair")

    def image(self, i: int, j: int) -> tuple[int, int]:
        if i > j:
            i, j = j, i
        if i == j or i < 0 or j >= self.size_a:
            raise PreconditionError(f"({i},{j}) is not a domain pair")
        return self.table[_pair_rank(i, j)]

    @classmethod
    def from_function(cls, size_a: int, size_b: int, fn) -> PairMap:
        table = tuple(
            tuple(sorted(fn(i, j))) for i, j in domain_pairs(size_a)
        )
        return cls(size_a, size_b, table)


@dataclass(frozen=True)
class Validation:
    separately_injective: bool
    preserves_intersections: bool

    @property
    def valid(self) -> bool:
        return self.separately_injective and self.preserves_intersections


def validate_pairmap(f: PairMap) -> Validation:
    """Evaluate both predicates by full quantifier sweep."""
    sep = True
    for a in range(f.size_a):
        images = [f.image(x, a) for x in range(f.size_a) if x != a]
        if len(set(images)) != len(images):
            sep = False
            break
    pres = True
    for a0 in range(f.size_a):
        others = [x for x in range(f.size_a) if x != a0]
        for a1, a2 in combinations(others, 2):
            if not set(f.image(a0, a1)) & set(f.image(a0, a2)):
                pres = False
                break
        if not pres:
            break
    return Validation(sep, pres)


class _Search:
    """Depth-first assignment of images to domain pairs in colex order.

    Two pairs sharing exactly one domain index constrain each other: their
    images must differ yet intersect. Pairs sharing no index are free, so
    checking each new assignment against its overlapping predecessors prunes
    every violation as early as it can appear.

    Images are bits, and ``through[x]`` holds the images that contain point
    x. Placing image s = {k, l} on level p stores its reach, ``(through[k]
    | through[l]) ^ (1 << s)``: the images that differ from s but meet it.
    A level's candidates are the AND of the reach of its overlapping
    predecessors. Level k = (i, j) keeps that AND in two parts: ``col[k]``
    over {x, j} for x < i, and ``row[k]`` over {i, x} for x < j, x != i.
    Each is one AND on a part an earlier level holds: ``col[k]`` on
    ``col[k - 1]``, level (i - 1, j); ``row[k]`` on ``row[k - (j - 1)]``,
    level (i, j - 1), or at i = j - 1 on ``col[k - j]``, level (j - 2,
    j - 1). Levels keep their untried candidates on an explicit stack and
    are walked low bit first, which is lexicographic image order.

    The constraints are invariant under every permutation of the codomain
    points, and a permutation of the points no placed image uses fixes
    every placed image. So once a candidate's subtree is exhausted without
    a map, each untried candidate that such a permutation maps it onto, a
    *mate*, roots a subtree with the same node count and depth and no map.
    Mates are cleared and their subtrees counted, not walked.
    """

    def __init__(self, size_a: int, size_b: int, node_budget: int):
        if size_a < 2 or size_b < 2:
            raise PreconditionError("both sizes must be at least 2")
        self.pairs = domain_pairs(size_a)
        self.images = codomain_pairs(size_b)
        through = [0] * size_b
        for s, (k, l) in enumerate(self.images):
            through[k] |= 1 << s
            through[l] |= 1 << s
        self.through = through
        # per level k = (i, j): whether col narrows level k - 1's, whether
        # row narrows a row (else a col), and the level it narrows; level
        # 0's entry is never read, as level 0 has no predecessors
        self.links = [
            (i > 0, i < j - 1, k - j + 1 if i < j - 1 else k - j)
            for k, (i, j) in enumerate(self.pairs)
        ]
        self.size_a = size_a
        self.size_b = size_b
        self.node_budget = node_budget
        self.nodes = 0
        self.placed = 0

    def run(self, limit: int) -> list[PairMap]:
        """Up to ``limit`` valid maps in canonical order; none when ``limit``
        is below 1.

        ``nodes`` counts accepted candidates of the whole canonical tree:
        a mate's subtree counts as if walked. ``placed`` counts the
        candidates actually placed. A budget error also carries the most
        domain pairs placed at once; both count the placement that runs
        over the budget. When counting mates runs over the budget, the
        error carries ``budget + 1`` nodes and the depth so far: a walk
        would have stopped inside a subtree isomorphic to one already
        walked, whose depth that already counts.
        """
        found: list[PairMap] = []
        if limit < 1:
            return found
        images, through = self.images, self.through
        last = len(self.pairs)
        full = (1 << len(images)) - 1
        col = [full] * last
        row = [full] * last
        reach = [0] * last
        links = [(narrow, row if from_row else col, p) for narrow, from_row, p in self.links]
        # per level: the points the images placed above it use, the images
        # meeting those points, and the images with both points among them
        touched = [0] * last
        meets = [0] * last
        inside = [0] * last
        # nodes counted when each level's current candidate was placed
        start = [0] * last
        assignment = [0] * last
        budget = self.node_budget
        nodes = depth = placed = 0
        # levels below ``mapped`` hold a candidate with a map below it
        mapped = 0
        cand = [0] * last
        cand[0] = full
        idx = 0
        while idx >= 0:
            c = cand[idx]
            if not c:
                idx -= 1
                if idx < mapped:
                    continue
                # the candidate on level idx is exhausted without a map
                k, l = images[assignment[idx]]
                t = touched[idx]
                if t >> k & 1:
                    mates = 0 if t >> l & 1 else through[k] & ~inside[idx]
                elif t >> l & 1:
                    mates = through[l] & ~inside[idx]
                else:
                    mates = full ^ meets[idx]
                mates &= cand[idx]
                if mates:
                    cand[idx] ^= mates
                    nodes += mates.bit_count() * (nodes - start[idx] + 1)
                    if nodes > budget:
                        raise SearchBudgetExceededError(budget + 1, budget, depth)
                continue
            low = c & -c
            cand[idx] = c ^ low
            nodes += 1
            placed += 1
            if idx >= depth:
                depth = idx + 1
            if nodes > budget:
                raise SearchBudgetExceededError(nodes, budget, depth)
            s = low.bit_length() - 1
            assignment[idx] = s
            start[idx] = nodes
            if idx < mapped:
                mapped = idx
            k, l = images[s]
            reach[idx] = (through[k] | through[l]) ^ low
            idx += 1
            if idx == last:
                found.append(PairMap(self.size_a, self.size_b, tuple(images[s] for s in assignment)))
                if len(found) >= limit:
                    break
                mapped = last
                idx -= 1
                continue
            t, m, ins = touched[idx - 1], meets[idx - 1], inside[idx - 1]
            if not t >> k & 1:
                ins |= through[k] & m
                m |= through[k]
            if not t >> l & 1:
                ins |= through[l] & m
                m |= through[l]
            touched[idx], meets[idx], inside[idx] = t | 1 << k | 1 << l, m, ins
            narrow, parts, p = links[idx]
            c = col[idx] = col[idx - 1] & reach[idx - 1] if narrow else full
            r = row[idx] = parts[p] & reach[p]
            cand[idx] = c & r
        self.nodes = nodes
        self.placed = placed
        return found


def search_pairmap(
    size_a: int, size_b: int, node_budget: int = DEFAULT_NODE_BUDGET
) -> tuple[PairMap | None, int]:
    """Exhaustive search for a map with both properties.

    Returns (witness, nodes_visited); the witness is the canonical
    (colex pair order, lex image order) first valid map when one exists,
    else None once the whole tree has been exhausted. ``nodes_visited``
    and ``node_budget`` count the canonical tree, in which the subtrees of
    a finished candidate's mates (see ``_Search``) are counted, not walked.
    """
    search = _Search(size_a, size_b, node_budget)
    found = search.run(limit=1)
    return (found[0] if found else None), search.nodes


def iter_valid_maps(size_a: int, size_b: int, limit: int) -> list[PairMap]:
    """Up to ``limit`` valid maps in canonical search order."""
    return _Search(size_a, size_b, DEFAULT_NODE_BUDGET).run(limit=limit)


def common_point(f: PairMap, a0: int) -> int | None:
    """Smallest point lying in every image f({a, a0}); None when the
    intersection is empty (possible only below the size-5 threshold for
    valid maps)."""
    if not 0 <= a0 < f.size_a:
        raise PreconditionError("a0 must be a domain index")
    inter: set[int] | None = None
    for a in range(f.size_a):
        if a == a0:
            continue
        img = set(f.image(a, a0))
        inter = img if inter is None else inter & img
        if not inter:
            return None
    return min(inter) if inter else None
