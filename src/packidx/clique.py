"""Exact maximum-clique search on bit-packed adjacency lists.

Graphs are given as ``adj``: a list where ``adj[v]`` is the integer bitmask
of v's neighbours. The solver is a branch-and-bound search with a greedy
sequential-coloring bound (MCQ: Tomita & Seki, DMTCS 2003); it is exact and
fully deterministic. These refinements, the first three from the
bit-parallel BBMC line (San Segundo et al., Comput. Oper. Res. 2011), cut
its cost:

* k_min pruning: a node's coloring keeps only the vertices whose color could
  still beat the bound (``kmin`` in ``color_sort``); the rest can never pass
  the bound test, so they are colored, in a loop that lists nothing, but not
  listed or branched on there.
* complement rows: the coloring reads ``nadj[v]``, the non-negative mask
  of the vertices that are neither v nor its neighbours
  (``complement_rows``), so a colored vertex drops itself and its
  neighbours from its class with one AND. The table is built once per graph
  searched and shared by the size search and every extraction decision.
* a degree-ordered root: ``first_max_clique`` renumbers the vertices by
  descending degree first, ties by the caller's numbering, so the greedy
  coloring takes the dense part of the graph first and finds a large
  clique early.
* one root branch: ``first_max_clique`` given a vertex known to lie in a
  maximum clique (the corner of a window with one ``Z`` factor) searches
  that vertex's neighbourhood alone.
* translation symmetry, on a Cayley graph searched around vertex 0 (the
  root search of a subgroup window): a root vertex v whose branch is done
  joins an explored set E together with -v, and a node that adds w drops
  its candidates in w + E (see ``_search``).
* reflection, on the same search: inside the root branch of r, a depth-1
  vertex w whose branch is done takes r - w out of the candidates with it.
* co-components: ``first_max_clique`` splits the graph into the connected
  components of its complement (``co_components``). The graph is their
  join (Gallai, Acta Math. Acad. Sci. Hungar. 1967), so each is searched
  apart and the clique number is the sum. On a Cayley graph the component
  of vertex 0 is a subgroup K and the others its cosets, so one root
  search inside K sizes every component.

``max_clique_size`` and ``exists_clique`` are one search, ``_search``; the
decision stops at its first clique of the target size, and each can hand
its clique back. ``clique_of_size`` picks vertices in the caller's
numbering, so the lexicographically-first witness is the same under any
search schedule, but it decides on the graph the size search used,
through a ``place`` map, and skips each decision a known clique or a
mirror already answers (orbit pruning as in McKay, Congr. Numer. 1981).
On a split graph it keeps its state per component, in one pass. A separate
subset-DP oracle re-derives the clique number by brute force so the two
routes can be cross-checked against each other: it decides every one of
the 2^n vertex masks, bit-parallel in one big-int bitset per clique size,
with no bound and no search order.
"""

from __future__ import annotations

from typing import Callable

ORACLE_LIMIT = 24


def _by_degree(adj: list[int], place: list[int] | None = None) -> tuple[list[int], list[int]]:
    """The same graph with each vertex renamed to its place in
    descending-degree order, and that renaming, from adj's vertices. Ties
    go by the caller's numbering: ``place[v]`` is the vertex of adj that
    the caller numbers v (None: adj's own)."""
    n = len(adj)
    if place is None:
        place = list(range(n))
    order = sorted(range(n), key=lambda v: (-adj[place[v]].bit_count(), v))
    at = [0] * n
    for i, v in enumerate(order):
        at[place[v]] = i
    return relabel(adj, at), at


def _rename(mask: int, place: list[int]) -> int:
    """The mask with vertex v renamed ``place[v]``."""
    n = len(place)
    full = (1 << n) - 1
    # renaming is a bijection, so a dense mask is renamed via its complement
    flip = 2 * mask.bit_count() > n
    rest = full ^ mask if flip else mask
    out = 0
    while rest:
        low = rest & -rest
        out |= 1 << place[low.bit_length() - 1]
        rest ^= low
    return full ^ out if flip else out


def relabel(adj: list[int], place: list[int]) -> list[int]:
    """The same graph with vertex v renamed ``place[v]``; ``place`` must be a
    permutation of the vertices."""
    renamed = [0] * len(adj)
    for v, adjacent in enumerate(adj):
        renamed[place[v]] = _rename(adjacent, place)
    return renamed


def complement_rows(adj: list[int]) -> list[int]:
    """The table ``nadj[v] = full & ~(adj[v] | 1 << v)`` that ``color_sort``
    reads: ANDed into a color class, one row drops v and its neighbours at
    once. A non-negative row keeps the AND off CPython's negative path."""
    full = (1 << len(adj)) - 1
    return [full & ~(row | 1 << v) for v, row in enumerate(adj)]


def color_sort(P: int, nadj: list[int], kmin: int) -> tuple[list[int], list[int]]:
    """Order the vertices of P into greedy color classes.

    Returns (order, colors) with colors non-decreasing; ``colors[i]`` is an
    upper bound on the largest clique among the vertices of P whose color
    is at most ``colors[i]``, listed or not. All of P is colored, but only
    vertices of color at least ``kmin`` are listed: a vertex of lower color
    cannot lead to a clique large enough to matter. ``nadj`` is the graph's
    ``complement_rows`` table.
    """
    color = 0
    # the classes below kmin: colored, never listed
    while P and color < kmin - 1:
        color += 1
        Q = P
        while Q:
            bit = Q & -Q
            P ^= bit
            Q &= nadj[bit.bit_length() - 1]
    order: list[int] = []
    colors: list[int] = []
    while P:
        color += 1
        Q = P
        while Q:
            bit = Q & -Q
            v = bit.bit_length() - 1
            order.append(v)
            colors.append(color)
            P ^= bit
            Q &= nadj[v]
    return order, colors


def _search(
    adj: list[int],
    nadj: list[int],
    P: int,
    best: int,
    stop: int,
    neg: list[int] | None = None,
    translate: Callable[[int, int], int] | None = None,
    witness: list[int] | None = None,
) -> int:
    """The clique number of the subgraph induced by P if it exceeds ``best``,
    else ``best``; the search ends at the first clique of ``stop`` vertices.
    Each node holds the clique it extends, so the clique of the last
    improvement is appended to ``witness``, if given, at the end. ``nadj``
    is adj's ``complement_rows`` table.

    With ``neg`` and ``translate``, adj is a Cayley graph with vertex 0 the
    identity and P is N(0): ``neg[v]`` is the vertex -v, and
    ``translate(mask, v)`` is the mask translated by v. Once the root branch
    of v is done, ``best`` bounds every clique through 0 and v, and by
    translation every clique through 0 and -v, so both join the explored
    set E and leave the root's candidates. A node that adds w then drops
    its candidates in w + E: translating by -w maps a clique through 0, w
    and w + e onto one through 0 and e. Inside the root branch of r, the
    reflection x -> r - x swaps 0 and r and maps a clique through 0, r and
    r - w onto one through r, 0 and w; so once the branch of w is done at
    depth 1, r - w leaves the candidates too. Those candidates,
    N(0) ∩ N(r) less E and r + E, are closed under the reflection, as E is
    symmetric. A vertex dropped by a rule may sit later in a node's color
    order, so every node skips what has left its candidates.
    """
    explored = found = 0

    def expand(size: int, cand: int, held: int) -> bool:
        nonlocal best, explored, found
        order, colors = color_sort(cand, nadj, best - size + 1)
        for i in range(len(order) - 1, -1, -1):
            if size + colors[i] <= best:
                return False
            v = order[i]
            if not cand >> v & 1:
                continue  # dropped by symmetry after the coloring
            sub = cand & adj[v]
            if explored and sub:
                sub &= ~translate(explored, v)
            if sub and size + 1 < stop:
                if expand(size + 1, sub, held | 1 << v):
                    return True
            elif size + 1 > best:
                best = size + 1
                found = held | 1 << v
                if best >= stop:
                    return True
            cand &= ~(1 << v)
            if translate is not None:
                if not size:
                    explored |= 1 << v | 1 << neg[v]
                    cand &= ~explored
                elif size == 1:
                    cand &= ~translate(1 << neg[v], held.bit_length() - 1)  # r - v, r the one vertex held
        return False

    if P:
        expand(0, P, 0)
    if witness is not None:
        witness.extend(_vertices(found))
    return best


def _vertices(mask: int) -> list[int]:
    """The vertices of a mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def max_clique_size(
    adj: list[int],
    P: int,
    neg: list[int] | None = None,
    translate: Callable[[int, int], int] | None = None,
    nadj: list[int] | None = None,
    witness: list[int] | None = None,
) -> int:
    """Exact clique number of the subgraph induced by the mask P.

    On a Cayley graph, P = N(0) with ``neg`` and ``translate`` (see
    ``_search``) prunes the search by translation symmetry. ``nadj`` may
    hand in adj's ``complement_rows`` table, built here otherwise. A clique
    of the size returned is appended to ``witness``, if given.
    """
    if nadj is None:
        nadj = complement_rows(adj)
    return _search(adj, nadj, P, 0, len(adj) + 1, neg, translate, witness)


def exists_clique(
    adj: list[int],
    P: int,
    target: int,
    witness: list[int] | None = None,
    nadj: list[int] | None = None,
) -> bool:
    """Exact decision: does the subgraph induced by P contain a target-clique?

    On yes, the clique found is appended to ``witness``, if given. ``nadj``
    may hand in adj's ``complement_rows`` table, built here otherwise.
    """
    if target <= 0:
        return True
    if nadj is None:
        nadj = complement_rows(adj)
    return _search(adj, nadj, P, target - 1, target, witness=witness) >= target


def co_components(nadj: list[int]) -> list[int]:
    """The connected components of the complement graph, as masks, in the
    order of their lowest vertices, found by a search over the graph's
    ``complement_rows`` table ``nadj``. Every edge between two components
    is present, so a maximum clique is one of each component."""
    rest = (1 << len(nadj)) - 1
    blocks = []
    while rest:
        block = frontier = rest & -rest
        rest ^= block
        while frontier and rest:
            bit = frontier & -frontier
            frontier ^= bit
            new = nadj[bit.bit_length() - 1] & rest
            rest ^= new
            frontier |= new
            block |= new
        blocks.append(block)
    return blocks


def clique_of_size(
    adj: list[int],
    target: int | list[int],
    P: int | list[int] | None = None,
    place: list[int] | None = None,
    nadj: list[int] | None = None,
    known: list[int] | None = None,
    neg: Callable[[int], int] | None = None,
    translate: Callable[[int, int], int] | None = None,
) -> list[int] | None:
    """Lexicographically-first clique of exactly ``target`` vertices, or None.

    The decisions run on ``adj``, while the picks follow the caller's
    numbering: ``place[v]`` is the vertex of adj that the caller numbers v
    (None: the same numbering). ``P`` is a mask in adj's numbering, and
    the clique comes back in the caller's. The extraction is one pass over
    v = 0, 1, ...: every vertex scanned before a pick has left P, so the
    picks ascend, and the witness does not depend on any search schedule.
    It also decides feasibility: when the pass ends short, there is none.
    Every decision reads one ``complement_rows`` table of adj: ``nadj``,
    else one built here.

    The pass keeps a known clique K of the size still needed inside P:
    the caller's (``known``, one mask per block, 0 for none), then each
    yes-decision's. A scanned u is taken without a search when it lies in
    K (K less u is the new K) or when exactly one vertex of K lies
    outside N(u) (K ∩ N(u) is).

    With ``neg``, x -> -x is an automorphism of adj and ``neg(v)`` is -v.
    A no proves that u lies in no maximum clique through the picks, so
    while a reflection x -> c - x fixes the picks, c - u leaves P too:
    c = 0 while every pick is its own negative.

    On a join, ``P`` may list its blocks (``co_components``) and
    ``target`` the size wanted from each. The pass then keeps its state
    per block, and each decision reads its own block alone: that is the
    whole graph's lexicographically-first clique with those sizes.

    With ``translate`` as well, adj is a Cayley graph with vertex 0 the
    identity (see ``_search``), each block a coset of the block of 0, and
    ``known[0]`` a maximum clique of that block through 0: translated by
    the first vertex scanned in a block, it is that block's K. Any c gives
    a reflection there, so also c = 2a after one pick a and c = a + b
    after two, a and b.
    """
    n = len(adj)
    if P is None:
        P = (1 << n) - 1
    if isinstance(P, int):
        P, target = [P], [target]
    P = [mask if size else 0 for mask, size in zip(P, target)]
    needed = list(target)
    left = sum(needed)
    if not left:
        return []
    if nadj is None:
        nadj = complement_rows(adj)
    owner = [0] * n  # each vertex's block; one outside every block stays with block 0
    for i, block in enumerate(P[1:], 1):
        for u in _vertices(block):
            owner[u] = i
    known = [0] * len(P) if known is None else list(known)
    root = known[0]
    picks: list[list[int]] = [[] for _ in P]
    chosen: list[int] = []
    for v in range(n):
        u = v if place is None else place[v]
        i = owner[u]
        bit = 1 << u
        if not P[i] & bit:
            continue
        sub = P[i] & adj[u]
        if translate is not None and not picks[i]:
            known[i] = translate(root, u) if needed[i] > 1 else bit
        if known[i] & bit:
            known[i] ^= bit
        else:
            miss = known[i] & nadj[u]
            if miss and not miss & (miss - 1):
                known[i] ^= miss
            else:
                found: list[int] = []
                if not exists_clique(adj, sub, needed[i] - 1, found, nadj):
                    P[i] ^= bit
                    if neg is not None:
                        S = picks[i]
                        if translate is not None and 0 < len(S) < 3:
                            # c = 2a or a + b, as a vertex
                            c = translate(1 << S[0], S[-1]).bit_length() - 1
                            P[i] &= ~translate(1 << neg(u), c)
                        elif all(neg(a) == a for a in S):
                            P[i] &= ~(1 << neg(u))
                    continue
                known[i] = sum(1 << w for w in found)
        chosen.append(v)
        left -= 1
        if not left:
            return chosen
        needed[i] -= 1
        P[i] = sub if needed[i] else 0
        picks[i].append(u)
    return None


def first_max_clique(
    adj: list[int],
    root: int | None = None,
    place: list[int] | None = None,
    neg: list[int] | Callable[[int], int] | None = None,
    translate: Callable[[int, int], int] | None = None,
) -> tuple[int, list[int] | None]:
    """Exact clique number plus its lexicographically-first witness, in the
    caller's numbering: ``place[v]`` is the vertex of adj that the caller
    numbers v (None: adj's own). The witness is None only when the
    extraction fails to find a clique of the size the search proved.

    The graph is split into its complement's components (``co_components``)
    and each block is solved apart: the clique number is the sum of the
    blocks' and the witness is each block's lexicographically-first
    clique, picked in one extraction pass that starts from the clique each
    block's size search found. The size searches and every extraction
    decision run on one degree-ordered copy of the graph and share its
    ``complement_rows`` table. Degree ties go by the caller's numbering,
    so the copy, and with it every search, is the same whichever
    numbering adj comes in. A ``root`` vertex of adj that the caller
    knows to lie in some maximum clique narrows its block's search to one
    branch: that block's clique number is 1 + ω(N(root) ∩ block). A
    function ``neg`` gives -v when x -> -x is an automorphism of adj (see
    ``clique_of_size``).

    With ``translate``, ``neg`` is a list (see ``_search``), adj is a
    Cayley graph with vertex 0 the identity and ``root`` is 0. The search
    then runs on adj as given, with the symmetry rules. The block of 0 is
    a subgroup K, every other block a coset of it, and each coset's graph
    is a translate of K's: one root search on N(0) ∩ K gives every block's
    clique number, and its clique through 0, moved onto the first vertex
    scanned in a block, lets that vertex be taken without a decision.
    """
    if translate is None:
        graph, at = _by_degree(adj, place)
        scan = at if place is None else [at[u] for u in place]
        mirror = None
        if neg is not None:
            back = sorted(range(len(at)), key=at.__getitem__)
            mirror = lambda v: at[neg(back[v])]  # noqa: E731
    else:
        graph, at, scan = adj, range(len(adj)), place
        mirror = neg.__getitem__
    nadj = complement_rows(graph)
    blocks = co_components(nadj)
    r = None if root is None else at[root]

    def solve(block: int) -> tuple[int, int]:
        found: list[int] = []
        if r is None or not block >> r & 1:
            size = max_clique_size(graph, block, None, None, nadj, found)
        else:
            size = 1 + max_clique_size(graph, graph[r] & block, neg, translate, nadj, found)
            found.append(r)
        return size, sum(1 << v for v in found)

    solved = [solve(blocks[0])] * len(blocks) if translate is not None else [solve(b) for b in blocks]
    sizes = [size for size, _ in solved]
    known = [clique for _, clique in solved]
    return sum(sizes), clique_of_size(graph, sizes, blocks, scan, nadj, known, mirror, translate)


def exhaustive_max_clique_size(adj: list[int]) -> int:
    """Brute-force clique number via subset DP; independent of the solver.

    A mask m is a clique iff m less its top vertex v is a clique inside the
    lower neighbours of v. The recurrence runs bit-parallel: ``K[s]`` is a
    2^n-bit integer whose bit m is set iff mask m is an s-clique, and each
    vertex v in ascending order adds the s+1-cliques topped by v at once,
    ``(K[s] & ind) << 2^v``, where bit r of ``ind`` says that r lies inside
    the lower neighbours of v. Every one of the 2^n masks is decided, with
    no bound and no search order, so n is capped at ``ORACLE_LIMIT``.

    ``adj`` must be symmetric, as a graph's adjacency is: the recurrence
    reads each edge from its higher end only. A self-loop bit is ignored.
    """
    n = len(adj)
    if n > ORACLE_LIMIT:
        raise ValueError(f"exhaustive oracle supports at most {ORACLE_LIMIT} vertices, got {n}")
    K = [1]  # the empty mask is the one 0-clique
    for v in range(n):
        # submasks of the lower neighbours, by doubling once per neighbour
        ind = 1
        lower = adj[v] & ((1 << v) - 1)
        while lower:
            low = lower & -lower
            ind |= ind << low
            lower ^= low
        shift = 1 << v
        for s in range(len(K)):
            hit = K[s] & ind
            if hit:
                if s + 1 == len(K):
                    K.append(0)
                K[s + 1] |= hit << shift
    return len(K) - 1
