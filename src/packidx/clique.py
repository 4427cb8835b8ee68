"""Exact maximum-clique search on bit-packed adjacency lists.

Graphs are given as ``adj``: a list where ``adj[v]`` is the integer bitmask
of v's neighbours. The solver is a branch-and-bound search with a greedy
sequential-coloring bound (MCQ: Tomita & Seki, DMTCS 2003); it is exact and
fully deterministic. Two refinements from the bit-parallel BBMC line (San
Segundo et al., Comput. Oper. Res. 2011) cut its cost:

* k_min pruning: a node's coloring keeps only the vertices whose color could
  still beat the bound (``kmin`` in ``color_sort``); the rest can never pass
  the bound test, so they are colored but not listed or branched on there.
* a degree-ordered root: ``max_clique_size`` on a whole graph renumbers the
  vertices by descending degree first, so the greedy coloring takes the
  dense part of the graph first and finds a large clique early.

Only ``max_clique_size`` without a mask relabels; it returns a size alone.
``exists_clique`` and ``clique_of_size`` keep the caller's numbering, so the
lexicographically-first witness is the same under any search schedule. A
separate subset-DP oracle re-derives the clique number by brute force so the
two routes can be cross-checked against each other.
"""

from __future__ import annotations


def _lsb(x: int) -> int:
    return (x & -x).bit_length() - 1


def _by_degree(adj: list[int]) -> list[int]:
    """The same graph with vertex i renamed to its place in descending-degree
    order, ties broken by index."""
    n = len(adj)
    order = sorted(range(n), key=lambda v: (-adj[v].bit_count(), v))
    place = [0] * n
    for i, v in enumerate(order):
        place[v] = i
    full = (1 << n) - 1
    renamed = []
    for v in order:
        # renaming is a bijection, so a dense row is renamed via its complement
        flip = 2 * adj[v].bit_count() > n
        rest = full ^ adj[v] if flip else adj[v]
        row = 0
        while rest:
            low = rest & -rest
            row |= 1 << place[low.bit_length() - 1]
            rest ^= low
        renamed.append(full ^ row if flip else row)
    return renamed


def color_sort(P: int, adj: list[int], kmin: int) -> tuple[list[int], list[int]]:
    """Order the vertices of P into greedy color classes.

    Returns (order, colors) with colors non-decreasing; ``colors[i]`` is an
    upper bound on the largest clique inside ``order[: i + 1]``. All of P is
    colored, but only vertices of color at least ``kmin`` are listed: a
    vertex of lower color cannot lead to a clique large enough to matter.
    """
    order: list[int] = []
    colors: list[int] = []
    color = 0
    while P:
        color += 1
        Q = P
        while Q:
            bit = Q & -Q
            v = bit.bit_length() - 1
            if color >= kmin:
                order.append(v)
                colors.append(color)
            P ^= bit
            Q &= ~(bit | adj[v])
    return order, colors


def max_clique_size(adj: list[int], P: int | None = None) -> int:
    """Exact clique number of the subgraph induced by the mask P.

    Without P the whole graph is searched, renumbered by descending degree
    (ties by index); the size does not depend on the numbering.
    """
    if P is None:
        adj = _by_degree(adj)
        P = (1 << len(adj)) - 1
    best = 0

    def expand(size: int, cand: int):
        nonlocal best
        order, colors = color_sort(cand, adj, best - size + 1)
        for i in range(len(order) - 1, -1, -1):
            if size + colors[i] <= best:
                return
            v = order[i]
            sub = cand & adj[v]
            if sub:
                expand(size + 1, sub)
            elif size + 1 > best:
                best = size + 1
            cand &= ~(1 << v)

    if P:
        expand(0, P)
    return best


def exists_clique(adj: list[int], P: int, target: int) -> bool:
    """Exact decision: does the subgraph induced by P contain a target-clique?"""
    if target <= 0:
        return True

    def search(size: int, cand: int) -> bool:
        order, colors = color_sort(cand, adj, target - size)
        for i in range(len(order) - 1, -1, -1):
            if size + colors[i] < target:
                return False
            v = order[i]
            if size + 1 >= target:
                return True
            sub = cand & adj[v]
            if sub and search(size + 1, sub):
                return True
            cand &= ~(1 << v)
        return False

    return bool(P) and search(0, P)


def clique_of_size(adj: list[int], target: int, P: int | None = None) -> list[int] | None:
    """Lexicographically-first clique of exactly ``target`` vertices, or None.

    The extraction is a deterministic pass over vertex indices in ascending
    order, so the witness does not depend on the search schedule that
    established feasibility.
    """
    if P is None:
        P = (1 << len(adj)) - 1
    if target == 0:
        return []
    if not exists_clique(adj, P, target):
        return None
    chosen: list[int] = []
    needed = target
    while needed:
        rest = P
        while rest:
            v = _lsb(rest)
            rest &= rest - 1
            sub = P & adj[v]
            if exists_clique(adj, sub, needed - 1):
                chosen.append(v)
                P = sub
                needed -= 1
                break
            P &= ~(1 << v)
    return chosen


def first_max_clique(adj: list[int]) -> tuple[int, list[int]]:
    """Exact clique number plus its lexicographically-first witness."""
    size = max_clique_size(adj)
    witness = clique_of_size(adj, size) or []
    return size, witness


def exhaustive_max_clique_size(adj: list[int], limit: int = 20) -> int:
    """Brute-force clique number via subset DP; independent of the solver.

    Enumerates all 2^n vertex subsets, so n is capped at ``limit``.
    """
    n = len(adj)
    if n > limit:
        raise ValueError(f"exhaustive oracle supports at most {limit} vertices, got {n}")
    if n == 0:
        return 0
    is_clique = bytearray(1 << n)
    is_clique[0] = 1
    best = 0
    for m in range(1, 1 << n):
        v = (m & -m).bit_length() - 1
        rest = m ^ (1 << v)
        if is_clique[rest] and rest & ~adj[v] == 0:
            is_clique[m] = 1
            c = m.bit_count()
            if c > best:
                best = c
    return best
