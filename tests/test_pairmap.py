import itertools
import random

import pytest

from packidx.errors import PreconditionError, SearchBudgetExceededError
from packidx.pairmap import (
    PairMap,
    _Search,
    codomain_pairs,
    common_point,
    domain_pairs,
    iter_valid_maps,
    search_pairmap,
    validate_pairmap,
)


def reference_search(size_a, size_b, limit, node_budget=10**9):
    """The recursive search the bitset walk replaced: every codomain image
    in lexicographic order is tested against every overlapping predecessor.

    Returns (maps, nodes, depth) and raises SearchBudgetExceededError with
    the same fields; a node is an accepted image, and depth is the most
    domain pairs placed at once, both counting the placement that runs over
    the budget.
    """
    pairs = domain_pairs(size_a)
    images = codomain_pairs(size_b)
    overlaps = [
        [prev for prev in range(idx) if len(set(pair) & set(pairs[prev])) == 1]
        for idx, pair in enumerate(pairs)
    ]
    masks = [(1 << k) | (1 << l) for k, l in images]
    assignment = [0] * len(pairs)
    found = []
    stats = {"nodes": 0, "depth": 0}

    def place(idx):
        if idx == len(pairs):
            found.append(PairMap(size_a, size_b, tuple(images[s] for s in assignment)))
            return len(found) >= limit
        for s in range(len(images)):
            mask = masks[s]
            ok = True
            for prev in overlaps[idx]:
                p = assignment[prev]
                if p == s or not masks[p] & mask:
                    ok = False
                    break
            if not ok:
                continue
            stats["nodes"] += 1
            stats["depth"] = max(stats["depth"], idx + 1)
            if stats["nodes"] > node_budget:
                raise SearchBudgetExceededError(stats["nodes"], node_budget, stats["depth"])
            assignment[idx] = s
            if place(idx + 1):
                return True
        return False

    place(0)
    return found, stats["nodes"], stats["depth"]


def brute_force_validate(f):
    """Literal quantifier translation of both predicates; stays independent
    of the table-index bookkeeping inside validate_pairmap."""
    sep = all(
        f.image(x, a) != f.image(y, a)
        for a in range(f.size_a)
        for x in range(f.size_a)
        for y in range(f.size_a)
        if len({x, y, a}) == 3
    )
    pres = all(
        set(f.image(a0, a1)) & set(f.image(a0, a2))
        for a0 in range(f.size_a)
        for a1 in range(f.size_a)
        for a2 in range(f.size_a)
        if len({a0, a1, a2}) == 3
    )
    return sep, pres


class TestValidate:
    def test_identity_map(self):
        f = PairMap.from_function(5, 5, lambda i, j: (i, j))
        v = validate_pairmap(f)
        assert v.separately_injective and v.preserves_intersections

    def test_constant_map(self):
        f = PairMap.from_function(3, 4, lambda i, j: (1, 2))
        v = validate_pairmap(f)
        assert not v.separately_injective
        assert v.preserves_intersections

    def test_disjoint_images(self):
        images = {(0, 1): (0, 1), (0, 2): (2, 3), (1, 2): (4, 5)}
        f = PairMap.from_function(3, 6, lambda i, j: images[(i, j)])
        v = validate_pairmap(f)
        assert v.separately_injective
        assert not v.preserves_intersections

    @pytest.mark.parametrize("size_a,size_b", [(3, 3), (4, 3), (3, 2), (4, 2)])
    def test_consistent_with_brute_force_on_all_maps(self, size_a, size_b):
        pairs = domain_pairs(size_a)
        images = codomain_pairs(size_b)
        for table in itertools.product(images, repeat=len(pairs)):
            f = PairMap(size_a, size_b, table)
            v = validate_pairmap(f)
            assert (v.separately_injective, v.preserves_intersections) == brute_force_validate(f)

    def test_malformed_tables_rejected(self):
        with pytest.raises(PreconditionError):
            PairMap(3, 3, ((0, 1), (0, 2)))  # one pair short
        with pytest.raises(PreconditionError):
            PairMap(3, 3, ((0, 1), (0, 2), (0, 3)))  # image out of range
        with pytest.raises(PreconditionError):
            PairMap(1, 3, ())


class TestSearch:
    def test_unique_two_by_two_map(self):
        found, _ = search_pairmap(2, 2)
        assert found is not None and found.table == ((0, 1),)

    def test_boundary_is_empty(self):
        assert search_pairmap(5, 4)[0] is None
        assert search_pairmap(5, 3)[0] is None

    def test_square_case_has_witness(self):
        found, _ = search_pairmap(5, 5)
        assert found is not None
        assert validate_pairmap(found).valid

    def test_four_three_outcome_is_reported_not_presumed(self):
        # below the size-5 threshold; whatever comes back must self-validate
        found, _ = search_pairmap(4, 3)
        if found is not None:
            assert validate_pairmap(found).valid

    def test_found_maps_are_canonical_and_deterministic(self):
        a, _ = search_pairmap(5, 5)
        b, _ = search_pairmap(5, 5)
        assert a == b

    def test_every_enumerated_witness_is_valid(self):
        maps = iter_valid_maps(5, 5, limit=20)
        assert maps
        for f in maps:
            assert validate_pairmap(f).valid

    @pytest.mark.parametrize("limit", [0, -2])
    def test_limit_below_one_gives_no_maps(self, limit):
        assert iter_valid_maps(5, 5, limit=limit) == []

    def test_budget_is_enforced(self):
        with pytest.raises(SearchBudgetExceededError):
            search_pairmap(5, 5, node_budget=10)

    def test_sizes_below_two_rejected(self):
        with pytest.raises(PreconditionError):
            search_pairmap(1, 5)


GRID = [(a, b) for a in range(2, 8) for b in range(2, 8)] + [(8, b) for b in range(2, 7)]
BUDGETS = (1, 10, 1000, 5000)


def _budget_stop(search, *args, **kwargs):
    """(nodes, budget, depth) of the budget error ``search`` raises, else
    None."""
    try:
        search(*args, **kwargs)
    except SearchBudgetExceededError as exc:
        return exc.nodes, exc.budget, exc.depth
    return None


@pytest.mark.parametrize("size_a,size_b", GRID)
def test_search_matches_recursive_reference(size_a, size_b):
    maps, nodes, _ = reference_search(size_a, size_b, limit=1)
    assert search_pairmap(size_a, size_b) == ((maps[0] if maps else None), nodes)
    assert iter_valid_maps(size_a, size_b, limit=50) == reference_search(size_a, size_b, limit=50)[0]
    # the budgets from nodes run out inside a mate's subtree, which the
    # search counts but does not walk
    for budget in sorted({*BUDGETS, nodes - 1, nodes, nodes // 2, nodes // 15 + 1}):
        want = _budget_stop(reference_search, size_a, size_b, limit=1, node_budget=budget)
        assert _budget_stop(search_pairmap, size_a, size_b, node_budget=budget) == want


@pytest.mark.parametrize("size_a,size_b", [(7, 6), (8, 6)])
@pytest.mark.parametrize("budget", BUDGETS)
def test_budget_stops_match_recursive_reference(size_a, size_b, budget):
    # both searches run out, at the same node and depth
    with pytest.raises(SearchBudgetExceededError) as want:
        reference_search(size_a, size_b, limit=1, node_budget=budget)
    with pytest.raises(SearchBudgetExceededError) as got:
        search_pairmap(size_a, size_b, node_budget=budget)
    assert (got.value.nodes, got.value.depth) == (want.value.nodes, want.value.depth)
    assert got.value.nodes == budget + 1


@pytest.mark.parametrize("size_a", [8, 9])
def test_seven_point_codomain_count_is_pinned(size_a):
    # measured by the plain walk of every node, which took seconds a cell
    assert search_pairmap(size_a, 7) == (None, 15825831)


@pytest.mark.parametrize("size_a,size_b,nodes,most", [(7, 6, 91335, 289), (7, 7, 74989, 3172)])
def test_mates_are_counted_not_placed(size_a, size_b, nodes, most):
    # the node counts are the reference's, as the grid test checks
    search = _Search(size_a, size_b, 10**9)
    search.run(limit=1)
    assert search.nodes == nodes
    assert search.placed <= most


def test_mates_are_images_under_untouched_permutations():
    # A mate of v = {u, w} with only u touched is {u, x} for an untouched
    # x; {u, y} with y touched is not one, and skipping it would drop a
    # subtree that need not match v's. Listing every map on (5, 5) walks
    # such siblings after a map is found, so the counts tell them apart.
    maps, nodes, _ = reference_search(5, 5, limit=10**6)
    search = _Search(5, 5, 10**9)
    assert search.run(limit=10**6) == maps
    assert search.nodes == nodes
    # the premise: the valid maps are closed under codomain permutations
    tables = {f.table for f in maps}
    for perm in itertools.permutations(range(5)):
        assert {tuple(tuple(sorted((perm[k], perm[l]))) for k, l in t) for t in tables} == tables


def _level_parts(search, value, full):
    """Each level's col & row as the search narrows them, ``value(p)``
    standing for the reach of the image placed on level p."""
    last = len(search.pairs)
    col, row, out = [full] * last, [full] * last, [full]
    for k in range(1, last):
        narrow, from_row, p = search.links[k]
        col[k] = col[k - 1] & value(k - 1) if narrow else full
        row[k] = (row if from_row else col)[p] & value(p)
        out.append(col[k] & row[k])
    return out


@pytest.mark.parametrize("size_a", range(2, 13))
def test_overlaps_match_pairwise_scan(size_a):
    # the earlier pairs meeting each pair in one index, by testing them all
    pairs = domain_pairs(size_a)
    overlaps = [
        [prev for prev in range(idx) if len({i, j} & set(pairs[prev])) == 1]
        for idx, (i, j) in enumerate(pairs)
    ]
    search = _Search(size_a, 6, 1)
    # one bit cleared per level: the AND names exactly the levels it read
    full = (1 << len(pairs)) - 1
    parts = _level_parts(search, lambda p: full ^ (1 << p), full)
    assert parts == [full ^ sum(1 << p for p in prev) for prev in overlaps]
    # and on random image assignments: the images that differ and meet
    images = codomain_pairs(6)
    reach = [
        sum(1 << t for t, other in enumerate(images) if other != image and set(other) & set(image))
        for image in images
    ]
    full = (1 << len(images)) - 1
    rng = random.Random(size_a)
    for _ in range(20):
        assignment = [rng.randrange(len(images)) for _ in pairs]
        parts = _level_parts(search, lambda p: reach[assignment[p]], full)
        want = []
        for prev in overlaps:
            c = full
            for p in prev:
                c &= reach[assignment[p]]
            want.append(c)
        assert parts == want


class TestCommonPoint:
    def test_identity_map_pivot(self):
        f = PairMap.from_function(5, 5, lambda i, j: (i, j))
        assert common_point(f, 2) == 2

    def test_nonempty_for_all_found_maps_at_size_5(self):
        for f in iter_valid_maps(5, 5, limit=20):
            for a0 in range(5):
                b0 = common_point(f, a0)
                assert b0 is not None
                # the residual assignment a -> image({a, a0}) minus the pivot
                # must inject the remaining points into distinct codomain points
                residual = []
                for a in range(5):
                    if a == a0:
                        continue
                    rest = set(f.image(a, a0)) - {b0}
                    assert len(rest) == 1
                    residual.append(rest.pop())
                assert len(set(residual)) == 4

    def test_small_maps_may_have_empty_intersection(self):
        images = {(0, 1): (0, 1), (0, 2): (1, 2), (1, 2): (0, 2)}
        f = PairMap.from_function(3, 3, lambda i, j: images[(i, j)])
        assert validate_pairmap(f).valid
        # at size 3 the pivot intersection may vanish without invalidating f
        assert common_point(f, 1) in (None, 0, 1, 2)

    def test_bad_index_rejected(self):
        f = PairMap.from_function(3, 3, lambda i, j: (i, j))
        with pytest.raises(PreconditionError):
            common_point(f, 3)
