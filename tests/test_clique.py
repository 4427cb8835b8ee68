import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import packidx.clique as clique_module
from packidx.clique import (
    _by_degree,
    _rename,
    clique_of_size,
    color_sort,
    complement_rows,
    exhaustive_max_clique_size,
    exists_clique,
    first_max_clique,
    max_clique_size,
    relabel,
)
from packidx.groups import INFINITE_CYCLIC, Window, apply_steps, enumerate_window, parse_group
from packidx.packing import ElementSet, compatibility_graph, max_packing_family


def random_graph(rng, n, p):
    adj = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return adj


def combinations_oracle(adj):
    """Third route: check every vertex combination directly."""
    n = len(adj)
    best = 0
    for r in range(1, n + 1):
        hit = False
        for combo in itertools.combinations(range(n), r):
            if all(adj[u] >> v & 1 for u, v in itertools.combinations(combo, 2)):
                hit = True
                break
        if hit:
            best = r
        else:
            break
    return best


@pytest.mark.parametrize("seed", range(30))
def test_solver_matches_both_oracles(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 13)
    adj = random_graph(rng, n, rng.choice([0.2, 0.5, 0.8]))
    size, witness = first_max_clique(adj)
    assert size == exhaustive_max_clique_size(adj) == combinations_oracle(adj)
    assert len(witness) == size
    assert all(adj[u] >> v & 1 for u, v in itertools.combinations(witness, 2))


def test_empty_and_edgeless():
    assert first_max_clique([]) == (0, [])
    assert max_clique_size([], 0) == 0
    assert first_max_clique([0, 0, 0]) == (1, [0])


def test_complete_graph():
    n = 6
    adj = complete_graph(n)
    size, witness = first_max_clique(adj)
    assert size == n and witness == list(range(n))


def test_witness_is_lexicographically_first():
    # two maximum cliques {0,2,4} and {1,3,5}; extraction must take {0,2,4}
    edges = [(0, 2), (0, 4), (2, 4), (1, 3), (1, 5), (3, 5)]
    adj = [0] * 6
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    assert first_max_clique(adj) == (3, [0, 2, 4])


def test_exists_clique_thresholds():
    rng = random.Random(7)
    adj = random_graph(rng, 11, 0.5)
    full = (1 << 11) - 1
    size = max_clique_size(adj, full)
    assert exists_clique(adj, full, size)
    assert not exists_clique(adj, full, size + 1)
    assert exists_clique(adj, full, 0)


def test_clique_of_size_none_when_too_big():
    adj = [0b10, 0b01, 0]
    assert clique_of_size(adj, 3) is None
    assert clique_of_size(adj, 2) == [0, 1]


def reference_color_sort(P, adj, kmin):
    """The coloring before it read complement rows: OR, NOT and AND per
    colored vertex, and one loop for every class, listed or not."""
    order = []
    colors = []
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


@pytest.mark.parametrize("density", [0.1, 0.5, 0.9])
def test_color_sort_matches_reference(density):
    for n in range(65):
        rng = random.Random(1000 * n + int(10 * density))
        adj = random_graph(rng, n, density)
        nadj = complement_rows(adj)
        full = (1 << n) - 1
        for P in (full, rng.randrange(full + 1)):
            for kmin in range(n + 3):
                assert color_sort(P, nadj, kmin) == reference_color_sort(P, adj, kmin), (n, P, kmin)


def test_complement_rows_drop_the_vertex_and_its_neighbours():
    adj = [0b110, 0b001, 0b001]
    rows = complement_rows(adj)
    assert rows == [0b000, 0b100, 0b010]
    # non-negative n-bit masks, so the coloring's AND takes no negative operand
    assert all(0 <= row < 1 << len(adj) for row in rows)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 10))
def test_determinism_across_repeats(seed, n):
    rng = random.Random(seed)
    adj = random_graph(rng, n, 0.5)
    assert first_max_clique(adj) == first_max_clique(adj)


def reference_oracle(adj):
    """The oracle's former loop: every mask m in ascending order is a clique
    iff m less its lowest vertex is one inside that vertex's neighbours."""
    n = len(adj)
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
            best = max(best, m.bit_count())
    return best


def complete_graph(n):
    full = (1 << n) - 1
    return [full & ~(1 << v) for v in range(n)]


def test_oracle_vertex_cap():
    with pytest.raises(ValueError):
        exhaustive_max_clique_size([0] * 25)


@pytest.mark.parametrize("adj,omega", [([0] * 20, 1), (complete_graph(20), 20)], ids=["empty", "complete"])
def test_oracle_at_vertex_cap(adj, omega):
    assert exhaustive_max_clique_size(adj) == reference_oracle(adj) == omega


# the reference loop takes one Python step per mask, too slow for 2^24
# masks, so the graphs' known clique numbers stand in for it
@pytest.mark.parametrize("adj,omega", [([0] * 24, 1), (complete_graph(24), 24)], ids=["empty", "complete"])
def test_oracle_at_raised_vertex_cap(adj, omega):
    assert exhaustive_max_clique_size(adj) == omega


@pytest.mark.parametrize("density", [0.1, 0.5, 0.9])
@pytest.mark.parametrize("n", range(21))
def test_oracle_matches_reference(n, density):
    adj = random_graph(random.Random(100 * n + int(10 * density)), n, density)
    assert exhaustive_max_clique_size(adj) == reference_oracle(adj)


@pytest.mark.parametrize("seed", range(5))
def test_oracle_ignores_self_loops(seed):
    rng = random.Random(seed)
    adj = random_graph(rng, rng.randint(1, 14), 0.5)
    looped = [row | 1 << v for v, row in enumerate(adj)]
    assert exhaustive_max_clique_size(looped) == exhaustive_max_clique_size(adj)


def induced(adj, P):
    """The subgraph induced by the mask P, renumbered 0.. in index order."""
    keep = [v for v in range(len(adj)) if P >> v & 1]
    return [
        sum(1 << j for j, u in enumerate(keep) if adj[v] >> u & 1) for v in keep
    ]


def planted_graph(rng, n, k, p):
    """A k-clique on random vertices, plus sparse noise of density p."""
    adj = random_graph(rng, n, p)
    members = rng.sample(range(n), k)
    for u, v in itertools.combinations(members, 2):
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def first_clique(adj, P, size):
    """The first size-clique inside P in itertools.combinations order."""
    keep = [v for v in range(len(adj)) if P >> v & 1]
    for combo in itertools.combinations(keep, size):
        if all(adj[u] >> v & 1 for u, v in itertools.combinations(combo, 2)):
            return list(combo)
    return None


def assert_matches_oracle(adj, rng):
    n = len(adj)
    full = (1 << n) - 1
    omega = exhaustive_max_clique_size(adj)
    assert first_max_clique(adj)[0] == max_clique_size(adj, full) == omega
    assert exists_clique(adj, full, omega)
    assert not exists_clique(adj, full, omega + 1)
    assert clique_of_size(adj, omega) == first_clique(adj, full, omega)
    assert clique_of_size(adj, omega + 1) is None
    # a proper subset searched in the caller's numbering
    P = rng.randrange(1, full)
    sub = exhaustive_max_clique_size(induced(adj, P))
    assert max_clique_size(adj, P) == sub
    assert exists_clique(adj, P, sub)
    assert not exists_clique(adj, P, sub + 1)
    assert clique_of_size(adj, sub, P) == first_clique(adj, P, sub)
    assert clique_of_size(adj, sub + 1, P) is None


@pytest.mark.parametrize("density", [0.3, 0.5, 0.8])
@pytest.mark.parametrize("seed", range(4))
def test_mid_size_graphs_match_oracle(seed, density):
    rng = random.Random(1000 * seed + int(10 * density))
    assert_matches_oracle(random_graph(rng, rng.randint(14, 20), density), rng)


@pytest.mark.parametrize("seed", range(8))
def test_planted_clique_matches_oracle(seed):
    # the planted vertices have the top degrees, so the degree order moves them
    rng = random.Random(seed)
    n = rng.randint(14, 20)
    adj = planted_graph(rng, n, rng.randint(5, 8), 0.15)
    assert _by_degree(adj)[0] != adj
    assert_matches_oracle(adj, rng)


@pytest.mark.parametrize("seed", range(10))
def test_degree_order_is_a_relabelling(seed):
    rng = random.Random(seed)
    adj = planted_graph(rng, rng.randint(6, 20), 5, 0.2)
    order = sorted(range(len(adj)), key=lambda v: (-adj[v].bit_count(), v))
    renamed, place = _by_degree(adj)
    assert [place[u] for u in order] == list(range(len(adj)))
    for i, u in enumerate(order):
        for j, v in enumerate(order):
            assert renamed[i] >> j & 1 == adj[u] >> v & 1
    degrees = [row.bit_count() for row in renamed]
    assert degrees == sorted(degrees, reverse=True)


@pytest.mark.parametrize("seed", range(10))
def test_relabel_keeps_every_edge(seed):
    rng = random.Random(seed)
    adj = random_graph(rng, rng.randint(2, 20), rng.choice([0.2, 0.5, 0.8]))
    place = list(range(len(adj)))
    rng.shuffle(place)
    renamed = relabel(adj, place)
    for u in range(len(adj)):
        for v in range(len(adj)):
            assert renamed[place[u]] >> place[v] & 1 == adj[u] >> v & 1


def cayley_graph(elements, add, connection):
    """Adjacency of Cay(G, S) on G's elements, numbered as listed; u ~ v
    iff v - u lies in S. Also returns the functions neg and translate for
    the root rule."""
    index = {g: i for i, g in enumerate(elements)}
    adj = [0] * len(elements)
    for i, g in enumerate(elements):
        for s in connection:
            adj[i] |= 1 << index[add(g, s)]
    zero = elements[0]
    neg = [next(index[h] for h in elements if add(g, h) == zero) for g in elements]

    def translate(mask, v):
        out = 0
        for i, g in enumerate(elements):
            if mask >> i & 1:
                out |= 1 << index[add(g, elements[v])]
        return out

    return adj, neg.__getitem__, translate


def random_connection(rng, elements, add, density):
    """A random symmetric connection set without the identity."""
    zero = elements[0]
    S = set()
    for g in elements[1:]:
        if rng.random() < density:
            S.add(g)
            S.add(next(h for h in elements if add(g, h) == zero))
    return S


def cyclic(n):
    return list(range(n)), lambda a, b: (a + b) % n


def elementary_abelian_2(k):
    return list(range(1 << k)), lambda a, b: a ^ b


def z3_plus_cyclic(n):
    elements = [(a, b) for a in range(3) for b in range(n)]
    return elements, lambda x, y: ((x[0] + y[0]) % 3, (x[1] + y[1]) % n)


# groups of 8 to 24 elements, listed from the identity; in Z_2^k every
# element is its own negation
CAYLEY_GROUPS = [
    ("Z_n", cyclic, range(9, 25)),
    ("Z_2^k", elementary_abelian_2, range(3, 5)),
    ("Z_3 + Z_n", z3_plus_cyclic, range(3, 9)),
]


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("name,make,params", CAYLEY_GROUPS, ids=[g[0] for g in CAYLEY_GROUPS])
def test_translation_rule_matches_oracle_on_cayley_graphs(name, make, params, seed):
    rng = random.Random(seed)
    elements, add = make(rng.choice(params))
    S = random_connection(rng, elements, add, rng.choice([0.3, 0.5, 0.7, 0.85]))
    adj, neg, translate = cayley_graph(elements, add, S)
    assert 1 + max_clique_size(adj, adj[0], neg, translate) == exhaustive_max_clique_size(adj)


def test_reflection_rule_keeps_a_lone_maximum_clique():
    # Cay(Z_19, S) with S all but 0 and ±4: the reflection must drop r - w;
    # a rule dropping r + w instead loses every 9-clique through 0
    elements, add = cyclic(19)
    S = set(elements[1:]) - {4, 15}
    adj, neg, translate = cayley_graph(elements, add, S)
    assert 1 + max_clique_size(adj, adj[0], neg, translate) == exhaustive_max_clique_size(adj) == 9

# Cay(Z_6 + Z_6, S) for S all but 0 and these elements: reflecting at depth
# 2 as well, or there alone, loses every 12-clique through 0
DEPTH_2_MISSES = [
    [(0, 3), (1, 1), (1, 5), (2, 2), (2, 3), (4, 3), (4, 4), (5, 1), (5, 5)],
    [(0, 3), (1, 5), (2, 2), (3, 1), (3, 5), (4, 4), (5, 1)],
]


@pytest.mark.parametrize("missing", DEPTH_2_MISSES, ids=["depths-1-2", "depth-2"])
def test_reflection_rule_stays_at_depth_1(missing):
    elements = [(a, b) for a in range(6) for b in range(6)]
    add = lambda x, y: ((x[0] + y[0]) % 6, (x[1] + y[1]) % 6)  # noqa: E731
    S = set(elements[1:]) - set(missing)
    adj, neg, translate = cayley_graph(elements, add, S)
    assert max_clique_size(adj, adj[0], neg, translate) == max_clique_size(adj, adj[0]) == 11

def coded_window(text, window_args):
    """A subgroup window's box in code order: its elements, and neg and
    translate for the root search's symmetry rules."""
    group = parse_group(text)
    window = Window.for_group(group, **window_args)
    elements, _, neg, steps, _ = window.box().tables()
    return group, elements, neg.__getitem__, lambda mask, v: apply_steps(mask, steps[v])


# subgroup windows of 64 to 100 vertices, past the oracle's cap
WIDE_CAYLEY_WINDOWS = [
    ("Z_10 + Z_10", {}),
    ("Z_3^w", {"repeated_m": 4}),
    ("Prufer(2)", {"prufer_level": 6}),
]


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("text,window_args", WIDE_CAYLEY_WINDOWS, ids=[w[0] for w in WIDE_CAYLEY_WINDOWS])
def test_symmetry_rules_match_the_unpruned_root_search(text, window_args, seed):
    group, elements, neg, translate = coded_window(text, window_args)
    rng = random.Random(seed)
    A = ElementSet.of(group, rng.sample(elements, rng.randint(2, 5)))
    adj = compatibility_graph(A, elements)
    assert max_clique_size(adj, adj[0], neg, translate) == max_clique_size(adj, adj[0])


def test_reflection_rule_cuts_the_root_search(monkeypatch):
    # the benchmark's hardest Z_3^w set: translation alone searched 3,824
    # nodes, and the reflection at depth 1 brings it to 2,569
    group, elements, neg, translate = coded_window("Z_3^w", {"repeated_m": 4})
    A = ElementSet.parse(group, ["[1,1]", "[2,0,0,2]", "[0,1,0,2]", "[2,2,1,1]"])
    adj = compatibility_graph(A, elements)
    nodes = []

    def counting(*args):
        nodes.append(args)
        return color_sort(*args)

    monkeypatch.setattr(clique_module, "color_sort", counting)
    assert max_clique_size(adj, adj[0], neg, translate) == 11
    pruned = len(nodes)
    nodes.clear()
    assert max_clique_size(adj, adj[0]) == 11
    assert pruned <= 2_569 < len(nodes)


def reference_clique_of_size(adj, target, P=None):
    """The extraction before decisions carried their cliques: one
    ``exists_clique`` call per candidate, in the caller's numbering."""
    if P is None:
        P = (1 << len(adj)) - 1
    if target == 0:
        return []
    chosen = []
    needed = target
    while needed:
        rest = P
        while rest:
            v = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            sub = P & adj[v]
            if exists_clique(adj, sub, needed - 1):
                chosen.append(v)
                P = sub
                needed -= 1
                break
            P &= ~(1 << v)
        else:
            return None
    return chosen


def shuffled_copy(adj, rng):
    place = list(range(len(adj)))
    rng.shuffle(place)
    return relabel(adj, place), place


@pytest.mark.parametrize("density", [0.2, 0.5, 0.8])
@pytest.mark.parametrize("seed", range(6))
def test_extraction_matches_reference(seed, density):
    # the decisions run on the graph as given, or on a degree-ordered or
    # shuffled copy read through its place map, P renamed into the copy
    rng = random.Random(10 * seed + int(10 * density))
    n = rng.randint(1, 40)
    adj = random_graph(rng, n, density)
    full = (1 << n) - 1
    identity = list(range(n))
    copies = [(adj, None), _by_degree(adj), shuffled_copy(adj, rng)]
    for P in (full, rng.randrange(1, full + 1)):
        omega = max_clique_size(adj, P)
        assert reference_clique_of_size(adj, omega + 1, P) is None
        for target in sorted({omega, max(omega - 1, 0)}):
            expected = reference_clique_of_size(adj, target, P)
            assert expected is not None
            for graph, place in copies:
                moved = _rename(P, place or identity)
                assert clique_of_size(graph, target, moved, place) == expected
        for graph, place in copies:
            assert clique_of_size(graph, omega + 1, _rename(P, place or identity), place) is None


def test_extraction_reuses_the_clique_a_decision_found(monkeypatch):
    # on a complete graph the first decision finds the rest of the clique,
    # so no later level searches
    calls = []

    def counting(*args):
        calls.append(args)
        return exists_clique(*args)

    monkeypatch.setattr(clique_module, "exists_clique", counting)
    graph, place = _by_degree(complete_graph(12))
    assert clique_of_size(graph, 12, None, place) == list(range(12))
    assert len(calls) == 1


def graph_of(n, edges):
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


# vertex 0, scanned first, against the known maximum clique K: in K, one
# vertex of K outside its neighbours, two outside with no clique through 0,
# and two outside with the clique {0, 1, 4}. In the last case 0 misses 4 of
# K = {2, 3, 4}, then 1 misses 3 of K ∩ N(0) = {2, 3}, though 4 too.
TRIANGLE = [(1, 2), (1, 3), (2, 3)]
KNOWN_CLIQUE_CASES = [
    ("in K", 4, [(0, 1), (0, 2), (1, 2)], 0b111, [0, 1, 2], 0),
    ("one miss", 4, TRIANGLE + [(0, 1), (0, 2)], 0b1110, [0, 1, 2], 0),
    ("two misses, no", 4, TRIANGLE + [(0, 1)], 0b1110, [1, 2, 3], 1),
    ("two misses, yes", 5, TRIANGLE + [(0, 1), (0, 4), (1, 4)], 0b1110, [0, 1, 4], 1),
    ("one miss, twice", 5, [(2, 3), (2, 4), (3, 4), (0, 2), (0, 3), (0, 1), (1, 2)], 0b11100, [0, 1, 2], 0),
]


@pytest.mark.parametrize("name,n,edges,K,want,decisions", KNOWN_CLIQUE_CASES, ids=[c[0] for c in KNOWN_CLIQUE_CASES])
def test_the_known_clique_answers_at_most_one_miss(name, n, edges, K, want, decisions, monkeypatch):
    calls = []

    def spy(adj, P, target, witness=None, nadj=None):
        calls.append(P)
        return exists_clique(adj, P, target, witness, nadj)

    monkeypatch.setattr(clique_module, "exists_clique", spy)
    adj = graph_of(n, edges)
    assert clique_of_size(adj, 3, None, None, None, [K]) == want
    # the one decision, if any, is vertex 0's, on its neighbours
    assert calls == [adj[0]] * decisions


# Cayley graphs on Z_n whose blocks are the even and the odd vertices, the
# cosets of K = 2Z_n, with the maximum clique of K through 0, one vertex
# per block ({0}) or two ({0, 4}); each scanned in order and in another
COSET_GRAPHS = [
    (6, {1, 3, 5}, [1, 1], 0b1, None),
    (6, {1, 3, 5}, [1, 1], 0b1, [3, 2, 1, 0, 5, 4]),
    (8, {1, 3, 4, 5, 7}, [2, 2], 0b10001, None),
    (8, {1, 3, 4, 5, 7}, [2, 2], 0b10001, [7, 6, 5, 4, 3, 2, 1, 0]),
]


@pytest.mark.parametrize("n,connection,sizes,root,place", COSET_GRAPHS)
def test_a_coset_takes_its_first_vertex_and_its_clique_with_no_decision(n, connection, sizes, root, place, monkeypatch):
    calls = []

    def spy(*args):
        calls.append(args)
        return exists_clique(*args)

    monkeypatch.setattr(clique_module, "exists_clique", spy)
    elements, add = cyclic(n)
    adj, neg, translate = cayley_graph(elements, add, connection)
    blocks = clique_module.co_components(complement_rows(adj))
    assert blocks == [int("01" * (n // 2), 2), int("10" * (n // 2), 2)]
    want = [0, 1, 4, 5][: sum(sizes)]
    assert clique_of_size(adj, sizes, blocks, place, None, [root, 0], neg, translate) == want
    assert calls == []


# windows the solver meets: a Z window, a subgroup window searched in
# enumeration order, a Prufer window searched in code order and scanned
# through the box's place, and a dense Z + Z window where the clique is half
# the graph
EXTRACTION_WINDOWS = [
    ("Z", ["0", "1", "3", "7"], {"bound": 40}),
    ("Z_10 + Z_10", ["(5,1)", "(8,5)", "(9,0)", "(9,2)"], {}),
    ("Prufer(2)", ["15/2^5", "29/2^5", "23/2^7", "43/2^7"], {"prufer_level": 6}),
    ("Z + Z", ["(0,0)", "(1,0)"], {"bound": 8}),
]


@pytest.mark.parametrize("text,elements,window_args", EXTRACTION_WINDOWS, ids=[w[0] for w in EXTRACTION_WINDOWS])
def test_window_extraction_matches_reference(text, elements, window_args):
    group = parse_group(text)
    A = ElementSet.parse(group, elements)
    window = Window.for_group(group, **window_args)
    vertices = list(enumerate_window(window))
    adj = compatibility_graph(A, vertices)
    family = max_packing_family(A, window)
    if any(f.kind == INFINITE_CYCLIC for f in group.factors):
        omega, picked = first_max_clique(adj)
        assert picked == reference_clique_of_size(adj, omega)
        graph, place = _by_degree(adj)
        assert clique_of_size(graph, omega + 1, None, place) is None
    else:
        # the family in enumeration order: vertex 0, then N(0)'s first clique
        index = {v.coords: i for i, v in enumerate(vertices)}
        picked = sorted(index[b.coords] for b in family.shifts)
        root = family.size - 1
        assert picked == [0] + reference_clique_of_size(adj, root, adj[0])
        assert reference_clique_of_size(adj, root + 1, adj[0]) is None
        # the search's own graph is in code order, scanned through place
        elements, _, neg, steps, place = window.box().tables()
        assert (place is not None) == (text == "Prufer(2)")
        coded = compatibility_graph(A, elements)
        assert max_clique_size(coded, coded[0], neg.__getitem__, lambda mask, v: apply_steps(mask, steps[v])) == root
        assert clique_of_size(coded, root + 1, coded[0], place) is None
    assert family.shifts == ElementSet.of(group, [vertices[i] for i in picked])


def unsplit_first_max_clique(adj):
    """``first_max_clique(adj)`` without the split: one size search of the
    whole degree-ordered copy and one extraction with a single block."""
    graph, at = _by_degree(adj)
    size = max_clique_size(graph, (1 << len(adj)) - 1)
    return size, clique_of_size(graph, size, None, at)


def reference_co_components(adj):
    """Components of the complement by union-find over the vertex pairs
    with no edge, as masks ordered by lowest vertex."""
    n = len(adj)
    parent = list(range(n))

    def find(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for u, v in itertools.combinations(range(n), 2):
        if not adj[u] >> v & 1:
            parent[find(v)] = find(u)
    blocks = {}
    for v in range(n):
        blocks[find(v)] = blocks.get(find(v), 0) | 1 << v
    return sorted(blocks.values(), key=lambda mask: mask & -mask)


def random_join(rng, sizes, density):
    """The join of random graphs on ``sizes`` vertices each, the vertices
    of all parts shuffled together: every edge between two parts is present."""
    n = sum(sizes)
    order = list(range(n))
    rng.shuffle(order)
    part = [i for i, size in enumerate(sizes) for _ in range(size)]
    adj = [0] * n
    for a, b in itertools.combinations(range(n), 2):
        if part[a] != part[b] or rng.random() < density:
            adj[order[a]] |= 1 << order[b]
            adj[order[b]] |= 1 << order[a]
    return adj


@pytest.mark.parametrize("seed", range(20))
def test_co_components_match_union_find(seed):
    rng = random.Random(seed)
    adj = random_join(rng, [rng.randint(1, 6) for _ in range(rng.randint(1, 5))], rng.choice([0.3, 0.6]))
    assert clique_module.co_components(complement_rows(adj)) == reference_co_components(adj)


@pytest.mark.parametrize("seed", range(20))
def test_split_solve_matches_the_unsplit_one_on_joins(seed):
    # the union of each block's first clique is the whole graph's first clique
    rng = random.Random(100 + seed)
    adj = random_join(rng, [rng.randint(1, 7) for _ in range(rng.randint(2, 5))], rng.choice([0.3, 0.6]))
    n = len(adj)
    assert len(clique_module.co_components(complement_rows(adj))) > 1
    want = unsplit_first_max_clique(adj)
    assert first_max_clique(adj) == want
    if n <= 24:
        assert want[0] == exhaustive_max_clique_size(adj)
    # in a shuffled numbering, with a root that lies in a maximum clique
    graph, place = shuffled_copy(adj, rng)
    root = want[1][-1]
    assert first_max_clique(graph, place[root], place) == want


def test_a_block_list_takes_each_block_alone():
    # two triangles less two edges each, joined: the blocks {0, 1, 2} and
    # {3, 4, 5} give 2 + 2, picked in scan order across them
    adj = [0] * 6
    for u, v in [(0, 1), (4, 5)] + [(a, b) for a in range(3) for b in range(3, 6)]:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    blocks = clique_module.co_components(complement_rows(adj))
    assert blocks == [0b000111, 0b111000]
    assert clique_of_size(adj, [2, 2], blocks) == [0, 1, 4, 5]
    # scanned in reverse, vertex 5 is the caller's 0 and vertex 0 its 5
    assert clique_of_size(adj, [2, 2], blocks, [5, 4, 3, 2, 1, 0]) == [0, 1, 4, 5]
    assert clique_of_size(adj, [3, 2], blocks) is None
    # a block that has its vertices takes no more, though later ones fit
    assert clique_of_size(adj, [1, 1], blocks) == [0, 3]
    assert clique_of_size(adj, 4) == [0, 1, 4, 5]


def cyclic_sum(a, b):
    elements = [(x, y) for x in range(a) for y in range(b)]
    return elements, lambda p, q: ((p[0] + q[0]) % a, (p[1] + q[1]) % b)


def interval_graph(rng, w):
    """A distance graph on -w..w, vertex c standing for c - w: two vertices
    are joined unless their distance lies in a random set, as shifts in a
    Z window are unless their difference lies in D*. Also returns the
    reflection x -> -x on vertices."""
    far = {d for d in range(1, 2 * w + 1) if rng.random() < 0.4}
    n = 2 * w + 1
    adj = [sum(1 << v for v in range(n) if v != u and abs(u - v) not in far) for u in range(n)]
    return adj, lambda c: 2 * w - c


def first_in_scan_order(adj, place):
    """ω by brute force, and the first maximum clique in the caller's
    numbering (``place[v]`` is the vertex of adj the caller numbers v) in
    ``itertools.combinations`` order."""
    omega = exhaustive_max_clique_size(adj)
    for combo in itertools.combinations(range(len(adj)), omega):
        if all(adj[place[u]] >> place[v] & 1 for u, v in itertools.combinations(combo, 2)):
            return omega, list(combo)


# the kinds of vertex-symmetric graph the extraction tests draw
SYMMETRIC_GRAPHS = ["Z_n", "Z_a + Z_b", "interval"]
# (a, b) for Z_a + Z_b, of at most 16 elements, and larger
SMALL_SUMS = [(2, 2), (2, 4), (2, 6), (2, 8), (3, 3), (3, 5), (4, 4)]
LARGE_SUMS = [(2, 10), (3, 6), (3, 8), (4, 6), (5, 5), (4, 8)]


def symmetric_graph(kind, rng, large=False):
    """(adj, root, neg, translate) for ``first_max_clique``: a Cayley graph
    with its tables, or an interval graph with its reflection and the
    corner, which lies in a maximum clique, as root. Each has at most 16
    vertices, or up to 32 if ``large``."""
    if kind == "interval":
        adj, neg = interval_graph(rng, rng.randint(1, 15 if large else 7))
        return adj, 0, neg, None
    if kind == "Z_n":
        elements, add = cyclic(rng.randint(4, 32 if large else 16))
    else:
        elements, add = cyclic_sum(*rng.choice(LARGE_SUMS if large else SMALL_SUMS))
    S = random_connection(rng, elements, add, rng.choice([0.3, 0.5, 0.7, 0.85]))
    adj, neg, translate = cayley_graph(elements, add, S)
    return adj, 0, neg, translate


@pytest.mark.parametrize("seed", range(15))
@pytest.mark.parametrize("kind", SYMMETRIC_GRAPHS)
def test_symmetric_graphs_give_the_first_maximum_clique_in_scan_order(kind, seed):
    rng = random.Random(seed)
    adj, root, neg, translate = symmetric_graph(kind, rng)
    n = len(adj)
    shuffled = list(range(n))
    rng.shuffle(shuffled)
    for place in (list(range(n)), shuffled):
        want = first_in_scan_order(adj, place)
        assert first_max_clique(adj, root, place, neg, translate) == want
        if translate is None:
            assert first_max_clique(adj, None, place, neg) == want


def caller_first_clique(adj, place, size):
    """The reference extraction's clique of ``size`` in the caller's
    numbering: on the graph renumbered so that the caller's v is place[v]."""
    at = [0] * len(adj)
    for v, u in enumerate(place):
        at[u] = v
    return reference_clique_of_size(relabel(adj, at), size)


@pytest.mark.parametrize("kind", SYMMETRIC_GRAPHS)
def test_larger_symmetric_graphs_match_the_reference_extraction(kind):
    # up to 32 vertices, where more decisions fail with two or more picks
    for seed in range(250):
        rng = random.Random(seed)
        adj, root, neg, translate = symmetric_graph(kind, rng, large=True)
        n = len(adj)
        place = list(range(n))
        rng.shuffle(place)
        omega = max_clique_size(adj, (1 << n) - 1)
        want = caller_first_clique(adj, place, omega)
        assert first_max_clique(adj, root, place, neg, translate) == (omega, want)
        assert clique_of_size(adj, omega, None, place, None, None, neg, translate) == want


@pytest.mark.parametrize("seed", range(12))
def test_the_size_search_records_a_clique_of_its_size(seed):
    rng = random.Random(seed)
    adj = random_graph(rng, rng.randint(1, 30), rng.choice([0.3, 0.6, 0.9]))
    elements, add = cyclic(rng.randint(8, 24))
    cayley, neg, translate = cayley_graph(elements, add, random_connection(rng, elements, add, 0.7))
    runs = [(adj, rng.randrange(1 << len(adj)), None, None), (cayley, cayley[0], neg, translate)]
    for graph, P, neg, translate in runs:
        found = []
        size = max_clique_size(graph, P, neg, translate, None, found)
        assert size == len(found) == len(set(found))
        assert all(P >> v & 1 for v in found)
        assert all(graph[u] >> v & 1 for u, v in itertools.combinations(found, 2))
        assert size == max_clique_size(graph, P)


class RowReads(list):
    """Adjacency rows that remember the last vertex read: the extraction
    reads the row of the vertex it scans just before deciding it."""

    last = None

    def __getitem__(self, v):
        self.last = v
        return super().__getitem__(v)


def mirror_of(u, picks, neg, translate):
    """c - u for the reflection x -> c - x that fixes the picks, or None:
    c = 2a or a + b after one or two picks on a Cayley graph, else c = 0
    while every pick is its own negative."""
    if translate is not None and 0 < len(picks) < 3:
        c = translate(1 << picks[0], picks[-1]).bit_length() - 1
        return translate(1 << neg(u), c).bit_length() - 1
    if all(neg(a) == a for a in picks):
        return neg(u)
    return None


@pytest.mark.parametrize("kind", SYMMETRIC_GRAPHS)
def test_no_vertex_is_decided_after_its_mirror_was_ruled_out(kind, monkeypatch):
    decisions = []

    def spy(adj, P, target, witness=None, nadj=None):
        u = adj.last
        result = exists_clique(adj, P, target, witness, nadj)
        decisions.append((u, result))
        return result

    monkeypatch.setattr(clique_module, "exists_clique", spy)
    skipped = 0
    for seed in range(30):
        rng = random.Random(seed)
        adj, _, neg, translate = symmetric_graph(kind, rng, large=True)
        adj = RowReads(adj)
        n = len(adj)
        place = list(range(n))
        rng.shuffle(place)
        pos = {u: v for v, u in enumerate(place)}
        omega = max_clique_size(adj, (1 << n) - 1)
        want = caller_first_clique(adj, place, omega)
        # with no known clique the extraction decides more, the first pick included
        runs = [(lambda: clique_of_size(adj, omega, None, place, None, None, neg, translate), False)]
        if translate is not None:
            runs.append((lambda: first_max_clique(adj, 0, place, neg, translate)[1], True))
        for run, transitive in runs:
            decisions.clear()
            assert run() == want
            blocks = clique_module.co_components(complement_rows(adj)) if transitive else [(1 << n) - 1]
            picks = [place[v] for v in want]
            decided = [u for u, _ in decisions]
            for k, (u, result) in enumerate(decisions):
                block = next(b for b in blocks if b >> u & 1)
                before = [a for a in picks if pos[a] < pos[u] and block >> a & 1]
                # a transitive block takes its first vertex without a decision
                assert before or not transitive
                w = None if result else mirror_of(u, before, neg, translate)
                if w is not None and w != u:
                    assert w not in decided[k + 1 :]
                    skipped += pos[w] > pos[u]
    assert skipped
