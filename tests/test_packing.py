import importlib.util
import itertools
import random
import sys
from operator import itemgetter
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import packidx
from packidx import groups
from packidx.bsets import build_bset
from packidx.clique import (
    ORACLE_LIMIT,
    _by_degree,
    clique_of_size,
    co_components,
    color_sort,
    complement_rows,
    exhaustive_max_clique_size,
    exists_clique,
    first_max_clique,
    max_clique_size,
    relabel,
)
from packidx.errors import (
    CertificationError,
    EmptySetError,
    PreconditionError,
    WindowTooLargeError,
)
from packidx.groups import (
    CYCLIC,
    INFINITE_CYCLIC,
    REPEATED_CYCLIC,
    DenseBox,
    Window,
    apply_steps,
    enumerate_window,
    parse_group,
)
from packidx.packing import (
    ElementSet,
    _bset_graph,
    _certified_clique,
    _certify_family,
    clique_in_bset_of_size,
    compatibility_graph,
    difference_mask,
    difference_set,
    max_clique_in_bset,
    max_packing_family,
    read_set_file,
    translates_disjoint,
    write_set_file,
)

Z = parse_group("Z")
Z55 = parse_group("Z_5 + Z_5")
Z22 = parse_group("Z_2 + Z_2")


def brute_force_family_size(A, window):
    """Independent oracle: try every subset of the window, largest first only
    as far as needed."""
    vertices = list(enumerate_window(window))
    best = 0
    for r in range(1, len(vertices) + 1):
        found = False
        for combo in itertools.combinations(vertices, r):
            if all(
                translates_disjoint(A, u, v)
                for u, v in itertools.combinations(combo, 2)
            ):
                found = True
                break
        if found:
            best = r
        else:
            break
    return best


class TestDifferenceSet:
    def test_integers(self):
        A = ElementSet.parse(Z, ["0", "1", "3"])
        assert set(difference_set(A).to_texts()) == {"0", "1", "-1", "2", "-2", "3", "-3"}

    def test_singleton(self):
        assert difference_set(ElementSet.parse(Z, ["5"])).to_texts() == ["0"]

    def test_product_group(self):
        A = ElementSet.parse(Z55, ["(0,0)", "(1,0)", "(0,1)"])
        expected = {"(0,0)", "(1,0)", "(4,0)", "(0,1)", "(0,4)", "(1,4)", "(4,1)"}
        assert set(difference_set(A).to_texts()) == expected

    def test_empty_is_an_error(self):
        with pytest.raises(EmptySetError):
            difference_set(ElementSet.of(Z, []))

    @given(st.sets(st.integers(-8, 8), min_size=1, max_size=6))
    def test_symmetric_and_contains_zero(self, values):
        A = ElementSet.of(Z, [Z.element(v) for v in values])
        D = difference_set(A)
        coords = D.coords_set()
        assert Z.zero().coords in coords
        assert all((-d).coords in coords for d in D)


class TestTranslatesDisjoint:
    def test_examples(self):
        A = ElementSet.parse(Z, ["0", "1"])
        assert translates_disjoint(A, Z.element(0), Z.element(2))
        assert not translates_disjoint(A, Z.element(0), Z.element(1))
        singleton = ElementSet.parse(Z22, ["(0,0)"])
        assert translates_disjoint(singleton, Z22.element(1, 0), Z22.element(0, 1))

    def test_equal_shifts_rejected(self):
        A = ElementSet.parse(Z, ["0"])
        with pytest.raises(PreconditionError):
            translates_disjoint(A, Z.element(1), Z.element(1))

    @settings(max_examples=80)
    @given(
        st.sets(st.integers(-6, 6), min_size=1, max_size=5),
        st.integers(-8, 8),
        st.integers(-8, 8),
    )
    def test_equivalent_to_difference_predicate(self, values, b, b2):
        if b == b2:
            return
        A = ElementSet.of(Z, [Z.element(v) for v in values])
        d = Z.element(b) - Z.element(b2)
        in_diff = d in difference_set(A) and not d.is_zero()
        assert translates_disjoint(A, Z.element(b), Z.element(b2)) == (not in_diff)


def _small_element(group):
    """Elements near zero, where translates of a small set often meet."""
    coords = []
    for f in group.factors:
        if f.kind == INFINITE_CYCLIC:
            coords.append(st.integers(-3, 3))
        elif f.kind == CYCLIC:
            coords.append(st.integers(0, f.param - 1))
        elif f.kind == REPEATED_CYCLIC:
            coords.append(st.lists(st.integers(0, f.param - 1), max_size=2).map(tuple))
        else:
            coords.append(
                st.integers(0, 2).flatmap(lambda k, p=f.param: st.tuples(st.integers(0, p**k - 1), st.just(k)))
            )
    return st.tuples(*coords).map(lambda raw: group.element(*raw))


CERTIFY_GROUPS = ["Z", "Z_5", "Z_3^w", "Prufer(2)", "Z + Z_3", "Z_2^w + Z_4", "Prufer(3) + Z", "Z_2 + Prufer(2)"]


class TestCertifyFamily:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_true_iff_every_pair_is_disjoint(self, data):
        group = parse_group(data.draw(st.sampled_from(CERTIFY_GROUPS)))
        elements = _small_element(group)
        A = ElementSet.of(group, data.draw(st.lists(elements, min_size=1, max_size=4)))
        shifts = data.draw(st.lists(elements, max_size=5, unique_by=lambda e: e.coords))
        want = all(translates_disjoint(A, b, b2) for b, b2 in itertools.combinations(shifts, 2))
        assert _certify_family(A, shifts) == want

    @pytest.mark.parametrize("text, base, meeting, apart", [
        ("Z", ["0", "1"], ["0", "1"], ["0", "2"]),
        ("Z_5", ["0", "2"], ["0", "3"], ["0", "1"]),
        ("Z_2^w", ["0", "[1,1]"], ["[1]", "[0,1]"], ["0", "[1]"]),
        ("Prufer(2)", ["0", "1/2"], ["1/2^2", "3/2^2"], ["0", "1/2^2"]),
        ("Z + Z_3", ["(0,0)", "(1,1)"], ["(0,1)", "(1,2)"], ["(0,0)", "(0,1)"]),
    ])
    def test_one_intersecting_family_per_factor_kind(self, text, base, meeting, apart):
        group = parse_group(text)
        A = ElementSet.parse(group, base)
        assert not _certify_family(A, list(ElementSet.parse(group, meeting)))
        assert _certify_family(A, list(ElementSet.parse(group, apart)))

    @pytest.mark.parametrize("text, base, shift", [
        ("Z", ["0", "1"], "5"),
        ("Z_5", ["0", "2"], "0"),
        ("Z + Z_3", ["(0,0)", "(1,1)"], "(0,1)"),
    ])
    def test_one_shift_has_no_pair_to_check(self, text, base, shift):
        group = parse_group(text)
        A = ElementSet.parse(group, base)
        (b,) = ElementSet.parse(group, [shift])
        assert _certify_family(A, [b])
        assert _certify_family(A, [])
        # b + a1 = (b + a1 - a0) + a0, so a second shift b + a1 - a0 meets b
        a0, a1 = A.elements
        assert not _certify_family(A, [b, b + (a1 - a0)])


class TestMaxPackingFamily:
    def test_interval_example(self):
        # frozen from the subset brute-force oracle over the 9-vertex window
        A = ElementSet.parse(Z, ["0", "1"])
        window = Window.for_group(Z, 4)
        assert brute_force_family_size(A, window) == 5
        family = max_packing_family(A, window)
        assert family.size == 5
        assert set(family.shifts.to_texts()) == {"-4", "-2", "0", "2", "4"}
        assert family.certified

    def test_whole_finite_group(self):
        A = ElementSet.of(Z22, list(enumerate_window(Window.for_group(Z22))))
        family = max_packing_family(A, Window.for_group(Z22))
        assert family.size == 1

    def test_singleton_base(self):
        A = ElementSet.parse(Z, ["0"])
        family = max_packing_family(A, Window.for_group(Z, 3))
        assert family.size == 7

    def test_empty_base_rejected(self):
        with pytest.raises(EmptySetError):
            max_packing_family(ElementSet.of(Z, []), Window.for_group(Z, 3))

    def test_window_limit_reported(self):
        A = ElementSet.parse(Z, ["0"])
        with pytest.raises(WindowTooLargeError):
            max_packing_family(A, Window.for_group(Z, 600))

    @settings(max_examples=25, deadline=None)
    @given(st.sets(st.integers(-5, 5), min_size=1, max_size=4), st.integers(2, 5))
    def test_monotone_in_window(self, values, bound):
        A = ElementSet.of(Z, [Z.element(v) for v in values])
        small = max_packing_family(A, Window.for_group(Z, bound)).size
        large = max_packing_family(A, Window.for_group(Z, bound + 2)).size
        assert large >= small

    @settings(max_examples=25, deadline=None)
    @given(st.sets(st.integers(-6, 6), min_size=1, max_size=5), st.integers(2, 6))
    def test_matches_exhaustive_oracle(self, values, bound):
        A = ElementSet.of(Z, [Z.element(v) for v in values])
        window = Window.for_group(Z, bound)
        vertices = list(enumerate_window(window))
        oracle = exhaustive_max_clique_size(compatibility_graph(A, vertices))
        assert max_packing_family(A, window).size == oracle


# windows with no Z factor: each is a subgroup H of at most 20 elements; A is
# drawn from a larger window, so it need not lie in H
SUBGROUP_WINDOWS = [
    (parse_group("Z_12"), {}, {}),
    (parse_group("Z_4 + Z_2"), {}, {}),
    (parse_group("Z_3 + Z_3"), {}, {}),
    *((parse_group("Z_2^w"), {"repeated_m": m}, {"repeated_m": m + 1}) for m in range(1, 5)),
    *((parse_group("Prufer(2)"), {"prufer_level": L}, {"prufer_level": L + 1}) for L in range(1, 5)),
]


class TestSubgroupRoot:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(SUBGROUP_WINDOWS), st.data())
    def test_matches_oracle_and_first_max_clique(self, case, data):
        group, window_args, pool_args = case
        window = Window.for_group(group, **window_args)
        pool = list(enumerate_window(Window.for_group(group, **pool_args)))
        picks = data.draw(st.sets(st.sampled_from(pool), min_size=1, max_size=5))
        A = ElementSet.of(group, picks)
        vertices = list(enumerate_window(window))
        adj = compatibility_graph(A, vertices)
        family = max_packing_family(A, window)
        size, picked = first_max_clique(adj)
        assert family.size == size == exhaustive_max_clique_size(adj)
        assert family.shifts == ElementSet.of(group, [vertices[i] for i in picked])
        assert family.certified

    def test_z_window_needs_the_full_search(self):
        # the rule is wrong off subgroups: no maximum family holds the root 0
        A = ElementSet.parse(Z, ["0", "2", "-6"])
        window = Window.for_group(Z, 2)
        adj = compatibility_graph(A, list(enumerate_window(window)))
        assert 1 + max_clique_size(adj, adj[0]) == 2
        family = max_packing_family(A, window)
        assert family.size == exhaustive_max_clique_size(adj) == 3
        assert family.shifts.to_texts() == ["1", "2", "-2"]


# windows with one Z factor, at most 60 vertices, with the larger window
# their bases are drawn from
CORNER_WINDOWS = [
    ("Z", {"bound": 12}, {"bound": 15}),
    ("Z + Z_3", {"bound": 5}, {"bound": 7}),
    ("Z_4 + Z", {"bound": 3}, {"bound": 5}),
    ("Z + Z_2^w", {"bound": 3, "repeated_m": 2}, {"bound": 5, "repeated_m": 3}),
    ("Z + Prufer(2)", {"bound": 3, "prufer_level": 2}, {"bound": 5, "prufer_level": 3}),
]


class TestCornerRoot:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize(
        "text,window_args,pool_args", CORNER_WINDOWS, ids=[w[0] for w in CORNER_WINDOWS]
    )
    def test_matches_whole_graph_search(self, monkeypatch, text, window_args, pool_args, seed):
        group = parse_group(text)
        window = Window.for_group(group, **window_args)
        vertices = list(enumerate_window(window))
        rng = random.Random(seed)
        pool = list(enumerate_window(Window.for_group(group, **pool_args)))
        A = ElementSet.of(group, rng.sample(pool, rng.randint(1, 4)))
        adj = compatibility_graph(A, vertices)
        roots = []

        def spy(adj, root=None, place=None, neg=None):
            roots.append((root, place))
            return first_max_clique(adj, root, place, neg)

        monkeypatch.setattr(packidx.clique, "first_max_clique", spy)
        family = max_packing_family(A, window)
        # the root is the corner: lowest Z coordinate, zero elsewhere; the
        # solver's graph is in code order, and place maps the window onto it
        ((root, place),) = roots
        coded = [vertices[i] for i in sorted(range(len(vertices)), key=place.__getitem__)]
        z = next(i for i, f in enumerate(group.factors) if f.kind == INFINITE_CYCLIC)
        corner = list(group.zero().coords)
        corner[z] = -window.bounds[z]
        assert coded[root].coords == tuple(corner)
        root = vertices.index(coded[root])
        size, picked = first_max_clique(adj)
        assert 1 + max_clique_size(adj, adj[root]) == size
        assert family.size == size and family.certified
        assert family.shifts == ElementSet.of(group, [vertices[i] for i in picked])

    def test_two_z_factors_take_the_whole_graph_search(self, monkeypatch):
        group = parse_group("Z + Z")
        window = Window.for_group(group, bound=3)
        A = ElementSet.parse(group, ["(0,0)", "(1,0)", "(0,2)"])
        roots = []

        def spy(adj, root=None, place=None, neg=None):
            roots.append(root)
            return first_max_clique(adj, root, place, neg)

        monkeypatch.setattr(packidx.clique, "first_max_clique", spy)
        family = max_packing_family(A, window)
        assert roots == [None]
        vertices = list(enumerate_window(window))
        size, picked = first_max_clique(compatibility_graph(A, vertices))
        assert family.size == size
        assert family.shifts == ElementSet.of(group, [vertices[i] for i in picked])


ROOT = Path(__file__).resolve().parent.parent
_cells_spec = importlib.util.spec_from_file_location("perfbench_cells", ROOT / "perfbench" / "cells.py")
perfbench_cells = importlib.util.module_from_spec(_cells_spec)
sys.modules[_cells_spec.name] = perfbench_cells  # its dataclasses look their module up
_cells_spec.loader.exec_module(perfbench_cells)


def _catalog_window(group, opts):
    return Window.for_group(
        group, bound=opts.get("window"), repeated_m=opts.get("m", 4), prufer_level=opts.get("level", 4)
    )


# the benchmark's solve catalog, read only: windows of 49 to 100 vertices,
# past the oracle's cap, where the pruned root does most of its work
CATALOG = perfbench_cells.index_catalog(packidx)
SUBGROUP_CATALOG = [
    i for i, (_, base) in enumerate(CATALOG) if all(f.kind != INFINITE_CYCLIC for f in base[0].group.factors)
]


def test_catalog_has_the_subgroup_sets():
    assert len(SUBGROUP_CATALOG) == 28


@pytest.mark.parametrize("index", SUBGROUP_CATALOG)
def test_pruned_root_matches_whole_graph_search(index):
    opts, base = CATALOG[index]
    group = base[0].group
    window = _catalog_window(group, opts)
    A = ElementSet.of(group, base)
    vertices = list(enumerate_window(window))
    adj = compatibility_graph(A, vertices)
    omega, picked = first_max_clique(adj)
    # the pruned root search, on the graph in the box's code order
    elements, _, neg, steps, place = window.box().tables()
    coded = compatibility_graph(A, elements)
    assert coded == (adj if place is None else relabel(adj, place))
    assert 1 + max_clique_size(coded, coded[0], neg, lambda mask, v: apply_steps(mask, steps[v])) == omega
    family = max_packing_family(A, window)
    assert family.size == omega and family.certified
    assert family.shifts == ElementSet.of(group, [vertices[i] for i in picked])


# windows of 25 to 100 vertices, each with the larger window A is drawn from
# (none for the finite Z_5 + Z_5); Prufer windows are searched relabelled
WIDE_SUBGROUP_WINDOWS = [
    ("Z_5 + Z_5", {}, {}),
    ("Z_3^w", {"repeated_m": 3}, {"repeated_m": 4}),
    ("Z_3^w", {"repeated_m": 4}, {"repeated_m": 5}),
    ("Z_2^w", {"repeated_m": 5}, {"repeated_m": 6}),
    ("Z_2^w", {"repeated_m": 6}, {"repeated_m": 7}),
    ("Prufer(2)", {"prufer_level": 6}, {"prufer_level": 7}),
    ("Prufer(3)", {"prufer_level": 3}, {"prufer_level": 4}),
]


# the subgroup windows above, two more heavy ones, the four groups the
# exhaustive sweeps cover, and a shared Z box whose translates leave it
TABLE_WINDOWS = [(t, w) for t, w, _ in WIDE_SUBGROUP_WINDOWS] + [
    ("Z_10 + Z_10", {}),
    ("Z_4 + Prufer(3)", {"prufer_level": 2}),
    ("Z_3^2", {}),
    ("Z_2^4", {}),
    ("Z_4 + Z_2", {}),
    ("Z_4 + Z_2^2", {}),
    ("Z", {"bound": 3}),
]


@pytest.mark.parametrize("text,window_args", TABLE_WINDOWS, ids=[f"{t}-{w}" for t, w in TABLE_WINDOWS])
def test_cayley_tables_match_element_arithmetic(text, window_args):
    group = parse_group(text)
    window = Window.for_group(group, **window_args)
    vertices = list(enumerate_window(window))
    box = window.box()
    tables = box.tables()
    # a box with no tables codes and translates digit by digit
    plain = DenseBox(group, window.bounds)
    code = [plain.encode(v) for v in vertices]
    assert sorted(code) == list(range(box.size))
    assert tables.place == (None if code == sorted(code) else code)
    rng = random.Random(0)
    for v, c in zip(vertices, code):
        assert tables.elements[c] == v and tables.index[v.coords] == c
        assert tables.neg[c] == plain.encode(-v)
        assert box.encode(v) == c and box.steps(c) is tables.steps[c]
        assert tables.steps[c] == plain.steps(c) and tables.neg[c] == plain.neg(c)
        for u in rng.sample(vertices, 4):
            moved = plain.encode(u + v)
            want = 0 if moved is None else 1 << moved
            assert apply_steps(1 << plain.encode(u), tables.steps[c]) == want


def unpruned_first_max_clique(adj, window):
    """``first_max_clique(adj)`` on the Cayley graph of a subgroup window.

    The size comes from the unpruned search of N(0), which vertex
    transitivity makes exact; the whole-graph search takes over 10 s on
    about one draw in fifteen on ``Z_3^w`` at m = 4. It runs in code order,
    where it is also fast on ``Prufer`` windows, since a size does not
    depend on the numbering. The witness is first_max_clique's own
    extraction over the whole graph in the window's numbering.
    """
    coded = relabel(adj, window.box().codes(window.bounds))
    size = 1 + max_clique_size(coded, coded[0])
    return size, clique_of_size(adj, size)


@pytest.mark.parametrize(
    "text,window_args,pool_args", WIDE_SUBGROUP_WINDOWS, ids=[f"{t}-{w}" for t, w, _ in WIDE_SUBGROUP_WINDOWS]
)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_pruned_root_family_matches_first_max_clique(text, window_args, pool_args, data):
    group = parse_group(text)
    window = Window.for_group(group, **window_args)
    vertices = list(enumerate_window(window))
    pool = list(enumerate_window(Window.for_group(group, **pool_args)))
    assert 25 <= len(vertices) <= 100
    # one point in H, the rest from the larger window, so A may leave H
    first = data.draw(st.sampled_from(vertices))
    rest = data.draw(st.sets(st.sampled_from(pool), max_size=4))
    A = ElementSet.of(group, [first, *rest])
    adj = compatibility_graph(A, vertices)
    size, picked = unpruned_first_max_clique(adj, window)
    family = max_packing_family(A, window)
    assert family.size == size
    assert family.shifts == ElementSet.of(group, [vertices[i] for i in picked])
    assert family.certified


def test_subgroup_window_rows_take_no_gather(monkeypatch):
    # a Prufer window lists its elements out of code order, but the solve
    # builds its graph in code order, so with A inside the window every row
    # is a translate of D* and no row is gathered by code
    group = parse_group("Prufer(2)")
    window = Window.for_group(group, prufer_level=6)
    assert window.box().tables().place is not None
    A = ElementSet.parse(group, ["0", "1/2^6", "3/2^5", "7/2^6", "5/2^3"])
    vertices = list(enumerate_window(window))
    size, picked = unpruned_first_max_clique(compatibility_graph(A, vertices), window)

    def refuse(*args):
        raise AssertionError("a graph row was gathered by code")

    monkeypatch.setattr(packidx.packing, "itemgetter", refuse)
    family = max_packing_family(A, window)
    assert family.size == size and family.certified
    assert family.shifts == ElementSet.of(group, [vertices[i] for i in picked])


# the benchmark's oracle windows with no Z factor, read only
ORACLE_SUBGROUPS = [
    (text, opts)
    for text, opts in perfbench_cells.ORACLE_POOL
    if all(f.kind != INFINITE_CYCLIC for f in parse_group(text).factors)
]


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("text,opts", ORACLE_SUBGROUPS, ids=[t for t, _ in ORACLE_SUBGROUPS])
def test_pruned_root_matches_oracle_on_the_oracle_pool(text, opts, seed):
    # the root search with both symmetry rules, on the graph in code order
    group = parse_group(text)
    window = _catalog_window(group, opts)
    elements, _, neg, steps, _ = window.box().tables()
    assert len(elements) <= 24
    rng = random.Random(seed)
    for size in range(1, 7):
        A = ElementSet.of(group, rng.sample(elements, size))
        adj = compatibility_graph(A, elements)
        translate = lambda mask, v: apply_steps(mask, steps[v])  # noqa: E731
        assert 1 + max_clique_size(adj, adj[0], neg, translate) == exhaustive_max_clique_size(adj)


def _enumeration_order_family(A, window):
    """The family first_max_clique finds on the graph in enumeration order."""
    vertices = list(enumerate_window(window))
    _, picked = first_max_clique(compatibility_graph(A, vertices))
    return ElementSet.of(A.group, [vertices[i] for i in picked])


# windows whose only or leftmost factor is Z, with A inside the window on
# the other factors: in code order their codes are one run
ONE_RUN_WINDOWS = [
    ("Z", ["0", "1", "3", "7"], {"bound": 40}),
    ("Z", ["0", "2", "-6"], {"bound": 12}),
    ("Z + Z_3", ["(0,0)", "(1,1)", "(3,2)"], {"bound": 6}),
    ("Z + Z_3", ["(0,0)", "(2,0)", "(-1,2)", "(5,1)"], {"bound": 4}),
]


@pytest.mark.parametrize(
    "text,elements,window_args", ONE_RUN_WINDOWS, ids=[f"{t}-{len(e)}" for t, e, _ in ONE_RUN_WINDOWS]
)
def test_z_window_rows_take_no_gather(text, elements, window_args, monkeypatch):
    group = parse_group(text)
    A = ElementSet.parse(group, elements)
    window = Window.for_group(group, **window_args)
    expected = _enumeration_order_family(A, window)

    def refuse(*args):
        raise AssertionError("a graph row was gathered by code")

    monkeypatch.setattr(packidx.packing, "itemgetter", refuse)
    family = max_packing_family(A, window)
    assert family.shifts == expected and family.certified


def test_z_window_not_leftmost_takes_the_gather(monkeypatch):
    # Z_3 + Z in code order runs through Z_3's digit first, so each Z_3
    # part is its own run of codes, and the rows are gathered
    group = parse_group("Z_3 + Z")
    A = ElementSet.parse(group, ["(0,0)", "(1,1)", "(2,3)"])
    window = Window.for_group(group, bound=6)
    expected = _enumeration_order_family(A, window)
    gathers = []

    def spy(*items):
        gathers.append(items)
        return itemgetter(*items)

    monkeypatch.setattr(packidx.packing, "itemgetter", spy)
    family = max_packing_family(A, window)
    assert family.shifts == expected and family.certified
    assert gathers


@pytest.mark.parametrize(
    "text,elements,window_args", ONE_RUN_WINDOWS, ids=[f"{t}-{len(e)}" for t, e, _ in ONE_RUN_WINDOWS]
)
def test_first_max_clique_searches_the_same_copy_in_either_numbering(
    text, elements, window_args, monkeypatch
):
    # the graph in code order, read through place, gives the same
    # degree-ordered copy as the graph in enumeration order, hence the same
    # search, node for node, and the same witness
    group = parse_group(text)
    A = ElementSet.parse(group, elements)
    window = Window.for_group(group, **window_args)
    vertices = list(enumerate_window(window))
    place = window.box().codes(window.bounds)
    coded = [None] * len(vertices)
    for v, c in zip(vertices, place):
        coded[c] = v
    calls = []

    def spy(*args):
        calls.append(args[0::2])
        return color_sort(*args)

    monkeypatch.setattr(packidx.clique, "color_sort", spy)
    corner = place.index(0)
    want = first_max_clique(compatibility_graph(A, vertices), corner)
    enumeration_calls = list(calls)
    calls.clear()
    assert first_max_clique(compatibility_graph(A, coded), 0, place) == want
    assert calls == enumeration_calls


COVERED_WINDOWS = [
    ("Z_2^w", ["0", "[1]", "[0,1]"], {"repeated_m": 2}),
    ("Z_12", ["0", "1", "2", "3", "6", "9"], {}),
    ("Prufer(2)", ["0", "1/2", "1/2^2", "3/2^2", "1/2^3", "3/2^3"], {"prufer_level": 3}),
    # A leaves the window, and its differences still cover it
    ("Z_2^w", ["[0,1]", "[1,1]"], {"repeated_m": 1}),
]


@pytest.mark.parametrize(
    "text,elements,window_args", COVERED_WINDOWS, ids=[f"{t}-{len(e)}" for t, e, _ in COVERED_WINDOWS]
)
def test_a_covered_window_builds_no_graph(text, elements, window_args, monkeypatch):
    group = parse_group(text)
    A = ElementSet.parse(group, elements)
    window = Window.for_group(group, **window_args)
    vertices = list(enumerate_window(window))
    assert exhaustive_max_clique_size(compatibility_graph(A, vertices)) == 1

    def refuse(*args):
        raise AssertionError("a covered window built its graph")

    monkeypatch.setattr(packidx.packing, "compatibility_graph", refuse)
    family = max_packing_family(A, window)
    assert family.shifts.to_texts() == ["0"] and family.certified


def test_a_subgroup_window_computes_its_differences_once(monkeypatch):
    # the cover check and the graph read one D
    group = parse_group("Z_10 + Z_10")
    A = ElementSet.parse(group, ["(5,1)", "(8,5)", "(9,0)", "(9,2)"])
    window = Window.for_group(group)
    masks = []
    diff_mask = DenseBox.diff_mask

    def counting(box, mask):
        masks.append(mask)
        return diff_mask(box, mask)

    monkeypatch.setattr(DenseBox, "diff_mask", counting)
    assert max_packing_family(A, window).size == 20
    assert len(masks) == 1


def _answer(family):
    return family.size, family.shifts.to_texts(), family.certified


@pytest.mark.parametrize("text", ["Z_4 + Z_2", "Z_3^2", "Z_2^3"])
def test_a_window_kept_family_never_changes_an_answer(text):
    # every nonempty subset, in mask order, on one window: each answer must
    # be the answer of a fresh window and a fresh set
    group = parse_group(text)
    shared = Window.for_group(group)
    elements = list(enumerate_window(shared))
    uncovered = []
    for mask in range(1, 1 << len(elements)):
        chosen = [e for i, e in enumerate(elements) if mask >> i & 1]
        A = ElementSet.of(group, chosen)
        got = _answer(max_packing_family(A, shared))
        fresh = _answer(max_packing_family(ElementSet.of(group, chosen), Window.for_group(group)))
        assert got == fresh, mask
        box, diff = A._differences[shared.bounds]
        if diff != (1 << box.size) - 1:
            uncovered.append(diff)
    # one entry per uncovered D, and some D met again, so entries were read
    assert set(shared._families) == set(uncovered)
    assert len(uncovered) > len(shared._families)


# sets that leave their window: D's box is not the window's, so no family
# is kept, and the answer is a fresh window's
LEAVING_SETS = [
    ("Z_2^w", ["0", "[1]", "[0,0,1]"], {"repeated_m": 2}),
    ("Prufer(2)", ["0", "1/2", "1/2^3"], {"prufer_level": 2}),
]


@pytest.mark.parametrize("text,elements,window_args", LEAVING_SETS, ids=[t for t, _, _ in LEAVING_SETS])
def test_a_set_that_leaves_its_window_keeps_no_family(text, elements, window_args):
    group = parse_group(text)
    window = Window.for_group(group, **window_args)
    A = ElementSet.parse(group, elements)
    box, _ = difference_mask(A, window.bounds)
    assert box.size > window.size()
    first, again = (_answer(max_packing_family(A, window)) for _ in range(2))
    fresh = _answer(max_packing_family(ElementSet.parse(group, elements), Window.for_group(group, **window_args)))
    assert first == again == fresh
    assert fresh[0] > 1  # not covered: each solve built its graph
    assert window._families == {}


# subgroup windows of more than 64 codes, each with a set inside it: D is
# worked out on the window's own box, with its tables
OWN_BOX_SETS = [
    ("Z_3^w", ["0", "[1,1]", "[2,0,1]", "[0,0,0,1]"], {"repeated_m": 4}),
    ("Z_10 + Z_10", ["(5,1)", "(8,5)", "(9,0)", "(9,2)"], {}),
]


@pytest.mark.parametrize("text,elements,window_args", OWN_BOX_SETS, ids=[t for t, _, _ in OWN_BOX_SETS])
def test_a_set_inside_a_large_window_gets_its_differences_on_the_window_box(text, elements, window_args):
    group = parse_group(text)
    window = Window.for_group(group, **window_args)
    A = ElementSet.parse(group, elements)
    family = max_packing_family(A, window)
    box, diff = A._differences[window.bounds]
    assert box is window.box() and box.size == window.size() > 64
    assert box._tables is not None
    bare = DenseBox(group, window.bounds)  # no tables: codes by digits
    assert diff == bare.diff_mask(bare.mask_of(A.elements))
    fresh = max_packing_family(ElementSet.parse(group, elements), Window.for_group(group, **window_args))
    assert _answer(family) == _answer(fresh)
    assert family.size > 1 and window._families[diff] is family.shifts


def test_a_window_keeps_its_box_and_tables(monkeypatch):
    # 81 codes; each solve reads the tables of the window's one box
    group = parse_group("Z_3^w")
    window = Window.for_group(group, repeated_m=4)
    assert window.box() is window.box()
    built = []
    tables = groups.BoxTables

    def spy(*args):
        built.append(args)
        return tables(*args)

    monkeypatch.setattr(groups, "BoxTables", spy)
    for elements in (["0", "[1,1]", "[2,0,1]", "[0,0,0,1]"], ["0", "[1]"]):
        assert max_packing_family(ElementSet.parse(group, elements), window).size > 1
    assert len(built) == 1
    assert window.box().tables().elements is built[0][0]


# sets spread past MAX_BOX_BITS: difference_mask takes its pairwise path
WIDE_SETS = [
    ("Z", ["0", "1", "1048577"], 6),
    ("Z + Z_3", ["(0,0)", "(0,1)", "(2000000,2)"], 3),
]


@pytest.mark.parametrize("text,elements,bound", WIDE_SETS, ids=[t for t, _, _ in WIDE_SETS])
def test_a_wide_set_takes_its_differences_pairwise(text, elements, bound, monkeypatch):
    group = parse_group(text)
    A = ElementSet.parse(group, elements)
    window = Window.for_group(group, bound=bound)

    def refuse(*args):
        raise AssertionError("a wide set built a box around itself")

    monkeypatch.setattr(DenseBox, "diff_mask", refuse)
    family = max_packing_family(A, window)
    oracle = exhaustive_max_clique_size(compatibility_graph(A, list(enumerate_window(window))))
    assert family.certified and family.size == oracle == 7


# 21 to 24 vertices: past the 20 the oracle once stopped at
WIDE_ORACLE_WINDOWS = [
    ("Z", {"bound": 10}),
    ("Z", {"bound": 11}),
    ("Z_3 + Z_8", {}),
    ("Z_2 + Z_12", {}),
    ("Z_4 + Z_6", {}),
]


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("text,opts", WIDE_ORACLE_WINDOWS, ids=[f"{t}-{o}" for t, o in WIDE_ORACLE_WINDOWS])
def test_solver_matches_oracle_up_to_its_cap(text, opts, seed):
    group = parse_group(text)
    window = Window.for_group(group, **opts)
    vertices = list(enumerate_window(window))
    assert 21 <= len(vertices) <= 24
    rng = random.Random(seed)
    for size in range(2, 6):
        A = ElementSet.of(group, rng.sample(vertices, size))
        family = max_packing_family(A, window)
        assert family.certified
        assert family.size == exhaustive_max_clique_size(compatibility_graph(A, vertices))


class TestMaxCliqueInBset:
    def test_five_element_carrier(self):
        # frozen from exhaustively checking all subsets of the carrier
        B = ElementSet.parse(Z, ["0", "1", "-1", "2", "-2"])
        result = max_clique_in_bset(B)
        assert result.size == 3
        assert result.certified
        assert set(result.witness.to_texts()) == {"0", "1", "-1"}

    def test_exhaustive_over_carrier_subsets(self):
        B = ElementSet.parse(Z, ["0", "1", "-1", "2", "-2"])
        coords = B.coords_set()
        best = 0
        for r in range(1, len(B) + 1):
            for combo in itertools.combinations(list(B), r):
                if all((a - b).coords in coords for a in combo for b in combo):
                    best = max(best, r)
        assert best == max_clique_in_bset(B).size == 3

    def test_zero_only(self):
        assert max_clique_in_bset(ElementSet.parse(Z, ["0"])).size == 1

    def test_three_element_set(self):
        assert max_clique_in_bset(ElementSet.parse(Z, ["0", "1", "-1"])).size == 2

    @pytest.mark.parametrize("text,kappa", [("Z", 5), ("Prufer(2)", 5), ("Z_3^w", 6)])
    def test_clique_of_a_given_size_is_none_above_omega(self, text, kappa):
        B = build_bset(parse_group(text), kappa).elements
        best = max_clique_in_bset(B)
        assert clique_in_bset_of_size(B, best.size) == best.witness
        assert clique_in_bset_of_size(B, best.size + 1) is None

    def test_requires_symmetry_and_zero(self):
        with pytest.raises(PreconditionError):
            max_clique_in_bset(ElementSet.parse(Z, ["0", "1"]))
        with pytest.raises(PreconditionError):
            max_clique_in_bset(ElementSet.parse(Z, ["1", "-1"]))

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_graph_and_certificate_match_element_differences(self, data):
        # Z, Z_n, Z_n^w and Prufer(p) factors, alone and mixed
        group = parse_group(data.draw(st.sampled_from(CERTIFY_GROUPS)))
        points = data.draw(st.lists(_small_element(group), max_size=6))
        B = ElementSet.of(group, [group.zero(), *points, *(-e for e in points)])
        coords = B.coords_set()
        vertices, adj = _bset_graph(B)
        assert vertices == list(B.elements)
        for i, a in enumerate(vertices):
            assert adj[i] == sum(1 << j for j, b in enumerate(vertices) if j != i and (a - b).coords in coords)
        picked = data.draw(st.lists(st.integers(0, len(B) - 1), unique=True, max_size=5))
        chosen = [vertices[i] for i in picked]
        if all((a - b).coords in coords for a in chosen for b in chosen):
            assert _certified_clique(B, vertices, len(picked), picked) == ElementSet.of(group, chosen)
        else:
            with pytest.raises(CertificationError, match="a difference outside the base set"):
                _certified_clique(B, vertices, len(picked), picked)


class TestSetFiles:
    def test_round_trip(self, tmp_path):
        A = ElementSet.parse(Z55, ["(0,0)", "(1,0)", "(3,4)"])
        path = tmp_path / "a.json"
        write_set_file(path, A)
        assert read_set_file(path) == A

    def test_deterministic_iteration_order(self):
        A = ElementSet.parse(Z, ["3", "-1", "0", "3"])
        assert A.to_texts() == ["0", "-1", "3"]


def unsplit_first_max_clique(adj):
    """``first_max_clique(adj)`` without the split: one size search of the
    whole degree-ordered copy and one extraction with a single block."""
    graph, at = _by_degree(adj)
    size = max_clique_size(graph, (1 << len(adj)) - 1)
    return size, clique_of_size(graph, size, None, at)


def split_oracle(adj):
    """The subset-DP clique number, and the graph's co-components. Past the
    oracle's cap the DP runs on each co-component, which ``co_components``
    finds (its own test checks it against union-find), and adds up."""
    blocks = co_components(complement_rows(adj))
    if len(adj) <= ORACLE_LIMIT:
        return exhaustive_max_clique_size(adj), blocks
    total = 0
    for block in blocks:
        inside = [v for v in range(len(adj)) if block >> v & 1]
        total += exhaustive_max_clique_size(
            [sum(1 << j for j, w in enumerate(inside) if adj[v] >> w & 1) for v in inside]
        )
    return total, blocks


def assert_split_family(A, window):
    """The window splits into several blocks, and its family has the
    oracle's size and the unsplit solve's shifts on the same graph."""
    vertices = list(enumerate_window(window))
    adj = compatibility_graph(A, vertices)
    oracle, blocks = split_oracle(adj)
    assert len(blocks) > 1
    size, picked = unsplit_first_max_clique(adj)
    family = max_packing_family(A, window)
    assert family.size == size == oracle
    assert family.shifts == ElementSet.of(A.group, [vertices[i] for i in picked])
    assert family.certified


def subgroup_of(gens, zero):
    """The subgroup the elements generate, by closing {0} under adding them."""
    out = {zero.coords: zero}
    frontier = [zero]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = x + g
            if y.coords not in out:
                out[y.coords] = y
                frontier.append(y)
    return list(out.values())


# subgroup windows H, each with the larger window A's translate is drawn from
SPLIT_SUBGROUP_WINDOWS = [
    ("Z_4 + Z_2", {}, {}),
    ("Z_6", {}, {}),
    ("Z_2^w", {"repeated_m": 3}, {"repeated_m": 4}),
    ("Z_2^w", {"repeated_m": 4}, {"repeated_m": 5}),
]


class TestBlockSplit:
    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from(SPLIT_SUBGROUP_WINDOWS), st.data())
    def test_subgroup_windows(self, case, data):
        # A is a translate of a set inside a proper subgroup L of H, so
        # K = <(A - A) ∩ H> lies in L and H splits into its cosets; the
        # translate may leave H
        text, window_args, pool_args = case
        group = parse_group(text)
        window = Window.for_group(group, **window_args)
        vertices = list(enumerate_window(window))
        gens = data.draw(st.lists(st.sampled_from(vertices), min_size=1, max_size=2))
        L = subgroup_of(gens, group.zero())
        assume(len(L) < len(vertices))
        inside = data.draw(st.sets(st.sampled_from(L), min_size=1, max_size=4))
        shift = data.draw(st.sampled_from(list(enumerate_window(Window.for_group(group, **pool_args)))))
        assert_split_family(ElementSet.of(group, [shift + a for a in inside]), window)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_z_windows(self, data):
        # Z + Z at window 2 with {(0,0), (1,1)} splits into diagonals, and Z
        # at window 8 with {0, 2} into odd and even; each set is drawn
        # inside its line and translated
        text, step, bound = data.draw(st.sampled_from([("Z + Z", (1, 1), 2), ("Z", (2,), 8)]))
        group = parse_group(text)
        multiples = data.draw(st.sets(st.integers(0, 3), min_size=2, max_size=3))
        shift = data.draw(st.sampled_from(list(enumerate_window(Window.for_group(group, bound=bound)))))
        A = ElementSet.of(group, [shift + group.element(*(k * s for s in step)) for k in multiples])
        assert_split_family(A, Window.for_group(group, bound=bound))

    @pytest.mark.parametrize(
        "text,elements,window_args",
        [
            ("Z + Z", ["(0,0)", "(1,1)"], {"bound": 2}),
            ("Z", ["0", "2"], {"bound": 8}),
            # A leaves the window, so D's own box is not the window's box:
            # D* ∩ H must be read in the window's codes
            ("Prufer(2)", ["0", "1/2", "1/2^3"], {"prufer_level": 2}),
        ],
        ids=["zz-diagonal", "z-even", "prufer-leaving"],
    )
    def test_named_cells(self, text, elements, window_args):
        group = parse_group(text)
        assert_split_family(ElementSet.parse(group, elements), Window.for_group(group, **window_args))

    def test_the_subgroup_root_search_runs_once_inside_k(self, monkeypatch):
        # the benchmark's Z_3^w set 17: H has 81 elements, K = <D* ∩ H> 27
        opts, base = CATALOG[17]
        group = base[0].group
        assert str(group) == "Z_3^w" and opts == {"m": 4}
        A = ElementSet.of(group, base)
        window = _catalog_window(group, opts)
        elements, index, *_ = window.box().tables()
        dstar = [d for d in difference_set(A) if not d.is_zero() and d.coords in index]
        K = sum(1 << index[k.coords] for k in subgroup_of(dstar, group.zero()))
        assert K.bit_count() == 27
        calls = []

        def spy(adj, P, *args, **kwargs):
            calls.append((P, args[0] if args else kwargs.get("neg")))
            return max_clique_size(adj, P, *args, **kwargs)

        monkeypatch.setattr(packidx.clique, "max_clique_size", spy)
        family = max_packing_family(A, window)
        ((P, neg),) = calls
        assert neg is not None and P and P & ~K == 0
        assert family.size == 12 and family.certified

    def test_each_coset_takes_its_first_vertex_without_a_decision(self, monkeypatch):
        # Z_2^w at m = 8 with {0, [1]}: 128 cosets of K = {0, [1]}, one
        # shift from each, and no decision to make
        group = parse_group("Z_2^w")
        A = ElementSet.parse(group, ["0", "[1]"])
        decisions = []

        def spy(*args, **kwargs):
            decisions.append(args)
            return exists_clique(*args, **kwargs)

        monkeypatch.setattr(packidx.clique, "exists_clique", spy)
        family = max_packing_family(A, Window.for_group(group, repeated_m=8))
        assert family.size == 128 and family.certified
        assert decisions == []
