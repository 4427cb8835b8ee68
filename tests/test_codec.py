"""The dense box codec against Element arithmetic, on every factor kind."""

import random
from operator import itemgetter
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from packidx import groups, packing
from packidx.bsets import BSet
from packidx.groups import (
    CYCLIC,
    INFINITE_CYCLIC,
    PRUFER,
    REPEATED_CYCLIC,
    DenseBox,
    Window,
    coord_extent,
    enumerate_window,
    extents,
    hull_bounds,
    parse_group,
    sum_bounds,
)
from packidx.packing import ElementSet, compatibility_graph, difference_mask
from packidx.witness import WitnessSet, verify_witness

GROUPS = [
    "Z",
    "Z_6",
    "Z_3^w",
    "Prufer(2)",
    "Prufer(3)",
    "Z + Z_2",
    "Z_2 + Z",
    "Z_2^w + Z",
    "Z + Prufer(2)",
    "Z_3 + Z_2^w",
    "Z + Z",
    "Z_2^4",
    "Z_4 + Z_2^2",
    "Z_3^3",
]
MAX_BOUND = {INFINITE_CYCLIC: 4, REPEATED_CYCLIC: 3, PRUFER: 3}


def _bounds(group, low: int):
    # one bound less for base 3, which keeps every box within a few hundred codes
    return st.tuples(
        *(
            st.none() if f.kind == CYCLIC else st.integers(low, MAX_BOUND[f.kind] - (f.param == 3))
            for f in group.factors
        )
    )


def _element(group, bounds, reach: int):
    """Elements whose extents exceed the bounds by up to ``reach``."""
    coords = []
    for f, b in zip(group.factors, bounds):
        if f.kind == INFINITE_CYCLIC:
            coords.append(st.integers(-b - reach, b + reach))
        elif f.kind == CYCLIC:
            coords.append(st.integers(0, f.param - 1))
        elif f.kind == REPEATED_CYCLIC:
            coords.append(st.lists(st.integers(0, f.param - 1), max_size=b + reach).map(tuple))
        else:
            coords.append(
                st.integers(0, b + reach).flatmap(
                    lambda k, p=f.param: st.tuples(st.integers(0, p**k - 1), st.just(k))
                )
            )
    return st.tuples(*coords).map(lambda raw: group.element(*raw))


def _inside(bounds, e) -> bool:
    return all(b is None or coord_extent(f, x) <= b for f, b, x in zip(e.group.factors, bounds, e.coords))


@st.composite
def box_case(draw, low: int = 0):
    group = parse_group(draw(st.sampled_from(GROUPS)))
    bounds = draw(_bounds(group, low))
    return group, bounds


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_encode_decode_round_trip(data):
    group, bounds = data.draw(box_case())
    box = DenseBox(group, bounds)
    e = data.draw(_element(group, bounds, reach=2))
    code = box.encode(e)
    if _inside(bounds, e):
        assert 0 <= code < box.size
        assert box.decode(code) == e
    else:
        assert code is None


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_codes_follow_window_enumeration(data):
    group, bounds = data.draw(box_case(low=1))
    box = DenseBox(group, bounds)
    window = Window(group, bounds)
    codes = box.codes(bounds)
    assert sorted(codes) == list(range(box.size))
    assert [box.decode(c) for c in codes] == list(enumerate_window(window))
    if group.is_finite:
        # the obstruction sweep numbers a finite group's elements by code
        assert codes == list(range(box.size))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_codes_of_a_sub_window_follow_its_enumeration(data):
    # build_witness lists the ambient window's codes in a larger box
    group, bounds = data.draw(box_case(low=1))
    box = DenseBox(group, bounds)
    sub = tuple(None if b is None else data.draw(st.integers(1, b)) for b in bounds)
    want = [box.encode(e) for e in enumerate_window(Window(group, sub))]
    assert box.codes(sub) == want
    assert None not in want
    wider = [i for i, b in enumerate(bounds) if b is not None]
    if wider:
        i = data.draw(st.sampled_from(wider))
        past = sub[:i] + (bounds[i] + data.draw(st.integers(1, 2)),) + sub[i + 1 :]
        with pytest.raises(ValueError, match="exceeds the box"):
            box.codes(past)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_translate_matches_element_arithmetic(data):
    group, bounds = data.draw(box_case())
    box = DenseBox(group, bounds)
    S = data.draw(st.lists(_element(group, bounds, reach=0), max_size=8))
    g = data.draw(_element(group, bounds, reach=0))
    want = box.mask_of(s + g for s in S if _inside(bounds, s + g))
    assert box.translate(box.mask_of(S), box.encode(g)) == want


def _by_code(box, us, S):
    """Per code c: neg(c) and translate(1 << u, c) for each u in ``us``;
    then diff_mask of the set S."""
    per_code = [(box.neg(c), [box.translate(1 << u, c) for u in us]) for c in range(box.size)]
    return per_code, box.diff_mask(box.mask_of(S))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_neg_translate_and_diff_mask_by_code_match_element_arithmetic(data):
    # a fresh box works from the digits of a code; after tables() the same
    # box reads its tables, and must answer the same
    group, bounds = data.draw(box_case())
    box = DenseBox(group, bounds)
    us = data.draw(st.lists(st.integers(0, box.size - 1), min_size=1, max_size=4))
    S = data.draw(st.lists(_element(group, bounds, reach=0), max_size=6))
    by_digits = _by_code(box, us, S)
    per_code, diff = by_digits
    for c, (neg, moved) in enumerate(per_code):
        g = box.decode(c)
        assert neg == box.encode(-g)
        for u, got in zip(us, moved):
            code = box.encode(box.decode(u) + g)
            assert got == (0 if code is None else 1 << code)
    differences = (a - b for a in S for b in S)
    assert diff == box.mask_of(d for d in differences if _inside(bounds, d))
    box.tables()
    assert _by_code(box, us, S) == by_digits


def _or_of_every_translate(box, mask):
    """diff_mask with no early stop: the OR over every y in mask of the
    translate by -y."""
    diff = 0
    for y in range(box.size):
        if mask >> y & 1:
            diff |= box.translate(mask, box.neg(y))
    return diff


def _diff_masks_both_ways(box, masks):
    before = [box.diff_mask(m) for m in masks]
    box.tables()
    return before, [box.diff_mask(m) for m in masks]


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_diff_mask_matches_the_or_of_every_translate(data):
    # a random mask of the box's codes, sparse or dense, on a fresh box and
    # again once it reads its tables
    group, bounds = data.draw(box_case())
    box = DenseBox(group, bounds)
    full = (1 << box.size) - 1
    all_but_one = st.integers(0, box.size - 1).map(lambda c: full ^ (1 << c))
    masks = data.draw(st.lists(st.one_of(st.integers(0, full), all_but_one), max_size=4))
    want = [_or_of_every_translate(box, m) for m in masks]
    assert _diff_masks_both_ways(box, masks) == (want, want)


@pytest.mark.parametrize("text", ["Z_6", "Z_3^3", "Z_2^5", "Z_4 + Z_2^2", "Z_10 + Z_10"])
def test_diff_mask_of_a_whole_finite_group_box_matches_every_translate(text):
    # uniform masks hold about half the group, so most fill their box
    group = parse_group(text)
    box = DenseBox(group, Window.for_group(group).bounds)
    rng = random.Random(5)
    masks = [rng.getrandbits(box.size) for _ in range(40)] + [1, (1 << box.size) - 1]
    want = [_or_of_every_translate(box, m) for m in masks]
    assert sum(d == (1 << box.size) - 1 for d in want) > 20
    assert _diff_masks_both_ways(box, masks) == (want, want)


def test_diff_mask_stops_once_it_fills_the_box(monkeypatch):
    group = parse_group("Z_2^5")
    box = Window.for_group(group).box()
    box.tables()
    # 11 elements, whose first 4 translates fill the 32 codes of Z_2^5
    mask = sum(1 << c for c in (6, 7, 8, 9, 10, 13, 15, 16, 19, 20, 22))
    calls = []
    apply_steps = groups.apply_steps

    def spy(m, steps):
        calls.append(m)
        return apply_steps(m, steps)

    monkeypatch.setattr(groups, "apply_steps", spy)
    assert box.diff_mask(mask) == (1 << 32) - 1
    assert len(calls) == 4
    assert _or_of_every_translate(box, mask) == (1 << 32) - 1


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_extents_of_z_n_groups_read_no_element(data):
    group = parse_group(data.draw(st.sampled_from(["Z_6", "Z_2^4", "Z_3^3", "Z_4 + Z_2^2", "Z_10 + Z_10"])))
    elements = data.draw(st.lists(_element(group, (None,) * len(group.factors), reach=0), max_size=6))
    unread = iter(elements)
    assert extents(group, unread) == (None,) * len(group.factors)
    assert list(unread) == elements


@pytest.mark.parametrize("text", ["Z + Z_3", "Z_2^w + Z_4", "Prufer(2) + Z_2"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_extents_are_each_factors_largest_coord_extent(text, data):
    group = parse_group(text)
    elements = data.draw(st.lists(_element(group, data.draw(_bounds(group, 0)), reach=2), max_size=6))
    want = tuple(
        None if f.kind == CYCLIC else max((coord_extent(f, e.coords[i]) for e in elements), default=0)
        for i, f in enumerate(group.factors)
    )
    assert extents(group, elements) == want


def _pairwise_reference(A, vertices):
    n = len(vertices)
    adj = [0] * n
    for i in range(n):
        left = {(vertices[i] + a).coords for a in A}
        for j in range(n):
            if j != i and left.isdisjoint({(vertices[j] + a).coords for a in A}):
                adj[i] |= 1 << j
    return adj


@pytest.mark.parametrize("max_box_bits", [packing.MAX_BOX_BITS, 0], ids=["translates", "pairwise"])
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_compatibility_graph_matches_pairwise_translates(max_box_bits, data):
    # A reaches past the window, so its difference mask needs a box wider
    # than the vertices' differences
    group, bounds = data.draw(box_case(low=1))
    A = ElementSet.of(group, data.draw(st.lists(_element(group, bounds, reach=3), min_size=1, max_size=6)))
    vertices = list(enumerate_window(Window(group, bounds)))
    with mock.patch.object(packing, "MAX_BOX_BITS", max_box_bits):
        got = compatibility_graph(A, vertices)
    assert got == _pairwise_reference(A, vertices)


Z = parse_group("Z")
FAR = 10**7


def _graph_and_path(A, vertices, monkeypatch):
    """compatibility_graph's answer, and whether it gathered each row by
    code instead of taking the translated D* as the row."""
    gathers = []

    def spy(*items):
        gathers.append(items)
        return itemgetter(*items)

    monkeypatch.setattr(packing, "itemgetter", spy)
    return compatibility_graph(A, vertices), bool(gathers)


def _orders(vertices, rng):
    """(name, vertex list, whether its codes ascend in one run) for the
    vertices of a whole box in code order."""
    shuffled = list(vertices)
    while shuffled == vertices:
        rng.shuffle(shuffled)
    drop = rng.randrange(1, len(vertices) - 1)
    return [
        ("code order", vertices, True),
        ("reversed", vertices[::-1], False),
        ("shuffled", shuffled, False),
        ("prefix", vertices[:-1], True),
        ("suffix", vertices[1:], True),
        ("one dropped", vertices[:drop] + vertices[drop + 1 :], False),
    ]


@pytest.mark.parametrize("text", ["Z_3^2", "Z_4 + Z_2^2", "Z_2^4", "Z_10 + Z_10"])
@pytest.mark.parametrize("seed", range(3))
def test_rows_come_from_the_translate_only_on_the_whole_box_in_code_order(text, seed, monkeypatch):
    # a finite group is one box, and its window lists it in code order; a
    # part of it whose codes ascend in one run, such as a prefix or a
    # suffix, also takes its rows from the translate
    group = parse_group(text)
    window = Window.for_group(group)
    vertices = list(enumerate_window(window))
    box = window.box()
    assert [box.encode(v) for v in vertices] == list(range(box.size))
    rng = random.Random(seed)
    for size in (1, 2, 3, 5):
        A = ElementSet.of(group, rng.sample(vertices, size))
        for name, order, direct in _orders(vertices, rng):
            got, gathered = _graph_and_path(A, order, monkeypatch)
            assert got == _pairwise_reference(A, order), name
            assert gathered != direct, name


@pytest.mark.parametrize("texts, narrow", [(["0"], True), (["0", "1"], False), (["-2", "0", "1"], False)])
def test_a_single_vertex_of_z_is_a_radius_0_box(texts, narrow, monkeypatch):
    # vertex 0 alone spans a Z box of radius 0; a base set that reaches
    # past it widens the box, where vertex 0 is a run of one code from its
    # middle, so the row still comes from the translate
    A = ElementSet.parse(Z, texts)
    got, gathered = _graph_and_path(A, [Z.zero()], monkeypatch)
    assert got == _pairwise_reference(A, [Z.zero()]) == [0]
    assert not gathered
    assert (difference_mask(A, (0,))[0].size == 1) == narrow




def test_far_spread_set_uses_pairwise_differences():
    A = ElementSet.parse(Z, ["0", "2", str(FAR), str(FAR + 1)])
    vertices = list(enumerate_window(Window.for_group(Z, 3)))
    assert compatibility_graph(A, vertices) == _pairwise_reference(A, vertices)


def test_verify_witness_on_far_spread_set():
    bset = BSet(Z, 2, ElementSet.parse(Z, ["0"]), "K2-Zero")
    window = Window.for_group(Z, 2)
    A = ElementSet.parse(Z, ["0", "1", str(FAR)])
    report = verify_witness(WitnessSet(Z, 2, bset, window, A, (), window))
    assert report.i1_holds
    assert str(report.i2_missing) == "2"


def _fresh_box_graph(A, vertices):
    """compatibility_graph on a fresh DenseBox with no memo, reading each
    row bit by bit off the translate of D*."""
    group = A.group
    span = extents(group, vertices)
    box = DenseBox(group, hull_bounds(sum_bounds(group, span, span), extents(group, A.elements)))
    amask = box.mask_of(A.elements)
    diff = 0
    for a in A.elements:
        diff |= box.translate(amask, box.encode(-a))
    dstar = diff & ~(1 << box.encode(group.zero()))
    codes = [box.encode(v) for v in vertices]
    adj = []
    for i, c in enumerate(codes):
        moved = box.translate(dstar, c)
        adj.append(sum(1 << j for j, c in enumerate(codes) if j != i and not moved >> c & 1))
    return adj


# (group, window options, options of the window A is drawn from): boxes of
# at most 64 codes, and larger ones; A reaches past a subgroup window or a
# Z window in the cases whose two options differ
GRAPH_CASES = [
    ("Z_4 + Z_2^2", {}, {}),
    ("Z_3^2", {}, {}),
    ("Z", {"bound": 3}, {"bound": 3}),
    ("Z", {"bound": 3}, {"bound": 20}),
    ("Z_2^w", {"repeated_m": 2}, {"repeated_m": 4}),
    ("Prufer(2)", {"prufer_level": 2}, {"prufer_level": 3}),
    ("Z", {"bound": 40}, {"bound": 40}),
    ("Z_10 + Z_10", {}, {}),
    ("Z + Z", {"bound": 3}, {"bound": 3}),
    ("Z_3^w", {"repeated_m": 3}, {"repeated_m": 4}),
]


def _graph_cases(seed):
    rng = random.Random(seed)
    out = []
    for text, window_opts, pool_opts in GRAPH_CASES:
        group = parse_group(text)
        vertices = list(enumerate_window(Window.for_group(group, **window_opts)))
        pool = list(enumerate_window(Window.for_group(group, **pool_opts)))
        for size in (1, 2, 4):
            out.append((ElementSet.of(group, rng.sample(pool, size)), vertices))
    return out


# a graph does not depend on which sets and windows were solved before it
@pytest.mark.parametrize("seed", range(3))
def test_shared_boxes_change_no_graph_in_either_order(seed):
    want = [_fresh_box_graph(A, vertices) for A, vertices in _graph_cases(seed)]
    for order in (range(len(want)), reversed(range(len(want)))):
        # fresh sets, which keep no differences from the last order
        cases = _graph_cases(seed)
        for i in order:
            assert compatibility_graph(*cases[i]) == want[i]


# boxes whose every bound is 0, a Z radius of 0 among them
ZERO_BOXES = [("Z", (0,)), ("Z + Z_2", (0, None)), ("Z_2^w + Z", (0, 0)), ("Z + Prufer(2)", (0, 0))]


def _assert_tables_decode(group, bounds):
    tables = DenseBox(group, bounds).tables()
    plain = DenseBox(group, bounds)
    assert len(tables.elements) == plain.size
    for c, e in enumerate(tables.elements):
        assert e == plain.decode(c)
        assert tables.index[e.coords] == c
        assert tables.neg[c] == plain.neg(c) and tables.steps[c] == plain.steps(c)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_tables_hold_the_decoded_element_of_every_code(data):
    # tables() lists a box as enumerate_window lists a window, with no
    # decode; the element it files under each code is the one decode gives
    for text, bounds in ZERO_BOXES:
        _assert_tables_decode(parse_group(text), bounds)
    _assert_tables_decode(*data.draw(box_case()))
