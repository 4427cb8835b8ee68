import collections
import itertools

import pytest

from packidx import bsets, clique, packing
from packidx.bsets import (
    BSet,
    K2_ZERO,
    K3,
    K4_ORDER_GT5,
    K4_Z3,
    K4_ZIZJ,
    KN_DIRECT_SUM,
    KN_PRUFER,
    KN_Z,
    build_bset,
    check_property_1,
    check_property_2,
    check_property_3,
    is_exceptional,
    run_checks,
)
from packidx.errors import (
    ExceptionalGroupError,
    FiniteGroupError,
    NoCarrierError,
    PropertyCheckFailedError,
)
from packidx.groups import (
    CYCLIC,
    INFINITE_CYCLIC,
    PRUFER,
    REPEATED_CYCLIC,
    Window,
    parse_group,
    zero_coord,
)
from packidx.demo import ATTAINABILITY_CELLS
from packidx.packing import ElementSet, clique_in_bset_of_size, difference_set, max_clique_in_bset
from packidx.runners import RunConfig, run_bset

Z = parse_group("Z")
# groups whose kappa >= 5 base set is carried by Z or Prufer(p)
KN_HULL_GROUPS = [
    "Z", "Z + Z_3", "Z_4 + Z", "Prufer(2)", "Prufer(3)", "Z_2^w + Prufer(5)", "Z_6 + Prufer(7) + Z", "Z_3^w + Z",
]
# carrier specs with the number of units each builds
CARRIER_UNITS = [("Z_4^4095 + Z_4^w", 4, 2), ("Z_2^4095 + Z_3^w", 5, 4), ("Z_4 + Z_4^w", 4, 2)]


class TestExceptional:
    @pytest.mark.parametrize(
        "text,kappa,expected",
        [
            ("Z_3^w", 3, True),
            ("Z_3 + Z_3^w", 3, True),
            ("Z_4 + Z_2^w", 4, True),
            ("Z_2^w", 4, True),
            ("Z_4 + Z_4 + Z_2^w", 4, False),
            ("Z_4^w", 4, False),
            ("Z + Z_3^w", 3, False),
            ("Z_3^w", 4, False),
            ("Z_2^w", 3, False),
            ("Z_3^w", 5, False),
            ("Z_2^w", 2, False),
        ],
    )
    def test_detection(self, text, kappa, expected):
        assert is_exceptional(parse_group(text), kappa) is expected

    def test_finite_group_is_an_error(self):
        with pytest.raises(FiniteGroupError):
            is_exceptional(parse_group("Z_3"), 3)


class TestBuild:
    def test_k3_integers(self):
        b = build_bset(Z, 3)
        assert b.provenance == K3
        assert set(b.elements.to_texts()) == {"0", "1", "-1"}

    def test_k6_integers(self):
        b = build_bset(Z, 6)
        assert b.provenance == KN_Z
        assert set(b.elements.to_texts()) == {"0", "1", "-1", "2", "-2", "3", "-3", "4", "-4"}

    def test_k4_five_torsion_uses_two_generators(self):
        b = build_bset(parse_group("Z_5^w"), 4)
        assert b.provenance == K4_ZIZJ
        assert len(b.elements) == 7  # {0, ±g1, ±g2, ±(g1-g2)}

    def test_k3_two_torsion_collapses_to_subgroup(self):
        b = build_bset(parse_group("Z_2^w"), 3)
        assert b.provenance == K3
        assert b.elements.to_texts() == ["0", "[1]"]

    def test_k4_exceptional_rejected(self):
        with pytest.raises(ExceptionalGroupError):
            build_bset(parse_group("Z_2^w"), 4)
        with pytest.raises(ExceptionalGroupError):
            build_bset(parse_group("Z_4 + Z_2^w"), 4)
        with pytest.raises(ExceptionalGroupError):
            build_bset(parse_group("Z_3^w"), 3)

    def test_k5_prufer_least_sufficient_level(self):
        b = build_bset(parse_group("Prufer(2)"), 5)
        assert b.provenance == KN_PRUFER
        # B_4 = {l/16 : 1 <= l <= 4} since 2^4 is the least power >= 2*5
        assert set(b.elements.to_texts()) == {
            "0", "1/2^4", "15/2^4", "1/2^3", "7/2^3", "3/2^4", "13/2^4",
        }

    def test_kn_prufer_level_reaches_two_kappa(self):
        # 2^4 = 2*8: level 4 is the least with order >= 2*kappa
        b = build_bset(parse_group("Prufer(2)"), 8)
        assert b.provenance == KN_PRUFER
        assert max(e.order() for e in b.elements) == 16

    @pytest.mark.parametrize("text", KN_HULL_GROUPS)
    def test_kn_hull_is_the_difference_set_of_the_multiples(self, text):
        # {0, ±g, ..., ±(kappa-2)g} against the differences of g, ..., (kappa-1)g
        group = parse_group(text)
        i = next(bsets._carriers(group, (INFINITE_CYCLIC,), (PRUFER,)))
        for kappa in range(5, 41):
            g = bsets._unit(group, (i,), above=2 * kappa - 1)
            want = difference_set(ElementSet.of(group, [g.scaled(l) for l in range(1, kappa)]))
            b = build_bset(group, kappa)
            assert b.provenance == (KN_Z if group.factors[i].kind == INFINITE_CYCLIC else KN_PRUFER)
            assert b.elements == want and b.elements.to_texts() == want.to_texts()

    def test_k4_z3_subgroup(self):
        b = build_bset(parse_group("Z_3^w"), 4)
        assert b.provenance == K4_Z3
        assert set(b.elements.to_texts()) == {"0", "[1]", "[2]"}

    def test_k4_order_gt5_in_integers(self):
        b = build_bset(Z, 4)
        assert b.provenance == K4_ORDER_GT5
        assert set(b.elements.to_texts()) == {"0", "1", "-1", "2", "-2"}

    def test_k4_order_gt5_from_mixed_torsion(self):
        # no single factor exceeds 5, but a combined generator has order 6
        b = build_bset(parse_group("Z_2^w + Z_3^w"), 4)
        assert b.provenance == K4_ORDER_GT5
        assert max(e.order() for e in b.elements) == 6

    def test_k2_zero(self):
        b = build_bset(Z, 2)
        assert b.provenance == K2_ZERO and b.elements.to_texts() == ["0"]

    def test_finite_group_rejected(self):
        with pytest.raises(FiniteGroupError):
            build_bset(parse_group("Z_7"), 3)

    def test_symmetric_and_contains_zero(self):
        for text, kappa in [("Z", 7), ("Prufer(3)", 6), ("Z_7^w", 5), ("Z + Z_2", 4)]:
            b = build_bset(parse_group(text), kappa)
            coords = b.elements.coords_set()
            assert b.group.zero().coords in coords
            assert all((-e).coords in coords for e in b.elements)

    def test_deterministic(self):
        g = parse_group("Z_4 + Z_4 + Z_2^w")
        assert build_bset(g, 4) == build_bset(g, 4)

    def test_kappa_below_two_rejected(self):
        with pytest.raises(ValueError):
            build_bset(Z, 1)


CARRIER_FACTORS = [
    "Z", "Z_2", "Z_3", "Z_4", "Z_6", "Z_9", "Z_2^w", "Z_3^w", "Z_5^w", "Z_9^w",
    "Prufer(2)", "Prufer(3)", "Prufer(5)",
]


def candidate_list_carrier(group):
    """The kappa-3 carrier as a list of every factor's candidate units, in
    the order Z, Prufer (levels 1 and 2), Z_n^w, Z_n, each tested by its
    computed order; None when every candidate has order 3."""
    ranked = {INFINITE_CYCLIC: [], PRUFER: [], REPEATED_CYCLIC: [], CYCLIC: []}
    units = {INFINITE_CYCLIC: [1], PRUFER: [(1, 1), (1, 2)], REPEATED_CYCLIC: [(1,)], CYCLIC: [1]}
    zeros = [zero_coord(f) for f in group.factors]
    for i, f in enumerate(group.factors):
        for unit in units[f.kind]:
            ranked[f.kind].append(group.element(*zeros[:i], unit, *zeros[i + 1 :]))
    return next((g for g in itertools.chain(*ranked.values()) if g.order() != 3), None)


def outcome(group, kappa):
    """``build_bset``'s provenance and element texts, or its error's type."""
    try:
        b = build_bset(group, kappa)
    except (FiniteGroupError, ExceptionalGroupError, NoCarrierError) as exc:
        return type(exc)
    return b.provenance, b.elements.to_texts()


def hull(*units):
    """{0} and ±u for every unit, as sorted element texts."""
    group = units[0].group
    return ElementSet.of(group, [group.zero(), *units, *(-u for u in units)]).to_texts()


def differences(base):
    """D(base) = {x - y : x, y in base}, as sorted element texts."""
    return ElementSet.of(base[0].group, [x - y for x in base for y in base]).to_texts()


class TestK3Carrier:
    def test_matches_the_candidate_list_rule(self):
        # every spec of one to three factors: a finite one is refused, and an
        # infinite one with no candidate is exceptional
        specs = finite = errors = 0
        for r in (1, 2, 3):
            for parts in itertools.product(CARRIER_FACTORS, repeat=r):
                group = parse_group(" + ".join(parts))
                want = candidate_list_carrier(group)
                specs += 1
                got = outcome(group, 3)
                if group.is_finite:
                    finite += 1
                    assert got is FiniteGroupError
                elif want is None:
                    errors += 1
                    assert got is ExceptionalGroupError
                else:
                    assert got == (K3, hull(want)), " + ".join(parts)
        assert (specs, finite, errors) == (2379, 155, 11)

    @pytest.mark.parametrize(
        "text,unit", [("Z^4096", (0, 1)), ("Z_3^2000 + Prufer(3)", (2000, (1, 2)))]
    )
    def test_builds_only_the_carrier_unit(self, text, unit, monkeypatch):
        calls = []
        build = bsets._unit

        def spy(group, picked, *args, **kwargs):
            g = build(group, picked, *args, **kwargs)
            calls.extend((i, g.coords[i]) for i in picked)
            return g

        monkeypatch.setattr(bsets, "_unit", spy)
        assert build_bset(parse_group(text), 3).provenance == K3
        assert calls == [unit]


REFERENCE_FACTORS = [
    "Z", "Z_2", "Z_3", "Z_4", "Z_5", "Z_6", "Z_7", "Z_9",
    "Z_2^w", "Z_3^w", "Z_4^w", "Z_5^w", "Z_7^w", "Prufer(2)", "Prufer(3)", "Prufer(5)",
]


def reference_bset(group, kappa):
    """The kappa >= 4 base set by the rules first written for it, each unit
    tested by its computed order: (provenance, element texts) or an error type.

    kappa = 4: {0, ±g, ±2g} for the first unit g of order > 5 in the order
    Z, Prufer (at the least level past order 5), then Z_n and Z_n^w in
    factor order, then the sum of every factor's unit; else {0, ±h} for the
    first h = (n/3)·unit of order 3 on a Z_n or Z_n^w; else D({0, g1, g2})
    for the first two order-4/5 units, copies 0 and 1 of a Z_n^w block both
    counted. kappa >= 5: D of l·unit for 1 <= l < kappa on the first Z,
    else on the first Prufer at the least level of order >= 2·kappa, else
    D of copies 0 to kappa - 2 of the first Z_n^w."""
    if group.is_finite:
        return FiniteGroupError
    if is_exceptional(group, kappa):
        return ExceptionalGroupError
    factors = group.factors
    zeros = [zero_coord(f) for f in factors]

    def unit(i, coord):
        return group.element(*zeros[:i], coord, *zeros[i + 1 :])

    def prufer(i, enough):
        return next(unit(i, (1, n)) for n in itertools.count(1) if enough(unit(i, (1, n)).order()))

    if kappa == 4:
        integers, prufers, torsion = [], [], []
        for i, f in enumerate(factors):
            if f.kind == PRUFER:
                prufers.append(prufer(i, lambda o: o > 5))
            else:
                coord = (1,) if f.kind == REPEATED_CYCLIC else 1
                (integers if f.kind == INFINITE_CYCLIC else torsion).append(unit(i, coord))
        candidates = integers + prufers + torsion
        if not integers and not prufers:
            candidates.append(group.element(*((1,) if f.kind == REPEATED_CYCLIC else 1 for f in factors)))
        g = next((g for g in candidates if g.order() is None or g.order() > 5), None)
        if g is not None:
            return K4_ORDER_GT5, hull(g, g.scaled(2))
        for i, f in enumerate(factors):
            if f.kind in (CYCLIC, REPEATED_CYCLIC) and f.param % 3 == 0:
                step = f.param // 3
                return K4_Z3, hull(unit(i, (step,) if f.kind == REPEATED_CYCLIC else step))
        slots = []
        for i, f in enumerate(factors):
            if f.kind in (CYCLIC, REPEATED_CYCLIC) and f.param in (4, 5):
                copies = [(1,), (0, 1)] if f.kind == REPEATED_CYCLIC else [1]
                slots += [unit(i, c) for c in copies]
        if len(slots) < 2:
            return NoCarrierError
        return K4_ZIZJ, differences([group.zero(), *slots[:2]])
    for kind in (INFINITE_CYCLIC, PRUFER, REPEATED_CYCLIC):
        for i, f in enumerate(factors):
            if f.kind == INFINITE_CYCLIC == kind:
                return KN_Z, differences([unit(i, l) for l in range(1, kappa)])
            if f.kind == PRUFER == kind:
                g = prufer(i, lambda o: o >= 2 * kappa)
                return KN_PRUFER, differences([g.scaled(l) for l in range(1, kappa)])
            if f.kind == REPEATED_CYCLIC == kind:
                copies = [(0,) * c + (1,) for c in range(kappa - 1)]
                return KN_DIRECT_SUM, differences([unit(i, c) for c in copies])
    return NoCarrierError


class TestCarrierRules:
    def test_matches_the_reference_rules(self):
        # every spec of one to three factors at kappa 4, 5 and 6
        seen = collections.Counter()
        for r in (1, 2, 3):
            for parts in itertools.product(REFERENCE_FACTORS, repeat=r):
                group = parse_group(" + ".join(parts))
                for kappa in (4, 5, 6):
                    want = reference_bset(group, kappa)
                    assert outcome(group, kappa) == want, (" + ".join(parts), kappa)
                    seen[want if isinstance(want, type) else want[0]] += 1
        assert seen == {
            FiniteGroupError: 1197,
            ExceptionalGroupError: 22,
            K4_ORDER_GT5: 3877,
            K4_Z3: 11,
            K4_ZIZJ: 59,
            KN_Z: 1506,
            KN_PRUFER: 3462,
            KN_DIRECT_SUM: 2970,
        }

    @pytest.mark.parametrize("text,kappa,units", CARRIER_UNITS)
    def test_builds_only_the_units_it_uses(self, text, kappa, units, monkeypatch):
        calls = []
        build = bsets._unit

        def spy(*args, **kwargs):
            calls.append(args)
            return build(*args, **kwargs)

        monkeypatch.setattr(bsets, "_unit", spy)
        build_bset(parse_group(text), kappa)
        assert len(calls) == units


class TestProperties:
    def test_property_1_witness_sizes(self):
        for text, kappa in [("Z", 6), ("Z", 3), ("Z", 2), ("Prufer(2)", 5), ("Z_3^w", 6)]:
            b = build_bset(parse_group(text), kappa)
            witness = check_property_1(b, max_clique_in_bset(b.elements))
            assert len(witness) == kappa - 1
            coords = b.elements.coords_set()
            assert all((x - y).coords in coords for x in witness for y in witness)

    def test_property_1_k6_witness_value(self):
        # frozen deterministic witness under the canonical enumeration order
        b = build_bset(Z, 6)
        assert check_property_1(b, max_clique_in_bset(b.elements)).to_texts() == ["0", "1", "-1", "2", "-2"]

    def test_property_1_failure_surfaces(self):
        fake = BSet(Z, 4, ElementSet.parse(Z, ["0", "1", "-1"]), "K3")
        with pytest.raises(PropertyCheckFailedError):
            check_property_1(fake, max_clique_in_bset(fake.elements))

    def test_property_2_examples(self):
        three = ElementSet.parse(Z, ["0", "1", "-1"])
        five = ElementSet.parse(Z, ["0", "1", "-1", "2", "-2"])
        assert check_property_2(BSet(Z, 3, three, K3), max_clique_in_bset(three))
        assert check_property_2(BSet(Z, 4, five, K4_ORDER_GT5), max_clique_in_bset(five))
        # the same 5-element set admits a 3-point configuration: fails at kappa=3
        assert not check_property_2(BSet(Z, 3, five, K3), max_clique_in_bset(five))

    @pytest.mark.parametrize(
        "text,kappa",
        [("Z", k) for k in range(2, 11)]
        + [("Prufer(2)", 5), ("Prufer(3)", 7), ("Z_3^w", 5), ("Z_5^w", 4), ("Z_4^w", 4)]
        # the Prufer, order > 5 and cyclic Z_3 carriers at kappa 3 and 4
        + [("Prufer(2)", 3), ("Prufer(3)", 4), ("Z_7^w", 4), ("Z_3 + Z_3^w", 4), ("Z_3^w + Z_7", 4)],
    )
    def test_clique_number_is_exactly_kappa_minus_1(self, text, kappa):
        b = build_bset(parse_group(text), kappa)
        assert max_clique_in_bset(b.elements).size == kappa - 1

    def test_run_checks_returns_its_rows(self):
        rows = run_checks(build_bset(Z, 5))
        assert [row[0] for row in rows] == ["property_1", "property_2"]
        assert all(row[1] for row in rows)


class TestOneSolve:
    """``bset --check`` answers both properties from one ``first_max_clique`` solve."""

    @pytest.mark.parametrize("text,kappa", ATTAINABILITY_CELLS)
    def test_check_builds_one_graph_and_solves_once(self, text, kappa, monkeypatch):
        calls = collections.Counter()
        inside = []
        graph, solve, extract = packing._bset_graph, clique.first_max_clique, clique.clique_of_size

        def graph_spy(*args):
            calls["graph"] += 1
            return graph(*args)

        def solve_spy(*args):
            calls["solve"] += 1
            inside.append(True)
            try:
                return solve(*args)
            finally:
                inside.pop()

        def extract_spy(*args):
            calls["extract outside the solve" if not inside else "extract"] += 1
            return extract(*args)

        monkeypatch.setattr(packing, "_bset_graph", graph_spy)
        monkeypatch.setattr(clique, "first_max_clique", solve_spy)
        monkeypatch.setattr(clique, "clique_of_size", extract_spy)
        report = run_bset(RunConfig(command="bset", group=text, kappa=kappa, check=True))
        assert report.passed
        assert calls["graph"] == calls["solve"] == 1
        assert calls["extract outside the solve"] == 0

    @pytest.mark.parametrize(
        "text,kappa", ATTAINABILITY_CELLS + [(text, kappa) for text, kappa, _ in CARRIER_UNITS]
    )
    def test_property_1_is_the_first_clique_of_kappa_minus_1_points(self, text, kappa):
        b = build_bset(parse_group(text), kappa)
        want = clique_in_bset_of_size(b.elements, kappa - 1)
        assert check_property_1(b, max_clique_in_bset(b.elements)) == want
        rows = {name: (ok, detail) for name, ok, detail in run_checks(b)}
        assert rows == {"property_1": (True, want.to_texts()), "property_2": (True, kappa - 1)}

    def test_a_clique_larger_than_kappa_minus_1_is_cut(self):
        # ω = 3 > kappa - 1 = 2: the witness is the first two points of {0, 1, -1}
        fake = BSet(Z, 3, ElementSet.parse(Z, ["0", "1", "-1", "2", "-2"]), K3)
        witness = check_property_1(fake, max_clique_in_bset(fake.elements))
        coords = fake.elements.coords_set()
        assert len(witness) == 2
        assert all((x - y).coords in coords for x in witness for y in witness)
        rows = {name: (ok, detail) for name, ok, detail in run_checks(fake)}
        assert rows == {"property_1": (True, ["0", "1"]), "property_2": (False, 3)}


class TestCoverage:
    def test_small_family_cannot_cover(self):
        b = build_bset(Z, 3)
        F = ElementSet.of(Z, [Z.element(i) for i in range(10)])
        result = check_property_3(b, F, Window.for_group(Z, 100))
        assert result.holds and result.cardinality_certificate

    def test_full_window_with_zero_set_covers(self):
        b = build_bset(Z, 2)  # elements {0}
        window = Window.for_group(Z, 3)
        F = ElementSet.of(Z, [Z.element(v) for v in range(-3, 4)])
        result = check_property_3(b, F, window)
        assert not result.holds and result.missing is None

    def test_wide_set_covers_despite_certificate_failing(self):
        b = build_bset(Z, 4)
        window = Window.for_group(Z, 50)
        F = ElementSet.of(Z, [Z.element(v) for v in range(-50, 51)])
        result = check_property_3(b, F, window)
        assert not result.holds
        assert not result.cardinality_certificate
