import itertools
import random
import sys
from array import array
from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from packidx import clique, obstruction
from packidx.errors import (
    CertificationError,
    NotApplicableError,
    PreconditionError,
)
from packidx.groups import Window, enumerate_window, parse_group
from packidx.obstruction import (
    OPPOSITE_G,
    ORDER_TWO,
    SAME_G,
    SweepReport,
    _family_disjoint,
    _find_triple,
    _fourth_shift,
    _GroupTables,
    classify_triple,
    exhaustive_no_index_check,
    extend_pair_exponent3,
    extend_triple,
)
from packidx.packing import ElementSet, max_packing_family, translates_disjoint

Z9 = parse_group("Z_3 + Z_3")
Z42 = parse_group("Z_4 + Z_2")
Z23 = parse_group("Z_2^3")


class TestExtendPair:
    def test_two_point_base(self):
        A = ElementSet.parse(Z9, ["(0,0)", "(1,1)"])
        family = extend_pair_exponent3(A, Z9.element(1, 0))
        assert set(family.to_texts()) == {"(0,0)", "(1,0)", "(2,0)"}
        shifts = list(family)
        for u, v in itertools.combinations(shifts, 2):
            assert translates_disjoint(A, u, v)

    def test_singleton_base(self):
        A = ElementSet.parse(Z9, ["(0,0)"])
        family = extend_pair_exponent3(A, Z9.element(0, 1))
        assert set(family.to_texts()) == {"(0,0)", "(0,1)", "(0,2)"}

    def test_rejects_wrong_order(self):
        Z = parse_group("Z")
        with pytest.raises(PreconditionError):
            extend_pair_exponent3(ElementSet.parse(Z, ["0"]), Z.element(1))

    def test_rejects_intersecting_pair(self):
        A = ElementSet.parse(Z9, ["(0,0)", "(1,0)"])
        with pytest.raises(PreconditionError):
            extend_pair_exponent3(A, Z9.element(1, 0))

    def test_rejects_zero_shift(self):
        with pytest.raises(PreconditionError):
            extend_pair_exponent3(ElementSet.parse(Z9, ["(0,0)"]), Z9.zero())


class TestExtendTriple:
    def test_case_order_two(self):
        A = ElementSet.parse(Z23, ["(0,0,0)"])
        b3 = extend_triple(A, Z23.element(1, 0, 0), Z23.element(0, 1, 0))
        assert b3 == Z23.element(1, 1, 0)

    def test_case_same_four_coordinate(self):
        A = ElementSet.parse(Z42, ["(0,0)"])
        b3 = extend_triple(A, Z42.element(1, 0), Z42.element(1, 1))
        assert b3 == Z42.element(0, 1)

    def test_case_opposite_four_coordinate(self):
        A = ElementSet.parse(Z42, ["(0,0)"])
        b3 = extend_triple(A, Z42.element(1, 0), Z42.element(3, 1))
        assert b3 == Z42.element(2, 1)

    def test_swap_rule_puts_order_two_first(self):
        case = classify_triple(Z42, Z42.element(1, 0), Z42.element(2, 1))
        assert case.variant == ORDER_TWO and case.swapped
        assert case.b1.order() == 2

    def test_not_applicable_outside_family(self):
        g = parse_group("Z_8")
        A = ElementSet.parse(g, ["0"])
        with pytest.raises(NotApplicableError):
            extend_triple(A, g.element(1), g.element(2))
        g2 = parse_group("Z_4 + Z_4")
        with pytest.raises(NotApplicableError):
            extend_triple(
                ElementSet.parse(g2, ["(0,0)"]), g2.element(1, 0), g2.element(0, 1)
            )

    def test_rejects_non_disjoint_triple(self):
        A = ElementSet.parse(Z42, ["(0,0)", "(1,0)"])
        with pytest.raises(PreconditionError):
            extend_triple(A, Z42.element(1, 0), Z42.element(1, 1))

    def test_fourth_translate_always_disjoint(self):
        # every disjoint triple over every nonempty subset of Z_4 + Z_2
        zero = Z42.zero()
        elements = list(enumerate_window(Window.for_group(Z42)))
        nonzero = [e for e in elements if not e.is_zero()]
        tried = 0
        for r in range(1, 4):
            for combo in itertools.combinations(elements, r):
                A = ElementSet.of(Z42, combo)
                for b1, b2 in itertools.permutations(nonzero, 2):
                    ok = all(
                        translates_disjoint(A, u, v)
                        for u, v in [(zero, b1), (zero, b2), (b1, b2)]
                    )
                    if not ok:
                        continue
                    tried += 1
                    b3 = extend_triple(A, b1, b2)
                    for u, v in itertools.combinations([zero, b1, b2, b3], 2):
                        assert translates_disjoint(A, u, v)
        assert tried > 100


class TestClassification:
    @pytest.mark.parametrize("m", [0, 1, 2, 3])
    def test_total_and_unambiguous(self, m):
        text = "Z_4" + " + Z_2" * m if m else "Z_4"
        g = parse_group(text)
        elements = [e for e in enumerate_window(Window.for_group(g)) if not e.is_zero()]
        for b1, b2 in itertools.permutations(elements, 2):
            case = classify_triple(g, b1, b2)
            assert case.variant in (ORDER_TWO, SAME_G, OPPOSITE_G)
            if case.variant == ORDER_TWO:
                assert case.b1.order() == 2
            else:
                assert b1.order() == b2.order() == 4
                if case.variant == SAME_G:
                    assert case.g1 == case.g2
                else:
                    assert (case.g1 + case.g2) % 4 == 0

    def test_rejects_degenerate_pairs(self):
        with pytest.raises(PreconditionError):
            classify_triple(Z42, Z42.zero(), Z42.element(1, 0))
        with pytest.raises(PreconditionError):
            classify_triple(Z42, Z42.element(1, 0), Z42.element(1, 0))


class TestSweeps:
    def test_exponent3_exhaustive(self):
        report = exhaustive_no_index_check(Z9, 3)
        assert report.subsets_examined == 511
        assert not report.violations
        assert report.families_found + report.no_family == 511

    def test_k4_small_group_full_cross_check(self):
        # 255 subsets give stride 1, so the structural claim is cross-checked
        # against the exact solver on every one of them
        report = exhaustive_no_index_check(Z42, 4)
        assert report.subsets_examined == report.cross_checks == 255
        assert not report.violations
        assert dict(report.case_counts)[ORDER_TWO] > 0
        assert dict(report.case_counts)[SAME_G] > 0
        assert dict(report.case_counts)[OPPOSITE_G] > 0

    def test_sampled_mode_is_seeded(self):
        g = parse_group("Z_3^3")
        a = exhaustive_no_index_check(g, 3, sample=300, seed=11)
        b = exhaustive_no_index_check(g, 3, sample=300, seed=11)
        c = exhaustive_no_index_check(g, 3, sample=300, seed=12)
        assert a == b
        assert a != c
        assert not a.violations

    @pytest.mark.parametrize(
        "text", ["Z_3", "Z_2^2", "Z_4", "Z_2^3", "Z_3^2", "Z_2^4", "Z_4 + Z_2", "Z_4 + Z_2^2"]
    )
    def test_exhaustive_diffs_match_diff_mask(self, text):
        t = _GroupTables(parse_group(text))
        masks = range(1, 1 << t.n)
        diffs = t.exhaustive_diff_masks()
        # _sweep and the tests index the table by mask - 1
        assert isinstance(diffs, array) and diffs.typecode == "H"
        assert len(diffs) == (1 << t.n) - 1
        assert list(diffs) == [t.window.box().diff_mask(m) for m in masks]

    # every subset of the two small groups, a seeded sample of the two large ones
    @pytest.mark.parametrize("text, sample", [("Z_3^2", None), ("Z_4 + Z_2", None), ("Z_2^4", 400), ("Z_4 + Z_2^2", 400)])
    def test_exhaustive_diffs_match_element_subtraction(self, text, sample):
        t = _GroupTables(parse_group(text))
        diffs = t.exhaustive_diff_masks()
        masks = range(1, 1 << t.n)
        if sample is not None:
            masks = random.Random(18).sample(masks, sample)
        for m in masks:
            S = [t.elements[i] for i in range(t.n) if m >> i & 1]
            want = sum(1 << i for i in {t.index[(a - b).coords] for a in S for b in S})
            assert diffs[m - 1] == want, m

    # Z_2^5 fills every bit of its 32-bit lanes
    @pytest.mark.parametrize("text", ["Z_2^5", "Z_3^3", "Z_4 + Z_2^2"])
    def test_sampled_diffs_match_element_subtraction(self, text):
        t = _GroupTables(parse_group(text))
        rng = random.Random(27)
        drawn = {rng.randrange(1, 1 << t.n) for _ in range(300)}
        masks = sorted(drawn | {t.full} | {1 << i for i in range(t.n)})
        diffs = t.sampled_diff_masks(masks)
        assert isinstance(diffs, array) and diffs.typecode == "I"
        assert list(diffs) == [t.window.box().diff_mask(m) for m in masks]
        for m, d in zip(masks, diffs):
            S = [t.elements[i] for i in range(t.n) if m >> i & 1]
            want = sum(1 << i for i in {t.index[(a - b).coords] for a in S for b in S})
            assert d == want, m
        assert diffs[masks.index(t.full)] == t.full
        assert all(d == 1 for m, d in zip(masks, diffs) if m.bit_count() == 1)

    @pytest.mark.parametrize("text", ["Z_3^2", "Z_4 + Z_2", "Z_2^5", "Z_3^3", "Z_4 + Z_2^2"])
    def test_add_table_matches_element_addition(self, text):
        t = _GroupTables(parse_group(text))
        assert t.add == [[t.index[(a + b).coords] for b in t.elements] for a in t.elements]

    def test_exhaustive_refuses_large_groups(self):
        with pytest.raises(NotApplicableError):
            exhaustive_no_index_check(parse_group("Z_3^3"), 3)

    def test_family_checks(self):
        with pytest.raises(NotApplicableError):
            exhaustive_no_index_check(parse_group("Z_5"), 3)
        with pytest.raises(NotApplicableError):
            exhaustive_no_index_check(parse_group("Z_3 + Z_3"), 4)
        with pytest.raises(NotApplicableError):
            exhaustive_no_index_check(parse_group("Z_2"), 5)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 255))
def test_sweep_agrees_with_solver_on_any_subset(mask):
    elements = list(enumerate_window(Window.for_group(Z42)))
    A = ElementSet.of(Z42, [elements[i] for i in range(8) if mask >> i & 1])
    size = max_packing_family(A, Window.for_group(Z42)).size
    # the sweep's dichotomy: a found triple forces size >= 4, none forces <= 2
    zero = Z42.zero()
    nonzero = [e for e in elements if not e.is_zero()]
    has_triple = any(
        all(
            translates_disjoint(A, u, v)
            for u, v in [(zero, b1), (zero, b2), (b1, b2)]
        )
        for b1, b2 in itertools.combinations(nonzero, 2)
    )
    assert (size >= 4) == has_triple
    assert size != 3


def swept_masks(n, sample, seed):
    """The subsets a sweep of an n-element group examines, ascending."""
    if sample is None:
        return range(1, 1 << n)
    rng = random.Random(seed)
    return sorted({rng.randrange(1, 1 << n) for _ in range(sample)})


def reference_sweep(group, kappa, sample=None, seed=0):
    """The sweep as a per-subset loop with no memo: each subset finds its
    own families in its own difference mask and certifies them, takes each
    quadruple from the case split itself, and is solved on a fresh window."""
    t = _GroupTables(group)

    def family(b1, b2):
        case = classify_triple(group, t.elements[b1], t.elements[b2])
        shifts = (case.b1, case.b2, _fourth_shift(case))
        return case.variant, (0, *(t.index[b.coords] for b in shifts))

    masks = swept_masks(t.n, sample, seed)
    stride = max(1, len(masks) // 128)
    order4 = sum(1 << i for i, o in enumerate(t.order) if o == 4)
    found = certified = nofam = checks = 0
    cases = {}
    violations = []
    for mask in masks:
        dstar = t.window.box().diff_mask(mask) & ~1
        compat0 = ~dstar & t.full & ~1
        families = []
        if kappa == 3:
            if compat0:
                b = (compat0 & -compat0).bit_length() - 1
                if t.order[b] != 3:
                    raise CertificationError(f"shift {t.elements[b]} has order {t.order[b]}, not 3")
                families.append(("Exponent3", (0, b, t.add[b][b])))
        else:
            hit = _find_triple(t, dstar, compat0)
            if hit is not None:
                variant, fam = family(*hit)
                families.append((variant, fam))
                if variant == ORDER_TWO and order4:
                    hit4 = _find_triple(t, dstar, compat0 & order4)
                    if hit4 is not None:
                        families.append(family(*hit4))
        if not families:
            nofam += 1
        else:
            found += 1
            for variant, fam in families:
                cases[variant] = cases.get(variant, 0) + 1
                if _family_disjoint(t, dstar, fam):
                    certified += 1
                else:
                    violations.append({"subset": mask, "reason": f"{variant} extension not disjoint"})
        if mask % stride == 0:
            checks += 1
            A = ElementSet.of(group, [t.elements[i] for i in range(t.n) if mask >> i & 1])
            size = max_packing_family(A, Window.for_group(group)).size
            if families and size < kappa:
                violations.append({"subset": mask, "reason": f"solver max {size} < {kappa}"})
            if not families and size > kappa - 2:
                violations.append({"subset": mask, "reason": f"solver max {size} > {kappa - 2}"})
    return SweepReport(
        group=str(group),
        kappa=kappa,
        mode="exhaustive" if sample is None else "sampled",
        seed=None if sample is None else seed,
        sample=sample,
        subsets_examined=len(masks),
        families_found=found,
        extensions_certified=certified,
        no_family=nofam,
        case_counts=tuple(sorted(cases.items())),
        cross_checks=checks,
        violations=tuple(violations),
    )


SWEEP_CELLS = [
    ("Z_3^2", 3, None, 0),
    ("Z_2^4", 4, None, 0),
    ("Z_4 + Z_2", 4, None, 0),
    ("Z_4 + Z_2^2", 4, None, 0),
    *((text, kappa, 2000, seed) for text, kappa in [("Z_3^3", 3), ("Z_2^5", 4)] for seed in (0, 7)),
]


@pytest.mark.parametrize("text,kappa,sample,seed", SWEEP_CELLS)
def test_memoised_sweep_matches_per_subset_reference(text, kappa, sample, seed):
    group = parse_group(text)
    got = exhaustive_no_index_check(group, kappa, sample=sample, seed=seed)
    assert got == reference_sweep(group, kappa, sample, seed)


@pytest.mark.parametrize("text,kappa,sample,seed", SWEEP_CELLS)
def test_cross_checks_solve_the_sorted_set_of_every_strided_subset(text, kappa, sample, seed, monkeypatch):
    # the sweep slices its strided subsets out of the exhaustive table and
    # builds each set in index order with no sort: the solver must still
    # see ElementSet.of of each mask that is a multiple of the stride
    group = parse_group(text)
    seen = []
    solve = obstruction.max_packing_family

    def spy(A, window):
        seen.append(A)
        return solve(A, window)

    monkeypatch.setattr(obstruction, "max_packing_family", spy)
    report = exhaustive_no_index_check(group, kappa, sample=sample, seed=seed)
    t = _GroupTables(group)
    masks = swept_masks(t.n, sample, seed)
    stride = max(1, len(masks) // 128)
    want = [
        ElementSet.of(group, [t.elements[i] for i in range(t.n) if mask >> i & 1])
        for mask in masks
        if mask % stride == 0
    ]
    assert seen == want and report.cross_checks == len(want)


def test_sweep_and_cross_check_read_one_set_of_box_tables(monkeypatch):
    t = _GroupTables(Z42)
    tables = t.window.box().tables()
    assert all(x is y for x, y in zip((t.elements, t.index, t.neg, t.steps), tables))
    searches = []
    search = clique.max_clique_size

    def spy(adj, cand, neg=None, translate=None, nadj=None, witness=None):
        searches.append((neg, translate))
        return search(adj, cand, neg, translate, nadj, witness)

    monkeypatch.setattr(clique, "max_clique_size", spy)
    # the sweep's cross-check of subset {0, 1}; its root search translates
    # by the steps its closure holds
    A = ElementSet.of(Z42, t.elements[:2])
    assert max_packing_family(A, t.window).size == 4
    assert searches
    for neg, translate in searches:
        assert neg is t.neg
        assert any(cell.cell_contents is t.steps for cell in translate.__closure__)


# each sweep's spied function, its calls with the pair and window memos,
# and its cross-checks; without the memos the calls are 130, 34 and 156
WORK_COUNTS = [
    ("Z_4 + Z_2", 4, clique, "max_clique_size", 14, 255),
    ("Z_3^2", 3, clique, "max_clique_size", 8, 170),
    ("Z_2^4", 4, obstruction, "classify_triple", 22, 128),
]


@pytest.mark.parametrize("text,kappa,module,name,calls,checks", WORK_COUNTS, ids=[w[0] for w in WORK_COUNTS])
def test_a_sweep_solves_each_mask_and_shift_pair_once(text, kappa, module, name, calls, checks, monkeypatch):
    group = parse_group(text)
    seen = []
    spied = getattr(module, name)

    def spy(*args, **kwargs):
        seen.append(name)
        return spied(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    report = exhaustive_no_index_check(group, kappa)
    assert len(seen) == calls
    assert report.cross_checks == checks
    monkeypatch.undo()
    assert report == reference_sweep(group, kappa)


def test_planted_fault_is_listed_for_every_subset_with_its_mask(monkeypatch):
    t = _GroupTables(Z42)
    subsets = {}
    for mask in range(1, 1 << t.n):
        subsets.setdefault(t.window.box().diff_mask(mask), []).append(mask)
    with_family = [d for d in subsets if _find_triple(t, d & ~1, ~d & t.full & ~1)]
    target = max(with_family, key=lambda d: (len(subsets[d]), d))
    assert len(subsets[target]) > 1

    def planted(t, dstar, family):
        return dstar != target & ~1 and _family_disjoint(t, dstar, family)

    monkeypatch.setattr(obstruction, "_family_disjoint", planted)
    report = exhaustive_no_index_check(Z42, 4)
    listed = Counter(v["subset"] for v in report.violations if v["reason"].endswith("not disjoint"))
    assert sorted(listed) == subsets[target]
    assert len(set(listed.values())) == 1
    clean = reference_sweep(Z42, 4)
    lost = sum(listed.values())
    assert report.extensions_certified == clean.extensions_certified - lost


@pytest.mark.parametrize("text,kappa", [("Z_3^2", 3), ("Z_4 + Z_2", 4)])
def test_planted_faults_keep_every_subsets_violations_in_order(text, kappa, monkeypatch):
    # the same faults in the sweep and in reference_sweep: several bad D's,
    # and a solver that lies on a checked subset of a bad D (a verdict and
    # a solver violation on one subset) and on one of a good D
    group = parse_group(text)
    t = _GroupTables(group)
    stride = max(1, ((1 << t.n) - 1) // 128)
    subsets = {}
    for mask in range(1, 1 << t.n):
        subsets.setdefault(t.window.box().diff_mask(mask), []).append(mask)
    with_family = sorted(d for d in subsets if obstruction._verdict(t, kappa, d))
    checked = range(stride, 1 << t.n, stride)
    both = next(m for m in checked if t.window.box().diff_mask(m) in with_family)
    bad = {t.window.box().diff_mask(both) & ~1} | {d & ~1 for d in with_family[::2]}
    alone = next(m for m in checked if t.window.box().diff_mask(m) & ~1 not in bad)
    assert len(bad) >= 3
    disjoint, solver = _family_disjoint, max_packing_family

    def planted_disjoint(t, dstar, family):
        return dstar not in bad and disjoint(t, dstar, family)

    def planted_solver(A, window):
        # kappa - 1 is a violation whether or not the subset has a family
        if t.window.box().mask_of(A) in (both, alone):
            return SimpleNamespace(size=kappa - 1)
        return solver(A, window)

    for module in (obstruction, sys.modules[__name__]):
        monkeypatch.setattr(module, "_family_disjoint", planted_disjoint)
        monkeypatch.setattr(module, "max_packing_family", planted_solver)
    report = exhaustive_no_index_check(group, kappa)
    assert report == reference_sweep(group, kappa)
    listed = [v["subset"] for v in report.violations]
    assert listed == sorted(listed)
    assert len({t.window.box().diff_mask(m) for m in listed}) >= 3
    reasons = [v["reason"] for v in report.violations if v["subset"] == both]
    assert reasons[0].endswith("not disjoint") and reasons[-1].startswith("solver max")
    solver_listed = {v["subset"] for v in report.violations if v["reason"].startswith("solver")}
    assert solver_listed == {both, alone}
