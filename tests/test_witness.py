import pytest

from packidx.bsets import BSet, build_bset
from packidx.errors import PreconditionError, PropertyThreeViolatedError
from packidx.groups import DenseBox, Window, parse_group
from packidx.packing import ElementSet, difference_set, max_packing_family
from packidx.runners import RunConfig, run_witness
from packidx.witness import (
    WitnessSet,
    build_witness,
    verify_witness,
    windowed_sharp_index,
)

Z = parse_group("Z")


def small_witness(kappa, bound):
    return build_witness(build_bset(Z, kappa), Window.for_group(Z, bound))


class TestBuild:
    def test_trace_opening_moves(self):
        # hand-simulated greedy with the canonical orders pinned by the package
        w = small_witness(3, 6)
        head = [(str(s.g), str(s.a)) for s in w.trace[:3]]
        assert head == [("0", "0"), ("2", "2"), ("-2", "-2")]
        texts = set(w.elements.to_texts())
        assert {"0", "2", "4", "-2", "-4"} <= texts

    def test_anchor_zero_starts_every_run(self):
        for kappa in (2, 4, 7):
            w = small_witness(kappa, 8)
            assert str(w.trace[0].a) == "0" and str(w.trace[0].g) == "0"

    def test_trace_covers_window_minus_bstar(self):
        w = small_witness(4, 10)
        bstar = {e.coords for e in w.bset.elements if not e.is_zero()}
        gs = [s.g.coords for s in w.trace]
        assert len(gs) == 21 - len(bstar)
        assert all(g not in bstar for g in gs)

    def test_elements_equal_union_of_trace_pairs(self):
        w = small_witness(3, 8)
        expected = set()
        for s in w.trace:
            expected.add(s.a.coords)
            expected.add((s.g + s.a).coords)
        assert expected == set(w.elements.coords_set())

    @pytest.mark.parametrize("text,kappa,kwargs", [
        ("Z", 2, dict(bound=60)),
        ("Z", 5, dict(bound=30)),
        ("Z_2 + Z", 3, dict(bound=8)),
        ("Z_3^w", 4, dict(repeated_m=3)),
    ])
    def test_trace_replays_with_element_arithmetic(self, text, kappa, kwargs):
        # F = A + B grows by a + B and (a + g) + B; each step's anchor avoids
        # F and F - g, and its forbidden size is |F u (F - g)|
        group = parse_group(text)
        w = build_witness(build_bset(group, kappa), Window.for_group(group, **kwargs))
        B = list(w.bset.elements)
        F = set()
        for step in w.trace:
            shifted = {f - step.g for f in F}
            assert step.a not in F | shifted
            assert step.forbidden_size == len(F | shifted)
            for fresh in (step.a, step.a + step.g):
                F |= {fresh + b for b in B}

    def test_deterministic(self):
        assert small_witness(5, 12) == small_witness(5, 12)

    def test_kappa2_covers_whole_window(self):
        w = small_witness(2, 3)
        diffs = difference_set(w.elements).coords_set()
        assert all(g.coords in diffs for g in [Z.element(v) for v in range(-3, 4)])

    def test_finite_group_stall_is_reported(self):
        g = parse_group("Z_8")
        b = BSet(g, 3, ElementSet.parse(g, ["0", "1", "7"]), "K3")
        with pytest.raises(PropertyThreeViolatedError):
            build_witness(b, Window.for_group(g))

    def test_non_integer_carrier(self):
        g = parse_group("Prufer(2)")
        w = build_witness(build_bset(g, 5), Window.for_group(g, prufer_level=3))
        rep = verify_witness(w)
        assert rep.i1_holds and rep.i2_holds


class TestVerify:
    def test_built_witness_passes(self):
        rep = verify_witness(small_witness(3, 50))
        assert rep.i1_holds and rep.i2_holds and rep.all_hold

    def test_constructed_counterexample_fails_i1(self):
        b = BSet(Z, 3, ElementSet.parse(Z, ["0", "1", "-1"]), "K3")
        w = WitnessSet(
            Z, 3, b, Window.for_group(Z, 2),
            ElementSet.parse(Z, ["0", "1"]), (), Window.for_group(Z, 2),
        )
        rep = verify_witness(w)
        assert not rep.i1_holds
        assert rep.i1_counterexample is not None

    def test_full_window_with_zero_bset_passes_vacuously(self):
        b = BSet(Z, 2, ElementSet.parse(Z, ["0"]), "K2-Zero")
        window = Window.for_group(Z, 3)
        full = ElementSet.of(Z, [Z.element(v) for v in range(-3, 4)])
        w = WitnessSet(Z, 2, b, window, full, (), window)
        rep = verify_witness(w)
        assert rep.i1_holds and rep.i2_holds

    def test_i1_equivalent_difference_formulation(self):
        # (B* + A) disjoint from A <=> B* avoids A - A
        for kappa in (2, 3, 5):
            w = small_witness(kappa, 15)
            rep = verify_witness(w)
            diffs = difference_set(w.elements).coords_set()
            via_diffs = not any(
                e.coords in diffs for e in w.bset.elements if not e.is_zero()
            )
            assert rep.i1_holds == via_diffs


class TestIndex:
    @pytest.mark.parametrize("kappa", [2, 3, 4, 5, 6])
    def test_index_equals_kappa_small_window(self, kappa):
        w = small_witness(kappa, 40)
        assert windowed_sharp_index(w) == kappa

    @pytest.mark.parametrize(
        "text,kappa,kwargs",
        [
            ("Z_3^w", 4, dict(repeated_m=4)),
            ("Prufer(2)", 5, dict(prufer_level=5)),
            ("Z_5^w", 4, dict(repeated_m=2)),
            ("Z + Z_2", 3, dict(bound=30)),
        ],
    )
    def test_index_on_torsion_and_mixed_carriers(self, text, kappa, kwargs):
        group = parse_group(text)
        built = build_bset(group, kappa)
        w = build_witness(built, Window.for_group(group, **kwargs))
        rep = verify_witness(w)
        assert rep.all_hold
        assert windowed_sharp_index(w) == kappa

    def test_requires_verified_invariants(self):
        b = BSet(Z, 3, ElementSet.parse(Z, ["0", "1", "-1"]), "K3")
        bad = WitnessSet(
            Z, 3, b, Window.for_group(Z, 2),
            ElementSet.parse(Z, ["0", "1"]), (), Window.for_group(Z, 2),
        )
        with pytest.raises(PreconditionError):
            windowed_sharp_index(bad)

    @pytest.mark.parametrize(
        "text,kappa,opts,index",
        [
            ("Z", 5, dict(window=100), 5),
            ("Z + Z_3", 4, dict(window=6), 4),
            # B* reaches level 4, outside the level-3 window D is taken over
            ("Prufer(2)", 5, dict(level=3), 3),
        ],
        ids=["Z-5-100", "Z + Z_3-4-6", "Prufer(2)-5-level3"],
    )
    def test_a_verified_cell_computes_its_differences_once(self, monkeypatch, text, kappa, opts, index):
        # the invariant check and the index solve read one D
        masks = []
        diff_mask = DenseBox.diff_mask

        def counting(box, mask):
            masks.append(mask)
            return diff_mask(box, mask)

        monkeypatch.setattr(DenseBox, "diff_mask", counting)
        report = run_witness(RunConfig("witness", group=text, kappa=kappa, verify=True, **opts))
        assert report.results["windowed_sharp_index"] == index
        assert len(masks) == 1

    def test_a_difference_outside_the_box_still_fails_i1(self):
        # D's box holds the doubled window and A, radius 30; 60 = 30 - (-30)
        # lies outside it and is found pair by pair, while 70 is no difference
        b = BSet(Z, 3, ElementSet.parse(Z, ["0", "1", "-1", "70", "-70", "60", "-60"]), "K3")
        A = ElementSet.parse(Z, ["-30", "30"])
        window = Window.for_group(Z, 2)
        rep = verify_witness(WitnessSet(Z, 3, b, window, A, (), window))
        assert not rep.i1_holds
        beta, a = rep.i1_counterexample
        assert abs(beta.coords[0]) == 60
        assert (beta + a).coords in A.coords_set()
        # without the planted pair, no beta of B* is a difference
        rep = verify_witness(WitnessSet(Z, 3, b, window, ElementSet.parse(Z, ["30"]), (), window))
        assert rep.i1_holds and rep.i1_counterexample is None

    def test_kappa3_family_is_inside_bstar(self):
        w = small_witness(3, 30)
        fam = max_packing_family(w.elements, w.window)
        assert fam.size == 2
        diffs = {
            (a - b).coords for a in fam.shifts for b in fam.shifts if a != b
        }
        bstar = {e.coords for e in w.bset.elements if not e.is_zero()}
        assert diffs <= bstar
