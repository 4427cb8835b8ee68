"""An answer whose certificate fails is an error, never a number.

``max_packing_family`` certifies its family (pairwise disjoint translates),
``max_clique_in_bset`` and ``clique_in_bset_of_size`` their clique (as
many distinct points as its size, every difference inside the base set),
and a kappa-3 sweep the order of each shift it extends. Each test breaks
one certificate, or the solver or table behind it, and checks that a
caller stops with ``CertificationError``: a library call raises it, and a
``pack`` command turns it into an error report with exit code 1.
"""

import json

import pytest
from click.testing import CliRunner

from packidx import bsets, clique, demo, obstruction, packing, witness
from packidx.cli import main
from packidx.errors import CertificationError
from packidx.groups import Window, parse_group
from packidx.packing import ElementSet, write_set_file


@pytest.fixture
def broken_family(monkeypatch):
    monkeypatch.setattr(packing, "_certify_family", lambda A, shifts: False)


@pytest.fixture
def first_vertices_clique(monkeypatch):
    """``first_max_clique`` proves the true size but answers with that many
    first vertices, clique or not."""
    solve = clique.first_max_clique

    def first_vertices(adj, *args):
        size, _ = solve(adj, *args)
        return size, list(range(size))

    monkeypatch.setattr(clique, "first_max_clique", first_vertices)


@pytest.fixture
def no_extraction(monkeypatch):
    """``clique_of_size`` finds nothing, whatever size was proved."""
    monkeypatch.setattr(clique, "clique_of_size", lambda *args: None)


@pytest.fixture
def wrong_orders(monkeypatch):
    """The sweep's tables give every nonzero element order 9."""
    init = obstruction._GroupTables.__init__

    def planted(self, group):
        init(self, group)
        self.order = [1] + [9] * (self.n - 1)

    monkeypatch.setattr(obstruction._GroupTables, "__init__", planted)


@pytest.fixture
def broken_clique(monkeypatch):
    """``first_max_clique`` answers with every vertex, clique or not."""
    monkeypatch.setattr(clique, "first_max_clique", lambda adj, *args: (len(adj), list(range(len(adj)))))


def certification_error_report(args):
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 1, result.output
    error = json.loads(result.stdout)["results"]["error"]
    assert error["type"] == "Certification"
    return error


def test_witness_verify_reports_no_index(broken_family):
    certification_error_report(["witness", "--group", "Z", "--kappa", "4", "--window", "25", "--verify"])


def test_windowed_sharp_index_raises(broken_family):
    group = parse_group("Z")
    built = witness.build_witness(bsets.build_bset(group, 4), Window.for_group(group, bound=25))
    with pytest.raises(CertificationError):
        witness.windowed_sharp_index(built)


def test_sweep_cross_check_is_an_error(broken_family):
    certification_error_report(["obstruct", "--group", "Z_4 + Z_2", "--kappa", "4"])


def test_a_kappa_3_shift_of_another_order_is_an_error(wrong_orders):
    with pytest.raises(CertificationError):
        obstruction.exhaustive_no_index_check(parse_group("Z_3^2"), 3)
    error = certification_error_report(["obstruct", "--group", "Z_3^2", "--kappa", "3"])
    assert error["message"].endswith("has order 9, not 3")


def test_solver_criterion_is_an_error(broken_family):
    with pytest.raises(CertificationError):
        demo.criterion_6(seed=0)
    certification_error_report(["demo", "--only", "6"])


def test_bset_checks_are_an_error(broken_clique):
    error = certification_error_report(["bset", "--group", "Z", "--kappa", "4", "--check"])
    assert error["message"] == "the solver's clique has a difference outside the base set"


def test_property_2_raises(broken_clique):
    b = bsets.build_bset(parse_group("Z"), 4)
    with pytest.raises(CertificationError):
        bsets.check_property_2(b, packing.max_clique_in_bset(b.elements))


def test_property_1_witness_is_certified(first_vertices_clique):
    b = bsets.build_bset(parse_group("Prufer(2)"), 5)
    with pytest.raises(CertificationError, match="a difference outside the base set"):
        bsets.check_property_1(b, packing.max_clique_in_bset(b.elements))


@pytest.mark.parametrize(
    "text,elements,window",
    [("Z", ["0", "1", "3"], ["--window", "6"]), ("Z_7 + Z_7", ["(0,0)", "(1,0)"], [])],
    ids=["z-window", "subgroup-window"],
)
def test_a_failed_extraction_is_an_error(no_extraction, tmp_path, text, elements, window):
    path = tmp_path / "set.json"
    write_set_file(path, ElementSet.parse(parse_group(text), elements))
    certification_error_report(["index", "--set", str(path), *window])


@pytest.mark.parametrize(
    "text,elements,bound", [("Z", ["0", "1", "3"], 6), ("Z_7 + Z_7", ["(0,0)", "(1,0)"], None)], ids=["z", "subgroup"]
)
def test_a_family_that_picks_a_vertex_twice_is_an_error(text, elements, bound, monkeypatch):
    # one shift twice is not the two shifts the size search proved
    monkeypatch.setattr(clique, "first_max_clique", lambda adj, *args: (2, [1, 1]))
    group = parse_group(text)
    with pytest.raises(CertificationError, match="no family of the 2 shifts"):
        packing.max_packing_family(ElementSet.parse(group, elements), Window.for_group(group, bound=bound))


def test_a_failed_bset_extraction_is_an_error(no_extraction):
    error = certification_error_report(["bset", "--group", "Z", "--kappa", "4", "--check"])
    assert error["message"] == "the solver found no clique of the 3 points it proved"


def test_a_bset_clique_that_picks_a_vertex_twice_is_an_error(monkeypatch):
    # one point twice is not the three points the size search proved
    monkeypatch.setattr(clique, "first_max_clique", lambda adj, *args: (3, [0, 1, 1]))
    B = ElementSet.parse(parse_group("Z"), ["0", "1", "-1", "2", "-2"])
    with pytest.raises(CertificationError, match="no clique of the 3 points"):
        packing.max_clique_in_bset(B)
    error = certification_error_report(["bset", "--group", "Z", "--kappa", "4", "--check"])
    assert error["message"] == "the solver found no clique of the 3 points it proved"


@pytest.mark.parametrize("picked", [[0, 1], [0, 1, 1], [0, 1, 1, 2]], ids=["short", "repeated", "repeated-long"])
def test_a_bset_clique_of_a_given_size_that_is_short_or_repeats_a_point_is_an_error(picked, monkeypatch):
    # {0, 1, -1} is a 3-point clique of B; a short or repeated pick of it is not
    monkeypatch.setattr(clique, "clique_of_size", lambda adj, target, *args: picked)
    B = ElementSet.parse(parse_group("Z"), ["0", "1", "-1", "2", "-2"])
    with pytest.raises(CertificationError, match="no clique of the 3 points"):
        packing.clique_in_bset_of_size(B, 3)
