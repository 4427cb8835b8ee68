"""An answer whose certificate fails is an error, never a number.

``max_packing_family`` certifies its family (pairwise disjoint translates)
and ``max_clique_in_bset`` its clique (every difference inside the base
set). Each test breaks one certificate and checks that a caller of that
solver stops with ``CertificationError``: a library call raises it, and a
``pack`` command turns it into an error report with exit code 1.
"""

import json

import pytest
from click.testing import CliRunner

from packidx import bsets, demo, packing, witness
from packidx.cli import main
from packidx.errors import CertificationError
from packidx.groups import Window, parse_group


@pytest.fixture
def broken_family(monkeypatch):
    monkeypatch.setattr(packing, "_certify_family", lambda A, shifts: False)


@pytest.fixture
def broken_clique(monkeypatch):
    monkeypatch.setattr(packing, "_verify_in_bset", lambda B, chosen: False)


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


def test_solver_criterion_is_an_error(broken_family):
    with pytest.raises(CertificationError):
        demo.criterion_6(seed=0)
    certification_error_report(["demo", "--only", "6"])


def test_bset_checks_are_an_error(broken_clique):
    certification_error_report(["bset", "--group", "Z", "--kappa", "4", "--check"])


def test_property_2_raises(broken_clique):
    with pytest.raises(CertificationError):
        bsets.check_property_2(bsets.build_bset(parse_group("Z"), 4))
