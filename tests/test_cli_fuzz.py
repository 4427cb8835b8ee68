"""Fuzz the CLI: any group spec, set file or flag value ends in exit 0, 1
or 2, never in an uncaught exception or a traceback.

Sizes stay small (kappa <= 7, m <= 4, window <= 20, level <= 4, a and
b <= 6, budget <= 1,000, sample <= 50), so every run is cheap. The
commands that enumerate a window (``witness``, ``index``) get one-factor
groups: a window over two factors has no up-front cap on the work (a
two-element set in ``Z + Z`` at window 15 takes ``index`` about 20 s), so
multi-factor specs go to ``bset`` and ``obstruct`` only.
"""

import json

import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from packidx.cli import main

FACTORS = [
    "Z", "Z_2", "Z_3", "Z_4", "Z_5", "Z_6", "Z_2^w", "Z_3^w", "Z_4^w", "Z_2^2",
    "Prufer(2)", "Prufer(3)", "Prufer(4)", "Z_1",
]
ELEMENTS = ["0", "1", "-1", "3", "(0,1)", "(1,0)", "(1,1,0)", "[1]", "[0,1]", "1/2", "3/4", "1/3", "x", ""]

factor = st.sampled_from(FACTORS)
near_dsl = st.one_of(st.text(alphabet="Z_^w+() 0123456789Prufe", max_size=12), st.text(max_size=6))
# valid-looking specs three times as often as free text
groups = st.one_of(*[st.lists(factor, min_size=1, max_size=3).map(" + ".join)] * 3, near_dsl)
window_groups = st.one_of(*[factor] * 3, near_dsl)

elements = st.lists(st.one_of(st.sampled_from(ELEMENTS), st.text(max_size=6)), max_size=5)
set_files = st.one_of(
    st.builds(lambda g, es: json.dumps({"group": g, "elements": es}), window_groups, elements),
    st.builds(json.dumps, st.dictionaries(
        st.sampled_from(["group", "elements", "x"]),
        st.one_of(st.integers(), st.text(max_size=4), st.lists(st.integers(), max_size=2)),
        max_size=3,
    )),
    st.text(max_size=20),
)


def upto(n, low=1):
    """low..n, then the two values below low; hypothesis leans toward the
    front of the list, so most draws are in range."""
    return st.sampled_from([*range(low, n + 1), low - 1, low - 2])


def given_flag(name, values):
    return values.map(lambda v: [f"--{name}", str(v)])


def flag(name, values):
    """``[--name, value]``, or nothing so the flag keeps its default."""
    return st.one_of(st.just([]), given_flag(name, values))


# required flags are always given: a missing one is tested in test_cli.py;
# ``--window``, needed only for a ``Z`` factor, is sometimes left out
kappa = given_flag("kappa", upto(7, low=2))
window = (flag("m", upto(4)), flag("level", upto(4)))

invocations = st.one_of(
    st.tuples(st.just(["bset"]), given_flag("group", groups), kappa,
              st.sampled_from([[], ["--check"]]), *window),
    st.tuples(st.just(["witness"]), given_flag("group", window_groups), kappa,
              flag("window", upto(20)), st.sampled_from([[], ["--verify"]]), *window),
    st.tuples(st.just(["index", "--set", "SETFILE"]), flag("window", upto(20)), *window),
    st.tuples(st.just(["obstruct"]), given_flag("group", groups), kappa,
              flag("sample", upto(50)), flag("seed", st.integers(-3, 3))),
    st.tuples(st.just(["pairmap"]), given_flag("a", upto(6, low=2)), given_flag("b", upto(6, low=2)),
              flag("budget", st.sampled_from([1000, 100, 10, 1, 0, -1]))),
)


@pytest.fixture(scope="module")
def set_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "set.json"


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(invocations, flag("format", st.sampled_from(["json", "csv", "xml"])), set_files)
def test_cli_never_crashes(set_path, parts, fmt, set_text):
    set_path.write_text(set_text)
    args = [str(set_path) if a == "SETFILE" else a for part in parts for a in part] + fmt
    result = CliRunner().invoke(main, args)
    # CliRunner catches an uncaught exception and reports it as exit 1
    assert result.exception is None or isinstance(result.exception, SystemExit), (args, result.exception)
    assert result.exit_code in (0, 1, 2), args
    assert "Traceback" not in result.output, args
