import json
import time
from pathlib import Path

import pytest
from click.testing import CliRunner

from packidx.cli import main
from packidx.runners import RunConfig, run_bset, run_obstruct


@pytest.fixture
def runner():
    return CliRunner()


def payload(result):
    return json.loads(result.stdout)


class TestExitCodes:
    def test_passing_bset(self, runner):
        result = runner.invoke(main, ["bset", "--group", "Z", "--kappa", "6", "--check"])
        assert result.exit_code == 0
        data = payload(result)
        assert data["passed"] is True
        checks = {row["check"]: row["status"] for row in data["summary"]}
        assert checks["property_1"] == "pass" and checks["property_2"] == "pass"

    def test_exceptional_group_fails_with_report(self, runner):
        result = runner.invoke(main, ["bset", "--group", "Z_2^w", "--kappa", "4"])
        assert result.exit_code == 1
        assert payload(result)["results"]["error"]["type"] == "ExceptionalGroup"

    def test_dsl_syntax_error_is_usage_error(self, runner):
        result = runner.invoke(main, ["bset", "--group", "Z_", "--kappa", "3"])
        assert result.exit_code == 2

    def test_repetition_past_the_factor_cap_is_usage_error(self, runner):
        result = runner.invoke(main, ["bset", "--group", "Z^10000000000", "--kappa", "3"])
        assert result.exit_code == 2
        assert "more than 4096 factors (at position 2)" in result.output

    def test_missing_option_is_usage_error(self, runner):
        result = runner.invoke(main, ["bset", "--group", "Z"])
        assert result.exit_code == 2


class TestIndexCommand:
    def test_index_from_set_file(self, runner, tmp_path):
        path = tmp_path / "a.json"
        path.write_text(json.dumps({"group": "Z", "elements": ["0", "1"]}))
        result = runner.invoke(main, ["index", "--set", str(path), "--window", "4"])
        assert result.exit_code == 0
        data = payload(result)
        assert data["results"]["family"]["size"] == 5
        assert data["results"]["windowed_sharp_index"] == 6


class TestFailFast:
    def test_witness_window_cap_is_checked_before_building(self, runner, monkeypatch):
        from packidx import witness

        def refuse(*args, **kwargs):
            raise AssertionError("built a witness for a window past the cap")

        monkeypatch.setattr(witness, "build_witness", refuse)
        result = runner.invoke(
            main, ["witness", "--group", "Z", "--kappa", "3", "--window", "600", "--verify"]
        )
        assert result.exit_code == 1
        assert payload(result)["results"]["error"] == {
            "type": "WindowTooLarge",
            "message": "window has 1201 elements, limit is 1024",
        }

    @pytest.mark.parametrize(
        "group,window,size",
        [
            ("Z_9223372036854775808^w", [], 9223372036854775808**4),
            ("Z_1000000000000^w", [], 10**48),
            ("Z + Z", ["--window", "20"], 41**2),
        ],
    )
    def test_witness_window_cap_holds_without_verify(self, runner, monkeypatch, group, window, size):
        from packidx import witness

        def refuse(*args, **kwargs):
            raise AssertionError("built a witness for a window past the cap")

        # the builder would list the window whole: a 2^63 modulus overflows
        # range(), 10^12 runs out of memory, Z + Z at 20 takes seconds
        monkeypatch.setattr(witness, "build_witness", refuse)
        result = runner.invoke(main, ["witness", "--group", group, "--kappa", "7", *window])
        assert result.exit_code == 1
        assert "Traceback" not in result.output
        assert payload(result)["results"]["error"] == {
            "type": "WindowTooLarge",
            "message": f"window has {size} elements, limit is 1024",
        }

    def test_obstruct_element_cap_is_checked_before_enumerating(self, runner, monkeypatch):
        from packidx.groups import DenseBox

        def refuse(*args, **kwargs):
            raise AssertionError("enumerated a group past the sweep cap")

        # a sweep lists the group's elements in the tables of its box
        monkeypatch.setattr(DenseBox, "tables", refuse)
        result = runner.invoke(
            main, ["obstruct", "--group", "Z_2^40", "--kappa", "4", "--sample", "5"]
        )
        assert result.exit_code == 1
        data = payload(result)
        assert data["results"]["error"] == {
            "type": "NotApplicable",
            "message": "sweep supports at most 32 elements, got 1099511627776",
        }
        assert data["timing"] == {}

    def test_index_window_cap_is_an_error_report(self, runner):
        set_path = Path(__file__).parent / "golden" / "sets" / "z.json"
        result = runner.invoke(main, ["index", "--set", str(set_path), "--window", "600"])
        assert result.exit_code == 1
        data = payload(result)
        assert data["results"]["error"]["type"] == "WindowTooLarge"
        assert data["timing"] == {}

    @pytest.mark.parametrize(
        "content",
        [
            '{"elements": ["0"]}',
            '{"group": "Z"}',
            '{"group": 5, "elements": ["0"]}',
            '{"group": "Z", "elements": "0"}',
            '{"group": "Z", "elements": [0, 1]}',
            '["Z", ["0"]]',
            "not json",
        ],
        ids=["no-group", "no-elements", "group-type", "elements-type", "element-type", "not-object", "not-json"],
    )
    def test_malformed_set_file_is_usage_error(self, runner, tmp_path, content):
        path = tmp_path / "a.json"
        path.write_text(content)
        result = runner.invoke(main, ["index", "--set", str(path), "--window", "4"])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)


def _not_applicable(message):
    return {"type": "NotApplicable", "message": message}


def _exceptional(kappa, group):
    return {"type": "ExceptionalGroup", "message": f"index {kappa} is unattainable in {group}"}


_TOO_BIG_TO_SWEEP = "group has {} elements; exhaustive sweeps stop at 16, use sampled mode"


class TestFamilyVerdicts:
    """Which groups ``bset`` rejects and ``obstruct`` sweeps: an error
    report pinned to its type and message, or the accepted run's
    provenance (``bset``) or sweep mode (``obstruct``)."""

    @pytest.mark.parametrize(
        "command,group,kappa,sample,expected",
        [
            ("obstruct", "Z_5", 3, None, _not_applicable("Z_5 is not a finite exponent-3 group")),
            ("obstruct", "Z_3 + Z_3", 4, None,
             _not_applicable("Z_3 + Z_3 is outside the 2-torsion-with-one-Z_4 family")),
            ("obstruct", "Z_2", 5, None, _not_applicable("sweeps cover kappa in {3, 4} only")),
            ("obstruct", "Z_3^w", 3, None, _not_applicable("Z_3^w is not a finite exponent-3 group")),
            ("obstruct", "Z_2^w", 4, None, _not_applicable("sweeps run on finite groups only")),
            ("obstruct", "Z_4 + Z_4", 4, None,
             _not_applicable("Z_4 + Z_4 is outside the 2-torsion-with-one-Z_4 family")),
            ("obstruct", "Z_8", 4, None,
             _not_applicable("Z_8 is outside the 2-torsion-with-one-Z_4 family")),
            ("obstruct", "Z", 3, None, _not_applicable("Z is not a finite exponent-3 group")),
            ("obstruct", "Z_4 + Z_2^w", 4, None, _not_applicable("sweeps run on finite groups only")),
            ("obstruct", "Z_3^3", 3, None, _not_applicable(_TOO_BIG_TO_SWEEP.format(27))),
            ("obstruct", "Z_2^5", 4, None, _not_applicable(_TOO_BIG_TO_SWEEP.format(32))),
            ("obstruct", "Z_2^6", 4, 10,
             _not_applicable("sweep supports at most 32 elements, got 64")),
            ("obstruct", "Z_3", 3, None, "exhaustive"),
            ("obstruct", "Z_2^3", 4, 5, "sampled"),
            ("bset", "Z_3^w", 3, None, _exceptional(3, "Z_3^w")),
            ("bset", "Z_2^w", 4, None, _exceptional(4, "Z_2^w")),
            ("bset", "Z_4 + Z_2^w", 4, None, _exceptional(4, "Z_4 + Z_2^w")),
            ("bset", "Z_4^w", 4, None, "K4-ZiZj"),
            ("bset", "Z_3 + Z_3^w", 3, None, _exceptional(3, "Z_3 + Z_3^w")),
            ("bset", "Z_2^w + Z_3", 4, None, "K4-Order>5"),
            ("bset", "Z_4 + Z_4 + Z_2^w", 4, None, "K4-ZiZj"),
            ("bset", "Z", 3, None, "K3"),
            ("bset", "Z_2^w", 5, None, "Kn-DirectSum"),
        ],
    )
    def test_verdict(self, command, group, kappa, sample, expected):
        run = run_obstruct if command == "obstruct" else run_bset
        report = run(RunConfig(command=command, group=group, kappa=kappa, sample=sample))
        results = report.results
        if isinstance(expected, dict):
            assert results == {"error": expected}
            assert not report.passed and report.timing == {}
        else:
            assert results["provenance" if command == "bset" else "mode"] == expected
            assert report.passed
            # results hold JSON values only, lists rather than tuples
            assert results == json.loads(json.dumps(results))


class TestWitnessCommand:
    def test_verify_reports_index(self, runner):
        result = runner.invoke(
            main,
            ["witness", "--group", "Z", "--kappa", "3", "--window", "30", "--verify"],
        )
        assert result.exit_code == 0
        data = payload(result)
        assert data["results"]["windowed_sharp_index"] == 3
        assert data["results"]["invariants"]["i1"]["holds"]
        assert data["results"]["trace"][0] == {"g": "0", "a": "0", "forbidden": 0}

    def test_window_is_needed_only_for_a_z_factor(self, runner):
        import hashlib
        import shlex

        pins = json.loads((Path(__file__).parent / "golden" / "digests.json").read_text())
        echo = "pack witness --group 'Z_3^w' --kappa 4 --level 4 --m 4 --verify"
        result = runner.invoke(main, shlex.split(echo)[1:])
        assert result.exit_code == 0
        assert payload(result)["echo"] == echo
        digest = hashlib.sha256(result.stdout.encode()).hexdigest()
        assert digest == pins["witness Z_3^w k=4 --m 4 --verify"]

    def test_z_factor_without_window_is_usage_error(self, runner):
        result = runner.invoke(main, ["witness", "--group", "Z", "--kappa", "3"])
        assert result.exit_code == 2
        assert "a bound is required for Z factors" in result.output


class TestObstructCommand:
    def test_exhaustive(self, runner):
        result = runner.invoke(main, ["obstruct", "--group", "Z_4 + Z_2", "--kappa", "4"])
        assert result.exit_code == 0
        data = payload(result)
        assert data["results"]["violations"] == []
        assert data["results"]["subsets_examined"] == 255

    def test_sampled_echoes_seed(self, runner):
        result = runner.invoke(
            main,
            ["obstruct", "--group", "Z_3^3", "--kappa", "3", "--sample", "100", "--seed", "5"],
        )
        assert result.exit_code == 0
        data = payload(result)
        assert data["results"]["mode"] == "sampled" and data["results"]["seed"] == 5
        assert data["config"]["seed"] == 5


class TestZeroCounts:
    """A zero sample or budget is an error report, as a negative one is,
    whether it comes from a flag or from a config file."""

    CASES = [
        (["obstruct", "--group", "Z_2^4", "--kappa", "4"], "sample", "Precondition"),
        (["pairmap", "--a", "5", "--b", "5"], "budget", "SearchBudgetExceeded"),
    ]

    @pytest.mark.parametrize("argv, key, kind", CASES, ids=["sample", "budget"])
    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_flag(self, runner, argv, key, kind, value):
        result = runner.invoke(main, argv + [f"--{key}", value])
        assert result.exit_code == 1
        data = payload(result)
        assert data["results"]["error"]["type"] == kind
        assert data["config"][key] == int(value)
        if key == "budget":
            # the first placed pair already runs over the budget
            assert data["timing"] == {"nodes_visited": 1, "depth": 1}
        else:
            assert data["timing"] == {}

    @pytest.mark.parametrize("argv, key, kind", CASES, ids=["sample", "budget"])
    def test_config_file(self, runner, tmp_path, argv, key, kind):
        cfg = tmp_path / "pack.cfg"
        cfg.write_text(f"{key}=0\n")
        result = runner.invoke(main, argv + ["--config", str(cfg)])
        assert result.exit_code == 1
        data = payload(result)
        assert data["results"]["error"]["type"] == kind
        assert data["config"][key] == 0


def test_budget_error_reports_progress(runner):
    argv = ["pairmap", "--a", "46", "--b", "46", "--budget", "200000"]
    result = runner.invoke(main, argv)
    assert result.exit_code == 1
    # depth as the recursive reference search in test_pairmap reaches it
    assert payload(result)["timing"] == {"nodes_visited": 200001, "depth": 510}


def test_budget_error_comes_before_quadratic_setup(runner):
    # testing every earlier pair for overlap, O(a^4), took over 3 s at a = b = 100
    started = time.perf_counter()
    result = runner.invoke(main, ["pairmap", "--a", "100", "--b", "100", "--budget", "10"])
    elapsed = time.perf_counter() - started
    assert result.exit_code == 1
    assert payload(result)["timing"] == {"nodes_visited": 11, "depth": 11}
    assert elapsed < 2.0


class TestEmission:
    def test_json_is_canonical(self, runner):
        a = runner.invoke(main, ["pairmap", "--a", "4", "--b", "4"])
        b = runner.invoke(main, ["pairmap", "--a", "4", "--b", "4"])
        assert a.stdout == b.stdout
        keys = list(payload(a).keys())
        assert keys == sorted(keys)

    def test_csv_rows(self, runner):
        result = runner.invoke(
            main, ["bset", "--group", "Z", "--kappa", "3", "--check", "--format", "csv"]
        )
        lines = result.stdout.strip().splitlines()
        assert lines[0] == "check,status,detail"
        assert len(lines) == 4  # build + two property rows

    def test_out_file(self, runner, tmp_path):
        out = tmp_path / "report.json"
        result = runner.invoke(
            main, ["bset", "--group", "Z", "--kappa", "3", "--out", str(out)]
        )
        assert result.exit_code == 0
        assert json.loads(out.read_text())["command"] == "bset"

    def test_schema_and_echo(self, runner):
        result = runner.invoke(main, ["bset", "--group", "Z", "--kappa", "3"])
        data = payload(result)
        assert data["schema_version"] == 1
        assert data["echo"].startswith("pack bset")
        assert "--group Z" in data["echo"] and "--kappa 3" in data["echo"]

    def test_echo_is_rerunnable(self, runner):
        import shlex

        first = runner.invoke(main, ["obstruct", "--group", "Z_4 + Z_2", "--kappa", "4"])
        data = payload(first)
        argv = shlex.split(data["echo"])[1:]  # drop the program name
        second = runner.invoke(main, argv)
        assert payload(second) == data


class TestThreadDeterminism:
    """No thread count exists any more: the flag is refused, and the
    environment variable and config key that once set it are read by
    nothing."""

    # one cheap report per command that used to take a thread count
    CELLS = {
        "bset": ["bset", "--group", "Prufer(2)", "--kappa", "5", "--check"],
        "witness": ["witness", "--group", "Z", "--kappa", "4", "--window", "25", "--verify"],
        "obstruct": ["obstruct", "--group", "Z_4 + Z_2", "--kappa", "4"],
        "pairmap": ["pairmap", "--a", "5", "--b", "4"],
    }

    def test_threads_flag_is_usage_error(self, runner):
        args = ["witness", "--group", "Z", "--kappa", "3", "--window", "5", "--threads", "2"]
        result = runner.invoke(main, args)
        assert result.exit_code == 2
        assert "No such option" in result.output and "--threads" in result.output

    @pytest.mark.parametrize("command", sorted(CELLS))
    def test_reports_do_not_depend_on_threads(self, runner, tmp_path, command):
        args = self.CELLS[command]
        cfg = tmp_path / "pack.cfg"
        cfg.write_text("threads = 8\n")
        plain = runner.invoke(main, args)
        result = runner.invoke(main, args + ["--config", str(cfg)])
        assert result.exit_code == plain.exit_code == 0
        assert result.stdout == plain.stdout

    def test_threads_env_var(self, runner, monkeypatch):
        plain = {name: runner.invoke(main, args) for name, args in self.CELLS.items()}
        monkeypatch.setenv("PACK_THREADS", "8")
        for name, args in self.CELLS.items():
            result = runner.invoke(main, args)
            assert result.exit_code == plain[name].exit_code == 0, name
            assert result.stdout == plain[name].stdout, name


class TestConfigFile:
    def test_values_fill_missing_flags(self, runner, tmp_path):
        cfg = tmp_path / "pack.cfg"
        cfg.write_text("group = Z\nkappa = 5\ncheck = true\n# comment\n")
        result = runner.invoke(main, ["bset", "--config", str(cfg)])
        assert result.exit_code == 0
        data = payload(result)
        assert data["config"]["group"] == "Z"
        assert data["config"]["kappa"] == 5
        assert data["config"]["check"] is True

    def test_explicit_flags_override(self, runner, tmp_path):
        cfg = tmp_path / "pack.cfg"
        cfg.write_text("group=Z\nkappa=5\n")
        result = runner.invoke(main, ["bset", "--config", str(cfg), "--kappa", "7"])
        assert payload(result)["config"]["kappa"] == 7

    def test_required_flag_still_required(self, runner, tmp_path):
        cfg = tmp_path / "pack.cfg"
        cfg.write_text("kappa=5\n")
        result = runner.invoke(main, ["bset", "--config", str(cfg)])
        assert result.exit_code == 2

    def test_malformed_line_is_usage_error(self, runner, tmp_path):
        cfg = tmp_path / "pack.cfg"
        cfg.write_text("kappa 5\n")
        result = runner.invoke(main, ["bset", "--config", str(cfg), "--group", "Z", "--kappa", "3"])
        assert result.exit_code == 2

    @pytest.mark.parametrize(
        "line, argv",
        [
            ("only=9", ["demo"]),
            ("set=/nonexistent.json", ["index"]),
            ("kappa=7", ["obstruct", "--group", "Z_2^4"]),
            ("format=xml", ["bset", "--group", "Z", "--kappa", "3"]),
            ("verify=maybe", ["witness", "--group", "Z", "--kappa", "3", "--window", "3"]),
        ],
        ids=["range", "path", "obstruct-kappa", "choice", "bool"],
    )
    def test_bad_value_is_usage_error(self, runner, tmp_path, line, argv):
        # config values get the checks the flag would get
        cfg = tmp_path / "pack.cfg"
        cfg.write_text(line + "\n")
        result = runner.invoke(main, argv + ["--config", str(cfg)])
        assert result.exit_code == 2
        assert f"{cfg}:1: Invalid value for '--{line.partition('=')[0]}'" in result.stderr


class TestDemoCommand:
    def test_single_criterion(self, runner):
        result = runner.invoke(main, ["demo", "--only", "5"])
        assert result.exit_code == 0
        data = payload(result)
        assert [row["check"] for row in data["summary"]] == ["criterion_5"]
        assert data["results"]["criteria"][0]["passed"] is True
