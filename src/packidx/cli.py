"""Command-line entry point: ``pack`` with one subcommand per toolkit area.

Exit codes: 0 when every check in the report passes, 1 when the report
carries a failure or domain error (the report is still emitted), 2 for
usage or parse errors. Wall-clock goes to stderr so report bytes stay
deterministic.

A config file of flat ``key=value`` lines may supply any flag's value;
explicit flags override it.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import click
from click.core import ParameterSource

from .demo import run_demo
from .errors import ElementSyntaxError, GroupSyntaxError
from .reports import emit
from .runners import (
    RunConfig,
    run_bset,
    run_index,
    run_obstruct,
    run_pairmap,
    run_witness,
)


def _run(runner, command: str, params: dict, *required: str) -> None:
    """Fill flags from the config file, insist on ``required``, run, deliver."""
    params = apply_config(params)
    fmt, out = params.pop("fmt"), params.pop("out")
    for name in required:
        if params.get(name) is None:
            flag = "--set" if name == "set_path" else f"--{name}"
            raise click.UsageError(f"Missing option '{flag}'.")
    cfg = RunConfig(command=command, **params)
    started = time.time()
    try:
        report = runner(cfg)
    except (GroupSyntaxError, ElementSyntaxError, ValueError) as exc:
        raise click.UsageError(str(exc)) from exc
    text = emit(report, fmt, out)
    if out:
        click.echo(f"[pack] report written to {out}", err=True)
    else:
        click.echo(text, nl=False)
    click.echo(f"[pack] {report.command} took {time.time() - started:.2f}s", err=True)
    sys.exit(0 if report.passed else 1)


def common_options(fn):
    fn = click.option("--out", type=click.Path(dir_okay=False), default=None,
                      help="Write the report to this file instead of stdout.")(fn)
    fn = click.option("--format", "fmt", type=click.Choice(["json", "csv"]),
                      default="json", show_default=True)(fn)
    fn = click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False),
                      default=None, help="Flat key=value defaults; flags override.")(fn)
    return fn


_CONFIG_KEY_TO_PARAM = {"format": "fmt", "set": "set_path", "config": None, "out": "out"}


def apply_config(params: dict) -> dict:
    """Fill in values from the key=value config file for every flag the
    user did not pass explicitly. Each value goes through its option's own
    type, so a bad value is a usage error, as it is on the command line."""
    path = params.pop("config_path", None)
    if not path:
        return params
    ctx = click.get_current_context()
    options = {p.name: p for p in ctx.command.params}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise click.UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        name = _CONFIG_KEY_TO_PARAM.get(key, key)
        if name is None:
            continue
        if name not in params:
            continue  # keys for other subcommands are ignored
        if ctx.get_parameter_source(name) == ParameterSource.DEFAULT:
            try:
                params[name] = options[name].type_cast_value(ctx, value)
            except click.BadParameter as exc:
                raise click.UsageError(f"{path}:{lineno}: {exc.format_message()}") from None
    return params


def window_options(fn):
    fn = click.option("--m", type=click.IntRange(min=1), default=4, show_default=True,
                      help="Copies kept of each repeated factor.")(fn)
    fn = click.option("--level", type=click.IntRange(min=1), default=4, show_default=True,
                      help="Maximum Prufer level kept in windows.")(fn)
    return fn


@click.group()
@click.version_option(package_name="packidx", prog_name="pack")
def main():
    """Packing indices of subsets of abelian groups, exactly and reproducibly."""


@main.command()
@click.option("--group", default=None, help="Group spec, e.g. 'Z_4 + Z_2^w'.")
@click.option("--kappa", type=click.IntRange(min=2), default=None)
@click.option("--check", is_flag=True, help="Verify the two clique-side properties.")
@window_options
@common_options
def bset(**params):
    """Construct the base set pinning sharp index kappa in a group."""
    _run(run_bset, "bset", params, "group", "kappa")


@main.command()
@click.option("--group", default=None)
@click.option("--kappa", type=click.IntRange(min=2), default=None)
@click.option("--window", type=click.IntRange(min=1), default=None, help="Bound N for Z factors ([-N,N]).")
@click.option("--verify", is_flag=True, help="Check invariants and report the index.")
@window_options
@common_options
def witness(**params):
    """Greedily build a set whose windowed sharp index is kappa."""
    _run(run_witness, "witness", params, "group", "kappa")


@main.command()
@click.option("--set", "set_path", default=None, type=click.Path(exists=True, dir_okay=False),
              help="JSON set file {group, elements}.")
@click.option("--window", type=click.IntRange(min=1), default=None, help="Bound N for Z factors.")
@window_options
@common_options
def index(**params):
    """Exact windowed packing index of a set loaded from a file."""
    _run(run_index, "index", params, "set_path")


@main.command()
@click.option("--group", default=None, help="A finite group in the covered family.")
@click.option("--kappa", type=click.IntRange(3, 4), default=None)
@click.option("--sample", type=int, default=None,
              help="Sample this many subsets instead of sweeping all.")
@click.option("--seed", type=int, default=0, show_default=True)
@common_options
def obstruct(**params):
    """Sweep subsets of a finite group; extensions must leave no gap at kappa-1."""
    _run(run_obstruct, "obstruct", params, "group", "kappa")


@main.command()
@click.option("--a", type=int, default=None, help="Domain index-set size.")
@click.option("--b", type=int, default=None, help="Codomain index-set size.")
@click.option("--budget", type=int, default=None, help="Node budget for the search.")
@common_options
def pairmap(**params):
    """Search for a separately-injective, intersection-preserving pair map."""
    _run(run_pairmap, "pairmap", params, "a", "b")


@main.command()
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--only", type=click.IntRange(1, 7), default=None,
              help="Run a single criterion instead of the whole matrix.")
@common_options
def demo(**params):
    """Run the full acceptance matrix and report one row per criterion."""
    _run(run_demo, "demo", params)


if __name__ == "__main__":
    main()
