"""Self-test of the benchmark: python3 perfbench/selftest.py (from the repo root).

Runs a tiny pass of each workload, untraced and traced, and checks that
every metric of BENCHMARK.json is printed with its unit; that the counts
later changes may cite repeat exactly between two traced runs; that a
corrupted pinned digest counts as a failure and makes the run exit nonzero;
and that the benchmark refuses to run where the packidx sources are missing.
Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = HERE / "_run" / "selftest"
sys.path.insert(0, str(HERE))

import cells  # noqa: E402
import metrics  # noqa: E402

problems: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        problems.append(what)


def bench(*args: str, cwd: Path = ROOT) -> tuple[int, dict | None]:
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if proc.returncode not in (0, 1):
        sys.stderr.write(proc.stderr)
    return proc.returncode, result


def check_spec() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for key, table in (("end_to_end", metrics.END_TO_END), ("per_layer", metrics.PER_LAYER)):
        listed = [(m["name"], m["unit"], m["better"]) for m in spec[key]]
        expect(listed == [(m.name, m.unit, m.better) for m in table], f"BENCHMARK.json {key} matches metrics.py")
    expect([w["name"] for w in spec["workloads"]] == list(cells.WORKLOADS), "BENCHMARK.json workloads match cells.py")


def metric_table_ok(result: dict | None, table) -> bool:
    if result is None:
        return False
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    return got == {m.name: m.unit for m in table} and all(
        isinstance(m["value"], (int, float)) for m in result["metrics"].values()
    )


def main() -> int:
    check_spec()
    for workload in cells.WORKLOADS:
        base = ("--workload", workload, "--seed", "0", "--seconds", "1", "--tiny")
        code, result = bench(*base, "--trace", "0")
        expect(code == 0 and result is not None and result["correct"], f"{workload}: tiny untraced run passes")
        expect(metric_table_ok(result, metrics.END_TO_END), f"{workload}: every end-to-end metric printed with its unit")

        traced = [bench(*base, "--trace", "1") for _ in range(2)]
        expect(all(code == 0 and r and r["correct"] for code, r in traced), f"{workload}: tiny traced runs pass")
        expect(
            all(metric_table_ok(r, metrics.PER_LAYER) for _, r in traced),
            f"{workload}: every per-layer metric printed with its unit",
        )
        if all(r for _, r in traced):
            first, second = (r["metrics"] for _, r in traced)
            expect(
                all(first[k]["value"] == second[k]["value"] for k in metrics.EXACT_COUNTS),
                f"{workload}: {', '.join(metrics.EXACT_COUNTS)} repeat exactly",
            )

    SCRATCH.mkdir(parents=True, exist_ok=True)
    pins = json.loads((HERE / "digests.json").read_text())
    victim = cells.TINY["sweep"][-1]
    pins["reports"][victim] = "0" * 64
    corrupted = SCRATCH / "corrupted-digests.json"
    corrupted.write_text(json.dumps(pins))
    code, result = bench("--workload", "sweep", "--seed", "0", "--seconds", "1", "--tiny", "--trace", "0",
                         "--digests", str(corrupted))
    expect(
        code != 0 and result is not None and not result["correct"] and result["failed"] >= 1,
        "a corrupted pinned digest counts as a failure and exits nonzero",
    )

    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("_run", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    code, result = bench("--workload", "sweep", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=bare)
    expect(code != 0 and result is None, "without the packidx sources it exits nonzero and prints no result")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
