"""The benchmark's own tests, on the smoke size of each workload.

    python -m pytest perfbench/tests -q

They check that every metric is printed with its unit and sample count,
that the traced counts repeat exactly, that a wrong reference makes ops
fail instead of pass, and that the benchmark refuses to run without the
sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import reference, wl_campaign, wl_cli, wl_serve  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: The end-to-end metrics each workload prints under the map's names.
NAMED = {
    "cli": ["cli.bounds_p50_ms", "cli.bounds_p90_ms",
            "cli.recursive_geomean_s", "cli.run_geomean_ms"],
    "campaign": ["campaign.seeds_per_s"],
    "serve": ["serve.p50_ms", "serve.p90_ms", "serve.warm_p50_ms",
              "serve.cold_p50_ms", "loadgen.late_p90_ms"],
}
COMMON = ["failed_ratio", "setup_s", "peak_rss_mb"]

#: Per-layer metrics each workload measures (the rest print as absent).
MEASURED = {
    "cli": ["cli.startup_ms", "cli.import_ms", "cli.argparse_ms",
            "c.parse_ms", "rtl.constprop_ms", "asm.codegen_count",
            "asm.steps", "analyzer.recursion_ms", "logic.bound_le_count",
            "logic.checker_nodes", "trace.residual_ms", "trace.layer_share"],
    "campaign": ["c.parse_ms", "rtl.cse_ms", "rtl.tailcall_ms",
                 "asm.codegen_ms", "asm.steps", "clight.exec_steps_per_s",
                 "logic.bound_le_count", "testing.generate_ms",
                 "testing.oracle_ms", "trace.residual_ms",
                 "trace.layer_share"],
    "serve": ["serve.handler_warm_ms", "serve.handler_cold_ms",
              "serve.pipeline_ms", "serve.store_hit_rate",
              "loadgen.late_p90_ms", "serve.self_ms", "trace.layer_share"],
}
#: Counts that must repeat exactly between two traced runs.
EXACT = ["asm.steps", "asm.codegen_count", "logic.checker_nodes",
         "logic.bound_le_count"]

_runs: dict = {}


def smoke(workload: str, trace: int, seed: int = 1) -> tuple[list, dict]:
    """Human rows and the JSON result of one smoke run (cached)."""
    key = (workload, trace, seed)
    if key not in _runs:
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload,
             "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
             "--smoke"], cwd=ROOT, capture_output=True, text=True,
            timeout=300)
        assert done.returncode == 0, done.stdout + done.stderr
        lines = done.stdout.splitlines()
        rows = {}
        for line in lines[:-1]:
            if line.startswith("  "):
                name, value, unit, samples = line.split()
                rows[name] = (float(value), unit, int(samples))
        _runs[key] = (rows, json.loads(lines[-1]))
    return _runs[key]


@pytest.mark.parametrize("workload", sorted(NAMED))
def test_every_end_to_end_metric_printed(workload):
    rows, result = smoke(workload, 0)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    for name in NAMED[workload] + COMMON:
        assert name in rows, name
        _value, unit, samples = rows[name]
        assert unit and samples >= 1, name
    assert rows["failed_ratio"][0] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == expected
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", sorted(NAMED))
def test_every_per_layer_metric_printed(workload):
    rows, result = smoke(workload, 1)
    assert result["correct"]
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == expected
    for name in MEASURED[workload]:
        _value, unit, samples = rows[name]
        assert unit == expected[name] and samples >= 1, name
        assert result["metrics"][name]["value"] > 0, name
    assert result["metrics"]["trace.layer_share"]["value"] >= 0.9


@pytest.mark.parametrize("workload", ["cli", "campaign"])
def test_exact_counts_repeat(workload):
    first = smoke(workload, 1, seed=1)[1]["metrics"]
    second = smoke(workload, 1, seed=2)[1]["metrics"]
    for name in EXACT:
        assert first[name]["value"] == second[name]["value"], name


def _off_by_four(goldens: dict, path: str, function: str) -> dict:
    planted = dict(goldens)
    functions = dict(planted[path].functions)
    functions[function] = str(int(functions[function]) + 4)
    planted[path] = replace(planted[path], functions=functions)
    return planted


def test_serve_golden_stack_requirement_off_by_four_fails():
    goldens = dict(reference.load_goldens())
    golden = goldens["mibench/crc32.c"]
    goldens["mibench/crc32.c"] = replace(
        golden, stack_requirement=golden.stack_requirement + 4)
    report = wl_serve.run(seed=1, seconds=0, trace=False, smoke=True,
                          goldens=goldens)
    assert report.failed == wl_serve.WARM_PER_COLD + 1
    assert report.failed_ratio > 0
    assert all(problem.split(":")[0].endswith("mibench/crc32.c")
               and "stack requirement" in problem
               for problem in report.problems)


def test_cli_golden_bound_off_by_four_fails():
    goldens = _off_by_four(reference.load_goldens(), "mibench/crc32.c",
                           "crc32_buffer")
    report = wl_cli.run(seed=1, seconds=0, trace=False, smoke=True,
                        goldens=goldens)
    assert report.failed >= 2 and report.failed_ratio > 0
    assert all("crc32_buffer" in problem for problem in report.problems)


def test_cli_reference_output_line_changed_fails():
    def plant(setup):
        lines = setup.references["mibench/bitcount.c"].output
        lines[0] = lines[0] + "0"

    report = wl_cli.run(seed=1, seconds=0, trace=False, smoke=True,
                        plant=plant)
    assert report.failed == wl_cli.RUN_PASSES and report.failed_ratio > 0
    assert all("run mibench/bitcount.c" in problem
               and "Clight reference" in problem
               for problem in report.problems)


def test_campaign_planted_metric_fault_fails():
    report = wl_campaign.run(seed=1, seconds=0, trace=False, smoke=True,
                             plant="drop-ra")
    assert report.failed > 0 and report.failed_ratio > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli", "--seed",
         "1", "--seconds", "1", "--trace", "0"], cwd=tmp_path,
        capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
