"""Tests of the host-time benchmark itself.

Run from the repository root::

    python3 -m pytest hostbench -q

They take about half a minute: each simulates a few cheap cells or one
small sweep, never a whole fig1 workload.
"""

import csv
import glob
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import cells  # noqa: E402
import run  # noqa: E402

RUN = [sys.executable, os.path.join("hostbench", "run.py")]


def _cheap_fig1_cells():
    """Two fast committed Fig 1 cells (select at 16 disks)."""
    return [cell for cell in cells.workload_cells("fig1-active-cluster", ROOT)
            if cell.task == "select" and cell.disks == 16]


def _declared(section):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[section]}


def _bump_last_digit(text):
    return text[:-1] + str((int(text[-1]) + 1) % 10)


def _run_cli(workload, trace, cwd=ROOT):
    return subprocess.run(
        RUN + ["--workload", workload, "--seed", "3", "--seconds", "1",
               "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def test_committed_fig1_cells_pass():
    result = cells.run_cells(_cheap_fig1_cells())
    assert (result.attempted, result.failed) == (2, 0), result.errors


def test_fig1_reference_corrupted_in_one_cell_fails(tmp_path):
    chosen = _cheap_fig1_cells()[0]
    with open(os.path.join(ROOT, cells.FIG1_CSV), newline="") as handle:
        rows = list(csv.DictReader(handle))
    for row in rows:
        if (row["task"], row["arch"], int(row["disks"])) == (
                chosen.task, chosen.arch, chosen.disks):
            row["elapsed_s"] = _bump_last_digit(row["elapsed_s"])
    corrupted = tmp_path / "fig1.csv"
    with open(corrupted, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    wanted = {cell.key for cell in _cheap_fig1_cells()}
    subset = [cell for cell in cells.fig1_reference(str(corrupted))
              if cell.key in wanted]
    result = cells.run_cells(subset)
    assert (result.attempted, result.failed) == (2, 1)
    assert result.errors[0].startswith(chosen.key)


def test_sweep_reference_corrupted_in_one_cell_fails(tmp_path):
    with open(os.path.join(ROOT, cells.SWEEP_JSON)) as handle:
        text = handle.read()
    rows = json.loads(text, parse_float=str)
    first = rows[0]["elapsed_s"]
    corrupted = tmp_path / "small.json"
    corrupted.write_text(text.replace(first, _bump_last_digit(first), 1))
    swept = cells.run_sweep(cells.sweep_reference(str(corrupted)),
                            str(tmp_path))
    # The sweep and the resume each check the corrupted cell.
    assert swept.attempted == 2 * len(rows)
    assert swept.failed == 2
    assert not glob.glob(str(tmp_path / "*.jsonl"))


@pytest.mark.parametrize("workload", cells.WORKLOADS)
def test_seeds_reorder_the_same_cells(workload):
    canonical = cells.workload_cells(workload, ROOT)
    first = cells.seeded_order(canonical, 1)
    second = cells.seeded_order(canonical, 2)
    assert sorted(first, key=repr) == sorted(second, key=repr)
    assert first != second
    assert first == cells.seeded_order(canonical, 1)


def test_fig1_workload_sizes():
    assert len(cells.workload_cells("fig1-smp", ROOT)) == 16
    assert len(cells.workload_cells("fig1-active-cluster", ROOT)) == 32
    assert len(cells.workload_cells("sweep-resume", ROOT)) == 9


def test_fig1_trace_computes_every_declared_layer_metric(tmp_path):
    metrics, passes = run.trace_layers(
        "fig1-active-cluster", _cheap_fig1_cells(), str(tmp_path))
    assert set(metrics) == set(_declared("per_layer"))
    assert sum(p.failed for p in passes) == 0
    assert metrics["sim.events"] == passes[0].events > 0
    assert metrics["disk.bytes_read"] > 0


@pytest.mark.parametrize("trace", (0, 1))
def test_output_names_every_declared_metric_with_its_unit(trace):
    done = _run_cli("sweep-resume", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = _declared("per_layer" if trace else "end_to_end")
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == declared
    assert all(isinstance(m["value"], (int, float))
               for m in result["metrics"].values())


def test_run_leaves_git_status_clean():
    if shutil.which("git") is None or not os.path.isdir(
            os.path.join(ROOT, ".git")):
        pytest.skip("not a git checkout")

    def status():
        return subprocess.run(
            ["git", "status", "--porcelain", "--ignored"], cwd=ROOT,
            capture_output=True, text=True, check=True).stdout

    def untracked(text):
        # __pycache__ directories come and go with any import.
        return {line for line in text.splitlines()
                if "__pycache__" not in line}

    before = status()
    assert _run_cli("sweep-resume", 0).returncode == 0
    assert untracked(status()) == untracked(before)
    assert not glob.glob(os.path.join(ROOT, ".bench_work-*"))


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    (tmp_path / "hostbench").mkdir()
    for path in glob.glob(os.path.join(HERE, "*.py")):
        shutil.copy(path, tmp_path / "hostbench")
    done = _run_cli("fig1-smp", 0, cwd=str(tmp_path))
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
