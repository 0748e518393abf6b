"""Calibration-drift alarm: fresh results vs. the checked-in baseline.

``baselines/fig1_small.json`` stores the simulator's output for a small
deterministic workload. Simulations are seed-free and deterministic, so
any drift here is a *code change* touching the models — this test makes
such changes visible and deliberate (regenerate with the snippet in
``baselines/README.md`` when a drift is intended).
"""

import json
import pathlib

import pytest

from repro.experiments import config_for, fig1_rows, run_fig1, run_task
from repro.experiments.regression import compare_rows, render_regressions
from repro.invariants import InvariantAuditor

BASELINE = (pathlib.Path(__file__).resolve().parent.parent
            / "baselines" / "fig1_small.json")


@pytest.fixture(scope="module")
def fresh_rows():
    result = run_fig1(sizes=(8,), tasks=("select", "sort", "groupby"),
                      scale=1 / 256)
    return fig1_rows(result)


class TestBaseline:
    def test_baseline_exists_and_parses(self):
        rows = json.loads(BASELINE.read_text())
        assert len(rows) == 9
        assert {"task", "arch", "elapsed_s"} <= set(rows[0])

    def test_no_unintended_drift(self, fresh_rows):
        baseline = json.loads(BASELINE.read_text())
        regressions = compare_rows(baseline, fresh_rows,
                                   metric="elapsed_s", tolerance=0.02)
        assert not regressions, (
            "simulator output drifted from baselines/fig1_small.json "
            "— if intentional, regenerate the baseline:\n"
            + render_regressions(regressions))

    def test_cell_count_stable(self, fresh_rows):
        baseline = json.loads(BASELINE.read_text())
        assert len(fresh_rows) == len(baseline)

    def test_determinism_of_fresh_run(self, fresh_rows):
        again = fig1_rows(run_fig1(sizes=(8,),
                                   tasks=("select", "sort", "groupby"),
                                   scale=1 / 256))
        for a, b in zip(fresh_rows, again):
            assert a["elapsed_s"] == b["elapsed_s"]


@pytest.mark.parametrize("loop", ["checked", "audited"])
def test_checked_and_audited_loops_match_baseline_exactly(loop):
    """Every baseline cell, re-run through the checked or audited loop.

    The checked loop (``debug=True``) and the audited one fire events
    in the fast loop's exact order, so each cell's elapsed time equals
    the committed value bit for bit, not within a tolerance.
    """
    for row in json.loads(BASELINE.read_text()):
        config = config_for(row["arch"], row["disks"])
        if loop == "checked":
            result = run_task(config, row["task"], row["scale"], debug=True)
        else:
            result = run_task(config, row["task"], row["scale"],
                              invariants=InvariantAuditor())
        assert result.elapsed == row["elapsed_s"], (
            f"{row['task']}:{row['arch']}:{row['disks']}")
