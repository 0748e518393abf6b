"""Workload cells of the host-time benchmark and the passes that run them.

A *cell* is one simulation (task, architecture, disk count, scale) whose
simulated elapsed time is committed in the repository:

* ``results/fig1_arch_comparison.csv`` holds the Fig 1 grid at 1/32 scale;
* ``baselines/fig1_small.json`` holds the small sweep grid at 1/256 scale.

A pass re-runs its cells and compares ``repr(elapsed)`` with the committed
text. A cell fails when it raises, when the harness quarantines it, or when
the text differs. The scale always comes from the committed file; nothing
in the environment can change it.

The seed only permutes the order of the cells. The simulator never sees it.
"""

from __future__ import annotations

import csv
import json
import os
import random
import resource
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro import Simulator, build_machine, build_program, config_for
from repro.experiments import SweepRunner, run_fig1

FIG1_CSV = os.path.join("results", "fig1_arch_comparison.csv")
SWEEP_JSON = os.path.join("baselines", "fig1_small.json")

#: Disk counts of the committed Fig 1 grid that the fig1 workloads run.
FIG1_SIZES = (16, 128)

WORKLOADS = ("fig1-smp", "fig1-active-cluster", "sweep-resume")

#: Per-cell deadline of the sweep's worker pool. Setting one makes the
#: pool fork a worker per cell even with one job. One job at a time keeps
#: the sweep's wall time independent of the seeded cell order, which with
#: two jobs moves the makespan by 15 %.
CELL_TIMEOUT_S = 120.0


@dataclass(frozen=True)
class Cell:
    """One committed simulation and the exact text of its elapsed time."""

    task: str
    arch: str
    disks: int
    scale: float
    expected: str

    @property
    def key(self) -> str:
        return f"{self.task}:{self.arch}:{self.disks}"


@dataclass
class PassResult:
    """What one pass over a workload's cells measured and checked."""

    wall_s: float = 0.0
    cpu_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    #: Host seconds per checked cell, by ``Cell.key`` (``run_cells`` only).
    cell_wall_s: Dict[str, float] = field(default_factory=dict)
    #: Kernel events processed (``Simulator.event_count`` summed).
    events: int = 0
    #: Host seconds inside ``build_machine`` / ``build_program``.
    build_machine_s: float = 0.0
    build_program_s: float = 0.0
    #: Sweep passes only: host seconds of the resume, journal size.
    resume_s: float = 0.0
    journal_records: int = 0
    journal_bytes: int = 0

    def check(self, cell: Cell, elapsed: float) -> None:
        self.attempted += 1
        if repr(elapsed) != cell.expected:
            self.fail(cell, f"elapsed {elapsed!r} != committed "
                            f"{cell.expected}")

    def absorb(self, other: "PassResult") -> None:
        """Add another result's checks and host times to this one."""
        self.wall_s += other.wall_s
        self.cpu_s += other.cpu_s
        self.attempted += other.attempted
        self.failed += other.failed
        self.errors.extend(other.errors)

    def fail(self, cell: Cell, reason: str) -> None:
        self.failed += 1
        self.errors.append(f"{cell.key}: {reason}")


def fig1_reference(path: str) -> List[Cell]:
    """Every cell of the committed Fig 1 CSV, in file order."""
    with open(path, newline="") as handle:
        return [Cell(task=row["task"], arch=row["arch"],
                     disks=int(row["disks"]), scale=float(row["scale"]),
                     expected=row["elapsed_s"])
                for row in csv.DictReader(handle)]


def sweep_reference(path: str) -> List[Cell]:
    """Every cell of a committed sweep JSON, with its number text as written."""
    with open(path) as handle:
        rows = json.load(handle, parse_float=str)
    return [Cell(task=row["task"], arch=row["arch"], disks=int(row["disks"]),
                 scale=float(row["scale"]), expected=row["elapsed_s"])
            for row in rows]


def workload_cells(workload: str, root: str) -> List[Cell]:
    """The workload's cells in canonical (committed-file) order."""
    if workload == "fig1-smp":
        archs = ("smp",)
    elif workload == "fig1-active-cluster":
        archs = ("active", "cluster")
    elif workload == "sweep-resume":
        return sweep_reference(os.path.join(root, SWEEP_JSON))
    else:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"pick one of {WORKLOADS}")
    return [cell for cell in fig1_reference(os.path.join(root, FIG1_CSV))
            if cell.arch in archs and cell.disks in FIG1_SIZES]


def seeded_order(cells: List[Cell], seed: int) -> List[Cell]:
    """The same cells, shuffled by ``seed``."""
    ordered = list(cells)
    random.Random(seed).shuffle(ordered)
    return ordered


def _cpu_seconds() -> float:
    """User + system seconds of this process and its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def run_cells(cells: List[Cell], *, trace=None, queue=None,
              inspect: Optional[Callable] = None) -> PassResult:
    """Simulate every cell in this process and check it.

    ``trace`` and ``queue`` are handed to ``Simulator``; ``queue=None``
    is the process default. ``inspect(machine)`` runs after each checked
    cell, outside the timed region.
    """
    out = PassResult()
    cpu = _cpu_seconds()
    for cell in cells:
        began = time.perf_counter()
        try:
            sim = Simulator(trace=trace, queue=queue)
            config = config_for(cell.arch, cell.disks)
            built = time.perf_counter()
            machine = build_machine(sim, config)
            machined = time.perf_counter()
            program = build_program(cell.task, config, cell.scale)
            programmed = time.perf_counter()
            result = machine.run(program)
        except Exception as exc:  # a raising cell is a failed cell
            out.wall_s += time.perf_counter() - began
            out.attempted += 1
            out.fail(cell, f"raised {type(exc).__name__}: {exc}")
            continue
        out.check(cell, result.elapsed)
        out.cell_wall_s[cell.key] = time.perf_counter() - began
        out.wall_s += out.cell_wall_s[cell.key]
        out.build_machine_s += machined - built
        out.build_program_s += programmed - machined
        out.events += sim.event_count
        if inspect is not None:
            inspect(machine)
    out.cpu_s = _cpu_seconds() - cpu
    return out


def _grid(cells: List[Cell]):
    """run_fig1 arguments covering ``cells``; task order follows the cells."""
    scales = {cell.scale for cell in cells}
    if len(scales) != 1:
        raise ValueError(f"sweep cells mix scales {sorted(scales)}")
    tasks = tuple(dict.fromkeys(cell.task for cell in cells))
    sizes = tuple(sorted({cell.disks for cell in cells}))
    grid = {(task, arch, size) for task in tasks for size in sizes
            for arch in ("active", "cluster", "smp")}
    if grid != {(cell.task, cell.arch, cell.disks) for cell in cells}:
        raise ValueError("sweep cells are not a full run_fig1 grid")
    return dict(sizes=sizes, tasks=tasks, scale=scales.pop())


def _sweep_once(cells: List[Cell], journal: str,
                out: PassResult) -> SweepRunner:
    """One run_fig1 through a SweepRunner on ``journal``, checked."""
    runner = SweepRunner(journal, jobs=1, timeout=CELL_TIMEOUT_S,
                         strict=False)
    try:
        figure = run_fig1(runner=runner, **_grid(cells))
    except Exception as exc:  # quarantined cells leave holes in the grid
        quarantined = {outcome.key for outcome in runner.quarantined}
        for cell in cells:
            out.attempted += 1
            reason = ("quarantined" if f"{cell.key}:base" in quarantined
                      else f"sweep raised {type(exc).__name__}: {exc}")
            out.fail(cell, reason)
        return runner
    for cell in cells:
        out.check(cell, figure.sweep.elapsed(cell.task, cell.arch,
                                             cell.disks))
    return runner


def run_sweep(cells: List[Cell], workdir: str) -> PassResult:
    """Sweep ``cells`` into a fresh journal, then resume them from it.

    The sweep runs through :class:`SweepRunner`, each cell in its own
    forked worker. The resume reloads every cell from the journal; a cell it
    has to re-run instead counts as failed. Both results are checked.
    The journal is deleted before returning.
    """
    out = PassResult()
    journal = os.path.join(workdir, "sweep.journal.jsonl")
    cpu = _cpu_seconds()
    began = time.perf_counter()
    try:
        _sweep_once(cells, journal, out)
        resumed_at = time.perf_counter()
        resume = _sweep_once(cells, journal, out)
        out.resume_s = time.perf_counter() - resumed_at
        out.wall_s = time.perf_counter() - began
        out.cpu_s = _cpu_seconds() - cpu
        reloaded = resume.counters["resumed_cells"]
        if reloaded != len(cells):
            out.failed += len(cells) - reloaded
            out.errors.append(f"resume reloaded {reloaded} of "
                              f"{len(cells)} cells from the journal")
        if os.path.exists(journal):
            with open(journal, "rb") as handle:
                data = handle.read()
            out.journal_records = data.count(b"\n")
            out.journal_bytes = len(data)
    finally:
        if os.path.exists(journal):
            os.remove(journal)
    return out
