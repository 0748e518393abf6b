"""Per-layer instruments, all applied from outside the program.

* :class:`EventCounter` is the ``Simulator(trace=...)`` hook: it counts
  kernel events by class.
* :class:`ComponentTotals` reads public counters of the simulated
  components after ``Machine.run``: drives, interconnect buses, the
  network and the host CPUs. These are simulated statistics, so they
  repeat exactly between runs of the same code.
* :func:`package_self_times` folds a cProfile run into self seconds per
  ``repro`` package.
"""

from __future__ import annotations

import math
import os
import pstats
from collections import defaultdict
from typing import Dict

from repro.disk import DiskDrive
from repro.host import Cpu
from repro.interconnect import SerialBus
from repro.net import Network

#: Layers that cProfile self time is reported for; the rest is "other".
PACKAGES = ("sim", "disk", "interconnect", "net", "host", "diskos", "arch",
            "workloads", "tracegen", "experiments", "durability")

#: Kernel event classes counted by name; the rest is "other".
EVENT_CLASSES = ("process", "allof", "timeout", "event")

#: Packages whose objects the component walk descends into. Network
#: objects are leaves: their fat-tree links are net traffic, not
#: interconnect traffic.
_WALKED = ("repro.arch", "repro.disk", "repro.interconnect", "repro.host",
           "repro.diskos")


class EventCounter:
    """Trace hook counting processed kernel events by class."""

    def __init__(self):
        self.by_class: Dict[type, int] = defaultdict(int)

    def __call__(self, when, event) -> None:
        self.by_class[event.__class__] += 1

    def total(self) -> int:
        return sum(self.by_class.values())

    def metrics(self) -> Dict[str, int]:
        named = {name: 0 for name in EVENT_CLASSES}
        other = 0
        for cls, count in self.by_class.items():
            name = cls.__name__.lower()
            if name in named:
                named[name] += count
            else:
                other += count
        out = {"sim.events": sum(named.values()) + other}
        out.update({f"sim.events.{name}": count
                    for name, count in named.items()})
        out["sim.events.other"] = other
        return out


class ComponentTotals:
    """Simulated component statistics summed over the machines seen."""

    def __init__(self):
        self.disk_bytes_read = 0
        self.disk_cache_hits = 0
        self.disk_cache_lookups = 0
        # Simulated seconds per component, summed with fsum at the end:
        # a float sum in seeded cell order would differ in the last bits
        # between seeds.
        self.disk_busy = []
        self.bus_bytes = 0.0
        self.bus_util_max = 0.0
        self.net_messages = 0.0
        self.net_bytes = 0.0
        self.cpu_busy = []

    def __call__(self, machine) -> None:
        for obj in _components(machine):
            if isinstance(obj, DiskDrive):
                cache = obj.cache
                self.disk_bytes_read += obj.bytes_read
                self.disk_cache_hits += cache.hits + cache.streaming_hits
                self.disk_cache_lookups += cache.total_lookups
                self.disk_busy.append(obj.busy.total())
            elif isinstance(obj, SerialBus):
                self.bus_bytes += obj.bytes_moved.value
                self.bus_util_max = max(self.bus_util_max, obj.utilization())
            elif isinstance(obj, Network):
                self.net_messages += obj.messages.value
                self.net_bytes += obj.bytes.value
            elif isinstance(obj, Cpu):
                self.cpu_busy.append(obj.busy.total())

    def metrics(self) -> Dict[str, float]:
        lookups = self.disk_cache_lookups
        return {
            "disk.bytes_read": self.disk_bytes_read,
            "disk.cache_hits": self.disk_cache_hits,
            "disk.cache_hit_ratio": (self.disk_cache_hits / lookups
                                     if lookups else 0.0),
            "disk.busy_sim_s": math.fsum(self.disk_busy),
            "interconnect.bytes_moved": self.bus_bytes,
            "interconnect.util_max": self.bus_util_max,
            "net.messages": self.net_messages,
            "net.bytes": self.net_bytes,
            "host.cpu_busy_sim_s": math.fsum(self.cpu_busy),
        }


def _components(machine):
    """Every drive, bus, network and CPU reachable from ``machine``."""
    seen = set()
    stack = [machine]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, (list, tuple, set, frozenset)):
            stack.extend(obj)
            continue
        if isinstance(obj, dict):
            stack.extend(obj.values())
            continue
        if isinstance(obj, (DiskDrive, SerialBus, Network, Cpu)):
            yield obj
            continue
        if type(obj).__module__.startswith(_WALKED) and hasattr(obj,
                                                                "__dict__"):
            stack.extend(vars(obj).values())


def package_self_times(profile) -> Dict[str, float]:
    """cProfile self seconds per ``repro`` package, builtins and other."""
    marker = os.sep + "repro" + os.sep
    totals = {name: 0.0 for name in PACKAGES}
    totals.update(builtins=0.0, other=0.0)
    for (filename, _line, _name), row in pstats.Stats(profile).stats.items():
        self_seconds = row[2]
        if filename == "~":
            totals["builtins"] += self_seconds
            continue
        head, sep, tail = filename.rpartition(marker)
        package = tail.split(os.sep)[0] if sep else ""
        totals[package if package in totals else "other"] += self_seconds
    return {f"{name}.self_s": seconds for name, seconds in totals.items()}
