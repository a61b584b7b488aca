"""Measurement helpers: percentiles, the memory sampler, the environment."""

from __future__ import annotations

import math
import os
import platform
import threading
import time
from typing import Dict, Sequence, Set

_PAGE = os.sysconf("SC_PAGE_SIZE")


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ranked = sorted(values)
    return ranked[max(1, math.ceil(len(ranked) * fraction)) - 1]


def _rss_bytes(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/statm", "rb") as handle:
            return int(handle.read().split()[1]) * _PAGE
    except (OSError, IndexError, ValueError):
        return 0  # the process ended between listing and reading


def _children(root: int) -> Set[int]:
    """Every live descendant of ``root`` (pool workers and their helpers)."""
    parent_of: Dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as handle:
                stat = handle.read()
        except OSError:
            continue
        # The command name may hold spaces; fields resume after its ')'.
        fields = stat[stat.rindex(b")") + 2:].split()
        parent_of[int(entry)] = int(fields[1])
    found: Set[int] = set()
    frontier = [root]
    while frontier:
        pid = frontier.pop()
        for child, parent in parent_of.items():
            if parent == pid and child not in found:
                found.add(child)
                frontier.append(child)
    return found


class PeakRSS:
    """Samples the resident memory of this process plus its descendants.

    A background thread sums the RSS of the process tree every
    ``interval`` seconds and keeps the high-water mark; the list of
    descendants is refreshed once a second, since scanning ``/proc`` costs
    more than reading a few ``statm`` files.
    """

    def __init__(self, interval: float = 0.05):
        self.interval = interval
        self.peak_bytes = 0
        self.samples = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="perfbench-rss", daemon=True)

    def _run(self) -> None:
        me = os.getpid()
        pids: Set[int] = set()
        refreshed = 0.0
        while True:
            now = time.monotonic()
            if now - refreshed >= 1.0:
                pids = _children(me)
                refreshed = now
            total = _rss_bytes(me) + sum(_rss_bytes(pid) for pid in pids)
            self.peak_bytes = max(self.peak_bytes, total)
            self.samples += 1
            if self._stop.wait(self.interval):
                return

    def __enter__(self) -> "PeakRSS":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    @property
    def peak_mb(self) -> float:
        return self.peak_bytes / (1024.0 * 1024.0)


def environment() -> Dict:
    """The machine a number belongs to: CPUs as ``nproc`` counts them, the
    Python version, and the SSG kernel the program selected."""
    from repro.core.arraykernel import select_kernel

    return {
        "cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "ssg_kernel": select_kernel(),
    }

