"""Host-speed calibration: a fixed probe timed between operations, on every CPU.

The benchmark runs on shared virtual machines. On the 2-vCPU machine it was
built on, each virtual CPU on its own switches every few seconds between two
speeds about 1.7x apart, and the share of time spent at each drifts over
minutes with the load of other tenants. A run's medians average the switching
out, but not the drift, so wall times of the same code measured minutes apart
differ by more than any bound a regression check can use.

``Calibration`` times a fixed probe that uses no rootkgd code: a best-first
walk over a fixed graph with ``heapq`` and dicts, as propagation does, and
``json.loads`` of a fixed 0.8 MB document, as model loading does. It is run in
set-up and between operations, never inside a timed region, pinned to each
CPU the benchmark may use in turn, because the operations run on all of them
(the scoring pool) while the benchmark process sits on one. A run's ``scale``
is ``REFERENCE_PROBE_S`` over the trimmed mean probe time (the mean follows
the share of time at each speed, where a median would jump between them), so
a time multiplied by it reads in seconds of a host on which the probe takes
``REFERENCE_PROBE_S``. Because the probe does not call the program, a faster
program still reads faster by the same share.
"""

from __future__ import annotations

import gc
import heapq
import json
import os
import random
import statistics
import time

#: Probe time, in seconds, of the reference host the scaled times refer to:
#: about the probe's mean within runs of this benchmark on a 2-vCPU Xeon
#: virtual machine, so scaled times read close to wall times there.
REFERENCE_PROBE_S = 0.040
#: One probe per CPU per ``INTERVAL_S`` since the last calibration point, so
#: that the probes sample the run evenly however long its operations take;
#: points are at least ``INTERVAL_S`` apart and cover at most ``MAX_INTERVALS``.
INTERVAL_S = 1.0
MAX_INTERVALS = 10
#: Share of the probe times dropped at each end before taking the mean.
TRIM = 0.05

_NODES = 8_000
_rng = random.Random(20240613)
_GRAPH = [[_rng.randrange(_NODES) for _ in range(3)] for _ in range(_NODES)]
_WEIGHTS = [_rng.random() for _ in range(_NODES)]
_DOC = json.dumps({
    "columns": [f"var{i}" for i in range(2_000)],
    "rows": [[_rng.gauss(0.0, 1.0) for _ in range(50)] for _ in range(800)],
})


def probe() -> float:
    """Wall time of one fixed probe, with the garbage collector paused."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        quantity = {0: 1.0}
        heap = [(-1.0, 0)]
        done = set()
        while heap:
            q, node = heapq.heappop(heap)
            if node in done:
                continue
            done.add(node)
            for nxt in _GRAPH[node]:
                if nxt not in done:
                    share = -q * _WEIGHTS[nxt] * 0.999
                    if share > quantity.get(nxt, 0.0):
                        quantity[nxt] = share
                        heapq.heappush(heap, (-share, nxt))
        json.loads(_DOC)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def probe_each_cpu(rounds: int) -> list[float]:
    """``rounds`` probes pinned to each allowed CPU in turn; the affinity is restored."""
    if not hasattr(os, "sched_setaffinity"):
        return [probe() for _ in range(rounds)]
    cpus = sorted(os.sched_getaffinity(0))
    times = []
    try:
        for _ in range(rounds):
            for cpu in cpus:
                os.sched_setaffinity(0, {cpu})
                times.append(probe())
    finally:
        os.sched_setaffinity(0, cpus)
    return times


class Calibration:
    """Probe times of one run; ``point`` adds some unless one was taken lately."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.last = 0.0

    def point(self, force: bool = False) -> None:
        since = time.perf_counter() - self.last
        if not force and since < INTERVAL_S:
            return
        intervals = min(round(since / INTERVAL_S), MAX_INTERVALS) if self.times else 1
        self.times.extend(probe_each_cpu(max(1, intervals)))
        self.last = time.perf_counter()

    @property
    def scale(self) -> float:
        """Factor that turns this run's seconds into reference-host seconds."""
        times = sorted(self.times)
        cut = int(len(times) * TRIM)
        return REFERENCE_PROBE_S / statistics.fmean(times[cut : len(times) - cut])
