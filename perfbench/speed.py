"""Machine speed, so that times taken minutes apart can be compared.

The 2-vCPU VM this benchmark was tuned on changes speed by a third or more
within minutes, and CPU time follows wall time there, so neither run length
nor CPU time removes the drift. A run therefore times three small reference
jobs between its operations, at most one set every GAP_S seconds: a loop
of interpreted Python, a numpy float kernel and the start of a bare
interpreter. They call nothing of btangent, so a change to the program
cannot move them. The scale of a round is the geometric mean, over the three
jobs, of the job's reference time over its median time in that round. Every
time the benchmark reports is multiplied by the scale of the round it was
taken in: the seconds it would have taken on a machine where the jobs take
their reference times. Those were measured on that VM (Xeon, 2 vCPUs,
Python 3.11, numpy 2.4) in a quiet stretch, so scaled times stay close to
its wall times there.

In a trial with larger versions of these jobs, the three together halved
the round-to-round spread of round times on every in-process workload; the
pure-Python loop alone did not follow the numpy-bound `sphere` as well.
"""
from __future__ import annotations

import gc
import math
import statistics
import subprocess
import sys
import time
from typing import Dict, List

GAP_S = 0.5


def python_job() -> None:
    s = 0
    for i in range(30_000):
        s += i * i % 7


_floats = []


def float_job() -> None:
    import numpy as np
    if not _floats:
        _floats.append(np.sin(np.arange(100_000.0)).reshape(4, 25_000))
    x = _floats[0]
    for _ in range(4):
        q = x / np.sqrt((x * x).sum(axis=0))
        (q * q[0]).sum()


def spawn_job() -> None:
    subprocess.run([sys.executable, "-S", "-c", "pass"], check=True)


# job -> its time on the reference machine, in seconds
JOBS = {python_job: 0.0028, float_job: 0.0030, spawn_job: 0.0150}


class Probe:
    """Reference job times taken through one round (or one set-up)."""

    def __init__(self, gap_s: float = GAP_S):
        self.gap_s = gap_s
        self.times: Dict = {job: [] for job in JOBS}
        self.last = -math.inf

    def sample(self) -> None:
        """Time every job once, unless that was done less than gap_s ago."""
        if time.perf_counter() - self.last < self.gap_s:
            return
        gc.disable()  # the program's garbage must not be collected on the jobs' clock
        try:
            for job, times in self.times.items():
                t = time.perf_counter()
                job()
                times.append(time.perf_counter() - t)
        finally:
            gc.enable()
        self.last = time.perf_counter()

    def scale(self) -> float:
        if self.last == -math.inf:  # no job timed yet
            self.sample()
        logs: List[float] = [math.log(JOBS[job] / statistics.median(times))
                             for job, times in self.times.items()]
        return math.exp(sum(logs) / len(logs))
