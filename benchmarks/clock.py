"""Timings scaled to a reference host speed by a probe run next to them.

The benchmark runs on a shared host whose CPU throughput switches between
an uncontended state and states up to about 2x slower, for stretches from a few
milliseconds to many minutes; CPU time rises with wall time, so the
slowdown is not descheduling.  No statistic over one run removes a
stretch that covers the whole run.  So every timed span is bracketed by a
short probe: a fixed kernel of small dense solves, dictionary stores and
pure-Python arithmetic, the mix the library's own inner loops are made of.
The solves take about two thirds of the probe's time: paired with the
operations of all three workloads, that share slows down with them most
closely in the contended state (pure-Python code slows less there).
A span's host-speed factor is the mean of its two probes' times over
``PROBE_REF_S``, and its scaled time is its wall time divided by that
factor.  The probe touches no couplesolve code, so a change to the library
moves scaled times as it moves wall times on the reference host.  The
scaling is approximate: code does not slow by the same factor as the probe
in every contended state, and runs made in the two states read within
about 7% of each other scaled, where their wall times differ by up to 2x.

Probe time is never part of a span: a span runs from the end of one probe
to the start of the next.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# Median probe time on an uncontended 2.0 GHz Sapphire Rapids KVM vCPU
# (Python 3.11, numpy 2.4, OpenBLAS pinned to one thread).
PROBE_REF_S = 0.42e-3

_RNG = np.random.default_rng(0)
_MATS = _RNG.standard_normal((40, 5, 5)) + 5.0 * np.eye(5)
_RHS = _RNG.standard_normal((40, 5))


def probe() -> None:
    """The fixed kernel: 40 small dense solves with dict stores, then a Python loop."""
    table = {}
    for k in range(40):
        x = np.linalg.solve(_MATS[k], _RHS[k])
        table[(k, k % 7)] = float(x @ x)
    total = 0
    for k in range(2000):
        total += k * k % 7


def at_reference(wall_s: float, probe_times) -> float:
    """``wall_s`` scaled to the reference host speed, given the probes taken around it.

    The host's mean speed over a span sets its wall time, so the probes are
    averaged; the trim drops a probe that was itself interrupted.
    """
    times = np.sort(probe_times)
    cut = len(times) // 10
    return wall_s * PROBE_REF_S / float(times[cut:len(times) - cut].mean())


def probe_ms(samples: int = 50) -> float:
    """Median time of ``samples`` probes, in ms: the host's current speed."""
    times = []
    for _ in range(samples):
        start = perf_counter()
        probe()
        times.append(perf_counter() - start)
    return float(np.median(times)) * 1e3


class Clock:
    """Marks that split a job into spans; with ``probing``, each mark runs a probe.

    ``mark`` ignores its arguments, so it can stand in as a callback.
    """

    def __init__(self, probing: bool = True):
        self.probing = probing
        self.marks = []  # (probe start, probe end) per mark

    def mark(self, *_args, **_kwargs) -> None:
        start = perf_counter()
        if self.probing:
            probe()
        self.marks.append((start, perf_counter()))

    def wall(self) -> list:
        """Wall seconds of each span between consecutive marks, probes excluded."""
        return [b[0] - a[1] for a, b in zip(self.marks, self.marks[1:])]

    def scaled(self) -> list:
        """Each span's wall seconds divided by its host-speed factor."""
        if not self.probing:
            raise ValueError("scaled times need a probing clock")
        probes = self.probe_times()
        return [at_reference(work, pair)
                for work, pair in zip(self.wall(), zip(probes, probes[1:]))]

    def probe_times(self) -> list:
        return [end - start for start, end in self.marks]
