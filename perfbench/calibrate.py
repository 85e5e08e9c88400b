"""Machine-speed probe, to take host speed drift out of the timings.

On a small shared virtual machine the speed of a vCPU drifts by tens of
percent within seconds while other tenants load the host, and the guest
sees no steal time, and code that misses the caches slows more than code
that does not.  The probe is a fixed kernel owned by the benchmark, so
changes to goursatkit never change it.  Each step does about equal parts
of small numpy gathers and ``np.add.at`` scatter-adds (the jet code's
mix), interpreted float arithmetic, calls and dict work (the identities
code's mix), and random reads over an 8 MB array (the cache misses of a
program that builds megabytes of report).

``Interleaver`` runs a sample in a child process and, every
``INTERVAL_S``, stops the child's session, runs a probe burst on the same
CPU, and continues it.  The sample's time, less the stopped time, is
scaled by ``REFERENCE_S`` over the mean burst time: the time it would take
on a machine where the probe takes ``REFERENCE_S``.  A burst reports its
median probe, so the first, cache-cold probe after the sample ran does not
count, and the scaling does not depend on what the sample did to caches.
"""

from __future__ import annotations

import os
import signal
import statistics
import time

import numpy as np

REFERENCE_S = 0.0025  # about the idle burst on the 2-vCPU Xeon sandbox; sets the scale only
INTERVAL_S = 0.15
BURST = 5
SIZE, TERMS, STEPS, KEYS = 330, 4000, 20, 60
BIG, READS = 1 << 20, 4000


def _mix(v: float, w: float) -> float:
    return v * 1.0001 - w * 1e-3 + (v if v > w else w) * 1e-6


class Probe:
    def __init__(self, seed: int = 0):
        rng = np.random.default_rng(seed)
        self.gi = rng.integers(0, SIZE, TERMS)
        self.gj = rng.integers(0, SIZE, TERMS)
        self.out = np.sort(rng.integers(0, SIZE, TERMS))
        self.x0 = rng.uniform(-1.0, 1.0, SIZE)
        self.y = rng.uniform(-1.0, 1.0, SIZE)
        self.big = rng.uniform(-1.0, 1.0, BIG)
        self.reads = rng.integers(0, BIG, (STEPS, READS))
        self.calls = 0

    def once(self) -> float:
        t0 = time.perf_counter()
        x = self.x0
        s = 0.0
        self.calls += 1
        shift = self.calls * 7919  # other cache lines than the previous call's
        for step in range(STEPS):
            s += float(self.big[(self.reads[step] + shift) % BIG].sum())
            acc = np.zeros(SIZE)
            np.add.at(acc, self.out, x[self.gi] * self.y[self.gj])
            x = acc / (1.0 + abs(acc[0])) + 0.5
            table = {(k, step): k * 0.5 for k in range(KEYS)}
            s = min(s + sum(_mix(table[(k, step)], s) for k in range(KEYS)), 1e6)
        return time.perf_counter() - t0

    def burst(self) -> float:
        return statistics.median(self.once() for _ in range(BURST))


class Interleaver:
    """Probe bursts between slices of a running child, and the stopped time."""

    def __init__(self):
        self.probe = Probe()
        self.probe.burst()  # warm
        self.bursts: list[tuple[float, float]] = []  # (time, burst median)
        self.stops: list[tuple[float, float]] = []

    def burst(self):
        self.bursts.append((time.perf_counter(), self.probe.burst()))

    def pause(self, pgid: int):
        """Stop the process group ``pgid``, run a burst, continue it."""
        t0 = time.perf_counter()
        try:
            os.killpg(pgid, signal.SIGSTOP)
        except ProcessLookupError:  # the session ended meanwhile
            return
        try:
            self.burst()
        finally:
            os.killpg(pgid, signal.SIGCONT)
            self.stops.append((t0, time.perf_counter()))

    def scaled(self, seconds: float, t0: float, t1: float) -> float:
        """``seconds`` measured over [t0, t1], less the stopped time inside,
        scaled by the bursts from just before t0 to just after t1."""
        stopped = sum(max(0.0, min(b, t1) - max(a, t0)) for a, b in self.stops)
        probes = [d for t, d in self.bursts if t0 - INTERVAL_S <= t <= t1 + INTERVAL_S]
        return (seconds - stopped) * REFERENCE_S / statistics.fmean(probes)
