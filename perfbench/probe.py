"""Machine-speed probe that calibrates the benchmark's times.

Every time the benchmark reports is CPU time, which a descheduled pass
does not accrue.  CPU time still depends on how fast the core runs: on a
shared host the same code flips between two speeds, about 1.8 times apart,
every second or few (most likely another tenant's load on the same
physical core).  Over 150 s of interleaved samples on such a host, the CPU
time of sg-bdd on ``muller_pipeline(8)`` varied by 21% (coefficient of
variation) and that of unfolding-approx by 19%, and a probe like
:func:`speed_probe` moved with them (correlation 0.74 and 0.56, sample by
sample).

So a pass runs probes between the timed steps of its jobs (see
``one_pass.run_job``): before the first step, and after every step, one
per ``PROBE_EVERY_S`` of the step just ended.  The runner multiplies each
step's times by :func:`factor` of the probes on either side of it.  In
the samples above, summed over windows of about 15 s, the calibrated times
varied by 4% and 2%, against 12% and 9% raw.  The probe never changes and
runs outside the timed steps with the garbage collector off, so neither a
change to the program's work nor the size of its heap is scaled away.
"""

import gc
import time

#: Probe time the calibrated figures are expressed at: the probe's CPU time
#: on the host above at its faster speed.
REFERENCE_S = 0.006
#: Step time per probe after a step, and the fewest and most probes in a gap.
PROBE_EVERY_S = 0.1
MIN_PROBES = 2
MAX_PROBES = 40


class _Node:
    __slots__ = ("low", "high", "var")

    def __init__(self, low, high, var):
        self.low = low
        self.high = high
        self.var = var


def speed_probe():
    """CPU seconds a fixed mix of interpreter work takes now: a unique
    table of small objects keyed by tuples, a keyed sort and string work."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.process_time()
        unique = {}
        nodes = []
        for i in range(10000):
            key = (i % 997, (i * 7) % 1009, i & 31)
            node = unique.get(key)
            if node is None:
                node = unique[key] = _Node(*key)
            nodes.append(node)
        nodes.sort(key=lambda node: (node.high, node.low))
        ",".join(str(node.var) for node in nodes[:2000]).split(",")
        return time.process_time() - start
    finally:
        if enabled:
            gc.enable()


def probes(count):
    """``count`` probe times, taken back to back."""
    return [speed_probe() for _ in range(count)]


def probes_after(elapsed_s):
    """Probe times taken after a step that ran ``elapsed_s`` CPU seconds."""
    return probes(max(MIN_PROBES, min(MAX_PROBES, int(elapsed_s / PROBE_EVERY_S))))


def factor(probe_s):
    """Factor that brings times measured next to ``probe_s`` to the
    reference speed."""
    return REFERENCE_S * len(probe_s) / sum(probe_s)
