"""The host's speed while a workload runs, from a fixed reference probe.

The benchmark shares its cores with other tenants, and the speed of the
same code on the same inputs drifts over minutes by a fifth or more: a
whole run can land in a slow phase.  So the worker times a fixed piece
of pure-Python work (the *probe*) at regular intervals, from a SIGALRM
handler, while the workload runs.  Signal handlers run between bytecodes
of the main thread, so the probe samples the host inside library calls
without depending on how the library is structured.

Run times are reported at the reference speed: a time measured while
the median probe took ``p`` seconds is scaled by ``NOMINAL_PROBE_S / p``.
The probe and the workload slow down together, so the scaled time keeps
every change of the program and loses most of the host's drift.  The
time spent inside the handler is kept apart, so that ``busy_clock``
excludes it.
"""

from __future__ import annotations

import signal
import statistics
import time

# a probe takes about this long on a 2-vCPU x86_64 host with Python 3.11
# in its usual phase; reported times are those of a host on which it
# takes this
NOMINAL_PROBE_S = 0.0007
PROBE_EVERY_S = 0.1
_PROBE_BASE = 3**200


def probe() -> float:
    """Seconds taken by the reference work: integer arithmetic on a
    bignum and small dict updates, the mix the library's counters do."""
    start = time.perf_counter()
    table: dict[int, int] = {}
    total = 0
    for i in range(2000):
        total += (_PROBE_BASE * i) % 1000003
        table[i & 255] = table.get(i & 255, 0) + total
    return time.perf_counter() - start


def scale(probes: list[float]) -> float:
    """Factor taking a time measured during ``probes`` to the reference speed."""
    return NOMINAL_PROBE_S / statistics.median(probes)


class Sampler:
    """Probes the host every ``PROBE_EVERY_S`` of wall time while active."""

    def __init__(self) -> None:
        self.probes: list[float] = []
        self.spent = 0.0  # seconds inside the handler
        self._inside = False

    def _handler(self, signum, frame) -> None:
        if self._inside:  # a probe stalled past the interval
            return
        self._inside = True
        entered = time.perf_counter()
        self.probes.append(probe())
        self.spent += time.perf_counter() - entered
        self._inside = False

    def busy_clock(self) -> float:
        """``perf_counter`` less the time spent probing."""
        return time.perf_counter() - self.spent

    def __enter__(self) -> "Sampler":
        probe()  # warm-up, not recorded
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
