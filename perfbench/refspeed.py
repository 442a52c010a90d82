"""Machine-speed reference for the end-to-end timings.

The benchmark runs on a few cores of a shared host whose speed drifts
with neighbour load: the same code can take twice as long a minute
later, and CPU time drifts with wall time (the slowdown is contention,
not stolen time).  Every run therefore times a fixed pure-Python
kernel on the CPU its work runs on, interleaved with that work, and
scales its times to the speed of a machine on which one kernel pass
takes ``NOMINAL_S``:

    scaled time = measured time * NOMINAL_S / mean kernel time

The kernel is code of the benchmark, not of the program, so a change
to the program moves the scaled figures and never the reference.
"""

from __future__ import annotations

import json
import signal
import time

#: Kernel time on an idle 2-core VM of the class the bounds were set
#: on; only a scale, so the figures stay near real seconds there.
NOMINAL_S = 0.002
#: Seconds between two kernel passes while a probe runs.
PROBE_INTERVAL_S = 0.05


def kernel() -> int:
    """Interpreter work of the kinds the program does: dict updates,
    string formatting and splitting, sorting, small JSON documents."""
    counts: dict[str, int] = {}
    rows = []
    for i in range(1200):
        key = f"m{i % 61}-{i % 7}"
        counts[key] = counts.get(key, 0) + i
        rows.append((key, i * 0.5))
    rows.sort(key=lambda row: (row[1] % 13, row[0]))
    text = json.dumps({"rows": rows[:180], "counts": counts})
    return len(text.split(",")) + len(json.loads(text)["counts"])


class Speed:
    """Kernel timings of one run (or one op process)."""

    def __init__(self, samples: list[float] | None = None) -> None:
        self.samples: list[float] = list(samples or ())

    def sample(self, passes: int = 1) -> None:
        for _ in range(passes):
            started = time.perf_counter()
            kernel()
            self.samples.append(time.perf_counter() - started)

    @property
    def busy_s(self) -> float:
        """Seconds spent in kernel passes so far."""
        return sum(self.samples)

    def factor(self) -> float:
        """How many times slower than nominal the machine ran: the mean
        kernel time over ``NOMINAL_S``."""
        return sum(self.samples) / len(self.samples) / NOMINAL_S

    def start_probe(self) -> None:
        """Time one kernel pass every ``PROBE_INTERVAL_S`` of wall time,
        in the middle of whatever the main thread is running, so the
        samples cover the work itself.  Callers subtract ``busy_s``
        from the intervals they time."""
        def on_alarm(*_) -> None:
            if not self._probing:  # a pass already runs; skip this tick
                self._probing = True
                try:
                    self.sample()
                finally:
                    self._probing = False

        self._probing = False
        signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S,
                         PROBE_INTERVAL_S)

    def stop_probe(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
