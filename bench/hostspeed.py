"""Host-speed sampler: scales measured times to a fixed host speed.

The CPU speed this benchmark gets from a shared host moves by a factor of
up to two within seconds, so raw wall times of the same code spread by
30-40 % between runs.  The sampler interrupts the timed process every
INTERVAL_S (SIGALRM) and times a fixed pure-Python chunk in between,
allocation- and dict-heavy like the interpreter work of uncrel.  Each
stretch of work between two samples is scaled by NOMINAL_S / (time of the
chunk after it): a stretch run while the host was half as fast counts
half.  The chunks' own time is left out.  Fine interleaving matters: on
ho1d Fisher work whose raw times spread by 0.30 (interquartile range over
median), one sample before and one after each 2.5 s sweep left a spread of
0.17, one sample after every ~45 ms of work left 0.04.

The sampler imports only `signal` and `time`, so it moves no import cost
into or out of the program.
"""

import signal
import time

INTERVAL_S = 0.05
NOMINAL_S = 0.005  # time of one chunk at the reference host speed
CHUNK_STEPS = 3000


def chunk() -> int:
    d = {}
    for i in range(CHUNK_STEPS):
        k = f"k{i % 701}"
        d[k] = d.get(k, ()) + (i,)
        [j * 0.5 for j in range(4)]
    return len(d)


class Sampler:
    """Accumulates work time, raw and scaled, between start() and stop()."""

    def __init__(self):
        self.work_s = 0.0    # raw time between samples
        self.scaled_s = 0.0  # the same, scaled to NOMINAL_S
        self.chunk_s = 0.0   # time spent in the chunks themselves
        self.samples = 0
        self._last = 0.0
        self._busy = False

    def _sample(self, *_):
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        chunk()
        t1 = time.perf_counter()
        self.work_s += t0 - self._last
        self.scaled_s += (t0 - self._last) * NOMINAL_S / (t1 - t0)
        self.chunk_s += t1 - t0
        self.samples += 1
        self._last = t1
        self._busy = False

    def start(self) -> "Sampler":
        self._last = time.perf_counter()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def mark(self) -> dict:
        """Close the current stretch with a sample; the figures so far."""
        self._sample()
        return self.stats()

    def stop(self) -> dict:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        self._sample()
        signal.signal(signal.SIGALRM, signal.SIG_IGN)
        return self.stats()

    def stats(self) -> dict:
        return {"work_s": self.work_s, "scaled_s": self.scaled_s,
                "chunk_s": self.chunk_s, "samples": self.samples}

    def write(self, path: str) -> None:
        stats = self.stop()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(" ".join(f"{k}={v!r}" for k, v in stats.items()))


def read(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return {k: float(v) for k, v in (kv.split("=") for kv in fh.read().split())}


def scale(elapsed_s: float, stats: dict) -> float:
    """A wall time measured from outside a sampled process, scaled: the
    chunks' time is taken out, and the rest (start-up before the sampler
    ran included) is scaled by the process's mean factor."""
    factor = stats["scaled_s"] / stats["work_s"] if stats["work_s"] > 0 else 1.0
    return (elapsed_s - stats["chunk_s"]) * factor
