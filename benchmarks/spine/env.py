"""Environment fingerprint and the machine-speed sentinel.

The 2-core reference box is a shared VM.  Its CPU runs the same
pure-Python loop at full speed one second and 1.75 times slower the next,
for seconds to minutes at a time; the host takes a vCPU away for a fifth
of a second in some seconds and none in others (``steal`` in
``/proc/stat``); and both drift by a third over five minutes (README.md,
"Calibration").  A timing taken on it is the program's cost multiplied by
whatever the machine was doing.

So a *sentinel* — a child process that fifty times a second times one
fixed small loop and reads the kernel's steal counter — records the
machine's speed all through a workload: the CPU's speed (nominal loop
time / measured) times its availability (CPU time had / CPU time wanted).
Every gated duration is multiplied by the speed measured around it, and
reads "at the reference box's nominal speed".  What the clock read is kept
beside it.

The same trace is the noise guard: if the speed in the first and in the
last second of a workload differ by more than 10 %, the run is marked
``noisy`` — reported, never dropped.
"""

from __future__ import annotations

import bisect
import multiprocessing
import os
import platform
import sqlite3
import subprocess
import time
from itertools import accumulate
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

NOISE_LIMIT = 0.10
#: What one sentinel loop takes on the reference box when nothing slows
#: it down.  Only a scale: both sides of a comparison share it.
NOMINAL_LOOP_S = 0.37e-3
PERIOD_S = 0.02
#: A request's speed is averaged over its own interval widened by this much
#: on both sides: a hundred readings for the shortest request.  The CPU
#: changes state within milliseconds, so a reading is a draw, and two dozen
#: of them put a tenth of error on every sample of a short pass.
WINDOW_S = 1.0

#: ``(perf_counter, loop seconds, steal ticks, busy ticks)``; the ticks are
#: the kernel's running totals over all CPUs.
Reading = Tuple[float, float, int, int]


def _cpu_ticks() -> Tuple[int, int]:
    """``(steal, busy)`` from the first line of ``/proc/stat``:
    ``cpu user nice system idle iowait irq softirq steal ...``."""
    try:
        with open("/proc/stat", encoding="ascii") as stat:
            fields = [int(field) for field in stat.readline().split()[1:9]]
    except (OSError, ValueError):
        return 0, 0
    if len(fields) < 8:
        return 0, 0
    return fields[7], fields[0] + fields[1] + fields[2] + fields[5] + fields[6]


def _read() -> Reading:
    started = time.perf_counter()
    table: Dict[int, str] = {}
    total = 0
    for index in range(2000):
        total += index * index % 7
        table[index & 1023] = str(total)
    return (started, time.perf_counter() - started, *_cpu_ticks())


def _sentinel_main(conn) -> None:
    readings: List[Reading] = []
    try:
        while not conn.poll(PERIOD_S):  # anything sent, or EOF, ends it
            readings.append(_read())
        conn.send(readings)
    except (EOFError, OSError):
        pass  # the parent went away
    finally:
        conn.close()


class SpeedTrace:
    """The machine's speed over time, as a fraction of nominal."""

    def __init__(self, readings: Sequence[Reading]) -> None:
        if not readings:
            raise RuntimeError("the sentinel took no reading")
        # ``perf_counter`` is the system-wide monotonic clock: the child's
        # timestamps and the parent's are on one axis.
        self.times = [reading[0] for reading in readings]
        self._cpu_speed = [0.0, *accumulate(NOMINAL_LOOP_S / reading[1] for reading in readings)]
        self._steal = [reading[2] for reading in readings]
        self._busy = [reading[3] for reading in readings]
        self.readings = readings

    def speed(self, start: float, end: float, pad: float = 0.0) -> float:
        """Mean speed over ``[start - pad, end + pad]``: CPU speed (the
        nearest reading if the interval holds none) times CPU availability."""
        low = bisect.bisect_left(self.times, start - pad)
        high = bisect.bisect_right(self.times, end + pad)
        if high <= low:
            low = min(max(low - 1, 0), len(self.times) - 1)
            high = low + 1
        cpu_speed = (self._cpu_speed[high] - self._cpu_speed[low]) / (high - low)
        stolen = self._steal[high - 1] - self._steal[low]
        had = self._busy[high - 1] - self._busy[low]
        return cpu_speed * (had / (had + stolen) if had + stolen else 1.0)

    def noise_guard(self) -> Dict[str, object]:
        before = self.speed(self.times[0], self.times[0] + 1.0)
        after = self.speed(self.times[-1] - 1.0, self.times[-1])
        drift = abs(after - before) / min(before, after)
        return {"speed_before": before, "speed_after": after,
                "speed_mean": self.speed(self.times[0], self.times[-1]),
                "stolen_ticks": self._steal[-1] - self._steal[0],
                "busy_ticks": self._busy[-1] - self._busy[0],
                "readings": len(self.times), "drift": drift, "noisy": drift > NOISE_LIMIT}


class Sentinel:
    """Parent-side handle of the sentinel process."""

    def __init__(self) -> None:
        context = multiprocessing.get_context("spawn")
        self.conn, child_conn = context.Pipe()
        self.process = context.Process(target=_sentinel_main, args=(child_conn,),
                                       name="spine-sentinel")
        self.process.start()
        child_conn.close()

    def stop(self) -> SpeedTrace:
        try:
            self.conn.send(("stop",))
            readings = self.conn.recv() if self.conn.poll(30.0) else []
        except (EOFError, OSError):
            readings = []
        finally:
            self.process.join(timeout=10.0)
            if self.process.is_alive():
                self.process.terminate()
                self.process.join(timeout=10.0)
            self.conn.close()
        return SpeedTrace(readings)


def _has_fts5() -> bool:
    connection = sqlite3.connect(":memory:")
    try:
        connection.execute("CREATE VIRTUAL TABLE probe USING fts5(x, tokenize='trigram')")
        return True
    except sqlite3.OperationalError:
        return False
    finally:
        connection.close()


def _commit(root: Path) -> str:
    """The checked-out commit, or ``unknown`` outside a git repository
    (the benchmark driver runs in an exported tree)."""
    try:
        done = subprocess.run(["git", "-C", str(root), "rev-parse", "--short", "HEAD"],
                              capture_output=True, text=True, timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 and done.stdout.strip() else "unknown"


def fingerprint(root: Path) -> Dict[str, object]:
    return {
        "commit": _commit(root),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "sqlite": sqlite3.sqlite_version,
        "fts5_trigram": _has_fts5(),
        "platform": platform.platform(),
    }
