"""Machine-speed probes, so that times can be scaled to one reference speed.

The benchmark shares a few cores of a host with other work, and the speed of
those cores drifts: the same pass took 3.8 s and 6.6 s within one set of
runs, with changes lasting from about a second to several minutes.  No
median over one run removes a slowdown that lasts the whole run, so every
time the benchmark bounds is scaled by the speed measured while it ran.

``probe`` is fixed work that belongs to the benchmark, not to the engine: a
change to ``src/`` leaves it alone, so the ratio of a pass's time to the
probe's time moves only with the engine.  ``Sampler`` runs the probe from a
timer signal in the computing processes themselves, every ``INTERVAL_S`` of
the pass.  On a shared 2-vCPU VM, over 200 s of repeated ~1.4 s
computations grouped into 7 s blocks, the IQR/median of the block times was
27% unscaled, 6% scaled by probes in the same process, and 16% scaled by
probes from a second process on the other core, which follows the
computing core's speed much less closely.
"""

from __future__ import annotations

import gc
import os
import random
import signal
import statistics
import struct
import time

# Time of one probe on the machine the times are scaled to.  Scaled seconds
# are seconds on a machine where one probe takes this long.
PROBE_REFERENCE_S = 0.004
INTERVAL_S = 0.2
WARMUP_PROBES = 10

_rng = random.Random(7)
_MATRIX = tuple(tuple(_rng.randint(-3, 3) for _ in range(24)) for _ in range(16))
_PRIME = 1000003


def probe() -> int:
    """A few ms of the interpreter work the engine does.

    Row reduction of a small integer matrix modulo a prime, dictionary
    inserts keyed by tuples, and an integer loop.
    """
    m = [list(row) for row in _MATRIX]
    rows, cols = len(m), len(m[0])
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if m[i][c] % _PRIME), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = pow(m[r][c], _PRIME - 2, _PRIME)
        pr = [x * inv % _PRIME for x in m[r]]
        m[r] = pr
        for i in range(rows):
            if i != r and m[i][c] % _PRIME:
                f = m[i][c]
                m[i] = [(x - f * y) % _PRIME for x, y in zip(m[i], pr)]
        r += 1
        if r == rows:
            break
    d = {}
    for i in range(3000):
        d[(i % 97, i // 97)] = i
    s = 0
    for i in range(20000):
        s += i * i % 7
    return r + len(d) + s


def timed_probe() -> tuple[float, float]:
    """Run one probe; return (wall s, thread CPU s).

    The collector is paused, so a full collection of the engine's heap never
    lands inside a probe.  Wall time stretches when the host takes the
    virtual CPU away (steal), as a pass's wall time does; CPU time does not,
    and neither do CPU times.  ``run.wall_probe_s`` picks which one scales a
    pass's wall time.
    """
    paused = gc.isenabled()
    gc.disable()
    try:
        w0, c0 = time.perf_counter(), time.thread_time()
        probe()
        return time.perf_counter() - w0, time.thread_time() - c0
    finally:
        if paused:
            gc.enable()


def probe_wall_mean_s(n: int) -> float:
    """Mean wall time of n probes run back to back."""
    return statistics.fmean(timed_probe()[0] for _ in range(n))


def scaled(seconds: float, probe_s: float) -> float:
    """``seconds`` measured where a probe took ``probe_s``, at reference speed."""
    return seconds * PROBE_REFERENCE_S / probe_s


class Sampler:
    """Run a probe every ``interval_s`` from SIGALRM while the block runs.

    Python runs the handler in the main thread between bytecodes, so each
    probe lands between two steps of the computation it interrupts.  Pool
    workers forked inside the block keep the handler but not the interval
    timer, so a fork hook arms the timer again in each of them: their probes
    measure the cores the parallel work runs on, and reach this process
    through a pipe, 16 bytes each.  ``probes`` holds this process's
    (wall, CPU) probe times, whose wall time is to be taken out of the pass;
    a worker's probes delay only that worker, by about
    ``probe / interval_s``, and stay in the pass.
    """

    def __init__(self, interval_s: float = INTERVAL_S):
        self.interval_s = interval_s
        self.probes: list[tuple[float, float]] = []
        self.child_probes: list[tuple[float, float]] = []
        self._active = False

    def _on_alarm(self, signum, frame) -> None:
        wall, cpu = timed_probe()
        if os.getpid() == self._pid:
            self.probes.append((wall, cpu))
        else:
            os.write(self._to_parent, struct.pack("dd", wall, cpu))

    def _arm_in_child(self) -> None:
        if self._active:
            signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)

    def __enter__(self) -> Sampler:
        for _ in range(WARMUP_PROBES):
            timed_probe()
        self._pid = os.getpid()
        self._from_children, self._to_parent = os.pipe()
        os.set_blocking(self._from_children, False)
        # a hook cannot be unregistered; it does nothing once the block ends
        os.register_at_fork(after_in_child=self._arm_in_child)
        self._active = True
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc) -> None:
        self._active = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        os.close(self._to_parent)
        data = b""
        try:
            while chunk := os.read(self._from_children, 1 << 16):
                data += chunk
        except BlockingIOError:
            pass  # a worker that outlived the block still holds the pipe
        finally:
            os.close(self._from_children)
        whole = len(data) - len(data) % 16
        self.child_probes = list(struct.iter_unpack("dd", data[:whole]))

    def mean_probe_s(self) -> tuple[float, float]:
        """Mean (wall, CPU) probe time over the block, in every process."""
        probes = self.probes + self.child_probes
        if not probes:
            raise RuntimeError("no speed probe ran during the block")
        return (statistics.fmean(w for w, _ in probes),
                statistics.fmean(c for _, c in probes))
