"""Host-speed reference: a fixed kernel timed beside the program's work.

The shared 2-vCPU host runs the same code up to 1.9x slower in phases that
last from seconds to minutes.  The slowdown is not stolen time: process CPU
time grows by the same factor as wall time, so neither clock alone is steady.
A fixed kernel of small numpy ops on Python objects, timed in the same
process after every training step and before every eval pass, slows down
with the program.  A window's time is reported at reference speed:

    measured time x REFERENCE_MS / median kernel time near the window

On a 200-second ``infograph-300`` run with the host in its slow phase part
of the time, steps ran 1.72x slower there and eval passes 1.88x slower; at reference speed the slow-phase medians were 1.00x and
1.12x the fast-phase ones.  The kernel uses numpy and the interpreter
only, never the package, so a change to the package cannot change the
reference.  Garbage collection is off while it runs, so the program's live
objects do not lengthen it.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time

import numpy as np

# The kernel's time on a quiet host of the kind described above; it only sets
# the scale, so timings read close to wall time there.
REFERENCE_MS = 3.0
WARMUP = 3
# A window is scaled by the median of the kernel samples inside it plus this
# many on each side.
NEIGHBOURS = 2

_X = np.linspace(-1.0, 1.0, 16 * 64).reshape(16, 64)
_W1 = np.linspace(-0.1, 0.1, 64 * 64).reshape(64, 64)
_W2 = np.linspace(-0.1, 0.1, 128 * 32).reshape(128, 32)
_ROWS = [np.arange(i % 7, i % 7 + 6) for i in range(40)]


class _Node:
    __slots__ = ("value", "parents", "grad")

    def __init__(self, value, parents=()):
        self.value, self.parents, self.grad = value, parents, None


def _matmul(a, b):
    return _Node(a.value @ b.value, (a, b))


def _relu(a):
    return _Node(np.maximum(a.value, 0.0), (a,))


def _tanh(a):
    return _Node(np.tanh(a.value), (a,))


def _rows(a, idx):
    return _Node(a.value[idx], (a,))


def _mean(a):
    return _Node(a.value.mean(axis=0, keepdims=True), (a,))


def _concat(a, b):
    return _Node(np.concatenate([a.value, b.value], axis=1), (a, b))


def _kernel() -> float:
    """A small tape of numpy ops on Python objects, then per-item generator set-up.

    The mix follows the kind of work the package does (tape ops on small
    arrays, a fresh ``default_rng`` per eval record), whose slowdown in the
    host's slow phases differs from that of a plain loop.
    """
    w1, w2, acc, tape = _Node(_W1), _Node(_W2), 0.0, []
    for i in range(40):
        h = _relu(_matmul(_Node(_X), w1))
        pooled = _mean(_rows(h, _ROWS[i]))
        out = _matmul(_concat(_rows(h, _ROWS[(i + 3) % 40]), _tanh(_rows(h, _ROWS[i]))), w2)
        tape += [h, out]
        acc += float(out.value.sum()) + float(pooled.value[0, 0])
    for node in reversed(tape):
        node.grad = np.ones_like(node.value)
        for parent in node.parents:
            parent.grad = node.grad if parent.grad is None else parent.grad
    for i in range(60):
        acc += int(np.random.default_rng([7, 104729, i]).integers(0, 9))
    return acc


class HostSpeed:
    """Kernel samples of one process, as (end time, ms) on ``time.perf_counter``."""

    def __init__(self):
        self.at: list[float] = []
        self.ms: list[float] = []
        for _ in range(WARMUP):
            _kernel()

    def sample(self) -> float:
        """Time one kernel run; return the seconds it took."""
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            _kernel()
            t1 = time.perf_counter()
        finally:
            if was_enabled:
                gc.enable()
        self.at.append(t1)
        self.ms.append((t1 - t0) * 1e3)
        return t1 - t0

    def series(self) -> dict:
        return {"at": self.at, "ms": self.ms}


def scale(series: dict, t0: float, t1: float) -> float:
    """Factor that brings a window [t0, t1] of the sampled process to reference speed."""
    at, ms = series["at"], series["ms"]
    lo = max(bisect.bisect_left(at, t0) - NEIGHBOURS, 0)
    hi = min(bisect.bisect_right(at, t1) + NEIGHBOURS, len(at))
    return REFERENCE_MS / statistics.median(ms[lo:hi])
