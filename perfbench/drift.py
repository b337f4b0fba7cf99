"""Drift scaling against a fixed reference kernel.

On a shared two-core machine the speed moves by up to a factor of two
within a minute, while the ratio of the program's speed to a fixed mix of
the same kinds of work moves far less. So every timed chunk (an epoch, a
target, a set-up) is flanked by runs of a ``ReferenceKernel``, and its raw
rate is multiplied by ``NOMINAL_RATE`` over the mean kernel rate measured on
either side. The kernel runs only while the program is idle, between
chunks.
"""

from __future__ import annotations

import time

import numpy as np

# Kernel iterations per second on the machine the README's figures come from
# (2 cores, one BLAS thread), rounded from the kernel rates seen while the
# benchmark was tuned; only its constancy matters.
NOMINAL_RATE = 12000.0
KERNEL_ITERS = 300
# Each iteration spends about 30% of its time in a small dense matmul and
# tanh (the tape's batched ops), 30% in an interpreter loop (the tape's
# bookkeeping) and 40% streaming a slice of a buffer larger than the caches
# (score matrices, ranking scans). That mix tracked the program's chunk
# rates best when chunks and kernel parts were interleaved for three minutes
# while the machine drifted.
PY_STEPS = 270
STREAM_FLOATS = 2 ** 21  # 16 MiB
STREAM_SLICE = 18432
_PY_SUM = sum((j * 3) % 7 for j in range(PY_STEPS))
# The survey kernel adds, per iteration, about as much time again spent
# building a small tape: slotted node objects holding a parents tuple and a
# closure, in a dict. The survey's thousands of tiny backward passes are
# made of that work, and they slow down more than the numeric mix when the
# machine is busy: in three minutes of survey targets interleaved with both
# kernel kinds, 12-target medians scaled by the numeric mix spread 9.6%,
# and 5.8% with the tape-building part added. Attack chunks tracked the
# numeric mix better (4% against 15%), so only the diagnose stage uses it.
NOMINAL_SURVEY_RATE = 7300.0
CHURN_NODES = 110


class _Node:
    __slots__ = ("key", "parents", "vjp")

    def __init__(self, key, parents, vjp):
        self.key = key
        self.parents = parents
        self.vjp = vjp


class ReferenceKernel:
    """Fixed buffers: apart from the survey kernel's tape objects, the
    kernel allocates nothing while it runs, so its speed does not depend on
    where the program's work left the heap."""

    def __init__(self):
        rng = np.random.default_rng(20260101)
        self.x = rng.normal(size=(256, 48))
        self.w = rng.normal(size=(48, 16)) / 7.0
        self.h = np.empty((256, 16))
        self.src = rng.normal(size=STREAM_FLOATS)
        self.dst = np.empty_like(self.src)
        self.pos = 0

    def run(self, survey=False, iters=KERNEL_ITERS):
        """Run ``iters`` iterations of the numeric mix, or of the survey
        kernel; returns iterations per second."""
        count = 0
        t0 = time.perf_counter()
        for _ in range(iters):
            np.matmul(self.x, self.w, out=self.h)
            np.tanh(self.h, out=self.h)
            for j in range(PY_STEPS):
                count += (j * 3) % 7
            lo = self.pos
            np.multiply(self.src[lo:lo + STREAM_SLICE], 1.0000001,
                        out=self.dst[lo:lo + STREAM_SLICE])
            self.pos = (lo + STREAM_SLICE) % (STREAM_FLOATS - STREAM_SLICE)
            if survey:
                tape = {}
                for j in range(CHURN_NODES):
                    tape[j] = _Node(j, (j,), lambda g, j=j: g * j)
                count += len(tape)
        elapsed = time.perf_counter() - t0
        expected = iters * (_PY_SUM + (CHURN_NODES if survey else 0))
        if count != expected or not np.isfinite(self.h).all():
            raise RuntimeError("reference kernel produced a wrong result")
        return iters / elapsed


class DriftMeter:
    """Times chunks of work, each flanked by a reference-kernel run.

    ``chunk()`` returns a context whose ``elapsed`` is the chunk's wall time
    and whose ``ref_rate`` is the mean kernel rate beside it (the kernel run
    before the chunk is shared with the previous chunk's run after it).
    """

    def __init__(self, kernel, survey=False):
        self.kernel = kernel
        self.survey = survey
        self.nominal_rate = NOMINAL_SURVEY_RATE if survey else NOMINAL_RATE
        self._last_rate = None
        self.kernel_seconds = 0.0

    def _kernel(self):
        t0 = time.perf_counter()
        rate = self.kernel.run(survey=self.survey)
        self.kernel_seconds += time.perf_counter() - t0
        return rate

    def chunk(self):
        return _Chunk(self)


class _Chunk:
    def __init__(self, meter):
        self.meter = meter
        self.elapsed = None
        self.ref_rate = None

    def __enter__(self):
        if self.meter._last_rate is None:
            self.meter._last_rate = self.meter._kernel()
        self._before = self.meter._last_rate
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.elapsed = time.perf_counter() - self._t0
        if exc_type is not None:
            return False
        after = self.meter._kernel()
        self.meter._last_rate = after
        self.ref_rate = 0.5 * (self._before + after)
        return False

    def scaled_rate(self, work):
        """Work per second, scaled to the kernel's nominal rate."""
        return work / self.elapsed * self.meter.nominal_rate / self.ref_rate

    def scaled_seconds(self):
        """Wall time, scaled to the kernel's nominal rate."""
        return self.elapsed * self.ref_rate / self.meter.nominal_rate
