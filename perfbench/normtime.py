"""Normalized CPU time and in-memory spans.

Raw CPU seconds on a shared machine move with its throughput, so every time is
divided by the time of a fixed stdlib reference kernel measured in the same
process, right before and right after, and multiplied by the kernel's nominal
time.  A normalized second is therefore "what this would take on a machine
where one reference slice takes NOMINAL_REF_S".
"""
from __future__ import annotations

import gc
import math
import time
from fractions import Fraction

# CPU seconds one reference slice is defined to take; close to its median on
# a 2-core x86-64 container running Python 3.11.
NOMINAL_REF_S = 0.020

_SMALL = [Fraction(i % 7 + 1, i % 11 + 2) for i in range(77)]


def _big_operands() -> list[tuple[int, int]]:
    # fixed ~2,500-bit integers with a large common factor, from an LCG
    x = 0x243F6A8885A308D3
    mask = (1 << 64) - 1

    def draw(words: int) -> int:
        nonlocal x
        out = 0
        for _ in range(words):
            x = (x * 6364136223846793005 + 1442695040888963407) & mask
            out = (out << 64) | x
        return out | 1

    pairs = []
    for _ in range(6):
        common = draw(12)
        pairs.append((common * draw(28), common * draw(28)))
    return pairs


_BIG = _big_operands()


def reference_kernel() -> int:
    """Small-Fraction dict accumulation plus big-integer gcds; no hopfpath."""
    acc: dict = {}
    for i in range(2000):
        key = i & 31
        acc[key] = acc.get(key, 0) + _SMALL[i % 77] * _SMALL[(i * 5) % 77]
    check = 0
    for _ in range(56):
        for a, b in _BIG:
            check ^= math.gcd(a, b) & 0xFFFF
    return check + len(acc)


def reference_slice() -> float:
    """CPU seconds of one reference kernel run, after a full collection."""
    gc.collect()
    t0 = time.process_time()
    reference_kernel()
    return time.process_time() - t0


class Clock:
    """Times program calls in normalized seconds, interleaved with reference slices.

    ``timed(fn)`` collects garbage, runs ``fn`` under the CPU clock and then a
    reference slice; the call's raw time is scaled by the mean of the slice
    before it and the slice after it.
    """

    def __init__(self):
        self.last_ref = reference_slice()
        self.refs = [self.last_ref]

    def timed(self, fn):
        gc.collect()
        t0 = time.process_time()
        out = fn()
        raw = time.process_time() - t0
        after = reference_slice()
        self.refs.append(after)
        factor = NOMINAL_REF_S / ((self.last_ref + after) / 2)
        self.last_ref = after
        return out, raw, factor


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL = _NullSpan()


class NullTracer:
    """Tracing off: spans cost one attribute lookup and an empty ``with``."""

    enabled = False

    def span(self, name: str):
        return _NULL


class Tracer:
    """Spans kept in memory: name, start, end, parent span index, operation id."""

    enabled = True

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op_id = -1

    def span(self, name: str):
        return _Span(self, name)

    def wrap(self, name: str, fn):
        def traced(*args):
            with self.span(name):
                return fn(*args)

        return traced


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        tr = self.tracer
        parent = tr._stack[-1] if tr._stack else -1
        self.index = len(tr.spans)
        tr.spans.append([self.name, time.process_time(), None, parent, tr.op_id])
        tr._stack.append(self.index)
        return self

    def __exit__(self, *exc):
        tr = self.tracer
        tr.spans[self.index][2] = time.process_time()
        tr._stack.pop()
        return False


def span_totals(spans: list[list], factors: dict) -> dict:
    """name -> [normalized seconds, normalized self seconds, calls].

    Self time is a span's duration minus the durations of its direct children.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, op in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict = {}
    for i, (name, start, end, parent, op) in enumerate(spans):
        f = factors[op]
        entry = out.setdefault(name, [0.0, 0.0, 0])
        entry[0] += (end - start) * f
        entry[1] += (end - start - child[i]) * f
        entry[2] += 1
    return out

