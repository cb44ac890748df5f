"""A fixed reference task that measures how fast the host runs right now.

The benchmark runs on a few cores of a shared host, whose speed drifts by
up to 60% over tens of seconds as its other tenants come and go.  A pass
time divided by the time of this task, run just before and just after the
pass, no longer carries that drift; multiplied by ``REFERENCE_S`` it reads
as seconds on a host where the task takes ``REFERENCE_S``.  A change to
qurdlab moves the pass time and leaves the task alone, so it moves the
scaled time by the same factor.

The task mixes the two kinds of work qurdlab does: a breadth-first search
over small state objects with a dict of seen keys (the explorers) and a
heap-ordered event queue (the simulator and the replay).  On a shared
2-core virtual machine its time and an exploration's moved by the same
factor as the host's speed drifted (the ratio of their log standard
deviations was 0.97); a tuple-only search moved by more and over-corrected.
"""

from __future__ import annotations

import gc
import heapq
import random
import statistics
from collections import deque
from time import perf_counter

# about the task's time on a 2-core x86-64 virtual machine of a quiet host
REFERENCE_S = 0.08
# a call that starts this long after the last reference run gets a new one
EVERY_S = 1.0


class _State:
    __slots__ = ("tokens", "clocks", "parent")

    def __init__(self, tokens, clocks, parent):
        self.tokens = tokens
        self.clocks = clocks
        self.parent = parent

    def successors(self):
        out = []
        for i, n in enumerate(self.tokens):
            if n:
                tokens = list(self.tokens)
                tokens[i] -= 1
                tokens[(i + 1) % len(tokens)] += 1
                clocks = dict(self.clocks)
                clocks[i] = clocks.get(i, 0) + 1
                out.append(_State(tuple(tokens), clocks, self))
        return out


def _search(limit=6000):
    """Breadth-first search over token/clock states, deduplicated by a
    dict of seen keys."""
    first = _State((3, 2, 1, 0, 0), {}, None)
    seen = {(first.tokens, frozenset()): first}
    queue = deque([first])
    while queue and len(seen) < limit:
        for s in queue.popleft().successors():
            key = (s.tokens, frozenset(s.clocks.items()))
            if key not in seen:
                seen[key] = s
                queue.append(s)
    return len(seen)


def _events(n=20000, window=500):
    """A heap-ordered queue of named events, with small frozensets."""
    rng = random.Random(5)
    heap = []
    total = 0
    for i in range(n):
        heapq.heappush(heap, (rng.random(), i, "e%d" % i))
        if len(heap) > window:
            total += len(heapq.heappop(heap)[2])
        total += len(frozenset((i % 7, i % 11, i % 13)))
    return total


def reference_task():
    """A fixed amount of pure-Python work; it never changes."""
    return _search() + _events()


class Reference:
    """Reference runs between timed calls, and the calls they scale."""

    def __init__(self):
        self.runs = []          # (start, end) of each reference run

    def run(self):
        gc.collect()
        t0 = perf_counter()
        reference_task()
        self.runs.append((t0, perf_counter()))

    def before_call(self):
        if not self.runs or perf_counter() - self.runs[-1][1] >= EVERY_S:
            self.run()

    def scaled(self, spans):
        """One pass, given as the ``(start, end)`` of each of its calls, in
        seconds at the reference speed: the sum over its calls of the
        call's wall time times ``REFERENCE_S`` over the mean of the last
        reference run before the call and the first after it.  Call
        ``run()`` after the last pass."""
        total = 0.0
        for t0, t1 in spans:
            before = max((r for r in self.runs if r[1] <= t0),
                         key=lambda r: r[1])
            after = min((r for r in self.runs if r[0] >= t1),
                        key=lambda r: r[0])
            ref = (before[1] - before[0] + after[1] - after[0]) / 2
            total += (t1 - t0) * REFERENCE_S / ref
        return total
