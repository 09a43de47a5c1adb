"""Work time corrected for the drifting speed of a shared host.

On a host shared with other jobs, the speed of one core changes by tens of
percent from one second to the next and from one run to the next, CPU time
as much as wall time.  Such a drift moves every timing of a run together,
and no amount of repetition inside one run averages it out.  ``SpeedClock`` therefore runs a fixed reference
computation of its own between operations, at least every ``CHUNK_S``
seconds, and scales the wall time of the operations in between by
``REF_NOMINAL_S / reference time``, the reference time being the mean of the
samples taken just before and just after them.  A timing then reads in
seconds of a host on which the reference takes ``REF_NOMINAL_S``.  The
reference is plain Python that does what urmatch does most (sets of
normalised edge tuples, sorted adjacency tuples, dicts, and the argument
parsing, text splitting and JSON writing of its command line) on an input
that depends on nothing in the run, so it slows down with the program when the
host does, but never changes when the program does.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import time
from collections import Counter

# Median reference time on the host used to tune the benchmark (2-core
# x86-64 VM, CPython 3.11.7).
REF_NOMINAL_S = 0.003
# The host's speed changes within tenths of a second: single reference
# samples spread by 40 % (interquartile range over median), and scaling
# chunks of 0.05 s followed the program's speed better than chunks of 0.25 s.
CHUNK_S = 0.05

_N = 400
_ARGS = ["graph.txt", "--property", "both", "--json"]


def _reference_input() -> tuple[list[tuple[int, int]], str]:
    rng = random.Random(20150409)
    pairs = [(rng.randrange(_N), rng.randrange(_N)) for _ in range(900)]
    text = f"n {_N}\n" + "".join(f"{u} {v}\n" for u, v in pairs[:450] if u != v)
    return pairs, text


def _key(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


class SpeedClock:
    """Accumulates operation times per metric, scaled to the reference speed."""

    def __init__(self) -> None:
        self._pairs, self._text = _reference_input()
        self._parser = argparse.ArgumentParser()
        self._parser.add_argument("files", nargs="+")
        self._parser.add_argument("--property")
        self._parser.add_argument("--json", action="store_true")
        self.reference_samples: list[float] = []
        self._last_ref = self.reference()
        self._chunk_start = time.perf_counter()
        self._pending: Counter = Counter()
        self.scaled: Counter = Counter()
        self.raw: Counter = Counter()

    def _work(self) -> int:
        """Twice: build a graph the way urmatch builds one (normalised edge
        tuples in a set, sorted adjacency tuples, a frozenset, a dict), and
        read one the way its command line does (argument parsing, splitting
        text lines, writing JSON)."""
        total = 0
        for _ in range(2):
            edges = set()
            for u, v in self._pairs:
                if u != v:
                    edges.add(_key(u, v))
            nbrs: list[list[int]] = [[] for _ in range(_N)]
            for u, v in edges:
                nbrs[u].append(v)
                nbrs[v].append(u)
            adj = tuple(tuple(sorted(s)) for s in nbrs)
            frozen = frozenset(edges)
            rank = {v: i for i, v in enumerate(sorted(range(_N), key=lambda x: -len(adj[x])))}
            total += sum(1 for u, v in frozen if rank[u] < rank[v]) + len(adj)

            args = self._parser.parse_args(_ARGS)
            read = []
            for line in self._text.splitlines():
                parts = line.split()
                if parts[0] != "n":
                    read.append((int(parts[0]), int(parts[1])))
            total += len(json.dumps({"input": args.files[0], "edges": read[:100]}))
        return total

    def reference(self) -> float:
        """Run the reference once, with the cyclic collector off, and return
        its wall time."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            self._work()
            elapsed = time.perf_counter() - t0
        finally:
            if enabled:
                gc.enable()
        self.reference_samples.append(elapsed)
        return elapsed

    def add(self, metric: str, seconds: float) -> None:
        """Record one operation; close the chunk when it is long enough."""
        self._pending[metric] += seconds
        if time.perf_counter() - self._chunk_start >= CHUNK_S:
            self.flush()

    def flush(self) -> None:
        """Sample the reference and scale the operations since the last sample."""
        ref = self.reference()
        factor = 2 * REF_NOMINAL_S / (self._last_ref + ref)
        for metric, seconds in self._pending.items():
            self.scaled[metric] += seconds * factor
            self.raw[metric] += seconds
        self._pending.clear()
        self._last_ref = ref
        self._chunk_start = time.perf_counter()

    def take(self) -> tuple[dict[str, float], dict[str, float]]:
        """Scaled and raw totals since the last ``take``; starts a new chunk."""
        self.flush()
        scaled, raw = dict(self.scaled), dict(self.raw)
        self.scaled.clear()
        self.raw.clear()
        return scaled, raw
