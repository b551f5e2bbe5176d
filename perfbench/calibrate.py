"""A fixed piece of pure-Python work that measures the machine's speed.

The benchmark runs on a share of a host whose other tenants come and
go: the same code runs up to twice as slowly in one minute as in the
next, in CPU time as in wall time. ``reference_seconds`` times a fixed
routine that stands in for the program's kind of work (small objects,
dict and set lookups, tuple keys, a worklist to a fixpoint) without
importing it, so no change to the program changes it. A timed run
interleaves it with the program's work and scales every time by
``REFERENCE_S / median reference time``: the figures then read as if
the machine always ran at the reference speed. Work spread over worker
processes is scaled by the routine run on as many processes at once
(``ParallelReference``).
"""

from __future__ import annotations

import multiprocessing
import statistics
from time import perf_counter

#: The reference speed: the routine's time, seconds, on an unloaded
#: 2-vCPU Xeon container. Only the ratio to it matters.
REFERENCE_S = 0.01

_NODES = 300
_FACTS = 40


class _Node:
    __slots__ = ("index", "successors", "gen", "kill")

    def __init__(self, index: int, successors: tuple, gen: frozenset, kill: frozenset):
        self.index = index
        self.successors = successors
        self.gen = gen
        self.kill = kill


def _graph() -> list[_Node]:
    nodes = []
    for index in range(_NODES):
        successors = (((index * 7) + 1) % _NODES, ((index * 13) + 5) % _NODES)
        gen = frozenset(("fact", (index * 3 + k) % _FACTS) for k in range(2))
        kill = frozenset(("fact", (index * 5 + 1) % _FACTS) for _ in range(1))
        nodes.append(_Node(index, successors, gen, kill))
    return nodes


def reference_work() -> int:
    """Forward may-analysis to a fixpoint over a fixed graph; returns
    the number of facts at the fixpoint (always the same)."""
    nodes = _graph()
    facts: dict[int, frozenset] = {node.index: frozenset() for node in nodes}
    worklist = [node.index for node in nodes]
    while worklist:
        node = nodes[worklist.pop()]
        out = (facts[node.index] - node.kill) | node.gen
        for successor in node.successors:
            joined = facts[successor] | out
            if joined != facts[successor]:
                facts[successor] = joined
                worklist.append(successor)
    return sum(len(value) for value in facts.values())


def reference_seconds() -> float:
    start = perf_counter()
    reference_work()
    return perf_counter() - start


def _reference_loop(connection, repeats: int) -> None:
    while connection.recv():
        connection.send([reference_seconds() for _ in range(repeats)])
    connection.close()


class ParallelReference:
    """The reference routine on ``workers`` processes at once, for work
    that keeps that many processes busy: two busy vCPUs of a host run
    slower than one. Calling it times the routine ``repeats`` times in
    every process together and returns the median time. ``close``
    stops the processes and waits for them."""

    def __init__(self, workers: int, repeats: int = 3) -> None:
        context = multiprocessing.get_context("fork")
        self._connections = []
        self._processes = []
        for _ in range(workers):
            parent, child = context.Pipe()
            process = context.Process(
                target=_reference_loop, args=(child, repeats), daemon=True
            )
            process.start()
            child.close()
            self._connections.append(parent)
            self._processes.append(process)

    def __call__(self) -> float:
        for connection in self._connections:
            connection.send(True)
        times = [t for connection in self._connections for t in connection.recv()]
        return statistics.median(times)

    def close(self) -> None:
        for connection in self._connections:
            try:
                connection.send(False)
            except OSError:  # the process already ended
                pass
        for process in self._processes:
            process.join(timeout=10)
            if process.is_alive():
                process.kill()
                process.join()
        for connection in self._connections:
            connection.close()
        self._connections, self._processes = [], []
