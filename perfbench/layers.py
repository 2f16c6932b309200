"""Wall-clock spans around the program's layer entry points, recorded from outside.

The traced run patches a fixed list of functions -- each under the name its
callers look it up by -- with thin wrappers that push a span on entry and pop
it on exit.  Nothing under ``src/`` is edited and every patch is undone when
the traced block ends.

Spans nest on one thread's stack, so a span's *self* time is its duration
minus the durations of the spans directly inside it.  Every span's duration
is credited to exactly one parent, which makes the self times of one
operation add up to the operation's wall time exactly (integer nanoseconds).

Generators (the scan RDD's ``compute`` and the shuffle fetch) are timed per
``next()`` call: the work a generator does happens only while it is being
advanced, inside whichever span is consuming it.  Per-row functions such as
``decode_rowkey`` are deliberately not wrapped -- a wrapper there costs as
much as the work it times; decode time is derived as a difference instead.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence

#: name of the root span the benchmark opens around each operation
OP_SPAN = "op"


class SpanStats:
    """Accumulated inclusive and self nanoseconds of one span name."""

    __slots__ = ("total_ns", "self_ns", "calls")

    def __init__(self) -> None:
        self.total_ns = 0
        self.self_ns = 0
        self.calls = 0


@dataclass
class OpRecord:
    """One finished operation: its kind, wall time and per-span stats."""

    kind: str
    wall_ns: int
    spans: Dict[str, SpanStats]

    def self_sum_ns(self) -> int:
        return sum(s.self_ns for s in self.spans.values())


class Tracer:
    """Span stack of the benchmark's single client thread.

    Calls arriving on any other thread (the loader's thread-pool writer
    during set-up) pass through untimed; the benchmark's own sessions run
    the serial stage runner, so every traced operation stays on one thread.
    """

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self.clock = clock
        self.thread_id = threading.get_ident()
        self.ops: List[OpRecord] = []
        #: counts reported by wrapper hooks (bytes flushed, files rewritten)
        self.counts: Counter = Counter()
        self._stack: List[list] = []  # [name, start_ns, child_ns]
        self._spans: Dict[str, SpanStats] = {}

    def on_thread(self) -> bool:
        return threading.get_ident() == self.thread_id

    def enter(self, name: str) -> None:
        self._stack.append([name, self.clock(), 0])

    def exit(self) -> int:
        name, start, child = self._stack.pop()
        duration = self.clock() - start
        if self._stack:
            self._stack[-1][2] += duration
        stats = self._spans.get(name)
        if stats is None:
            stats = self._spans[name] = SpanStats()
        stats.total_ns += duration
        stats.self_ns += duration - child
        stats.calls += 1
        return duration

    @contextmanager
    def op(self, kind: str) -> Iterator[None]:
        """Root span around one operation; appends an :class:`OpRecord`."""
        if self._stack:
            raise RuntimeError("operations do not nest")
        self._spans = {}
        self.enter(OP_SPAN)
        try:
            yield
        finally:
            wall = self.exit()
            self.ops.append(OpRecord(kind, wall, self._spans))
            self._spans = {}


class _TimedIterator:
    """Times each ``next()`` of a generator as one activation of a span."""

    def __init__(self, tracer: Tracer, name: str, inner: Iterator) -> None:
        self._tracer = tracer
        self._name = name
        self._inner = inner

    def __iter__(self) -> "_TimedIterator":
        return self

    def __next__(self):
        self._tracer.enter(self._name)
        try:
            return next(self._inner)
        finally:
            self._tracer.exit()


@dataclass(frozen=True)
class Target:
    """One patched entry point.

    ``span`` is None for a count-only hook.  ``after`` receives the call's
    arguments and result and returns counts to add to ``Tracer.counts``.
    """

    owner: object
    attr: str
    span: Optional[str]
    iterates: bool = False
    after: Optional[Callable[..., Dict[str, int]]] = None


def _wrap(tracer: Tracer, target: Target, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.on_thread():
            return fn(*args, **kwargs)
        if target.span is not None:
            tracer.enter(target.span)
        try:
            result = fn(*args, **kwargs)
            if target.iterates:
                result = _TimedIterator(tracer, target.span, iter(result))
        finally:
            if target.span is not None:
                tracer.exit()
        if target.after is not None:
            tracer.counts.update(target.after(args, result))
        return result

    return wrapper


@contextmanager
def installed(tracer: Tracer, targets: Sequence[Target]) -> Iterator[None]:
    """Patch every target for the duration of the block, then restore it."""
    saved = []
    try:
        for target in targets:
            original = vars(target.owner)[target.attr]
            saved.append((target, original))
            setattr(target.owner, target.attr, _wrap(tracer, target, original))
        yield
    finally:
        for target, original in reversed(saved):
            setattr(target.owner, target.attr, original)


def _flushed(args, written) -> Dict[str, int]:
    return {"flush_bytes": written, "flushes": 1 if written else 0}


def _compacted(args, __) -> Dict[str, int]:
    region = args[0]
    return {"compaction_bytes": sum(f.size_bytes for f in region.last_new_files)}


def op_targets() -> List[Target]:
    """The layer entry points timed around each benchmark operation."""
    import repro.core.writer as writer
    import repro.sql.session as session
    from repro.core.scan_rdd import HBaseTableScanRDD
    from repro.engine.scheduler import TaskContext, TaskScheduler
    from repro.engine.shuffle import ShuffleBlockStore
    from repro.hbase.client import Table
    from repro.hbase.cluster import HBaseCluster
    from repro.hbase.region import Region
    from repro.hbase.regionserver import RegionServer
    from repro.sql.planner import Planner

    return [
        Target(session, "parse", "sql.parse"),
        Target(session.SparkSession, "analyze", "sql.analyze"),
        Target(session, "optimize", "sql.optimize"),
        Target(Planner, "plan_query", "sql.plan"),
        Target(TaskScheduler, "run_job", "engine.job"),
        Target(ShuffleBlockStore, "put_block", "engine.shuffle.put"),
        Target(ShuffleBlockStore, "fetch", "engine.shuffle.fetch", iterates=True),
        Target(TaskContext, "fetch_shuffle", "engine.shuffle.fetch", iterates=True),
        Target(HBaseTableScanRDD, "compute", "core.scan", iterates=True),
        Target(writer, "insert_into_hbase", "core.write"),
        Target(Table, "scan_region", "hbase.client.scan_region"),
        Target(RegionServer, "scan", "hbase.rs.scan"),
        Target(Table, "put", "hbase.client.put"),
        Target(RegionServer, "put", "hbase.rs.put"),
        Target(RegionServer, "flush_region", "hbase.flush"),
        Target(HBaseCluster, "run_maintenance", "hbase.maintenance"),
        Target(RegionServer, "compact_region", "hbase.compact"),
        Target(Region, "flush", None, after=_flushed),
        Target(Region, "compact", None, after=_compacted),
    ]


def setup_targets() -> List[Target]:
    """Entry points timed while the benchmark loads its data set."""
    from repro.workloads.tpcds_gen import TpcdsGenerator

    return [Target(TpcdsGenerator, "rows_for", "workloads.generate")]
