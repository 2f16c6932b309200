"""Stage runners: serial and thread-pool task execution with event-driven placement.

The scheduler used to run every task of a stage serially on the driver
thread, so real wall-clock time was single-threaded no matter how many
executor slots the cluster had.  This module makes execution genuinely
parallel while keeping the simulated cost ledger intact:

* :class:`SerialStageRunner` is the deterministic baseline.  It fixes the
  old placement bug (least-loaded by task *count* while makespan was
  tracked in *time*) by placing each task on the slot that frees earliest
  in simulated time, preferring locality.

* :class:`ThreadPoolStageRunner` runs one worker per executor slot and
  dispatches tasks **event-driven**: whenever a slot frees up, the
  dispatcher picks the next task for it, preferring tasks local to that
  slot's host.  A task whose preferred hosts are all busy waits briefly
  (delay scheduling, counted in scheduling events rather than seconds so
  runs stay reproducible) before accepting a non-local slot.

Both runners account simulated time per slot -- a task's simulated start is
the moment its slot frees -- so the stage's simulated makespan is consistent
with the placement that actually happened, even when task durations are
heavily skewed.  Wall-clock time is measured around the whole stage and
reported separately; ``realtime_scale`` optionally sleeps each worker for
``simulated_seconds * scale`` to emulate the I/O wait a real scan would
spend off-CPU, which is what makes thread-level overlap visible to a
wall-clock benchmark.
"""

from __future__ import annotations

import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Sequence, Set, Tuple

from repro.common.metrics import CostLedger
from repro.engine.cluster import Executor

#: scheduling events a task waits for a preferred slot before going remote
DEFAULT_LOCALITY_WAIT_SKIPS = 2

#: speculative execution: duplicate a tail task once this fraction of the
#: stage has finished ...
SPECULATION_QUANTILE = 0.5
#: ... and the task has run this many times the median task duration
SPECULATION_MULTIPLIER = 1.5


@dataclass
class TaskSpec:
    """One schedulable unit: a task body plus its locality preferences."""

    index: int
    body: Callable[..., object]          # Callable[[TaskContext], object]
    preferred: Tuple[str, ...] = ()
    skips: int = 0                       # delay-scheduling bookkeeping
    #: True for a duplicate launched by speculative execution
    speculative: bool = False
    #: set by the task executor while an attempt runs, so the dispatcher can
    #: observe a straggler's accrued simulated cost and where it is running
    live_ledger: Optional[CostLedger] = None
    live_host: Optional[str] = None


@dataclass
class TaskOutcome:
    """Everything one finished task reports back to the scheduler."""

    index: int
    value: object
    ledger: CostLedger
    placed_host: str
    ran_on_host: str
    failures: int = 0
    slot_index: int = -1
    sim_start_s: float = 0.0
    sim_end_s: float = 0.0

    @property
    def rehosted(self) -> bool:
        """True when retries moved the task off its original placement."""
        return self.ran_on_host != self.placed_host


@dataclass
class StageExecution:
    """A completed stage: per-task outcomes plus both timing views."""

    outcomes: List[TaskOutcome]          # in task-index order
    sim_makespan_s: float                # event-simulated stage duration
    wall_clock_s: float                  # measured on the driver
    speculative_launched: int = 0        # duplicates launched for stragglers
    speculative_won: int = 0             # duplicates that beat the original
    #: ledgers of race losers: their results were discarded but their
    #: simulated work still happened and must be counted by the scheduler
    wasted: List[CostLedger] = field(default_factory=list)


#: the scheduler-provided task executor: (spec, host, slot_index) -> outcome
RunTaskFn = Callable[[TaskSpec, str, int], TaskOutcome]


class StageRunner:
    """Shared placement machinery for the serial and thread-pool runners."""

    def __init__(
        self,
        slots: Sequence[Executor],
        task_launch_s: float,
        locality_enabled: bool = True,
        locality_wait_skips: int = DEFAULT_LOCALITY_WAIT_SKIPS,
        realtime_scale: float = 0.0,
        speculation_enabled: bool = False,
    ) -> None:
        if not slots:
            raise ValueError("a stage runner needs at least one slot")
        self.slots = list(slots)
        self._slot_hosts = frozenset(s.host for s in self.slots)
        self.task_launch_s = task_launch_s
        self.locality_enabled = locality_enabled
        self.locality_wait_skips = max(0, locality_wait_skips)
        self.realtime_scale = realtime_scale
        self.speculation_enabled = speculation_enabled

    # -- helpers -----------------------------------------------------------
    def _least_loaded(self, candidates: Sequence[int],
                      sim_free_at: Sequence[float]) -> int:
        """The candidate slot that frees earliest in *simulated* time."""
        return min(candidates, key=lambda i: (sim_free_at[i], i))

    def _emulate_io(self, ledger: CostLedger) -> None:
        if self.realtime_scale > 0.0 and ledger.seconds > 0.0:
            time.sleep(ledger.seconds * self.realtime_scale)

    def _account(self, outcome: TaskOutcome, slot_idx: int,
                 sim_free_at: List[float]) -> None:
        """Charge a finished task to its slot's simulated timeline."""
        start = sim_free_at[slot_idx]
        outcome.slot_index = slot_idx
        outcome.sim_start_s = start
        outcome.sim_end_s = start + self.task_launch_s + outcome.ledger.seconds
        sim_free_at[slot_idx] = outcome.sim_end_s

    def run(self, tasks: Sequence[TaskSpec], run_task: RunTaskFn) -> StageExecution:
        """Execute one stage: place and run every task, return the outcomes.

        ``run_task`` is the scheduler's task executor (it owns retries and
        ledgers); the runner owns *placement* -- which slot each task gets,
        in which order, and how the slots' simulated timelines advance.
        Implementations must return outcomes sorted by task index and a
        simulated makespan consistent with the placement they chose.
        """
        raise NotImplementedError


class SerialStageRunner(StageRunner):
    """Runs tasks one at a time on the driver thread (the measured baseline).

    Placement is locality-first with a least-loaded-*by-time* fallback: the
    slot whose simulated timeline frees earliest gets the task, which keeps
    the simulated makespan honest when task durations are skewed.
    """

    def run(self, tasks: Sequence[TaskSpec], run_task: RunTaskFn) -> StageExecution:
        sim_free_at = [0.0] * len(self.slots)
        outcomes: List[TaskOutcome] = []
        wall_start = time.perf_counter()
        for spec in tasks:
            slot_idx = self._place(spec, sim_free_at)
            outcome = run_task(spec, self.slots[slot_idx].host, slot_idx)
            self._account(outcome, slot_idx, sim_free_at)
            self._emulate_io(outcome.ledger)
            outcomes.append(outcome)
        wall = time.perf_counter() - wall_start
        outcomes.sort(key=lambda o: o.index)
        return StageExecution(outcomes, max(sim_free_at, default=0.0), wall)

    def _place(self, spec: TaskSpec, sim_free_at: Sequence[float]) -> int:
        every = range(len(self.slots))
        if self.locality_enabled and spec.preferred:
            on_pref = [i for i in every if self.slots[i].host in spec.preferred]
            if on_pref:
                return self._least_loaded(on_pref, sim_free_at)
        return self._least_loaded(every, sim_free_at)


class ThreadPoolStageRunner(StageRunner):
    """One worker thread per executor slot; event-driven, locality-aware.

    The dispatcher keeps every slot busy when it can: each time a slot
    frees up it is offered (1) a pending task that prefers its host, then
    (2) a task with no preference, then (3) a task that has already waited
    ``locality_wait_skips`` scheduling events for a preferred slot (delay
    scheduling).  If nothing is running and nothing could be dispatched,
    the head task is forced onto the least-loaded slot so the stage always
    makes progress.
    """

    def run(self, tasks: Sequence[TaskSpec], run_task: RunTaskFn) -> StageExecution:
        pending: Deque[TaskSpec] = deque(tasks)
        total = len(tasks)
        sim_free_at = [0.0] * len(self.slots)
        free_slots: List[int] = list(range(len(self.slots)))
        in_flight: Dict[Future, Tuple[TaskSpec, int]] = {}
        outcomes: List[TaskOutcome] = []
        done_indices: Set[int] = set()
        speculated: Set[int] = set()
        wasted: List[CostLedger] = []
        spec_launched = 0
        spec_won = 0
        failure: Optional[BaseException] = None
        wall_start = time.perf_counter()

        with ThreadPoolExecutor(
            max_workers=len(self.slots), thread_name_prefix="shc-task"
        ) as pool:
            while pending or in_flight:
                if failure is None:
                    dispatched = self._dispatch_round(
                        pending, free_slots, sim_free_at, in_flight, pool, run_task
                    )
                    if not in_flight and not dispatched and pending:
                        # every slot is free yet all pending tasks are still
                        # waiting for locality: force the head task through
                        spec = pending.popleft()
                        slot_idx = self._least_loaded(free_slots, sim_free_at)
                        free_slots.remove(slot_idx)
                        self._submit(spec, slot_idx, in_flight, pool, run_task)
                    if (self.speculation_enabled and not pending
                            and free_slots and in_flight):
                        spec_launched += self._speculate(
                            outcomes, done_indices, speculated, total,
                            free_slots, sim_free_at, in_flight, pool, run_task
                        )
                elif not in_flight:
                    break  # a task aborted and everything running has drained
                done, __ = wait(list(in_flight), return_when=FIRST_COMPLETED)
                for future in done:
                    spec, slot_idx = in_flight.pop(future)
                    free_slots.append(slot_idx)
                    try:
                        outcome = future.result()
                    except BaseException as exc:  # noqa: BLE001 - re-raised below
                        if spec.index in done_indices:
                            continue  # its twin already delivered the result
                        if any(s.index == spec.index
                               for s, __s in in_flight.values()):
                            continue  # the surviving twin may still win
                        if failure is None:
                            failure = exc
                            pending.clear()
                        continue
                    if outcome.index in done_indices:
                        # lost the speculation race: the duplicate's result is
                        # discarded but its simulated work still gets counted
                        wasted.append(outcome.ledger)
                        continue
                    done_indices.add(outcome.index)
                    if spec.speculative:
                        spec_won += 1
                    self._account(outcome, slot_idx, sim_free_at)
                    outcomes.append(outcome)
        if failure is not None:
            raise failure
        wall = time.perf_counter() - wall_start
        outcomes.sort(key=lambda o: o.index)
        return StageExecution(outcomes, max(sim_free_at, default=0.0), wall,
                              speculative_launched=spec_launched,
                              speculative_won=spec_won, wasted=wasted)

    # -- speculative execution ---------------------------------------------
    def _speculate(
        self,
        outcomes: List[TaskOutcome],
        done_indices: Set[int],
        speculated: Set[int],
        total: int,
        free_slots: List[int],
        sim_free_at: Sequence[float],
        in_flight: Dict[Future, Tuple[TaskSpec, int]],
        pool: ThreadPoolExecutor,
        run_task: RunTaskFn,
    ) -> int:
        """Duplicate straggling in-flight tasks onto free slots (tail mitigation).

        Spark-style: once :data:`SPECULATION_QUANTILE` of the stage has
        finished, any still running task whose live simulated cost exceeds
        :data:`SPECULATION_MULTIPLIER` x the median of the completed
        durations gets one duplicate on a *different* host.
        First finisher wins; the loser's ledger lands in ``wasted``.  The
        winner alone advances its slot's simulated timeline -- in the
        simulated cluster the loser is killed the moment the winner reports,
        which is exactly the tail-latency cut speculation exists to buy.
        """
        needed = max(1, int(SPECULATION_QUANTILE * total))
        if len(outcomes) < needed:
            return 0
        durations = sorted(o.ledger.seconds for o in outcomes)
        median = durations[len(durations) // 2]
        if median <= 0.0:
            return 0
        threshold = SPECULATION_MULTIPLIER * median
        launched = 0
        for spec, __slot in list(in_flight.values()):
            if not free_slots:
                break
            if (spec.speculative or spec.index in speculated
                    or spec.index in done_indices):
                continue
            live = spec.live_ledger
            if live is None or live.seconds < threshold:
                continue
            candidates = [i for i in free_slots
                          if self.slots[i].host != spec.live_host]
            if not candidates:
                continue
            slot_idx = self._least_loaded(candidates, sim_free_at)
            free_slots.remove(slot_idx)
            copy = TaskSpec(index=spec.index, body=spec.body, speculative=True)
            speculated.add(spec.index)
            self._submit(copy, slot_idx, in_flight, pool, run_task)
            launched += 1
        return launched

    # -- dispatch ----------------------------------------------------------
    def _dispatch_round(
        self,
        pending: Deque[TaskSpec],
        free_slots: List[int],
        sim_free_at: Sequence[float],
        in_flight: Dict[Future, Tuple[TaskSpec, int]],
        pool: ThreadPoolExecutor,
        run_task: RunTaskFn,
    ) -> int:
        """Offer every free slot a task; returns how many were dispatched."""
        dispatched = 0
        # offer the slot that frees earliest (in simulated time) first
        for slot_idx in sorted(list(free_slots),
                               key=lambda i: (sim_free_at[i], i)):
            if not pending:
                break
            spec = self._pick_for_slot(self.slots[slot_idx].host, pending)
            if spec is None:
                continue
            free_slots.remove(slot_idx)
            self._submit(spec, slot_idx, in_flight, pool, run_task)
            dispatched += 1
        if free_slots and pending:
            # at least one slot went idle waiting on locality: that is one
            # scheduling event each passed-over task has now waited through
            for spec in pending:
                spec.skips += 1
        return dispatched

    def _pick_for_slot(self, host: str,
                       pending: Deque[TaskSpec]) -> Optional[TaskSpec]:
        """The best pending task for a freed slot, honouring delay scheduling.

        A task with a preferred host *somewhere* in the cluster waits up to
        ``locality_wait_skips`` scheduling events (dispatch rounds in which
        a slot sat idle) for that host to free before accepting a non-local
        slot -- counting events rather than wall time keeps runs
        reproducible.  A task whose preferred hosts have no slot at all is
        treated as unconstrained: it must run remote anyway, so waiting
        would only serialise the stage behind slots it can never use.
        """
        if not self.locality_enabled:
            return pending.popleft()
        fallback: Optional[TaskSpec] = None
        for spec in pending:
            if (not spec.preferred or host in spec.preferred
                    or not self._locality_possible(spec)):
                pending.remove(spec)
                return spec
            if fallback is None and spec.skips >= self.locality_wait_skips:
                fallback = spec
        if fallback is not None:
            pending.remove(fallback)
        return fallback

    def _locality_possible(self, spec: TaskSpec) -> bool:
        """Does any slot in the cluster live on one of the preferred hosts?"""
        return any(host in self._slot_hosts for host in spec.preferred)

    def _submit(
        self,
        spec: TaskSpec,
        slot_idx: int,
        in_flight: Dict[Future, Tuple[TaskSpec, int]],
        pool: ThreadPoolExecutor,
        run_task: RunTaskFn,
    ) -> None:
        host = self.slots[slot_idx].host

        def work() -> TaskOutcome:
            outcome = run_task(spec, host, slot_idx)
            self._emulate_io(outcome.ledger)
            return outcome

        in_flight[pool.submit(work)] = (spec, slot_idx)
