"""The four workloads: seeded operation sequences, set-up and answer checks.

A workload is a fixed operation sequence generated from ``(seed, seconds)``
before anything is timed, together with the answer each operation must
give.  Expected answers come from the generator's rows and never from the
program under test: q39/q38 run the same SQL over driver-local relations,
the inventory workloads keep a dict model of every key.  The program sees
only the generated inputs, through its public API.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core import DEFAULT_FORMAT
from repro.sql import SparkSession
from repro.workloads import TABLES, load_tpcds, q38, q39a, q39b
from repro.workloads.tpcds_gen import TpcdsGenerator
from repro.workloads.tpcds_schema import Q38_TABLES, Q39_TABLES

#: nominal TPC-DS size: inventory has 17,472 rows in 5 regions
SIZE_GB = 30

#: the serial stage runner; the thread-pool runner's GIL-bound workers made
#: throughput erratic on a 2-core host with identical simulated results
SESSION_CONF = {"engine.parallel.enabled": False}

#: operations generated per requested second, sized so one run measures
#: about ``--seconds`` on a 2-core x86 host -- except ``point_lookup``, which
#: runs twice that so its p99 rests on 80 samples.  Fixing the count (rather
#: than looping until a deadline) keeps every simulated total a function of
#: (workload, seed, seconds) alone.  ``ingest_upsert`` counts batches, each
#: followed by one read.
OPS_PER_SECOND = {
    "olap_q39": 4.0,
    "join_q38": 2.5,
    "point_lookup": 800.0,
    "ingest_upsert": 6.0,
}

WORKLOADS = tuple(OPS_PER_SECOND)

UPSERT_BATCH_ROWS = 2000
MINOR_COMPACTION_EVERY = 4
MAJOR_COMPACTION_EVERY = 16
READ_WEEKS = 4

Key = Tuple[int, int, int]


@dataclass
class Op:
    """One operation of a workload's sequence."""

    kind: str                                   # "read" or "write"
    sql: str = ""                               # read: the query
    rows: Sequence[tuple] = ()                  # write: the upsert batch
    compact: Optional[str] = None               # write: "minor" / "major" after it
    expected: Optional[List[tuple]] = None      # read: the answer


@dataclass
class Plan:
    """A workload's generated inputs."""

    name: str
    tables: Tuple[str, ...]
    ops: List[Op]
    warmup_sql: str
    #: ingest_upsert: final model value of every key the run upserts
    upserted: Dict[Key, int] = field(default_factory=dict)
    readback_sql: str = ""
    readback_expected: List[tuple] = field(default_factory=list)


def op_count(workload: str, seconds: int) -> int:
    return max(2, round(OPS_PER_SECOND[workload] * seconds))


def plan_workload(workload: str, seed: int, seconds: int,
                  size_gb: int = SIZE_GB, count: Optional[int] = None) -> Plan:
    """Generate the operation sequence; ``count`` overrides its length."""
    n = count if count is not None else op_count(workload, seconds)
    gen = TpcdsGenerator(size_gb=size_gb, seed=seed)
    rng = random.Random(f"perfbench:{workload}:{seed}")
    if workload == "olap_q39":
        return _plan_olap(gen, n)
    if workload == "join_q38":
        return _plan_join(gen, n)
    if workload == "point_lookup":
        return _plan_point(gen, rng, n)
    if workload == "ingest_upsert":
        return _plan_ingest(gen, rng, n)
    raise ValueError(f"unknown workload {workload!r}")


def _reference(gen: TpcdsGenerator, tables: Sequence[str],
               queries: Sequence[str]) -> List[List[tuple]]:
    """Run ``queries`` over driver-local relations of the generator's rows."""
    session = SparkSession(["driver"], executors_requested=1, conf=SESSION_CONF)
    for table in tables:
        session.create_dataframe(
            gen.rows_for(table), TABLES[table].schema()
        ).create_or_replace_temp_view(table)
    return [[tuple(r) for r in session.sql(q).collect()] for q in queries]


def _plan_olap(gen: TpcdsGenerator, n: int) -> Plan:
    queries = [q39a(), q39b()]
    answers = _reference(gen, Q39_TABLES, queries)
    ops = [Op("read", sql=queries[i % 2], expected=answers[i % 2]) for i in range(n)]
    return Plan("olap_q39", Q39_TABLES, ops, warmup_sql=queries[0])


def _plan_join(gen: TpcdsGenerator, n: int) -> Plan:
    query = q38()
    (answer,) = _reference(gen, Q38_TABLES, [query])
    ops = [Op("read", sql=query, expected=answer) for __ in range(n)]
    return Plan("join_q38", Q38_TABLES, ops, warmup_sql=query)


def _inventory_model(gen: TpcdsGenerator) -> Tuple[Dict[Key, int], List[int]]:
    model = {(d, i, w): q for d, i, w, q in gen.inventory()}
    dates = sorted({key[0] for key in model})
    return model, dates


def _recency_weights(dates: Sequence[int]) -> Dict[int, float]:
    """Zipf(1) over weekly snapshot dates, the latest ranked first."""
    return {d: 1.0 / rank for rank, d in enumerate(reversed(dates), start=1)}


def _plan_point(gen: TpcdsGenerator, rng: random.Random, n: int) -> Plan:
    model, dates = _inventory_model(gen)
    weights = _recency_weights(dates)
    picks = rng.choices(dates, weights=[weights[d] for d in dates], k=n)
    ops = []
    for d in picks:
        key = (d, rng.randint(1, gen.num_items), rng.randint(1, gen.num_warehouses))
        sql = (
            "select inv_date_sk, inv_item_sk, inv_warehouse_sk, "
            "inv_quantity_on_hand from inventory "
            f"where inv_date_sk = {key[0]} and inv_item_sk = {key[1]} "
            f"and inv_warehouse_sk = {key[2]}"
        )
        ops.append(Op("read", sql=sql, expected=[key + (model[key],)]))
    return Plan("point_lookup", ("inventory",), ops, warmup_sql=ops[0].sql)


def _window_sql(lo: int, hi: int) -> str:
    return (
        "select inv_date_sk, inv_warehouse_sk, count(*) as n, "
        "sum(inv_quantity_on_hand) as on_hand from inventory "
        f"where inv_date_sk between {lo} and {hi} "
        "group by inv_date_sk, inv_warehouse_sk"
    )


def _window_answer(model: Dict[Key, int], window: Sequence[Key]) -> List[tuple]:
    groups: Dict[Tuple[int, int], List[int]] = {}
    for key in window:
        group = groups.setdefault((key[0], key[2]), [0, 0])
        group[0] += 1
        group[1] += model[key]
    return [k + tuple(v) for k, v in groups.items()]


def _upsert_batch(keys: Sequence[Key], weights: Dict[int, float],
                  rng: random.Random) -> List[Key]:
    """``UPSERT_BATCH_ROWS`` distinct keys, weighted toward recent dates.

    Weighted sampling without replacement (Efraimidis-Spirakis): each key
    draws ``log(u) / weight`` and the largest draws win.
    """
    scored = sorted(
        (math.log(1.0 - rng.random()) / weights[key[0]], key) for key in keys
    )
    return sorted(key for __, key in scored[-UPSERT_BATCH_ROWS:])


def _plan_ingest(gen: TpcdsGenerator, rng: random.Random, n: int) -> Plan:
    model, dates = _inventory_model(gen)
    weights = _recency_weights(dates)
    keys = sorted(model)
    lo, hi = dates[-READ_WEEKS], dates[-1]
    window = [key for key in keys if lo <= key[0] <= hi]
    read_sql = _window_sql(lo, hi)
    ops: List[Op] = []
    upserted: Dict[Key, int] = {}
    for batch in range(1, n + 1):
        rows = []
        for key in _upsert_batch(keys, weights, rng):
            value = rng.randint(0, 1000)
            model[key] = upserted[key] = value
            rows.append(key + (value,))
        compact = None
        if batch % MAJOR_COMPACTION_EVERY == 0:
            compact = "major"
        elif batch % MINOR_COMPACTION_EVERY == 0:
            compact = "minor"
        ops.append(Op("write", rows=rows, compact=compact))
        ops.append(Op("read", sql=read_sql, expected=_window_answer(model, window)))
    first = min(key[0] for key in upserted)
    readback_sql = (
        "select inv_date_sk, inv_item_sk, inv_warehouse_sk, "
        f"inv_quantity_on_hand from inventory where inv_date_sk >= {first}"
    )
    readback = [key + (model[key],) for key in keys if key[0] >= first]
    return Plan("ingest_upsert", ("inventory",), ops, warmup_sql=read_sql,
                upserted=upserted, readback_sql=readback_sql,
                readback_expected=readback)


# -- the program under test ------------------------------------------------------
@dataclass
class Deployment:
    """A loaded cluster plus the serial-runner session the client uses."""

    env: object
    session: SparkSession
    tables: Tuple[str, ...]
    setup_s: float
    load_s: float
    size_bytes: int = 0

    def table_bytes(self) -> int:
        return sum(self.env.cluster.table_size_bytes(t) for t in self.tables)


def deploy(plan: Plan, seed: int, size_gb: int = SIZE_GB) -> Deployment:
    """Load the data set and warm the connection and meta-location caches."""
    start = time.perf_counter()
    env = load_tpcds(size_gb, plan.tables, seed=seed)
    loaded = time.perf_counter()
    session = env.new_session(conf=SESSION_CONF)
    session.sql(plan.warmup_sql).run()
    deployment = Deployment(env, session, plan.tables,
                            time.perf_counter() - start, loaded - start)
    deployment.size_bytes = deployment.table_bytes()
    return deployment


@dataclass
class Outcome:
    """What one operation returned: answer rows or rows written, plus cost."""

    rows: Optional[List[tuple]]
    written: int
    sim_s: float
    metrics: Dict[str, float]
    stages: int


def execute(deployment: Deployment, op: Op) -> Outcome:
    """Run one operation through the public API."""
    session = deployment.session
    if op.kind == "read":
        result = session.sql(op.sql).run()
        return Outcome([tuple(r) for r in result.rows], 0, result.seconds,
                       result.metrics.snapshot(), len(result.stages))
    options = deployment.env.reader_options("inventory")
    df = session.create_dataframe(op.rows, TABLES["inventory"].schema())
    result = df.write.format(DEFAULT_FORMAT).options(options).save()
    if op.compact is not None:
        deployment.env.cluster.compact_table("inventory", major=op.compact == "major")
    return Outcome(None, result.rows_written, result.seconds,
                   result.metrics.snapshot(), 0)


def check(op: Op, outcome: Outcome) -> bool:
    """Whether an operation gave the right answer (or wrote every row)."""
    if op.kind == "write":
        return outcome.written == len(op.rows)
    return same_rows(outcome.rows, op.expected)


def _sort_key(row: Sequence[object]) -> tuple:
    out = []
    for v in row:
        if v is None:
            out.append((1, 0))
        elif isinstance(v, (int, float)):
            out.append((0, round(float(v), 6)))
        else:
            out.append((2, str(v)))
    return tuple(out)


def same_rows(got: Optional[Sequence[Sequence[object]]],
              want: Sequence[Sequence[object]]) -> bool:
    """Order-insensitive row comparison; floats match to 1e-9 relative."""
    if got is None or len(got) != len(want):
        return False
    for a, b in zip(sorted(got, key=_sort_key), sorted(want, key=_sort_key)):
        if len(a) != len(b):
            return False
        for x, y in zip(a, b):
            if isinstance(x, float) or isinstance(y, float):
                if x is None or y is None or not math.isclose(
                        x, y, rel_tol=1e-9, abs_tol=1e-9):
                    return False
            elif x != y:
                return False
    return True


def durability_readback(plan: Plan, deployment: Deployment) -> int:
    """Crash the server holding the newest keys, then read every upsert back.

    Returns the number of upserted keys that came back missing or wrong.
    """
    cluster = deployment.env.cluster
    newest = cluster.region_locations("inventory")[-1]
    cluster.kill_region_server(newest.server_id)
    got = {r.values[:3]: r.values[3]
           for r in deployment.session.sql(plan.readback_sql).collect()}
    want = {row[:3]: row[3] for row in plan.readback_expected}
    return sum(1 for key, value in want.items() if got.get(key) != value) \
        + len(got.keys() - want.keys())
