"""Feature invariance: a dormant feature leaves every ledger byte-identical.

Each optional subsystem -- adaptive execution, the cost-based optimizer,
the partition cache, materialized views, region read replicas and the
serving front door's scheduler plumbing -- hooks several layers, and acts
only when a query's conf or the session's state calls for it.  The
load-bearing guarantee is that the hooks cost nothing while dormant:

- every *dormant* case below must produce the same rows, the same
  simulated seconds and the same metrics snapshot as a run under the
  default configuration, with none of the feature's counters leaking in;
- every *enabled* case must return the same answers as the default run
  (order may change) and move the feature's own counter.

Every run is full-stack, on a freshly loaded HBase cluster.
"""

from functools import lru_cache

import pytest

from repro.common.conf import resolve_conf
from repro.workloads import load_tpcds

SCAN_QUERY = ("SELECT ss_item_sk, ss_quantity FROM store_sales "
              "WHERE ss_quantity > 1")
JOIN_QUERY = (
    "SELECT i.i_category, sum(ss.ss_quantity) AS q "
    "FROM store_sales ss JOIN item i ON ss.ss_item_sk = i.i_item_sk "
    "GROUP BY i.i_category"
)
AGG_QUERY = ("SELECT inv_date_sk, count(inv_quantity_on_hand) AS skus, "
             "sum(inv_quantity_on_hand) AS on_hand "
             "FROM inventory GROUP BY inv_date_sk")

#: the tables each query reads
TABLES = {
    SCAN_QUERY: ("store_sales",),
    JOIN_QUERY: ("store_sales", "item"),
    AGG_QUERY: ("inventory",),
}

AQE_FORCED = resolve_conf(None)["sql.aqe.enabled"]
CBO_FORCED = resolve_conf(None)["sql.cbo.enabled"]


def run_fresh(query, conf=None, replicas=0, before=None, analyze=False,
              explicit_serving_defaults=False):
    """(env, result) of one query on a freshly loaded cluster.

    ``before(session)`` runs first (e.g. a persist or view statement);
    ``analyze`` collects statistics on every table the query reads.
    """
    env = load_tpcds(2, TABLES[query])
    if replicas:
        env.cluster.enable_region_replication(replicas=replicas)
    session = env.new_session(conf=conf)
    if before is not None:
        before(session)
    if analyze:
        for table in TABLES[query]:
            session.sql(f"ANALYZE TABLE {table} COMPUTE STATISTICS")
    if explicit_serving_defaults:
        result = session.execute_plan(
            session.sql(query).plan, slots=None, queued_s=0.0)
    else:
        result = session.sql(query).run()
    session.shutdown()
    return env, result


@lru_cache(maxsize=None)
def default_run(query):
    """The default-conf reference run (deterministic, so computed once)."""
    return run_fresh(query)


def rows(result):
    return [tuple(r.values) for r in result.rows]


def reopt_decisions(result):
    return [(e["rule"], e["detail"]) for e in result.reopt_events]


def assert_no_counters(snapshot, prefixes):
    for key in snapshot:
        assert not key.startswith(prefixes), key


def persist_unrelated(session):
    """Register a plan in the partition cache that the query never uses."""
    session.sql("SELECT ss_item_sk FROM store_sales "
                "WHERE ss_quantity > 50").persist()


def show_views(session):
    """Create the session's view manager without creating a view."""
    session.sql("SHOW MATERIALIZED VIEWS").collect()


DORMANT = [
    pytest.param(SCAN_QUERY, dict(conf={"sql.aqe.enabled": False}),
                 ("engine.aqe.",), id="aqe-off-scan"),
    pytest.param(JOIN_QUERY, dict(conf={"sql.aqe.enabled": False}),
                 ("engine.aqe.",), id="aqe-off-join",
                 marks=pytest.mark.skipif(
                     AQE_FORCED, reason="AQE forced on by the environment")),
    pytest.param(SCAN_QUERY, dict(conf={"sql.cbo.enabled": False}),
                 ("sql.cbo.",), id="cbo-off-scan"),
    pytest.param(JOIN_QUERY, dict(conf={"sql.cbo.enabled": False}),
                 ("sql.cbo.",), id="cbo-off-join",
                 marks=pytest.mark.skipif(
                     CBO_FORCED, reason="CBO forced on by the environment")),
    pytest.param(SCAN_QUERY, dict(before=persist_unrelated),
                 ("engine.cache.", "hbase.blockcache."), id="cache-unused"),
    pytest.param(AGG_QUERY, dict(before=show_views),
                 ("sql.view.", "hbase.cdc."), id="view-manager-no-view"),
    pytest.param(SCAN_QUERY, dict(conf={"hbase.read.replica": False}),
                 ("hbase.replica.",), id="replica-flag-off"),
    pytest.param(SCAN_QUERY, dict(conf={"hbase.read.replica": True}),
                 ("hbase.replica.",), id="replica-flag-without-replicas"),
    # background replication bills its own (cluster) ledger, but a session
    # that never opts in scans primaries exactly as before
    pytest.param(SCAN_QUERY, dict(replicas=1),
                 ("hbase.replica.",), id="replicas-without-flag"),
    pytest.param(SCAN_QUERY, dict(explicit_serving_defaults=True),
                 ("serving.",), id="explicit-serving-defaults"),
]


@pytest.mark.parametrize("query, setup, prefixes", DORMANT)
def test_dormant_feature_is_byte_identical_to_default(query, setup, prefixes):
    default_env, default = default_run(query)
    env, result = run_fresh(query, **setup)
    assert rows(result) == rows(default)
    assert result.seconds == default.seconds
    assert dict(result.metrics.snapshot()) == dict(default.metrics.snapshot())
    assert_no_counters(result.metrics.snapshot(), prefixes)
    # AQE decisions match too (operator ids are process-global, so unpinned)
    assert reopt_decisions(result) == reopt_decisions(default)
    assert result.view_events == []
    assert result.serving is None
    if setup.get("before") is show_views:
        # no view means no CDC feed and no maintenance ledger either
        assert env.cluster.cdc is None
        assert dict(env.cluster.metrics.snapshot()) == \
            dict(default_env.cluster.metrics.snapshot())
        assert_no_counters(env.cluster.metrics.snapshot(), prefixes)


ENABLED = [
    pytest.param(JOIN_QUERY, dict(conf={
        "sql.aqe.enabled": True,
        # force the shuffled plan so the adaptive join actually decides
        "sql.autoBroadcastJoinThreshold": 1,
        "engine.parallel.enabled": False,
    }), "engine.aqe.stages_materialized", id="aqe"),
    pytest.param(JOIN_QUERY, dict(conf={
        "sql.cbo.enabled": True,
        # force the shuffled plan so semi-join reduction has work to do
        "sql.autoBroadcastJoinThreshold": 1,
        "engine.parallel.enabled": False,
    }, analyze=True), "sql.cbo.estimates", id="cbo-after-analyze"),
    pytest.param(SCAN_QUERY, dict(conf={
        "hbase.read.replica": True,
        "hbase.read.replica.staleness": 60,
    }, replicas=1), "hbase.replica.reads", id="replica-reads"),
]


@pytest.mark.parametrize("query, setup, counter", ENABLED)
def test_enabled_feature_preserves_answers(query, setup, counter):
    __, default = default_run(query)
    __, result = run_fresh(query, **setup)
    # routing and join strategy may reorder rows, never change them
    assert sorted(rows(result)) == sorted(rows(default))
    assert result.metrics.get(counter) >= 1.0


def test_zero_staleness_bound_forces_primary_reads():
    __, default = default_run(SCAN_QUERY)
    __, strict = run_fresh(SCAN_QUERY, conf={
        "hbase.read.replica": True,
        "hbase.read.replica.staleness": 0,
    }, replicas=1)
    # primary-only routing: same partitions, same rows, same order
    assert rows(strict) == rows(default)
    assert strict.metrics.get("hbase.replica.reads") == 0.0
    # every region had a replica it declined -- the fallback is visible
    assert strict.metrics.get("hbase.replica.primary_fallbacks") == 5.0


def test_analyze_persists_stats_across_sessions():
    env = load_tpcds(2, TABLES[JOIN_QUERY])
    first = env.new_session(conf={"sql.cbo.enabled": True})
    row = first.sql("ANALYZE TABLE item COMPUTE STATISTICS").collect()[0]
    assert row.persisted is True
    first.shutdown()
    # a brand-new session over the same cluster hydrates from the master's
    # table attribute and estimates confidently without a fresh ANALYZE
    second = env.new_session(conf={"sql.cbo.enabled": True})
    result = second.sql(JOIN_QUERY).run()
    assert result.metrics.get("sql.cbo.estimates") >= 1.0
    assert result.metrics.get("sql.cbo.stats_stale") == 0.0
    second.shutdown()
