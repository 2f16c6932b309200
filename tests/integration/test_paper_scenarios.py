"""Scenario tests lifted directly from the paper's running examples."""

import json

import pytest

from repro.common.conf import resolve_conf
from repro.core.catalog import HBaseSparkConf, HBaseTableCatalog
from repro.core.relation import DEFAULT_FORMAT
from repro.sql.types import DoubleType, IntegerType, StringType, StructField, StructType

USERS_CATALOG = json.dumps({
    "table": {"namespace": "default", "name": "users", "tableCoder": "Phoenix"},
    "rowkey": "a",
    "columns": {
        "a": {"cf": "rowkey", "col": "a", "type": "int"},
        "b": {"cf": "cf1", "col": "b", "type": "int"},
        "c": {"cf": "cf2", "col": "c", "type": "string"},
    },
})
USERS_SCHEMA = StructType([
    StructField("a", IntegerType),
    StructField("b", IntegerType),
    StructField("c", StringType),
])


@pytest.fixture
def users(linked):
    cluster, session = linked
    options = {
        HBaseTableCatalog.tableCatalog: USERS_CATALOG,
        HBaseTableCatalog.newTable: "3",
        "hbase.zookeeper.quorum": cluster.quorum,
    }
    rows = [(i, i * i % 50, "u%d" % i) for i in range(100)]
    session.create_dataframe(rows, USERS_SCHEMA).write \
        .format(DEFAULT_FORMAT).options(options).save()
    return cluster, session, options, rows


def test_code7_mixed_scan_and_get_predicates(users):
    """Code 7: ``where Users.a > x and Users.a < y and Users.b = x``."""
    cluster, session, options, rows = users
    df = session.read.format(DEFAULT_FORMAT).options(options).load()
    got = df.filter("a > 10 and a < 60 and b = 25").run()
    expected = sorted(r for r in rows if 10 < r[0] < 60 and r[1] == 25)
    assert sorted(map(tuple, got.rows)) == expected
    # fusion: at most one task per region server did the scanning
    assert got.metrics.get("engine.tasks") <= \
        len(cluster.region_servers) + got.metrics.get("engine.shuffles", 0) * 16 + 1


def test_in_list_on_rowkey_becomes_gets(users):
    cluster, session, options, rows = users
    df = session.read.format(DEFAULT_FORMAT).options(options).load()
    got = df.filter("a in (5, 40, 90, 400)").run()
    assert sorted(r[0] for r in got.rows) == [5, 40, 90]
    # point lookups probe bloom filters instead of scanning ranges
    assert got.metrics.get("hbase.bloom_probes", 0) > 0
    full = df.run()
    assert got.metrics.get("hbase.bytes_scanned") < \
        full.metrics.get("hbase.bytes_scanned")


@pytest.mark.skipif(resolve_conf(None)["sql.aqe.enabled"],
                    reason="AQE mode forced on by the environment: the "
                           "runtime converts the shuffle join it pins")
def test_broadcast_threshold_zero_forces_shuffle_join(users):
    cluster, session, options, rows = users
    from repro.sql.session import SparkSession

    no_broadcast = SparkSession(
        cluster.hosts, clock=cluster.clock,
        conf={"sql.autoBroadcastJoinThreshold": 0},
    )
    for s in (session, no_broadcast):
        s.read.format(DEFAULT_FORMAT).options(options).load() \
            .create_or_replace_temp_view("users")
    sql = """
        select u1.a, u2.c from users u1 join users u2 on u1.b = u2.a
        where u1.a < 20
    """
    with_broadcast = session.sql(sql).run()
    without = no_broadcast.sql(sql).run()
    assert sorted(map(tuple, with_broadcast.rows)) == \
        sorted(map(tuple, without.rows))
    assert without.shuffle_bytes > with_broadcast.shuffle_bytes
    assert "BroadcastHashJoin" in session.sql(sql).explain()
    assert "ShuffledHashJoin" in no_broadcast.sql(sql).explain()


def test_code5_exact_timestamp_query(linked):
    """Code 5's df_time: TIMESTAMP pins the read to one cell version."""
    cluster, session = linked
    catalog = json.dumps({
        "table": {"namespace": "default", "name": "versioned"},
        "rowkey": "k",
        "columns": {
            "k": {"cf": "rowkey", "col": "k", "type": "int"},
            "v": {"cf": "f", "col": "v", "type": "string"},
        },
    })
    schema = StructType([StructField("k", IntegerType),
                         StructField("v", StringType)])
    options = {
        HBaseTableCatalog.tableCatalog: catalog,
        HBaseTableCatalog.newTable: "1",
        "hbase.zookeeper.quorum": cluster.quorum,
    }
    # cells are stamped with the clock at Put time (the clock advances only
    # after the write job completes), so capture the stamp before writing
    ts_first = cluster.clock.now_millis()
    session.create_dataframe([(1, "first")], schema).write \
        .format(DEFAULT_FORMAT).options(options).save()
    cluster.clock.advance(5.0)
    session.create_dataframe([(1, "second")], schema).write \
        .format(DEFAULT_FORMAT).options(options).save()

    pinned = dict(options)
    pinned[HBaseSparkConf.TIMESTAMP] = str(ts_first)
    df_time = session.read.format(DEFAULT_FORMAT).options(pinned).load()
    assert df_time.collect()[0].v == "first"
    latest = session.read.format(DEFAULT_FORMAT).options(options).load()
    assert latest.collect()[0].v == "second"


def test_max_versions_window(linked):
    """MAX_VERSIONS + MIN/MAX_TIMESTAMP select the newest version in range."""
    cluster, session = linked
    catalog = json.dumps({
        "table": {"namespace": "default", "name": "multi", "tableCoder":
                  "PrimitiveType"},
        "rowkey": "k",
        "columns": {
            "k": {"cf": "rowkey", "col": "k", "type": "int"},
            "v": {"cf": "f", "col": "v", "type": "string"},
        },
    })
    schema = StructType([StructField("k", IntegerType),
                         StructField("v", StringType)])
    options = {
        HBaseTableCatalog.tableCatalog: catalog,
        HBaseTableCatalog.newTable: "1",
        "hbase.zookeeper.quorum": cluster.quorum,
    }
    stamps = []
    for i, value in enumerate(("v1", "v2", "v3")):
        stamps.append(cluster.clock.now_millis())
        session.create_dataframe([(1, value)], schema).write \
            .format(DEFAULT_FORMAT).options(options).save()
        cluster.clock.advance(5.0)
    windowed = dict(options)
    windowed[HBaseSparkConf.MIN_TIMESTAMP] = "0"
    windowed[HBaseSparkConf.MAX_TIMESTAMP] = str(stamps[1] + 1)
    windowed[HBaseSparkConf.MAX_VERSIONS] = "3"
    df = session.read.format(DEFAULT_FORMAT).options(windowed).load()
    assert df.collect()[0].v == "v2"
