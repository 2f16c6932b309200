import pytest

from repro.common.cost import DEFAULT_COST_MODEL
from repro.common.metrics import CostLedger
from repro.core.conncache import SHCConnectionCache
from repro.hbase.client import Configuration


@pytest.fixture
def conf(hbase_cluster):
    return hbase_cluster.configuration(client_host="node1")


def test_miss_charges_setup_then_hits_are_free(hbase_cluster, conf, clock):
    cache = SHCConnectionCache()
    first, second = CostLedger(), CostLedger()
    c1 = cache.acquire(conf, clock, DEFAULT_COST_MODEL, first)
    c2 = cache.acquire(conf, clock, DEFAULT_COST_MODEL, second)
    assert c1 is c2
    assert first.seconds == DEFAULT_COST_MODEL.connection_setup_s
    assert second.seconds == 0.0
    assert cache.hits == 1 and cache.misses == 1


def test_cache_keyed_per_client_host(hbase_cluster, clock):
    cache = SHCConnectionCache()
    a = cache.acquire(hbase_cluster.configuration("node1"), clock, DEFAULT_COST_MODEL)
    b = cache.acquire(hbase_cluster.configuration("node2"), clock, DEFAULT_COST_MODEL)
    assert a is not b
    assert cache.size() == 2


def test_release_then_eviction_after_close_delay(hbase_cluster, conf, clock):
    cache = SHCConnectionCache(close_delay_s=600)
    cache.acquire(conf, clock, DEFAULT_COST_MODEL)
    cache.release(conf, clock)
    clock.advance(599)
    assert cache.housekeeping(clock) == 0
    clock.advance(2)
    assert cache.housekeeping(clock) == 1
    assert cache.size() == 0


def test_referenced_connections_never_evicted(hbase_cluster, conf, clock):
    cache = SHCConnectionCache(close_delay_s=1)
    cache.acquire(conf, clock, DEFAULT_COST_MODEL)  # refcount stays 1
    clock.advance(1000)
    assert cache.housekeeping(clock) == 0


def test_reacquire_resets_idle_timer(hbase_cluster, conf, clock):
    cache = SHCConnectionCache(close_delay_s=100)
    cache.acquire(conf, clock, DEFAULT_COST_MODEL)
    cache.release(conf, clock)
    clock.advance(90)
    cache.acquire(conf, clock, DEFAULT_COST_MODEL)  # back in use
    cache.release(conf, clock)
    clock.advance(90)  # 180 since first release but only 90 since second
    assert cache.housekeeping(clock) == 0


def test_clear_closes_everything(hbase_cluster, conf, clock):
    cache = SHCConnectionCache()
    connection = cache.acquire(conf, clock, DEFAULT_COST_MODEL)
    cache.clear()
    assert connection.closed
    assert cache.size() == 0


def test_new_connection_after_eviction(hbase_cluster, conf, clock):
    cache = SHCConnectionCache(close_delay_s=1)
    c1 = cache.acquire(conf, clock, DEFAULT_COST_MODEL)
    cache.release(conf, clock)
    clock.advance(2)
    cache.housekeeping(clock)
    c2 = cache.acquire(conf, clock, DEFAULT_COST_MODEL)
    assert c1 is not c2
    assert cache.misses == 2


@pytest.mark.parametrize("delay, expected", [("120", 120.0), (0, 0.0)])
def test_close_delay_option_plumbed(linked, delay, expected):
    """The paper's connectionCloseDelay knob reaches the cache -- a numeric
    0 included, which must not fall through to the session conf."""
    import json

    from repro.core.catalog import HBaseSparkConf, HBaseTableCatalog
    from repro.core.conncache import DEFAULT_CONNECTION_CACHE
    from repro.core.relation import DEFAULT_FORMAT
    from repro.sql.types import IntegerType, StructField, StructType

    cluster, session = linked
    catalog = json.dumps({
        "table": {"namespace": "default", "name": "delay"},
        "rowkey": "k",
        "columns": {"k": {"cf": "rowkey", "col": "k", "type": "int"},
                    "v": {"cf": "f", "col": "v", "type": "int"}},
    })
    options = {
        HBaseTableCatalog.tableCatalog: catalog,
        HBaseTableCatalog.newTable: "1",
        "hbase.zookeeper.quorum": cluster.quorum,
        HBaseSparkConf.CONNECTION_CLOSE_DELAY: delay,
    }
    schema = StructType([StructField("k", IntegerType),
                         StructField("v", IntegerType)])
    session.create_dataframe([(1, 2)], schema).write \
        .format(DEFAULT_FORMAT).options(options).save()
    assert DEFAULT_CONNECTION_CACHE.close_delay_s == expected
