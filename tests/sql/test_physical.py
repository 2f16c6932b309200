"""Physical operator tests against in-memory data (no HBase involved)."""

import pytest

from repro.sql import SparkSession
from repro.sql.types import (
    DoubleType,
    IntegerType,
    StringType,
    StructField,
    StructType,
)

SCHEMA = StructType([
    StructField("k", IntegerType),
    StructField("g", StringType),
    StructField("v", DoubleType),
])

DATA = [(i, "g%d" % (i % 3), float(i)) for i in range(30)]


@pytest.fixture
def sql(session):
    session.create_dataframe(DATA, SCHEMA).create_or_replace_temp_view("t")
    return lambda text: session.sql(text).collect()


def test_filter_and_project(sql):
    rows = sql("select k, v * 2 as d from t where k >= 28")
    assert [(r.k, r.d) for r in rows] == [(28, 56.0), (29, 58.0)]


def test_group_by_aggregations(sql):
    rows = sql("""
        select g, count(*) n, sum(v) s, min(k) lo, max(k) hi, avg(v) m
        from t group by g order by g
    """)
    g0 = rows[0]
    expected = [v for k, g, v in DATA if g == "g0"]
    assert g0.n == len(expected)
    assert g0.s == sum(expected)
    assert g0.lo == 0 and g0.hi == 27
    assert g0.m == pytest.approx(sum(expected) / len(expected))


def test_global_aggregate_on_empty_input(sql):
    rows = sql("select count(*) c, sum(v) s from t where k > 999")
    assert rows[0].c == 0
    assert rows[0].s is None


def test_stddev(sql):
    import statistics

    rows = sql("select stddev(v) s from t")
    assert rows[0].s == pytest.approx(statistics.stdev(v for __, __g, v in DATA))


def test_inner_join(sql, session):
    other = [(0, "x"), (1, "y"), (99, "z")]
    schema = StructType([StructField("k2", IntegerType), StructField("tag", StringType)])
    session.create_dataframe(other, schema).create_or_replace_temp_view("u")
    rows = sql("select k, tag from t join u on k = k2 order by k")
    assert [(r.k, r.tag) for r in rows] == [(0, "x"), (1, "y")]


def test_left_join_produces_nulls(sql, session):
    schema = StructType([StructField("k2", IntegerType), StructField("tag", StringType)])
    session.create_dataframe([(0, "x")], schema).create_or_replace_temp_view("u")
    rows = sql("select k, tag from t left join u on k = k2 where k < 2 order by k")
    assert [(r.k, r.tag) for r in rows] == [(0, "x"), (1, None)]


def test_join_with_residual_condition(sql, session):
    schema = StructType([StructField("k2", IntegerType), StructField("w", DoubleType)])
    session.create_dataframe([(1, 0.5), (2, 99.0)], schema) \
        .create_or_replace_temp_view("u")
    rows = sql("select k from t join u on k = k2 and v > w order by k")
    assert [r.k for r in rows] == [1]


def test_null_join_keys_never_match(session):
    schema = StructType([StructField("a", IntegerType)])
    session.create_dataframe([(None,), (1,)], schema).create_or_replace_temp_view("l")
    session.create_dataframe([(None,), (1,)], schema).create_or_replace_temp_view("r")
    rows = session.sql("select l.a from l join r on l.a = r.a").collect()
    assert [r[0] for r in rows] == [1]


def test_sort_orders_and_null_placement(session):
    schema = StructType([StructField("a", IntegerType)])
    session.create_dataframe([(3,), (None,), (1,)], schema) \
        .create_or_replace_temp_view("s")
    asc = session.sql("select a from s order by a").collect()
    assert [r.a for r in asc] == [1, 3, None]
    desc = session.sql("select a from s order by a desc").collect()
    assert [r.a for r in desc] == [None, 3, 1]


def test_limit(sql):
    assert len(sql("select k from t order by k limit 4")) == 4


def test_distinct(sql):
    rows = sql("select distinct g from t")
    assert sorted(r.g for r in rows) == ["g0", "g1", "g2"]


def test_union_all_keeps_duplicates(sql):
    rows = sql("select g from t where k = 0 union all select g from t where k = 3")
    assert [r.g for r in rows] == ["g0", "g0"]


def test_union_dedupes(sql):
    rows = sql("select g from t where k = 0 union select g from t where k = 3")
    assert [r.g for r in rows] == ["g0"]


def test_intersect(sql):
    rows = sql("select g from t where k < 2 intersect select g from t where k > 27")
    # left side sees {g0, g1}; right side sees {g1, g2}
    assert sorted(r.g for r in rows) == ["g1"]


def test_case_when_in_select(sql):
    rows = sql("""
        select k, case when k % 2 = 0 then 'even' else 'odd' end par
        from t where k < 2 order by k
    """)
    assert [(r.k, r.par) for r in rows] == [(0, "even"), (1, "odd")]


def test_aggregate_expression_over_aggregates(sql):
    rows = sql("""
        select g, sum(v) / count(*) as manual_avg, avg(v) as m
        from t group by g order by g
    """)
    for row in rows:
        assert row.manual_avg == pytest.approx(row.m)


def test_count_distinct_across_partitions(sql):
    rows = sql("select count(distinct g) c from t")
    assert rows[0].c == 3


def test_having(sql):
    rows = sql("select g, count(*) n from t group by g having count(*) >= 10 order by g")
    assert [r.g for r in rows] == ["g0", "g1", "g2"]


def test_group_by_expression(sql):
    rows = sql("select k % 2 as par, count(*) n from t group by k % 2 order by par")
    assert [(r.par, r.n) for r in rows] == [(0, 15), (1, 15)]


def test_group_by_expression_with_arithmetic_output(sql):
    rows = sql("""
        select (k % 2) * 10 as deco, count(*) n
        from t group by k % 2 order by deco
    """)
    assert [(r.deco, r.n) for r in rows] == [(0, 15), (10, 15)]


def test_order_by_ordinal_executes(sql):
    rows = sql("select g, k from t where k < 4 order by 2 desc")
    assert [r.k for r in rows] == [3, 2, 1, 0]


def test_order_by_bad_ordinal_rejected(session):
    from repro.common.errors import AnalysisError

    session.create_dataframe(DATA, SCHEMA).create_or_replace_temp_view("t2")
    with pytest.raises(AnalysisError):
        session.sql("select k from t2 order by 5")


def test_simple_case_in_query(sql):
    rows = sql("""
        select k, case k when 0 then 'zero' when 1 then 'one' else 'many' end lbl
        from t where k < 3 order by k
    """)
    assert [r.lbl for r in rows] == ["zero", "one", "many"]


def _setop_session(conf):
    session = SparkSession(["h1", "h2"], conf=conf)
    session.create_dataframe(DATA, SCHEMA).create_or_replace_temp_view("t")
    return session


@pytest.mark.parametrize("conf", [None, {"sql.aqe.enabled": True}],
                         ids=["default", "aqe"])
def test_setop_rows_reconcile_ledger_stages_operators(conf):
    """UnionExec/DistinctExec/IntersectExec output accounting agrees across
    the metrics ledger, StageInfo and per-operator stats."""
    for query in (
        "SELECT g FROM t WHERE k < 10 UNION SELECT g FROM t WHERE k > 20",
        "SELECT k FROM t WHERE k < 20 INTERSECT SELECT k FROM t WHERE k > 10",
        "SELECT DISTINCT g FROM t WHERE v > 5.0",
        "SELECT g FROM t WHERE k < 10 UNION ALL SELECT g FROM t WHERE k > 20",
    ):
        session = _setop_session(conf)
        result = session.sql(query).run()
        ledger = int(result.metrics.get("engine.setop.rows_out"))
        stage_sum = sum(s.setop_rows_out for s in result.stages)
        op_sum = sum(int(s.get("setop_rows_out", 0))
                     for s in result.operator_stats.values())
        assert ledger > 0, (query, conf)
        assert ledger == stage_sum == op_sum, (query, conf)
        session.shutdown()


def test_setop_notes_in_explain_analyze():
    session = _setop_session(None)
    df = session.sql(
        "SELECT g FROM t WHERE k < 10 UNION SELECT g FROM t WHERE k > 20")
    report = df.explain(analyze=True)
    result = df.last_analyzed
    session.shutdown()
    assert "setop: rows_out=" in report
    ledger = int(result.metrics.get("engine.setop.rows_out"))
    total = sum(int(s.get("setop_rows_out", 0))
                for s in result.operator_stats.values())
    assert total == ledger
