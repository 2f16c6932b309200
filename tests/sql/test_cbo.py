"""The cost-based optimizer: estimation formulas, join reordering, semi-join
reduction gates and the EXPLAIN surface (docs/optimizer.md)."""

import pytest

from repro.common.conf import resolve_conf
from repro.common.metrics import MetricsRegistry
from repro.sql import expressions as E
from repro.sql import cbo, planner
from repro.sql import logical as L
from repro.sql.analyzer import Analyzer, Catalog
from repro.sql.cbo import (
    DEFAULT_SELECTIVITY,
    CardinalityEstimator,
    reorder_joins,
    semijoin_keep_fraction,
)
from repro.sql.parser import parse
from repro.sql.stats import StatsStore
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
])


def estimator(metrics=None):
    return CardinalityEstimator(StatsStore(), metrics)


def analyzed(sql, **tables):
    catalog = Catalog()
    for name, rows in tables.items():
        catalog.register(name, L.LocalRelation(SCHEMA, rows))
    return Analyzer(catalog).analyze(parse(sql))


# -- estimation formulas ------------------------------------------------------

def test_equality_selectivity_is_one_over_ndv():
    rows = [(i % 10, "g") for i in range(100)]
    est = estimator().estimate(analyzed("select * from t where k = 3", t=rows))
    assert est.rows == pytest.approx(10.0)
    assert est.confident


def test_equality_accounts_for_null_fraction():
    rows = [(i % 5 if i % 2 == 0 else None, "g") for i in range(100)]
    est = estimator().estimate(analyzed("select * from t where k = 2", t=rows))
    assert est.rows == pytest.approx(100 * 0.5 / 5)


def test_is_null_uses_null_fraction():
    rows = [(i if i % 2 == 0 else None, "g") for i in range(100)]
    est = estimator().estimate(analyzed("select * from t where k is null", t=rows))
    assert est.rows == pytest.approx(50.0)


def test_range_predicate_uses_histogram():
    rows = [(i, "g") for i in range(100)]
    est = estimator().estimate(analyzed("select * from t where k < 50", t=rows))
    assert est.rows == pytest.approx(50.0, abs=3.0)
    est = estimator().estimate(analyzed("select * from t where k >= 90", t=rows))
    assert est.rows == pytest.approx(10.0, abs=3.0)


def test_in_list_selectivity_is_k_over_ndv():
    rows = [(i % 10, "g") for i in range(100)]
    est = estimator().estimate(
        analyzed("select * from t where k in (1, 2, 3)", t=rows))
    assert est.rows == pytest.approx(30.0)


def test_unmodelled_predicate_falls_back_to_default():
    rows = [(i, f"g{i}") for i in range(90)]
    est = estimator().estimate(
        analyzed("select * from t where g like 'g%'", t=rows))
    assert est.rows == pytest.approx(90 * DEFAULT_SELECTIVITY)


def test_equi_join_rows_divided_by_max_key_ndv():
    left = [(i % 10, "l") for i in range(100)]
    right = [(i % 5, "r") for i in range(50)]
    est = estimator().estimate(analyzed(
        "select * from a join b on a.k = b.k", a=left, b=right))
    assert est.rows == pytest.approx(100 * 50 / 10)
    assert est.confident


def test_group_by_rows_are_grouping_ndv():
    rows = [(i, f"g{i % 3}") for i in range(90)]
    est = estimator().estimate(analyzed(
        "select g, count(*) n from t group by g", t=rows))
    assert est.rows == pytest.approx(3.0)


def test_unknown_leaf_is_unconfident():
    plan = analyzed("select * from a join b on a.k = b.k",
                    a=[(1, "x")], b=[(1, "y")])

    class Opaque(L.LogicalPlan):
        def __init__(self, output):
            self._out = output

        @property
        def output(self):
            return self._out

        @property
        def children(self):
            return []

        def with_new_children(self, children):
            return self

    join = plan.collect_nodes(lambda n: isinstance(n, L.Join))[0]
    opaque = Opaque(list(join.left.output))
    replaced = L.Join(opaque, join.right, "inner", join.condition)
    est = estimator().estimate(replaced)
    assert not est.confident


def test_estimates_counter_increments():
    metrics = MetricsRegistry()
    estimator(metrics).estimate(analyzed("select * from t", t=[(1, "a")]))
    assert metrics.get("sql.cbo.estimates") == 1.0


# -- join reordering ----------------------------------------------------------

def _star_plan():
    """a-b explodes (low-NDV key), a-c is selective: best order is a, c, b."""
    tables = {
        "a": [(i % 10, f"g{i % 100}") for i in range(1000)],
        "b": [(i % 10, "x") for i in range(1000)],
        "c": [(i, f"g{i}") for i in range(10)],
    }
    return analyzed(
        "select * from a join b on a.k = b.k join c on a.g = c.g", **tables)


def test_dp_reorder_moves_selective_join_first():
    metrics = MetricsRegistry()
    plan = _star_plan()
    out = reorder_joins(plan, StatsStore(), metrics)
    assert metrics.get("sql.cbo.reorders_applied") == 1.0
    # output columns (names and ids) are preserved by the restoring Project
    assert [a.attr_id for a in out.output] == [a.attr_id for a in plan.output]
    joins = out.collect_nodes(lambda n: isinstance(n, L.Join))
    assert len(joins) == 2  # still a left-deep two-join tree
    # the deepest join is no longer the exploding a-b: the selective c join
    # was hoisted next to a, so its estimate collapses from 100k to ~100 rows
    deepest = next(j for j in joins
                   if not any(isinstance(n, L.Join)
                              for c in j.children for n in c.collect_nodes(
                                  lambda x: isinstance(x, L.Join))))
    est = estimator().estimate(deepest)
    assert est.rows < 1000
    assert metrics.get("sql.cbo.reorders_rejected") == 0.0


def test_greedy_reorder_above_dp_threshold(monkeypatch):
    monkeypatch.setattr(cbo, "DP_THRESHOLD", 2)  # forces the greedy path
    metrics = MetricsRegistry()
    plan = _star_plan()
    out = reorder_joins(plan, StatsStore(), metrics)
    assert metrics.get("sql.cbo.reorders_applied") == 1.0
    assert [a.name for a in out.output] == [a.name for a in plan.output]


def test_two_way_join_is_never_reordered():
    metrics = MetricsRegistry()
    plan = analyzed("select * from a join b on a.k = b.k",
                    a=[(1, "x")], b=[(1, "y")])
    out = reorder_joins(plan, StatsStore(), metrics)
    assert out is plan
    assert metrics.get("sql.cbo.reorders_applied") == 0.0


# -- semi-join profitability --------------------------------------------------

def test_keep_fraction_is_ndv_ratio():
    l_plan = analyzed("select * from t", t=[(i % 10, "l") for i in range(100)])
    r_plan = analyzed("select * from t", t=[(i % 2, "r") for i in range(4)])
    l_est = estimator().estimate(l_plan)
    r_est = estimator().estimate(r_plan)
    keep = semijoin_keep_fraction(
        l_est, r_est, [l_plan.output[0]], [r_plan.output[0]])
    assert keep == pytest.approx(2 / 10)


def test_keep_fraction_none_without_key_stats():
    l_plan = analyzed("select * from t", t=[(1, "l")])
    l_est = estimator().estimate(l_plan)
    ghost = E.Attribute("ghost", IntegerType)
    assert semijoin_keep_fraction(l_est, l_est, [ghost], [ghost]) is None


# -- end-to-end through the session ------------------------------------------

FACT_SCHEMA = StructType([
    StructField("fk", IntegerType),
    StructField("id", IntegerType),
    StructField("v", DoubleType),
])
DIM_SCHEMA = StructType([
    StructField("dk", IntegerType),
    StructField("name", StringType),
])


def _load_join(session, dim_keys):
    fact = [(i % 5, i, float(i)) for i in range(2000)]
    dim = [(k, f"d{k}") for k in dim_keys]
    session.create_dataframe(fact, FACT_SCHEMA).create_or_replace_temp_view("fact")
    session.create_dataframe(dim, DIM_SCHEMA).create_or_replace_temp_view("dim")
    return "select name, v from fact join dim on fk = dk"


def _cbo_conf(session):
    session.conf["sql.cbo.enabled"] = True
    session.conf["sql.autoBroadcastJoinThreshold"] = 1  # force the shuffle path


def test_semijoin_reduction_prunes_probe_rows(session):
    _cbo_conf(session)
    query = _load_join(session, dim_keys=[0, 1])
    result = session.sql(query).run()
    assert result.metrics.get("sql.cbo.semijoins_applied") == 1.0
    assert result.metrics.get("sql.cbo.semijoin.keys") == 2.0
    assert result.metrics.get("sql.cbo.semijoin.rows_pruned") == 1200.0
    assert len(result.rows) == 800


def test_semijoin_answers_match_cbo_off(session):
    _cbo_conf(session)
    query = _load_join(session, dim_keys=[0, 1])
    with_cbo = sorted(tuple(r.values) for r in session.sql(query).collect())
    session.conf["sql.cbo.enabled"] = False
    without = sorted(tuple(r.values) for r in session.sql(query).collect())
    assert with_cbo == without


def test_semijoin_rejected_when_unprofitable(session):
    # every probe key survives (dim covers all 5): keep=1 > 1/2
    _cbo_conf(session)
    query = _load_join(session, dim_keys=[0, 1, 2, 3, 4])
    result = session.sql(query).run()
    assert result.metrics.get("sql.cbo.semijoins_applied") == 0.0
    assert result.metrics.get("sql.cbo.semijoins_rejected") >= 1.0
    assert len(result.rows) == 2000


def test_semijoin_skipped_when_build_too_large(session, monkeypatch):
    monkeypatch.setattr(planner, "SEMIJOIN_MAX_BUILD_ROWS", 1)
    _cbo_conf(session)
    query = _load_join(session, dim_keys=[0, 1])
    result = session.sql(query).run()
    assert result.metrics.get("sql.cbo.semijoins_applied") == 0.0
    assert len(result.rows) == 800


def test_semijoin_runtime_abort_on_key_blowup(session, monkeypatch):
    # the planner commits, but at runtime the build has more distinct keys
    # than SEMIJOIN_MAX_KEYS allows: fall back to the plain join
    monkeypatch.setattr(planner, "SEMIJOIN_MAX_KEYS", 1)
    _cbo_conf(session)
    query = _load_join(session, dim_keys=[0, 1])
    result = session.sql(query).run()
    assert result.metrics.get("sql.cbo.semijoins_applied") == 1.0
    assert result.metrics.get("sql.cbo.semijoins_rejected") == 1.0
    assert result.metrics.get("sql.cbo.semijoin.rows_pruned") == 0.0
    assert len(result.rows) == 800


def test_join_reorder_end_to_end_answers(session):
    session.conf["sql.cbo.enabled"] = True
    tables = {
        "a": ([(i % 10, i, float(i)) for i in range(500)], FACT_SCHEMA),
        "b": ([(i % 10, "x") for i in range(200)], DIM_SCHEMA),
        "c": ([(i, f"g{i}") for i in range(10)], DIM_SCHEMA),
    }
    for name, (rows, schema) in tables.items():
        session.create_dataframe(rows, schema).create_or_replace_temp_view(name)
    query = ("select a.v, b.name, c.name from a "
             "join b on a.fk = b.dk join c on a.fk = c.dk")
    with_cbo = session.sql(query).run()
    assert with_cbo.metrics.get("sql.cbo.estimates") >= 1.0
    session.conf["sql.cbo.enabled"] = False
    without = session.sql(query).collect()
    assert sorted(tuple(r.values) for r in with_cbo.rows) == \
        sorted(tuple(r.values) for r in without)


# -- EXPLAIN surface ----------------------------------------------------------

def test_explain_analyze_has_cbo_section(session):
    _cbo_conf(session)
    query = _load_join(session, dim_keys=[0, 1])
    report = session.sql(query).explain(analyze=True)
    assert "== Cost-Based Optimization ==" in report
    assert "semi-join reductions: applied=1" in report
    assert "est=" in report  # per-operator est-vs-actual annotation


@pytest.mark.skipif(resolve_conf(None)["sql.cbo.enabled"],
                    reason="CBO mode forced on by the environment")
def test_explain_has_no_cbo_section_when_off(session):
    query = _load_join(session, dim_keys=[0, 1])
    report = session.sql(query).explain(analyze=True)
    assert "Cost-Based Optimization" not in report
    assert "sql.cbo" not in report


# -- statistics as AQE priors -------------------------------------------------

def test_stats_act_as_aqe_priors(session):
    # the heuristic sees a big filtered side (size//4 is still over the
    # threshold) but the estimate knows only ~10 rows survive: the prior
    # settles broadcast without waiting for a stage barrier
    session.conf["sql.cbo.enabled"] = True
    session.conf["sql.aqe.enabled"] = True
    session.conf["sql.autoBroadcastJoinThreshold"] = 2000
    fact = [(i % 5, i, float(i)) for i in range(2000)]
    session.create_dataframe(fact, FACT_SCHEMA).create_or_replace_temp_view("fact")
    query = ("select a.v, b.v from fact a "
             "join (select * from fact where id < 10) b on a.fk = b.fk")
    result = session.sql(query).run()
    assert result.metrics.get("sql.cbo.aqe_priors_used") >= 1.0
    assert len(result.rows) == 4000  # 10 build rows x 400 matching fact rows
