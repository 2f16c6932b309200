"""The session conf contract: ``conf_flag`` parses boolean conf and
relation-option values, and ``resolve_conf``/``conf_value`` type every
declared key once and reject undeclared or badly typed ones."""

import pytest

from repro.common import conf_flag
from repro.common.conf import DEFAULT_CONF, conf_value, resolve_conf
from repro.sql.session import SparkSession


@pytest.mark.parametrize("value", [True, "true", "TRUE", "1", 1, "yes", "On"], ids=repr)
def test_truthy_spellings(value):
    assert conf_flag({"k": value}, "k") is True


@pytest.mark.parametrize("value", [False, "false", "False", "0", 0, "no", "OFF", ""], ids=repr)
def test_falsy_spellings(value):
    assert conf_flag({"k": value}, "k", default=True) is False


@pytest.mark.parametrize("default", [True, False])
def test_missing_or_none_means_default(default):
    assert conf_flag({}, "k", default) is default
    assert conf_flag({"k": None}, "k", default) is default


@pytest.mark.parametrize("value", ["maybe", "2", 2, "enabled"], ids=repr)
def test_anything_else_raises_naming_key_and_value(value):
    with pytest.raises(ValueError, match=r"'some\.key'.*" + str(value)):
        conf_flag({"some.key": value}, "some.key")


# -- resolve_conf / conf_value -------------------------------------------------
@pytest.fixture(autouse=True)
def _no_env_override(monkeypatch):
    monkeypatch.delenv("REPRO_CONF", raising=False)


def test_defaults_resolve_to_themselves():
    assert resolve_conf(None) == DEFAULT_CONF


@pytest.mark.parametrize("key", [
    "sql.aqe.enable",              # typo of sql.aqe.enabled
    "serving.queue.max.depth",     # deleted: serving is configured by object
    "engine.query.pool.size",      # deleted: nothing set it
], ids=str)
def test_undeclared_session_key_raises_naming_it(key):
    with pytest.raises(ValueError, match=key.replace(".", r"\.")):
        resolve_conf({key: True})


def test_unparseable_number_raises_at_session_construction():
    with pytest.raises(ValueError, match=r"'sql\.shuffle\.partitions'.*eight"):
        SparkSession(["h1"], conf={"sql.shuffle.partitions": "eight"})


@pytest.mark.parametrize("key, value", [
    ("sql.shuffle.partitions", True),
    ("sql.aqe.skewedPartitionFactor", False),
    ("sql.local.scan.partitions", 1.5),
], ids=repr)
def test_bool_or_truncating_value_for_numeric_key_raises(key, value):
    with pytest.raises(ValueError, match=key.replace(".", r"\.")):
        resolve_conf({key: value})


def test_numeric_string_resolves_to_the_declared_type():
    conf = resolve_conf({"sql.shuffle.partitions": "4",
                         "engine.realtime.scale": "0.5",
                         "sql.aqe.enabled": "false"})
    assert conf["sql.shuffle.partitions"] == 4
    assert type(conf["sql.shuffle.partitions"]) is int
    assert conf["engine.realtime.scale"] == 0.5
    assert conf["sql.aqe.enabled"] is False


def test_data_source_options_pass_through_untouched():
    conf = resolve_conf({"hbase.read.replica": "yes",
                         "shc.pushdown.enabled": "false"})
    assert conf["hbase.read.replica"] == "yes"
    assert conf["shc.pushdown.enabled"] == "false"


def test_partial_conf_falls_back_to_the_declared_default():
    assert conf_value({}, "sql.shuffle.partitions") == 8
    assert conf_value({"sql.shuffle.partitions": None},
                      "sql.shuffle.partitions") == 8


def test_env_override_is_typed_so_zero_means_off(monkeypatch):
    monkeypatch.setenv("REPRO_CONF", "sql.cbo.enabled=0, sql.shuffle.partitions=3")
    conf = resolve_conf(None)
    assert conf["sql.cbo.enabled"] is False
    assert conf["sql.shuffle.partitions"] == 3


def test_explicit_conf_wins_over_env_override(monkeypatch):
    monkeypatch.setenv("REPRO_CONF", "sql.aqe.enabled=true")
    assert resolve_conf(None)["sql.aqe.enabled"] is True
    assert resolve_conf({"sql.aqe.enabled": False})["sql.aqe.enabled"] is False


@pytest.mark.parametrize("value", ["sql.nope=1", "sql.cbo.enabled"], ids=str)
def test_bad_env_override_raises(monkeypatch, value):
    monkeypatch.setenv("REPRO_CONF", value)
    with pytest.raises(ValueError, match="sql"):
        resolve_conf(None)
