"""conf_flag: the one parser for boolean conf and relation-option values."""

import pytest

from repro.common import conf_flag


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
