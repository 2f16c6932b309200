"""Shared infrastructure: errors, simulated clock, metrics, the cost model,
and the boolean conf parser."""

from typing import Mapping

from repro.common.cost import CostModel
from repro.common.errors import (
    ReproError,
    CatalogError,
    CoderError,
    HBaseError,
    NoSuchTableError,
    RegionOfflineError,
    RegionServerStoppedError,
    TransientRpcError,
    FilterEvalError,
    OperationTimeoutError,
    RetriesExhaustedError,
    ShuffleFetchError,
    SecurityError,
    SqlError,
    AnalysisError,
    ParseError,
)
from repro.common.faults import FaultInjector, FaultRule
from repro.common.metrics import CostLedger, MetricsRegistry
from repro.common.retry import RetryPolicy
from repro.common.simclock import SimClock

_TRUE_WORDS = frozenset({"true", "1", "yes", "on"})
_FALSE_WORDS = frozenset({"false", "0", "no", "off", ""})


def conf_flag(conf: Mapping[str, object], key: str, default: bool = False) -> bool:
    """Read boolean ``key`` from a conf or options mapping.

    A missing key (or ``None``) yields ``default`` and a bool passes through.
    Strings ``true/1/yes/on`` and ``false/0/no/off/""`` are accepted in any
    case -- so ``"false"`` really means off, which Python truthiness would
    not.  Any other value raises ``ValueError`` naming the key.
    """
    value = conf.get(key)
    if value is None:
        return default
    if isinstance(value, bool):
        return value
    word = str(value).lower()
    if word in _TRUE_WORDS:
        return True
    if word in _FALSE_WORDS:
        return False
    raise ValueError(f"conf {key!r} must be a boolean, got {value!r}")


__all__ = [
    "conf_flag",
    "FaultInjector",
    "FaultRule",
    "RetryPolicy",
    "CostModel",
    "MetricsRegistry",
    "CostLedger",
    "SimClock",
    "ReproError",
    "CatalogError",
    "CoderError",
    "HBaseError",
    "NoSuchTableError",
    "RegionOfflineError",
    "RegionServerStoppedError",
    "TransientRpcError",
    "FilterEvalError",
    "OperationTimeoutError",
    "RetriesExhaustedError",
    "ShuffleFetchError",
    "SecurityError",
    "SqlError",
    "AnalysisError",
    "ParseError",
]
