"""Shared infrastructure: errors, simulated clock, metrics, the cost model,
and the session conf (:mod:`repro.common.conf`)."""

from repro.common.conf import conf_flag
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
