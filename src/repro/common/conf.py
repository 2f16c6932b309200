"""The session conf: every key declared, typed and defaulted once.

``DEFAULT_CONF`` is the only place a ``sql.*`` / ``engine.*`` /
``tracing.*`` key exists; a key's type is its default's type.
``resolve_conf`` builds a session's conf from it and rejects typos and
badly typed values up front, and ``conf_value`` reads one key back, falling
to the declared default when a (partial) conf omits it.  Keys outside the
session prefixes -- ``hbase.*``, ``shc.*``, ``spark.*`` -- are data-source
options the connector parses itself, so they pass through untouched.
"""

import os
from typing import Any, Dict, Mapping, Optional

DEFAULT_CONF: Dict[str, object] = {
    "sql.shuffle.partitions": 8,
    # per-query span-tree tracing (docs/observability.md); off by default so
    # the hot path runs against the no-op recorder
    "tracing.enabled": False,
    "sql.autoBroadcastJoinThreshold": 128 * 1024,
    # adaptive query execution (docs/adaptive.md): re-optimise plans at
    # shuffle-stage barriers from measured partition sizes.  Off by default
    # -- the non-adaptive path must stay byte-identical
    "sql.aqe.enabled": False,
    # rule 2/3 sizing: coalesce small reduce partitions toward this many
    # bytes per task, and cap each skew-split chunk at it
    "sql.aqe.targetPartitionBytes": 64 * 1024,
    # rule 3 trigger: a partition is skewed when larger than `factor` x the
    # median partition AND over the absolute threshold
    "sql.aqe.skewedPartitionFactor": 4.0,
    "sql.aqe.skewedPartitionThresholdBytes": 64 * 1024,
    # partitions for driver-local (VALUES / createDataFrame) scans
    "sql.local.scan.partitions": 2,
    # cost-based optimization (docs/optimizer.md): use ANALYZE statistics to
    # estimate cardinalities, re-order multi-way inner joins, and inform the
    # planner's broadcast decisions.  Off by default -- without it planning
    # is purely syntactic and byte-identical to the seed
    "sql.cbo.enabled": False,
    # semi-join reduction (needs sql.cbo.enabled): pre-filter a large probe
    # scan by the distinct join keys of a small build side before shuffling
    "sql.cbo.semijoin": True,
    # thread-pool stage runner: one worker per executor slot; turn off for
    # the serial driver-thread baseline the parallelism ablation measures
    "engine.parallel.enabled": True,
    # real seconds slept per simulated task-second, to emulate the I/O wait
    # a real scan spends off-CPU (0 = off; benchmarks opt in)
    "engine.realtime.scale": 0.0,
    # speculative execution: duplicate straggling tail tasks (thresholds in
    # repro.engine.runner; off by default, chaos/straggler runs opt in)
    "engine.speculation.enabled": False,
}

#: prefixes the session conf owns: an undeclared key under one is a typo
SESSION_PREFIXES = ("sql.", "engine.", "tracing.", "serving.")

#: environment override applied over the defaults and under an explicit
#: session conf, as comma-separated ``key=value`` pairs -- lets a whole test
#: suite or subprocess run with feature flags flipped
ENV_VAR = "REPRO_CONF"

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


def conf_value(conf: Mapping[str, object], key: str) -> Any:
    """Read declared ``key`` from ``conf``, typed like its ``DEFAULT_CONF`` entry.

    A missing key (or ``None``) yields the declared default.  Booleans parse
    through :func:`conf_flag`; a numeric key takes a number or a numeric
    string, and a bool or anything unparseable raises ``ValueError`` naming
    the key.
    """
    default = DEFAULT_CONF[key]
    value = conf.get(key)
    if value is None:
        return default
    if isinstance(default, bool):
        return conf_flag(conf, key)
    kind: Any = type(default)
    try:
        number = kind(value)
    except (TypeError, ValueError):
        number = None
    # a bool is not a number here, and an int key must not truncate 1.5
    if number is None or isinstance(value, bool) or (
            isinstance(value, float) and number != value):
        raise ValueError(f"conf {key!r} must be {kind.__name__}, got {value!r}")
    return number


def _env_overrides() -> Dict[str, str]:
    pairs: Dict[str, str] = {}
    for item in os.environ.get(ENV_VAR, "").split(","):
        if not item.strip():
            continue
        key, sep, value = item.partition("=")
        if not sep:
            raise ValueError(f"{ENV_VAR} entry {item!r} is not key=value")
        pairs[key.strip()] = value.strip()
    return pairs


def resolve_conf(overrides: Optional[Mapping[str, object]] = None) -> Dict[str, object]:
    """A session's conf: defaults, then ``$REPRO_CONF``, then ``overrides``.

    Every declared key comes back typed.  An undeclared key under a session
    prefix raises ``ValueError``; any other key passes through untouched.
    """
    conf = dict(DEFAULT_CONF)
    conf.update(_env_overrides())
    conf.update(overrides or {})
    for key in conf:
        if key in DEFAULT_CONF:
            conf[key] = conf_value(conf, key)
        elif key.startswith(SESSION_PREFIXES):
            raise ValueError(f"unknown session conf key {key!r}")
    return conf


__all__ = ["DEFAULT_CONF", "conf_flag", "conf_value", "resolve_conf"]
