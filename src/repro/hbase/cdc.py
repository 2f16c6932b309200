"""Change-data capture: a WAL-tailing change stream for base tables.

Materialized-view maintenance (docs/views.md) needs every Put and Delete
that lands in a base table, delivered exactly once and in a deterministic
order, regardless of region splits, balance moves and server crashes.  The
substrate already has the raw feed: each region server's write-ahead log
keeps every mutation batch tagged with its region, and
:meth:`~repro.hbase.wal.WriteAheadLog.entries_since` is a cursorable tail
over it.  The CDC stream turns that into a consumer abstraction:

- A **subscription** names a set of tables and a callback.  At subscribe
  time the stream snapshots every server WAL's current sequence id; only
  entries appended *after* that baseline are ever delivered, so a consumer
  that starts from a freshly materialized snapshot sees exactly the changes
  the snapshot missed.
- :meth:`CDCStream.pump` (driven from ``HBaseCluster.run_maintenance``, the
  same deterministic hook that splits regions and ships replicas) polls
  every server's WAL for every region the subscribed tables have ever
  owned.  Cursors are kept per ``(server, region)``: a region that moves --
  balance, split reassignment, crash failover -- leaves its history on the
  old server's WAL (still readable; WAL objects outlive their server's
  process) and starts a fresh tail on the new one, so nothing is lost and
  nothing is double-delivered.  Crash recovery replays unflushed cells
  straight into the replacement region's memstore *without* re-logging
  them, which keeps this exactly-once property through failovers.
- Shipping is billed like replication: batches, entries and bytes charge a
  cluster-owned :class:`~repro.common.metrics.CostLedger`
  (``hbase.cdc.*``), never a query ledger.
- :meth:`CDCStream.lag_s` prices the unshipped tail of a subscription in
  simulated seconds -- the freshness signal the optimizer checks against
  ``repro.sql.views.MAX_STALENESS_S`` before answering from a view.

With CDC never enabled (``cluster.cdc is None``, the default) nothing in
this module runs and every ledger stays byte-identical to the seed.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Set, Tuple

from repro.common.errors import HBaseError, NoSuchTableError
from repro.common.metrics import CostLedger
from repro.hbase.cell import Cell

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.hbase.cluster import HBaseCluster

#: a consumer callback: (table name, cells in delivery order) -> None
ChangeCallback = Callable[[str, List[Cell]], None]


class _Subscription:
    """One consumer's cursors over the subscribed tables' WAL tails."""

    __slots__ = ("name", "tables", "callback", "baseline", "cursors",
                 "seen_regions")

    def __init__(self, name: str, tables: Iterable[str],
                 callback: ChangeCallback,
                 baseline: Dict[str, int]) -> None:
        self.name = name
        self.tables = sorted(set(tables))
        self.callback = callback
        #: per server: the WAL sequence id current at subscribe time; a
        #: cursor that has never advanced starts here, so pre-subscription
        #: history (already in the consumer's snapshot) is never delivered
        self.baseline = baseline
        #: (server_id, region_name) -> last delivered sequence id
        self.cursors: Dict[Tuple[str, str], int] = {}
        #: per table: every region name seen while subscribed; regions keep
        #: their WAL history after they move or split, so the poll set must
        #: outlive the assignment map until each tail is fully drained
        self.seen_regions: Dict[str, Set[str]] = {t: set() for t in self.tables}


class CDCStream:
    """The change-data-capture hub for one cluster.

    Poll-based and deterministic: no background threads, no timestamps --
    delivery order is (table, server id, region name, WAL sequence), which
    makes maintenance replayable under the chaos suite's pinned seeds.
    """

    def __init__(self, cluster: "HBaseCluster") -> None:
        self.cluster = cluster
        #: background shipping cost; counters land in ``cluster.metrics``
        self.ledger = CostLedger(cluster.metrics)
        self._subscriptions: Dict[str, _Subscription] = {}

    # -- subscriptions -----------------------------------------------------
    def subscribe(self, name: str, tables: Iterable[str],
                  callback: ChangeCallback) -> _Subscription:
        """Start a change feed over ``tables`` from this instant onward."""
        if name in self._subscriptions:
            raise HBaseError(f"CDC subscription {name!r} already exists")
        baseline = {
            server_id: server.wal.last_sequence_id()
            for server_id, server in self.cluster.region_servers.items()
        }
        subscription = _Subscription(name, tables, callback, baseline)
        for table in subscription.tables:
            subscription.seen_regions[table] |= self._current_regions(table)
        self._subscriptions[name] = subscription
        return subscription

    def unsubscribe(self, name: str) -> None:
        self._subscriptions.pop(name, None)

    def subscription_names(self) -> List[str]:
        return sorted(self._subscriptions)

    def _current_regions(self, table: str) -> Set[str]:
        try:
            locations = self.cluster.region_locations(table)
        except NoSuchTableError:
            return set()
        return {loc.region_name for loc in locations}

    # -- shipping ----------------------------------------------------------
    def pump(self) -> int:
        """Drain every subscription's pending tail; returns entries shipped.

        Runs from ``HBaseCluster.run_maintenance`` after splits and balance
        moves, so newly created daughter regions are already assigned (and
        discoverable) by the time their first edits ship.
        """
        shipped = 0
        for name in sorted(self._subscriptions):
            subscription = self._subscriptions[name]
            for table in subscription.tables:
                shipped += self._pump_table(subscription, table)
        return shipped

    def _pump_table(self, subscription: _Subscription, table: str) -> int:
        current = self._current_regions(table)
        seen = subscription.seen_regions[table]
        seen |= current
        cells: List[Cell] = []
        entries_shipped = 0
        drained_offline: Set[str] = set()
        for region_name in sorted(seen):
            region_pending = 0
            for server_id in sorted(self.cluster.region_servers):
                wal = self.cluster.region_servers[server_id].wal
                key = (server_id, region_name)
                cursor = subscription.cursors.get(
                    key, subscription.baseline.get(server_id, 0))
                entries = wal.entries_since(region_name, cursor)
                if not entries:
                    continue
                subscription.cursors[key] = entries[-1].sequence_id
                region_pending += len(entries)
                for entry in entries:
                    # flush markers are empty batches; nothing to deliver
                    cells.extend(entry.cells)
                entries_shipped += len(entries)
            if not region_pending and region_name not in current:
                # the region is gone (split/merge/drop) and every server's
                # tail for it is drained; region names are never reused, so
                # its cursors can be retired for good
                drained_offline.add(region_name)
        for region_name in drained_offline:
            seen.discard(region_name)
            for server_id in self.cluster.region_servers:
                subscription.cursors.pop((server_id, region_name), None)
        if entries_shipped:
            payload = sum(c.heap_size() for c in cells)
            self.ledger.charge(self.cluster.cost.rpc_latency_s,
                               "hbase.cdc.ship_batches")
            self.ledger.charge(
                payload / self.cluster.cost.replication_bytes_per_sec,
                "hbase.cdc.bytes_shipped", payload)
            self.ledger.count("hbase.cdc.entries_shipped", entries_shipped)
            # shipping takes simulated time, and the shared clock must feel
            # it: the consumer's maintenance writes happen *after* the batch
            # they repair, so they need strictly newer cell timestamps --
            # a timestamp tie would let the older version shadow the newer
            self.cluster.clock.advance(
                self.cluster.cost.rpc_latency_s
                + payload / self.cluster.cost.replication_bytes_per_sec)
            if cells:
                subscription.callback(table, cells)
        return entries_shipped

    # -- freshness ---------------------------------------------------------
    def pending(self, name: str) -> Tuple[int, int]:
        """(entries, bytes) not yet shipped to subscription ``name``.

        A metadata peek -- real consumers know their WAL offsets -- so it
        charges nothing and advances no cursor.
        """
        subscription = self._subscriptions.get(name)
        if subscription is None:
            raise HBaseError(f"no CDC subscription {name!r}")
        entries = 0
        payload = 0
        for table in subscription.tables:
            seen = subscription.seen_regions[table] | self._current_regions(table)
            for region_name in sorted(seen):
                for server_id in sorted(self.cluster.region_servers):
                    wal = self.cluster.region_servers[server_id].wal
                    cursor = subscription.cursors.get(
                        (server_id, region_name),
                        subscription.baseline.get(server_id, 0))
                    for entry in wal.entries_since(region_name, cursor):
                        entries += 1
                        payload += sum(c.heap_size() for c in entry.cells)
        return entries, payload

    def lag_s(self, name: str) -> float:
        """The unshipped tail priced in simulated seconds (0.0 = caught up)."""
        entries, payload = self.pending(name)
        if not entries:
            return 0.0
        return (self.cluster.cost.rpc_latency_s
                + payload / self.cluster.cost.replication_bytes_per_sec)

    def __repr__(self) -> str:
        return (f"CDCStream({self.cluster.name}, "
                f"subscriptions={self.subscription_names()})")
