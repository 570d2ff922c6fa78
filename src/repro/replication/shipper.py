"""Redo log shipping from a primary to one replica.

The shipper subscribes to the primary's WAL and forwards records in
batches. Batching policy: flush as soon as the pending batch reaches
``max_batch_bytes``, or after one flush window from the first pending
record — so a lone commit record doesn't wait around, but bulk traffic
amortizes per-message costs. The window is *backlog-keyed*: when the
destination replica is far behind (measured by its last reported applied
LSN), the window widens up to ``max_widen``x so catch-up traffic moves in
fewer, larger batches instead of paying per-flush overhead on a channel
whose freshness is already lost.

The shipper is pure callbacks — an append either triggers an inline flush
(size threshold) or arms one deferred flush timer for the whole window, so
an idle channel costs zero simulation events and a busy one costs one
timer per batch rather than a wake event per record.

Byte accounting per flush (this is where the paper's §V-A optimisations
act):

1. payload bytes are compressed (LZ4 model: fewer wire bytes, small CPU
   cost);
2. a Nagle penalty applies to sub-MSS flushes sent while the previous
   flush's ACK is outstanding;
3. the congestion model turns the link's raw bandwidth into an achievable
   rate for this flow — loss-based control collapses on high-RTT paths,
   BBR doesn't — and the shortfall becomes extra transmission delay.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass

from repro.obs.metrics import SIZE_BUCKETS
from repro.sim.core import Environment
from repro.sim.network import Network
from repro.sim.transport import TransportConfig
from repro.sim.units import ms, SECOND
from repro.storage.redo import RedoRecord
from repro.storage.wal import WalBuffer


@dataclass(frozen=True)
class ShipperConfig:
    """Batching and transport knobs for one shipping channel."""

    transport: TransportConfig
    max_batch_bytes: int = 64 * 1024
    flush_interval_ns: int = ms(1)
    #: Every ``backlog_per_widen`` records the destination is behind widens
    #: the flush window by one base interval (capped at ``max_widen``x).
    backlog_per_widen: int = 512
    max_widen: int = 8

    @classmethod
    def baseline(cls) -> "ShipperConfig":
        return cls(transport=TransportConfig.baseline())

    @classmethod
    def optimized(cls) -> "ShipperConfig":
        return cls(transport=TransportConfig.optimized())


def replica_backlog(primary, replica_name: str) -> typing.Callable[[], int]:
    """``backlog_fn`` for a primary->replica channel: how many records the
    replica has yet to apply, judged from the applied watermark its acks
    piggyback. Grows while the replica lags, so the shipper's flush window
    widens exactly when per-flush overhead buys nothing."""
    def backlog() -> int:
        return (primary.engine.wal.last_lsn
                - primary.acks.applied.get(replica_name, 0))
    return backlog


class LogShipper:
    """Ships one primary WAL to one replica endpoint."""

    def __init__(self, env: Environment, network: Network, wal: WalBuffer,
                 src: str, dst: str, config: ShipperConfig | None = None,
                 backlog_fn: typing.Callable[[], int] | None = None):
        self.env = env
        self.network = network
        self.wal = wal
        self.src = src
        self.dst = dst
        self.config = config or ShipperConfig.optimized()
        #: Returns how many records the destination has yet to apply;
        #: drives the backlog-keyed window widening. None => fixed window.
        self.backlog_fn = backlog_fn
        self._pending: list[RedoRecord] = []
        self._pending_bytes = 0
        self._last_send_at: int | None = None
        self.flushes = 0
        self.payload_bytes_total = 0
        self.wire_bytes_total = 0
        self.nagle_stall_ns_total = 0
        self.widened_windows = 0
        self.paused = False
        self._batch_opened_at = env.now
        #: Kernel handle of the armed flush timer; a size flush or a
        #: pause withdraws it.
        self._timer = None
        # Catch up on anything already in the WAL, then follow appends.
        for record in wal.records_from(0):
            self._pending.append(record)
            self._pending_bytes += record.wire_bytes
        wal.subscribe(self._on_append)
        if self._pending:
            if self._pending_bytes >= self.config.max_batch_bytes:
                self._flush()
            else:
                self._arm(self._window_ns())

    # ------------------------------------------------------------------
    def _on_append(self, record: RedoRecord) -> None:
        if not self._pending:
            self._batch_opened_at = self.env.now
        self._pending.append(record)
        self._pending_bytes += record.wire_bytes
        if self.paused:
            return  # hold records; resume() restarts the window
        if self._pending_bytes >= self.config.max_batch_bytes:
            self._cancel_timer()
            self._flush()
        elif self._timer is None:
            self._arm(self._window_ns())

    def _window_ns(self) -> int:
        base = self.config.flush_interval_ns
        backlog_fn = self.backlog_fn
        if backlog_fn is None:
            return base
        widen = 1 + backlog_fn() // self.config.backlog_per_widen
        if widen <= 1:
            return base
        self.widened_windows += 1
        return base * min(widen, self.config.max_widen)

    def _arm(self, delay_ns: int) -> None:
        self._cancel_timer()
        self._timer = self.env.defer(delay_ns, self._on_timer, None)

    def _cancel_timer(self) -> None:
        if self._timer is not None:
            self.env.withdraw(self._timer)
            self._timer = None

    def _on_timer(self, _arg) -> None:
        self._timer = None
        if not self.paused:
            self._flush()

    def _flush(self) -> None:
        records = self._pending
        payload_bytes = self._pending_bytes
        self._pending = []
        self._pending_bytes = 0
        if not records:
            return
        transport = self.config.transport
        wire_bytes, cpu_ns = transport.compression.compress(payload_bytes)
        rtt = self.network.rtt_ns(self.src, self.dst)
        since_last = (self.env.now - self._last_send_at
                      if self._last_send_at is not None else rtt)
        nagle_ns = transport.nagle.send_penalty_ns(wire_bytes, rtt, since_last)
        congestion_ns = self._congestion_penalty_ns(wire_bytes, rtt)
        self._last_send_at = self.env.now
        self.flushes += 1
        self.payload_bytes_total += payload_bytes
        self.wire_bytes_total += wire_bytes
        self.nagle_stall_ns_total += nagle_ns
        metrics = self.env.metrics
        if metrics.enabled:
            channel = f"{self.src}->{self.dst}"
            metrics.counter("ship.flushes", link=channel).inc()
            metrics.counter("ship.wire_bytes", link=channel).inc(wire_bytes)
            metrics.histogram("ship.batch_records", SIZE_BUCKETS,
                              link=channel).record(len(records))
            metrics.histogram("ship.batch_bytes", SIZE_BUCKETS,
                              link=channel).record(payload_bytes)
            metrics.histogram("ship.stall_ns", link=channel).record(
                cpu_ns + nagle_ns + congestion_ns)
            # How long the oldest record in this batch sat pending.
            metrics.histogram("ship.flush_age_ns", link=channel).record(
                self.env.now - self._batch_opened_at)
        tracer = self.env.tracer
        if tracer.enabled:
            tracer.complete("repl.ship", "flush", self._batch_opened_at,
                            self.env.now,
                            track=f"ship:{self.src}->{self.dst}",
                            records=len(records), payload_bytes=payload_bytes,
                            wire_bytes=wire_bytes)
        if self.env.series_on:
            series = self.env.series
            channel = f"{self.src}->{self.dst}"
            # Records are in LSN order: the last one is this channel's
            # send frontier (vs. the replica's repl.applied_lsn).
            series.gauge("repl.ship_lsn", records[-1].lsn, link=channel)
            series.counter("repl.ship_bytes", wire_bytes, link=channel)
        self.network.send(
            self.src, self.dst,
            payload=("redo_batch", self.src, records),
            size_bytes=wire_bytes,
            extra_delay_ns=cpu_ns + nagle_ns + congestion_ns)

    def _congestion_penalty_ns(self, wire_bytes: int, rtt: int) -> int:
        """Extra transmission delay from the flow not achieving link rate."""
        link = self.network.link(self.src, self.dst)
        if link.bandwidth_bps <= 0:
            return 0
        effective = self.config.transport.congestion.effective_bandwidth(
            link.bandwidth_bps, rtt)
        if effective >= link.bandwidth_bps or effective <= 0:
            return 0
        full = wire_bytes * 8 / link.bandwidth_bps
        achieved = wire_bytes * 8 / effective
        return round((achieved - full) * SECOND)

    # ------------------------------------------------------------------
    def pause(self) -> None:
        """Failure injection: stop shipping (records keep accumulating)."""
        self.paused = True
        self._cancel_timer()

    def resume(self) -> None:
        self.paused = False
        if self._pending:
            self._arm(self._window_ns())

    def compression_ratio_achieved(self) -> float:
        if not self.wire_bytes_total:
            return 1.0
        return self.payload_bytes_total / self.wire_bytes_total
