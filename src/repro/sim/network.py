"""Simulated network: endpoints, links, messages, and RPC.

The model is a full mesh of point-to-point :class:`Link` objects. Each link
has a one-way propagation latency (plus optional jitter), a bandwidth, and a
serialization queue: back-to-back messages on the same link queue behind each
other, so redo-log bursts experience realistic transmission delay. Extra
delay can be injected per link to mimic the paper's ``tc``-based experiments
(Figs. 6b-6d).

Endpoints are named message sinks. A node registers a handler; messages are
delivered as :class:`Message` objects after the link delay. :meth:`Network.request`
layers a simple RPC on top: the callee receives a message whose payload is a
:class:`Request` and fires the caller's reply event via :meth:`Request.reply`.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass, field

from repro.errors import NetworkError, SimulationError
from repro.sim.core import Environment
from repro.sim.events import Event
from repro.sim.units import SECOND


@dataclass(slots=True)
class Message:
    """A delivered network message."""

    src: str
    dst: str
    payload: typing.Any
    size_bytes: int
    send_time: int
    deliver_time: int


def _payload_kind(payload: typing.Any) -> str:
    """A low-cardinality name for a message payload (for traces/metrics)."""
    if isinstance(payload, Request):
        body = payload.body
        if isinstance(body, tuple) and body and isinstance(body[0], str):
            return body[0]
        return type(body).__name__
    if isinstance(payload, tuple) and payload and isinstance(payload[0], str):
        return payload[0].strip("_")
    return type(payload).__name__


class Request:
    """RPC request payload wrapper.

    The handler on the destination endpoint calls :meth:`reply` (immediately
    or later, from a process) to complete the caller's pending event.
    """

    __slots__ = ("_network", "src", "dst", "body", "_reply_event", "replied")

    def __init__(self, network: "Network", src: str, dst: str, body: typing.Any,
                 reply_event: Event):
        self._network = network
        self.src = src
        self.dst = dst
        self.body = body
        self._reply_event = reply_event
        self.replied = False

    def reply(self, value: typing.Any = None, size_bytes: int = 128) -> None:
        """Send the reply back to the caller over the network."""
        if self.replied:
            raise SimulationError("RPC request already replied to")
        self.replied = True
        self._network.send(
            self.dst, self.src,
            payload=("__rpc_reply__", self._reply_event, value),
            size_bytes=size_bytes)

    def fail(self, exception: Exception) -> None:
        """Propagate ``exception`` to the caller instead of a value."""
        if self.replied:
            raise SimulationError("RPC request already replied to")
        self.replied = True
        self._network.send(
            self.dst, self.src,
            payload=("__rpc_fail__", self._reply_event, exception),
            size_bytes=64)


class _Reply(Event):
    """The caller's side of one RPC: the event :meth:`Network.request`
    returns, plus the :meth:`~repro.sim.core.Environment.arm` handle of
    its deadline while that is armed (withdrawn when the reply is
    consumed, dropped when it fires). A deadline withdrawn before it
    comes due never enters the queue."""

    __slots__ = ("dst", "deadline")


class Endpoint:
    """A named, addressable participant on the network."""

    __slots__ = ("name", "region", "handler", "up", "messages_received",
                 "bytes_received")

    def __init__(self, name: str, region: str,
                 handler: typing.Callable[[Message], None] | None = None):
        self.name = name
        self.region = region
        self.handler = handler
        self.up = True
        self.messages_received = 0
        self.bytes_received = 0


class Link:
    """A unidirectional link with latency, jitter, bandwidth and a FIFO
    serialization queue."""

    __slots__ = ("latency_ns", "bandwidth_bps", "jitter_ns", "extra_delay_ns",
                 "blocked", "busy_until", "bytes_sent", "messages_sent")

    def __init__(self, latency_ns: int, bandwidth_bps: float, jitter_ns: int = 0):
        self.latency_ns = latency_ns
        self.bandwidth_bps = bandwidth_bps
        self.jitter_ns = jitter_ns
        self.extra_delay_ns = 0  # tc-style injected delay
        self.blocked = False  # network partition: messages are dropped
        self.busy_until = 0  # serialization queue tail
        self.bytes_sent = 0
        self.messages_sent = 0

    def transmission_ns(self, size_bytes: int) -> int:
        """Time to clock ``size_bytes`` onto the wire."""
        if self.bandwidth_bps <= 0:
            return 0
        return round(size_bytes * 8 / self.bandwidth_bps * SECOND)

    def one_way_ns(self, jitter: int = 0) -> int:
        """Propagation delay including injected delay and sampled jitter."""
        return self.latency_ns + self.extra_delay_ns + jitter


class Network:
    """The cluster's message fabric."""

    def __init__(self, env: Environment, jitter_stream=None,
                 default_bandwidth_bps: float = 10e9 / 8 * 8):
        self.env = env
        self._endpoints: dict[str, Endpoint] = {}
        self._links: dict[tuple[str, str], Link] = {}
        self._jitter_stream = jitter_stream
        self.default_bandwidth_bps = default_bandwidth_bps
        self.default_latency_ns = 0
        self.messages_delivered = 0
        self.messages_dropped = 0
        self.rpc_timeouts = 0  # deadlines that came due before the reply

    # ------------------------------------------------------------------
    # Topology management
    # ------------------------------------------------------------------
    def add_endpoint(self, name: str, region: str,
                     handler: typing.Callable[[Message], None] | None = None) -> Endpoint:
        if name in self._endpoints:
            raise SimulationError(f"duplicate endpoint name: {name}")
        endpoint = Endpoint(name, region, handler)
        self._endpoints[name] = endpoint
        return endpoint

    def endpoint(self, name: str) -> Endpoint:
        try:
            return self._endpoints[name]
        except KeyError:
            raise NetworkError(f"unknown endpoint: {name}") from None

    def set_handler(self, name: str, handler: typing.Callable[[Message], None]) -> None:
        self.endpoint(name).handler = handler

    def set_link(self, src: str, dst: str, latency_ns: int,
                 bandwidth_bps: float | None = None, jitter_ns: int = 0,
                 bidirectional: bool = True) -> None:
        """Configure the link(s) between two endpoints."""
        bandwidth = bandwidth_bps if bandwidth_bps is not None else self.default_bandwidth_bps
        self._links[(src, dst)] = Link(latency_ns, bandwidth, jitter_ns)
        if bidirectional:
            self._links[(dst, src)] = Link(latency_ns, bandwidth, jitter_ns)

    def link(self, src: str, dst: str) -> Link:
        """Return (creating lazily) the link from ``src`` to ``dst``."""
        key = (src, dst)
        existing = self._links.get(key)
        if existing is None:
            existing = Link(self.default_latency_ns, self.default_bandwidth_bps)
            self._links[key] = existing
        return existing

    def inject_delay_between_regions(self, extra_ns: int) -> None:
        """tc-style extra one-way delay between machines only (Figs.
        6b-6d): links whose endpoints are in different regions (= different
        servers). Same-server traffic is unaffected, as in the paper."""
        names = list(self._endpoints)
        for src in names:
            for dst in names:
                if (src != dst and self._endpoints[src].region
                        != self._endpoints[dst].region):
                    self.link(src, dst).extra_delay_ns = extra_ns

    def set_endpoint_up(self, name: str, up: bool) -> None:
        """Bring an endpoint up or down (failure injection)."""
        self.endpoint(name).up = up

    def set_partition(self, region_a: str, region_b: str,
                      blocked: bool = True) -> None:
        """Partition (or heal) the network between two regions: every
        message crossing the cut is silently dropped, in both directions."""
        for src, src_endpoint in self._endpoints.items():
            for dst, dst_endpoint in self._endpoints.items():
                if src == dst:
                    continue
                regions = {src_endpoint.region, dst_endpoint.region}
                if regions == {region_a, region_b}:
                    self.link(src, dst).blocked = blocked

    def latency_ns(self, src: str, dst: str) -> int:
        """The current base one-way latency src -> dst (no jitter)."""
        if src == dst:
            return 0
        return self.link(src, dst).one_way_ns()

    def rtt_ns(self, src: str, dst: str) -> int:
        """Round-trip latency between two endpoints (no jitter)."""
        return self.latency_ns(src, dst) + self.latency_ns(dst, src)

    # ------------------------------------------------------------------
    # Messaging
    # ------------------------------------------------------------------
    def send(self, src: str, dst: str, payload: typing.Any,
             size_bytes: int = 128, extra_delay_ns: int = 0) -> None:
        """Send a one-way message. Delivery is silent about failures:
        messages to a down endpoint are dropped (counted)."""
        env = self.env
        endpoints = self._endpoints
        if src not in endpoints:
            raise NetworkError(f"unknown source endpoint: {src}")
        if dst not in endpoints:
            raise NetworkError(f"unknown destination endpoint: {dst}")
        now = env.now
        if src == dst:
            deliver_at = now
        else:
            link = self.link(src, dst)
            if link.blocked:
                self.messages_dropped += 1
                if env.metrics_on:
                    env.metrics.counter("net.dropped", src=src, dst=dst).inc()
                return
            jitter = 0
            if link.jitter_ns and self._jitter_stream is not None:
                jitter = self._jitter_stream.randint(0, link.jitter_ns)
            start_tx = now if now >= link.busy_until else link.busy_until
            tx = link.transmission_ns(size_bytes)
            link.busy_until = start_tx + tx
            link.bytes_sent += size_bytes
            link.messages_sent += 1
            deliver_at = start_tx + tx + link.one_way_ns(jitter)
        deliver_at += extra_delay_ns
        if env.metrics_on:
            metrics = env.metrics
            metrics.counter("net.messages", src=src, dst=dst).inc()
            metrics.counter("net.bytes", src=src, dst=dst).inc(size_bytes)
            metrics.histogram("net.delivery_ns").record(deliver_at - now)
        if env.trace_on and src != dst:
            # The delivery time is fully determined at send time, so the
            # whole in-flight interval can be recorded as one span.
            env.tracer.complete("net", _payload_kind(payload), now, deliver_at,
                                track=f"net:{src}->{dst}", size=size_bytes)
        san = env.san
        message = Message(src, dst, payload, size_bytes, now, deliver_at)
        if san is not None:
            # Fingerprint the payload as it leaves the sender; _deliver
            # re-verifies it just before the handler runs.
            san.on_message_send(message)
        env.defer(deliver_at - now, self._deliver, message)

    def _deliver(self, message: Message) -> None:
        san = self.env.san
        if san is not None:
            san.on_message_deliver(message)
        endpoint = self._endpoints.get(message.dst)
        if endpoint is None or not endpoint.up:
            self.messages_dropped += 1
            if self.env.metrics_on:
                self.env.metrics.counter("net.dropped", src=message.src,
                                         dst=message.dst).inc()
            return
        self.messages_delivered += 1
        endpoint.messages_received += 1
        endpoint.bytes_received += message.size_bytes
        payload = message.payload
        if isinstance(payload, tuple) and payload and payload[0] in (
                "__rpc_reply__", "__rpc_fail__"):
            kind, reply_event, value = payload
            if reply_event.triggered:
                return  # caller timed out / gave up
            deadline = reply_event.deadline
            if deadline is not None:
                reply_event.deadline = None
                self.env.withdraw(deadline)
            self.env.resolve(reply_event, kind == "__rpc_reply__", value)
            return
        if endpoint.handler is None:
            raise SimulationError(f"endpoint {message.dst!r} has no handler")
        endpoint.handler(message)

    def request(self, src: str, dst: str, body: typing.Any,
                size_bytes: int = 128, timeout_ns: int | None = None) -> Event:
        """RPC: returns an event that fires with the callee's reply.

        If the destination is down at send time, or ``timeout_ns`` elapses
        first, the event fails with :class:`NetworkError`.
        """
        reply_event = _Reply(self.env)
        reply_event.deadline = None
        destination = self.endpoint(dst)
        if not destination.up:
            reply_event.fail(NetworkError(f"endpoint {dst} is down"))
            reply_event.defused = True
            return reply_event
        request = Request(self, src, dst, body, reply_event)
        self.send(src, dst, payload=request, size_bytes=size_bytes)
        if timeout_ns is not None:
            reply_event.dst = dst
            reply_event.deadline = self.env.arm(timeout_ns, self._expire, reply_event)
        return reply_event

    def _expire(self, reply_event: "_Reply") -> None:
        reply_event.deadline = None  # the entry refers back: break the cycle
        if not reply_event.triggered:
            self.rpc_timeouts += 1
            reply_event.fail(NetworkError(f"RPC to {reply_event.dst} timed out"))


@dataclass
class NetworkStats:
    """Aggregate counters useful in tests and benchmark reports."""

    messages_delivered: int = 0
    messages_dropped: int = 0
    bytes_by_link: dict = field(default_factory=dict)

    @classmethod
    def capture(cls, network: Network) -> "NetworkStats":
        stats = cls(network.messages_delivered, network.messages_dropped)
        stats.bytes_by_link = {
            pair: link.bytes_sent for pair, link in network._links.items() if link.bytes_sent
        }
        return stats
