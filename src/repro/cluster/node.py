"""Base class for cluster nodes (CNs, DNs, and the GTM server wrapper).

Every node owns: a network endpoint, a drifting physical clock synced
against its region's time device, a GClock source, and a timestamp
provider. Node code never reads simulated true time — only its own clock.
"""

from __future__ import annotations

from repro.clocks import (
    ClockSyncConfig,
    ClockSyncDaemon,
    GClockSource,
    GlobalTimeDevice,
    PhysicalClock,
)
from repro.sim.core import Environment
from repro.sim.network import Message, Network, Request
from repro.sim.rand import RandomStreams
from repro.txn.modes import TxnMode
from repro.txn.provider import TimestampProvider


class ClusterNode:
    """A machine in the cluster."""

    def __init__(self, env: Environment, network: Network, name: str,
                 region: str, time_device: GlobalTimeDevice,
                 streams: RandomStreams, gtm_name: str,
                 mode: TxnMode = TxnMode.GTM,
                 sync_config: ClockSyncConfig | None = None):
        self.env = env
        self.network = network
        self.name = name
        self.region = region
        self.endpoint = network.add_endpoint(name, region, handler=self._on_message)
        self.clock = PhysicalClock(env, name, streams.stream(f"clock:{name}"))
        self.sync = ClockSyncDaemon(env, self.clock, time_device,
                                    sync_config or ClockSyncConfig(), name=name)
        self.gclock = GClockSource(env, self.clock, self.sync)
        self.provider = TimestampProvider(env, network, name, self.gclock,
                                          gtm_name, mode=mode)
        self.failed = False
        # Precomputed RPC dispatch: request kind -> bound handler. Built
        # once per node instead of a getattr on every request (the hot
        # path for every simulated RPC; see simlint SIM112).
        self._request_handlers = {
            attr[len("_handle_"):]: getattr(self, attr)
            for attr in dir(self) if attr.startswith("_handle_")
        }

    # ------------------------------------------------------------------
    @property
    def mode(self) -> TxnMode:
        return self.provider.mode

    def fail(self) -> None:
        """Crash the node: it stops receiving and answering."""
        self.failed = True
        self.network.set_endpoint_up(self.name, False)

    def recover(self) -> None:
        self.failed = False
        self.network.set_endpoint_up(self.name, True)

    # ------------------------------------------------------------------
    def _on_message(self, message: Message) -> None:
        if self.failed:
            return
        payload = message.payload
        if isinstance(payload, Request):
            self._on_request(payload)
        elif isinstance(payload, tuple) and payload:
            self._on_notice(payload, message)

    def _on_request(self, request: Request) -> None:
        """Dispatch an RPC via the precomputed handler table. Subclasses
        add handlers by defining ``_handle_<kind>`` methods."""
        handler = self._request_handlers.get(request.body[0])
        if handler is None:
            request.fail(ValueError(
                f"{self.name}: unknown request {request.body[0]!r}"))
            return
        handler(request)

    def _on_notice(self, payload: tuple, message: Message) -> None:
        """One-way messages (redo batches, acks, RCP updates)."""

    def _handle_set_mode(self, request: Request) -> None:
        mode = request.body[1]

        def run():
            yield from self.provider.set_mode(mode)
            request.reply(("ok", self.name))

        self.env.serve(run())
