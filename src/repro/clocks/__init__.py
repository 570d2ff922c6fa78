"""Clock substrate: drifting physical clocks, regional time devices, the
synchronization daemon, and timestamp sources.

The paper (§III) deploys a GPS + atomic-clock *global time device* per
regional cluster; machines sync against it every 1 millisecond over a
~60 microsecond TCP round trip, and CPU clock drift is bounded within
200 PPM. A GClock timestamp is ``T_clock + T_err`` with
``T_err = T_sync + T_drift`` (Eq. 1).

Node code never reads simulated true time directly — it only sees its
:class:`~repro.clocks.physical.PhysicalClock`, so external consistency
genuinely depends on the commit-wait protocol, as in the real system.
"""

from repro.clocks.gclock import GClockSource, GClockTimestamp
from repro.clocks.physical import PhysicalClock
from repro.clocks.sync import ClockSyncConfig, ClockSyncDaemon
from repro.clocks.time_device import GlobalTimeDevice

__all__ = [
    "PhysicalClock",
    "GlobalTimeDevice",
    "ClockSyncConfig",
    "ClockSyncDaemon",
    "GClockSource",
    "GClockTimestamp",
]
