"""Heartbeat speed reporting (§III-B).

"Client records the transmission speed of data blocks … and sends these
records to the namenode every three seconds by remote procedure calls
(RPCs), following the default heartbeat mechanism in Hadoop."
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..sim import Interrupt, ProcessGenerator
from .records import SpeedRecords

if TYPE_CHECKING:  # pragma: no cover
    from ..hdfs.namenode import Namenode

__all__ = ["speed_reporter"]


def speed_reporter(
    namenode: "Namenode",
    client_name: str,
    records: SpeedRecords,
    interval: float,
) -> ProcessGenerator:
    """Background process: push dirty speed records every ``interval``.

    Only sends when new samples exist, mirroring Hadoop's heartbeat
    piggybacking (the beat always happens; the payload only when there is
    something to report — we skip the empty beats to keep the event count
    down, the namenode-side effect is identical).

    The owning client interrupts the loop when its upload completes (the
    pending interval timer is left abandoned, and a drain drops it, see
    ``Environment._drain``); the stop is journalled so traces show when a
    client's heartbeat traffic ceased.
    """
    env = namenode.env
    try:
        while True:
            yield env.timeout(interval)
            if records.take_dirty():
                yield from namenode.client_heartbeat(
                    client_name, records.snapshot()
                )
    except Interrupt as stop:
        namenode.journal.emit(
            env.now,
            "reporter_stopped",
            f"client:{client_name}",
            client=client_name,
            cause=str(stop.cause) if stop.cause is not None else "",
        )
        return
