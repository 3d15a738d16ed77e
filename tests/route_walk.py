"""Queue-free forwarding walk-throughs.

:func:`trace_route` replays a packet's forwarding decisions (LPM + ECMP
hashing + local delivery) across a topology without simulating queues.  It
yields exactly the switch sequence the event engine would produce: the
tests' path ground truth for the fat-tree builder and the reverse-ECMP
classifier.
"""

from __future__ import annotations

from typing import List

from repro.net.packet import Packet
from repro.sim.switch import LOCAL_DELIVERY, Switch


class RoutingError(Exception):
    """A packet could not be routed (no route or a forwarding loop)."""


def trace_route(start: Switch, packet: Packet, max_hops: int = 64) -> List[Switch]:
    """Return the switch path *packet* takes from *start* to delivery.

    The path includes *start* and the delivering switch.  Raises
    :class:`RoutingError` on missing routes or loops longer than *max_hops*.
    """
    path = [start]
    current = start
    for _ in range(max_hops):
        target = current.route_port(packet)
        if target is LOCAL_DELIVERY:
            return path
        if target is None:
            raise RoutingError(f"no route for {packet!r} at {current.name}")
        port = current.ports[target]  # type: ignore[index]
        if port.neighbor is None:
            return path  # exits the modeled network at this port
        current = port.neighbor
        path.append(current)
    raise RoutingError(f"forwarding loop for {packet!r} (> {max_hops} hops)")
