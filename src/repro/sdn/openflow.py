"""OpenFlow-style flow matches, actions and rules."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from repro.exceptions import SdnError
from repro.net.addresses import MACAddress
from repro.net.flow import FlowKey
from repro.net.packet import Packet


class FlowAction(str, enum.Enum):
    """What to do with traffic matching a rule."""

    FORWARD = "forward"
    DROP = "drop"
    SEND_TO_CONTROLLER = "send_to_controller"


@dataclass(frozen=True)
class FlowMatch:
    """An OpenFlow-like match over packet header fields.

    ``None`` fields are wildcards.  MAC matches let the Security Gateway
    express per-device rules (the paper keys enforcement rules on device
    MAC addresses); IP/port matches express the finer-grained restrictions
    of the *restricted* isolation level.
    """

    src_mac: Optional[MACAddress] = None
    dst_mac: Optional[MACAddress] = None
    src_ip: Optional[str] = None
    dst_ip: Optional[str] = None
    protocol: Optional[str] = None
    src_port: Optional[int] = None
    dst_port: Optional[int] = None

    def matches_packet(self, packet: Packet) -> bool:
        """True when the packet satisfies every non-wildcard field."""
        return self.matches_flow(FlowKey.from_packet(packet), packet.src_mac, packet.dst_mac)

    def matches_flow(self, key: Optional[FlowKey], src_mac: Optional[MACAddress] = None,
                     dst_mac: Optional[MACAddress] = None) -> bool:
        """True when a flow key (plus optional MACs) satisfies the match."""
        if self.src_mac is not None and src_mac != self.src_mac:
            return False
        if self.dst_mac is not None and dst_mac != self.dst_mac:
            return False
        return self._matches_key_fields(key)

    def _matches_key_fields(self, key: Optional[FlowKey]) -> bool:
        if key is None:  # non-IP traffic satisfies only IP-wildcard matches
            return (self.src_ip is None and self.dst_ip is None and self.protocol is None
                    and self.src_port is None and self.dst_port is None)
        if self.src_ip is not None and key.src_ip != self.src_ip:
            return False
        if self.dst_ip is not None and key.dst_ip != self.dst_ip:
            return False
        if self.protocol is not None and key.protocol != self.protocol:
            return False
        if self.src_port is not None and key.src_port != self.src_port:
            return False
        if self.dst_port is not None and key.dst_port != self.dst_port:
            return False
        return True

    @property
    def specificity(self) -> int:
        """Number of non-wildcard fields (used for tie-breaking priorities)."""
        return sum(
            value is not None
            for value in (
                self.src_mac,
                self.dst_mac,
                self.src_ip,
                self.dst_ip,
                self.protocol,
                self.src_port,
                self.dst_port,
            )
        )


@dataclass
class FlowRule:
    """A prioritised match/action rule installed in the switch flow table."""

    match: FlowMatch
    action: FlowAction
    priority: int = 0
    cookie: str = ""
    packet_count: int = field(default=0, compare=False)

    def __post_init__(self) -> None:
        if self.priority < 0:
            raise SdnError(f"rule priority cannot be negative: {self.priority}")

    def record_hit(self) -> None:
        self.packet_count += 1
