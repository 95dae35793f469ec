"""A software switch with a priority-ordered flow table (Open vSwitch stand-in)."""

from __future__ import annotations

import enum
from bisect import insort
from dataclasses import dataclass, field
from heapq import merge
from typing import Callable, Optional

from repro.exceptions import SdnError
from repro.net.addresses import MACAddress
from repro.net.flow import FlowKey
from repro.net.packet import Packet
from repro.sdn.openflow import FlowAction, FlowRule


class SwitchPort(str, enum.Enum):
    """The logical ports of the Security Gateway switch (Fig. 1)."""

    WIFI = "wifi"
    ETHERNET = "eth0"
    UPLINK = "uplink"
    LOCAL = "local"


@dataclass(frozen=True)
class ForwardingDecision:
    """The outcome of processing one packet through the switch."""

    action: FlowAction
    rule: Optional[FlowRule]
    sent_to_controller: bool = False

    @property
    def forwarded(self) -> bool:
        return self.action == FlowAction.FORWARD

    @property
    def dropped(self) -> bool:
        return self.action == FlowAction.DROP


#: One flow-table entry: (-priority, -specificity, install sequence, rule).
#: Sorting entries ascending ranks them the way the switch matches them.
_Entry = tuple[int, int, int, FlowRule]


@dataclass
class OpenVSwitch:
    """A minimal Open vSwitch model: flow table, packet-in, statistics.

    Packets are matched against the flow table in priority order, ties
    broken by match specificity and then by install order.  Misses are
    handed to the controller's packet-in handler when one is registered,
    otherwise the ``default_action`` applies.

    The table is indexed by ``match.src_mac`` (the paper keys enforcement
    rules on device MACs): one ranked bucket per source MAC plus the
    ``None`` bucket of rules that wildcard it.  A lookup reads only the
    packet's own bucket and the wildcard bucket; a cookie removal only the
    buckets that hold the cookie.
    """

    name: str = "ovs-br0"
    default_action: FlowAction = FlowAction.FORWARD
    packet_in_handler: Optional[Callable[[Packet, "OpenVSwitch"], Optional[FlowAction]]] = None

    packets_processed: int = 0
    packets_dropped: int = 0
    packets_to_controller: int = 0
    port_of_device: dict[MACAddress, SwitchPort] = field(default_factory=dict)

    _buckets: dict[Optional[MACAddress], list[_Entry]] = field(
        default_factory=dict, init=False, repr=False
    )
    _cookie_macs: dict[str, dict[Optional[MACAddress], None]] = field(
        default_factory=dict, init=False, repr=False
    )
    _installed: int = field(default=0, init=False, repr=False)

    # ------------------------------------------------------------------ #
    # Flow table management.
    # ------------------------------------------------------------------ #
    def install_rule(self, rule: FlowRule) -> None:
        """Install a rule into its source-MAC bucket, ranked on insertion."""
        self._installed += 1
        mac = rule.match.src_mac
        insort(self._buckets.setdefault(mac, []),
               (-rule.priority, -rule.match.specificity, self._installed, rule))
        self._cookie_macs.setdefault(rule.cookie, {})[mac] = None

    def remove_rules(self, cookie: str) -> int:
        """Remove every rule carrying ``cookie``; returns the removal count."""
        if not cookie:
            raise SdnError("a non-empty cookie is required to remove rules")
        removed = 0
        for mac in self._cookie_macs.pop(cookie, ()):
            bucket = self._buckets[mac]
            kept = [entry for entry in bucket if entry[3].cookie != cookie]
            removed += len(bucket) - len(kept)
            if kept:
                self._buckets[mac] = kept
            else:
                del self._buckets[mac]
        return removed

    def flush(self) -> None:
        """Drop the entire flow table."""
        self._buckets.clear()
        self._cookie_macs.clear()

    @property
    def rules(self) -> tuple[FlowRule, ...]:
        """The whole table in match order (a read-only copy, for introspection)."""
        return tuple(entry[3] for entry in merge(*self._buckets.values()))

    @property
    def rule_count(self) -> int:
        return sum(len(bucket) for bucket in self._buckets.values())

    # ------------------------------------------------------------------ #
    # Port learning (which devices sit behind which interface).
    # ------------------------------------------------------------------ #
    def learn_port(self, mac: MACAddress, port: SwitchPort) -> None:
        self.port_of_device[mac] = port

    def port_of(self, mac: MACAddress) -> Optional[SwitchPort]:
        return self.port_of_device.get(mac)

    # ------------------------------------------------------------------ #
    # Datapath.
    # ------------------------------------------------------------------ #
    def lookup(self, packet: Packet) -> Optional[FlowRule]:
        """Find the highest-ranked rule matching the packet, if any."""
        own = self._buckets.get(packet.src_mac, ())
        wildcard = self._buckets.get(None, ())
        if not own and not wildcard:
            return None
        key = FlowKey.from_packet(packet)
        src_mac, dst_mac = packet.src_mac, packet.dst_mac
        best: Optional[_Entry] = None
        for entry in own:
            if entry[3].match.matches_flow(key, src_mac, dst_mac):
                best = entry
                break
        for entry in wildcard:
            if best is not None and entry > best:
                break
            if entry[3].match.matches_flow(key, src_mac, dst_mac):
                return entry[3]
        return best[3] if best is not None else None

    def process(self, packet: Packet, ingress_port: Optional[SwitchPort] = None) -> ForwardingDecision:
        """Process one packet: match, apply the action, update statistics."""
        self.packets_processed += 1
        if ingress_port is not None:
            self.learn_port(packet.src_mac, ingress_port)

        rule = self.lookup(packet)
        if rule is not None:
            rule.record_hit()
            action = rule.action
            sent_to_controller = False
            if action == FlowAction.SEND_TO_CONTROLLER:
                action = self._ask_controller(packet)
                sent_to_controller = True
            if action == FlowAction.DROP:
                self.packets_dropped += 1
            return ForwardingDecision(action=action, rule=rule, sent_to_controller=sent_to_controller)

        if self.packet_in_handler is not None:
            action = self._ask_controller(packet)
            if action == FlowAction.DROP:
                self.packets_dropped += 1
            return ForwardingDecision(action=action, rule=None, sent_to_controller=True)

        if self.default_action == FlowAction.DROP:
            self.packets_dropped += 1
        return ForwardingDecision(action=self.default_action, rule=None)

    def _ask_controller(self, packet: Packet) -> FlowAction:
        self.packets_to_controller += 1
        if self.packet_in_handler is None:
            return self.default_action
        decision = self.packet_in_handler(packet, self)
        return decision if decision is not None else self.default_action
