"""The Sect. V forwarding policy, computed from the gateway's device records.

This is the benchmark's independent statement of what the gateway should
do with a packet; forwarding decisions that disagree with it are counted
as failed operations.

==============  ======================  =========================  ==========================
source          local peer, trusted     local peer, untrusted      non-local (internet)
==============  ======================  =========================  ==========================
trusted         allow                   deny                       allow
restricted      deny                    allow                      allow iff allow-listed
strict          deny                    allow                      deny
unidentified    allow                   allow                      deny
==============  ======================  =========================  ==========================

Broadcast, multicast and non-IP traffic is local infrastructure traffic
and is allowed for every source that has no trusted-overlay restriction
to enforce (all four rows).
"""

from __future__ import annotations

from typing import Mapping, Optional

from repro.gateway.enforcement import DeviceRecord, NetworkOverlay
from repro.net.addresses import MACAddress
from repro.net.packet import Packet
from repro.security_service.isolation import IsolationLevel


class SectVPolicy:
    """Expected forwarding decisions for one snapshot of device records."""

    def __init__(self, devices: Mapping[MACAddress, DeviceRecord]):
        self.devices = devices
        self.by_ip = {
            record.ip_address: record for record in devices.values() if record.ip_address
        }

    def destination(self, packet: Packet) -> Optional[DeviceRecord]:
        record = self.devices.get(packet.dst_mac)
        if record is None and packet.dst_ip:
            record = self.by_ip.get(packet.dst_ip)
        return record

    def allows(self, packet: Packet) -> bool:
        """True when Sect. V says the packet may be forwarded."""
        source = self.devices.get(packet.src_mac)
        rule = source.enforcement_rule if source is not None else None
        peer = self.destination(packet)
        infrastructure = (
            packet.dst_mac.is_broadcast or packet.dst_mac.is_multicast or not packet.has_ip
        )
        if rule is None:
            return peer is not None or infrastructure
        level = rule.isolation_level
        if peer is not None:
            if level is IsolationLevel.TRUSTED:
                return peer.overlay is NetworkOverlay.TRUSTED
            return peer.overlay is NetworkOverlay.UNTRUSTED
        if infrastructure or level is IsolationLevel.TRUSTED:
            return True
        if level is IsolationLevel.RESTRICTED:
            return rule.permits_destination(packet.dst_ip or "")
        return False
