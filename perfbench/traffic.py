"""Seeded synthetic inputs: training data, device fleets and steady traffic.

Everything here is the benchmark's side of the wire.  The gateway only
ever receives the pcap files written from these packets and the model
bundle; the ground truth (MAC -> device type) stays here.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from repro.api import GatewayConfig
from repro.datasets.builder import FingerprintDataset, generate_fingerprint_dataset
from repro.datasets.storage import save_fingerprints
from repro.devices.catalog import DEVICE_CATALOG, DEVICE_NAMES
from repro.devices.simulator import LabEnvironment, SetupTrace, SetupTrafficSimulator
from repro.net.addresses import MACAddress
from repro.net.layers.arp import OP_REQUEST, ARPPacket
from repro.net.layers.ethernet import ETHERTYPE, EthernetFrame
from repro.net.layers.ipv4 import PROTO_TCP, PROTO_UDP, IPv4Header
from repro.net.layers.tcp import FLAG_ACK, FLAG_PSH, TCPSegment
from repro.net.layers.udp import UDPDatagram
from repro.net.packet import Packet
from repro.net.pcap import write_pcap
from repro.security_service.service import vendor_cloud_destinations
from repro.streaming.assembler import ShardedFingerprintAssembler
from repro.streaming.sources import interleave_traces, replay_trace

#: Setup runs per device type in the training set (the paper's n = 20).
TRAINING_RUNS_PER_TYPE = 20

#: The gateway the benchmark builds: its defaults set the stream timings.
_GATEWAY = GatewayConfig()
_IDLE_TIMEOUT_S = ShardedFingerprintAssembler(shards=_GATEWAY.shards).idle_timeout
#: Stream seconds between two devices joining.  An assumption: no source
#: gives the join rate of a rejoin burst.  It sets how full a dispatcher
#: batch gets before ``max_linger`` forces it out.  A burst that fills
#: whole batches (``max_linger / max_batch``) puts the verdict-latency p95
#: on the edge between devices that wait for a full batch and those that
#: do not; it then moved between ~80 and ~160 ms across iterations of one
#: seed.
JOIN_GAP_S = 2.0
#: Clones start joining this long after the last fresh setup packet, so
#: the originals' verdicts are cached by then: the assembler closes a quiet
#: capture after ``idle_timeout`` (swept every ``eviction_interval``) and
#: the dispatcher identifies it within ``max_linger``.
CLONE_DELAY_S = _IDLE_TIMEOUT_S + _GATEWAY.eviction_interval + _GATEWAY.max_linger
#: Stream seconds between two steady-state packets.  The forwarding path
#: reads a packet's timestamp only to stamp the sender's ``last_seen``, so
#: this orders the capture and changes no decision or cost.
STEADY_GAP_S = 0.005

_BROADCAST = MACAddress.broadcast()
#: Documentation range (RFC 5737): never a vendor cloud endpoint.
_INTERNET_PREFIX = "203.0.113"
#: The destination columns of the Sect. V policy table, one packet of each
#: in turn: a local peer (in either overlay), an allow-listed cloud
#: endpoint, another internet address, IP broadcast, non-IP.  Equal shares
#: are an assumption, not a measurement: the catalog's profiles describe
#: setup traffic only (no peer or non-cloud internet packets), so the mix
#: covers the policy table evenly instead.
_CLASS_PATTERN = ("peer", "cloud", "internet", "broadcast", "non-ip")


def derive_seed(seed: int, label: str) -> int:
    """An independent sub-seed for one input of one benchmark seed."""
    digest = hashlib.sha256(f"{seed}/{label}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def training_dataset(seed: int) -> FingerprintDataset:
    """The labelled fingerprints the identifier is trained on."""
    return generate_fingerprint_dataset(
        runs_per_type=TRAINING_RUNS_PER_TYPE, seed=derive_seed(seed, "train") % 2**32
    )


@dataclass(frozen=True)
class Device:
    mac: MACAddress
    ip: str
    device_type: str


@dataclass
class Fleet:
    """Setup traces in join order plus their ground truth."""

    traces: list[SetupTrace]

    @property
    def devices(self) -> list[Device]:
        return [Device(t.device_mac, t.device_ip, t.device_type) for t in self.traces]

    @property
    def truth(self) -> dict[MACAddress, str]:
        return {trace.device_mac: trace.device_type for trace in self.traces}

    def packets(self) -> list[Packet]:
        return list(interleave_traces(self.traces))

    @property
    def end_time(self) -> float:
        return max(trace.packets[-1].timestamp for trace in self.traces)


def _mac(oui: str, index: int) -> MACAddress:
    return MACAddress.from_string(
        f"{oui}:{(index >> 16) & 0xFF:02x}:{(index >> 8) & 0xFF:02x}:{index & 0xFF:02x}"
    )


def build_fleet(seed: int, fresh_per_type: int, clones_per_fresh: int) -> Fleet:
    """Fresh setups (round-robin over the catalog), then replayed clones.

    Every device gets a unique MAC (vendor OUI + a running index).  A
    clone replays a fresh device's setup trace byte for byte under its own
    MAC, so it yields that device's fingerprint: an identical model.
    """
    simulator = SetupTrafficSimulator(seed=derive_seed(seed, "fleet") % 2**32)
    traces: list[SetupTrace] = []
    for _ in range(fresh_per_type):
        for name in DEVICE_NAMES:
            profile = DEVICE_CATALOG[name]
            index = len(traces)
            traces.append(
                simulator.simulate(
                    profile, device_mac=_mac(profile.mac_oui, index), start_time=index * JOIN_GAP_S
                )
            )
    if clones_per_fresh:
        originals = list(traces)
        start = Fleet(originals).end_time + CLONE_DELAY_S
        clone = 0
        for _ in range(clones_per_fresh):
            for original in originals:
                index = len(traces)
                traces.append(
                    replay_trace(
                        original,
                        _mac(original.profile.mac_oui, index),
                        start + clone * JOIN_GAP_S - original.packets[0].timestamp,
                    )
                )
                clone += 1
    return Fleet(traces)


def steady_traffic(
    devices: Sequence[Device], count: int, seed: int, start_time: float
) -> list[Packet]:
    """Post-onboarding traffic of an identified fleet.

    Senders and peers each cycle through a seeded permutation of the
    fleet and classes follow :data:`_CLASS_PATTERN`, so every device sends
    and receives equally often and every class keeps its share; endpoints
    and payload sizes are drawn at random.  Peers are any other device, so
    both overlays are covered once the gateway has split the fleet.
    """
    rng = np.random.default_rng(derive_seed(seed, "steady") % 2**32)
    environment = LabEnvironment()
    clouds = {
        name: vendor_cloud_destinations(name, environment) for name in sorted(DEVICE_CATALOG)
    }
    senders = rng.permutation(len(devices))
    peers = rng.permutation(len(devices))
    peer_slot = 0
    packets: list[Packet] = []
    for index in range(count):
        cycle, slot = divmod(index, len(devices))
        source = devices[int(senders[slot])]
        # The pattern shifts by one every cycle, so no device is tied to
        # one class whatever the fleet size.
        kind = _CLASS_PATTERN[(index + cycle) % len(_CLASS_PATTERN)]
        timestamp = start_time + index * STEADY_GAP_S
        payload = bytes(int(rng.integers(0, 257)))
        if kind in ("broadcast", "non-ip"):
            packets.append(_broadcast(source, kind == "non-ip", timestamp))
            continue
        if kind == "peer":
            peer = devices[int(peers[peer_slot % len(devices)])]
            peer_slot += 1
            if peer.mac == source.mac:
                peer = devices[int(peers[peer_slot % len(devices)])]
                peer_slot += 1
            dst_mac, dst_ip, port = peer.mac, peer.ip, 8080
        else:
            endpoints = clouds[source.device_type] if kind == "cloud" else ()
            if endpoints:
                dst_ip = endpoints[int(rng.integers(0, len(endpoints)))]
            else:
                dst_ip = f"{_INTERNET_PREFIX}.{int(rng.integers(1, 255))}"
            dst_mac, port = environment.gateway_mac, 443
        packets.append(
            Packet(
                ethernet=EthernetFrame(dst=dst_mac, src=source.mac, ethertype=ETHERTYPE.IPV4),
                ipv4=IPv4Header(src=source.ip, dst=dst_ip, protocol=PROTO_TCP),
                tcp=TCPSegment(
                    src_port=40000 + index % 20000,
                    dst_port=port,
                    seq=index,
                    flags=FLAG_PSH | FLAG_ACK,
                    payload=payload,
                ),
                timestamp=timestamp,
            )
        )
    return packets


def _broadcast(source: Device, arp: bool, timestamp: float) -> Packet:
    ethertype = ETHERTYPE.ARP if arp else ETHERTYPE.IPV4
    frame = EthernetFrame(dst=_BROADCAST, src=source.mac, ethertype=ethertype)
    if arp:
        request = ARPPacket(
            operation=OP_REQUEST,
            sender_mac=source.mac,
            sender_ip=source.ip,
            target_mac=MACAddress.zero(),
            target_ip="192.168.0.1",
        )
        return Packet(ethernet=frame, arp=request, timestamp=timestamp)
    return Packet(
        ethernet=frame,
        ipv4=IPv4Header(src=source.ip, dst="255.255.255.255", protocol=PROTO_UDP),
        udp=UDPDatagram(src_port=1900, dst_port=1900, payload=b"M-SEARCH * HTTP/1.1\r\n\r\n"),
        timestamp=timestamp,
    )


def write_capture(path: Path, packets: Sequence[Packet]) -> int:
    """Write ``packets`` as a classic pcap; returns the file size in bytes."""
    write_pcap(path, packets)
    return path.stat().st_size


def write_inputs(
    workdir: Path, seed: int, fresh_per_type: int, clones_per_fresh: int, forward_packets: int
) -> None:
    """Write one run's inputs to ``workdir``.

    ``onboard.pcap`` (the fleet's setup traffic), ``forward.pcap`` (its
    steady-state traffic), ``truth.json`` (the ground-truth sidecar),
    ``training.json`` (the identifier's training set) and ``sizes.json``
    (packet and byte counts of the two captures).
    """
    fleet = build_fleet(seed, fresh_per_type, clones_per_fresh)
    onboard = fleet.packets()
    steady = steady_traffic(fleet.devices, forward_packets, seed, fleet.end_time + 60.0)
    (workdir / "truth.json").write_text(
        json.dumps({str(mac): kind for mac, kind in fleet.truth.items()}, indent=1, sort_keys=True)
    )
    save_fingerprints(workdir / "training.json", training_dataset(seed))
    sizes = {
        "onboard_packets": len(onboard),
        "onboard_bytes": write_capture(workdir / "onboard.pcap", onboard),
        "forward_packets": len(steady),
        "forward_bytes": write_capture(workdir / "forward.pcap", steady),
    }
    (workdir / "sizes.json").write_text(json.dumps(sizes))


if __name__ == "__main__":
    # python -m perfbench.traffic WORKDIR SEED FRESH_PER_TYPE CLONES_PER_FRESH FORWARD_PACKETS
    write_inputs(Path(sys.argv[1]), *(int(value) for value in sys.argv[2:6]))
