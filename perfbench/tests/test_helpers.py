"""Tests of the benchmark's own helpers.

Run from the repository root: ``python -m pytest perfbench/tests``.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from perfbench import harness
from perfbench.oracle import SectVPolicy
from perfbench.stats import InsufficientSamples, percentile
from perfbench.spans import Tracer
from perfbench.speed import REFERENCE_NOMINAL_S, SpeedTrack
from repro.gateway.enforcement import DeviceRecord, EnforcementRule, NetworkOverlay
from repro.net.addresses import MACAddress
from repro.net.layers.arp import OP_REQUEST, ARPPacket
from repro.net.layers.ethernet import ETHERTYPE, EthernetFrame
from repro.net.layers.ipv4 import PROTO_TCP, IPv4Header
from repro.net.layers.tcp import TCPSegment
from repro.net.packet import Packet
from repro.security_service.isolation import IsolationLevel

ROOT = Path(__file__).resolve().parents[2]


# --------------------------------------------------------------------- #
# Percentiles.
# --------------------------------------------------------------------- #
class TestPercentile:
    def test_interpolates_between_ranks(self):
        samples = [float(value) for value in range(1, 101)]  # 1..100
        assert percentile(samples, 50) == pytest.approx(50.5)
        assert percentile(samples, 90) == pytest.approx(90.1)

    def test_order_of_samples_does_not_matter(self):
        samples = [float((value * 37) % 200) for value in range(200)]
        assert percentile(samples, 95) == percentile(sorted(samples), 95)

    @pytest.mark.parametrize(
        "q, enough",
        [(50, 20), (95, 200), (99, 1000)],
    )
    def test_needs_ten_samples_beyond(self, q, enough):
        percentile([1.0] * enough, q)
        with pytest.raises(InsufficientSamples):
            percentile([1.0] * (enough - 1), q)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            percentile([1.0] * 100, 100)


# --------------------------------------------------------------------- #
# The Sect. V oracle.
# --------------------------------------------------------------------- #
GATEWAY_MAC = MACAddress.from_string("b0:c5:54:10:20:30")
CLOUD = "52.1.2.3"


def _mac(index: int) -> MACAddress:
    return MACAddress.from_string(f"02:00:00:00:00:{index:02x}")


def _record(index: int, level: IsolationLevel) -> DeviceRecord:
    mac = _mac(index)
    rule = EnforcementRule(
        device_mac=mac,
        isolation_level=level,
        allowed_destinations=(CLOUD,) if level is IsolationLevel.RESTRICTED else (),
    )
    return DeviceRecord(
        mac=mac,
        isolation_level=level,
        overlay=NetworkOverlay.for_isolation_level(level),
        enforcement_rule=rule,
    )


SOURCES = {
    "trusted": _record(1, IsolationLevel.TRUSTED),
    "restricted": _record(2, IsolationLevel.RESTRICTED),
    "strict": _record(3, IsolationLevel.STRICT),
    # Connected but not yet assessed: no enforcement rule.
    "unidentified": DeviceRecord(mac=_mac(4)),
}
TRUSTED_PEER = _record(5, IsolationLevel.TRUSTED)
UNTRUSTED_PEER = _record(6, IsolationLevel.RESTRICTED)
DEVICES = {
    record.mac: record for record in (*SOURCES.values(), TRUSTED_PEER, UNTRUSTED_PEER)
}


def _tcp(src: MACAddress, dst_mac: MACAddress, dst_ip: str) -> Packet:
    return Packet(
        ethernet=EthernetFrame(dst=dst_mac, src=src, ethertype=ETHERTYPE.IPV4),
        ipv4=IPv4Header(src="192.168.0.50", dst=dst_ip, protocol=PROTO_TCP),
        tcp=TCPSegment(src_port=40000, dst_port=443),
    )


def _destination(kind: str, src: MACAddress) -> Packet:
    if kind == "trusted peer":
        return _tcp(src, TRUSTED_PEER.mac, "192.168.0.20")
    if kind == "untrusted peer":
        return _tcp(src, UNTRUSTED_PEER.mac, "192.168.0.21")
    if kind == "permitted cloud":
        return _tcp(src, GATEWAY_MAC, CLOUD)
    if kind == "other internet":
        return _tcp(src, GATEWAY_MAC, "203.0.113.9")
    if kind == "broadcast":
        return _tcp(src, MACAddress.broadcast(), "255.255.255.255")
    arp = ARPPacket(
        operation=OP_REQUEST,
        sender_mac=src,
        sender_ip="192.168.0.50",
        target_mac=MACAddress.zero(),
        target_ip="192.168.0.1",
    )
    return Packet(
        ethernet=EthernetFrame(dst=MACAddress.broadcast(), src=src, ethertype=ETHERTYPE.ARP),
        arp=arp,
    )


DESTINATIONS = (
    "trusted peer", "untrusted peer", "permitted cloud", "other internet", "broadcast", "non-IP"
)
#: Sect. V, row per source isolation level, column per DESTINATIONS entry.
EXPECTED = {
    "trusted": (True, False, True, True, True, True),
    "restricted": (False, True, True, False, True, True),
    "strict": (False, True, False, False, True, True),
    "unidentified": (True, True, False, False, True, True),
}


@pytest.mark.parametrize("source", sorted(EXPECTED))
@pytest.mark.parametrize("column", range(len(DESTINATIONS)))
def test_sect_v_policy(source, column):
    packet = _destination(DESTINATIONS[column], SOURCES[source].mac)
    assert SectVPolicy(DEVICES).allows(packet) is EXPECTED[source][column]


def test_policy_finds_peers_by_ip_when_the_mac_is_the_router():
    peer = _record(7, IsolationLevel.RESTRICTED)
    peer.ip_address = "192.168.0.77"
    devices = {**DEVICES, peer.mac: peer}
    packet = _tcp(SOURCES["trusted"].mac, GATEWAY_MAC, "192.168.0.77")
    assert SectVPolicy(devices).allows(packet) is False


# --------------------------------------------------------------------- #
# Reduced-size runs.
# --------------------------------------------------------------------- #
TINY = harness.Workload(
    name="tiny",
    why="reduced-size onboarding for tests",
    primary="onboard",
    fresh_per_type=1,
    clones_per_fresh=1,
    forward_packets=300,
)


def _iteration(tmp_path, name, tracer=None):
    inputs = harness.make_inputs(TINY, seed=3, workdir=tmp_path / name)
    harness.setup_once(inputs)
    return inputs, harness.run_iteration(inputs, tracer)


def test_digest_is_stable_across_runs_of_one_seed(tmp_path):
    inputs, first = _iteration(tmp_path, "a")
    _, second = _iteration(tmp_path, "b")
    assert first.problems == [] and second.problems == []
    assert first.digest == second.digest
    assert first.attempted == len(inputs.truth) + TINY.forward_packets
    assert first.failed == 0
    assert 0 < first.correct_devices <= len(inputs.truth)


def test_an_iteration_samples_every_device_and_packet(tmp_path):
    inputs, iteration = _iteration(tmp_path, "samples")
    assert len(iteration.verdict_ms) == len(inputs.truth)
    assert len(iteration.forward_us) == inputs.forward_packets
    assert set(iteration.verdict_ms) == set(inputs.truth)
    assert min(iteration.verdict_ms.values()) > 0.0 and min(iteration.forward_us) > 0.0
    assert iteration.adjusted_s > 0.0 and iteration.slowdown > 0.0


class TestSpeedTrack:
    def test_the_clock_stops_while_the_reference_runs(self):
        track = SpeedTrack()
        start = track.now()
        track.checkpoint(samples=3)
        assert track.now() - start < min(track.reference_s)

    def test_stretches_scale_by_the_reference_at_their_ends(self):
        track = SpeedTrack()
        track.times = [0.0, 1.0, 3.0]
        track.reference_s = [REFERENCE_NOMINAL_S, 3 * REFERENCE_NOMINAL_S, REFERENCE_NOMINAL_S]
        # Both stretches ran at half the nominal speed: mean reference 2x.
        assert track.adjusted(0.0, 3.0) == pytest.approx(1.5)
        assert track.adjusted(0.5, 2.0) == pytest.approx(0.75)
        assert list(track.adjusted(np.array([0.0, 1.0]), np.array([1.0, 3.0]))) == pytest.approx(
            [0.5, 1.0]
        )

    def test_a_disabled_track_adjusts_nothing(self):
        track = SpeedTrack(enabled=False)
        track.checkpoint()
        assert track.times == [] and track.adjusted(1.0, 3.5) == pytest.approx(2.5)


def test_traced_self_times_add_up_to_the_wall(tmp_path):
    tracer = Tracer()
    _, iteration = _iteration(tmp_path, "traced", tracer)
    layers = harness.layer_metrics(tracer, iteration)
    self_times = [value for name, value in layers.items() if name in harness._LAYER_METRICS
                  and name.endswith("_s")]
    assert all(value >= 0.0 for value in self_times)
    # Nested spans are not counted twice: the self times fit in the wall.
    assert layers["unattributed_s"] >= 0.0
    assert layers["net.packets"] == iteration.packets
    assert layers["sink.busy_s"] > 0.0
    assert layers["assembler.fingerprints"] >= len(harness.traffic.DEVICE_NAMES)
    assert set(layers) | {"trace_overhead"} == set(harness.PER_LAYER)


def test_only_trusted_to_untrusted_packets_disagree(tmp_path):
    """The seed's blanket FORWARD rule for trusted devices is the only gap."""
    inputs = harness.make_inputs(TINY, seed=4, workdir=tmp_path / "oracle")
    harness.setup_once(inputs)
    handle = harness.build_stack(inputs, "oracle")
    handle.run_until_idle(harness.PcapReplaySource(inputs.onboard_pcap))
    policy = SectVPolicy(handle.gateway.devices)
    mismatched = []
    for packet in harness.PcapReplaySource(inputs.forward_pcap).packets():
        if handle.gateway.handle_packet(packet).forwarded != policy.allows(packet):
            mismatched.append(packet)
    handle.close()
    for packet in mismatched:
        source = handle.gateway.devices[packet.src_mac]
        peer = policy.destination(packet)
        assert source.isolation_level is IsolationLevel.TRUSTED
        assert peer is not None and peer.overlay is NetworkOverlay.UNTRUSTED


def test_benchmark_json_matches_the_harness():
    document = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = {entry["name"]: entry["why"] for entry in document["workloads"]}
    assert workloads == {name: item.why for name, item in harness.WORKLOADS.items()}
    assert {entry["name"]: entry["unit"] for entry in document["end_to_end"]} == harness.END_TO_END
    assert {entry["name"]: entry["unit"] for entry in document["per_layer"]} == harness.PER_LAYER
