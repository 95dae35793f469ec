"""Differential suite: the columnar gateway facade against the per-packet oracle.

``GatewayHandle.run_until_idle()`` and ``stream()`` drive
``StreamingPipeline.run_batched``: the assembler folds packets in bulk, then
dispatch is replayed at each trigger packet in packet order.  The per-packet
``StreamingPipeline.run`` is the reference.  Every seeded stream below runs
through identically built gateways on both paths, and the paths must agree
byte for byte: the evidence ledger, the order of verdicts and the
``PipelineStats`` counters, at every batch size.

The streams are built to reach each edge of the replay: a linger flush on
the first and the last packet of a batch, a linger deadline whose float
rounding disagrees with the poll predicate, an eviction sweep on a packet
that also completes a fingerprint, a capture restarting inside a batch
after another device's began, ``max_batch`` fills, DROP backpressure and
an early ``break`` out of ``stream()``.  Three seeded mutations of the
replay must each be caught.  The stream clock must also read the same
after a batch as after the same packets one by one, also where a step
``now += t - now`` rounds off ``t``.
"""

from __future__ import annotations

import json
import math
import random
import tempfile
from contextlib import closing
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import pytest

from repro.api import GatewayConfig, build_gateway
from repro.devices.catalog import DEVICE_CATALOG
from repro.devices.simulator import SetupTrafficSimulator
from repro.net.addresses import MACAddress
from repro.obs.evidence import KIND_VERDICT
from repro.obs.ledger import ledger_files
from repro.simulation.clock import SimulatedClock
from repro.net.batch import PacketBatch
from repro.streaming import BatchDispatcher, ShardedFingerprintAssembler, StreamingPipeline
from repro.streaming.sources import IterableSource, interleave_traces, replay_trace
from tests.conftest import SMALL_DEVICE_SET

BATCH_SIZES = (1, 7, 64, 256, 2048)
#: The edge stream's linger deadline and trigger packet.  ``TRIGGER_TIME +
#: MAX_LINGER`` rounds up, so the double just below it is already due by
#: the poll predicate although it sorts before the rounded deadline.
MAX_LINGER = 100.0
TRIGGER_TIME = 16.019
EARLY_DUE = math.nextafter(TRIGGER_TIME + MAX_LINGER, -math.inf)
TICK_S = 2.0


def _mac(group: int, index: int) -> MACAddress:
    return MACAddress.from_string(f"02:70:00:00:{group:02x}:{index:02x}")


def _retimed(packets, mac: MACAddress, start: float, gap: float = 0.05) -> list:
    """``packets`` sent by ``mac``, ``gap`` seconds apart from ``start``."""
    return [
        replace(packet, ethernet=replace(packet.ethernet, src=mac), timestamp=start + i * gap)
        for i, packet in enumerate(packets)
    ]


def onboarding_stream(seed: int) -> list:
    """Fresh joins, a budget-length talker, a returning device, clones, more joins."""
    simulator = SetupTrafficSimulator(seed=seed)
    fresh = [
        simulator.simulate(
            DEVICE_CATALOG[SMALL_DEVICE_SET[index % len(SMALL_DEVICE_SET)]],
            device_mac=_mac(0, index),
            start_time=index * 0.5,
        )
        for index in range(12)
    ]
    traces = list(fresh)
    # 300 packets 20 ms apart: the 250-packet budget completes mid-stream.
    talker = simulator.simulate(DEVICE_CATALOG["HueBridge"])
    repeated = [packet for _ in range(15) for packet in talker.packets][:300]
    traces.append(replace(talker, packets=_retimed(repeated, _mac(1, 0), 3.0, gap=0.02)))
    # A device that falls silent for 12 s and then speaks again: its own
    # packet ends the capture (the adaptive end-of-setup rule).
    returning = simulator.simulate(DEVICE_CATALOG["Aria"])
    first = _retimed(returning.packets, _mac(1, 1), 1.0)
    again = _retimed(returning.packets, _mac(1, 1), first[-1].timestamp + 12.0)
    traces.append(replace(returning, device_mac=_mac(1, 1), packets=first + again))
    start = max(trace.packets[-1].timestamp for trace in traces) + 30.0
    for clone, original in enumerate(fresh[:6]):
        traces.append(
            replay_trace(original, _mac(2, clone), start + clone - original.packets[0].timestamp)
        )
    # A second wave of fresh joins after the clones.
    start += 10.0
    for index in range(12):
        traces.append(
            simulator.simulate(
                DEVICE_CATALOG[SMALL_DEVICE_SET[-1 - index % len(SMALL_DEVICE_SET)]],
                device_mac=_mac(5, index),
                start_time=start + index * 0.5,
            )
        )
    return list(interleave_traces(traces))


def burst_stream(seed: int) -> list:
    """Twenty-four devices joining within a quarter second."""
    simulator = SetupTrafficSimulator(seed=seed)
    traces = [
        simulator.simulate(
            DEVICE_CATALOG[SMALL_DEVICE_SET[index % len(SMALL_DEVICE_SET)]],
            device_mac=_mac(3, index),
            start_time=index * 0.01,
        )
        for index in range(24)
    ]
    return list(interleave_traces(traces))


def edge_stream(seed: int) -> list:
    """Hand-timed packets around one trigger packet at ``TRIGGER_TIME``.

    Device C sets up and falls silent; device A sets up just after.  At
    ``TRIGGER_TIME`` A speaks again after 14 s of silence, which completes
    its capture, and the eviction sweep due at that same packet completes
    C's (idle for over 15 s).  Both miss the cache and linger in the queue.
    A ticker device B then sends a packet every ``TICK_S`` seconds, plus
    one at ``EARLY_DUE``, where the poll flushes them.
    """
    simulator = SetupTrafficSimulator(seed=seed)
    c_packets = _retimed(simulator.simulate(DEVICE_CATALOG["Aria"]).packets, _mac(4, 0), 0.0)
    a_trace = simulator.simulate(DEVICE_CATALOG["SmarterCoffee"])
    a_packets = _retimed(a_trace.packets, _mac(4, 1), c_packets[-1].timestamp + 0.05)
    a_packets.append(replace(a_packets[-1], timestamp=TRIGGER_TIME))
    b_packets = [
        replace(a_packets[0], ethernet=replace(a_packets[0].ethernet, src=_mac(4, 2)), timestamp=t)
        for t in [TRIGGER_TIME + k * TICK_S for k in range(1, 53)] + [EARLY_DUE]
    ]
    return sorted(c_packets + a_packets + b_packets, key=lambda packet: packet.timestamp)


def restart_stream(seed: int) -> list:
    """A capture restarting inside a batch after another device's began.

    Talker A reaches the 250-packet budget and starts a fresh capture just
    after device B's first packet; a ticker C then drives the sweep that
    finds both idle.  Per packet, B entered the assembler's bucket before
    A's fresh capture, so the sweep completes B first.
    """
    simulator = SetupTrafficSimulator(seed=seed)
    talker = simulator.simulate(DEVICE_CATALOG["HueBridge"])
    repeated = [packet for _ in range(15) for packet in talker.packets][:260]
    a_packets = _retimed(repeated, _mac(6, 0), 1.0, gap=0.02)
    b_start = a_packets[249].timestamp + 0.005
    b_trace = simulator.simulate(DEVICE_CATALOG["Aria"])
    b_packets = _retimed(b_trace.packets, _mac(6, 1), b_start, gap=0.01)
    c_packets = _retimed([talker.packets[0]] * 20, _mac(6, 2), 20.0, gap=0.7)
    return sorted(a_packets + b_packets + c_packets, key=lambda packet: packet.timestamp)


@dataclass
class Outcome:
    ledger: bytes
    verdicts: list
    counts: dict
    packets: int


def _counts(stats) -> dict:
    timings = ("identify_seconds", "last_batch_seconds")
    return {
        "packets": stats.packets,
        "fingerprints": stats.fingerprints,
        "identified": stats.identified,
        "cache_hits": stats.cache_hits,
        "cache_misses": stats.cache_misses,
        "dropped": stats.dropped,
        "assembler": asdict(stats.assembler),
        "dispatcher": {k: v for k, v in asdict(stats.dispatcher).items() if k not in timings},
    }


def drain(identifier, packets, workdir: Path, batch_size=None, stop_after=None, **config):
    """Drain ``packets`` through a fresh gateway; ``batch_size=None`` is the oracle.

    ``"facade"`` runs ``run_until_idle``; an integer builds a pipeline on
    the gateway's components and runs it columnar at that batch size.
    With ``stop_after``, the columnar run is consumed through its
    ``results_batched`` generator and abandoned after that many verdicts.
    """
    ledger_path = Path(tempfile.mkdtemp(dir=workdir)) / "ledger.ndjson"
    handle = build_gateway(
        GatewayConfig(
            identifier=identifier, ledger_path=ledger_path, clock=SimulatedClock(), **config
        )
    )
    verdicts = []
    sink = handle.sink

    def record(item):
        verdicts.append((str(item.mac), item.result.device_type, item.from_cache))
        sink(item)

    handle.sink = record
    source = IterableSource(packets)
    if batch_size == "facade":
        stats = handle.run_until_idle(source)
    else:
        pipeline = StreamingPipeline(
            source=source,
            dispatcher=handle.dispatcher,
            assembler=handle.assembler,
            on_identified=record,
            clock=handle.clock,
            eviction_interval=handle.config.eviction_interval,
            observability=handle.observability,
        )
        if batch_size is None:
            stats = pipeline.run()
        elif stop_after is None:
            stats = pipeline.run_batched(batch_size)
        else:
            with closing(pipeline.results_batched(batch_size)) as stream:
                for seen, _ in enumerate(stream, start=1):
                    if seen == stop_after:
                        break
            stats = pipeline.stats
    handle.close()
    ledger = b"".join(part.read_bytes() for part in ledger_files(ledger_path))
    return Outcome(ledger, verdicts, _counts(stats), stats.packets)


def assert_same(expected: Outcome, actual: Outcome) -> None:
    assert actual.verdicts == expected.verdicts
    assert actual.counts == expected.counts
    assert actual.ledger == expected.ledger


def first_verdict_times(outcome: Outcome) -> dict:
    times: dict = {}
    for line in outcome.ledger.splitlines():
        record = json.loads(line)
        if record["kind"] == KIND_VERDICT:
            times.setdefault(record["mac"], record["stream_time"])
    return times


STREAMS = {
    "onboarding": (onboarding_stream, {"max_batch": 4}),
    "burst": (burst_stream, {"backpressure": "drop", "queue_capacity": 4, "max_batch": 8}),
    "edge": (edge_stream, {"shards": 1, "max_linger": MAX_LINGER}),
    "restart": (restart_stream, {"shards": 1}),
}


@pytest.fixture(scope="module")
def oracles(trained_identifier, tmp_path_factory):
    """Each stream's packets and its per-packet outcome."""
    workdir = tmp_path_factory.mktemp("oracle")
    runs = {}
    for name, (build, config) in STREAMS.items():
        packets = build(seed=5)
        runs[name] = (packets, drain(trained_identifier, packets, workdir, **config))
    return runs


class TestStreamsReachTheEdges:
    def test_onboarding_fills_batches_and_completes_by_every_rule(self, oracles):
        _, oracle = oracles["onboarding"]
        assert oracle.counts["dispatcher"]["largest_batch"] == 4
        assert oracle.counts["dispatcher"]["linger_flushes"] > 0
        assert oracle.counts["assembler"]["budget_emissions"] > 0
        assert oracle.counts["assembler"]["idle_emissions"] > 0
        assert oracle.counts["cache_hits"] > 0

    def test_burst_sheds_load(self, oracles):
        _, oracle = oracles["burst"]
        assert oracle.counts["dropped"] > 0

    def test_edge_stream_lines_up_its_triggers(self, oracles):
        _, oracle = oracles["edge"]
        assert EARLY_DUE < TRIGGER_TIME + MAX_LINGER
        assert EARLY_DUE - TRIGGER_TIME >= MAX_LINGER
        # A (completed by its own packet) and C (by the sweep at that same
        # packet) were queued together, in that order, and flushed at
        # ``EARLY_DUE``.
        times = first_verdict_times(oracle)
        assert times[str(_mac(4, 1))] == times[str(_mac(4, 0))] == EARLY_DUE
        assert [mac for mac, _, _ in oracle.verdicts[:2]] == [str(_mac(4, 1)), str(_mac(4, 0))]


    def test_restart_stream_sweeps_the_earlier_capture_first(self, oracles):
        _, oracle = oracles["restart"]
        a, b, c = (str(_mac(6, index)) for index in range(3))
        assert [mac for mac, _, _ in oracle.verdicts] == [a, b, a, c]


class TestColumnarMatchesPerPacket:
    @pytest.mark.parametrize("stream", sorted(STREAMS))
    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    def test_same_ledger_verdicts_and_counts(
        self, trained_identifier, oracles, tmp_path, stream, batch_size
    ):
        packets, oracle = oracles[stream]
        config = STREAMS[stream][1]
        assert_same(oracle, drain(trained_identifier, packets, tmp_path, batch_size, **config))

    @pytest.mark.parametrize("stream", sorted(STREAMS))
    def test_facade(self, trained_identifier, oracles, tmp_path, stream):
        packets, oracle = oracles[stream]
        config = STREAMS[stream][1]
        assert_same(oracle, drain(trained_identifier, packets, tmp_path, "facade", **config))

    def test_triggers_on_batch_edges(self, trained_identifier, oracles, tmp_path):
        """The trigger packet and the linger flush first and last in a batch."""
        packets, oracle = oracles["edge"]
        config = STREAMS["edge"][1]
        trigger = next(i for i, p in enumerate(packets) if p.timestamp == TRIGGER_TIME)
        flush = next(i for i, p in enumerate(packets) if p.timestamp == EARLY_DUE)
        for batch_size in (trigger, trigger + 1, flush, flush + 1):
            assert_same(oracle, drain(trained_identifier, packets, tmp_path, batch_size, **config))

    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    def test_early_break_equals_a_run_cut_at_the_batch_end(
        self, trained_identifier, oracles, tmp_path, batch_size
    ):
        packets, _ = oracles["onboarding"]
        config = STREAMS["onboarding"][1]
        cut = drain(trained_identifier, packets, tmp_path, batch_size, stop_after=1, **config)
        assert cut.packets % batch_size == 0 or cut.packets == len(packets)
        assert cut.packets < len(packets) or batch_size >= len(packets)
        oracle = drain(trained_identifier, packets[: cut.packets], tmp_path, **config)
        assert_same(oracle, cut)


def _poll_one_packet_late(monkeypatch):
    found = StreamingPipeline._linger_flush

    def late(self, clock_at, readings, start, end):
        index = found(self, clock_at, readings, start, end)
        return min(index + 1, end)

    monkeypatch.setattr(StreamingPipeline, "_linger_flush", late)


def _no_float_recheck(monkeypatch):
    def searchsorted_only(self, clock_at, readings, start, end):
        deadline = self.dispatcher.linger_deadline()
        if start >= end or deadline is None:
            return end
        return min(max(int(clock_at.searchsorted(deadline, side="left")), start), end)

    monkeypatch.setattr(StreamingPipeline, "_linger_flush", searchsorted_only)


def _sweep_before_submit(monkeypatch):
    observe = ShardedFingerprintAssembler.observe_prepared

    class SweptFirst(list):
        """Puts a sweep's fingerprints ahead of its packet's own emission."""

        def extend(self, swept):
            swept = list(swept)
            own = [pair for pair in self if swept and pair[0] == swept[0][0]]
            self[len(self) - len(own) :] = swept + own

    monkeypatch.setattr(
        ShardedFingerprintAssembler,
        "observe_prepared",
        lambda self, prepared, stop: SweptFirst(observe(self, prepared, stop)),
    )


class TestStreamClock:
    def test_batch_leaves_the_clock_where_packets_do(self, trained_identifier):
        rng = random.Random(3)
        template = edge_stream(seed=5)[0]
        rounded = 0
        for _ in range(40):
            # A last step that rounds: ``now + (last - now) != last``.
            now, last = 0.0, 1.0
            while now + (last - now) == last:
                now, last = rng.random(), rng.uniform(1, 3000)
            stamps = sorted(rng.uniform(0, now) for _ in range(rng.randrange(20)))
            packets = [replace(template, timestamp=t) for t in stamps + [now, last]]
            clocks = []
            for columnar in (False, True):
                pipeline = StreamingPipeline(
                    source=IterableSource(packets), dispatcher=BatchDispatcher(trained_identifier)
                )
                if columnar:
                    pipeline.process_batch(PacketBatch.from_packets(packets))
                else:
                    for packet in packets:
                        pipeline.process_packet(packet)
                clocks.append(pipeline.clock.now())
            assert clocks[0] == clocks[1]
            rounded += clocks[0] != last
        assert rounded > 0


class TestMutationsAreCaught:
    @pytest.mark.parametrize(
        "mutate", [_poll_one_packet_late, _no_float_recheck, _sweep_before_submit]
    )
    def test_mutation_breaks_parity(
        self, trained_identifier, oracles, tmp_path, monkeypatch, mutate
    ):
        packets, oracle = oracles["edge"]
        mutate(monkeypatch)
        mutant = drain(trained_identifier, packets, tmp_path, 64, **STREAMS["edge"][1])
        with pytest.raises(AssertionError):
            assert_same(oracle, mutant)
