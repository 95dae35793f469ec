"""Workloads, stacks and measurements of the gateway benchmark.

Every timed iteration builds a fresh gateway with ``build_gateway()`` from
the saved model bundle (lifecycle, observability and an evidence ledger
on), so the verdict cache, flow table, rule cache and ledger start empty.
The load comes from this one process with no threads: a closed loop that
drains each pcap as fast as the gateway consumes it.  The inputs are
written beforehand by a child process (``python -m perfbench.traffic``),
so this process's peak memory covers set-up and gateway work only.

Each workload has a primary phase, whose wall time gives ``pkts_per_s``
and whose layers the traced run breaks down, and a secondary phase run on
the same stack outside that timing, so that every end-to-end metric is
measured on every workload:

* onboarding workloads drain a fleet's setup pcap through
  ``GatewayHandle.run_until_idle`` (primary), then forward a short
  steady-state probe through ``gateway.handle_packet`` (secondary);
* ``forward_steady`` onboards its fleet the same way (secondary, part of
  each stack's set-up), then forwards a long steady-state pcap (primary).

The host's speed swings by up to 2x, within a second and for minutes at a
time, so raw wall times moved by 20-40% between runs of the same code.
Every time metric is therefore taken on a
:class:`~perfbench.speed.SpeedTrack`: a fixed reference loop runs at the
start and end of each phase and, between packets, after every
``SAMPLE_EVERY_S`` of gateway work; each stretch of work between two
samples is scaled to the nominal host speed.  Time metrics read as seconds
on an idle host; the shape records how slow the host was.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from statistics import median
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from perfbench import traffic
from perfbench.oracle import SectVPolicy
from perfbench.spans import Tracer
from perfbench.speed import SpeedTrack
from perfbench.stats import percentile
from repro.api import GatewayConfig, GatewayHandle, build_gateway
from repro.datasets.builder import FingerprintDataset
from repro.datasets.storage import load_fingerprints
from repro.identification.identifier import DeviceTypeIdentifier
from repro.identification.model_store import save_identifier
from repro.net.addresses import MACAddress
from repro.obs.ledger import ledger_files
from repro.streaming.sources import PcapReplaySource

_clock = time.perf_counter
_ROOT = Path(__file__).resolve().parent.parent

#: Full set-ups per run; ``setup_s`` is the median of their adjusted times.
SETUP_REPS = 3
#: Timed iterations per run at the least, whatever ``--seconds`` says.
MIN_ITERATIONS = 3
#: Reference samples per checkpoint around a set-up step, which is one
#: long call: a median of several stands for the speed across it.
SETUP_SAMPLES = 5


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    primary: str  # "onboard" or "forward"
    fresh_per_type: int
    clones_per_fresh: int
    forward_packets: int


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            name="fleet_rejoin",
            why="162 fresh setups and 5 identical clones of each: mostly verdict-cache hits, "
            "so flow-table writes, sink and ledger dominate",
            primary="onboard",
            fresh_per_type=6,
            clones_per_fresh=5,
            forward_packets=2000,
        ),
        Workload(
            name="fleet_cold",
            why="20 fresh setups per type with distinct fingerprints: no cache hits, "
            "so bank scoring and discrimination dominate",
            primary="onboard",
            fresh_per_type=20,
            clones_per_fresh=0,
            forward_packets=2000,
        ),
        Workload(
            name="forward_steady",
            why="steady traffic of 270 onboarded devices, equal shares of the five Sect. V "
            "destination classes (an assumed mix): the flow-table scan and packet-in dominate",
            primary="forward",
            fresh_per_type=10,
            clones_per_fresh=0,
            forward_packets=4000,
        ),
    )
}

END_TO_END = {
    "setup_s": "s",
    "pkts_per_s": "pkt/s",
    "verdict_latency_p50_ms": "ms",
    "verdict_latency_p95_ms": "ms",
    "forward_latency_p50_us": "us",
    "forward_latency_p99_us": "us",
    "verdict_accuracy": "ratio",
    "error_rate": "ratio",
    "peak_rss_mib": "MiB",
}

def _emitted(result) -> int:
    return int(result is not None)


#: Traced layers: (component attribute path, method, layer, item count of
#: a call's result).  Layers are disjoint, so their self times add up with
#: ``unattributed_s`` to the traced wall.
_TRACED_METHODS = (
    ("assembler", "observe", "assembler", _emitted),
    ("assembler", "observe_batch", "assembler", len),
    ("assembler", "prepare_batch", "assembler", None),
    ("assembler", "observe_prepared", "assembler", len),
    ("assembler", "evict_idle", "assembler.sweep", len),
    ("assembler", "flush", "assembler.sweep", len),
    ("dispatcher", "submit", "dispatcher", None),
    ("dispatcher", "poll", "dispatcher", None),
    ("dispatcher", "drain", "dispatcher", None),
    ("identifier", "identify_many", "identification", len),
    ("identifier.bank", "score_fingerprints", "bank", None),
    ("identifier.discriminator", "discriminate", "discrimination", None),
    ("identifier.discriminator", "score_type", "discrimination", None),
    ("security_service", "assess_device_type", "service", None),
    ("gateway", "apply_assessment", "gateway.apply", None),
    ("gateway", "handle_packet", "gateway.handle", None),
    ("gateway", "authorize", "gateway.authorize", None),
    ("gateway.switch", "install_rule", "sdn.install", None),
    ("gateway.switch", "remove_rules", "sdn.remove", None),
    ("gateway.switch", "process", "sdn.process", None),
    ("gateway.switch", "lookup", "sdn.lookup", None),
    ("observability", "record_verdict", "obs.record", None),
    ("observability", "record_enforcement", "obs.record", None),
    ("observability.ledger", "append", "ledger", None),
    ("lifecycle", "note_identified", "lifecycle", None),
)

#: Per-layer metric -> (layer, field) for self times and call counts.
_LAYER_METRICS = {
    "net.parse_s": ("net", "self_s"),
    "net.packets": ("net", "items"),
    "assembler.busy_s": ("assembler", "self_s"),
    "assembler.calls": ("assembler", "calls"),
    "assembler.sweep_s": ("assembler.sweep", "self_s"),
    "dispatcher.busy_s": ("dispatcher", "self_s"),
    "identification.busy_s": ("identification", "self_s"),
    "bank.busy_s": ("bank", "self_s"),
    "discrimination.busy_s": ("discrimination", "self_s"),
    "discrimination.calls": ("discrimination", "calls"),
    "service.busy_s": ("service", "self_s"),
    "sink.busy_s": ("sink", "self_s"),
    "gateway.apply_s": ("gateway.apply", "self_s"),
    "gateway.handle_s": ("gateway.handle", "self_s"),
    "gateway.authorize_s": ("gateway.authorize", "self_s"),
    "sdn.install_s": ("sdn.install", "self_s"),
    "sdn.remove_s": ("sdn.remove", "self_s"),
    "sdn.process_s": ("sdn.process", "self_s"),
    "sdn.lookup_s": ("sdn.lookup", "self_s"),
    "obs.record_s": ("obs.record", "self_s"),
    "ledger.append_s": ("ledger", "self_s"),
    "lifecycle.note_s": ("lifecycle", "self_s"),
}

PER_LAYER = {
    **{name: ("s" if name.endswith("_s") else "count") for name in _LAYER_METRICS},
    "assembler.fingerprints": "count",
    "dispatcher.batches": "count",
    "dispatcher.mean_batch": "count",
    "dispatcher.cache_hit_rate": "ratio",
    "dispatcher.dropped": "count",
    "discrimination.fraction": "ratio",
    "sdn.flow_rules": "count",
    "sdn.controller_ratio": "ratio",
    "rule_cache.hit_rate": "ratio",
    "ledger.records": "count",
    "ledger.bytes": "bytes",
    "lifecycle.quarantined": "count",
    "traced_wall_s": "s",
    "unattributed_s": "s",
    "trace_overhead": "ratio",
}


# --------------------------------------------------------------------- #
# Inputs.
# --------------------------------------------------------------------- #
@dataclass
class Inputs:
    """The files the gateway receives, plus the benchmark-side truth."""

    workload: Workload
    seed: int
    workdir: Path
    onboard_pcap: Path
    forward_pcap: Path
    onboard_packets: int
    onboard_bytes: int
    forward_packets: int
    forward_bytes: int
    truth: dict[MACAddress, str]
    training: FingerprintDataset
    #: Oracle verdicts already computed, by (digest, forwarding decisions):
    #: iterations that end in the same state are checked once.
    mismatches: dict[tuple[str, bytes], int] = field(default_factory=dict)

    @property
    def bundle(self) -> Path:
        return self.workdir / "model.npz"


def make_inputs(workload: Workload, seed: int, workdir: Path) -> Inputs:
    """Synthesize every input of ``workload`` from ``seed`` (untimed).

    Synthesis runs in a child process, so the packet objects it builds
    never count towards this process's peak memory (``peak_rss_mib``).
    """
    workdir.mkdir(parents=True, exist_ok=True)
    paths = [str(_ROOT / "src"), str(_ROOT), *filter(None, [os.environ.get("PYTHONPATH")])]
    subprocess.run(
        [
            sys.executable, "-m", "perfbench.traffic", str(workdir), str(seed),
            str(workload.fresh_per_type), str(workload.clones_per_fresh),
            str(workload.forward_packets),
        ],
        env={**os.environ, "PYTHONPATH": os.pathsep.join(paths)},
        check=True,
    )
    sizes = json.loads((workdir / "sizes.json").read_text())
    truth = json.loads((workdir / "truth.json").read_text())
    return Inputs(
        workload=workload,
        seed=seed,
        workdir=workdir,
        onboard_pcap=workdir / "onboard.pcap",
        forward_pcap=workdir / "forward.pcap",
        onboard_packets=sizes["onboard_packets"],
        onboard_bytes=sizes["onboard_bytes"],
        forward_packets=sizes["forward_packets"],
        forward_bytes=sizes["forward_bytes"],
        truth={MACAddress.from_string(mac): kind for mac, kind in truth.items()},
        training=load_fingerprints(workdir / "training.json"),
    )


# --------------------------------------------------------------------- #
# Stacks.
# --------------------------------------------------------------------- #
class Probes:
    """The untraced run's two timestamps per device, on ``track``'s clock.

    ``submitted[mac]`` is taken at the device's first
    ``dispatcher.submit``, ``enforced[mac]`` when ``gateway.apply_assessment``
    first returns for it (the sink enforcing the verdict).
    """

    def __init__(self, handle: GatewayHandle, track: SpeedTrack):
        self.track = track
        self.submitted: dict[MACAddress, float] = {}
        self.enforced: dict[MACAddress, float] = {}
        submit = handle.dispatcher.submit
        apply = handle.gateway.apply_assessment
        submitted, enforced = self.submitted, self.enforced

        def timed_submit(ready):
            if ready.mac not in submitted:
                submitted[ready.mac] = track.now()
            return submit(ready)

        def timed_apply(mac, assessment):
            record = apply(mac, assessment)
            if mac not in enforced:
                enforced[mac] = track.now()
            return record

        handle.dispatcher.submit = timed_submit
        handle.gateway.apply_assessment = timed_apply

    def latencies_ms(self) -> dict[MACAddress, float]:
        """Adjusted milliseconds from submit to enforcement, per device."""
        macs = [mac for mac in self.submitted if mac in self.enforced]
        starts = np.array([self.submitted[mac] for mac in macs])
        ends = np.array([self.enforced[mac] for mac in macs])
        return dict(zip(macs, (self.track.adjusted(starts, ends) * 1e3).tolist()))


def _resolve(handle: GatewayHandle, path: str):
    target = handle
    for part in path.split("."):
        target = getattr(target, part)
    return target


def instrument(handle: GatewayHandle, tracer: Tracer) -> None:
    """Wrap the handle's components for ``tracer`` (this instance only)."""
    for path, method, layer, count in _TRACED_METHODS:
        tracer.wrap(_resolve(handle, path), method, layer, count=count)
    # ``run_until_idle`` hands ``handle.sink`` to each pipeline it builds.
    tracer.wrap(handle, "sink", "sink")


def traced_source(path: Path, tracer: Optional[Tracer]) -> PcapReplaySource:
    source = PcapReplaySource(path)
    if tracer is not None:
        tracer.wrap_iterator(source, "packets", "net", count=lambda _packet: 1)
        tracer.wrap_iterator(source, "packet_batches", "net", count=len)
    return source


def checkpointed(source: PcapReplaySource, track: SpeedTrack) -> PcapReplaySource:
    """Let ``track`` sample the host speed before each packet (or batch) is read."""
    packets, batches = source.packets, source.packet_batches

    def sampled(items):
        for item in items:
            track.tick()
            yield item

    source.packets = lambda: sampled(packets())
    source.packet_batches = lambda *args, **kwargs: sampled(batches(*args, **kwargs))
    return source


def _remove_ledger(path: Path) -> None:
    for part in ledger_files(path):
        part.unlink()


def build_stack(inputs: Inputs, name: str) -> GatewayHandle:
    ledger = inputs.workdir / f"{name}.ndjson"
    _remove_ledger(ledger)
    return build_gateway(GatewayConfig(bundle_path=inputs.bundle, ledger_path=ledger))


def setup_once(inputs: Inputs) -> float:
    """One full set-up; returns its adjusted seconds.

    The steps are model training, saving the bundle, building the gateway
    from it and, for ``forward_steady``, onboarding the fleet.  The host
    speed is sampled between steps (and during onboarding).
    """
    registry = inputs.training.to_registry()
    track = SpeedTrack()
    track.checkpoint(SETUP_SAMPLES)
    start = track.now()
    identifier = DeviceTypeIdentifier.train(
        registry, random_state=traffic.derive_seed(inputs.seed, "forest") % 2**32
    )
    track.checkpoint(SETUP_SAMPLES)
    save_identifier(inputs.bundle, identifier)
    track.checkpoint(SETUP_SAMPLES)
    handle = build_stack(inputs, "setup")
    track.checkpoint(SETUP_SAMPLES)
    if inputs.workload.primary == "forward":
        handle.run_until_idle(checkpointed(PcapReplaySource(inputs.onboard_pcap), track))
        track.checkpoint(SETUP_SAMPLES)
    end = track.now()
    handle.close()
    return float(track.adjusted(start, end))


# --------------------------------------------------------------------- #
# One iteration.
# --------------------------------------------------------------------- #
@dataclass
class Iteration:
    #: Seconds of the primary phase on the speed track's clock, which
    #: leaves the reference samples out.
    wall_s: float
    #: The same, adjusted to the nominal host speed (``wall_s`` if traced).
    adjusted_s: float
    packets: int
    #: Adjusted milliseconds from submit to enforcement, per device.
    verdict_ms: dict[MACAddress, float]
    #: Adjusted microseconds of each ``gateway.handle_packet`` call.
    forward_us: list[float]
    #: Median reference time over the nominal one (1.0 if traced).
    slowdown: float
    devices: int
    correct_devices: int
    #: Operations that did not complete: wire devices left without an
    #: enforced record, and fingerprints dropped by backpressure.
    failed: int
    #: Forwarding decisions that disagree with the Sect. V policy.
    mismatches: int
    attempted: int
    digest: str
    problems: list[str]
    counters: dict[str, float] = field(default_factory=dict)

    @property
    def pkts_per_s(self) -> float:
        return self.packets / self.adjusted_s


def _counters(handle: GatewayHandle) -> dict[str, float]:
    switch = handle.gateway.switch
    cache = handle.cache
    stats = handle.dispatcher.stats
    ledger = handle.observability.ledger
    return {
        "switch.processed": switch.packets_processed,
        "switch.to_controller": switch.packets_to_controller,
        "rule_cache.lookups": handle.gateway.rule_cache.lookups,
        "rule_cache.hits": handle.gateway.rule_cache.hits,
        "cache.hits": cache.hits,
        "cache.misses": cache.misses,
        "dispatcher.batches": stats.batches,
        "dispatcher.batched": stats.batched,
        "dispatcher.dropped": stats.dropped,
        "ledger.records": ledger.records_written,
        "ledger.bytes": sum(part.stat().st_size for part in ledger_files(ledger.path)),
        "lifecycle.quarantined": handle.lifecycle.quarantine.recorded,
    }


def _forward(
    handle: GatewayHandle, source: PcapReplaySource, track: SpeedTrack
) -> tuple[list[bool], np.ndarray, np.ndarray]:
    """Forward every packet of ``source``; the closed forwarding loop.

    Returns each packet's decision and the ``track`` times its
    ``handle_packet`` call began and ended; the host speed is sampled
    between packets.  Packets are not kept (that would grow the heap the
    garbage collector walks); the oracle re-reads the capture afterwards.
    """
    handle_packet = handle.gateway.handle_packet
    now, tick = track.now, track.tick
    forwarded, starts, ends = [], [], []
    for packet in source.packets():
        tick()
        began = now()
        decision = handle_packet(packet)
        ends.append(now())
        starts.append(began)
        forwarded.append(decision.forwarded)
    return forwarded, np.array(starts), np.array(ends)


def enforcement_digest(handle: GatewayHandle) -> str:
    """SHA-256 of the final (MAC, device type, isolation level) table.

    Sorted by MAC, so it does not depend on verdict delivery order.
    """
    lines = sorted(
        f"{mac} {record.device_type} {record.isolation_level.value}"
        for mac, record in handle.gateway.devices.items()
    )
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def run_iteration(inputs: Inputs, tracer: Optional[Tracer]) -> Iteration:
    """Fresh stack -> primary phase (timed) and secondary phase."""
    handle = build_stack(inputs, "run")
    # A traced iteration reports raw self times; it samples no host speed.
    track = SpeedTrack(enabled=tracer is None)
    probes = Probes(handle, track)
    if tracer is not None:
        instrument(handle, tracer)
    onboard = traced_source(inputs.onboard_pcap, tracer)
    forward = traced_source(inputs.forward_pcap, tracer)
    if track.enabled:
        checkpointed(onboard, track)
    primary_onboard = inputs.workload.primary == "onboard"
    if not primary_onboard:
        track.checkpoint()
        handle.run_until_idle(onboard)
        track.checkpoint()

    before = _counters(handle)
    gc.collect()
    if tracer is not None:
        tracer.active = True
    track.checkpoint()
    start = track.now()
    if primary_onboard:
        packets = handle.run_until_idle(onboard).packets
    else:
        forwarded, forward_starts, forward_ends = _forward(handle, forward, track)
        packets = len(forwarded)
    end = track.now()
    track.checkpoint()
    if tracer is not None:
        tracer.active = False
    after = _counters(handle)

    if primary_onboard:
        forwarded, forward_starts, forward_ends = _forward(handle, forward, track)
        track.checkpoint()

    problems = []
    expected_packets = inputs.onboard_packets if primary_onboard else inputs.forward_packets
    if packets != expected_packets:
        problems.append(f"processed {packets} of {expected_packets} packets")
    if len(forwarded) != inputs.forward_packets:
        problems.append(f"forwarded {len(forwarded)} of {inputs.forward_packets} packets")
    devices = handle.gateway.devices
    if set(devices) != set(inputs.truth):
        problems.append(
            f"gateway records: {len(set(inputs.truth) - set(devices))} wire devices missing, "
            f"{len(set(devices) - set(inputs.truth))} records of devices never on the wire"
        )
    unenforced = sum(
        1
        for mac in inputs.truth
        if mac not in devices or devices[mac].enforcement_rule is None
    )
    dropped = handle.dispatcher.stats.dropped
    digest = enforcement_digest(handle)
    key = (digest, bytes(forwarded))
    if key not in inputs.mismatches:
        policy = SectVPolicy(devices)
        inputs.mismatches[key] = sum(
            1
            for packet, allowed in zip(PcapReplaySource(inputs.forward_pcap).packets(), forwarded)
            if policy.allows(packet) != allowed
        )
    mismatches = inputs.mismatches[key]
    correct = sum(
        1
        for mac, kind in inputs.truth.items()
        if mac in devices and devices[mac].device_type == kind
    )
    iteration = Iteration(
        wall_s=end - start,
        adjusted_s=float(track.adjusted(start, end)),
        packets=packets,
        verdict_ms=probes.latencies_ms(),
        forward_us=(track.adjusted(forward_starts, forward_ends) * 1e6).tolist(),
        slowdown=track.slowdown() if track.enabled else 1.0,
        devices=len(inputs.truth),
        correct_devices=correct,
        failed=unenforced + dropped,
        mismatches=mismatches,
        attempted=len(inputs.truth) + len(forwarded),
        digest=digest,
        problems=problems,
        counters={name: after[name] - before[name] for name in after},
    )
    iteration.counters["flow_rules"] = handle.gateway.switch.rule_count
    iteration.counters["stack_cache_hit_rate"] = handle.cache.hit_rate
    handle.close()
    _remove_ledger(inputs.workdir / "run.ndjson")
    return iteration


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(tracer: Tracer, iteration: Iteration) -> dict[str, float]:
    """The traced iteration's per-layer metrics (self times sum to its wall)."""
    values: dict[str, float] = {}
    for name, (layer, attribute) in _LAYER_METRICS.items():
        totals = tracer.layers.get(layer)
        values[name] = float(getattr(totals, attribute)) if totals is not None else 0.0
    counters = iteration.counters
    assembler_items = sum(
        tracer.layers[layer].items
        for layer in ("assembler", "assembler.sweep")
        if layer in tracer.layers
    )
    identified = tracer.layers["identification"].items if "identification" in tracer.layers else 0
    values.update(
        {
            "assembler.fingerprints": float(assembler_items),
            "dispatcher.batches": float(counters["dispatcher.batches"]),
            "dispatcher.mean_batch": _ratio(
                counters["dispatcher.batched"], counters["dispatcher.batches"]
            ),
            "dispatcher.cache_hit_rate": _ratio(
                counters["cache.hits"], counters["cache.hits"] + counters["cache.misses"]
            ),
            "dispatcher.dropped": float(counters["dispatcher.dropped"]),
            "discrimination.fraction": _ratio(values["discrimination.calls"], identified),
            "sdn.flow_rules": float(counters["flow_rules"]),
            "sdn.controller_ratio": _ratio(
                counters["switch.to_controller"], counters["switch.processed"]
            ),
            "rule_cache.hit_rate": _ratio(
                counters["rule_cache.hits"], counters["rule_cache.lookups"]
            ),
            "ledger.records": float(counters["ledger.records"]),
            "ledger.bytes": float(counters["ledger.bytes"]),
            "lifecycle.quarantined": float(counters["lifecycle.quarantined"]),
        }
    )
    self_total = sum(values[name] for name in _LAYER_METRICS if name.endswith("_s"))
    values["traced_wall_s"] = iteration.wall_s
    values["unattributed_s"] = iteration.wall_s - self_total
    return values


# --------------------------------------------------------------------- #
# A whole run.
# --------------------------------------------------------------------- #
@dataclass
class RunResult:
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, float]
    units: dict[str, str]
    shape: dict


def problems_of(iterations: list[Iteration]) -> list[str]:
    """Everything wrong with a run's outputs (empty when correct)."""
    problems = [problem for iteration in iterations for problem in iteration.problems]
    digests = sorted({iteration.digest for iteration in iterations})
    if len(digests) != 1:
        problems.append(f"enforcement digest differs between iterations: {digests}")
    return problems


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    workroot: Path,
    log: Callable[[str], None] = lambda _line: None,
) -> RunResult:
    """Synthesize, set up, warm up, then measure ``name`` for ``seconds``."""
    workload = WORKLOADS[name]
    workdir = workroot / f"{name}-{seed}-{os.getpid()}"
    try:
        inputs = make_inputs(workload, seed, workdir)
        inputs_rss_mib = _peak_rss_mib()
        setups = [setup_once(inputs) for _ in range(SETUP_REPS)]
        log(f"setup_s {[round(value, 3) for value in setups]}")
        warmup = run_iteration(inputs, None)
        plain: list[Iteration] = []
        traced: list[tuple[Iteration, dict[str, float]]] = []
        started = last = _clock()
        # A new iteration starts only if it should end within ``seconds``.
        while len(plain) < MIN_ITERATIONS or 2 * _clock() - last - started <= seconds:
            last = _clock()
            plain.append(run_iteration(inputs, None))
            if trace:
                tracer = Tracer()
                iteration = run_iteration(inputs, tracer)
                traced.append((iteration, layer_metrics(tracer, iteration)))
            log(
                f"iteration {len(plain)}: {plain[-1].pkts_per_s:.1f} pkt/s adjusted, "
                f"host slowdown {plain[-1].slowdown:.2f}"
            )
        everything = [warmup, *plain, *(item for item, _ in traced)]
        problems = problems_of(everything)
        for problem in problems:
            log(f"incorrect: {problem}")
        result = _result(inputs, setups, plain, traced, not problems)
        result.shape["rss_after_inputs_mib"] = inputs_rss_mib
        return result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workroot.rmdir()
        except OSError:
            pass  # another run is still using it


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _result(inputs, setups, plain, traced, correct) -> RunResult:
    workload = inputs.workload
    attempted = sum(item.attempted for item in plain)
    failed = sum(item.failed for item in plain)
    mismatches = sum(item.mismatches for item in plain)
    if traced:
        walls = sorted(traced, key=lambda pair: pair[0].wall_s)
        _, layers = walls[(len(walls) - 1) // 2]
        metrics = dict(layers)
        metrics["trace_overhead"] = median([item.wall_s for item, _ in traced]) / median(
            [item.wall_s for item in plain]
        )
        units = dict(PER_LAYER)
    else:
        # Times are adjusted to the nominal host speed (see the module
        # notes).  Each device's and each packet's latency is the median
        # over iterations, so a stall that hits one call in one iteration
        # does not reach the percentiles taken over them.
        verdict_ms = [
            median([item.verdict_ms[mac] for item in plain if mac in item.verdict_ms])
            for mac in plain[0].verdict_ms
        ]
        forward_us = np.median([item.forward_us for item in plain], axis=0).tolist()
        metrics = {
            "setup_s": median(setups),
            "pkts_per_s": median([item.pkts_per_s for item in plain]),
            "verdict_latency_p50_ms": percentile(verdict_ms, 50),
            "verdict_latency_p95_ms": percentile(verdict_ms, 95),
            "forward_latency_p50_us": percentile(forward_us, 50),
            "forward_latency_p99_us": percentile(forward_us, 99),
            "verdict_accuracy": plain[0].correct_devices / plain[0].devices,
            "error_rate": (failed + mismatches) / attempted,
            "peak_rss_mib": _peak_rss_mib(),
        }
        units = dict(END_TO_END)
    first = plain[0]
    shape = {
        "workload": workload.name,
        "why": workload.why,
        "seed": inputs.seed,
        "loop": "closed; one process, no threads",
        "devices": len(inputs.truth),
        "onboard_packets": inputs.onboard_packets,
        "onboard_pcap_bytes": inputs.onboard_bytes,
        "forward_packets": inputs.forward_packets,
        "forward_pcap_bytes": inputs.forward_bytes,
        "flow_rules": first.counters["flow_rules"],
        "cache_hit_rate": first.counters["stack_cache_hit_rate"],
        "verdict_samples_per_iteration": len(first.verdict_ms),
        "forward_samples_per_iteration": len(first.forward_us),
        "iterations": len(plain),
        "iteration_pkts_per_s": [round(item.pkts_per_s, 1) for item in plain],
        "raw_pkts_per_s": median([item.packets / item.wall_s for item in plain]),
        "setup_s_each": [round(value, 3) for value in setups],
        "traced_iterations": len(traced),
        "host_slowdown_each": [round(item.slowdown, 3) for item in plain],
        "digest": first.digest,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    return RunResult(correct, attempted, failed, metrics, units, shape)
