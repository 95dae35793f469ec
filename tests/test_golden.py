"""Golden digests: the onboarding path's observable output, byte for byte.

A seeded multi-device setup capture (fresh devices, then byte-identical
replayed clones that hit the verdict cache) is written as a pcap and
drained through a full ``build_gateway()`` stack served from a saved
model bundle, with the evidence ledger on.  Three things are digested
with SHA-256 and compared against ``tests/golden/digests.json``:

* ``ledger`` -- the evidence-ledger bytes;
* ``verdicts`` -- the ordered verdict stream (MAC, type, matched types,
  every discrimination score with its reference indices and draw seed);
* ``bundle_meta`` -- the saved bundle's canonical ``meta`` JSON (the zip
  bytes carry mtimes; the JSON carries the array checksum).

``scenario_manifest`` digests ``suite__seed-7.json``, the manifest of all
five hostile campaigns (``python -m repro.scenarios --seed 7``), which
carries the SHA-256 of every run's ledger, device table and report.

``run_until_idle`` drives the columnar path at its default batch size.
The same capture is also run through ``StreamingPipeline.run_batched`` at
a smaller batch size (``batched_verdicts``) and through the per-packet
``StreamingPipeline.run`` oracle; both must reproduce the ``ledger`` and
``verdicts`` digests.  A refactor must reproduce every digest unchanged.
A change that alters behaviour on purpose regenerates them with
``PYTHONPATH=src python tests/test_golden.py`` and says why.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.api import GatewayConfig, build_gateway
from repro.datasets.builder import DatasetBuilder
from repro.devices.catalog import DEVICE_CATALOG
from repro.devices.simulator import SetupTrafficSimulator
from repro.identification.identifier import DeviceTypeIdentifier
from repro.identification.model_store import save_identifier
from repro.net.addresses import MACAddress
from repro.net.pcap import write_pcap
from repro.obs.ledger import ledger_files
from repro.scenarios import ScenarioSuite
from repro.scenarios.campaigns import CAMPAIGNS
from repro.simulation.clock import SimulatedClock
from repro.streaming.pipeline import StreamingPipeline
from repro.streaming.sources import PcapReplaySource, interleave_traces, replay_trace

GOLDEN = Path(__file__).resolve().parent / "golden" / "digests.json"

#: Two confusable families (multi-match verdicts reach discrimination)
#: plus distinctive single-match types.
DEVICE_TYPES = (
    "Aria",
    "HueBridge",
    "D-LinkCam",
    "TP-LinkPlugHS110",
    "TP-LinkPlugHS100",
    "SmarterCoffee",
    "iKettle2",
)
TRAINING_RUNS = 8
FRESH_PER_TYPE = 2
JOIN_GAP_S = 2.0
#: Clones join after every fresh capture has closed and been identified,
#: so their verdicts come from the cache.
CLONE_DELAY_S = 120.0
BATCH_SIZE = 64
SCENARIO_SEED = 7


def _canonical(payload) -> bytes:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _setup_capture(path: Path) -> int:
    """Fresh setups round-robin over the types, then one clone of each."""
    simulator = SetupTrafficSimulator(seed=2024)
    traces = []
    for _ in range(FRESH_PER_TYPE):
        for name in DEVICE_TYPES:
            index = len(traces)
            traces.append(
                simulator.simulate(
                    DEVICE_CATALOG[name],
                    device_mac=MACAddress.from_string(f"02:60:00:00:00:{index:02x}"),
                    start_time=index * JOIN_GAP_S,
                )
            )
    start = max(trace.packets[-1].timestamp for trace in traces) + CLONE_DELAY_S
    for clone, original in enumerate(list(traces[: len(DEVICE_TYPES)])):
        traces.append(
            replay_trace(
                original,
                MACAddress.from_string(f"02:60:00:00:01:{clone:02x}"),
                start + clone * JOIN_GAP_S - original.packets[0].timestamp,
            )
        )
    write_pcap(path, list(interleave_traces(traces)))
    return len(traces)


def _verdict_row(item) -> list:
    result = item.result
    return [
        str(item.mac),
        result.device_type,
        list(result.matched_types),
        item.from_cache,
        [
            [
                score.device_type,
                score.score,
                list(score.reference_indices),
                score.selection_seed,
            ]
            for score in result.discrimination_scores
        ],
    ]


#: How each run drains the capture: the facade, or a pipeline built on the
#: facade's components driven through the columnar or per-packet path.
RUNS = {"": "facade", "batched_": "batched", "scalar_": "scalar"}
#: The digests committed to ``tests/golden/digests.json``.
RECORDED = ("bundle_meta", "ledger", "verdicts", "batched_verdicts", "scenario_manifest")


def _onboard(bundle: Path, pcap: Path, workdir: Path, mode: str):
    """Drain ``pcap`` through a gateway served from ``bundle``."""
    ledger_path = workdir / "ledger.ndjson"
    handle = build_gateway(
        GatewayConfig(bundle_path=bundle, ledger_path=ledger_path, clock=SimulatedClock())
    )
    delivered = []
    sink = handle.sink

    def record(item):
        delivered.append(item)
        sink(item)

    handle.sink = record
    if mode == "facade":
        handle.run_until_idle(PcapReplaySource(pcap))
    else:
        pipeline = StreamingPipeline(
            source=PcapReplaySource(pcap),
            dispatcher=handle.dispatcher,
            assembler=handle.assembler,
            on_identified=record,
            clock=handle.clock,
            eviction_interval=handle.config.eviction_interval,
            observability=handle.observability,
        )
        if mode == "batched":
            pipeline.run_batched(batch_size=BATCH_SIZE)
        else:
            pipeline.run()
    handle.close()
    ledger = b"".join(part.read_bytes() for part in ledger_files(ledger_path))
    return delivered, ledger


def _scenario_manifest(out_dir: Path) -> bytes:
    """The suite manifest of every campaign, in the CLI's (sorted) order."""
    suite = ScenarioSuite([CAMPAIGNS[name]() for name in sorted(CAMPAIGNS)])
    suite.run(SCENARIO_SEED, out_dir)
    return (out_dir / f"suite__seed-{SCENARIO_SEED}.json").read_bytes()


def compute_digests(workdir: Path) -> tuple[dict, dict]:
    """The golden digests plus the facts the test asserts about the run."""
    dataset = DatasetBuilder(runs_per_type=TRAINING_RUNS, seed=4321).build_synthetic(
        DEVICE_TYPES
    )
    identifier = DeviceTypeIdentifier.train(dataset.to_registry(), random_state=11)
    bundle = save_identifier(workdir / "identifier.npz", identifier)
    with np.load(bundle, allow_pickle=False) as archive:
        meta = json.loads(bytes(archive["meta"]).decode("utf-8"))
    pcap = workdir / "setup.pcap"
    devices = _setup_capture(pcap)

    digests = {"bundle_meta": _sha256(_canonical(meta))}
    facts = {"devices": devices, "runs": {}}
    for prefix, mode in RUNS.items():
        run_dir = workdir / f"{mode}_run"
        run_dir.mkdir()
        delivered, ledger = _onboard(bundle, pcap, run_dir, mode)
        digests[f"{prefix}ledger"] = _sha256(ledger)
        digests[f"{prefix}verdicts"] = _sha256(
            _canonical([_verdict_row(item) for item in delivered])
        )
        facts["runs"][mode] = delivered
    digests["scenario_manifest"] = _sha256(_scenario_manifest(workdir / "scenarios"))
    return digests, facts


@pytest.fixture(scope="module")
def golden_run(tmp_path_factory):
    return compute_digests(tmp_path_factory.mktemp("golden"))


class TestGoldenDigests:
    def test_run_covers_the_cache_and_discrimination_paths(self, golden_run):
        _, facts = golden_run
        for delivered in facts["runs"].values():
            assert len(delivered) == facts["devices"]
            assert any(item.from_cache for item in delivered)
            assert any(len(item.result.discrimination_scores) >= 2 for item in delivered)
            # The reference pool exceeds references_per_type, so a seeded
            # draw (not the whole pool) decided some score.
            assert any(
                score.selection_seed is not None
                for item in delivered
                for score in item.result.discrimination_scores
            )

    @pytest.mark.parametrize("name", RECORDED)
    def test_digest_unchanged(self, golden_run, name):
        digests, _ = golden_run
        expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
        assert digests[name] == expected[name]

    @pytest.mark.parametrize("prefix", ["batched_", "scalar_"], ids=["batched", "scalar"])
    def test_run_reproduces_the_facade_digests(self, golden_run, prefix):
        digests, _ = golden_run
        expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
        assert digests[f"{prefix}ledger"] == expected["ledger"]
        assert digests[f"{prefix}verdicts"] == expected["verdicts"]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        digests, _ = compute_digests(Path(scratch))
    recorded = {name: digests[name] for name in RECORDED}
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    sys.stdout.write(f"wrote {GOLDEN}\n")
