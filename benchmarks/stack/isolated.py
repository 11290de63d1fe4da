"""Isolated drivers: each layer's public API driven alone, median of 5 runs.

Inputs are generated from the seed before the clock starts; every driver
builds fresh objects per run (untimed) and consumes its result inside the
timed region.  The numbers are workload-independent: they say what a layer
can do on its own, next to what it costs inside the stack.
"""

from __future__ import annotations

import gc
import statistics
import time
from typing import Any, Callable, Dict, List, Optional

import calibration
from workloads import CHUNK_BYTES, CODEC_IDENTIFIER_BITS, GateError, codec_buffer

RUNS = 5
QUICK_RUNS = 3


def _median_seconds(setup: Callable[[], Any], run: Callable[[Any], Any], runs: int) -> float:
    """Median reference seconds of ``run(setup())`` after one discarded warm-up.

    The runs are too short to calibrate one by one, so one sampler covers
    the whole loop and scales its median (see calibration.py).
    """
    seconds = []
    with calibration.Sampler() as sampler:
        for index in range(runs + 1):
            state = setup()
            gc.collect()
            start = time.perf_counter()
            run(state)
            elapsed = time.perf_counter() - start
            if index:
                seconds.append(elapsed)
    return statistics.median(seconds) * sampler.factor()


def _null_sink(_frame: bytes, _time: float) -> None:
    pass


def _sink(outputs: Optional[List[bytes]]) -> Callable[[bytes, float], None]:
    """A port sink that keeps the frames in ``outputs``, or drops them."""
    if outputs is None:
        return _null_sink
    return lambda frame, _time: outputs.append(frame)


def _chunk_frames(chunks: List[bytes]) -> List[bytes]:
    from repro.net.ethernet import EthernetFrame
    from repro.net.mac import MacAddress
    from repro.zipline.headers import ETHERTYPE_RAW_CHUNK

    source = MacAddress("02:00:00:00:00:01")
    destination = MacAddress("02:00:00:00:00:02")
    return [
        EthernetFrame(
            destination=destination, source=source, ethertype=ETHERTYPE_RAW_CHUNK,
            payload=chunk,
        ).to_bytes()
        for chunk in chunks
    ]


def run_isolated(seed: int, divisor: int) -> Dict[str, float]:
    """Every isolated per-layer metric, by name."""
    from repro.controlplane.manager import LEARN_DIGEST, ZipLineControlPlane
    from repro.core.codec import GDCodec
    from repro.core.dictionary import BasisDictionary
    from repro.core.transform import GDTransform
    from repro.replay.link import EmulatedLink
    from repro.replay.metrics import Distribution
    from repro.sim.simulator import Simulator
    from repro.tofino.digest import DigestEngine
    from repro.topology import rack_fan_in_topology, run_topology
    from repro.workloads import (
        DictionaryThrashWorkload,
        DnsQueryWorkload,
        SyntheticSensorWorkload,
    )
    from repro.zipline.decoder_switch import ZipLineDecoderSwitch
    from repro.zipline.encoder_switch import ZipLineEncoderSwitch

    runs = RUNS if divisor == 1 else QUICK_RUNS
    # Every timed run lasts at least ~20 ms on a quiet host, so a driver's
    # six runs see a few calibration slices.
    count = 8000 // divisor
    results: Dict[str, float] = {}

    # -- sim: K interleaved periodic no-op event streams ----------------------
    def sim_setup():
        simulator = Simulator()
        remaining = [count * 4]

        def stream(period: float):
            def tick() -> None:
                if remaining[0] > 0:
                    remaining[0] -= 1
                    simulator.schedule_in(period, tick)
            return tick

        for index in range(16):
            simulator.schedule_at(index * 1e-7, stream(1e-6 * (1 + index / 16)))
        return simulator

    seconds = _median_seconds(sim_setup, lambda simulator: simulator.run(), runs)
    results["sim.events_per_s"] = (count * 4 + 16) / seconds

    # -- replay.link: ideal link into a null sink -----------------------------
    transform = GDTransform(order=8)
    sensor = SyntheticSensorWorkload(num_chunks=count, distinct_bases=64, seed=seed)
    chunks = sensor.chunks()
    frames = _chunk_frames(chunks)

    def link_run(simulator: Simulator) -> None:
        link = EmulatedLink(simulator, sink=_null_sink, record_delays=False)
        for index, frame in enumerate(frames):
            link.send(frame, index * 1e-6)
        simulator.run()

    seconds = _median_seconds(Simulator, link_run, runs)
    results["replay.link.frames_per_s"] = len(frames) / seconds

    # -- zipline switches: hit/miss encode, type-3/type-2 decode ---------------
    bases = sorted({basis for _prefix, basis, _dev in transform.split_batch_fields(
        b"".join(chunks))})

    def encoder(preloaded: bool, outputs: Optional[List[bytes]]):
        switch = ZipLineEncoderSwitch(transform=GDTransform(order=8), forwarding={0: 1})
        if preloaded:
            for identifier, basis in enumerate(bases):
                switch.install_basis_mapping(basis, identifier)
        switch.switch.attach_port(1, _sink(outputs))
        return switch

    def decoder(outputs: Optional[List[bytes]]):
        switch = ZipLineDecoderSwitch(transform=GDTransform(order=8), forwarding={0: 1})
        for identifier, basis in enumerate(bases):
            switch.install_identifier_mapping(identifier, basis)
        switch.switch.attach_port(1, _sink(outputs))
        return switch

    def push(frame_list: List[bytes]) -> Callable[[Any], None]:
        def run(switch) -> None:
            receive = switch.receive
            for frame in frame_list:
                receive(frame, 0)
        return run

    # Correctness before timing: both wire formats decode back to the input.
    wire: Dict[bool, List[bytes]] = {}
    for preloaded in (True, False):
        wire[preloaded] = []
        push(frames)(encoder(preloaded, wire[preloaded]))
        decoded: List[bytes] = []
        push(wire[preloaded])(decoder(decoded))
        if [frame[14 : 14 + CHUNK_BYTES] for frame in decoded] != chunks:
            raise GateError("isolated switch pair does not restore its input")
    for name, setup, frame_list in (
        ("zipline.encoder.hit_frames_per_s", lambda: encoder(True, None), frames),
        ("zipline.encoder.miss_frames_per_s", lambda: encoder(False, None), frames),
        ("zipline.decoder.type3_frames_per_s", lambda: decoder(None), wire[True]),
        ("zipline.decoder.type2_frames_per_s", lambda: decoder(None), wire[False]),
    ):
        results[name] = len(frame_list) / _median_seconds(setup, push(frame_list), runs)

    # -- core: in-memory codec, batch CRC, batch split, dictionary -------------
    data = codec_buffer(seed, divisor)
    megabytes = len(data) / 1e6
    blob = GDCodec(identifier_bits=CODEC_IDENTIFIER_BITS).compress_to_container(data)
    if GDCodec.from_container_header(blob).decompress_container(blob) != data:
        raise GateError("in-memory codec round trip is not byte-identical")
    results["core.codec.compress_mbps"] = megabytes / _median_seconds(
        lambda: GDCodec(identifier_bits=CODEC_IDENTIFIER_BITS),
        lambda codec: codec.compress_to_container(data), runs,
    )
    results["core.codec.decompress_mbps"] = megabytes / _median_seconds(
        lambda: GDCodec.from_container_header(blob),
        lambda codec: codec.decompress_container(blob), runs,
    )
    crc = transform.code.crc_engine
    results["core.crc.batch_mbps"] = 8 * megabytes / _median_seconds(
        lambda: None,
        lambda _: [crc.compute_batch(data, 8 * CHUNK_BYTES) for _ in range(8)],
        runs,
    )
    results["core.transform.split_batch_mbps"] = megabytes / _median_seconds(
        lambda: None, lambda _: transform.split_batch_fields(data), runs
    )

    keys = list(range(256)) * (count // 8)

    def full_dictionary() -> BasisDictionary:
        dictionary = BasisDictionary(256)
        for key in range(256):
            dictionary.insert(key)
        return dictionary

    def lookups(dictionary: BasisDictionary) -> None:
        lookup = dictionary.lookup
        for key in keys:
            lookup(key)

    def inserts(dictionary: BasisDictionary) -> None:
        insert = dictionary.insert
        for key in range(256, 256 + len(keys)):
            insert(key)

    results["core.dictionary.hit_lookups_per_s"] = len(keys) / _median_seconds(
        full_dictionary, lookups, runs
    )
    results["core.dictionary.evicting_inserts_per_s"] = len(keys) / _median_seconds(
        full_dictionary, inserts, runs
    )

    # -- controlplane: synchronous learn digests over a 64-identifier pool -----
    installs = count // 4

    def control_plane():
        digests = DigestEngine(None)
        plane = ZipLineControlPlane(
            digests,
            encoder_switch=ZipLineEncoderSwitch(identifier_bits=6),
            decoder_switch=ZipLineDecoderSwitch(identifier_bits=6),
            identifier_bits=6,
        )
        return digests, plane

    def learn(state) -> None:
        digests, plane = state
        for basis in range(installs):
            digests.emit(LEARN_DIGEST, {"basis": basis})
        if plane.stats.mappings_learned != installs:
            raise GateError("isolated control plane did not install every basis")

    results["controlplane.installs_per_s"] = installs / _median_seconds(
        control_plane, learn, runs
    )

    # -- replay.metrics: latency accounting, sketch vs exact -------------------
    samples = [1e-6 * (1 + index % 997) for index in range(count * 32)]

    def adds(distribution: Distribution) -> None:
        add = distribution.add
        for value in samples:
            add(value)
        distribution.percentile(99)

    results["replay.metrics.streaming_adds_per_s"] = len(samples) / _median_seconds(
        lambda: Distribution("latency", bounded=True), adds, runs
    )
    results["replay.metrics.exact_adds_per_s"] = len(samples) / _median_seconds(
        lambda: Distribution("latency"), adds, runs
    )

    # -- workloads: chunk generators -------------------------------------------
    generated = count * 8
    for name, factory in (
        ("workloads.synthetic_chunks_per_s", lambda: SyntheticSensorWorkload(
            num_chunks=generated, distinct_bases=64, seed=seed)),
        ("workloads.dns_chunks_per_s", lambda: DnsQueryWorkload(
            num_queries=generated, distinct_names=400, seed=seed)),
        ("workloads.thrash_chunks_per_s", lambda: DictionaryThrashWorkload(
            num_chunks=generated, distinct_bases=40, seed=seed)),
    ):
        results[name] = generated / _median_seconds(
            factory, lambda workload: sum(1 for _ in workload.iter_chunks()), runs
        )

    # -- topology.sharding: rack-static-hit's spec at 1 and 2 workers ----------
    spec = rack_fan_in_topology(
        racks=2, senders=16, chunks=1000 // divisor, bases=8, scenario="static",
        seed=seed,
    )
    total_chunks = 32 * (1000 // divisor)
    texts = set()
    wall_s: Dict[int, List[float]] = {1: [], 2: []}
    reference_s: List[float] = []
    # Three alternating pairs of ~1.5 s runs: the time cap does not fit five.
    for _ in range(3):
        for workers in (1, 2):
            gc.collect()
            with calibration.Sampler() as sampler:
                start = time.perf_counter()
                texts.add(
                    run_topology(
                        spec, workers=workers, metrics_mode="streaming"
                    ).json_text()
                )
                wall_s[workers].append(time.perf_counter() - start)
            if workers == 1:
                reference_s.append(wall_s[1][-1] * sampler.factor())
    if len(texts) != 1:
        raise GateError("workers=2 report differs from workers=1")
    results["topology.sharding.w1_chunks_per_s"] = total_chunks / statistics.median(
        reference_s
    )
    # The parent idles while two workers run, and kernel slices woken from
    # idle do not see the workers' conditions: the speed-up is taken from
    # the alternating raw wall seconds instead.
    results["topology.sharding.w2_chunks_per_s"] = (
        results["topology.sharding.w1_chunks_per_s"]
        * statistics.median(wall_s[1]) / statistics.median(wall_s[2])
    )
    # ROADMAP's machine-independent headline: the stack's chunk rate over
    # the codec kernel's.  Base: w1_chunks_per_s and core.codec.compress_mbps.
    results["stack_over_codec"] = results["topology.sharding.w1_chunks_per_s"] / (
        results["core.codec.compress_mbps"] * 1e6 / CHUNK_BYTES
    )
    return results
