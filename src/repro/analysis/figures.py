"""The paper's numbers, each computed once from the code that models it.

:data:`CLAIMS` holds every number of the evaluation this repository
reproduces, each with the one function computing it at a given scale.
:func:`claim_row` computes a row and lays it out for the table of
``docs/paper-mapping.md``: ``scripts/gen_cli_docs.py`` renders that table
at the scale each row states, ``repro claims`` prints any rows at any
scale, and the tests assert every row at a small scale.
A row's kind says what its number rests on: ``calibrated`` constants chosen
to land on the paper's value, ``derived`` arithmetic over the wire format
or named inputs that no simulated behaviour can move, or a ``simulated``
run of the model, which a change to the model's behaviour moves.

Figures 4 and 5 compare three programs on the switch: ``no_op`` (plain
forwarding), ``encode`` and ``decode``.  The paper's claim for both is that
the two ZipLine programs are indistinguishable from forwarding.

**Figure 5** (round-trip time) is read off the simulator.  One probe frame
per program goes host → :class:`~repro.replay.link.EmulatedLink` → the
compiled switch program → :class:`~repro.replay.link.EmulatedLink` → host,
and the RTT is twice the simulated one-way arrival time plus the host/NIC
cost of one direction.  Wire serialisation, propagation and each program's
own pipeline latency come from the models every topology run uses, so a
program whose pipeline grew a stage shows it here.  The host/NIC cost
(kernel stack and NIC + PCIe at both ends) is not modelled: it is a
calibrated input, :data:`HOST_NIC_ONE_WAY`.

* ``encode`` — :class:`~repro.zipline.encoder_switch.ZipLineEncoderSwitch`
  on a raw-chunk frame (a miss: it emits a type-2 frame);
* ``decode`` — :class:`~repro.zipline.decoder_switch.ZipLineDecoderSwitch`
  on the type-2 frame ``encode`` emitted;
* ``no_op`` — the encoder program's forwarding branch on a frame that is no
  ZipLine packet, as long as the raw-chunk frame, so only pipeline latency
  can separate the three.

**Figure 4** (throughput) is arithmetic and says so: a frame size's packet
rate is the line rate over the frame's wire occupancy, capped by what the
traffic generator sends.  Both are inputs (:data:`LINE_RATE_BPS`,
:data:`GENERATOR_PACKET_RATE`).  The precondition of the vendor's line-rate
guarantee — no program recirculates or duplicates a packet — is the
``section-5`` claim, read off the Figure 5 probes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

from repro import registry
from repro.analysis.experiment import PAPER_REPETITIONS
from repro.analysis.statistics import MeasurementSummary, summarize
from repro.core.crc import syndrome_crc
from repro.core.hamming import HammingCode
from repro.core.polynomials import TABLE_1
from repro.core.transform import GDTransform
from repro.exceptions import ReproError
from repro.net.ethernet import EthernetFrame, EtherType, frame_wire_bytes
from repro.net.mac import MacAddress
from repro.replay import ChunkTraceSource, RecordedPacing
from repro.replay.link import EmulatedLink
from repro.sim.simulator import Simulator
from repro.topology import TopologyEngine, TopologySpec, paper_testbed_topology
from repro.workloads import (
    PAPER_SYNTHETIC_CHUNKS,
    WORKLOAD_FACTORIES,
    ChunkTrace,
    SyntheticSensorWorkload,
)
from repro.zipline._program import ZipLineSwitchBase
from repro.zipline.decoder_switch import ZipLineDecoderSwitch
from repro.zipline.encoder_switch import ZipLineEncoderSwitch
from repro.zipline.headers import ETHERTYPE_RAW_CHUNK

__all__ = [
    "CLAIMS",
    "CLAIMS_HEADER",
    "Claim",
    "FIGURE4_FRAME_SIZES",
    "GENERATOR_PACKET_RATE",
    "HOST_NIC_ONE_WAY",
    "KINDS",
    "LINE_RATE_BPS",
    "PROGRAMS",
    "claim_row",
    "figure3_ratio",
    "figure4",
    "figure5",
    "figure5_programs",
    "learning_delay",
    "packet_rate",
    "select_claims",
]

#: The switch programs of both figures.
PROGRAMS = ("no_op", "encode", "decode")

#: Figure 4 input: the 100 GbE line rate, in bits per second.
LINE_RATE_BPS = 100e9

#: Figure 4 input: packets per second the sending server generates with the
#: ``raw_ethernet_*`` tools (the paper observes ≈ 7 Mpkt/s).
GENERATOR_PACKET_RATE = 7.0e6

#: The frame sizes of Figure 4, in bytes.
FIGURE4_FRAME_SIZES = (64, 1500, 9000)

#: Figure 5 input: host/NIC cost of one direction, in seconds — host
#: transmit 1.5 µs, NIC + PCIe out 1.0 µs, NIC + PCIe in 1.0 µs, host
#: receive 1.5 µs.  Calibrated, not modelled.
HOST_NIC_ONE_WAY = 1.5e-6 + 1.0e-6 + 1.0e-6 + 1.5e-6

#: The switch ports the probe enters and leaves by (1 is both programs'
#: default egress port).
INGRESS_PORT = 0
EGRESS_PORT = 1

_HOST = MacAddress("02:00:00:00:00:01")


def packet_rate(frame_bytes: int) -> float:
    """Figure 4's packets per second for one frame size (any program)."""
    return min(
        LINE_RATE_BPS / (frame_wire_bytes(frame_bytes) * 8), GENERATOR_PACKET_RATE
    )


def figure4() -> Dict[Tuple[str, int], float]:
    """Packets per second per ``(program, frame size)``: :func:`packet_rate`
    for every program of :data:`PROGRAMS`."""
    return {
        (name, frame_bytes): packet_rate(frame_bytes)
        for name in PROGRAMS
        for frame_bytes in FIGURE4_FRAME_SIZES
    }


def figure5_programs() -> Dict[str, ZipLineSwitchBase]:
    """The three programs of Figure 5, each built on its own simulator."""
    transform = GDTransform(order=8)
    return {
        "no_op": ZipLineEncoderSwitch(transform=transform, simulator=Simulator()),
        "encode": ZipLineEncoderSwitch(transform=transform, simulator=Simulator()),
        "decode": ZipLineDecoderSwitch(transform=transform, simulator=Simulator()),
    }


def _one_way_time(program: ZipLineSwitchBase, frame: bytes) -> Tuple[float, bytes]:
    """Send ``frame`` from a host through ``program`` to a host.

    Host → link → switch → link → host on the program's simulator, both
    links at their defaults (100 Gbit/s, 0.5 µs).  Returns the simulated
    time from sending to arrival and the frame that arrived.
    """
    simulator = program.simulator
    arrivals: List[Tuple[float, bytes]] = []
    back = EmulatedLink(
        simulator, sink=lambda data, time: arrivals.append((time, data)), name="back"
    )
    program.switch.attach_port(EGRESS_PORT, back.send)
    out = EmulatedLink(
        simulator, sink=lambda data, _time: program.receive(data, INGRESS_PORT), name="out"
    )
    start = simulator.now
    out.send(frame, start)
    simulator.run()
    (arrival, received), = arrivals
    return arrival - start, received


def figure5(
    programs: Optional[Mapping[str, ZipLineSwitchBase]] = None
) -> Dict[str, float]:
    """Round-trip time per program, in seconds (see the module docstring).

    ``programs`` defaults to fresh :func:`figure5_programs`; pass them to
    read the line-rate precondition off the same programs afterwards.
    """
    if programs is None:
        programs = figure5_programs()
    chunk = bytes(range(programs["encode"].headers.chunk.total_bytes))
    raw = EthernetFrame(_HOST, _HOST, ETHERTYPE_RAW_CHUNK, chunk).to_bytes()
    plain = EthernetFrame(_HOST, _HOST, EtherType.IPV4, bytes(len(chunk))).to_bytes()
    one_way = {}
    one_way["encode"], type2 = _one_way_time(programs["encode"], raw)
    one_way["decode"], _ = _one_way_time(programs["decode"], type2)
    one_way["no_op"], _ = _one_way_time(programs["no_op"], plain)
    return {name: 2 * (one_way[name] + HOST_NIC_ONE_WAY) for name in PROGRAMS}


# -- Figure 3 and §7 ---------------------------------------------------------

#: Figure 3's stated scale, in chunks per trace.
FIGURE3_CHUNKS = 60_000

#: Seconds each Figure 3 trace takes on the wire: the paper's trace at its
#: packet rate (446 ms), so the learning delay weighs what it weighed there.
TRACE_DURATION = PAPER_SYNTHETIC_CHUNKS / GENERATOR_PACKET_RATE

#: Figure 3's two traces: the run parameter that sets each one's variety,
#: its value at :data:`FIGURE3_CHUNKS` (scaled with the chunk count, so
#: basis discovery stays the same share of the trace), and the seed.
FIGURE3_TRACES = {"synthetic": ("bases", 32, 2020), "dns": ("names", 400, 2016)}

#: Packets per §7 learning-delay run: 4 ms at 1 Mpkt/s, past the window.
LEARNING_DELAY_PACKETS = 4000


def figure3_spec(workload: str, scenario: str, chunks: int) -> TopologySpec:
    """The ``paper-testbed`` run behind one Figure 3 bar."""
    parameter, variety, seed = FIGURE3_TRACES[workload]
    return paper_testbed_topology(
        scenario=scenario, workload=workload, chunks=chunks, flow_seed=seed,
        packet_rate=chunks / TRACE_DURATION,
        **{parameter: max(1, round(variety * chunks / FIGURE3_CHUNKS))},
    )


def figure3_ratio(workload: str, scenario: str, chunks: int) -> float:
    """One ZipLine bar of Figure 3: the compression ratio of its run."""
    return TopologyEngine(figure3_spec(workload, scenario, chunks)).run().compression_ratio


def figure3_gzip_ratio(workload: str, chunks: int) -> float:
    """Figure 3's gzip bar: the registry's ``gzip`` codec (the ``gzip``
    tool's DEFLATE and framing) over the trace the ZipLine bars replay, fed
    chunk by chunk as one file.  The trace streams through: nothing holds
    all of it at once."""
    spec = figure3_spec(workload, "dynamic", chunks)
    (flow,) = spec.flows
    generator, _bases = WORKLOAD_FACTORIES[workload](
        chunks=chunks, bases=flow.bases, names=flow.names, order=spec.order, seed=flow.seed
    )
    input_bytes = 0

    def counted() -> Iterator[bytes]:
        nonlocal input_bytes
        for chunk in generator.iter_chunks():
            input_bytes += len(chunk)
            yield chunk

    compressed = sum(len(block) for block in registry.get("gzip").compress_stream(counted()))
    return compressed / input_bytes


def learning_delay(repetitions: int) -> MeasurementSummary:
    """§7's learning delay in ms over ``repetitions`` testbed runs.

    The paper's experiment: one chunk sent over and over at 1 Mpkt/s, timed
    from the first type-2 to the first type-3 packet at the sink.  A run
    that saw no compressed packet raises :class:`ReproError`.
    """
    samples: List[float] = []
    for seed in range(repetitions):
        chunk = SyntheticSensorWorkload(num_chunks=1, distinct_bases=1, seed=seed).chunks()[0]
        trace = ChunkTrace([chunk] * LEARNING_DELAY_PACKETS)
        source = (ChunkTraceSource(trace), RecordedPacing())
        report = TopologyEngine(paper_testbed_topology(seed=seed)).run(sources={"flow0": source})
        if report.learning_time is None:
            raise ReproError("a learning-delay run saw no compressed packet")
        samples.append(report.learning_time * 1e3)
    return summarize(samples)


# -- the claims table ----------------------------------------------------------

#: What a claim's number can rest on (see the module docstring).
KINDS = ("calibrated", "derived", "simulated")


@dataclass(frozen=True)
class Claim:
    """One number of the paper's evaluation and the function reproducing it.

    ``compute(scale)`` returns one value (or a tuple) per entry of ``paper``,
    each within ``tolerance`` of it when the claim holds; ``scale`` is the
    one the docs state (``None``: none moves the value).  ``form`` lays
    values out, reproduced ones with ``digits`` decimals.
    """

    id: str
    claim: str
    paper: Tuple[float, ...]
    kind: str
    tolerance: float
    scale: Optional[int]
    compute: Callable[[Optional[int]], Union[float, Tuple[float, ...]]]
    basis: str
    form: str = "{}"
    digits: int = 5
    scale_form: str = "{:,} chunks"

    def values(self, scale: Optional[int]) -> Tuple[float, ...]:
        values = self.compute(scale)
        return values if isinstance(values, tuple) else (values,)

    def holds(self, values: Tuple[float, ...]) -> bool:
        return len(values) == len(self.paper) and all(
            abs(value - paper) <= self.tolerance for value, paper in zip(values, self.paper)
        )

    def paper_text(self) -> str:
        return self.form.format(*(f"{value:g}" for value in self.paper))


def _table1_rows(_scale: None) -> Tuple[int, int]:
    return len(TABLE_1), sum(row.is_valid_hamming_generator() for row in TABLE_1)


def _table2_share(order: int) -> float:
    """Share of single-bit errors whose syndrome is the CRC-m of the bits."""
    code = HammingCode(order)
    crc = syndrome_crc(code.crc_parameter, order)
    return sum(
        code.syndrome_of_error_position(position) == crc.compute(1 << position, code.n)
        for position in range(code.n)
    ) / code.n


def _learning_delay_ms(runs: int) -> Tuple[float, float]:
    summary = learning_delay(runs)
    return summary.mean, summary.ci95


def _figure4_gbps(_scale: None) -> Tuple[float, ...]:
    """Figure 4's bars in Gbit/s: the slowest program per frame size."""
    rates = figure4()
    return tuple(
        min(rates[(name, size)] for name in PROGRAMS) * size * 8 / 1e9
        for size in FIGURE4_FRAME_SIZES
    )


def _recirculated_or_duplicated(program: ZipLineSwitchBase) -> bool:
    """True when ``program``'s pipeline ran more passes than frames arrived,
    or the program emitted more frames than it received."""
    switch = program.switch
    ports = [switch.port_stats(port) for port in range(switch.port_count)]
    received = sum(stats.rx_packets for stats in ports)
    return (
        program.pipeline.packets_processed > received
        or sum(stats.tx_packets for stats in ports) > received
    )


def _line_rate_precondition(_scale: None) -> Tuple[float, float, int]:
    """CRC-extern passes per chunk of the encode and decode probes, and how
    many programs recirculated or duplicated a packet."""
    programs = figure5_programs()
    figure5(programs)
    encode, decode = (
        programs[name].crc_invocations / programs[name].pipeline.packets_processed
        for name in ("encode", "decode")
    )
    return encode, decode, sum(_recirculated_or_duplicated(p) for p in programs.values())


#: Figure 3's bars: each one's label, kind and what its ratio rests on.
_FIGURE3_BARS = {
    "no_table": ("no table", "derived", "a 33-byte type-2 payload per 32-byte chunk"),
    "static": ("static table", "derived", "a 3-byte type-3 payload per 32-byte chunk"),
    "dynamic": ("dynamic learning", "simulated", "type-2 traffic while bases are learned"),
    "gzip": ("gzip", "simulated", "the registry's `gzip` codec "
             "(`repro.core.engine.GzipStreamCompressor`) over the same trace"),
}


def _figure3(workload: str, bar: str, paper: float, tolerance: float) -> Claim:
    """One bar of Figure 3, off a `paper-testbed` run of the trace."""
    label, kind, basis = _FIGURE3_BARS[bar]
    compute = (
        partial(figure3_gzip_ratio, workload) if bar == "gzip"
        else partial(figure3_ratio, workload, bar)
    )
    return Claim(f"fig3-{workload}-{bar}", f"Figure 3, `{workload}` trace: *{label}* ratio",
                 (paper,), kind, tolerance, FIGURE3_CHUNKS, compute,
                 f"{basis}; `repro.analysis.figures.figure3_spec`")


#: Every reproduced number of the paper, in the order of the paper.
CLAIMS: Tuple[Claim, ...] = (
    Claim("table-1", "Table 1: a primitive CRC generator for every Hamming code "
          "(2^m − 1, 2^m − 1 − m), m = 3…15 (rows, primitive rows)", (15, 15), "derived",
          0, None, _table1_rows,
          "primitivity of each polynomial of `repro.core.polynomials.TABLE_1`",
          form="{} rows, {} primitive", digits=0),
    Claim("table-2", "Table 2: each single-bit error's Hamming syndrome equals the CRC-m "
          "of the bit sequence (share of bit positions)", (1,), "derived", 0, 3,
          _table2_share, "`repro.core.hamming.HammingCode` against "
          "`repro.core.crc.syndrome_crc`", digits=3, scale_form="m = {}"),
    _figure3("synthetic", "no_table", 1.03, 0.01),
    _figure3("synthetic", "static", 0.09, 0.01),
    _figure3("synthetic", "dynamic", 0.11, 0.015),
    _figure3("synthetic", "gzip", 0.09, 0.05),
    _figure3("dns", "no_table", 1.03, 0.01),
    _figure3("dns", "dynamic", 0.10, 0.015),
    _figure3("dns", "gzip", 0.08, 0.03),
    Claim("learning-delay", "§7: time to learn a basis–identifier pair, mean and 95 % CI",
          (1.77, 0.08), "calibrated", 0.1, PAPER_REPETITIONS, _learning_delay_ms,
          "the sum of `repro.tofino.digest.DEFAULT_DELIVERY_LATENCY` and "
          "`repro.controlplane.manager.ControlPlaneTimings` (processing, two table "
          "writes), jittered per run", form="({} ± {}) ms", digits=3,
          scale_form="{} runs"),
    Claim("figure-4", "Figure 4: throughput at 64 / 1500 / 9000-byte frames, slowest of "
          "no-op, encode and decode", (3.6, 84.0, 99.7), "derived", 0.1, None,
          _figure4_gbps, "`repro.analysis.figures.LINE_RATE_BPS` capped by "
          "`repro.analysis.figures.GENERATOR_PACKET_RATE`; the `section-5` row checks "
          "the line-rate precondition", form="{} / {} / {} Gbit/s", digits=3),
    Claim("figure-5", "Figure 5: round-trip time with the switch in the path, slowest "
          "program (paper: the 10–15 µs band)", (12.5,), "calibrated", 2.5, None,
          lambda _scale: max(figure5().values()) * 1e6,
          "2 × (simulated one-way time + the calibrated "
          "`repro.analysis.figures.HOST_NIC_ONE_WAY`)", form="{} µs", digits=3),
    Claim("section-5", "§5: line rate needs one CRC-extern pass per chunk and no "
          "recirculation or duplication (encode, decode; Figure 5 probes)", (1, 1, 0),
          "simulated", 0, None, _line_rate_precondition,
          "each program's `crc_invocations`; a program recirculates "
          "when its `repro.tofino.pipeline.Pipeline` ran more passes than frames "
          "arrived, or it emitted more frames than it received "
          "(`repro.tofino.switch.PortStats`)",
          form="{} / {} CRC passes per chunk, {} programs recirculate", digits=0),
)

#: The head of the claims table :func:`claim_row` lays rows out for.
CLAIMS_HEADER = (
    "| Id | Paper claim | Paper | Reproduced | ± | Kind | Scale | Rests on |",
    "| --- | --- | --- | --- | --- | --- | --- | --- |",
)


def select_claims(ids: Sequence[str], scale: Optional[int] = None) -> List[Claim]:
    """The rows of :data:`CLAIMS` named by ``ids`` (every row when empty).

    Raises :class:`~repro.exceptions.ReproError` for an unknown id, and for
    a ``scale`` given to a row that takes none.
    """
    by_id = {claim.id: claim for claim in CLAIMS}
    unknown = [claim_id for claim_id in ids if claim_id not in by_id]
    if unknown:
        raise ReproError(f"unknown claim {unknown[0]!r}; valid IDs: {', '.join(by_id)}")
    selected = [by_id[claim_id] for claim_id in ids] if ids else list(CLAIMS)
    if scale is not None:
        if scale < 1:
            raise ReproError(f"scale must be a positive integer, got {scale}")
        for claim in selected:
            if claim.scale is None:
                raise ReproError(f"claim {claim.id!r} takes no scale: nothing moves its value")
    return selected


def claim_row(claim: Claim, scale: Optional[int] = None) -> Tuple[str, bool]:
    """``claim`` computed at ``scale`` (default: the one it states), as one
    markdown row under :data:`CLAIMS_HEADER`, and whether it holds there."""
    scale = claim.scale if scale is None else scale
    values = claim.values(scale)
    cells = (
        f"`{claim.id}`",
        claim.claim,
        claim.paper_text(),
        claim.form.format(*(f"{value:.{claim.digits}f}" for value in values)),
        f"{claim.tolerance:g}",
        claim.kind,
        "—" if scale is None else claim.scale_form.format(scale),
        claim.basis,
    )
    row = "| " + " | ".join(cell.replace("|", "\\|") for cell in cells) + " |"
    return row, claim.holds(values)
