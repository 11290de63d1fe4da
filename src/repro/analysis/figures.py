"""Figures 4 and 5 of the paper, computed from the code that models them.

Both figures compare three programs on the switch: ``no_op`` (plain
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
:data:`GENERATOR_PACKET_RATE`).  The model contributes one check, the
precondition of the vendor's line-rate guarantee: a program that
recirculated or duplicated a packet is refused.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Tuple

from repro.core.transform import GDTransform
from repro.exceptions import ReproError
from repro.net.ethernet import EthernetFrame, EtherType, frame_wire_bytes
from repro.net.mac import MacAddress
from repro.replay.link import EmulatedLink
from repro.sim.simulator import Simulator
from repro.zipline._program import ZipLineSwitchBase
from repro.zipline.decoder_switch import ZipLineDecoderSwitch
from repro.zipline.encoder_switch import ZipLineEncoderSwitch
from repro.zipline.headers import ETHERTYPE_RAW_CHUNK

__all__ = [
    "FIGURE4_FRAME_SIZES",
    "GENERATOR_PACKET_RATE",
    "HOST_NIC_ONE_WAY",
    "LINE_RATE_BPS",
    "PROGRAMS",
    "figure4",
    "figure5",
    "figure5_programs",
    "packet_rate",
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


def figure4(
    programs: Mapping[str, ZipLineSwitchBase]
) -> Dict[Tuple[str, int], float]:
    """Packets per second per ``(program, frame size)``.

    The rate is :func:`packet_rate` for every program; what the programs
    decide is whether the line-rate guarantee applies at all.  Pass them
    after they have processed frames (e.g. after :func:`figure5`).
    """
    for name, program in programs.items():
        if program.pipeline.uses_forbidden_features:
            raise ReproError(
                f"program {name!r} recirculated or duplicated a packet: "
                "the line-rate guarantee does not apply"
            )
    return {
        (name, frame_bytes): packet_rate(frame_bytes)
        for name in programs
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
    read Figure 4's precondition off the same programs afterwards.
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
