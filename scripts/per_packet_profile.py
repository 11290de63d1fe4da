#!/usr/bin/env python3
"""Per-function Python calls and bytecodes per chunk on the per-packet path.

Builds a topology preset's engine first, then counts, during
``TopologyEngine.run()`` only, every Python-level ``call`` event and every
bytecode executed (``sys.settrace`` opcode events), per function.  It prints
one table per metrics mode (``streaming``, then ``exact``: what a run keeps
per frame is the difference).  Both counts are deterministic — the same
spec gives the same table on any host —
so they size per-packet work where wall time cannot: on a shared machine
whose speed changes from second to second.  They say nothing about the
cost of one bytecode or of the C calls it makes; use them to find and rank
interpreter overhead, then confirm with ``benchmarks/stack``.

A second, uncounted run of the same spec then says which gate fired:
each receiver's lookahead decisions (admitted, or refused for a counted
write ``in_flight``, a delayed frame's ``hold``, a stamp outside the
``reaction`` window, past the run's ``horizon`` or at or after a pending
``write``), per frame and per list a crossing judged, and each link's
deliveries: handed on at once, owed (and the events that delivered
them), or delayed past a later frame's reach, each in an event of its
own.

    python scripts/per_packet_profile.py --preset rack-fan-in          # 32,000 chunks, minutes
    python scripts/per_packet_profile.py --preset rack-fan-in --quick  # 2,000 chunks, seconds
    python scripts/per_packet_profile.py --preset fanin-thrash-learn --quick
    python scripts/per_packet_profile.py --preset dns-lossy-multihop --quick
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from pathlib import Path
from types import CodeType
from typing import Any, Callable, Dict, Optional, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

def _rack_fan_in(chunks: int, senders: int):
    from repro.topology import rack_fan_in_topology

    return rack_fan_in_topology(
        racks=2, senders=senders, chunks=chunks, bases=8, scenario="static", seed=2020
    )


def _fanin_thrash_learn(chunks: int):
    from repro.topology import FaultPlan, fan_in_topology, validate_spec_faults

    spec = fan_in_topology(
        senders=4, workload="thrash", chunks=chunks, bases=10, packet_rate=1e5,
        identifier_bits=5, control="in-network", seed=2020,
    )
    spec.faults = FaultPlan(control_loss=0.1)
    validate_spec_faults(spec)
    return spec


def _dns_lossy_multihop(chunks: int):
    from repro.topology import linear_topology

    return linear_topology(
        workload="dns", chunks=chunks, names=400, scenario="dynamic", hops=3,
        loss=0.01, reorder=0.01, queue_capacity=64, packet_rate=1e5,
        bandwidth_gbps=0.066, seed=2020,
    )


#: preset -> (full-size spec, ``--quick`` spec).  Each is the benchmark
#: workload of its name (``benchmarks/stack``) at seed 2020; the full-size
#: ``rack-fan-in`` run is ``rack-static-hit``, and every quick size is the
#: one ``tests/topology/test_per_packet_budget.py`` guards.  The two
#: learning shapes keep events between injections (control steps,
#: refused deliveries), so their trains are short and rarely cross.
PRESETS: Dict[str, Tuple[Callable[[], Any], Callable[[], Any]]] = {
    "rack-fan-in": (
        lambda: _rack_fan_in(chunks=1000, senders=16),
        lambda: _rack_fan_in(chunks=250, senders=4),
    ),
    "fanin-thrash-learn": (
        lambda: _fanin_thrash_learn(chunks=4000),
        lambda: _fanin_thrash_learn(chunks=500),
    ),
    "dns-lossy-multihop": (
        lambda: _dns_lossy_multihop(chunks=16000),
        lambda: _dns_lossy_multihop(chunks=2000),
    ),
}


def profile_run(engine) -> Tuple[Counter, Counter]:
    """``engine.run()`` under an opcode tracer: (calls, bytecodes) per code."""
    calls: Counter = Counter()
    bytecodes: Counter = Counter()

    def local_trace(frame, event, _arg):
        if event == "opcode":
            bytecodes[frame.f_code] += 1
        return local_trace

    def global_trace(frame, _event, _arg):
        calls[frame.f_code] += 1
        frame.f_trace_opcodes = True
        frame.f_trace_lines = False
        return local_trace

    sys.settrace(global_trace)
    try:
        engine.run()
    finally:
        sys.settrace(None)
    return calls, bytecodes


#: The gates of ``Lookahead.admits``, in the order it asks them.
GATES = ("in_flight", "hold", "reaction", "horizon", "write")


def refusal(lookahead, stamp: float, clock: float, first: float) -> Optional[str]:
    """The first gate that refuses ``stamp`` at ``clock``, or ``None``;
    ``first`` is the clock from which a pending write still counts."""
    if lookahead.in_flight:
        return "in_flight"
    if lookahead.hold >= clock:
        return "hold"
    if not 0.0 <= stamp - clock < lookahead.reaction:
        return "reaction"
    if stamp > lookahead.simulator.horizon:
        return "horizon"
    if any(first <= write <= stamp for write in lookahead.writes):
        return "write"
    return None


def gate_run(engine) -> Tuple[Dict[Any, Counter], Dict[Any, Counter]]:
    """``engine.run()`` with the lookahead and the links' delivery events
    wrapped: (decisions per lookahead, deliveries per link)."""
    from repro.replay.link import EmulatedLink
    from repro.sim.lookahead import Lookahead

    decisions: Dict[Any, Counter] = {}
    deliveries: Dict[Any, Counter] = {}
    admits, admitted = Lookahead.admits, Lookahead.admitted
    deliver, deliver_owed = EmulatedLink._deliver, EmulatedLink._deliver_owed

    def counting_admits(self, stamp):
        clock = self.simulator.now
        gate = refusal(self, stamp, clock, clock)
        verdict = admits(self, stamp)
        assert verdict == (gate is None), (gate, verdict)
        decisions.setdefault(self, Counter())[gate or "admitted"] += 1
        return verdict

    def counting_admitted(self, stamps, clocks):
        count = admitted(self, stamps, clocks)
        tally = decisions.setdefault(self, Counter())
        tally["list admitted"] += count
        if count < len(stamps):
            gate = refusal(self, stamps[count], clocks[count], clocks[0])
            tally[f"list cut: {gate}"] += 1
        return count

    def counting_deliver(self, *args):
        deliveries.setdefault(self, Counter())["delayed"] += 1
        return deliver(self, *args)

    def counting_deliver_owed(self):
        before = self.stats.delivered
        try:
            return deliver_owed(self)
        finally:
            tally = deliveries.setdefault(self, Counter())
            tally["owed events"] += 1
            tally["owed"] += self.stats.delivered - before

    Lookahead.admits, Lookahead.admitted = counting_admits, counting_admitted
    EmulatedLink._deliver, EmulatedLink._deliver_owed = counting_deliver, counting_deliver_owed
    try:
        engine.run()
    finally:
        Lookahead.admits, Lookahead.admitted = admits, admitted
        EmulatedLink._deliver, EmulatedLink._deliver_owed = deliver, deliver_owed
    return decisions, deliveries


def print_gates(engine, decisions, deliveries) -> None:
    """One row per receiver that was asked, one per link."""
    names = {}
    for node in engine.graph.nodes.values():
        if getattr(node, "lookahead", None) is not None:
            names[node.lookahead] = node.name
    for link in engine.graph.links:
        downstream = getattr(link._sink, "__self__", None)
        if link._lookahead is not None and link._lookahead not in names:
            names[link._lookahead] = f"{getattr(downstream, 'name', '?')} (from {link.name})"
    columns = ("admitted",) + GATES
    lists = ("list admitted",) + tuple(f"list cut: {gate}" for gate in GATES)
    print("# lookahead decisions per receiver: per frame (admits), then per list (admitted)")
    print(f"{'receiver':<24}" + "".join(f"{column:>10}" for column in columns))
    for lookahead, tally in decisions.items():
        print(f"{names.get(lookahead, '?'):<24}"
              + "".join(f"{tally[column]:>10}" for column in columns))
    if any(tally[column] for tally in decisions.values() for column in lists):
        print(f"{'receiver':<24}{'admitted':>10}" + "".join(f"{'cut: ' + gate:>15}" for gate in GATES))
        for lookahead, tally in decisions.items():
            print(f"{names.get(lookahead, '?'):<24}{tally['list admitted']:>10}"
                  + "".join(f"{tally['list cut: ' + gate]:>15}" for gate in GATES))
    print("# link deliveries: at once, owed (in owed events), delayed (an event each)")
    print(f"{'link':<24}{'delivered':>10}{'at once':>10}{'owed':>10}{'owed events':>12}{'delayed':>10}")
    for link in engine.graph.links:
        tally = deliveries.get(link, Counter())
        delivered = link.stats.delivered
        at_once = delivered - tally["owed"] - tally["delayed"]
        print(f"{link.name:<24}{delivered:>10}{at_once:>10}{tally['owed']:>10}"
              f"{tally['owed events']:>12}{tally['delayed']:>10}")


def function_name(code: CodeType) -> str:
    path = Path(code.co_filename)
    try:
        module = path.relative_to(REPO_ROOT / "src").with_suffix("").as_posix()
    except ValueError:
        module = path.name
    qualname = getattr(code, "co_qualname", code.co_name)  # 3.11+
    return f"{module.replace('/', '.')}:{qualname}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--preset", choices=sorted(PRESETS), default="rack-fan-in")
    parser.add_argument("--quick", action="store_true", help="small inputs")
    parser.add_argument("--top", type=int, default=40, help="rows to print")
    args = parser.parse_args()

    from repro.topology import TopologyEngine

    spec = PRESETS[args.preset][args.quick]()
    for metrics_mode in ("streaming", "exact"):
        engine = TopologyEngine(spec, metrics_mode=metrics_mode)
        calls, bytecodes = profile_run(engine)
        chunks = sum(state.chunks_sent for state in engine.flow_states)
        if not chunks:
            print("the run sent no chunks", file=sys.stderr)
            return 1

        steps = sum(
            count
            for code, count in calls.items()
            if function_name(code) == "repro.sim.simulator:Simulator.step"
        )
        print(
            f"# {args.preset}, {metrics_mode}: {chunks} chunks, "
            f"{engine.simulator.executed_events / chunks:.3f} events and "
            f"{steps / chunks:.4f} Simulator.step calls per chunk"
        )
        print(f"{'calls/chunk':>12} {'bytecodes/chunk':>16}  function")
        for code, count in bytecodes.most_common(args.top):
            print(
                f"{calls[code] / chunks:12.3f} {count / chunks:16.1f}  "
                f"{function_name(code)}"
            )
        print(
            f"{sum(calls.values()) / chunks:12.3f} "
            f"{sum(bytecodes.values()) / chunks:16.1f}  total "
            f"({len(bytecodes)} functions)"
        )
    # The gates do not depend on the metrics mode: one uncounted run.
    engine = TopologyEngine(spec)
    print_gates(engine, *gate_run(engine))
    return 0


if __name__ == "__main__":
    sys.exit(main())
