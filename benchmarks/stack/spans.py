"""Outside-in span recorder for the whole-stack benchmark.

The benchmark times every layer *from outside*: it wraps public entry
points (class methods and module functions without a leading underscore,
plus ``__init__``) at class level, and opens its own spans around the
calls it makes itself.  A span has a layer name, a start, an end and a
parent (the span open when it started).  When a span closes its duration
is charged to the parent's child time and its self time (duration minus
child time) is folded into the layer's running total, so a repeat with
half a million spans costs a few counters, not a span list.

Known limit: callbacks the simulator runs (the engine's private inject
closures, the link's private completion/delivery callbacks, the control
plane's private digest handlers) are private, so their own time lands in
``sim.step`` self time.  Splitting it needs spans inside the program.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from contextlib import contextmanager
from time import perf_counter_ns
from typing import Any, Dict, Iterable, Iterator, List, Tuple

#: Layers reported per workload, named after the repo's modules.
LAYERS = (
    "sim.step",
    "sim.schedule",
    "replay.link",
    "zipline.encoder",
    "zipline.decoder",
    "zipline.tables",
    "topology.nodes",
    "topology.control",
    "topology.engine.build",
    "topology.engine.run",
    "topology.engine.report",
    "topology.sharding",
    "controlplane",
    "core.engine",
    "core.encoder",
    "core.decoder",
    "core.transform",
    "core.dictionary",
)

#: layer -> (module, owner class or None for a module function, names).
#: ``topology.sharding`` and ``core.engine`` are spans the benchmark opens
#: around its own calls (``run_topology``; each ``next()`` on the
#: ``compress_stream``/``decompress_stream`` generators), so they have no
#: wrapped entry point.
ENTRY_POINTS = (
    ("sim.step", "repro.sim.simulator", "Simulator", ("step",)),
    ("sim.schedule", "repro.sim.simulator", "Simulator", ("schedule_at",)),
    ("replay.link", "repro.replay.link", "EmulatedLink", ("send",)),
    ("zipline.encoder", "repro.zipline.encoder_switch", "ZipLineEncoderSwitch",
     ("receive", "receive_batch")),
    ("zipline.decoder", "repro.zipline.decoder_switch", "ZipLineDecoderSwitch",
     ("receive", "receive_batch")),
    ("zipline.tables", "repro.zipline.encoder_switch", "ZipLineEncoderSwitch",
     ("install_basis_mapping", "remove_basis_mapping")),
    ("zipline.tables", "repro.zipline.decoder_switch", "ZipLineDecoderSwitch",
     ("install_identifier_mapping", "remove_identifier_mapping")),
    ("topology.nodes", "repro.topology.nodes", "HostNode",
     ("inject", "deliver", "receive")),
    ("topology.nodes", "repro.topology.nodes", "ZipLineEncoderNode", ("receive",)),
    ("topology.nodes", "repro.topology.nodes", "ZipLineDecoderNode", ("receive",)),
    ("topology.nodes", "repro.topology.nodes", "ForwardNode", ("receive",)),
    ("topology.control", "repro.topology.control", "ControlChannel",
     ("transport", "counters")),
    ("topology.control", "repro.topology.control", None, ("apply_switch_command",)),
    ("topology.engine.build", "repro.topology.engine", "TopologyEngine",
     ("__init__",)),
    ("topology.engine.run", "repro.topology.engine", "TopologyEngine", ("run",)),
    ("topology.engine.report", "repro.topology.engine", "TopologyEngine",
     ("report",)),
    ("topology.engine.report", "repro.topology.engine", "TopologyReport",
     ("json_text",)),
    ("controlplane", "repro.controlplane.manager", "ZipLineControlPlane",
     ("__init__", "preload_static_mappings", "resync_decoder", "force_evict")),
    ("controlplane", "repro.controlplane.idpool", "IdentifierPool",
     ("allocate", "identifier_for", "basis_for", "touch", "touch_basis",
      "release")),
    ("controlplane", "repro.controlplane.events", "EventLog", ("append",)),
    ("controlplane", "repro.tofino.digest", "DigestEngine", ("emit",)),
    ("core.encoder", "repro.core.encoder", "GDEncoder",
     ("encode_chunks", "encode_batch", "encode_buffer_batch")),
    ("core.decoder", "repro.core.decoder", "GDDecoder",
     ("decode_batch", "decode_batch_to_bytes", "decode_columns_to_bytes")),
    ("core.transform", "repro.core.transform", "GDTransform",
     ("split_batch", "split_batch_fields", "split_batch_columns", "split_fields",
      "join_fields", "join_fields_fast")),
    ("core.dictionary", "repro.core.dictionary", "BasisDictionary",
     ("lookup", "insert", "insert_with_identifier", "peek", "touch",
      "reverse_lookup", "remove")),
)

_MARK = "_stack_bench_span"


class Recorder:
    """Per-layer self time and call counts, folded as spans close."""

    def __init__(self) -> None:
        self.self_ns: Dict[str, int] = dict.fromkeys(LAYERS, 0)
        self.calls: Dict[str, int] = dict.fromkeys(LAYERS, 0)
        #: Total duration of spans that had no parent.
        self.root_ns = 0
        self._stack: List[List[Any]] = []

    def push(self, layer: str) -> None:
        self._stack.append([layer, perf_counter_ns(), 0])

    def pop(self) -> None:
        end = perf_counter_ns()
        layer, start, child_ns = self._stack.pop()
        duration = end - start
        self.self_ns[layer] += duration - child_ns
        self.calls[layer] += 1
        if self._stack:
            self._stack[-1][2] += duration
        else:
            self.root_ns += duration

    @contextmanager
    def span(self, layer: str) -> Iterator[None]:
        """A span the benchmark opens around one of its own calls."""
        self.push(layer)
        try:
            yield
        finally:
            self.pop()

    def spanned(self, layer: str, iterator: Iterable[Any]) -> Iterator[Any]:
        """Yield from ``iterator`` with one span around each ``next()``."""
        iterator = iter(iterator)
        while True:
            self.push(layer)
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                self.pop()
            yield item

    def wrap(self, layer: str, function):
        """``function`` with a span of ``layer`` around every call.

        :meth:`push`/:meth:`pop` inlined: this runs ~15 times per chunk.
        """
        stack = self._stack
        self_ns = self.self_ns
        calls = self.calls
        now = perf_counter_ns

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            frame = [layer, now(), 0]
            stack.append(frame)
            try:
                return function(*args, **kwargs)
            finally:
                duration = now() - frame[1]
                stack.pop()
                self_ns[layer] += duration - frame[2]
                calls[layer] += 1
                if stack:
                    stack[-1][2] += duration
                else:
                    self.root_ns += duration

        setattr(wrapper, _MARK, True)
        return wrapper


def _targets() -> List[Tuple[str, Any, str]]:
    """Resolve :data:`ENTRY_POINTS` to ``(layer, owner, attribute)``."""
    resolved = []
    for layer, module_name, class_name, names in ENTRY_POINTS:
        owner = importlib.import_module(module_name)
        if class_name is not None:
            owner = getattr(owner, class_name)
        resolved.extend((layer, owner, name) for name in names)
    # The decoder reaches the accelerated codec backends directly, below
    # the transform's own entry points.
    from repro.core.backends import available_backend_names, get_backend

    for backend_name in available_backend_names():
        owner = type(get_backend(backend_name))
        for name in ("split_batch_fields", "split_batch_columns", "join_batch_to_bytes"):
            if inspect.isfunction(getattr(owner, name, None)):
                resolved.append(("core.transform", owner, name))
    return resolved


def wrappers_installed() -> bool:
    """True when any entry point currently carries a span wrapper."""
    return any(
        getattr(getattr(owner, name, None), _MARK, False)
        for _layer, owner, name in _targets()
    )


@contextmanager
def installed(recorder: Recorder) -> Iterator[None]:
    """Wrap every entry point for the duration of the block, then restore."""
    saved: List[Tuple[Any, str, bool, Any]] = []
    try:
        for layer, owner, name in _targets():
            if name.startswith("_") and name != "__init__":
                raise ValueError(f"{owner.__name__}.{name} is not a public entry point")
            original = getattr(owner, name)
            if not inspect.isfunction(original):
                raise ValueError(f"{owner.__name__}.{name} is not a plain function")
            if getattr(original, _MARK, False):
                raise RuntimeError(f"{owner.__name__}.{name} is already wrapped")
            saved.append((owner, name, name in vars(owner), original))
            setattr(owner, name, recorder.wrap(layer, original))
        yield
    finally:
        for owner, name, own, original in reversed(saved):
            if own:
                setattr(owner, name, original)
            else:
                # Inherited entry point: drop the subclass override again.
                delattr(owner, name)
