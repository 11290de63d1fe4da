"""The workload generators sit on ``repro.core`` and ``repro.net`` only."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.net import EtherType
from repro.zipline.headers import ETHERTYPE_RAW_CHUNK, RAW_CHUNK_ETHERTYPE_BYTES

#: Layers above the generators: a trace is generated without any of them.
HIGHER_LAYERS = (
    "repro.zipline",
    "repro.tofino",
    "repro.sim",
    "repro.controlplane",
    "repro.replay",
    "repro.topology",
)


def _loaded_after(statement):
    """Names of the ``repro`` modules a fresh interpreter has loaded after ``statement``."""
    source = str(Path(repro.__file__).resolve().parents[1])
    environment = dict(os.environ)
    environment["PYTHONPATH"] = os.pathsep.join(
        filter(None, [source, environment.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [
            sys.executable, "-c",
            f"import sys; {statement}; "
            "print(' '.join(m for m in sys.modules if m.startswith('repro')))",
        ],
        env=environment, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


@pytest.mark.parametrize(
    "statement",
    [
        "import repro.workloads",
        "from repro.workloads import WORKLOAD_FACTORIES; "
        "[(list(g.iter_chunks(4)), bases()) "
        "for g, bases in (f(8, 4, 4, 8, 1) for f in WORKLOAD_FACTORIES.values())]",
        "from repro.workloads import DnsQueryWorkload; "
        "DnsQueryWorkload(num_queries=4, distinct_names=4).trace().to_frames()",
    ],
    ids=["import", "every-factory", "dns-frames"],
)
def test_generating_a_trace_loads_no_higher_layer(statement):
    loaded = _loaded_after(statement)
    assert "repro.workloads" in loaded
    assert [
        module
        for module in loaded
        if any(module == layer or module.startswith(layer + ".") for layer in HIGHER_LAYERS)
    ] == []


def test_the_raw_chunk_ethertype_has_one_home():
    assert ETHERTYPE_RAW_CHUNK == EtherType.ZIPLINE_RAW_CHUNK == 0x88B4
    assert RAW_CHUNK_ETHERTYPE_BYTES == b"\x88\xb4"
    # Not a named EtherType: the frames' readable form is unchanged.
    assert EtherType.name(ETHERTYPE_RAW_CHUNK) == "0x88b4"
