"""A process loads only the layers it runs.

The package ``__init__``s of ``repro``, ``repro.core``, ``repro.net``,
``repro.obs`` and ``repro.workloads`` resolve their re-exports on first
access (``repro._lazy.lazy_exports``), the topology run imports its pool,
trace-sink and pcap layers only on the paths that use them, and each CLI
command group imports its layers in its handler.  Each check runs in a
fresh interpreter, the way ``tests/workloads/test_layering.py`` checks the
generators.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

#: What a synthetic topology run never calls.
NOT_IN_A_TOPOLOGY_RUN = (
    "repro.registry",
    "repro.core.codec",
    "repro.core.engine",
    "repro.core.encoder",
    "repro.core.decoder",
    "repro.net.pcap",
    "repro.net.ip",
    "repro.workloads.dns",
    "repro.workloads.thrash",
    "repro.workloads.traces",
    "repro.obs.sinks",
    "repro.obs.snapshot",
    "repro.obs.summarize",
    "multiprocessing",
    "pickle",
    "socket",
)

#: What a codec command never runs.
SIMULATOR_LAYERS = ("repro.topology", "repro.experiments", "repro.analysis.figures")

LAZY_PACKAGES = ("repro", "repro.core", "repro.net", "repro.obs", "repro.workloads")


def _run(statement):
    """Run ``statement`` in a fresh interpreter; return what it prints."""
    source = str(Path(repro.__file__).resolve().parents[1])
    environment = dict(os.environ)
    environment["PYTHONPATH"] = os.pathsep.join(
        filter(None, [source, environment.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, "-c", statement],
        env=environment, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def _loaded_after(statement):
    """Every module a fresh interpreter has loaded after ``statement``."""
    output = _run(f"import sys\n{statement}\nprint('\\n' + ' '.join(sys.modules))")
    return output.splitlines()[-1].split()


def _under(loaded, layers):
    return [
        module
        for module in loaded
        if any(module == layer or module.startswith(layer + ".") for layer in layers)
    ]


@pytest.mark.parametrize(
    "statement",
    [
        "import repro.topology",
        "from repro.topology import rack_fan_in_topology, run_topology\n"
        "spec = rack_fan_in_topology(racks=2, senders=2, chunks=64, bases=4, scenario='static')\n"
        "assert run_topology(spec, workers=1, metrics_mode='streaming').integrity.intact",
        "from repro.topology import fan_in_topology, run_topology\n"
        "assert run_topology(fan_in_topology(senders=2, chunks=64, bases=4), workers=1).chunks_sent",
    ],
    ids=["import", "static-rack-run", "dynamic-fan-in-run"],
)
def test_a_synthetic_topology_run_loads_no_codec_pcap_or_pool_layer(statement):
    loaded = _loaded_after(statement)
    assert "repro.topology.engine" in loaded
    assert _under(loaded, NOT_IN_A_TOPOLOGY_RUN) == []


def test_a_dns_topology_run_loads_no_trace_list_or_pcap_layer():
    loaded = _loaded_after(
        "from repro.topology import linear_topology, run_topology\n"
        "spec = linear_topology(workload='dns', chunks=64, names=8)\n"
        "assert run_topology(spec, workers=1).chunks_sent"
    )
    assert "repro.workloads.dns" in loaded
    assert _under(loaded, ("repro.workloads.traces", "repro.net.pcap")) == []


@pytest.mark.parametrize("command", ["codecs", "codecs --backends", "compress", "decompress"])
def test_a_codec_command_loads_no_simulator_layer(command, tmp_path):
    data, packed, restored = (tmp_path / name for name in ("data", "data.gdz", "restored"))
    data.write_bytes(bytes(range(256)) * 40)
    arguments = {
        "compress": ["compress", str(data), str(packed)],
        "decompress": ["decompress", str(packed), str(restored)],
    }.get(command, command.split())
    if command == "decompress":
        from repro.cli import main

        assert main(["compress", str(data), str(packed)]) == 0
    loaded = _loaded_after(
        "from repro.cli import main\n"
        f"assert main({arguments!r}) == 0"
    )
    assert "repro.cli.codec" in loaded
    assert _under(loaded, SIMULATOR_LAYERS) == []
    if command == "decompress":
        assert restored.read_bytes() == data.read_bytes()


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_every_lazy_export_resolves_and_is_listed(package):
    report = json.loads(_run(
        "import importlib, json\n"
        f"package = importlib.import_module({package!r})\n"
        "listed = dir(package)\n"
        "for name in package.__all__:\n"
        "    getattr(package, name)\n"
        "print(json.dumps({'all': package.__all__, 'dir': listed, "
        "'missing': hasattr(package, 'no_such_name')}))"
    ))
    assert report["all"], package
    assert set(report["all"]) <= set(report["dir"])
    assert report["missing"] is False


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_a_star_import_resolves_every_export(package):
    names = json.loads(_run(
        f"from {package} import *\n"
        "import json, importlib\n"
        f"print(json.dumps(sorted(importlib.import_module({package!r}).__all__)))"
    ))
    namespace = {}
    exec(f"from {package} import *", namespace)
    assert sorted(name for name in namespace if name != "__builtins__") == names


def test_the_package_reexports_are_the_defining_modules_objects():
    from repro import core, net, obs, registry, workloads
    from repro.core.codec import GDCodec
    from repro.net.pcap import PcapReader
    from repro.obs.sinks import EventCollector
    from repro.workloads.dns import DnsQueryWorkload

    assert repro.GDCodec is core.GDCodec is GDCodec
    assert repro.registry is registry
    assert net.PcapReader is PcapReader
    assert obs.EventCollector is EventCollector
    assert workloads.DnsQueryWorkload is DnsQueryWorkload
