"""Self-test of the whole-stack benchmark harness.

Run explicitly with ``python -m pytest benchmarks/stack -q``; it is outside
the tier-1 ``testpaths`` on purpose (the quick run takes ~15 s).
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import spans  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")


@pytest.fixture(scope="module")
def declaration():
    return run.load_declaration()


def test_declaration_shape(declaration):
    assert set(declaration) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert declaration["paths"] == ["benchmarks/stack"]
    assert [w["name"] for w in declaration["workloads"]] == [
        w.name for w in run.WORKLOADS
    ]
    names = [w["name"] for w in declaration["workloads"]]
    for entry in declaration["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
        names.append(entry["name"])
    for entry in declaration["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
        names.append(entry["name"])
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert "setup_s" in names


def test_quick_emits_every_declared_name_and_nothing_else(declaration):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", "--seed", "11"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    results = [json.loads(line) for line in done.stdout.splitlines()
               if line.startswith("{")]
    assert len(results) == 2 * len(run.WORKLOADS)
    end_to_end = {entry["name"] for entry in declaration["end_to_end"]}
    per_layer = {entry["name"] for entry in declaration["per_layer"]}
    seen_nonzero = set()
    for index, result in enumerate(results):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["attempted"] >= 1 and result["failed"] == 0
        metrics = result["metrics"]
        # Each workload is run untraced, then traced.
        assert set(metrics) == (per_layer if index % 2 else end_to_end)
        if not index % 2:
            assert all(metric["value"] > 0 for metric in metrics.values())
        seen_nonzero |= {name for name, metric in metrics.items() if metric["value"]}
    # Every per-layer metric is exercised by some workload, except the
    # drop-tail queue (only the full-size trace fills it) and the decoder's
    # fault counter (zero is the healthy reading).
    assert per_layer - seen_nonzero <= {
        "replay.link.dropped_queue", "zipline.decoder.unknown_identifier",
    }
    # The bypass workload never enters the simulator.
    codec_traced = results[-1]["metrics"]
    assert codec_traced["sim.step.calls_per_chunk"]["value"] == 0
    assert codec_traced["core.engine.calls_per_chunk"]["value"] > 0


def test_wrappers_restore_the_original_methods():
    targets = spans._targets()
    before = [(owner, name, vars(owner).get(name)) for _layer, owner, name in targets]
    assert not spans.wrappers_installed()
    with spans.installed(spans.Recorder()):
        assert spans.wrappers_installed()
        with pytest.raises(RuntimeError):
            run.refuse_if_observed()
    assert not spans.wrappers_installed()
    assert before == [
        (owner, name, vars(owner).get(name)) for _layer, owner, name in targets
    ]
    run.refuse_if_observed()


def test_only_public_entry_points_are_wrapped():
    for _layer, _owner, name in spans._targets():
        assert name == "__init__" or not name.startswith("_")


def test_recorder_self_time_excludes_children():
    recorder = spans.Recorder()
    with recorder.span("topology.sharding"):
        with recorder.span("sim.step"):
            pass
    assert recorder.calls["topology.sharding"] == recorder.calls["sim.step"] == 1
    total = recorder.self_ns["topology.sharding"] + recorder.self_ns["sim.step"]
    assert total == recorder.root_ns


def test_refuses_a_directory_without_the_program(tmp_path):
    stack = tmp_path / "benchmarks" / "stack"
    stack.mkdir(parents=True)
    for source in HERE.glob("*.py"):
        (stack / source.name).write_text(source.read_text(encoding="utf-8"),
                                         encoding="utf-8")
    (tmp_path / "BENCHMARK.json").write_text(
        (ROOT / "BENCHMARK.json").read_text(encoding="utf-8"), encoding="utf-8"
    )
    done = subprocess.run(
        [sys.executable, "benchmarks/stack/run.py", "--workload", "rack-static-hit",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert not any(line.startswith("{") for line in done.stdout.splitlines())
