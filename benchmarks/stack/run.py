"""Whole-stack benchmark: four workloads, end-to-end and per-layer metrics.

One run measures one workload, untraced (``--trace 0``: the end-to-end
metrics) or traced (``--trace 1``: the per-layer metrics), and prints every
metric by name with its unit, then one JSON line.  Without ``--workload``
it runs every workload both ways.  ``BENCHMARK.json`` at the repository
root declares the metric names, units and bounds; this program refuses to
emit anything else.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import calibration  # noqa: E402
import spans  # noqa: E402
from workloads import QUICK_DIVISOR, WORKLOADS, GateError, Outcome, Workload  # noqa: E402

#: Default seed, and the seed held out from tuning sizes and bounds.
DEFAULT_SEED = 2020
HELD_OUT_SEED = 4242

#: Timed repeats never drop below this, whatever ``--seconds`` says.
MIN_REPEATS = 5
QUICK_REPEATS = 3
#: Cold set-ups per run, each in a fresh process.
SETUP_PROBES = 3
#: ROADMAP's requirement on the traced run.
MIN_ATTRIBUTED_SHARE = 0.90


def load_declaration() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def environment() -> Dict[str, Any]:
    """Where and on what these numbers were taken."""
    from repro.core.backends import resolve_backend

    try:
        import numpy
        numpy_version: Optional[str] = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "codec_backend": resolve_backend().name,
        "REPRO_GD_BACKEND": os.environ.get("REPRO_GD_BACKEND"),
        "REPRO_GD_FAST": os.environ.get("REPRO_GD_FAST"),
        "cpu_count": os.cpu_count(),
        "git_commit": _git_commit(),
    }


def _git_commit() -> Optional[str]:
    """HEAD's commit read from ``.git`` directly (a checkout may have none)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def refuse_if_observed() -> None:
    """Timing is only valid with no tracer and no span wrapper in the path."""
    from repro import obs

    if obs.TRACER.enabled:
        raise RuntimeError("refusing to time with repro.obs.TRACER enabled")
    if spans.wrappers_installed():
        raise RuntimeError("refusing to time with span wrappers installed")


def set_up(
    workload: Workload, seed: int, divisor: int
) -> Tuple[Any, Outcome, float, float]:
    """Generate the inputs and run the warm-up repeat.

    Returns the inputs, the warm-up outcome, the set-up's reference seconds
    and the process's peak resident set size in MB.  Input generation,
    imports, lazily built CRC/lane tables and object construction all
    happen here, so work a later change moves out of the timed repeats
    shows up in ``setup_s``.
    """
    with calibration.Sampler() as sampler:
        start = time.perf_counter()
        inputs = workload.prepare(seed, divisor)
        warm_up = workload.repeat(inputs)
        wall_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1e3  # Linux: KB
    return inputs, warm_up, wall_s * sampler.factor(), peak_rss_mb


def _probe_setup(workload: Workload, seed: int) -> Tuple[float, float]:
    """``set_up`` in a fresh process: cold caches, like this one's was."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload.name,
         "--seed", str(seed), "--setup-probe"],
        check=True, capture_output=True, text=True, timeout=120,
    )
    setup_s, peak_rss_mb = done.stdout.split()[-2:]
    return float(setup_s), float(peak_rss_mb)


def _check_digests(workload: Workload, outcomes: List[Outcome]) -> None:
    if len({outcome.digest for outcome in outcomes}) != 1:
        raise GateError(f"{workload.name}: output differs between repeats")


def timed_repeats(
    workload: Workload, inputs: Any, seconds: float, minimum: int
) -> List[Tuple[Outcome, float]]:
    """Untraced repeats for ``seconds`` seconds, at least ``minimum``.

    Every repeat comes with the factor that turns its wall seconds into
    reference seconds (see calibration.py).
    """
    refuse_if_observed()
    repeats: List[Tuple[Outcome, float]] = []
    start = time.perf_counter()
    while len(repeats) < minimum or time.perf_counter() - start < seconds:
        gc.collect()
        with calibration.Sampler() as sampler:
            outcome = workload.repeat(inputs)
        repeats.append((outcome, sampler.factor()))
    return repeats


def run_untraced(workload: Workload, seed: int, seconds: float, quick: bool):
    """The end-to-end metrics of one workload."""
    divisor = QUICK_DIVISOR if quick else 1
    inputs, warm_up, *own = set_up(workload, seed, divisor)
    # A set-up sample is a fresh process generating inputs and running one
    # repeat.  This process may have run other workloads before (all-workload
    # and --check-stability invocations), so only --quick counts its own.
    setups = [own] if quick else [
        _probe_setup(workload, seed) for _ in range(SETUP_PROBES)
    ]

    repeats = timed_repeats(
        workload, inputs, seconds, QUICK_REPEATS if quick else MIN_REPEATS
    )
    _check_digests(workload, [warm_up] + [outcome for outcome, _ in repeats])

    reference_s = statistics.median(outcome.wall_s * scale for outcome, scale in repeats)
    raw_s = statistics.median(outcome.wall_s for outcome, _ in repeats)
    print(f"# {workload.name}: {len(repeats)} timed repeats, median {raw_s:.4f} wall s "
          f"= {reference_s:.4f} reference s")
    values = {
        "setup_s": statistics.median(setup_s for setup_s, _ in setups),
        "chunks_per_s": warm_up.chunks / reference_s,
        "peak_rss_mb": statistics.median(peak_rss_mb for _, peak_rss_mb in setups),
        "compression_ratio": warm_up.simulated["compression_ratio"],
    }
    return values, warm_up.chunks * len(repeats)


def _percentile(samples: List[float], share: float) -> float:
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


def run_traced(
    workload: Workload, seed: int, seconds: float, quick: bool,
    isolated_values: Dict[str, float],
):
    """The per-layer metrics of one workload.

    ``isolated_values`` carries the workload-independent isolated-driver
    numbers across the workloads of one invocation; empty, it is filled.
    """
    import isolated

    divisor = QUICK_DIVISOR if quick else 1
    inputs, warm_up, _, _ = set_up(workload, seed, divisor)
    baseline = timed_repeats(workload, inputs, seconds / 3, 3)
    baseline_s = statistics.median(outcome.wall_s * scale for outcome, scale in baseline)

    recorder = spans.Recorder()
    gc.collect()
    with spans.installed(recorder), calibration.Sampler() as sampler:
        traced = workload.repeat(inputs, recorder=recorder)
    scale = sampler.factor()
    _check_digests(workload, [warm_up, traced] + [outcome for outcome, _ in baseline])

    chunks = traced.chunks
    values: Dict[str, float] = {}
    for layer in spans.LAYERS:
        values[f"{layer}.self_us_per_chunk"] = (
            recorder.self_ns[layer] * scale / 1e3 / chunks
        )
        values[f"{layer}.calls_per_chunk"] = recorder.calls[layer] / chunks
    values["trace.attributed_share"] = recorder.root_ns / 1e9 / traced.wall_s
    values["trace.overhead_share"] = (traced.wall_s * scale - baseline_s) / baseline_s
    values["sim.events_per_chunk"] = recorder.calls["sim.step"] / chunks

    simulated = traced.simulated
    for name in ("sim_latency_p50_us", "sim_latency_p99_us", "learning_delay_ms",
                 "missing_share"):
        values[f"topology.{name}"] = simulated.get(name, 0.0)
    megabytes = chunks * 32 / 1e6
    for direction in ("compress", "decompress"):
        direction_s = statistics.median(
            getattr(outcome, f"{direction}_s") * scale for outcome, scale in baseline
        )
        values[f"core.engine.{direction}_mbps"] = (
            megabytes / direction_s if direction_s else 0.0
        )
    # One more pass times every block of the stream; a sampler slice inside
    # a 5 ms block would swamp it, so this pass borrows the traced repeat's
    # host speed instead.
    block_times: List[float] = []
    workload.repeat(inputs, block_times=block_times)
    for name, share in (("p50", 0.50), ("p99", 0.99)):
        values[f"core.engine.block_ms_{name}"] = (
            _percentile(block_times, share) * sampler.speed() * 1e3
            if block_times else 0.0
        )
    # tracemalloc slows a repeat 5-7x, which the end-to-end runs cannot
    # afford; they report peak RSS and this run the allocation peak.
    gc.collect()
    tracemalloc.start()
    try:
        workload.repeat(inputs)
        values["trace.peak_alloc_mb"] = tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()
    values.update(workload.counts(inputs, traced))
    if not isolated_values:
        isolated_values.update(isolated.run_isolated(seed, divisor))
    values.update(isolated_values)
    return values, chunks * (len(baseline) + 1)


def emit(
    declaration: Dict[str, Any], workload: Workload, seed: int, seconds: float,
    trace: bool, quick: bool, isolated_values: Dict[str, float],
) -> Dict[str, Any]:
    """Run once, print every metric by name with its unit, then the JSON line."""
    declared = declaration["per_layer" if trace else "end_to_end"]
    if trace:
        values, attempted = run_traced(workload, seed, seconds, quick, isolated_values)
    else:
        values, attempted = run_untraced(workload, seed, seconds, quick)
    # Layers a workload bypasses report zero work.
    metrics = {
        entry["name"]: {"value": values.pop(entry["name"], 0.0), "unit": entry["unit"]}
        for entry in declared
    }
    if values:
        raise RuntimeError(f"metrics not declared in BENCHMARK.json: {sorted(values)}")
    print(f"# {workload.name} seed={seed} trace={int(trace)} "
          f"environment={json.dumps(environment(), sort_keys=True)}")
    for name, metric in metrics.items():
        print(f"{workload.name} {name} {metric['value']!r} {metric['unit']}")
    result = {"correct": True, "attempted": attempted, "failed": 0, "metrics": metrics}
    print(json.dumps(result))
    return result


def check_stability(declaration: Dict[str, Any], seed: int, seconds: float) -> int:
    """Two untraced sets must agree within the bounds; the trace must attribute."""
    failures = 0
    isolated_values: Dict[str, float] = {}
    for workload in WORKLOADS:
        first, second = (
            emit(declaration, workload, seed, seconds, False, False, {})["metrics"]
            for _ in range(2)
        )
        for entry in declaration["end_to_end"]:
            a, b = (run[entry["name"]]["value"] for run in (first, second))
            spread = abs(a - b) / min(a, b)
            verdict = "ok" if spread <= entry["bound"] else "FAIL"
            failures += verdict == "FAIL"
            print(f"stability {workload.name} {entry['name']} spread={spread:.4f} "
                  f"bound={entry['bound']} {verdict}")
        traced = emit(declaration, workload, seed, seconds, True, False, isolated_values)
        attributed = traced["metrics"]["trace.attributed_share"]["value"]
        overhead = traced["metrics"]["trace.overhead_share"]["value"]
        verdict = "ok" if attributed >= MIN_ATTRIBUTED_SHARE else "FAIL"
        failures += verdict == "FAIL"
        print(f"stability {workload.name} trace.attributed_share={attributed:.4f} "
              f"{verdict} trace.overhead_share={overhead:.4f}")
    return 1 if failures else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        epilog=f"--seed is the only input knob; seed {HELD_OUT_SEED} is held out "
               "from tuning sizes and bounds.",
    )
    parser.add_argument("--workload", choices=[w.name for w in WORKLOADS])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--quick", action="store_true",
                        help="small inputs, 3 repeats, same metric names")
    parser.add_argument("--check-stability", action="store_true")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"{ROOT} does not hold the program under test (src/repro)")
    selected = [w for w in WORKLOADS if args.workload in (None, w.name)]
    if args.setup_probe:
        print(*set_up(selected[0], args.seed, 1)[2:])
        return 0
    declaration = load_declaration()
    if [w.name for w in WORKLOADS] != [w["name"] for w in declaration["workloads"]]:
        sys.exit("BENCHMARK.json does not name this harness's workloads")
    seconds = args.seconds if args.seconds is not None else (
        0.0 if args.quick else float(declaration["run_seconds"])
    )
    isolated_values: Dict[str, float] = {}
    try:
        if args.check_stability:
            return check_stability(declaration, args.seed, seconds)
        for workload in selected:
            for trace in (False, True) if args.trace is None else (bool(args.trace),):
                emit(declaration, workload, args.seed, seconds, trace, args.quick,
                     isolated_values)
    except GateError as error:
        print(f"correctness gate failed: {error}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
