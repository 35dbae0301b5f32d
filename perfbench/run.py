"""matchcov benchmark: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload enum-n8 --seed 0 --seconds 40 --trace 0

Run from the root of a checkout; the program is imported from `src/`. With
`--trace 0` the workload repeats, tracing off, as often as fits in
`--seconds` (at least once), and the end-to-end metrics are reported. With
`--trace 1` one untraced and one traced repetition run, and the per-layer
metrics come from the traced one. Every repetition starts cold: the
enumeration cache is cleared first. Times are in reference seconds (see
clock.py). The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. Run details and, when traced,
the spans go to perfbench/out/.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")
# Set-up (import plus input generation) is repeated and its median reported.
SETUP_REPEATS = 9

sys.path.insert(0, HERE)
from clock import HostClock  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, report_digest, graphs_in  # noqa: E402


class Recorder:
    """The clock a repetition is timed with, per-graph latencies, and the
    request id that traced spans carry."""

    def __init__(self, now, tracer: Tracer | None = None) -> None:
        self.now = now
        self.latencies: list[float] = []
        self.tracer = tracer

    def request(self) -> None:
        if self.tracer is not None:
            self.tracer.run_id += 1


def fresh_import():
    for name in [k for k in sys.modules if k == "matchcov" or k.startswith("matchcov.")]:
        del sys.modules[name]
    return importlib.import_module("matchcov")


def setup(workload, seed: int, now):
    t0 = now()
    mc = fresh_import()
    inputs = workload.make_inputs(seed)
    return now() - t0, mc, inputs


def repetition(mc, workload, inputs, recorder: Recorder):
    """One cold, timed run of the workload: (wall seconds, reports)."""
    mc.generate.clear_enumeration_cache()
    gc.collect()
    t0 = recorder.now()
    reports = workload.run(mc, inputs, recorder)
    return recorder.now() - t0, reports


class Verdicts:
    """Checks made and checks failed across the repetitions of one run."""

    def __init__(self, workload, inputs, seed: int) -> None:
        self.workload, self.inputs, self.seed = workload, inputs, seed
        self.attempted = 0
        self.failed = 0
        self.first_digest: str | None = None

    def add(self, reports: list[dict]) -> None:
        results = self.workload.check(reports, self.inputs, self.seed)
        # The same parameters must give the same report bytes on every pass.
        digest = report_digest(reports)
        if self.first_digest is None:
            self.first_digest = digest
        else:
            results.append(digest == self.first_digest)
        self.attempted += len(results)
        self.failed += results.count(False)


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile (inclusive method)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure(workload, seed: int, seconds: float):
    """Times in reference seconds (see clock.py); raw seconds go to detail."""
    clock = HostClock()
    clock.start()
    try:
        mark = clock.mark()
        raw_setups = []
        for _ in range(SETUP_REPEATS):
            s, mc, inputs = setup(workload, seed, clock.now)
            raw_setups.append(s)
        setup_scale = clock.scale(mark)
        verdicts = Verdicts(workload, inputs, seed)
        recorder = Recorder(clock.now)
        raw_walls: list[float] = []
        walls: list[float] = []
        ms_per_graph: list[float] = []
        began = perf_counter()
        while True:
            mark, first = clock.mark(), len(recorder.latencies)
            raw, reports = repetition(mc, workload, inputs, recorder)
            scale = clock.scale(mark)
            raw_walls.append(raw)
            walls.append(raw * scale)
            recorder.latencies[first:] = [x * scale for x in recorder.latencies[first:]]
            graphs = graphs_in(reports)
            ms_per_graph.append(1000.0 * walls[-1] / graphs)
            verdicts.add(reports)
            if len(walls) == 1:
                # Later repetitions repeat the same work; the peak they add
                # is allocator fragmentation, which varies with their number.
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            # Stop before a repetition that would overrun the measuring time.
            if perf_counter() - began + raw > seconds:
                break
    finally:
        clock.stop()
    wall_s = statistics.median(walls)
    # corpus-stream times each graph; a campaign checks its graphs inside one
    # call, so there the samples are each repetition's mean time per graph.
    samples = [1000.0 * x for x in recorder.latencies] if workload.per_graph_latency else ms_per_graph
    metrics = {
        "setup_s": (statistics.median(raw_setups) * setup_scale, "s"),
        "wall_s": (wall_s, "s"),
        "graphs_per_s": (graphs / wall_s, "1/s"),
        "graph_ms_p50": (statistics.median(samples), "ms"),
        "graph_ms_p99": (quantile(samples, 99), "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    detail = {
        "repetitions": len(walls),
        "walls_s": walls,
        "raw_walls_s": raw_walls,
        "raw_setups_s": raw_setups,
        "setup_scale": setup_scale,
        "host_slices": len(clock.samples),
        "latency_samples": len(samples),
    }
    return metrics, verdicts, detail


def measure_traced(workload, seed: int):
    """Per-layer metrics of one traced repetition. Span times leave out the
    calibration slices; `_s` metrics are in reference seconds."""
    clock = HostClock()
    clock.start()
    try:
        _, mc, inputs = setup(workload, seed, clock.now)
        verdicts = Verdicts(workload, inputs, seed)
        mark = clock.mark()
        untraced, reports = repetition(mc, workload, inputs, Recorder(clock.now))
        untraced *= clock.scale(mark)
        verdicts.add(reports)
        tracer = Tracer(clock.now)
        tracer.install()
        mark = clock.mark()
        try:
            traced, reports = repetition(mc, workload, inputs, Recorder(clock.now, tracer))
        finally:
            tracer.uninstall()
        scale = clock.scale(mark)
    finally:
        clock.stop()
    traced *= scale
    verdicts.add(reports)
    metrics = {k: (v * scale if u == "s" else v, u) for k, (v, u) in layer_metrics(tracer).items()}
    metrics["trace.overhead"] = (traced / untraced, "ratio")
    os.makedirs(OUT, exist_ok=True)
    spans = os.path.join(OUT, f"spans-{workload.name}-seed{seed}.bin.gz")
    tracer.dump(spans)
    detail = {
        "untraced_wall_s": untraced,
        "traced_wall_s": traced,
        "spans_file": os.path.relpath(spans),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return metrics, verdicts, detail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "matchcov", "__init__.py")):
        print(f"error: no matchcov sources under {os.path.relpath(SRC)}; run from a checkout root", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    workload = WORKLOADS[args.workload]
    if args.trace:
        metrics, verdicts, detail = measure_traced(workload, args.seed)
    else:
        metrics, verdicts, detail = measure(workload, args.seed, args.seconds)

    context = {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "jobs": 1,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }
    mismatch = verdicts.failed / verdicts.attempted
    for name, (value, unit) in metrics.items():
        print(f"{workload.name:14} {name:32} {value:14.6g} {unit}")
    print(f"{workload.name:14} {'verdict_mismatch_ratio':32} {mismatch:14.6g} ratio ({verdicts.attempted} checks)")
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"{workload.name}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(
            {
                "context": context,
                "detail": detail,
                "verdict_mismatch_ratio": mismatch,
                "digest": verdicts.first_digest,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            },
            fh,
            indent=2,
        )
    result = {
        "correct": verdicts.failed == 0,
        "attempted": verdicts.attempted,
        "failed": verdicts.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
