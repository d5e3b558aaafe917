"""Run one bicatkit benchmark workload and print its result.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout: the library is imported from ``src/``.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` reports the per-layer metrics of a traced
run and writes its spans to ``.bench_out/``.  See ``bench/README.md``.
"""
from __future__ import annotations

import argparse
import importlib
import json
import math
import random
import statistics
import sys
import time
import types
from pathlib import Path

from tracing import Tracer, layer_metrics
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPS = 5
MODULES = ("presentation", "core", "sigma", "homotopy", "ho", "localize")


def import_library() -> types.SimpleNamespace:
    """Import the library afresh from src/, so each set-up pays for imports."""
    for name in [m for m in sys.modules if m == "bicatkit" or m.startswith("bicatkit.")]:
        del sys.modules[name]
    lib = types.SimpleNamespace(
        **{m: importlib.import_module(f"bicatkit.{m}") for m in MODULES}
    )
    if Path(lib.core.__file__).resolve().parent.parent != SRC.resolve():
        raise SystemExit(f"bench: bicatkit was imported from {lib.core.__file__}, not {SRC}")
    return lib


# A large table the kernel looks up at scattered keys, built once.
_NAMES = [f"c{i}" for i in range(250)]
_TABLE = {(b, a): _NAMES[(i + j) % 250] for i, a in enumerate(_NAMES) for j, b in enumerate(_NAMES)}
_rng = random.Random(0)
_PROBE = [(_rng.choice(_NAMES), _rng.choice(_NAMES)) for _ in range(3000)]


def _kernel() -> int:
    """Fixed pure-Python work in the style of the library's table scans: it
    builds a fresh tuple-keyed table, then looks up keys in it and in the
    large table.  Under memory contention from another process it slows down
    by the same share as validation does (within 3 % in a test where a second
    process swept a 32 MB list); a kernel that fits in cache does not slow
    down at all."""
    names = [f"c{i}" for i in range(100)]
    table = {(b, a): names[(i * 7 + j) % 100] for i, a in enumerate(names) for j, b in enumerate(names)}
    hits = 0
    for key in _PROBE:
        if _TABLE[key] == key[0]:
            hits += 1
    for a in names:
        for b in names[::3]:
            if table.get((table[(b, a)], a)) == b:
                hits += 1
    return hits


class Calibration:
    """How fast this machine runs right now, relative to a reference.

    The shared machine's speed drifts by up to a factor of two within
    minutes, and the drift shows equally in CPU time.  So every op's wall
    time is scaled by ``KERNEL_REF_S / k``, where k is the mean of the median
    times of ``_kernel`` measured just before and just after the op's
    segment (at most ``SEGMENT_S`` of ops).  On a machine where the kernel takes ``KERNEL_REF_S``, scaled times
    are wall times.  Changing the kernel or these constants changes every
    reported time, so they stay fixed."""

    KERNEL_REF_S = 0.005
    SEGMENT_S = 0.2
    REPS = 3

    def __init__(self) -> None:
        self.last = self.measure()
        self.factors: list[float] = []

    def measure(self) -> float:
        times = []
        for _ in range(self.REPS):
            t0 = time.perf_counter()
            _kernel()
            times.append(time.perf_counter() - t0)
        self.at = time.perf_counter()
        return statistics.median(times)

    def factor(self) -> float:
        """Scale for everything since the previous call; recalibrates."""
        now = self.measure()
        f = self.KERNEL_REF_S / ((self.last + now) / 2)
        self.last = now
        self.factors.append(f)
        return f

    def due(self) -> bool:
        return time.perf_counter() - self.at >= self.SEGMENT_S


def percentile(sorted_ns: list[int], q: float) -> tuple[float, int]:
    """Nearest-rank percentile in ms, and how many samples lie beyond it."""
    idx = max(0, math.ceil(round(q * len(sorted_ns), 6)) - 1)
    return sorted_ns[idx] / 1e6, len(sorted_ns) - idx - 1


class Run:
    """Latencies and counts of one measured phase."""

    def __init__(self) -> None:
        self.latencies: list[int] = []
        self.failed = 0
        self.decided = 0
        self.queries = 0
        self.factor = 1.0  # median calibration scale of the phase

    def summary(self) -> dict[str, float]:
        lat = self.latencies
        return {"ops_per_s": len(lat) / (sum(lat) / 1e9), "p50_ms": statistics.median(lat) / 1e6}


def measure(workload, state, seconds: float, tracer=None) -> Run:
    """Whole passes of ops until the time is up; latencies are scaled by the
    calibration (see ``Calibration``)."""
    run = Run()
    cal = Calibration()
    pending: list[int] = []

    def settle() -> None:
        f = cal.factor()
        run.latencies.extend(round(ns * f) for ns in pending)
        pending.clear()

    deadline = time.perf_counter() + seconds
    for batch in workload.passes(state):
        for kind, op in batch:
            if tracer is not None:
                tracer.op = len(run.latencies) + len(pending)
                idx = tracer.begin("op")
            t0 = time.perf_counter_ns()
            try:
                note = op()
            except Exception as exc:  # a failing op is counted and reported; the run goes on
                note = {}
                run.failed += 1
                if run.failed <= 5:
                    print(f"bench: {kind} op failed: {exc!r}", file=sys.stderr)
            pending.append(time.perf_counter_ns() - t0)
            if tracer is not None:
                tracer.end(idx, {"kind": kind, **note})
            run.decided += note.get("decided", 0)
            run.queries += note.get("queries", 0)
            if cal.due():
                settle()
        if time.perf_counter() >= deadline:
            settle()
            run.factor = statistics.median(cal.factors)
            return run


def end_to_end(workload, state, seconds: float, setups: list[float]):
    run = measure(workload, state, seconds)
    tail, beyond = percentile(sorted(run.latencies), workload.tail_q)
    if beyond < 10:
        print(f"bench: only {beyond} samples beyond p{workload.tail_q * 100:g}", file=sys.stderr)
    return [run], {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": workload.peak_rss_mb(state),
        "decided_share": run.decided / run.queries,
        "tail_ms": tail,
        **run.summary(),
    }


def traced(workload, state, seed: int, seconds: float):
    """Half the time untraced, then set up again and run traced, so that the
    difference of the two halves is the tracing overhead."""
    plain = measure(workload, state, seconds / 2)
    workload.close(state)
    tracer = Tracer()
    lib = import_library()
    tracer.install(lib)
    state = workload.setup(lib, seed, ROOT)
    try:
        workload.start_up(state, tracer)
        run = measure(workload, state, seconds / 2, tracer)
    finally:
        workload.close(state)
        tracer.uninstall()
    tracer.dump(ROOT / ".bench_out" / f"trace-{workload.name}-{seed}.json")
    before, after = plain.summary(), run.summary()
    metrics = layer_metrics(tracer.spans)
    metrics["trace.p50_ms_delta"] = after["p50_ms"] - before["p50_ms"]
    metrics["trace.ops_per_s_delta"] = after["ops_per_s"] - before["ops_per_s"]
    return [plain, run], metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "bicatkit" / "__init__.py").is_file():
        print(f"bench: no library sources at {SRC / 'bicatkit'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    sys.path.insert(0, str(SRC))

    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    (ROOT / ".bench_out").mkdir(exist_ok=True)

    setups = []
    cal = Calibration()
    for rep in range(1 if args.trace else SETUP_REPS):
        if rep:
            workload.close(state)
        cal.factor()
        t0 = time.perf_counter()
        lib = import_library()
        state = workload.setup(lib, args.seed, ROOT)
        setups.append((time.perf_counter() - t0) * cal.factor())
    if args.trace:
        runs, metrics = traced(workload, state, args.seed, args.seconds)
    else:
        try:
            runs, metrics = end_to_end(workload, state, args.seconds, setups)
        finally:
            workload.close(state)
    if set(metrics) != set(declared):
        print(f"bench: metrics {sorted(set(metrics) ^ set(declared))} are not as declared", file=sys.stderr)
        return 2

    attempted = sum(len(r.latencies) for r in runs)
    failed = sum(r.failed for r in runs)
    print(
        f"bench: {workload.name} seed={args.seed} ops={attempted} failed={failed} "
        f"fail_share={failed / attempted:.4f} speed_scale={runs[-1].factor:.3f}"
    )
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": declared[k]} for k in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
