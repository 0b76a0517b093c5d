"""synthcat benchmark: one workload per process, a closed loop with one caller.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seconds S     # table of every workload

The next operation starts only when the previous one has returned and been
checked.  One untimed warm-up operation runs first; operations then repeat
until ``--seconds`` have passed.  Every operation's output goes through the
correctness gate in ``checks.py`` outside the timed region; an exception or
a failed check counts the operation as failed.

With ``--trace 0`` the last line of stdout holds the end-to-end metrics:
setup_s (median of several cold starts of ``probe.py``), wall_s (median
over operations), cells_per_s (the workload's cells over that median),
peak_rss_mb and success_rate (1 - error_rate).  With ``--trace 1`` traced and untraced operations
alternate; the traced ones give the per-layer metrics, and the spans are
written to ``.perfbench_out/`` when the run ends.  The line before the
result records the environment, the sample count and every operation's
wall time (the warm-up first).

Run from the root of a checkout; synthcat is imported from ``src/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# Cold starts timed per run for setup_s; the median is reported.
SETUP_REPEATS = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cells_per_s": "1/s",
    "peak_rss_mb": "MB",
    "success_rate": "frac",
}


def per_layer_units() -> dict[str, str]:
    from tracer import TRACED_NAMES

    units = {}
    for name in TRACED_NAMES:
        units[f"{name}.busy_s"] = "s"
        units[f"{name}.self_s"] = "s"
        units[f"{name}.calls"] = "count"
    for measure in ("v", "vcc", "tauc"):
        units[f"association.{measure}.busy_s"] = "s"
    units["generator.generate_1t.busy_s"] = "s"
    units["generator.thread_speedup"] = "x"
    units["generator.thread_efficiency"] = "frac"
    units["report.dataset_csv.mb"] = "MB"
    units["report.artifacts.mb"] = "MB"
    units["trace.overhead_frac"] = "frac"
    return units


# ---------------------------------------------------------------------------
# Environment record
# ---------------------------------------------------------------------------


def _read(path: Path) -> str | None:
    try:
        return path.read_text().strip()
    except OSError:
        return None


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; else 'unknown'."""
    head = _read(ROOT / ".git" / "HEAD")
    if head is None:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    commit = _read(ROOT / ".git" / ref)
    if commit:
        return commit
    for line in (_read(ROOT / ".git" / "packed-refs") or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def environment(workload: str, seed: int) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    for line in (_read(Path("/proc/cpuinfo")) or "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read(index / f) for f in ("level", "type", "size"))
        if level and size:
            caches[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = size
    return {
        "workload": workload,
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
    }


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


def setup_seconds(workload: str, seed: int) -> float:
    """Median wall time of cold processes that import synthcat and parse the config."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, str(HERE / "probe.py"), workload, str(seed)],
            cwd=ROOT, check=True, timeout=60, stdout=subprocess.DEVNULL,
        )
        times.append(time.perf_counter() - start)
    return statistics.median(times)


@dataclass
class Operation:
    wall: float
    problems: list[str]
    sizes: dict[str, int]
    traced: bool


def operation(workload, gate, workdir: Path, tracer=None) -> Operation:
    """Run one operation into a fresh directory, time it, then check it."""
    out = Path(tempfile.mkdtemp(dir=workdir))
    wall = 0.0
    sizes: dict[str, int] = {}
    try:
        if tracer is not None:
            tracer.install()
        start = time.perf_counter()
        try:
            paths = workload.run(out)
        finally:
            wall = time.perf_counter() - start
            if tracer is not None:
                tracer.uninstall()
        sizes = {name: path.stat().st_size for name, path in paths.items()}
        problems = gate.check(paths)
    except Exception:  # an operation that raises is a failed operation, not a crash
        problems = [traceback.format_exc(limit=3)]
    finally:
        shutil.rmtree(out, ignore_errors=True)
    return Operation(wall, problems, sizes, tracer is not None)


def measure(workload, seed: int, seconds: float, trace: bool, workdir: Path):
    """Warm up once, then loop until ``seconds`` have passed; return all operations."""
    import checks
    from tracer import Tracer

    workload.prepare(seed, workdir)
    gate = checks.Gate(workload.expectation)
    tracer = Tracer() if trace else None
    ops = [operation(workload, gate, workdir)]
    start = time.perf_counter()
    while True:
        traced = trace and (len(ops) % 2 == 1)
        ops.append(operation(workload, gate, workdir, tracer if traced else None))
        if time.perf_counter() - start >= seconds:
            break
    return ops, tracer


def end_to_end(workload, ops: list[Operation], setup: float) -> dict[str, float]:
    wall = statistics.median(op.wall for op in ops[1:])
    failed = sum(1 for op in ops if op.problems)
    return {
        "setup_s": setup,
        "wall_s": wall,
        "cells_per_s": workload.cells / wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "success_rate": (len(ops) - failed) / len(ops),
    }


def per_layer(workload, ops: list[Operation], tracer) -> dict[str, float]:
    from tracer import layer_totals

    timed = ops[1:]
    traced = [op for op in timed if op.traced]
    plain = [op for op in timed if not op.traced]
    count = len(traced)
    metrics = {}
    for name, totals in layer_totals(tracer.spans).items():
        for key, value in totals.items():
            metrics[f"{name}.{key}"] = value / count

    for measure in ("v", "vcc", "tauc"):
        metrics[f"association.{measure}.busy_s"] = sum(
            s.duration for s in tracer.spans
            if s.name == "association.association_matrix" and s.label == measure
        ) / count

    names = {s.id: s.name for s in tracer.spans}
    sampling_busy = sum(
        s.duration for s in tracer.spans
        if s.name.startswith("sampling.") and not names.get(s.parent, "").startswith("sampling.")
    )
    generate_busy = metrics["generator.generate.busy_s"] * count
    metrics["generator.thread_efficiency"] = (
        sampling_busy / (workload.threads * generate_busy) if generate_busy > 0 else 0.0
    )
    metrics["generator.generate_1t.busy_s"] = 0.0
    metrics["generator.thread_speedup"] = 0.0
    if workload.threads:
        # Plain (untraced) generate of the workload's spec, single-threaded
        # and with the workload's thread count.
        start = time.perf_counter()
        workload.generate(threads=1)
        single = time.perf_counter() - start
        start = time.perf_counter()
        workload.generate(threads=workload.threads)
        metrics["generator.generate_1t.busy_s"] = single
        metrics["generator.thread_speedup"] = single / (time.perf_counter() - start)

    metrics["report.dataset_csv.mb"] = statistics.mean(
        op.sizes.get("dataset.csv", 0) for op in timed) / 1e6
    metrics["report.artifacts.mb"] = statistics.mean(sum(op.sizes.values()) for op in timed) / 1e6
    metrics["trace.overhead_frac"] = (
        statistics.median(op.wall for op in traced) / statistics.median(op.wall for op in plain) - 1.0
        if plain else 0.0
    )
    return metrics


def run_one(name: str, seed: int | None, seconds: float, trace: bool) -> int:
    import synthcat

    if not Path(synthcat.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: synthcat was imported from {synthcat.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    workload = workloads.WORKLOADS[name]()
    seed = workload.default_seed if seed is None else seed
    env = environment(name, seed)
    setup = None if trace else setup_seconds(name, seed)
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=OUT))
    try:
        ops, tracer = measure(workload, seed, seconds, trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = [(i, op.problems) for i, op in enumerate(ops) if op.problems]
    for i, problems in failures[:3]:
        print(f"operation {i} failed: " + "; ".join(problems), file=sys.stderr)
    units = per_layer_units() if trace else END_TO_END_UNITS
    values = per_layer(workload, ops, tracer) if trace else end_to_end(workload, ops, setup)
    if trace:
        tracer.dump(OUT / f"trace-{name}-seed{seed}.json", {"env": env})
    print(json.dumps({"env": env, "samples": len(ops) - 1, "walls": [op.wall for op in ops]}))
    print(json.dumps({
        "correct": not failures,
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": {key: {"value": values[key], "unit": unit} for key, unit in units.items()},
    }))
    return 0


def run_all(seconds: float, trace: bool) -> int:
    """Each workload at its default seed, in its own process; print a table."""
    import workloads

    status = 0
    print(f"{'workload':<14} {'metric':<44} {'value':>14}  {'unit':<6} samples")
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seconds", str(seconds), "--trace", str(int(trace))],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"{name}: failed with exit code {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            status = 1
            continue
        info, result = json.loads(lines[-2]), json.loads(lines[-1])
        rows = dict(result["metrics"])
        rows["error_rate"] = {"value": result["failed"] / result["attempted"], "unit": "frac"}
        for metric, entry in rows.items():
            samples = SETUP_REPEATS if metric == "setup_s" else info["samples"]
            print(f"{name:<14} {metric:<44} {entry['value']:>14.6g}  {entry['unit']:<6} {samples}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=None, help="workload seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=45.0, help="how long to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "synthcat" / "__init__.py").is_file():
        print(f"error: {SRC / 'synthcat'} not found; run from a synthcat checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args.seconds, bool(args.trace))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
