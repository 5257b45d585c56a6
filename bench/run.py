"""Run one workload of the mprs benchmark and print its metrics.

    python3 bench/run.py --workload cli-small --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout: the package is imported from
`src/`. The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
metrics are the end-to-end ones, measured with tracing off; with
`--trace 1` they are the per-layer ones from a traced run (see
`tracing.py`). A record of the run, with the machine, the sample count
and the quartiles behind every metric, goes to `.bench_runs/`.
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
import time
from dataclasses import replace
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 3

WORKLOADS = ("cli-small", "enum-medium", "brd-large")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_package() -> None:
    """Import `mprs` from this checkout's `src/`, and the benchmark's modules."""
    sys.path.insert(0, str(BENCH))
    sys.path.insert(0, str(ROOT / "src"))
    import mprs
    import mprs.cli  # noqa: F401

    origin = Path(mprs.__file__).resolve()
    if ROOT / "src" not in origin.parents:
        raise ImportError(f"mprs was imported from {origin}, not from {ROOT / 'src'}")


_IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.thread_time(); "
    "import mprs.cli; print(time.thread_time() - t)"
)


def import_seconds(calibration) -> float:
    """Scaled CPU time a fresh interpreter takes to import `mprs.cli`."""
    calibration.take()
    before = calibration.at[-1]
    child = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(ROOT / "src")],
        capture_output=True, text=True, check=True, timeout=60,
    )
    calibration.take()
    return float(child.stdout) * calibration.scale(before, calibration.at[-1])


def run_tasks(tasks, rec, seconds: float = 0.0, passes: int | None = None) -> int:
    """Make whole passes over `tasks`: `passes` of them, or else as many as
    are expected to end within `seconds`, and at least one."""
    start = time.perf_counter()
    done = 0
    with rec.calibration.running():
        while True:
            for task in tasks:
                try:
                    task(rec)
                except Exception as exc:  # a crash is a failed call, not a failed run
                    rec.crashed(f"{type(exc).__name__}: {exc}")
            done += 1
            elapsed = time.perf_counter() - start
            if passes is not None and done >= passes:
                return done
            if passes is None and elapsed * (done + 1) / done > seconds:
                return done


def _summary(values: list[float]) -> dict:
    if len(values) < 2:
        v = values[0] if values else 0.0
        return {"n": len(values), "median": v, "q1": v, "q3": v}
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"n": len(values), "median": q2, "q1": q1, "q3": q3}


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _p99(values: list[float]) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[98]


def _rate(work: float, seconds: float) -> float:
    return work / seconds if seconds > 0 else 0.0


def end_to_end(samples, setup: list[float]) -> dict[str, tuple[float, str, list[float]]]:
    """name -> (value, unit, the per-sample values behind it)."""
    calls = [s for s in samples if s.is_call]
    by_kind: dict[str, list] = {}
    for s in samples:
        by_kind.setdefault(s.kind, []).append(s)
    scan, check = by_kind.get("scan", []), by_kind.get("check", [])
    brd, parse = by_kind.get("brd", []), by_kind.get("parse", [])
    first = [s.seconds for s in by_kind.get("first", [])]
    latency = [s.seconds for s in calls]
    judged = scan + check
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "setup_s": (_median(setup), "s", setup),
        "peak_rss_mb": (rss_mb, "MB", [rss_mb]),
        "calls_per_s": (
            _rate(len(calls), sum(latency)), "1/s", [_rate(1, t) for t in latency]
        ),
        "call_s.p50": (_median(latency), "s", latency),
        "call_s.p99": (_p99(latency), "s", latency),
        "profiles_per_s": (
            _rate(
                sum(s.work for s in scan) + len(check), sum(s.seconds for s in judged)
            ),
            "1/s",
            [_rate(s.work if s.kind == "scan" else 1, s.seconds) for s in judged],
        ),
        "first_ne_s.p50": (_median(first), "s", first),
        "brd_vertices_per_s": (
            _rate(sum(s.work for s in brd), sum(s.seconds for s in brd + parse)),
            "1/s",
            [_rate(s.work, s.seconds) for s in brd],
        ),
        "check_vertices_per_s": (
            _rate(sum(s.work for s in check), sum(s.seconds for s in check)),
            "1/s",
            [_rate(s.work, s.seconds) for s in check],
        ),
    }


def machine() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from `.git` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    load_before = os.getloadavg()
    refs_path = BENCH / "refs" / f"{args.workload}.json"
    try:
        import_package()
        refs = json.loads(refs_path.read_text(encoding="utf-8"))
    except (ImportError, OSError) as exc:
        print(f"error: cannot load the program or its references: {exc}", file=sys.stderr)
        return 2

    import workloads

    try:
        return measure(args, refs, load_before)
    finally:
        shutil.rmtree(workloads.work_dir(ROOT), ignore_errors=True)


def measure(args: argparse.Namespace, refs: dict, load_before) -> int:
    import clock
    import workloads

    build = workloads.BUILDERS[args.workload]
    setup, setup_raw = [], []
    for _ in range(SETUP_REPEATS):
        with clock.Calibration().running() as calibration:
            import_s = import_seconds(calibration)
            interval = clock.Interval(calibration)
            built = build(args.seed, ROOT, refs)
            interval.stop()
        setup.append(import_s + interval.scaled())
        setup_raw.append(interval.raw_seconds)
    built.write_documents()
    tasks = built.tasks

    rec = workloads.Recorder()
    if not args.trace:
        run_tasks(tasks, rec, seconds=args.seconds)
        rec.finish()
        values = end_to_end(rec.samples, setup)
        raw = end_to_end([replace(s, seconds=s.raw_seconds) for s in rec.samples], setup_raw)
        recorders = [rec]
    else:
        import tracing

        # Untraced first, then the same tasks traced, so the two totals
        # compare identical work.
        done = run_tasks(tasks, rec, seconds=args.seconds / 2)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            built = build(args.seed, ROOT, refs)
            built.write_documents()
            tasks = built.tasks
            traced = workloads.Recorder()
            run_tasks(tasks, traced, passes=done)
        finally:
            tracer.remove()
        rec.finish()
        traced.finish()
        plain_s = sum(s.seconds for s in rec.samples if s.is_call)
        traced_s = sum(s.seconds for s in traced.samples if s.is_call)
        values = {
            name: (v, "s" if name.endswith(".self_s") else "count" if name.endswith(".calls") else "ratio", [v])
            for name, v in tracer.layer_metrics().items()
        }
        overhead = _rate(traced_s, plain_s) - 1
        values["trace.overhead_ratio"] = (overhead, "ratio", [overhead])
        raw = {}
        recorders = [rec, traced]

    attempted = sum(r.attempted for r in recorders)
    failed = sum(r.failed for r in recorders)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(),
        **machine(),
        "load_before": load_before,
        "load_after": os.getloadavg(),
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted if attempted else 0.0,
        "failures": [f for r in recorders for f in r.failures],
        "metrics": {
            name: {"value": v, "unit": unit, **_summary(samples)}
            for name, (v, unit, samples) in values.items()
        },
        # Unscaled CPU-time values; `setup_s` here leaves out the import.
        "raw_metrics": {name: v for name, (v, _, _) in raw.items()},
        "calibration_s": _summary([k for r in recorders for k in r.calibration.kernel]),
    }
    runs = ROOT / ".bench_runs"
    runs.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    out = runs / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}.json"
    out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    for line in record["failures"]:
        print(f"failed: {line}", file=sys.stderr)

    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit, _) in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
