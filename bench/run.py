"""Closed-loop benchmark of the symdiag package.

    python3 bench/run.py --workload {algebra,synth,track,verify}
                         --seed N --seconds S --trace {0,1}

One client, one process, one thread: each op starts when the previous one
has returned.  Ops run in whole rounds (see workloads.py) until the timed
op time reaches S seconds; every output is checked exactly outside the
timed region.  Set-up is timed once per round and its median reported.  With --trace 0 the last stdout line carries the end-to-end
metrics; with --trace 1 it carries the per-layer metrics of a traced pass,
measured against an untraced pass over the same inputs.  Run it from the
repository root; it imports the package from ./src.
"""

from __future__ import annotations

import os

#: BLAS and OpenMP pools pinned to one thread before numpy is imported
THREAD_ENV = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

#: seed kept out of tuning, for confirming a later claim on unseen inputs
HELD_OUT_SEED = 9001

IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import symdiag; print(time.perf_counter() - t)"
)


def _load_package():
    """Import symdiag from ./src, refusing any other copy."""
    if not (SRC / "symdiag" / "__init__.py").is_file():
        raise SystemExit(f"error: no package at {SRC / 'symdiag'}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import symdiag

    if Path(symdiag.__file__).resolve().parent != (SRC / "symdiag").resolve():
        raise SystemExit(f"error: imported symdiag from {symdiag.__file__}, not {SRC}")
    return symdiag


def _commit() -> str:
    """HEAD's commit hash, read from .git without running git."""
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return "unknown (not a git checkout)"
    ref = (git / "HEAD").read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            parts = line.split()
            if len(parts) == 2 and parts[1] == name:
                return parts[0]
    return f"unknown ({name} not found)"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def machine_info() -> dict:
    import numpy as np

    digest = hashlib.sha256()
    for path in sorted((SRC / "symdiag").glob("*.py")):
        digest.update(path.read_bytes())
    return {
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": _commit(),
        "src_sha256": digest.hexdigest()[:16],
        "threads": THREAD_ENV,
        "held_out_seed": HELD_OUT_SEED,
    }


def import_seconds() -> float:
    """Import time of the package in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, check=True, timeout=120, cwd=ROOT,
    )
    return float(done.stdout.strip())


def warm_up(workload, seed: int) -> None:
    """Run the warm-up ops; their outputs are discarded."""
    for op in workload.warmup(seed):
        try:
            op.call()
        except Exception:  # a failing op is counted when measured
            pass


def set_up(workload, seed: int, r: int):
    """One set-up sample before round r: a package import in a fresh
    interpreter, building round r's inputs and running the warm-up ops.

    Returns (seconds, round r's ops).
    """
    imports = import_seconds()
    start = time.perf_counter()
    ops = workload.round(seed, r)
    warm_up(workload, seed)
    return imports + time.perf_counter() - start, ops


def passes_check(op, out, error) -> bool:
    if error is not None:
        return False
    try:
        return bool(op.check(out))
    except Exception:  # a malformed output fails its op
        return False


def run_ops(ops, tracer=None, first_id: int = 0):
    """Run ops in order; returns (latencies, sizes, failed)."""
    latencies, sizes, failed = [], [], 0
    for n, op in enumerate(ops):
        if tracer is None:
            error = out = None
            start = time.perf_counter()
            try:
                out = op.call()
            except Exception as exc:  # the op failed; counted below
                error = exc
            latencies.append(time.perf_counter() - start)
        else:
            seconds, out, error = tracer.run_op(first_id + n, op.kind, op.call)
            latencies.append(seconds)
        sizes.append(op.size)
        failed += not passes_check(op, out, error)
    return latencies, sizes, failed


def measure(workload, seed: int, seconds: float):
    import numpy as np

    setups, rounds, attempted, failed, timed = [], [], 0, 0, 0.0
    while True:
        setup_s, ops = set_up(workload, seed, len(rounds))
        setups.append(setup_s)
        gc.collect()
        lat, size, bad = run_ops(ops)
        rounds.append((lat, size))
        attempted += len(lat)
        failed += bad
        timed += sum(lat)
        if timed >= seconds and len(rounds) >= workload.min_rounds:
            break
    latencies = [t for lat, _ in rounds for t in lat]
    sizes = [s for _, size in rounds for s in size]
    n = len(latencies)
    p = workload.tail_percentile
    tail_s = float(np.percentile(latencies, p))
    setup_s = statistics.median(setups)
    by_size = {}
    for s, t in zip(sizes, latencies):
        by_size.setdefault(s, []).append(t)
    detail = {
        "rounds": len(rounds),
        "round_seconds": [sum(lat) for lat, _ in rounds],
        "setup_seconds": setups,
        "ops": n,
        "timed_s": timed,
        "tail_percentile": p,
        "samples_beyond_tail": sum(1 for t in latencies if t > tail_s),
        "size_classes": {
            s: {"ops": len(v), "p50_ms": 1e3 * statistics.median(v), "share": sum(v) / timed}
            for s, v in by_size.items()
        },
    }
    metrics = {
        "ops_per_s": (n / timed, "1/s"),
        "latency_p50_ms": (1e3 * statistics.median(latencies), "ms"),
        "latency_tail_ms": (1e3 * tail_s, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "success_rate": ((attempted - failed) / attempted, "ratio"),
    }
    lines = [
        f"ops_per_s        {n / timed:.4f} 1/s ({n} ops in {timed:.3f} s, "
        f"{len(rounds)} rounds)",
        f"latency_p50_ms   {metrics['latency_p50_ms'][0]:.4f} ms ({n} samples)",
        f"latency_tail_ms  {metrics['latency_tail_ms'][0]:.4f} ms "
        f"(p{p:g}, {detail['samples_beyond_tail']} samples beyond)",
        f"setup_s          {setup_s:.4f} s (median of {len(setups)}, one per round)",
        f"peak_rss_mb      {metrics['peak_rss_mb'][0]:.1f} MB",
        f"error_rate       {failed / attempted:.6f} ({failed} of {attempted} ops failed)",
    ]
    return metrics, attempted, failed, detail, lines


def traced(workload, seed: int, seconds: float, package):
    """Alternate untraced and traced passes over round 0's ops, so every
    pass does the same work and count metrics repeat exactly per pass."""
    from tracing import Tracer

    ops = workload.round(seed, 0)
    warm_up(workload, seed)
    tracer = Tracer(package)
    passes, untraced_s, traced_s, failed, attempted = 0, 0.0, 0.0, 0, 0
    start = time.perf_counter()
    while True:
        gc.collect()
        lat, _, bad = run_ops(ops)
        untraced_s += sum(lat)
        gc.collect()
        tracer.install()
        try:
            lat, _, bad_traced = run_ops(ops, tracer, first_id=passes * len(ops))
        finally:
            tracer.uninstall()
        tracer.keep_spans = False
        traced_s += sum(lat)
        failed += bad + bad_traced
        attempted += 2 * len(ops)
        passes += 1
        if time.perf_counter() - start >= seconds:
            break
    metrics = tracer.layer_metrics(passes)
    n = len(ops)
    metrics.update(
        {
            "trace.wall_ms": (1e3 * traced_s / passes, "ms"),
            "trace.untraced_wall_ms": (1e3 * untraced_s / passes, "ms"),
            "trace.overhead_ratio": (traced_s / untraced_s, "ratio"),
            "trace.ops_per_s": (n * passes / traced_s, "1/s"),
            "trace.untraced_ops_per_s": (n * passes / untraced_s, "1/s"),
        }
    )
    spans_path = OUT_DIR / f"spans_{workload.name}_seed{seed}.csv"
    written = tracer.write_spans(spans_path)
    modules_ms = sum(v for k, (v, _) in metrics.items() if k.count(".") == 1
                     and k.endswith(".self_ms") and not k.startswith("trace."))
    detail = {
        "passes": passes,
        "ops_per_pass": n,
        "spans_file": str(spans_path.relative_to(ROOT)),
        "spans_written": written,
        "spans_dropped": tracer.dropped_spans,
        "module_self_ms_sum": modules_ms,
        "wait_metrics": "none: every layer runs synchronously in one thread; no layer queues work",
    }
    lines = [
        f"traced {n} ops x {passes} passes: overhead x{metrics['trace.overhead_ratio'][0]:.3f}, "
        f"module self time {modules_ms:.1f} ms + unattributed "
        f"{metrics['trace.unattributed_ms'][0]:.1f} ms of {metrics['trace.wall_ms'][0]:.1f} ms",
    ]
    return metrics, attempted, failed, detail, lines


def result_line(metrics: dict, attempted: int, failed: int) -> str:
    return json.dumps(
        {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
    )


def execute(workload, seed: int, seconds: float, trace: int, package) -> list[str]:
    """Run one workload; returns the output lines, the result line last."""
    if trace:
        metrics, attempted, failed, detail, lines = traced(workload, seed, seconds, package)
    else:
        metrics, attempted, failed, detail, lines = measure(workload, seed, seconds)
    info = {"workload": workload.name, "seed": seed, "trace": trace,
            "machine": machine_info(), **detail}
    return ["# " + json.dumps(info), *("# " + line for line in lines),
            result_line(metrics, attempted, failed)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("algebra", "synth", "track", "verify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    package = _load_package()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import workloads

    workload = workloads()[args.workload]
    print("\n".join(execute(workload, args.seed, args.seconds, args.trace, package)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
