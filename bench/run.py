"""gaussprg benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``. One run sets up the workload, then repeats its operation until
the operations have taken ``--seconds`` (at least ``MIN_OPS`` of them),
verifying each operation's outputs outside the timed region.

``--trace 0`` prints the end-to-end metrics: the median per-operation
throughput, the median set-up time of ``SETUP_PROBES`` fresh processes, and
the run's peak resident memory. ``--trace 1`` runs each operation twice,
untraced and then with every public function wrapped (see ``tracer.py``),
checks that both give the same outputs, and prints the per-layer metrics
of the traced runs and the tracing overhead. The last
line of standard output is one JSON object; the lines before it list every
metric by name and unit, the error rate and the environment.

Working files go to ``.bench-work/`` in the checkout. The output digest of
every operation is kept there, so a later run of the same seed in the same
checkout fails if any output changed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench-work"

# Harness worker threads of each workload. BLAS gets what is left of the
# cores, at least one thread: harness plus BLAS threads stay <= nproc.
WORKLOAD_JOBS = {"sample-jsonl": 1, "fool-halfspace": 2, "checks-gauss": 1, "wide-q": 1}
MIN_OPS = 3
SETUP_PROBES = 5
# Main-thread self time may miss only the benchmark's own code between the
# operation timer and the first span.
MIN_SELF_COVERAGE = 0.95


def pin_threads(jobs: int) -> tuple[int, int]:
    """Set the BLAS thread count; must run before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    blas = max(1, nproc - jobs)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(blas)
    return nproc, blas


def import_package() -> None:
    """Import gaussprg from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "gaussprg" / "__init__.py").is_file():
        raise SystemExit(f"bench: no gaussprg package under {SRC}")
    sys.path.insert(0, str(SRC))
    import gaussprg

    if Path(gaussprg.__file__).resolve().parent != SRC / "gaussprg":
        raise SystemExit(f"bench: imported gaussprg from {gaussprg.__file__}")


def environment(nproc: int, blas: int, jobs: int) -> dict:
    import numpy
    import scipy

    def blas_of(module) -> str:
        try:
            info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
            return f"{info['name']} {info['version']}"
        except (KeyError, TypeError):
            return "unknown"

    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    return {
        "nproc": nproc,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas_of(numpy),
        "scipy_blas": blas_of(scipy),
        "blas_threads": blas,
        "harness_jobs": jobs,
    }


@dataclass
class Op:
    index: int
    seconds: float
    digest: str | None = None
    error: str | None = None


def run_op(workload, index: int, tracer=None) -> Op:
    """Time one operation, then verify its outputs outside the timing."""
    from workloads import VerificationError

    op = Op(index, 0.0)
    outputs = None
    with tracer.installed() if tracer else contextlib.nullcontext():
        start = time.perf_counter()
        try:
            outputs = workload.run(index)
        except Exception as exc:  # a failed operation is counted, not fatal
            traceback.print_exc()
            op.error = f"{type(exc).__name__}: {exc}"
        op.seconds = time.perf_counter() - start
    if op.error is None:
        try:
            op.digest = workload.verify(index, outputs)
        except VerificationError as exc:
            op.error = f"verification: {exc}"
        except Exception as exc:
            traceback.print_exc()
            op.error = f"verification raised {type(exc).__name__}: {exc}"
    return op


def measure(workload, seconds: float, tracers=(None,)) -> list[list[Op]]:
    """Run operations 0, 1, ... until they have taken ``seconds`` in total.

    Each operation runs once per entry of ``tracers`` (``None`` runs it
    untraced), back to back so that they see the same machine state, in
    an order that flips on every index so that neither entry always runs
    first. One list of operations is returned per entry.
    """
    runs: list[list[Op]] = [[] for _ in tracers]
    busy = 0.0
    index = 0
    while index < MIN_OPS or busy < seconds:
        order = list(zip(tracers, runs))
        for tracer, ops in order[:: -1 if index % 2 else 1]:
            ops.append(run_op(workload, index, tracer))
            busy += ops[-1].seconds
        index += 1
    return runs


def samples_per_s(workload, ops: list[Op]) -> float:
    rates = [workload.samples_per_op / op.seconds for op in ops if op.error is None]
    return statistics.median(rates) if rates else 0.0


def check_against(ops: list[Op], reference: dict[int, str], what: str) -> None:
    """Fail every operation whose digest differs from ``reference``."""
    for op in ops:
        if op.error is None and op.index in reference and reference[op.index] != op.digest:
            op.error = f"output digest differs from {what}"


def check_earlier_runs(name: str, seed: int, ops: list[Op]) -> None:
    """Compare digests with earlier runs of this seed, then record them."""
    path = WORK / "digests.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    prefix = f"{name}/{seed}/"
    earlier = {int(k[len(prefix):]): v for k, v in known.items() if k.startswith(prefix)}
    check_against(ops, earlier, "an earlier run of this seed")
    for op in ops:
        if op.error is None:
            known.setdefault(f"{prefix}{op.index}", op.digest)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, sort_keys=True))
    os.replace(tmp, path)


def setup_probe_seconds(workload: str, seed: int, work_dir: Path) -> float:
    """Seconds from spawning a fresh interpreter to the end of its set-up."""
    probe_dir = work_dir / "probe"
    probe_dir.mkdir()
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, __file__, "--probe", "--workload", workload, "--seed", str(seed),
         "--spawned-at", repr(spawned), "--work-dir", str(probe_dir)],
        capture_output=True, text=True, timeout=120, check=False,
    )
    shutil.rmtree(probe_dir)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return float(proc.stdout.strip().splitlines()[-1])


def make_workload(name: str, seed: int, work_dir: Path):
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed, str(work_dir), WORKLOAD_JOBS[name])
    workload.setup()
    return workload


def run_probe(args) -> int:
    import_package()
    make_workload(args.workload, args.seed, Path(args.work_dir))
    print(repr(time.monotonic() - args.spawned_at))
    return 0


def measure_traced(workload, seconds: float):
    """Run each operation untraced and traced; return both lists, the
    per-layer metrics of the traced runs and the tracer."""
    from tracer import Tracer, layer_metrics

    tracer = Tracer()
    untraced, traced = measure(workload, seconds, (None, tracer))
    check_against(traced, {op.index: op.digest for op in untraced}, "the untraced run")
    wall = sum(op.seconds for op in traced)
    metrics = layer_metrics(
        tracer.spans, tracer.counts, wall, workload.jobs, threading.main_thread().ident
    )
    ratios = [t.seconds / u.seconds for u, t in zip(untraced, traced) if not (u.error or t.error)]
    metrics["trace.overhead"] = (statistics.median(ratios) if ratios else 0.0, "ratio")
    return untraced, traced, metrics, tracer


def write_spans(path: Path, tracer, env: dict) -> None:
    spans = [[s.id, s.name, s.start, s.end, s.parent, s.thread] for s in tracer.spans]
    path.write_text(json.dumps({
        "env": env,
        "fields": ["id", "name", "start", "end", "parent", "thread"],
        "spans": spans,
        "counts": dict(tracer.counts),
    }))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOAD_JOBS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    parser.add_argument("--work-dir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    jobs = WORKLOAD_JOBS[args.workload]
    nproc, blas = pin_threads(jobs)
    if args.probe:
        return run_probe(args)
    import_package()
    env = environment(nproc, blas, jobs)
    print("env " + json.dumps(env, sort_keys=True))

    WORK.mkdir(exist_ok=True)
    work_dir = WORK / f"run-{os.getpid()}"
    work_dir.mkdir()
    try:
        problems: list[str] = []
        if args.trace:
            workload = make_workload(args.workload, args.seed, work_dir)
            untraced, traced, metrics, tracer = measure_traced(workload, args.seconds)
            ops = untraced + traced
            coverage = metrics["trace.self_coverage"][0]
            if not MIN_SELF_COVERAGE <= coverage <= 1.0 + 1e-9:
                problems.append(f"self times cover {coverage:.4f} of the traced wall time")
            write_spans(WORK / f"trace-{args.workload}-{args.seed}.json", tracer, env)
        else:
            setups = [
                setup_probe_seconds(args.workload, args.seed, work_dir)
                for _ in range(SETUP_PROBES)
            ]
            workload = make_workload(args.workload, args.seed, work_dir)
            (ops,) = measure(workload, args.seconds)
            metrics = {
                "samples_per_s": (samples_per_s(workload, ops), "samples/s"),
                "setup_s": (statistics.median(setups), "s"),
                "peak_rss_mb": (
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"
                ),
            }
        check_earlier_runs(args.workload, args.seed, ops)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    failed = [op for op in ops if op.error]
    for op in failed:
        print(f"FAILED op {op.index}: {op.error}")
    for problem in problems:
        print(f"PROBLEM {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(f"{args.workload} error_rate = {len(failed) / len(ops):.6g} ratio"
          f" ({len(failed)} of {len(ops)} operations)")
    print(f"{args.workload} ops = {len(ops)}, first output sha256 = {ops[0].digest}")
    print(json.dumps({
        "correct": not failed and not problems,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
