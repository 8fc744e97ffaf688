"""Benchmark of the quadform library and command line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: boot_redundant, boot_minimal, kernel_reuse, cli (see README.md);
``--workload all`` runs each in turn in its own process.  With ``--trace 0``
a run prints the end-to-end metrics; with ``--trace 1`` it alternates
untraced and traced ops and prints the per-layer metrics.  The last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The program is imported from the
checkout's ``src/``; without it the run fails with exit code 2.
"""

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BLAS_THREADS = 1
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
# Start-up and set-up run this many times per run; setup_s adds their medians.
SETUP_REPEATS = 5
# Longest a run may measure, whatever --seconds and the sample target ask.
MAX_MEASURE_S = 120.0


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the self-check only")
    return parser.parse_args(argv)


def _git_state() -> tuple[str | None, bool | None]:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))

    def git(*args):
        return subprocess.run(
            ["git", *args], cwd=ROOT, env=env, stdin=subprocess.DEVNULL, capture_output=True, text=True, timeout=30
        )

    try:
        rev = git("rev-parse", "HEAD")
        if rev.returncode != 0:
            return None, None
        status = git("status", "--porcelain", "--untracked-files=no")
    except (OSError, subprocess.TimeoutExpired):
        return None, None
    return rev.stdout.strip(), bool(status.stdout.strip())


def _environment(np, args, inherited_threads) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas_version = None
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    rev, dirty = _git_state()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads_pinned": BLAS_THREADS,
        "num_threads_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "num_threads_env_inherited": inherited_threads,
        "cpu": cpu or platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_revision": rev,
        "git_dirty": dirty,
    }


def _startup_times() -> list[float]:
    """Wall times of fresh interpreters that start and import what a run imports before set-up."""
    code = "import sys; sys.path[:0] = sys.argv[1:]; import numpy, quadform.cli, workloads"
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", code, str(HERE), str(SRC)], cwd=ROOT, stdin=subprocess.DEVNULL, check=True, timeout=60
        )
        times.append(time.perf_counter() - start)
    return times


def _run_all(args, names) -> int:
    """Run every workload in its own process; print each one's lines and a combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        argv = [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(argv, cwd=ROOT, stdin=subprocess.DEVNULL, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        for line in lines[:-1]:
            print(f"{name} {line}")
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def _measure(state, seconds: float, min_ops: int, tracer, patches, cycle: int) -> dict:
    """Closed loop, one client: prepare, time ``run``, check; until time and sample targets are met."""
    durations, traced_flags, ok_flags = [], [], []
    first_failure = None
    start = time.perf_counter()
    cap = max(seconds, min(4 * seconds, MAX_MEASURE_S))
    i = 0
    while True:
        elapsed = time.perf_counter() - start
        if i % cycle == 0 and (elapsed >= cap or (elapsed >= seconds and i >= min_ops)):
            break
        payload = state.prepare(i)
        traced = tracer is not None and i % 2 == 1
        if traced:
            tracer.op = i
            patches.install()
            span = tracer.begin("op")
        error = None
        t0 = time.perf_counter()
        try:
            result = state.run(payload, traced)
        except Exception as exc:  # an op that raises is a failed op; the loop goes on
            error = f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        if traced:
            tracer.end(span, t0, t1)
            patches.remove()
            if error is None and hasattr(state, "collect"):
                state.collect(tracer, span)
            tracer.op = -1
        if error is None:
            error = state.check(payload, result)
        if error is not None and first_failure is None:
            first_failure = f"op {i}: {error}"
        durations.append(t1 - t0)
        traced_flags.append(traced)
        ok_flags.append(error is None)
        i += 1
    return {"durations": durations, "traced": traced_flags, "ok": ok_flags, "first_failure": first_failure}


def _rate(durations, ok, mask) -> float:
    """Correct ops per second of time spent in the timed calls, over the ops in ``mask``."""
    busy = float(durations[mask].sum())
    return float(ok[mask].sum()) / busy if busy > 0 else 0.0


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "quadform" / "__init__.py").is_file():
        print(f"error: {SRC}/quadform not found; run from a checkout of the repository", file=sys.stderr)
        return 2
    inherited_threads = {v: os.environ.get(v) for v in THREAD_VARS}
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    import numpy as np

    import spans
    from workloads import TAIL_PERCENTILE, WORKLOADS

    if args.workload == "all":
        return _run_all(args, list(WORKLOADS))
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import quadform.cli  # noqa: F401  (imports every library module)

    if not Path(quadform.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported quadform from {quadform.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    startup_times = _startup_times()
    setup_times = []
    state = None
    for _ in range(SETUP_REPEATS):
        if state is not None:
            state.close()
        tracer = spans.Tracer() if args.trace else None
        t0 = time.perf_counter()
        state = WORKLOADS[args.workload](args.seed, args.tiny, tracer, ROOT)
        for i in range(state.warmup_ops):
            state.run(state.prepare(-1 - i), False)
        setup_times.append(time.perf_counter() - t0)
    setup_s = statistics.median(startup_times) + statistics.median(setup_times)

    try:
        cycle = len(getattr(state, "commands", ())) or 1
        q = TAIL_PERCENTILE[args.workload]
        # A traced run needs each op kind traced and untraced; an untraced run
        # needs ten samples beyond the tail percentile.
        if args.tiny or args.trace:
            min_ops = 2 * cycle
        else:
            min_ops = math.ceil(10.0 / (1.0 - q / 100.0)) + 1
        patches = spans.Patches(tracer, state.targets) if tracer is not None else None
        run = _measure(state, args.seconds, min_ops, tracer, patches, cycle)
        extra = {}
        if tracer is not None and args.workload == "cli":
            extra["cli.interpreter_ms"], extra["cli.import_ms"] = state.interpreter_and_import_ms()
    finally:
        state.close()

    durations, ok = np.array(run["durations"]), np.array(run["ok"], dtype=bool)
    attempted = int(durations.size)
    failed = int(attempted - ok.sum())
    env = _environment(np, args, inherited_threads)
    env["startup_times_s"] = startup_times
    env["setup_times_s"] = setup_times

    if tracer is None:
        tail = float(np.percentile(durations, q))
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if args.workload == "cli":
            rss_kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        env["op_tail"] = {
            "percentile": q,
            "samples": attempted,
            "samples_beyond": int((durations > tail).sum()),
        }
        grid = (50, 80, 90, 95, 98, 99, 99.5, 99.9)
        env["percentiles_ms"] = dict(zip(map(str, grid), (1e3 * np.percentile(durations, grid)).tolist()))
        metrics = {
            "setup_s": (setup_s, "s"),
            "ops_per_s": (_rate(durations, ok, np.ones(attempted, dtype=bool)), "1/s"),
            "op_p50_ms": (1e3 * float(np.median(durations)), "ms"),
            "op_tail_ms": (1e3 * tail, "ms"),
            "ok_ratio": (float(ok.sum()) / attempted, "ratio"),
            "peak_rss_mb": (rss_kb / 1024.0, "MB"),
        }
    else:
        traced = np.array(run["traced"], dtype=bool)
        plain_rate, traced_rate = _rate(durations, ok, ~traced), _rate(durations, ok, traced)
        values = spans.layer_metrics(tracer, setup_times[-1])
        values["cli.interpreter_ms"] = extra.get("cli.interpreter_ms", 0.0)
        values["cli.import_ms"] = extra.get("cli.import_ms", 0.0)
        values["trace.overhead_pct"] = 100.0 * (plain_rate - traced_rate) / plain_rate if plain_rate else 0.0
        metrics = {name: (values[name], unit) for name, unit, _ in spans.per_layer_spec()}
        env["traced_ops"] = int(traced.sum())
        env["trace_missing_names"] = patches.missing
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"spans-{args.workload}.json")

    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    if run["first_failure"]:
        print(f"first failure: {run['first_failure']}")
        print(f"first failure: {run['first_failure']}", file=sys.stderr)
    print("env " + json.dumps(env))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
