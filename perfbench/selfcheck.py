"""Fast self-check of the benchmark.

Usage, from the root of a checkout: ``python3 perfbench/selfcheck.py``

1. The benchmark's own Setting A/B encodings and data generator agree with
   ``quadform.bench`` where that module still provides them.
2. One seed gives identical input and statistic checksums twice; another
   seed gives different ones.
3. A tiny-size smoke run of every workload, untraced and traced, prints
   every metric named in BENCHMARK.json with its unit and passes its checks.

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import run  # ROOT, SRC and the BLAS pinning constants

for _var in run.THREAD_VARS:
    os.environ[_var] = str(run.BLAS_THREADS)
sys.path.insert(0, str(run.SRC))

import numpy as np  # noqa: E402

import inputs  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

CHECKSUM_OPS = 7


class CheckFailed(Exception):
    pass


def expect(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def check_inputs_match_library() -> list[str]:
    try:
        from quadform import bench
    except ImportError:
        return ["skip: quadform.bench is gone, nothing to compare the inputs with"]
    pairs = [(f"setting A d={d}", bench.build_setting_a(d), inputs.setting_a(d)) for d in (1, 4, 100, 200)]
    pairs += [(f"setting B p={p}", bench.build_setting_b(p, 2.0 * p), inputs.setting_b(p)) for p in (1, 3, 19, 27)]
    for label, (full, minimal), ours in pairs:
        for lib, enc in ((full, ours.full), (minimal, ours.minimal)):
            expect(np.array_equal(lib.h, enc.h) and np.array_equal(lib.y, enc.y), f"{label} differs from quadform.bench")
    mean = np.linspace(-1.0, 1.0, 7)
    rng_lib, rng_ours = np.random.default_rng(5), np.random.default_rng(5)
    lib_rows = np.array([bench.sample_compound_symmetry_normal(7, mean, rng_lib) for _ in range(6)])
    expect(np.array_equal(lib_rows, inputs.compound_symmetry_rows(rng_ours, 6, mean)), "data generator")
    return ["inputs: settings A and B and the data generator equal quadform.bench's"]


def fingerprints(name: str, seed: int) -> tuple[float, float]:
    state = WORKLOADS[name](seed, True, None, run.ROOT)
    try:
        total_in, total_out = state.setup_checksum, 0.0
        for i in range(CHECKSUM_OPS):
            payload = state.prepare(i)
            result = state.run(payload, False)
            err = state.check(payload, result)
            expect(err is None, f"{name} op {i}: {err}")
            f_in, f_out = state.fingerprint(payload, result)
            total_in += f_in
            total_out += f_out
        return total_in, total_out
    finally:
        state.close()


def check_determinism() -> list[str]:
    notes = []
    for name in WORKLOADS:
        a, b, c = fingerprints(name, 11), fingerprints(name, 11), fingerprints(name, 12)
        expect(a == b, f"{name}: seed 11 gave {a} then {b}")
        expect(a[0] != c[0] and a[1] != c[1], f"{name}: seeds 11 and 12 both gave {a}")
        notes.append(f"determinism: {name} checksums repeat for one seed and differ for another")
    return notes


def check_smoke() -> list[str]:
    with open(run.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    expect(
        [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == spans.per_layer_spec(),
        "BENCHMARK.json per_layer differs from spans.per_layer_spec()",
    )
    expect({w["name"] for w in spec["workloads"]} == set(WORKLOADS), "BENCHMARK.json workloads")
    notes = []
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", name, "--seed", "3",
                 "--seconds", "0.5", "--trace", str(trace), "--tiny"],
                cwd=run.ROOT, capture_output=True, text=True, timeout=120,
            )
            expect(proc.returncode == 0, f"{name} trace {trace}: exit {proc.returncode}\n{proc.stderr}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{name}: keys {sorted(result)}")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, f"{name}: {result}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == expected[trace], f"{name} trace {trace}: metrics {sorted(set(got) ^ set(expected[trace]))}")
            notes.append(f"smoke: {name} trace {trace} ok ({result['attempted']} ops)")
    return notes


def main() -> int:
    if not (run.SRC / "quadform" / "__init__.py").is_file():
        print(f"error: {run.SRC}/quadform not found; run from a checkout of the repository", file=sys.stderr)
        return 2
    failures = 0
    for check in (check_inputs_match_library, check_determinism, check_smoke):
        try:
            for note in check():
                print(note)
        except CheckFailed as exc:
            failures += 1
            print(f"FAIL {check.__name__}: {exc}")
    print("selfcheck " + ("passed" if failures == 0 else f"failed ({failures})"))
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
