"""Why the minimal hypothesis matrix wins inside resampling loops.

The Wald statistic inverts an m x m kernel, where m is the number of rows of
the hypothesis matrix.  A redundant encoding with hundreds of rows therefore
pays for a large eigendecomposition on every evaluation, while an equivalent
single-row encoding pays almost nothing; over the thousands of evaluations of a
bootstrap or permutation loop the difference is minutes versus seconds.

This demo runs a small grid so it finishes quickly; push ``dims`` and
``replications`` up (or use the ``quadform bench`` command) for the full
picture.
"""

import quadform as qf

for setting, dims in (("A", (5, 10, 20)), ("B", (3, 5, 8))):
    cfg = qf.BenchConfig(
        setting=setting, dims=dims, replications=500, seed=2026, gamma=None
    )
    report = qf.run_benchmark(cfg)
    print(qf.emit_report(report, "markdown"))
    for d in dict.fromkeys(r.dimension for r in report.rows):
        full, minimal = [
            r for r in report.rows if r.dimension == d
        ]
        ratio = 100.0 * minimal.total_seconds / full.total_seconds
        print(
            f"  dimension {d}: minimal variant needs {ratio:.1f}% of the "
            f"full variant's time (checksums agree: "
            f"{abs(full.statistic_checksum - minimal.statistic_checksum) <= 1e-6 * abs(full.statistic_checksum)})"
        )
    print()

print("The same comparison with the kernel factored once per variant:")
cfg = qf.BenchConfig(setting="A", dims=(20,), replications=500, seed=2026, precompute=True)
print(qf.emit_report(qf.run_benchmark(cfg), "markdown"))
