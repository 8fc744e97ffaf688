"""The four closed-loop workloads, each driven by a single client.

A workload object is built by its set-up (inputs, one-time builds, reference
values).  The runner then calls, per op, ``prepare`` (untimed), ``run``
(timed: only calls into the library or its command line) and ``check``
(untimed correctness oracle).  ``run`` uses call-site spans when ``traced``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import inputs
from spans import LIBRARY_TARGETS, Tracer

# Relative tolerances, fixed from float64 rounding at these sizes: a
# redundant encoding reaches the closed form through a 400-wide SVD, whose
# rounding is far below 1e-8; the same computation repeated in a child
# process differs only by the 12-digit rounding of its printed value.
CLOSED_FORM_RTOL = 1e-8
PRINTED_RTOL = 1e-11
MATRIX_ATOL = 1e-9


def _mismatch(label: str, value: float, ref: float, rtol: float) -> str | None:
    if abs(value - ref) <= rtol * abs(ref):
        return None
    return f"{label}: got {value!r}, expected {ref!r} (rtol {rtol:g})"


def _closed_form(setting: inputs.Setting, t: np.ndarray, sigma: np.ndarray, n: float):
    """WTS and MATS of the one-row encoding: N (h't - y)^2 / h'Sh and (h't - y)^2 / h'diag(S)h."""
    h = setting.minimal.h[0]
    r = float(h @ t - setting.minimal.y[0])
    return n * r * r / float(h @ sigma @ h), r * r / float((h * h) @ np.diag(sigma))


def _ats_standardized(enc: inputs.Encoding, t: np.ndarray, sigma: np.ndarray, n: float) -> float:
    r = enc.h @ t - enc.y
    return n * float(r @ r) / float(np.sum((enc.h @ sigma) * enc.h))


def _same_solution_set(h1, y1, h2, y2) -> bool:
    """Both systems consistent with equal row spaces and a common solution."""
    r1 = np.linalg.matrix_rank(h1)
    if r1 != np.linalg.matrix_rank(h2) or r1 != np.linalg.matrix_rank(np.vstack([h1, h2])):
        return False
    theta = np.linalg.lstsq(h1, y1, rcond=None)[0]
    scale = 1.0 + float(np.abs(y1).max(initial=0.0)) + float(np.abs(y2).max(initial=0.0))
    return bool(
        np.abs(h1 @ theta - y1).max() <= MATRIX_ATOL * scale
        and np.abs(h2 @ theta - y2).max() <= MATRIX_ATOL * scale
    )


class Boot:
    """Bootstrap replicates through the naive user path, both settings per op.

    Each op resamples the rows of each setting's data (untimed), then runs
    ``sample_covariance``, ``StatisticInput``, ``wts``, ``mats`` and
    ``ats_standardized`` on one encoding of each setting.
    """

    targets = LIBRARY_TARGETS
    warmup_ops = 3

    def __init__(self, variant: str, seed: int, tiny: bool, tracer: Tracer | None, root: Path) -> None:
        from quadform import statistics as st
        from quadform.hypothesis import LinearHypothesis

        d, p = (4, 3) if tiny else (100, 19)
        self.cases = []
        for setting, data, boot in (
            (inputs.setting_a(d), "a_data", "a_boot"),
            (inputs.setting_b(p), "b_data", "b_boot"),
        ):
            x = inputs.compound_symmetry_rows(inputs.stream(seed, data), 2 * setting.dim, setting.mean)
            enc = getattr(setting, variant)
            self.cases.append(
                SimpleNamespace(
                    setting=setting, enc=enc, hyp=LinearHypothesis(enc.h, enc.y), x=x, rng=inputs.stream(seed, boot)
                )
            )
        self.setup_checksum = inputs.checksum(*(c.x for c in self.cases), *(c.enc.h for c in self.cases))
        names = ("sample_covariance", "StatisticInput", "wts", "mats", "ats_standardized")
        self.api = SimpleNamespace(**{k: getattr(st, k) for k in names})
        if tracer is not None:
            self.traced_api = SimpleNamespace(**{k: tracer.wrap(getattr(st, k), f"statistics.{k}") for k in names})

    def prepare(self, i: int):
        reps = []
        for c in self.cases:
            rows = c.x.shape[0]
            xs = c.x[c.rng.integers(0, rows, size=rows)]
            reps.append((xs, xs.mean(axis=0)))
        return reps

    def run(self, reps, traced: bool):
        api = self.traced_api if traced else self.api
        out = []
        for c, (xs, t) in zip(self.cases, reps):
            inp = api.StatisticInput(t, api.sample_covariance(xs), xs.shape[0])
            out.append(
                (api.wts(c.hyp, inp).value, api.mats(c.hyp, inp).value, api.ats_standardized(c.hyp, inp).value)
            )
        return out

    def check(self, reps, out) -> str | None:
        for c, (xs, t), (w, m, a) in zip(self.cases, reps, out):
            sigma = inputs.sample_covariance(xs)
            n = xs.shape[0]
            w_ref, m_ref = _closed_form(c.setting, t, sigma, n)
            a_ref = _ats_standardized(c.enc, t, sigma, n)
            for label, value, ref in (("WTS", w, w_ref), ("MATS", m, m_ref), ("ATS_s", a, a_ref)):
                err = _mismatch(f"{c.setting.name} {label}", value, ref, CLOSED_FORM_RTOL)
                if err:
                    return err
        return None

    def fingerprint(self, reps, out) -> tuple[float, float]:
        return inputs.checksum(*(a for rep in reps for a in rep)), float(np.sum(out))

    def close(self) -> None:
        pass


class KernelReuse:
    """Many replicate vectors against kernels factored once in set-up.

    Sigma is the known I + 11'.  Set-up builds one ``WtsKernel`` per
    encoding (full and minimal, settings A and B); each op evaluates one
    replicate vector per setting with all four kernels.
    """

    targets = LIBRARY_TARGETS
    warmup_ops = 20

    def __init__(self, seed: int, tiny: bool, tracer: Tracer | None, root: Path) -> None:
        from quadform.hypothesis import LinearHypothesis
        from quadform.statistics import WtsKernel

        d, p = (5, 4) if tiny else (200, 27)
        build = WtsKernel if tracer is None else tracer.wrap(WtsKernel, "statistics.WtsKernel.init")
        self.cases = []
        for setting, name in ((inputs.setting_a(d), "kr_a"), (inputs.setting_b(p), "kr_b")):
            sigma = inputs.compound_symmetry_sigma(setting.dim)
            kernels = [build(LinearHypothesis(e.h, e.y), sigma, 1.0) for e in (setting.full, setting.minimal)]
            evals = [k.evaluate for k in kernels]
            traced = [tracer.wrap(e, "statistics.WtsKernel.evaluate") for e in evals] if tracer else None
            # h' Sigma h of the one-row encoding, for the closed-form check.
            h = setting.minimal.h[0]
            self.cases.append(
                SimpleNamespace(
                    setting=setting, h_sigma_h=float(h @ sigma @ h), evals=evals, traced=traced,
                    rng=inputs.stream(seed, name),
                )
            )
        self.setup_checksum = inputs.checksum(*(c.setting.full.h for c in self.cases))

    def prepare(self, i: int):
        return [inputs.compound_symmetry_rows(c.rng, 1, c.setting.mean)[0] for c in self.cases]

    def run(self, ts, traced: bool):
        out = []
        for c, t in zip(self.cases, ts):
            for evaluate in c.traced if traced else c.evals:
                out.append(evaluate(t).value)
        return out

    def check(self, ts, out) -> str | None:
        values = iter(out)
        for c, t in zip(self.cases, ts):
            r = float(c.setting.minimal.h[0] @ t - c.setting.minimal.y[0])
            ref = r * r / c.h_sigma_h
            for variant in ("full", "minimal"):
                err = _mismatch(f"{c.setting.name} {variant} WTS", next(values), ref, CLOSED_FORM_RTOL)
                if err:
                    return err
        return None

    def fingerprint(self, ts, out) -> tuple[float, float]:
        return inputs.checksum(*ts), float(np.sum(out))

    def close(self) -> None:
        pass


class Cli:
    """One ``python -m quadform.cli`` subprocess at a time over CSVs written in set-up.

    Ops cycle through seven invocations: ``stat`` (WTS full and minimal,
    MATS minimal), ``equiv`` and ``project`` on setting A, and ``canon`` and
    ``reduce`` on a dense hypothesis with parallel duplicate rows.
    """

    targets = ()
    warmup_ops = 0

    def __init__(self, seed: int, tiny: bool, tracer: Tracer | None, root: Path) -> None:
        from quadform.hypothesis import LinearHypothesis, canonical_form, reduce_for_ats
        from quadform.linalg import projection
        from quadform.statistics import StatisticInput, mats, wts

        self.root = root
        work_base = root / ".bench_work"
        work_base.mkdir(exist_ok=True)
        self.work = Path(os.path.realpath(work_base / f"cli-{os.getpid()}-{id(self):x}"))
        self.work.mkdir()
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))

        d = 5 if tiny else 200
        classes, copies, width = (3, 3, 6) if tiny else (30, 10, 150)
        a = inputs.setting_a(d)
        n = 2 * a.dim
        x = inputs.compound_symmetry_rows(inputs.stream(seed, "cli_data"), n, a.mean)
        t, sigma = x.mean(axis=0), inputs.sample_covariance(x)
        dense_rng = inputs.stream(seed, "cli_dense")
        dense = inputs.dense_redundant(dense_rng, classes, copies, width)
        self.dense = dense
        self.t_dense = dense_rng.standard_normal(width)
        files = {
            "a_full_h": a.full.h, "a_full_y": a.full.y, "a_min_h": a.minimal.h, "a_min_y": a.minimal.y,
            "a_t": t, "a_sigma": sigma, "dense_h": dense.h, "dense_y": dense.y,
        }
        f = {}
        for name, array in files.items():
            f[name] = str(self.work / f"{name}.csv")
            inputs.write_csv(f[name], array)
        self.setup_checksum = inputs.checksum(*files.values())
        self.reduced = (str(self.work / "reduced_h.csv"), str(self.work / "reduced_y.csv"))
        self.span_file = self.work / "spans.json"

        full = LinearHypothesis(a.full.h, a.full.y)
        minimal = LinearHypothesis(a.minimal.h, a.minimal.y)
        dense_hyp = LinearHypothesis(dense.h, dense.y)
        # In-process reference values of the same calls the children make.
        self.ref = {
            "wts_full": wts(full, StatisticInput(t, sigma, n)).value,
            "wts_min": wts(minimal, StatisticInput(t, sigma, n)).value,
            "mats_min": mats(minimal, StatisticInput(t, sigma, 1.0)).value,
            "projection": projection(a.full.h),
            "canon": canonical_form(dense_hyp),
            "reduce": reduce_for_ats(dense_hyp),
        }
        h = a.minimal.h[0]
        self.closed_projector = np.outer(h, h) / float(h @ h)

        stat = ["stat", "--t", f["a_t"], "--sigma", f["a_sigma"]]
        full_args = ["--hypothesis", f["a_full_h"], "--rhs", f["a_full_y"]]
        min_args = ["--hypothesis", f["a_min_h"], "--rhs", f["a_min_y"]]
        dense_args = ["--hypothesis", f["dense_h"], "--rhs", f["dense_y"]]
        wts_closed, mats_closed = _closed_form(a, t, sigma, n)
        self.commands = [
            ("stat-wts-full", [*stat, "--kind", "wts", "--n", str(n), *full_args],
             lambda out: self._check_value(out, self.ref["wts_full"], wts_closed)),
            ("stat-wts-min", [*stat, "--kind", "wts", "--n", str(n), *min_args],
             lambda out: self._check_value(out, self.ref["wts_min"], wts_closed)),
            ("stat-mats-min", [*stat, "--kind", "mats", *min_args],
             lambda out: self._check_value(out, self.ref["mats_min"], mats_closed)),
            ("equiv", ["equiv", "--h1", f["a_full_h"], "--y1", f["a_full_y"],
                       "--h2", f["a_min_h"], "--y2", f["a_min_y"]], self._check_equiv),
            ("project-full", ["project", *full_args], self._check_project),
            ("canon-dense", ["canon", *dense_args], self._check_canon),
            ("reduce-dense", ["reduce", *dense_args, "--out-hypothesis", self.reduced[0],
                              "--out-rhs", self.reduced[1]], self._check_reduce),
        ]
        # Bytecode warm-up: the first import in a fresh checkout compiles the package.
        subprocess.run(
            [sys.executable, "-c", "import quadform.cli"], cwd=root, env=self.env,
            stdin=subprocess.DEVNULL, check=True, timeout=120,
        )

    def prepare(self, i: int) -> int:
        return i % len(self.commands)

    def run(self, k: int, traced: bool) -> str:
        args = self.commands[k][1]
        if traced:
            argv = [sys.executable, str(Path(__file__).with_name("traced_cli.py")), str(self.span_file), *args]
        else:
            argv = [sys.executable, "-m", "quadform.cli", *args]
        proc = subprocess.run(
            argv, cwd=self.root, env=self.env, stdin=subprocess.DEVNULL, capture_output=True, text=True, timeout=120
        )
        if proc.returncode != 0:
            raise RuntimeError(f"{self.commands[k][0]} exited {proc.returncode}: {proc.stderr.strip()[-400:]}")
        return proc.stdout

    def collect(self, tracer: Tracer, op_span: int) -> None:
        with open(self.span_file) as fh:
            tracer.merge(json.load(fh), op_span)
        self.span_file.unlink()

    def check(self, k: int, stdout: str) -> str | None:
        err = self.commands[k][2](stdout)
        return f"{self.commands[k][0]}: {err}" if err else None

    def _check_value(self, stdout: str, ref: float, closed: float) -> str | None:
        try:
            value = float(stdout.strip())
        except ValueError:
            return f"unparsable output {stdout[:80]!r}"
        return _mismatch("in-process value", value, ref, PRINTED_RTOL) or _mismatch(
            "closed form", value, closed, CLOSED_FORM_RTOL
        )

    def _check_equiv(self, stdout):
        return None if stdout.strip() == "equivalent" else f"printed {stdout.strip()[:80]!r}"

    def _check_project(self, stdout):
        p = inputs.parse_csv(stdout)
        if p.shape != self.closed_projector.shape:
            return f"projector has shape {p.shape}"
        if np.abs(p - self.ref["projection"]).max() > MATRIX_ATOL:
            return "projector differs from in-process projection()"
        if np.abs(p - self.closed_projector).max() > MATRIX_ATOL:
            return "projector differs from the closed form h h' / h'h"
        return None

    def _check_hypothesis(self, h, y, ref) -> str | None:
        if h.shape != ref.h.shape or y.shape != ref.y.shape:
            return f"output has shape {h.shape}, in-process {ref.h.shape}"
        if max(np.abs(h - ref.h).max(), np.abs(y - ref.y).max()) > MATRIX_ATOL:
            return "output differs from the in-process result"
        if not _same_solution_set(h, y, self.dense.h, self.dense.y):
            return "output is not equivalent to the input hypothesis"
        return None

    def _check_canon(self, stdout):
        h_text, _, y_text = stdout.partition("\n\n")
        return self._check_hypothesis(inputs.parse_csv(h_text), inputs.parse_csv(y_text)[:, 0], self.ref["canon"])

    def _check_reduce(self, stdout):
        h, y = inputs.read_csv(self.reduced[0]), inputs.read_csv(self.reduced[1])[:, 0]
        err = self._check_hypothesis(h, y, self.ref["reduce"])
        if err:
            return err
        before = self.dense.h @ self.t_dense - self.dense.y
        after = h @ self.t_dense - y
        return _mismatch("ATS after reduction", float(after @ after), float(before @ before), CLOSED_FORM_RTOL)

    def fingerprint(self, k: int, stdout: str) -> tuple[float, float]:
        label = self.commands[k][0]
        if label == "equiv":
            values = np.array([float(stdout.strip() == "equivalent")])
        elif label == "reduce-dense":
            values = np.concatenate([inputs.read_csv(p).ravel() for p in self.reduced])
        else:
            values = np.array([float(tok) for tok in stdout.replace("\n", ",").split(",") if tok.strip()])
        return self.setup_checksum + k, float(np.sum(values))

    def interpreter_and_import_ms(self, repeats: int = 5) -> tuple[float, float]:
        """Median wall time of a bare interpreter and of importing ``quadform.cli`` in one."""

        def median_ms(code: str) -> float:
            times = []
            for _ in range(repeats):
                start = time.perf_counter()
                subprocess.run(
                    [sys.executable, "-c", code], cwd=self.root, env=self.env,
                    stdin=subprocess.DEVNULL, check=True, timeout=60,
                )
                times.append(time.perf_counter() - start)
            return 1e3 * float(np.median(times))

        bare = median_ms("pass")
        return bare, median_ms("import quadform.cli") - bare

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


WORKLOADS = {
    "boot_redundant": lambda *a: Boot("full", *a),
    "boot_minimal": lambda *a: Boot("minimal", *a),
    "kernel_reuse": KernelReuse,
    "cli": Cli,
}

# Percentile reported as op_tail_ms, fixed per workload.  A --seconds 25 run
# leaves at least ten samples beyond it (cli: ~15, the others: 35 or more);
# rarer percentiles varied by 20-40% between runs on a shared 2-vCPU machine.
TAIL_PERCENTILE = {"boot_redundant": 95.0, "boot_minimal": 98.0, "kernel_reuse": 99.0, "cli": 80.0}
