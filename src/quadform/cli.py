"""Command-line interface.

Subcommands: ``stat`` (evaluate a statistic), ``canon`` (canonical form),
``reduce`` (ATS-safe row reduction), ``equiv`` (solution-set comparison),
``project`` (projector form), ``bench`` (timing harness).  Matrices travel as
headerless CSV files; statistic values print with 12 significant digits.
``canon`` and ``reduce`` print ``H``, a blank line and ``y``, or write the pair to
``--out-hypothesis`` and ``--out-rhs``, which are given together or not at all.

Exit codes: 0 success, 1 user error (bad input, inconsistent hypothesis),
2 internal numeric failure.
"""

from __future__ import annotations

import argparse
import sys

from .bench import BenchConfig, emit_report, run_benchmark
from .hypothesis import (
    LinearHypothesis,
    canonical_form,
    equivalent,
    projection_form,
    reduce_for_ats,
)
from .io import (
    format_matrix_csv,
    read_matrix_csv,
    read_vector_csv,
    write_matrix_csv,
    write_vector_csv,
)
from .linalg import NumericError
from .statistics import StatisticInput, ats, ats_standardized, mats, wts

EXIT_OK = 0
EXIT_USER_ERROR = 1
EXIT_NUMERIC_ERROR = 2


class _UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage errors; route them through the
    # user-error path instead so exit code 2 stays reserved for numeric failures.
    def error(self, message):
        raise _UsageError(message)


def _load_hypothesis(h_path: str, y_path: str) -> LinearHypothesis:
    return LinearHypothesis(read_matrix_csv(h_path), read_vector_csv(y_path))


def _require(value, flag: str):
    if value is None:
        raise _UsageError(f"{flag} is required for this invocation")
    return value


def _cmd_stat(args) -> None:
    hyp = _load_hypothesis(args.hypothesis, args.rhs)
    t = read_vector_csv(args.t)
    if args.kind == "ats":
        result = ats(hyp, t, _require(args.n, "--n"))
    else:
        sigma = read_matrix_csv(_require(args.sigma, "--sigma"))
        # MATS carries no sample-size factor, so --n is optional there.
        n = 1.0 if args.kind == "mats" and args.n is None else _require(args.n, "--n")
        statistic = {"wts": wts, "mats": mats, "ats-s": ats_standardized}[args.kind]
        result = statistic(hyp, StatisticInput(t, sigma, n))
    print(f"{result.value:.12g}")


def _cmd_rewrite(args) -> None:
    if bool(args.out_hypothesis) != bool(args.out_rhs):
        raise _UsageError("--out-hypothesis and --out-rhs must be given together or not at all")
    hyp = args.rewrite(_load_hypothesis(args.hypothesis, args.rhs))
    if args.out_hypothesis:
        write_matrix_csv(hyp.h, args.out_hypothesis)
        write_vector_csv(hyp.y, args.out_rhs)
    else:
        print(format_matrix_csv(hyp.h))
        sys.stdout.write(format_matrix_csv(hyp.y[:, None]))


def _cmd_equiv(args) -> None:
    h1 = _load_hypothesis(args.h1, args.y1)
    h2 = _load_hypothesis(args.h2, args.y2)
    print(equivalent(h1, h2).value)


def _cmd_project(args) -> None:
    form = projection_form(_load_hypothesis(args.hypothesis, args.rhs))
    sys.stdout.write(format_matrix_csv(form.p))
    if not form.equivalent:
        print(
            "note: the projector with the mapped right-hand side does not "
            "reproduce the original solution set",
            file=sys.stderr,
        )


def _cmd_bench(args) -> None:
    try:
        dims = tuple(int(tok) for tok in args.dims.split(","))
    except ValueError:
        raise _UsageError(f"--dims must be comma-separated integers, got {args.dims!r}")
    cfg = BenchConfig(
        setting=args.setting,
        dims=dims,
        replications=args.reps,
        seed=args.seed,
        gamma=args.gamma,
        precompute=args.precompute,
    )
    text = emit_report(run_benchmark(cfg), args.format)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _add_hypothesis_flags(sub) -> None:
    sub.add_argument("--hypothesis", required=True, help="CSV file with the hypothesis matrix")
    sub.add_argument("--rhs", required=True, help="single-column CSV file with the right-hand side")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="quadform",
        description="Quadratic-form test statistics and hypothesis-matrix tooling.",
    )
    subs = parser.add_subparsers(dest="subcommand", required=True)

    stat = subs.add_parser("stat", help="evaluate a test statistic")
    stat.add_argument("--kind", required=True, choices=["wts", "mats", "ats", "ats-s"])
    _add_hypothesis_flags(stat)
    stat.add_argument("--t", required=True, help="single-column CSV with the statistic vector")
    stat.add_argument("--sigma", help="CSV with the covariance matrix")
    stat.add_argument("--n", type=float, help="total sample size")
    stat.set_defaults(func=_cmd_stat)

    for name, rewrite, adjective, help_text in (
        ("canon", canonical_form, "canonical", "row-echelon canonical form of a hypothesis"),
        ("reduce", reduce_for_ats, "reduced", "drop zero rows and collapse parallel rows (ATS-safe)"),
    ):
        sub = subs.add_parser(name, help=help_text)
        _add_hypothesis_flags(sub)
        sub.add_argument("--out-hypothesis", help=f"write the {adjective} matrix to this CSV file")
        sub.add_argument("--out-rhs", help=f"write the {adjective} right-hand side to this CSV file")
        sub.set_defaults(func=_cmd_rewrite, rewrite=rewrite)

    equiv = subs.add_parser("equiv", help="compare the solution sets of two hypotheses")
    equiv.add_argument("--h1", required=True)
    equiv.add_argument("--y1", required=True)
    equiv.add_argument("--h2", required=True)
    equiv.add_argument("--y2", required=True)
    equiv.set_defaults(func=_cmd_equiv)

    project = subs.add_parser("project", help="unique projector onto the hypothesis row space")
    _add_hypothesis_flags(project)
    project.set_defaults(func=_cmd_project)

    bench = subs.add_parser("bench", help="time repeated Wald-statistic evaluation")
    bench.add_argument("--setting", required=True, choices=["A", "B"])
    bench.add_argument("--dims", required=True, help="comma-separated dimensions (d for A, p for B)")
    bench.add_argument("--reps", type=int, default=5000)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--format", default="markdown", choices=["markdown", "csv"])
    bench.add_argument("--gamma", type=float, default=None, help="setting-B trace target (default 2p)")
    bench.add_argument("--precompute", action="store_true", help="factor the kernel once per variant")
    bench.add_argument("--out", help="write the report to this file instead of stdout")
    bench.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USER_ERROR
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USER_ERROR
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC_ERROR
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
