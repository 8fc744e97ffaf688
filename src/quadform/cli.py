"""Command-line interface.

Subcommands: ``stat`` (evaluate a statistic), ``canon`` (canonical form),
``reduce`` (ATS-safe row reduction), ``equiv`` (solution-set comparison),
``project`` (projector form), ``bench`` (timing harness).  Matrices travel as
headerless CSV files; statistic values print with 12 significant digits.

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


def _emit_hypothesis(hyp: LinearHypothesis, args) -> None:
    if args.out_hypothesis:
        write_matrix_csv(hyp.h, args.out_hypothesis)
    if args.out_rhs:
        write_vector_csv(hyp.y, args.out_rhs)
    if not (args.out_hypothesis or args.out_rhs):
        sys.stdout.write(format_matrix_csv(hyp.h))
        sys.stdout.write("\n")
        sys.stdout.write(format_matrix_csv(hyp.y[:, None]))


def _cmd_canon(args) -> None:
    _emit_hypothesis(canonical_form(_load_hypothesis(args.hypothesis, args.rhs)), args)


def _cmd_reduce(args) -> None:
    _emit_hypothesis(reduce_for_ats(_load_hypothesis(args.hypothesis, args.rhs)), args)


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

    canon = subs.add_parser("canon", help="row-echelon canonical form of a hypothesis")
    _add_hypothesis_flags(canon)
    canon.add_argument("--out-hypothesis", help="write the canonical matrix to this CSV file")
    canon.add_argument("--out-rhs", help="write the canonical right-hand side to this CSV file")
    canon.set_defaults(func=_cmd_canon)

    reduce = subs.add_parser("reduce", help="drop zero rows and collapse parallel rows (ATS-safe)")
    _add_hypothesis_flags(reduce)
    reduce.add_argument("--out-hypothesis", help="write the reduced matrix to this CSV file")
    reduce.add_argument("--out-rhs", help="write the reduced right-hand side to this CSV file")
    reduce.set_defaults(func=_cmd_reduce)

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
