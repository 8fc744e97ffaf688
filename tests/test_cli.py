"""End-to-end tests for the command-line interface."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from quadform import (
    LinearHypothesis,
    StatisticInput,
    canonical_form,
    reduce_for_ats,
    wts,
)
from quadform.cli import main
from quadform.io import (
    format_matrix_csv,
    read_matrix_csv,
    read_vector_csv,
    write_matrix_csv,
    write_vector_csv,
)

CENTERING_3 = np.array([[2.0, -1.0, -1.0], [-1.0, 2.0, -1.0], [-1.0, -1.0, 2.0]]) / 3.0


def _write(tmp_path, name, rows):
    path = tmp_path / name
    write_matrix_csv(np.asarray(rows, dtype=float), path)
    return str(path)


def _write_vec(tmp_path, name, values):
    path = tmp_path / name
    write_vector_csv(np.asarray(values, dtype=float), path)
    return str(path)


def _parse_blocks(text):
    """Split stdout into CSV blocks separated by blank lines."""
    blocks = [b for b in text.split("\n\n") if b.strip()]
    return [
        np.array([[float(tok) for tok in line.split(",")] for line in b.strip().splitlines()])
        for b in blocks
    ]


class TestEquiv:
    def test_identity_covariance_pair(self, tmp_path, capsys):
        h1 = _write(tmp_path, "h1.csv", np.eye(3))
        y1 = _write_vec(tmp_path, "y1.csv", [1.0, 0.0, 1.0])
        h2 = _write(tmp_path, "h2.csv", [[1, 0, 0], [0, 1, 0], [1, 0, -1]])
        y2 = _write_vec(tmp_path, "y2.csv", [1.0, 0.0, 0.0])
        code = main(["equiv", "--h1", h1, "--y1", y1, "--h2", h2, "--y2", y2])
        assert code == 0
        assert capsys.readouterr().out.strip() == "equivalent"

    def test_not_equivalent(self, tmp_path, capsys):
        h = _write(tmp_path, "h.csv", np.eye(2))
        y1 = _write_vec(tmp_path, "y1.csv", [0.0, 0.0])
        y2 = _write_vec(tmp_path, "y2.csv", [0.0, 1.0])
        code = main(["equiv", "--h1", h, "--y1", y1, "--h2", h, "--y2", y2])
        assert code == 0
        assert capsys.readouterr().out.strip() == "not-equivalent"


class TestProject:
    def test_prints_centering_projector(self, tmp_path, capsys):
        h = _write(tmp_path, "h.csv", [[1, -1, 0], [0, 1, -1], [1, 0, -1]])
        y = _write_vec(tmp_path, "y.csv", [0.0, 0.0, 0.0])
        code = main(["project", "--hypothesis", h, "--rhs", y])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.err == ""
        (p,) = _parse_blocks(captured.out)
        np.testing.assert_allclose(p, CENTERING_3, atol=1e-12)

    def test_a_projector_that_loses_the_solution_set_prints_a_note(
        self, tmp_path, capsys, monkeypatch
    ):
        import quadform.cli as cli_mod

        real = cli_mod.projection_form
        monkeypatch.setattr(
            cli_mod, "projection_form", lambda hyp: real(hyp)._replace(equivalent=False)
        )
        h = _write(tmp_path, "h.csv", [[1, -1, 0], [0, 1, -1], [1, 0, -1]])
        y = _write_vec(tmp_path, "y.csv", [0.0, 0.0, 0.0])
        code = main(["project", "--hypothesis", h, "--rhs", y])
        captured = capsys.readouterr()
        assert code == 0
        (p,) = _parse_blocks(captured.out)
        np.testing.assert_allclose(p, CENTERING_3, atol=1e-12)
        assert captured.err.startswith("note: the projector with the mapped right-hand side")


class TestStat:
    def test_wts_matches_library_value(self, tmp_path, capsys):
        h = _write(tmp_path, "h.csv", [[2.0]])
        y = _write_vec(tmp_path, "y.csv", [0.0])
        t = _write_vec(tmp_path, "t.csv", [3.0])
        s = _write(tmp_path, "s.csv", [[1.0]])
        code = main(
            ["stat", "--kind", "wts", "--hypothesis", h, "--rhs", y,
             "--t", t, "--sigma", s, "--n", "4"]
        )
        assert code == 0
        printed = float(capsys.readouterr().out)
        library = wts(
            LinearHypothesis([[2.0]], [0.0]), StatisticInput([3.0], [[1.0]], 4)
        ).value
        assert printed == float(f"{library:.12g}") == 36.0

    def test_all_kinds_run(self, tmp_path, capsys):
        rng = np.random.default_rng(31)
        sigma_mat = np.eye(3) + 0.25 * np.ones((3, 3))
        h = _write(tmp_path, "h.csv", rng.standard_normal((2, 3)))
        y = _write_vec(tmp_path, "y.csv", rng.standard_normal(2))
        t = _write_vec(tmp_path, "t.csv", rng.standard_normal(3))
        s = _write(tmp_path, "s.csv", sigma_mat)
        for kind in ("wts", "mats", "ats", "ats-s"):
            args = ["stat", "--kind", kind, "--hypothesis", h, "--rhs", y, "--t", t, "--n", "6"]
            if kind != "ats":
                args += ["--sigma", s]
            assert main(args) == 0
            float(capsys.readouterr().out)  # parses as a number

    def test_wts_on_accepted_slightly_indefinite_sigma_exits_0(self, tmp_path, capsys):
        # Sigma passes the covariance check, so no numeric failure may follow.
        h = _write(tmp_path, "h.csv", np.eye(2))
        y = _write_vec(tmp_path, "y.csv", [0.0, 0.0])
        t = _write_vec(tmp_path, "t.csv", [0.3, 0.5])
        s = _write(tmp_path, "s.csv", np.diag([1.0, -1e-11]))
        code = main(
            ["stat", "--kind", "wts", "--hypothesis", h, "--rhs", y,
             "--t", t, "--sigma", s, "--n", "10"]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out.strip() == "0.9"
        assert captured.err == ""

    def test_missing_n_is_user_error(self, tmp_path, capsys):
        h = _write(tmp_path, "h.csv", [[1.0]])
        y = _write_vec(tmp_path, "y.csv", [0.0])
        t = _write_vec(tmp_path, "t.csv", [1.0])
        code = main(["stat", "--kind", "ats", "--hypothesis", h, "--rhs", y, "--t", t])
        assert code == 1
        assert "--n" in capsys.readouterr().err

    def test_dimension_mismatch_is_user_error(self, tmp_path, capsys):
        h = _write(tmp_path, "h.csv", np.eye(3))
        y = _write_vec(tmp_path, "y.csv", [0.0, 0.0, 0.0])
        t = _write_vec(tmp_path, "t.csv", [1.0, 2.0])
        s = _write(tmp_path, "s.csv", np.eye(2))
        code = main(
            ["stat", "--kind", "wts", "--hypothesis", h, "--rhs", y,
             "--t", t, "--sigma", s, "--n", "4"]
        )
        assert code == 1
        assert capsys.readouterr().err.strip()

    def test_overflowing_statistic_exits_2(self, tmp_path, capsys, recwarn):
        # y / g = 1e10 / 2**-997 overflows; the statistic is an error, not "inf".
        h = _write(tmp_path, "h.csv", [[1e-300, 0.0], [0.0, 1.0]])
        y = _write_vec(tmp_path, "y.csv", [1e10, 0.0])
        t = _write_vec(tmp_path, "t.csv", [1.0, 2.0])
        s = _write(tmp_path, "s.csv", np.eye(2) + np.ones((2, 2)) / 4.0)
        code = main(
            ["stat", "--kind", "wts", "--hypothesis", h, "--rhs", y,
             "--t", t, "--sigma", s, "--n", "1"]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "numeric failure: the Wald form overflows the float range\n"
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize("kind", ["ats", "ats-s"])
    def test_overflowing_anova_type_statistic_exits_2(self, tmp_path, capsys, kind):
        # ||r||^2 = 1e600 is past the float range: an error, not "inf".
        h = _write(tmp_path, "h.csv", np.eye(2))
        y = _write_vec(tmp_path, "y.csv", [0.0, 0.0])
        t = _write_vec(tmp_path, "t.csv", [1e300, 1.0])
        s = _write(tmp_path, "s.csv", np.eye(2))
        args = ["stat", "--kind", kind, "--hypothesis", h, "--rhs", y, "--t", t, "--n", "1"]
        code = main(args + (["--sigma", s] if kind == "ats-s" else []))
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "numeric failure: the ANOVA-type form overflows the float range\n"

    def test_standardized_anova_type_statistic_at_a_huge_sigma_exits_0(self, tmp_path, capsys):
        # trace(H Sigma H') = 3.4e308 is past the float range; the value is not.
        h = _write(tmp_path, "h.csv", np.eye(2))
        y = _write_vec(tmp_path, "y.csv", [0.0, 0.0])
        t = _write_vec(tmp_path, "t.csv", [1.0, 2.0])
        s = _write(tmp_path, "s.csv", 1.7e308 * np.eye(2))
        code = main(
            ["stat", "--kind", "ats-s", "--hypothesis", h, "--rhs", y,
             "--t", t, "--sigma", s, "--n", "1"]
        )
        assert code == 0
        assert float(capsys.readouterr().out) == pytest.approx(2.5 / 1.7e308, rel=1e-11, abs=0.0)

    def test_two_column_rhs_file_is_user_error(self, tmp_path, capsys):
        h = _write(tmp_path, "h.csv", np.eye(2))
        y = _write(tmp_path, "y.csv", [[0.0, 1.0], [0.0, 1.0]])
        t = _write_vec(tmp_path, "t.csv", [1.0, 2.0])
        code = main(["stat", "--kind", "ats", "--hypothesis", h, "--rhs", y, "--t", t, "--n", "1"])
        assert code == 1
        assert "expected a single-column vector file, found 2 columns" in capsys.readouterr().err


class TestCanonReduce:
    def test_canon_writes_files_matching_library(self, tmp_path):
        h_mat = np.array([[1.0, -1.0, 0.0], [0.0, 1.0, -1.0], [1.0, 0.0, -1.0]])
        h = _write(tmp_path, "h.csv", h_mat)
        y = _write_vec(tmp_path, "y.csv", np.zeros(3))
        out_h = str(tmp_path / "canon_h.csv")
        out_y = str(tmp_path / "canon_y.csv")
        code = main(["canon", "--hypothesis", h, "--rhs", y,
                     "--out-hypothesis", out_h, "--out-rhs", out_y])
        assert code == 0
        expected = canonical_form(LinearHypothesis(h_mat, np.zeros(3)))
        np.testing.assert_array_equal(read_matrix_csv(out_h), expected.h)
        np.testing.assert_array_equal(read_matrix_csv(out_y)[:, 0], expected.y)

    def test_reduce_stdout_blocks(self, tmp_path, capsys):
        sphericity = 0.5 * np.array([[1.0, 0, -1], [0, 2, 0], [-1, 0, 1]])
        h = _write(tmp_path, "h.csv", sphericity)
        y = _write_vec(tmp_path, "y.csv", np.zeros(3))
        assert main(["reduce", "--hypothesis", h, "--rhs", y]) == 0
        blocks = _parse_blocks(capsys.readouterr().out)
        assert len(blocks) == 2
        expected = reduce_for_ats(LinearHypothesis(sphericity, np.zeros(3)))
        np.testing.assert_array_equal(blocks[0], expected.h)
        np.testing.assert_array_equal(blocks[1][:, 0], expected.y)

    def test_inconsistent_input_is_user_error(self, tmp_path, capsys):
        h = _write(tmp_path, "h.csv", [[1.0, 1.0], [1.0, 1.0]])
        y = _write_vec(tmp_path, "y.csv", [0.0, 1.0])
        assert main(["canon", "--hypothesis", h, "--rhs", y]) == 1
        assert "no solution" in capsys.readouterr().err

    def test_unreducible_parallel_rows_are_user_error(self, tmp_path, capsys):
        h = _write(tmp_path, "h.csv", [[1.0, 2.0, 3.0, 4.0], [1.0 + 1e-10, 2.0, 3.0, 4.0]])
        y = _write_vec(tmp_path, "y.csv", [0.0, 1.0])
        assert main(["reduce", "--hypothesis", h, "--rhs", y]) == 1
        assert "parallel within eq_tol" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "subcommand, out_flags",
        [
            ("canon", ["--out-hypothesis", "OUT"]),
            ("reduce", ["--out-rhs", "OUT"]),
            ("reduce", ["--out-hypothesis", "OUT", "--out-rhs", ""]),
        ],
        ids=["canon-hypothesis-only", "reduce-rhs-only", "reduce-empty-rhs"],
    )
    def test_half_an_output_pair_is_user_error_and_writes_nothing(
        self, tmp_path, capsys, subcommand, out_flags
    ):
        h = _write(tmp_path, "h.csv", CENTERING_3)
        y = _write_vec(tmp_path, "y.csv", np.zeros(3))
        out = tmp_path / "out.csv"
        flags = [str(out) if flag == "OUT" else flag for flag in out_flags]
        assert main([subcommand, "--hypothesis", h, "--rhs", y, *flags]) == 1
        err = capsys.readouterr().err
        assert "--out-hypothesis" in err and "--out-rhs" in err
        assert not out.exists()

    @pytest.mark.parametrize("subcommand", ["canon", "reduce"])
    def test_files_hold_the_bytes_printed_to_stdout(self, tmp_path, capsys, subcommand):
        h = _write(tmp_path, "h.csv", [[1.0, -1.0, 0.0], [2.0, -2.0, 0.0], [0.0, 0.0, 0.0]])
        y = _write_vec(tmp_path, "y.csv", [0.5, 1.0, 0.0])
        assert main([subcommand, "--hypothesis", h, "--rhs", y]) == 0
        printed = capsys.readouterr().out
        out_h, out_y = tmp_path / "out_h.csv", tmp_path / "out_y.csv"
        out_flags = ["--out-hypothesis", str(out_h), "--out-rhs", str(out_y)]
        assert main([subcommand, "--hypothesis", h, "--rhs", y, *out_flags]) == 0
        assert capsys.readouterr().out == ""
        assert printed == out_h.read_text() + "\n" + out_y.read_text()

    def test_the_rewrite_is_looked_up_when_the_parser_is_built(self, tmp_path, monkeypatch):
        # A traced run patches the names quadform.cli imports before main runs.
        import quadform.cli as cli_mod

        calls = []

        def counted(hyp):
            calls.append(hyp)
            return reduce_for_ats(hyp)

        monkeypatch.setattr(cli_mod, "reduce_for_ats", counted)
        h = _write(tmp_path, "h.csv", CENTERING_3)
        y = _write_vec(tmp_path, "y.csv", np.zeros(3))
        assert main(["reduce", "--hypothesis", h, "--rhs", y]) == 0
        assert len(calls) == 1


class TestCsvErrors:
    def test_ragged_file_names_line(self, tmp_path, capsys):
        path = tmp_path / "ragged.csv"
        path.write_text("1.0,2.0\n3.0\n")
        y = _write_vec(tmp_path, "y.csv", [0.0])
        code = main(["canon", "--hypothesis", str(path), "--rhs", y])
        assert code == 1
        assert "line 2" in capsys.readouterr().err

    def test_non_numeric_token(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,abc\n")
        y = _write_vec(tmp_path, "y.csv", [0.0])
        assert main(["canon", "--hypothesis", str(path), "--rhs", y]) == 1
        assert "non-numeric" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        y = _write_vec(tmp_path, "y.csv", [0.0])
        assert main(["canon", "--hypothesis", str(tmp_path / "absent.csv"), "--rhs", y]) == 1

    def test_scientific_notation_roundtrip(self, tmp_path):
        rng = np.random.default_rng(37)
        values = rng.standard_normal((3, 4)) * 10.0 ** rng.integers(-12, 13, size=(3, 4))
        big, tiny = np.finfo(np.float64).max, 5e-324  # largest and smallest positive float
        extremes = [[-0.0, tiny, big, 2.0**1000], [2.0**-1000, -tiny, -big, -(2.0**-1000)]]
        values = np.vstack([values, extremes])
        path = tmp_path / "sci.csv"
        write_matrix_csv(values, path)
        assert "e" in path.read_text() or "E" in path.read_text()
        back = read_matrix_csv(path)
        np.testing.assert_array_equal(back, values)
        np.testing.assert_array_equal(np.signbit(back), np.signbit(values))

    @pytest.mark.parametrize(
        "content",
        [
            b"\xef\xbb\xbf1,2\n",
            b"1,2,\n",
            b"1,nan\n",
            b"inf,2\n",
            b"",
            b"\xff\xfe1,2\n",
            None,
        ],
        ids=["utf8-bom", "trailing-comma", "nan", "inf", "empty", "undecodable", "directory"],
    )
    def test_malformed_hypothesis_file_is_user_error(self, tmp_path, capsys, content):
        path = tmp_path / "h.csv"
        if content is None:
            path.mkdir()
        else:
            path.write_bytes(content)
        y = _write_vec(tmp_path, "y.csv", [0.0])
        assert main(["canon", "--hypothesis", str(path), "--rhs", y]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert str(path) in err
        assert "Traceback" not in err

    def test_line_numbers_count_blank_lines(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("1,2\n\n   \n3,x\n")
        with pytest.raises(ValueError, match="line 4: non-numeric entry"):
            read_matrix_csv(path)
        # A bad entry is named before an earlier short row.
        path.write_text("1,2\n3\n\n4,x\n")
        with pytest.raises(ValueError, match="line 4: non-numeric entry"):
            read_matrix_csv(path)

    def test_crlf_line_endings(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_bytes(b"1,2\r\n\r\n3,4\r\n")
        np.testing.assert_array_equal(read_matrix_csv(path), [[1.0, 2.0], [3.0, 4.0]])
        path.write_bytes(b"1,2\r\n\r\n3\r\n")
        with pytest.raises(ValueError, match="line 3: expected 2 entries, found 1"):
            read_matrix_csv(path)

    def test_whitespace_around_tokens(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text(" 1 ,\t-2.5e1\t\n  3,  4  \n")
        np.testing.assert_array_equal(read_matrix_csv(path), [[1.0, -25.0], [3.0, 4.0]])

    def test_comment_is_non_numeric(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("1,2 # c\n")
        with pytest.raises(ValueError, match="line 1: non-numeric entry"):
            read_matrix_csv(path)

    def test_out_of_range_decimal_is_non_finite(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("1,2\n1e500,3\n")
        with pytest.raises(ValueError, match="line 2: non-finite entry"):
            read_matrix_csv(path)

    @pytest.mark.parametrize(
        "text, shape",
        [("7\n", (1, 1)), ("1,2,3\n", (1, 3)), ("1\n2\n3\n", (3, 1))],
        ids=["1x1", "1xn", "nx1"],
    )
    def test_thin_shapes(self, tmp_path, text, shape):
        path = tmp_path / "m.csv"
        path.write_text(text)
        m = read_matrix_csv(path)
        assert m.shape == shape
        assert m.dtype == np.float64
        if shape[1] == 1:
            np.testing.assert_array_equal(read_vector_csv(path), m[:, 0])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("content", [b"", b"\n \n\t\r\n"], ids=["empty", "blank-only"])
    def test_no_rows_raises_without_warning(self, tmp_path, content):
        path = tmp_path / "h.csv"
        path.write_bytes(content)
        with pytest.raises(ValueError, match="no matrix rows found"):
            read_matrix_csv(path)

    @pytest.mark.parametrize("token", ["1_000", "\u0661"], ids=["underscore", "arabic-indic-digit"])
    def test_tokens_only_python_float_accepts_are_non_numeric(self, tmp_path, capsys, token):
        # float() reads these, numpy's parser does not; the CSV grammar is numpy's.
        path = tmp_path / "h.csv"
        path.write_text(f"1,{token}\n", encoding="utf-8")
        y = _write_vec(tmp_path, "y.csv", [0.0])
        assert main(["canon", "--hypothesis", str(path), "--rhs", y]) == 1
        assert "line 1: non-numeric entry" in capsys.readouterr().err

    def test_inputs_never_mutated(self, tmp_path, capsys):
        h = _write(tmp_path, "h.csv", np.eye(2))
        y = _write_vec(tmp_path, "y.csv", [1.0, 2.0])
        before = (open(h).read(), open(y).read())
        main(["canon", "--hypothesis", h, "--rhs", y])
        capsys.readouterr()
        assert (open(h).read(), open(y).read()) == before


def _formatted_one_value_at_a_time(matrix):
    return "\n".join(",".join(f"{x:.17g}" for x in row) for row in matrix) + "\n"


class TestCsvWriter:
    @pytest.mark.parametrize("shape", [(1, 1), (1, 12), (12, 1), (3, 4)])
    def test_bytes_match_per_value_formatting(self, shape):
        tiny, big = 5e-324, np.finfo(np.float64).max
        grid = [-0.0, 0.0, tiny, -tiny, big, -big, 1.0, -3.0, 2.0**53, 1e22, 0.1, -1.0 / 3.0]
        values = np.resize(np.array(grid), shape)
        assert format_matrix_csv(values) == _formatted_one_value_at_a_time(values)

    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(
        values=arrays(
            np.float64,
            array_shapes(min_dims=2, max_dims=2, max_side=6),
            elements=st.floats(allow_nan=False, allow_infinity=False),
        )
    )
    def test_write_then_read_keeps_every_bit(self, tmp_path_factory, values):
        path = tmp_path_factory.mktemp("roundtrip") / "m.csv"
        write_matrix_csv(values, path)
        back = read_matrix_csv(path)
        assert back.shape == values.shape
        assert back.tobytes() == values.tobytes()
        assert path.read_text() == _formatted_one_value_at_a_time(values)


class TestBenchCommand:
    def test_csv_output_and_determinism(self, tmp_path, capsys):
        args = ["bench", "--setting", "A", "--dims", "2,3", "--reps", "10",
                "--seed", "4", "--format", "csv"]
        assert main(args) == 0
        first = capsys.readouterr().out.strip().splitlines()
        assert main(args) == 0
        second = capsys.readouterr().out.strip().splitlines()
        assert len(first) == 4
        for a, b in zip(first, second):
            fields_a, fields_b = a.split(","), b.split(",")
            assert len(fields_a) == 6
            assert fields_a[:3] == fields_b[:3]
            assert fields_a[5] == fields_b[5]  # checksums identical, times may differ

    def test_out_file(self, tmp_path, capsys):
        out = tmp_path / "report.md"
        args = ["bench", "--setting", "B", "--dims", "2", "--reps", "5",
                "--seed", "1", "--out", str(out)]
        assert main(args) == 0
        assert capsys.readouterr().out == ""
        assert "| d | 3 |" in out.read_text()

    def test_bad_dims_is_user_error(self, capsys):
        assert main(["bench", "--setting", "A", "--dims", "2,x"]) == 1
        assert "--dims" in capsys.readouterr().err

    @pytest.mark.parametrize("gamma", ["inf", "nan"])
    def test_non_finite_gamma_is_user_error(self, capsys, recwarn, gamma):
        args = ["bench", "--setting", "B", "--dims", "2", "--reps", "1", "--gamma", gamma]
        assert main(args) == 1
        assert "gamma" in capsys.readouterr().err
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1
        assert capsys.readouterr().err.strip()

    def test_missing_required_flag(self, capsys):
        assert main(["stat", "--kind", "wts"]) == 1
        assert capsys.readouterr().err.strip()

    def test_numeric_failure_exits_2(self, capsys, monkeypatch):
        # solver breakdowns are not constructible from well-formed inputs, so
        # exercise the exit-code mapping directly
        import quadform.cli as cli_mod
        from quadform import NumericError

        def boom(cfg):
            raise NumericError("synthetic solver breakdown")

        monkeypatch.setattr(cli_mod, "run_benchmark", boom)
        code = main(["bench", "--setting", "A", "--dims", "2", "--reps", "1"])
        assert code == 2
        assert "numeric failure" in capsys.readouterr().err
