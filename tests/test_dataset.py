import csv
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from sdrmatch.dataset import (
    ObservationalSample,
    apply_standardization,
    fit_standardization,
    load_csv,
)
from sdrmatch.errors import (
    InsufficientData, InvalidArgument, ParseError, SchemaError, SdrMatchError,
)
from sdrmatch.numerics import RngStream, inverse_sqrt_spd


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def reference_load_csv(path, treatment, outcome, covariates):
    """Reference reader: csv records one by one, one float() per referenced cell."""
    def parse_cell(raw, row, column):
        try:
            value = float(raw)
        except (TypeError, ValueError):
            raise ParseError(
                f"row {row}, column '{column}': cannot parse {raw!r} as a number"
            ) from None
        if not math.isfinite(value):
            raise ParseError(f"row {row}, column '{column}': non-finite value {raw!r}")
        return value

    covariates = list(covariates)
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path}: file is empty, expected a header row") from None
        header = [h.strip() for h in header]
        positions = {}
        for name in [treatment, outcome, *covariates]:
            if name not in header:
                raise SchemaError(f"missing column '{name}' in {path}")
            positions[name] = header.index(name)

        needed = max(positions.values())
        t_rows, y_rows, x_rows = [], [], []
        for i, row in enumerate(reader, start=1):
            if not row:
                continue
            if len(row) <= needed:
                raise ParseError(f"row {i}: expected {needed + 1} fields, got {len(row)}")
            t_val = parse_cell(row[positions[treatment]], i, treatment)
            if t_val not in (0.0, 1.0):
                raise ParseError(
                    f"row {i}, column '{treatment}': treatment must be 0 or 1, got {t_val:g}"
                )
            t_rows.append(int(t_val))
            y_rows.append(parse_cell(row[positions[outcome]], i, outcome))
            x_rows.append([parse_cell(row[positions[c]], i, c) for c in covariates])

    if not t_rows:
        raise ParseError(f"{path}: no data rows")
    return ObservationalSample(
        covariates=np.asarray(x_rows, dtype=float),
        treatment=np.asarray(t_rows, dtype=np.int64),
        outcome=np.asarray(y_rows, dtype=float),
    )


def load_result(reader, *args):
    """Arrays as (dtype, shape, C-contiguous, bytes), or the error's type and text."""
    try:
        sample = reader(*args)
    except SdrMatchError as exc:
        return type(exc), str(exc)
    return [(a.dtype.str, a.shape, a.flags.c_contiguous, a.tobytes())
            for a in (sample.covariates, sample.treatment, sample.outcome)]


class TestLoadCsv:
    def test_small_round_trip(self, tmp_path):
        f = tmp_path / "d.csv"
        write_lines(f, [
            "T,Y,x1,x2,x3",
            "0,1.5,0.1,0.2,0.3",
            "1,2.5,-1.0,0.0,1.0",
            "0,0.0,2.0,3.0,4.0",
            "1,-1.25,0.5,0.25,0.125",
        ])
        sample = load_csv(f, "T", "Y", ["x1", "x2", "x3"])
        assert sample.n_subjects == 4
        assert sample.n_covariates == 3
        assert sample.treatment.tolist() == [0, 1, 0, 1]
        assert sample.outcome[3] == -1.25

    def test_treatment_value_two_names_row(self, tmp_path):
        f = tmp_path / "d.csv"
        write_lines(f, ["T,Y,x1", "0,1,2", "2,1,3"])
        with pytest.raises(ParseError, match="row 2"):
            load_csv(f, "T", "Y", ["x1"])

    def test_missing_column_names_it(self, tmp_path):
        f = tmp_path / "d.csv"
        write_lines(f, ["T,Y,x1", "0,1,2"])
        with pytest.raises(SchemaError, match="x9"):
            load_csv(f, "T", "Y", ["x9"])

    def test_non_numeric_cell_names_row_and_column(self, tmp_path):
        f = tmp_path / "d.csv"
        write_lines(f, ["T,Y,x1", "0,1,2", "1,abc,3"])
        with pytest.raises(ParseError, match="row 2, column 'Y'"):
            load_csv(f, "T", "Y", ["x1"])

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e999"])
    @pytest.mark.parametrize("column", ["Y", "x2"])
    def test_non_finite_cell_names_row_and_column(self, tmp_path, cell, column):
        f = tmp_path / "d.csv"
        rows = {"Y": f"1,{cell},3,4", "x2": f"1,2,3,{cell}"}
        write_lines(f, ["T,Y,x1,x2", "0,1,2,3", rows[column]])
        with pytest.raises(ParseError,
                           match=rf"^row 2, column '{column}': non-finite value '{cell}'$"):
            load_csv(f, "T", "Y", ["x1", "x2"])

    def test_short_row_names_expected_field_count(self, tmp_path):
        f = tmp_path / "d.csv"
        write_lines(f, ["T,Y,x1,x2", "0,1,2,3", "1,2,3"])
        with pytest.raises(ParseError, match=r"^row 2: expected 4 fields, got 3$"):
            load_csv(f, "T", "Y", ["x1", "x2"])

    def test_blank_line_is_skipped_but_counted(self, tmp_path):
        f = tmp_path / "d.csv"
        write_lines(f, ["T,Y,x1", "0,1,2", "", "1,2.5,3"])
        sample = load_csv(f, "T", "Y", ["x1"])
        assert sample.treatment.tolist() == [0, 1]
        assert sample.outcome.tolist() == [1.0, 2.5]
        assert sample.covariates.tolist() == [[2.0], [3.0]]
        write_lines(f, ["T,Y,x1", "0,1,2", "", "1,2.5,x"])
        with pytest.raises(ParseError, match=r"^row 3, column 'x1'"):
            load_csv(f, "T", "Y", ["x1"])

    def test_byte_order_mark_is_not_part_of_the_header(self, tmp_path):
        # spreadsheet "CSV UTF-8" exports start with a BOM; the second body
        # takes the row-by-row path
        for body in (b"t,y,x1,x2\n0,1.5,2,3\n1,2.5,4,5\n", b"t,y,x1,x2\n0,1_5,2,3\n1,2.5,4,5\n"):
            plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
            plain.write_bytes(body)
            marked.write_bytes(b"\xef\xbb\xbf" + body)
            expected = load_result(load_csv, plain, "t", "y", ["x1", "x2"])
            assert isinstance(expected, list)
            assert load_result(load_csv, marked, "t", "y", ["x1", "x2"]) == expected

    def test_lalonde_shape(self):
        repo = Path(__file__).resolve().parents[1]
        sample = load_csv(
            repo / "data" / "lalonde_cps3_synthetic.csv", "treat", "re78",
            ["age", "educ", "black", "hisp", "married", "nodegr",
             "re74", "re75", "u74", "u75"],
        )
        assert sample.n_subjects == 614
        assert int(sample.treatment.sum()) == 185
        assert int((1 - sample.treatment).sum()) == 429


# Cells and lines that the row-by-row reader accepts, and those that make
# it raise or that it accepts where numpy does not.
NUMBERS = ["0", "1", "-2.5", "0.1", "3.25e-3", "1E+05", "+8.", ".5", "-0",
           "12345678901234567890", " 4 ", "\t5", '"6.5"', '" 7 "']
TREATMENTS = ["0", "1", "1.0", " 1 ", '"0"', "-0"]
BLANK = ["", "", "", ""]
ODD = ["1_000", "١", "nan", "inf", "-inf", "1e999", "", "abc", '"1,5"', '"1\n2"', " "]
ODD_TREATMENTS = ["2", "١", "nan"]
ODD_LINES = [" ", "\t ", "1", "0,1", "1,2,3", "0,1,2,3"]


def csv_files():
    """Text of a CSV file with columns T, Y, a, b, c, of which c is unread.

    Half the files draw only from the accepted tokens, so that whole files
    load; the others mix in a few odd ones."""
    def text(pools):
        cells, treatments, lines = pools
        row = st.builds(lambda t, cells: ",".join([t, *cells]), st.sampled_from(treatments),
                        st.lists(st.sampled_from(cells), min_size=4, max_size=5))
        return st.tuples(st.lists(st.one_of(row, st.sampled_from(lines)), max_size=12),
                         st.sampled_from(["\n", "\r\n", "\r"]), st.booleans()).map(
            lambda f: f[1].join(["T,Y,a,b,c", *f[0]]) + (f[1] if f[2] else ""))
    return st.sampled_from([
        (NUMBERS, TREATMENTS, BLANK),
        (NUMBERS * 4 + ODD, TREATMENTS * 2 + ODD_TREATMENTS, BLANK + ODD_LINES),
    ]).flatmap(text)


class TestLoadCsvParity:
    """load_csv against the row-by-row reference: same bytes or same error."""

    # numpy's "input contained no data" is a UserWarning; a wider filter
    # would also raise warnings that hypothesis itself emits while reporting
    @pytest.mark.filterwarnings("error::UserWarning")
    @settings(derandomize=True, database=None, deadline=None, max_examples=600,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(csv_files(), st.sampled_from([["a", "b"], ["b", "a"], ["b"], []]))
    def test_matches_row_by_row_reference(self, tmp_path, text, covariates):
        f = tmp_path / "d.csv"
        with open(f, "w", newline="", encoding="utf-8") as handle:
            handle.write(text)
        args = (f, "T", "Y", covariates)
        assert load_result(load_csv, *args) == load_result(reference_load_csv, *args)

    def test_shipped_and_written_files_match_reference(self, tmp_path):
        rng = np.random.default_rng(5)
        written = tmp_path / "n5000.csv"
        x = rng.normal(size=(5000, 10))
        t = (rng.uniform(size=5000) < 0.5).astype(int)
        y = rng.normal(size=5000)
        write_lines(written, ["treatment,outcome," + ",".join(f"x{j + 1}" for j in range(10))] + [
            ",".join([str(t[i]), *(repr(float(v)) for v in (y[i], *x[i]))]) for i in range(5000)
        ])
        lalonde = Path(__file__).resolve().parents[1] / "data" / "lalonde_cps3_synthetic.csv"
        for args in [(lalonde, "treat", "re78", ["age", "educ", "black", "hisp", "married",
                                                 "nodegr", "re74", "re75", "u74", "u75"]),
                     (written, "treatment", "outcome", [f"x{j + 1}" for j in range(10)])]:
            result = load_result(load_csv, *args)
            assert isinstance(result, list)
            assert result == load_result(reference_load_csv, *args)


@pytest.mark.filterwarnings("error")
class TestLoadCsvErrorPath:
    def test_bad_cell_near_end_of_large_file(self, tmp_path):
        f = tmp_path / "d.csv"
        rows = [f"{i % 2},{i}.5,{i},{-i}" for i in range(1, 5001)]
        rows[4998] = "1,4999.5,4999,x"
        write_lines(f, ["T,Y,a,b", *rows])
        with pytest.raises(ParseError,
                           match=r"^row 4999, column 'b': cannot parse 'x' as a number$"):
            load_csv(f, "T", "Y", ["a", "b"])

    @pytest.mark.parametrize("body", [[], [""], ["", "", ""]])
    def test_no_data_rows(self, tmp_path, body):
        f = tmp_path / "d.csv"
        write_lines(f, ["T,Y,x1", *body])
        with pytest.raises(ParseError, match=rf"^{re.escape(str(f))}: no data rows$"):
            load_csv(f, "T", "Y", ["x1"])

    def test_float_syntax_numpy_rejects(self, tmp_path):
        f = tmp_path / "d.csv"
        write_lines(f, ["T,Y,x1", "0,1_000,2", "١,2,٣"])
        sample = load_csv(f, "T", "Y", ["x1"])
        assert sample.treatment.tolist() == [0, 1]
        assert sample.outcome.tolist() == [1000.0, 2.0]
        assert sample.covariates.tolist() == [[2.0], [3.0]]


class TestStreamedIngest:
    """The data lines reach the vectorised pass one at a time; the row-by-row
    fallback reads the file again from its start."""

    @pytest.mark.parametrize("body", [
        ["", " ", "0,1,2,3,4"],
        ["\t", "0,1,2,3,4"],
        ["", "", "0,1,2,3,4", "1,2,3,4,5"],
    ], ids=["space", "tab", "empty-lines"])
    def test_blank_lines_before_the_first_row(self, tmp_path, body):
        # a whitespace-only line is a one-field row to both readers
        f = tmp_path / "d.csv"
        write_lines(f, ["T,Y,a,b,c", *body])
        args = (f, "T", "Y", ["a", "b"])
        assert load_result(load_csv, *args) == load_result(reference_load_csv, *args)

    def test_fallback_skips_a_header_record_of_two_lines(self, tmp_path):
        # '1_0' is read by float but not by numpy, so the rows are read again
        f = tmp_path / "d.csv"
        write_lines(f, ['T,Y,"note', 'more",x1', "0,1,n,2", "1,2,m,1_0"])
        sample = load_csv(f, "T", "Y", ["x1"])
        assert sample.treatment.tolist() == [0, 1]
        assert sample.outcome.tolist() == [1.0, 2.0]
        assert sample.covariates.tolist() == [[2.0], [10.0]]
        assert load_result(load_csv, f, "T", "Y", ["x1"]) == load_result(
            reference_load_csv, f, "T", "Y", ["x1"])

    @pytest.mark.parametrize("early", [None, "1,2,x", "1,inf,3"],
                             ids=["only-the-byte", "bad-cell-first", "non-finite-first"])
    def test_bad_byte_after_row_5000(self, tmp_path, early):
        # far past the first decoded chunk; as when the file was decoded whole,
        # the bad byte outranks a bad cell in an earlier row
        rows = [f"{i % 2},{i}.5,{i}" for i in range(1, 6001)]
        if early is not None:
            rows[2] = early
        f = tmp_path / "d.csv"
        f.write_bytes(("t,y,x\n" + "\n".join(rows[:5001]) + "\n").encode()
                      + b"1,\xff2,3\n" + ("\n".join(rows[5001:]) + "\n").encode())
        with pytest.raises(ParseError,
                           match=rf"^{re.escape(str(f))}: not UTF-8 text \(invalid start byte\)$"):
            load_csv(f, "t", "y", ["x"])

    def test_peak_memory_is_a_small_multiple_of_the_arrays(self, tmp_path):
        # the file's lines were once held as a list: 5.1 times the arrays
        rng = np.random.default_rng(11)
        n, p = 20_000, 10
        x, y = rng.normal(size=(n, p)), rng.normal(size=n)
        t = (rng.uniform(size=n) < 0.5).astype(int)
        f = tmp_path / "big.csv"
        write_lines(f, ["treatment,outcome," + ",".join(f"x{j}" for j in range(p))] + [
            ",".join([str(t[i]), *(repr(float(v)) for v in (y[i], *x[i]))]) for i in range(n)])
        tracemalloc.start()
        try:
            sample = load_csv(f, "treatment", "outcome", [f"x{j}" for j in range(p)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        arrays = sample.covariates.nbytes + sample.treatment.nbytes + sample.outcome.nbytes
        assert arrays == n * (p + 2) * 8
        assert peak < 3 * arrays


class TestSampleValidation:
    def test_rejects_bad_treatment(self):
        with pytest.raises(InvalidArgument):
            ObservationalSample(np.ones((2, 1)), np.array([0, 2]), np.ones(2))

    def test_rejects_nonfinite(self):
        with pytest.raises(InvalidArgument):
            ObservationalSample(np.array([[np.inf]]), np.array([0]), np.array([1.0]))

    @pytest.mark.parametrize("covariates, treatment, outcome, message", [
        (np.ones(3), np.zeros(3), np.ones(3), "covariates must be 2-D, got ndim=1"),
        (np.ones((3, 1)), np.zeros(2), np.ones(3),
         "treatment/outcome length must match covariate rows"),
        (np.ones((3, 1)), np.zeros(3), np.ones((3, 1)),
         "treatment/outcome length must match covariate rows"),
    ], ids=["1-d-covariates", "short-treatment", "2-d-outcome"])
    def test_rejects_bad_shapes(self, covariates, treatment, outcome, message):
        with pytest.raises(InvalidArgument, match=rf"^{re.escape(message)}$"):
            ObservationalSample(covariates, treatment, outcome)


class TestStandardization:
    def test_already_standardized_group(self):
        a = np.sqrt(3.0) / 2.0
        x = np.array([[a, a], [a, -a], [-a, a], [-a, -a]])
        sample = ObservationalSample(x, np.zeros(4, dtype=int), np.arange(4.0))
        smap = fit_standardization(sample, 0)
        assert np.abs(smap.group_mean).max() < 1e-12
        assert np.abs(smap.inv_sqrt_cov - np.eye(2)).max() < 1e-6

    def test_hand_example(self):
        x = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0], [2.0, 2.0]])
        sample = ObservationalSample(x, np.zeros(4, dtype=int), np.arange(4.0))
        smap = fit_standardization(sample, 0)
        assert np.allclose(smap.group_mean, [1.0, 1.0])
        expected = np.diag([np.sqrt(3.0) / 2.0] * 2)
        assert np.allclose(smap.inv_sqrt_cov, expected, atol=1e-6)

    def test_too_few_subjects(self):
        x = np.vstack([np.eye(3), np.eye(3)])
        t = np.array([0, 0, 0, 1, 1, 1])
        sample = ObservationalSample(x, t, np.arange(6.0))
        with pytest.raises(InsufficientData):
            fit_standardization(sample, 0)

    def test_fitted_group_becomes_isotropic(self):
        rng = RngStream(11)
        x = rng.normal((300, 4)) @ np.diag([1.0, 2.0, 0.5, 3.0]) + [1, 2, 3, 4]
        sample = ObservationalSample(x, np.zeros(300, dtype=int), np.arange(300.0))
        smap = fit_standardization(sample, 0)
        z = apply_standardization(smap, x)
        assert np.abs(z.mean(axis=0)).max() < 1e-8
        assert np.abs(np.cov(z, rowvar=False, ddof=1) - np.eye(4)).max() < 1e-6

    def test_covariance_bits_equal_np_cov(self):
        # the group covariance is np.cov's arithmetic written out: same bits
        rng = RngStream(12)
        for p, scale in ((1, 1.0), (3, 1e4), (10, 1.0)):
            x = np.round(np.exp(rng.normal((400, p)) + 5.0), 2) * scale
            t = (rng.uniform(400) < 0.4).astype(int)
            sample = ObservationalSample(x, t, np.arange(400.0))
            for group in (0, 1):
                rows = x[t == group]
                cov = np.atleast_2d(np.cov(rows, rowvar=False, ddof=1))
                smap = fit_standardization(sample, group)
                assert np.array_equal(smap.inv_sqrt_cov, inverse_sqrt_spd(cov))


class TestApplyStandardization:
    def test_identity_map(self):
        from sdrmatch.dataset import StandardizationMap
        smap = StandardizationMap(np.zeros(2), np.eye(2))
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(apply_standardization(smap, x), x)

    def test_hand_example(self):
        from sdrmatch.dataset import StandardizationMap
        smap = StandardizationMap(np.array([1.0, 1.0]), np.diag([2.0, 2.0]))
        out = apply_standardization(smap, np.array([[2.0, 3.0], [1.0, 0.5]]))
        assert np.array_equal(out, [[2.0, 4.0], [0.0, -1.0]])

    def test_dimension_mismatch(self):
        from sdrmatch.dataset import StandardizationMap
        smap = StandardizationMap(np.zeros(2), np.eye(2))
        with pytest.raises(InvalidArgument):
            apply_standardization(smap, np.ones((3, 3)))

    def test_affine_in_input(self):
        from sdrmatch.dataset import StandardizationMap
        rng = RngStream(13)
        smap = StandardizationMap(rng.normal(3), np.eye(3) + 0.1)
        x, y = rng.normal((4, 3)), rng.normal((4, 3))
        for alpha in (0.0, 0.25, 1.0):
            mix = alpha * x + (1 - alpha) * y
            direct = apply_standardization(smap, mix)
            combo = alpha * apply_standardization(smap, x) + (1 - alpha) * apply_standardization(smap, y)
            assert np.allclose(direct, combo, atol=1e-12)
