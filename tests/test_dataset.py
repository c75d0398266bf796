from pathlib import Path

import numpy as np
import pytest

from sdrmatch.dataset import (
    ObservationalSample,
    apply_standardization,
    fit_standardization,
    load_csv,
    write_csv,
)
from sdrmatch.errors import InsufficientData, InvalidArgument, ParseError, SchemaError
from sdrmatch.numerics import RngStream


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


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

    def test_write_then_reload_is_bit_identical(self, tmp_path):
        f = tmp_path / "orig.csv"
        write_lines(f, [
            "T,Y,a,b",
            "0,0.1,1.25,-3.5",
            "1,2.375,0.0078125,10.5",
        ])
        first = load_csv(f, "T", "Y", ["a", "b"])
        g = tmp_path / "copy.csv"
        write_csv(first, g)
        second = load_csv(g, "treatment", "outcome", ["a", "b"])
        assert np.array_equal(first.covariates, second.covariates)
        assert np.array_equal(first.outcome, second.outcome)
        assert np.array_equal(first.treatment, second.treatment)

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


class TestSampleValidation:
    def test_rejects_bad_treatment(self):
        with pytest.raises(InvalidArgument):
            ObservationalSample(np.ones((2, 1)), np.array([0, 2]), np.ones(2))

    def test_rejects_nonfinite(self):
        with pytest.raises(InvalidArgument):
            ObservationalSample(np.array([[np.inf]]), np.array([0]), np.array([1.0]))


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


class TestApplyStandardization:
    def test_identity_map(self):
        from sdrmatch.dataset import StandardizationMap
        smap = StandardizationMap(np.zeros(2), np.eye(2))
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(apply_standardization(smap, x), x)

    def test_hand_example(self):
        from sdrmatch.dataset import StandardizationMap
        smap = StandardizationMap(np.array([1.0, 1.0]), np.diag([2.0, 2.0]))
        out = apply_standardization(smap, np.array([2.0, 3.0]))
        assert np.allclose(out, [2.0, 4.0])

    def test_dimension_mismatch(self):
        from sdrmatch.dataset import StandardizationMap
        smap = StandardizationMap(np.zeros(2), np.eye(2))
        with pytest.raises(InvalidArgument):
            apply_standardization(smap, np.ones((3, 3)))

    def test_affine_in_input(self):
        from sdrmatch.dataset import StandardizationMap
        rng = RngStream(13)
        smap = StandardizationMap(rng.normal(3), np.eye(3) + 0.1)
        x, y = rng.normal(3), rng.normal(3)
        for alpha in (0.0, 0.25, 1.0):
            mix = alpha * x + (1 - alpha) * y
            direct = apply_standardization(smap, mix)
            combo = alpha * apply_standardization(smap, x) + (1 - alpha) * apply_standardization(smap, y)
            assert np.allclose(direct, combo, atol=1e-12)
