import math
import warnings

import numpy as np
import pytest
from scipy import integrate, special

from sdrmatch import numerics
from sdrmatch.errors import InvalidArgument, InvalidMatrix, NotPSD
from sdrmatch.numerics import (
    RngStream,
    chi_square_sf,
    inverse_sqrt_spd,
    spd_power,
    sym_eigen,
)


def random_symmetric(rng, p):
    a = rng.normal((p, p))
    return a + a.T


class TestSymEigen:
    def test_identity(self):
        eig = sym_eigen(np.eye(3))
        assert np.allclose(eig.eigenvalues, [1.0, 1.0, 1.0])

    def test_two_by_two_closed_form(self):
        # characteristic polynomial of [[2,1],[1,2]] gives 3 and 1
        eig = sym_eigen([[2.0, 1.0], [1.0, 2.0]])
        assert np.allclose(eig.eigenvalues, [3.0, 1.0])
        s = 1.0 / np.sqrt(2.0)
        assert np.allclose(eig.eigenvectors[:, 0], [s, s])
        assert np.allclose(eig.eigenvectors[:, 1], [s, -s])

    def test_diagonal_readoff(self):
        eig = sym_eigen(np.diag([5.0, 0.0, -1.0]))
        assert np.allclose(eig.eigenvalues, [5.0, 0.0, -1.0])

    def test_reconstruction_and_orthonormality(self):
        rng = RngStream(42)
        for _ in range(60):
            p = int(rng.uniform() * 19) + 2
            m = random_symmetric(rng, p)
            eig = sym_eigen(m)
            recon = (eig.eigenvectors * eig.eigenvalues) @ eig.eigenvectors.T
            tol = 1e-8 * (1.0 + np.abs(m).max())
            assert np.abs(recon - m).max() <= tol
            gram = eig.eigenvectors.T @ eig.eigenvectors
            assert np.abs(gram - np.eye(p)).max() <= 1e-8

    def test_vt_m_v_diagonal(self):
        rng = RngStream(7)
        m = random_symmetric(rng, 6)
        eig = sym_eigen(m)
        rotated = eig.eigenvectors.T @ m @ eig.eigenvectors
        off = rotated - np.diag(np.diag(rotated))
        assert np.abs(off).max() <= 1e-8 * (1.0 + np.abs(m).max())

    def test_sign_convention(self):
        eig = sym_eigen(np.diag([2.0, 1.0]))
        for j in range(2):
            col = eig.eigenvectors[:, j]
            assert col[np.argmax(np.abs(col))] > 0

    def test_rejects_nonsquare(self):
        with pytest.raises(InvalidMatrix):
            sym_eigen(np.ones((2, 3)))

    def test_rejects_asymmetric(self):
        with pytest.raises(InvalidMatrix):
            sym_eigen([[0.0, 1.0], [0.0, 0.0]])

    def test_rejects_nan(self):
        with pytest.raises(InvalidMatrix, match="contains non-finite entries"):
            sym_eigen([[1.0, np.nan], [np.nan, 1.0]])

    def test_rejects_empty(self):
        for kernel in (sym_eigen, inverse_sqrt_spd, lambda m: spd_power(m, 0.5)):
            with pytest.raises(InvalidMatrix):
                kernel(np.empty((0, 0)))


class TestKernelMessages:
    """The three kernels that validate a matrix raise the same words."""

    _KERNELS = (sym_eigen, lambda m: spd_power(m, 0.5), inverse_sqrt_spd)

    @pytest.mark.parametrize("m, message", [
        (np.ones((2, 3)), "matrix must be square, got shape (2, 3)"),
        (np.empty((0, 0)), "matrix is empty (0 x 0)"),
        ([[np.nan]], "matrix contains non-finite entries"),
        ([[1.0, 2.0], [0.0, 1.0]], "matrix is not symmetric within tolerance"),
    ])
    def test_invalid_matrix_messages(self, m, message):
        for kernel in self._KERNELS:
            with pytest.raises(InvalidMatrix) as info:
                kernel(m)
            assert str(info.value) == message

    def test_not_psd_message(self):
        for kernel in self._KERNELS[1:]:
            with pytest.raises(NotPSD) as info:
                kernel(np.diag([1.0, -0.5]))
            assert str(info.value) == "matrix has eigenvalue -5.000e-01 below -1.0e-10"


class TestInverseSqrtSpd:
    def test_identity(self):
        assert np.allclose(inverse_sqrt_spd(np.eye(2), ridge=0.0), np.eye(2))

    def test_diagonal(self):
        out = inverse_sqrt_spd(np.diag([4.0, 9.0]), ridge=0.0)
        assert np.allclose(out, np.diag([0.5, 1.0 / 3.0]))

    def test_ridge_clamps_zero_eigenvalue(self):
        out = inverse_sqrt_spd(np.diag([1.0, 0.0]), ridge=1e-8)
        assert out[0, 0] == pytest.approx(1.0, rel=1e-6)
        assert out[1, 1] == pytest.approx(1e4, rel=0.01)

    def test_squared_inverts_well_conditioned(self):
        rng = RngStream(5)
        a = rng.normal((8, 4))
        m = a.T @ a / 8 + np.eye(4)
        s = inverse_sqrt_spd(m, ridge=0.0)
        assert np.abs(s @ s @ m - np.eye(4)).max() <= 1e-6

    def test_default_ridge_is_scaled_mean_diagonal(self):
        # ridge=None means 1e-8 times the mean diagonal, bit for bit; the
        # rank-2 matrix makes the ridge set its three zero eigenvalues
        rng = RngStream(6)
        for rows in (9, 2):
            a = rng.normal((rows, 5))
            m = a.T @ a / rows
            expected = spd_power(m, -0.5, 1e-8 * (np.trace(m) / 5))
            assert np.array_equal(inverse_sqrt_spd(m), expected)

    def test_default_ridge_of_zero_matrix_is_1e_8(self):
        zero = np.zeros((3, 3))
        assert np.array_equal(inverse_sqrt_spd(zero), spd_power(zero, -0.5, 1e-8))
        assert np.allclose(inverse_sqrt_spd(zero), 1e4 * np.eye(3))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(NotPSD):
            inverse_sqrt_spd(np.diag([1.0, -0.5]))

    def test_rejects_negative_ridge(self):
        with pytest.raises(InvalidArgument):
            inverse_sqrt_spd(np.eye(2), ridge=-1.0)


class TestSpdPower:
    def test_inverse_sqrt_is_the_minus_half_power(self):
        rng = RngStream(8)
        for p in (1, 3, 7):
            a = rng.normal((p + 2, p))
            m = a.T @ a / (p + 2)
            for ridge in (0.0, 1e-8, 0.3):
                assert np.array_equal(spd_power(m, -0.5, ridge), inverse_sqrt_spd(m, ridge))

    def test_square_root_squares_back(self):
        rng = RngStream(9)
        a = rng.normal((6, 4))
        m = a.T @ a / 6
        root = spd_power(m, 0.5)
        assert np.array_equal(root, root.T)
        assert np.abs(root @ root - m).max() <= 1e-12 * np.abs(m).max()

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(NotPSD):
            spd_power(np.diag([1.0, -0.5]), 0.5)

    def test_rejects_negative_ridge(self):
        with pytest.raises(InvalidArgument) as info:
            spd_power(np.eye(2), 0.5, -2.0)
        assert str(info.value) == ("power and ridge must be finite and the ridge >= 0; "
                                   "got power 0.5, ridge -2.0")

    @pytest.mark.parametrize("ridge", [np.nan, np.inf])
    @pytest.mark.parametrize("power", [0.5, -0.5])
    def test_rejects_non_finite_ridge(self, power, ridge):
        # NaN passes ridge < 0; NaN or inf would spread through the result
        with pytest.raises(InvalidArgument, match=f"ridge {ridge}$"):
            spd_power(np.eye(2), power, ridge)

    def test_inverse_sqrt_rejects_nan_ridge(self):
        # not a NotPSD "matrix is singular"
        with pytest.raises(InvalidArgument, match="ridge nan$"):
            inverse_sqrt_spd(np.eye(2), ridge=np.nan)

    @pytest.mark.parametrize("power", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_power(self, power):
        with pytest.raises(InvalidArgument, match=f"got power {power},"):
            spd_power(np.eye(2), power)

    def test_default_ridge_of_spd_power_is_zero(self):
        assert np.array_equal(spd_power(np.diag([4.0, 0.0]), 0.5), np.diag([2.0, 0.0]))


class TestSingularPower:
    """A negative power needs every eigenvalue plus ridge to be positive."""

    @pytest.mark.parametrize("m", [[[0.0]], np.diag([1.0, 0.0]), [[1.0, 1.0], [1.0, 1.0]]])
    @pytest.mark.parametrize("power", [-0.5, -1.0])
    def test_negative_power_of_a_singular_matrix_raises(self, m, power):
        with pytest.raises(NotPSD) as info:
            spd_power(m, power)
        assert str(info.value) == f"matrix is singular; its power {power} is undefined"
        assert np.isfinite(spd_power(m, power, 1e-8)).all()
        assert np.isfinite(spd_power(m, -power)).all()

    def test_inverse_sqrt_without_a_ridge_raises(self):
        with pytest.raises(NotPSD):
            inverse_sqrt_spd(np.diag([1.0, 0.0]), ridge=0.0)


class TestOneValidation:
    """spd_power is the one kernel that validates, ridges and decomposes."""

    def test_inverse_sqrt_validates_once(self, monkeypatch):
        calls = []
        original = numerics._as_symmetric

        def counted(m):
            calls.append(1)
            return original(m)

        monkeypatch.setattr(numerics, "_as_symmetric", counted)
        rng = RngStream(10)
        a = rng.normal((7, 4))
        inverse_sqrt_spd(a.T @ a / 7)
        assert len(calls) == 1

    def test_entries_near_the_largest_double(self):
        # a + a' overflows here; the kernels must still return the exact roots
        m = np.eye(2) * 1.7e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            root = spd_power(m, 0.5)
            eig = sym_eigen(m)
            inv = inverse_sqrt_spd(m)
        assert np.isfinite(root).all() and np.isfinite(inv).all()
        assert np.allclose(root, np.eye(2) * np.sqrt(1.7e308), rtol=1e-14, atol=0.0)
        assert np.allclose(eig.eigenvalues, [1.7e308, 1.7e308], rtol=1e-14, atol=0.0)
        assert np.array_equal(eig.eigenvectors.T @ eig.eigenvectors, np.eye(2))
        # the default ridge is 1e-8 times the mean diagonal, 1.7e300
        expected = np.eye(2) / np.sqrt(1.7e308 * (1.0 + 1e-8))
        assert np.allclose(inv, expected, rtol=1e-14, atol=0.0)

    def test_symmetrised_bits_kept_where_the_sum_is_finite(self):
        # 0.5 (a + a') overflows on the diagonal only; the kernels return the
        # bits of the reference route, which keeps the subnormal entry
        tiny = 5e-324
        m = np.array([[1.7e308, tiny, 1.0],
                      [tiny, 3.0, np.nextafter(1.0, 2.0)],
                      [1.0, 1.0, 1.7e308]])
        assert reference_symmetric(m)[0, 1] == tiny
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert_reference_bits(m, singular=True)


def reference_symmetric(m):
    """_as_symmetric before the power-of-four rescale: it halved a matrix with
    an entry of 2^1022 or more, and summed the halves where a + a' overflows."""
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidMatrix(f"matrix must be square, got shape {a.shape}")
    if a.size == 0:
        raise InvalidMatrix("matrix is empty (0 x 0)")
    if not np.isfinite(a).all():
        raise InvalidMatrix("matrix contains non-finite entries")
    scale = 1.0 + np.abs(a).max()
    big = scale >= 2.0 ** 1022  # then a_ij +- a_ji may overflow; their halves cannot
    h = 0.5 * a if big else a
    if np.abs(h - h.T).max() > 1e-10 * (0.5 if big else 1.0) * scale:
        raise InvalidMatrix("matrix is not symmetric within tolerance")
    if not big:
        return 0.5 * (a + a.T)
    with np.errstate(over="ignore"):  # where a_ij + a_ji overflows, halving first is exact
        return np.where(np.isinf(a + a.T), h + h.T, 0.5 * (a + a.T))


def reference_sym_eigen(m):
    """sym_eigen before the rescale: eigh of the full-scale matrix."""
    values, vectors = np.linalg.eigh(reference_symmetric(m))
    values, vectors = values[::-1].copy(), vectors[:, ::-1].copy()
    lead = np.argmax(np.abs(vectors), axis=0)
    signs = np.where(vectors[lead, np.arange(vectors.shape[1])] < 0.0, -1.0, 1.0)
    return values, vectors * signs


def reference_spd_power(m, power, ridge=0.0):
    """spd_power before the rescale: a trace summed term by term where it
    overflows, and a retry on a / 4^b where an eigenvalue does."""
    a = reference_symmetric(m)
    if ridge is None:
        with np.errstate(over="ignore"):
            mean_diag = float(np.trace(a)) / a.shape[0]
        if mean_diag == np.inf:  # the diagonal's sum overflowed
            mean_diag = float((np.diagonal(a) / a.shape[0]).sum())
        ridge = 1e-8 * (mean_diag if mean_diag > 0.0 else 1.0)
    values, vectors = (a[0], np.ones((1, 1))) if a.shape[0] == 1 else np.linalg.eigh(a)
    tol = 1e-10 * max(1.0, float(np.abs(values).max()))
    if tol == np.inf:  # an eigenvalue overflows: decompose a / 4^b, 4^b > p, exactly
        unit = 4.0 ** a.shape[0].bit_length()
        return reference_spd_power(a / unit, power, ridge / unit) * unit ** power
    if float(values.min()) < -tol:
        raise NotPSD(f"matrix has eigenvalue {values.min():.3e} below -{tol:.1e}")
    with np.errstate(divide="ignore"):
        powered = (np.maximum(values, 0.0) + ridge) ** power
    out = (vectors * powered) @ vectors.T
    return 0.5 * (out + out.T)


def assert_same_bits(got, expected):
    got, expected = np.asarray(got), np.asarray(expected)
    assert got.shape == expected.shape
    assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))


def assert_reference_bits(m, singular=False):
    """The kernels return the reference route's bits on m. singular skips the
    -1/2 power without a ridge, which the reference returns as inf or NaN."""
    eig = sym_eigen(m)
    values, vectors = reference_sym_eigen(m)
    assert_same_bits(eig.eigenvalues, values)
    assert_same_bits(eig.eigenvectors, vectors)
    cases = [(0.5, 0.0), (-0.5, 1e290)] + ([] if singular else [(-0.5, 0.0)])
    for power, ridge in cases:
        assert_same_bits(spd_power(m, power, ridge), reference_spd_power(m, power, ridge))
    assert_same_bits(inverse_sqrt_spd(m), reference_spd_power(m, -0.5, None))


def eigh_route(m, power, ridge=0.0):
    """spd_power as it was before its 1 x 1 and overflow branches: always eigh."""
    a = reference_symmetric(m)
    values, vectors = np.linalg.eigh(a)
    with np.errstate(divide="ignore"):
        powered = (np.maximum(values, 0.0) + ridge) ** power
    out = (vectors * powered) @ vectors.T
    return 0.5 * (out + out.T)


class TestOneByOne:
    """[[a]] is decomposed as (a, [[1]]), the bits dsyevd returns, without LAPACK."""

    @pytest.mark.parametrize("a", [0.0, 5e-324, 1e-300, 1.0, 1e300])
    def test_equals_the_eigh_route(self, monkeypatch, a):
        default = 1e-8 * (a if a > 0.0 else 1.0)    # inverse_sqrt_spd's ridge
        # a negative power of [[0]] raises; TestSingularPower pins that
        expected = {(power, ridge): eigh_route([[a]], power, ridge)
                    for power in (0.5, -0.5, 1.0) for ridge in (0.0, 1e-8, default)
                    if a > 0.0 or power > 0.0 or ridge > 0.0}
        calls = []
        monkeypatch.setattr(np.linalg, "eigh", lambda m: calls.append(m))
        for (power, ridge), value in expected.items():
            got = spd_power([[a]], power, ridge)
            assert got.shape == (1, 1)
            assert np.array_equal(got.view(np.uint64), value.view(np.uint64))
        got = inverse_sqrt_spd([[a]])
        assert np.array_equal(got.view(np.uint64), expected[(-0.5, default)].view(np.uint64))
        assert calls == []


class TestNearTheLargestDouble:
    """Entries at and above 2^1022, where a_ij +- a_ji or an eigenvalue overflows."""

    @pytest.mark.parametrize("kernel", [sym_eigen, lambda m: spd_power(m, 0.5),
                                        inverse_sqrt_spd])
    def test_opposite_entries_raise_without_a_warning(self, kernel):
        # a - a' overflows here; pytest turns a RuntimeWarning into an error
        with pytest.raises(InvalidMatrix) as info:
            kernel([[0.0, 1.7e308], [-1.7e308, 0.0]])
        assert str(info.value) == "matrix is not symmetric within tolerance"

    @pytest.mark.parametrize("scale", [1e300, 2.0 ** 1021, 2.0 ** 1022, 1.7e308])
    def test_symmetry_tolerance_on_both_sides_of_2_1022(self, scale):
        for gap, symmetric in ((0.5e-10, True), (2e-10, False)):
            m = np.array([[scale, 0.5 * scale], [(0.5 + gap) * scale, scale]])
            if symmetric:
                sym_eigen(m)
            else:
                with pytest.raises(InvalidMatrix):
                    sym_eigen(m)

    def test_root_where_an_eigenvalue_overflows(self):
        # the eigenvalues 2.7e308 and 0.7e308: the first overflows, the root does not
        m = np.array([[1.7e308, 1e308], [1e308, 1.7e308]])
        with np.errstate(over="ignore", invalid="ignore"):
            assert not np.isfinite(eigh_route(m, 0.5)).any()
        big, small = np.sqrt(1.35e308) * np.sqrt(2.0), np.sqrt(0.7e308)
        expected = 0.5 * np.array([[big + small, big - small], [big - small, big + small]])
        root = spd_power(m, 0.5)
        assert np.allclose(root, expected, rtol=1e-14, atol=0.0)
        assert np.allclose(root @ root, m, rtol=1e-14, atol=0.0)
        inv = inverse_sqrt_spd(m, 0.0)
        assert np.allclose(inv @ expected, np.eye(2), rtol=0.0, atol=1e-14)

    def test_overflowing_indefinite_matrix_is_not_psd(self):
        # eigenvalues +-2.4e308: both overflow, and the negative one is real
        with pytest.raises(NotPSD):
            spd_power(np.array([[1.7e308, 1.7e308], [1.7e308, -1.7e308]]), 0.5)

    def test_root_where_entries_below_2_1022_overflow_an_eigenvalue(self):
        # ten entries of 4e307 sum to the eigenvalue 4e308
        m = np.full((10, 10), 4e307)
        root = spd_power(m, 0.5)
        assert np.allclose(root, np.sqrt(4e306), rtol=1e-6, atol=0.0)

    def test_not_psd_reports_the_matrix_units(self):
        # the eigenvalues +-2.4e308 lie beyond the largest double; the
        # tolerance is 1e-10 of that
        with pytest.raises(NotPSD) as info:
            spd_power([[1.7e308, 1.7e308], [1.7e308, -1.7e308]], 0.5)
        assert str(info.value) == "matrix has eigenvalue -inf below -2.4e+298"
        with pytest.raises(NotPSD) as info:
            inverse_sqrt_spd(np.diag([2.0 ** 1010, -2.0 ** 1000]))
        assert str(info.value) == "matrix has eigenvalue -1.072e+301 below -1.1e+294"

    def test_kernels_keep_the_reference_bits(self):
        # seeded positive definite matrices, p = 1 to 8, largest entry 2^990 to 2^1024
        rng = RngStream(20)
        for i in range(240):
            p = 1 + i % 8
            a = rng.normal((p + 3, p))
            m = a.T @ a
            assert_reference_bits(m / np.abs(m).max() * 2.0 ** (990.0 + 34.0 * rng.uniform()))

    @pytest.mark.parametrize("m", [
        np.diag([1.7e308, 1.0]),
        np.array([[1e308, 5e307], [5e307, 1e308]]),
        np.array([[2.0 ** 1022, 1.0], [1.0, 3.0]]),
        np.array([[np.nextafter(2.0 ** 1022, 0.0), 2.0 ** 1020], [2.0 ** 1020, 2.0 ** 1021]]),
    ])
    def test_finite_roots_keep_their_bits(self, m):
        for power, ridge in ((0.5, 0.0), (-0.5, 0.0), (-0.5, 1e290)):
            assert np.array_equal(spd_power(m, power, ridge), eigh_route(m, power, ridge))


class TestChiSquare:
    def test_zero_is_one(self):
        for df in (1, 2, 7):
            assert chi_square_sf(0.0, df) == 1.0

    def test_df2_closed_form(self):
        # for two degrees of freedom the tail is exp(-x/2)
        assert chi_square_sf(2.0, 2) == pytest.approx(np.exp(-1.0), abs=1e-9)

    def test_df1_against_quadrature(self):
        def density(u):
            return np.exp(-u / 2.0) / np.sqrt(2.0 * np.pi * u)

        tail, _ = integrate.quad(density, 3.841, np.inf)
        assert chi_square_sf(3.841, 1) == pytest.approx(tail, abs=1e-8)
        assert chi_square_sf(3.841, 1) == pytest.approx(0.0500, abs=1e-3)

    def test_strictly_decreasing_and_complement(self):
        xs = np.linspace(0.0, 30.0, 61)
        for df in (1, 3, 10):
            values = [chi_square_sf(x, df) for x in xs]
            assert all(a > b for a, b in zip(values, values[1:]))
            for x in xs:
                cdf = special.gammainc(df / 2.0, x / 2.0)
                assert chi_square_sf(x, df) + cdf == pytest.approx(
                    1.0, abs=1e-10
                )

    @staticmethod
    def _worst_relative_error(pairs):
        # against scipy's regularized upper incomplete gamma, wherever that
        # tail is representable
        errors = [abs(chi_square_sf(x, df) - ref) / ref for x, df in pairs
                  if (ref := special.gammaincc(df / 2.0, x / 2.0)) > 1e-290]
        return max(errors)

    def test_matches_gammaincc_up_to_df_100(self):
        pairs = [(x, df) for df in range(1, 101) for x in np.linspace(0.0, 300.0, 121)]
        assert self._worst_relative_error(pairs) <= 1e-12

    def test_matches_gammaincc_up_to_df_2001(self):
        # a term started at e^(-x/2) underflows here; the tail does not
        pairs = [(c * df, df) for df in range(1, 2002, 25)
                 for c in (0.25, 0.5, 1.0, 1.5, 2.0, 3.0)]
        assert self._worst_relative_error(pairs) <= 1e-11
        assert chi_square_sf(2000.0, 2000) == pytest.approx(0.4958, abs=1e-4)

    def test_endpoints_exact_at_every_df(self):
        assert all(chi_square_sf(0.0, df) == 1.0 for df in range(1, 2002))
        assert all(chi_square_sf(np.inf, df) == 0.0 for df in range(1, 2002))

    def test_rejects_bad_arguments(self):
        with pytest.raises(InvalidArgument):
            chi_square_sf(-1.0, 2)
        with pytest.raises(InvalidArgument):
            chi_square_sf(1.0, 0)


class TestRngStream:
    def test_same_key_bit_identical(self):
        a = RngStream(123, 4).uniform(1000)
        b = RngStream(123, 4).uniform(1000)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = RngStream(123, 0).uniform(100)
        b = RngStream(123, 1).uniform(100)
        assert not np.array_equal(a, b)

    def test_uniform_open_interval(self):
        u = RngStream(0).uniform(10000)
        assert u.min() > 0.0 and u.max() < 1.0

    def test_top_word_stays_below_one(self):
        # (2^53 - 1 + 0.5) 2^-53 rounds to 1.0, whose normal is +inf; the
        # uniform is clamped to 1 - 2^-53, and the next word keeps its value
        class Words:
            def integers(self, low, high, size=None, dtype=None):
                return np.array([2 ** 53 - 1, 2 ** 53 - 2], dtype=dtype)[:size]

        rng = RngStream(0)
        rng._gen = Words()
        assert rng.uniform(2).tolist() == [1.0 - 2.0 ** -53, (2.0 ** 53 - 2.0 + 0.5) * 2.0 ** -53]
        assert np.isfinite(rng.normal(2)).all()

    @staticmethod
    def same_bits(a, b):
        return np.array_equal(np.asarray(a).view(np.int64), np.asarray(b).view(np.int64))

    def test_normal_is_scipy_ndtri_of_the_uniform(self):
        # the numpy port of Cephes ndtri keeps scipy's bits on every draw
        for seed in range(5):
            u = RngStream(seed, 7).uniform(250_000)
            assert self.same_bits(RngStream(seed, 7).normal(250_000), special.ndtri(u))
        u = RngStream(3).uniform((40, 25))
        assert self.same_bits(RngStream(3).normal((40, 25)), special.ndtri(u))
        assert self.same_bits(RngStream(3).normal(), special.ndtri(RngStream(3).uniform()))

    def test_normal_keeps_scipy_bits_at_branch_edges_and_extremes(self, monkeypatch):
        # the P0/Q0 tests at fl(e^-2) and 1 - fl(e^-2), both uniform extremes, and
        # the far-tail P2/Q2 branch (y < e^-32) reached by both ends
        edge = 0.13533528323661269189
        values = [2.0 ** -54, 1.0 - 2.0 ** -53, 1e-15, 1.0 - 1e-15, 2e-14, 0.5]
        for v in (edge, 1.0 - edge):
            values += [v, np.nextafter(v, 0.0), np.nextafter(v, 1.0)]
        values = np.array(values)
        assert values[2] < math.exp(-32.0) < values[4]     # P2/Q2 at 1e-15, P1/Q1 at 2e-14
        stream = RngStream(0)
        monkeypatch.setattr(stream, "uniform", lambda size=None: values)
        got = stream.normal(values.size)
        assert self.same_bits(got, special.ndtri(values))
        assert np.isfinite(got).all() and got[0] < -8.0 < 8.0 < got[1]

    def test_draws_past_a_block_keep_the_single_call_bits(self):
        # _ndtri takes more than 2^15 entries in blocks of 2^15; every entry keeps
        # the bits of one unblocked call over pieces cut at other places
        u = RngStream(5, 2).uniform((7, 30_001))
        pieces = np.split(u.ravel(), range(12_345, u.size, 30_000))
        assert u.size > 6 * 2 ** 15 and max(piece.size for piece in pieces) <= 2 ** 15
        single = np.concatenate([numerics._ndtri(piece) for piece in pieces])
        got = RngStream(5, 2).normal((7, 30_001))
        assert got.shape == u.shape and self.same_bits(got.ravel(), single)
        scalar = RngStream(5, 2).normal()
        assert np.ndim(scalar) == 0
        assert self.same_bits(scalar, numerics._ndtri(RngStream(5, 2).uniform()))

    def test_normal_moments(self):
        z = RngStream(9).normal(100000)
        assert abs(z.mean()) < 0.02
        assert abs(z.var() - 1.0) < 0.02


class TestSampling:
    """spd_power(cov, 0.5) as a sampler's covariance root: mean + z @ root."""

    def test_degenerate_covariance_returns_mean(self):
        rng = RngStream(1)
        draws = np.array([2.0, -1.0]) + rng.normal((5, 2)) @ spd_power(np.zeros((2, 2)), 0.5)
        assert np.array_equal(draws, np.tile([2.0, -1.0], (5, 1)))

    def test_identity_covariance_moments(self):
        rng = RngStream(2)
        draws = rng.normal((10000, 2)) @ spd_power(np.eye(2), 0.5)
        cov = np.cov(draws, rowvar=False)
        assert np.abs(cov - np.eye(2)).max() < 0.1

    def test_ar1_off_diagonal(self):
        delta = 0.2
        idx = np.arange(3)
        cov = delta ** np.abs(idx[:, None] - idx[None, :])
        draws = RngStream(3).normal((10000, 3)) @ spd_power(cov, 0.5)
        est = np.cov(draws, rowvar=False)
        assert est[0, 2] == pytest.approx(0.04, abs=0.05)
