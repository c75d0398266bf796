"""Dense symmetric linear algebra, chi-square tails, and seeded sampling.

All other modules build on the handful of kernels defined here. Matrices are
plain float64 numpy arrays; eigen-decompositions follow a fixed ordering and
sign convention so that downstream bases are reproducible run to run.

The chi-square tail (integer df only) is closed-form ``math`` and the normal
quantile a numpy port of Cephes ``ndtri`` with scipy's bits: numpy alone suffices.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import InvalidArgument, InvalidMatrix, NotPSD

__all__ = [
    "EigenDecomposition",
    "RngStream",
    "sym_eigen",
    "inverse_sqrt_spd",
    "spd_power",
    "chi_square_sf",
]

_SYMMETRY_RTOL = 1e-10
_PSD_RTOL = 1e-10
_RIDGE_SCALE = 1e-8
_UINT64_MASK = (1 << 64) - 1
_INV_2POW53 = 2.0 ** -53
# Cephes ndtri (Moshier 1989), as scipy has it: P0/Q0 centre, P1/Q1 tail, P2/Q2 far tail
_EXP_M2 = 0.13533528323661269189
_NDTRI_P0 = (-5.99633501014107895267E1, 9.80010754185999661536E1, -5.66762857469070293439E1,
             1.39312609387279679503E1, -1.23916583867381258016E0)
_NDTRI_Q0 = (1.95448858338141759834E0, 4.67627912898881538453E0, 8.63602421390890590575E1,
             -2.25462687854119370527E2, 2.00260212380060660359E2, -8.20372256168333339912E1,
             1.59056225126211695515E1, -1.18331621121330003142E0)
_NDTRI_P1 = (4.05544892305962419923E0, 3.15251094599893866154E1, 5.71628192246421288162E1,
             4.40805073893200834700E1, 1.46849561928858024014E1, 2.18663306850790267539E0,
             -1.40256079171354495875E-1, -3.50424626827848203418E-2, -8.57456785154685413611E-4)
_NDTRI_Q1 = (1.57799883256466749731E1, 4.53907635128879210584E1, 4.13172038254672030440E1,
             1.50425385692907503408E1, 2.50464946208309415979E0, -1.42182922854787788574E-1,
             -3.80806407691578277194E-2, -9.33259480895457427372E-4)
_NDTRI_P2 = (3.23774891776946035970E0, 6.91522889068984211695E0, 3.93881025292474443415E0,
             1.33303460815807542389E0, 2.01485389549179081538E-1, 1.23716634817820021358E-2,
             3.01581553508235416007E-4, 2.65806974686737550832E-6, 6.23974539184983293730E-9)
_NDTRI_Q2 = (6.02427039364742014255E0, 3.67983563856160859403E0, 1.37702099489081330271E0,
             2.16236993594496635890E-1, 1.34204006088543189037E-2, 3.28014464682127739104E-4,
             2.89247864745380683936E-6, 6.79019408009981274425E-9)


class EigenDecomposition(NamedTuple):
    """Eigenvalues sorted descending with matching orthonormal column vectors."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _as_symmetric(m) -> tuple[np.ndarray, float]:
    """(a + a') / (2 unit) and unit: the exact power of four 4^b > p where an entry
    reaches 2^1000, else 1. No sum, trace or eigenvalue of the result overflows."""
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidMatrix(f"matrix must be square, got shape {a.shape}")
    if a.size == 0:
        raise InvalidMatrix("matrix is empty (0 x 0)")
    if not np.isfinite(a).all():
        raise InvalidMatrix("matrix contains non-finite entries")
    peak, unit = np.abs(a).max(), 1.0
    if peak >= 2.0 ** 1000:
        unit = 4.0 ** a.shape[0].bit_length()
        a, peak = a / unit, peak / unit
    if np.abs(a - a.T).max() > _SYMMETRY_RTOL * (1.0 + peak):
        raise InvalidMatrix("matrix is not symmetric within tolerance")
    return 0.5 * (a + a.T), unit


def sym_eigen(m) -> EigenDecomposition:
    """Eigen-decompose a symmetric matrix.

    Eigenvalues come back in descending order. Each eigenvector is scaled so
    its largest-magnitude component is positive (ties go to the first such
    component), which pins down an otherwise arbitrary sign.

    Raises:
        InvalidMatrix: non-square, empty, non-finite, or asymmetric input.
    """
    a, unit = _as_symmetric(m)
    values, vectors = np.linalg.eigh(a)
    with np.errstate(over="ignore"):    # an eigenvalue beyond the largest double is inf
        values, vectors = values[::-1] * unit, vectors[:, ::-1].copy()
    lead = np.argmax(np.abs(vectors), axis=0)
    signs = np.where(vectors[lead, np.arange(vectors.shape[1])] < 0.0, -1.0, 1.0)
    return EigenDecomposition(values, vectors * signs)


def spd_power(m, power: float, ridge: float | None = 0.0) -> np.ndarray:
    """V diag((max(lambda_i, 0) + ridge)^power) V' for a symmetric PSD matrix; ridge=None
    means the scale-aware ridge 1e-8 * trace/p, or 1e-8 when the trace is zero.

    Raises:
        InvalidArgument: a power or ridge that is not finite, or a negative ridge.
        InvalidMatrix: non-square, empty, non-finite, or asymmetric input.
        NotPSD: a meaningfully negative eigenvalue, or a zero one (plus ridge) at power < 0.
    """
    if not (math.isfinite(power) and (ridge is None or 0.0 <= ridge < math.inf)):
        raise InvalidArgument("power and ridge must be finite and the ridge >= 0; "
                              f"got power {power}, ridge {ridge}")
    a, unit = _as_symmetric(m)
    if ridge is None:   # 1e-8 times a's mean diagonal, formed where it cannot overflow
        mean_diag = float(np.trace(a)) / a.shape[0]
        ridge = _RIDGE_SCALE * unit * mean_diag if mean_diag > 0.0 else _RIDGE_SCALE
    # dsyevd returns (a, [[1]]) for [[a]], so a 1 x 1 matrix needs no LAPACK call
    values, vectors = (a[0], np.ones((1, 1))) if a.shape[0] == 1 else np.linalg.eigh(a)
    low, tol = float(values.min()), _PSD_RTOL * max(1.0, float(np.abs(values).max()))
    if low < -tol:      # reported in a's units: an eigenvalue beyond range reads -inf
        raise NotPSD(f"matrix has eigenvalue {low * unit:.3e} below -{tol * unit:.1e}")
    scaled = np.maximum(values, 0.0) + ridge / unit
    if power < 0.0 and not scaled.min() > 0.0:
        raise NotPSD(f"matrix is singular; its power {power} is undefined")
    out = (vectors * scaled ** power) @ vectors.T
    return 0.5 * (out + out.T) * unit ** power


def inverse_sqrt_spd(m, ridge: float | None = None) -> np.ndarray:
    """spd_power(m, -0.5, ridge), with the scale-aware ridge by default."""
    return spd_power(m, -0.5, ridge)


def chi_square_sf(x: float, df: int) -> float:
    """P(chi-square_df > x) in closed form; h = x/2, s = (df mod 2)/2.

    erfc(sqrt h) [odd df] + sum_{j < df//2} e^-h h^(j+s) / Gamma(j+s+1), each term
    formed in log space so that none underflows while the tail is representable.
    """
    if not float(x) >= 0.0:
        raise InvalidArgument(f"x must be >= 0, got {x}")
    if int(df) != df or df < 1:
        raise InvalidArgument(f"df must be a positive integer, got {df}")
    h = float(x) / 2.0
    if h == 0.0 or h == math.inf:
        return 1.0 if h == 0.0 else 0.0
    s, log_h = 0.5 * (int(df) % 2), math.log(h)
    terms = [math.exp((j + s) * log_h - h - math.lgamma(j + s + 1.0))
             for j in range(int(df) // 2)]
    return min(1.0, math.fsum([math.erfc(math.sqrt(h)) if s else 0.0, *terms]))


class RngStream:
    """Counter-based random stream keyed by (seed, stream id).

    Identical keys reproduce identical draw sequences; distinct stream ids give
    statistically independent streams (Philox). Uniforms land strictly inside
    (0, 1) and every normal consumes exactly one 64-bit word, so draw counts
    per call are fixed and replicate scheduling cannot shift the sequence.

    A stream is single-owner: share the (seed, stream) recipe, not the object.
    """

    def __init__(self, seed: int, stream: int = 0):
        key = np.array([int(seed) & _UINT64_MASK, int(stream) & _UINT64_MASK], dtype=np.uint64)
        self._gen = np.random.Generator(np.random.Philox(key=key))

    def uniform(self, size=None) -> np.ndarray:
        """Open-interval (0, 1) uniforms, one word each; the top word maps below 1."""
        raw = self._gen.integers(0, 1 << 53, size=size, dtype=np.int64)
        return np.minimum((raw.astype(np.float64) + 0.5) * _INV_2POW53, 1.0 - _INV_2POW53)

    def normal(self, size=None) -> np.ndarray:
        """Standard normals via the inverse CDF, one uniform per draw."""
        return _ndtri(self.uniform(size))


def _ratio(w, p, q):
    """Cephes w * polevl(w, p) / p1evl(w, q), left to right; q's leading 1 is implicit."""
    num, den = np.full_like(w, p[0]), w + q[0]
    for out, coef in ((num, p[1:]), (den, q[1:])):
        for c in coef:
            out *= w
            out += c
    return w * num / den


def _libm_log(v: np.ndarray) -> np.ndarray:
    """The C library's log of each v > 0 in one call. numpy's float64 log may differ in the
    last bit; the real part of its complex128 log, glibc's clog, is log(hypot(v, 0)) = log(v)
    for normal v outside [0.5, 2). _ndtri calls it only with y <= fl(e^-2) < 0.5 or x >= 2."""
    return np.log(v.astype(np.complex128)).real


def _ndtri(y0):
    """Cephes ndtri, the standard normal quantile of y0 in (0, 1), op for op as scipy's."""
    y0 = np.asarray(y0, dtype=float)
    if y0.size > 1 << 15:   # each entry is computed alone; blocks of 2^15 stay in cache
        blocks = np.split(y0.ravel(), range(1 << 15, y0.size, 1 << 15))
        return np.concatenate([_ndtri(block) for block in blocks]).reshape(y0.shape)
    upper = (y0 > 1.0 - _EXP_M2).ravel()
    y = np.where(upper, 1.0 - y0.ravel(), y0.ravel())
    out, inner = np.empty_like(y), y > _EXP_M2
    mid, tail = np.flatnonzero(inner), np.flatnonzero(~inner)     # indices beat masks here
    c = y[mid] - 0.5
    out[mid] = (c + c * _ratio(c * c, _NDTRI_P0, _NDTRI_Q0)) * 2.50662827463100050242
    x = np.sqrt(-2.0 * _libm_log(y[tail]))     # x >= 2, as log fl(exp(-2)) = -2.0
    x1 = _ratio(1.0 / x, _NDTRI_P1, _NDTRI_Q1)
    far = np.flatnonzero(x >= 8.0)      # y < exp(-32)
    if far.size:
        x1[far] = _ratio(1.0 / x[far], _NDTRI_P2, _NDTRI_Q2)
    x = x - _libm_log(x) / x - x1
    out[tail] = np.where(upper[tail], x, -x)
    return out.reshape(y0.shape)[()]
