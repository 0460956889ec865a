"""Power sums of reciprocal zeros from series coefficients.

An entire function with value 1 at the origin and zero set {1/lambda_k}
factors as prod (1 - lambda_k z); its Taylor coefficients are signed
elementary symmetric functions sigma_n of the lambda_k.  The routines
here convert sigma_1..sigma_N into the power sums s_n = sum lambda_k^n
by two independent routes:

* a forward recurrence
      s_n = (-1)^(n-1) n sigma_n + sum_{j=1}^{n-1} (-1)^(j-1) sigma_j s_{n-j}
* a scaled determinant whose matrix holds sigma_j / c^j, evaluated by
  LU elimination; s_n = c^n det M_n for any nonzero scale c.

Agreement between the two is the package's main internal cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass

from mpmath import mp

from .errors import DomainError, SingularInputError, ZeroScaleError
from .precision import DEFAULT_PREC, check_integer, check_precision, pole_floor, to_real, working

METHOD_RECURRENCE = "recurrence"
METHOD_DETERMINANT = "determinant"


@dataclass(frozen=True)
class CoefficientSeries:
    """Normalized coefficient list sigma_0 = 1, sigma_1, ..., sigma_N.

    sigmas[n] is the n-th elementary symmetric function of the reciprocal
    zeros.  A series whose leading entry is not exactly 1 is rejected, not
    silently renormalized.
    """

    sigmas: tuple
    precision: int = DEFAULT_PREC

    def __post_init__(self):
        check_precision(self.precision)
        if len(self.sigmas) < 2:
            raise DomainError("coefficient series needs at least sigma_0 and sigma_1")
        object.__setattr__(self, "sigmas", tuple(self.sigmas))
        if self.sigmas[0] != 1:
            raise DomainError(
                f"sigma_0 must equal 1 exactly, got {self.sigmas[0]!r}"
            )

    @property
    def order(self):
        """Largest power-sum index this series can support."""
        return len(self.sigmas) - 1


@dataclass(frozen=True)
class PowerSumReport:
    """Power sums s_1..s_N with the route that produced them."""

    values: tuple
    method: str
    precision: int

    def __post_init__(self):
        if self.method not in (METHOD_RECURRENCE, METHOD_DETERMINANT):
            raise DomainError(f"unknown method {self.method!r}")
        object.__setattr__(self, "values", tuple(self.values))

    @property
    def order(self):
        return len(self.values)

    def value(self, n):
        return self.values[check_integer(n, "power sum index", 1, len(self.values)) - 1]


def power_sums_recurrence(series):
    """Power sums s_1..s_N via the forward recurrence, N = series.order."""
    with working(series.precision):
        sig = [to_real(v, series.precision) for v in series.sigmas]
        s = []
        for n in range(1, series.order + 1):
            acc = (-1) ** (n - 1) * n * sig[n]
            for j in range(1, n):
                acc += (-1) ** (j - 1) * sig[j] * s[n - j - 1]
            s.append(acc)
        values = tuple(+v for v in s)
    return PowerSumReport(values=values, method=METHOD_RECURRENCE, precision=series.precision)


def lower_triangular_system_matrix(sigmas, scale, n, prec=DEFAULT_PREC):
    """The n x n matrix whose determinant, times scale^n, equals s_n.

    Column j < n carries (-1)^(i-j) sigma_(i-j) / scale^(i-j) on and below
    the diagonal; the last column carries (-1)^(i-1) i sigma_i / scale^i.
    Rows/columns are 1-based in this description; returned as nested lists.
    """
    check_integer(n, "matrix order", 1, len(sigmas) - 1)
    with working(prec, 15):
        c = to_real(scale, prec)
        if c == 0:
            raise ZeroScaleError("determinant route requires a nonzero scale c")
        p = [mp.one]
        for i in range(1, n + 1):
            p.append(to_real(sigmas[i], prec) / c**i)
        rows = []
        for i in range(1, n + 1):
            row = []
            for j in range(1, n):
                row.append(((-1) ** (i - j)) * p[i - j] if i >= j else mp.zero)
            row.append(((-1) ** (i - 1)) * i * p[i])
            rows.append(row)
        return rows


def determinant(rows, prec=DEFAULT_PREC):
    """Determinant by LU elimination with partial pivoting."""
    n = len(rows)
    with working(prec, 15):
        a = [[to_real(v, prec) for v in row] for row in rows]
        for row in a:
            if len(row) != n:
                raise DomainError("determinant needs a square matrix")
        sign = 1
        det = mp.one
        for col in range(n):
            pivot = max(range(col, n), key=lambda r: abs(a[r][col]))
            if a[pivot][col] == 0:
                return mp.zero
            if pivot != col:
                a[col], a[pivot] = a[pivot], a[col]
                sign = -sign
            det *= a[col][col]
            for r in range(col + 1, n):
                factor = a[r][col] / a[col][col]
                if factor == 0:
                    continue
                for cc in range(col + 1, n):
                    a[r][cc] -= factor * a[col][cc]
        return +(sign * det)


def power_sums_determinant(series, scale=-1):
    """Power sums s_1..s_N via scaled determinants, independent of the recurrence.

    N = series.order; M_n is rows 1..n of the order-N matrix, with its
    first n - 1 columns and its last column.
    """
    order = series.order
    prec = series.precision
    with working(prec, 15):
        c = to_real(scale, prec)
        rows = lower_triangular_system_matrix(series.sigmas, c, order, prec)
        values = [
            +(c**n * determinant([r[: n - 1] + r[-1:] for r in rows[:n]], prec))
            for n in range(1, order + 1)
        ]
    return PowerSumReport(values=tuple(values), method=METHOD_DETERMINANT, precision=prec)


def elementary_symmetric_finite(lambdas, n, prec=DEFAULT_PREC):
    """e_n of a finite list by the one-pass coefficient recurrence.

    O(len * n) work; returns 0 when n exceeds the list length.
    """
    check_integer(n, "elementary symmetric index")
    with working(prec):
        vals = [to_real(v, prec) for v in lambdas]
        if n > len(vals):
            return mp.zero
        e = [mp.one] + [mp.zero] * n
        for x in vals:
            top = min(n, len(e) - 1)
            for k in range(top, 0, -1):
                e[k] += x * e[k - 1]
        return +e[n]


def derivative_ratio_check(lambdas, z, n, prec=DEFAULT_PREC):
    """Both sides of the n-th derivative identity for f = prod (1 - lambda_k z).

    Left side: (-1)^n f^(n)(z) / (n! f(z)) computed from the polynomial
    coefficients.  Right side: e_n of the shifted values
    lambda_k / (1 - lambda_k z).  Returns (lhs, rhs).
    """
    m = len(lambdas)
    check_integer(n, "derivative order", 0, m)
    with working(prec, 15):
        vals = [to_real(v, prec) for v in lambdas]
        zv = to_real(z, prec)
        floor = pole_floor(prec)
        shifted = []
        for lam in vals:
            denom = 1 - lam * zv
            if abs(denom) < floor:
                raise SingularInputError(
                    f"evaluation point too close to the zero 1/{lam}"
                )
            shifted.append(lam / denom)
        # coef[j] = (-1)^j e_j, the polynomial coefficients of f.
        coef = [((-1) ** j) * elementary_symmetric_finite(vals, j, prec)
                for j in range(m + 1)]
        fz = mp.zero
        for j in range(m, -1, -1):
            fz = fz * zv + coef[j]
        if abs(fz) < floor:
            raise SingularInputError("f(z) vanishes at the evaluation point")
        deriv = mp.zero
        for j in range(n, m + 1):
            fall = mp.one
            for t in range(n):
                fall *= j - t
            deriv += coef[j] * fall * zv ** (j - n)
        lhs = ((-1) ** n) * deriv / (mp.factorial(n) * fz)
        rhs = elementary_symmetric_finite(shifted, n, prec)
        return +lhs, +rhs
