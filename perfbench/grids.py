"""Inputs the workloads draw from, and the sizes of their requests.

This module imports nothing from zerosum: the reference generator reads
the same grids, so every value a request can be given has a stored
reference.  The seed moves the inputs without moving the work much: the
q-family grids hold only points whose zero scans cost within about 10%
of each other (measured; the cost jumps erratically with q, by 2x
between neighbouring points), and no determinant scale is a power of
two, which mpmath multiplies by far faster than a general scale.
"""

from fractions import Fraction as F

# classical: coefficient work at every precision, oracle work at the low end
PRECISIONS = (30, 50, 100)
SIGMA_ORDER = 20
REFERENCE_ORDERS = 3  # s_1..s_3 checked against references where they exist
BESSEL_FIXED_NU = (F(0), F(1, 2))
BESSEL_NU_GRID = (F(1, 3), F(2, 3), F(3, 4), F(4, 3), F(3, 2), F(5, 2))
QBESSEL_GRID = tuple(
    (nu, F(q))
    for nu, q in (
        (0, "31/50"), (1, "31/50"), (2, "31/50"), (0, "16/25"), (1, "16/25"),
        (1, "13/20"), (2, "13/20"), (0, "33/50"), (1, "33/50"), (2, "33/50"),
    )
)
QAIRY_GRID = (F(14, 25), F(29, 50), F(16, 25), F(13, 20), F(33, 50))
SCALES = (F(-3), F(3, 7), F(-5, 3), F(7, 5), F(-2, 3), F(9, 7))
SCALES_PER_REQUEST = 3

BESSEL_DEEP_COUNT = 64  # nu = 0: the last zero sits near z = 200
BESSEL_COUNT = 32  # nu = 1/2 and the seeded nu: last zero near z = 100
AIRY_COUNT = 20
QBESSEL_COUNT = 20
QAIRY_COUNT = 25
ORACLE_PREC = 30
HALF_ORDER_PREC = 50

# cli and xi-scan: L-function work at the lowest accepted precision
L_PREC = 30
ODD_DISCRIMINANTS = (-3, -4)
EVEN_DISCRIMINANT = 5
ZETA_VERIFY_ORDERS = (2, 3, 4)
CLI_ZETA_COUNT = 3
CLI_DIRICHLET_COUNT = 2
SINC_COUNT = 10
XI_SCAN_COUNT = 16
XI_SCAN_DIRICHLET_COUNT = 2
XI_SCAN_MOMENT_PREC = 50
MOMENT_ORDER = 4
DIRICHLET_ORDER = 2

# reference ranges: every count above must fit inside these
ZETA_ORDINATES = 24
DIRICHLET_ORDINATES = 4
DISCRIMINANTS = ODD_DISCRIMINANTS + (EVEN_DISCRIMINANT,)
