"""Compute every reference value the benchmark checks program output against.

Only mpmath and fractions are used; zerosum is never imported, so an
agreement between the two is a cross-check and not the same code run
twice.  Rewrite the stored file (about half a minute) with

    python3 perfbench/make_references.py

Exact values are stored as "p/q" strings, real ones as decimal strings.
"""

from __future__ import annotations

import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
from mpmath import mp

sys.path.insert(0, str(Path(__file__).resolve().parent))
import grids  # noqa: E402

COMMAND = "python3 perfbench/make_references.py"
OUT = Path(__file__).resolve().parent / "references.json"
DPS = 60
DIGITS = 45


def frac(x):
    return f"{x.numerator}/{x.denominator}"


def real(x, digits=DIGITS):
    return mp.nstr(x, digits)


# ------------------------------------------------------------------ sinc


def bernoulli(n):
    """B_n by the Akiyama-Tanigawa scheme, exact (B_1 = +1/2)."""
    row = []
    for m in range(n + 1):
        row.append(Fraction(1, m + 1))
        for j in range(m, 0, -1):
            row[j - 1] = j * (row[j - 1] - row[j])
    return row[0]


def zeta_even_over_pi(n):
    """zeta(2n) / pi^(2n) = |B_2n| 2^(2n-1) / (2n)!, exact."""
    return abs(bernoulli(2 * n)) * 2 ** (2 * n - 1) / math.factorial(2 * n)


def sinc_references():
    out = {}
    with mp.workdps(DPS):
        for n in range(1, grids.SIGMA_ORDER + 1):
            r = zeta_even_over_pi(n)
            check = mp.zeta(2 * n) / mp.pi ** (2 * n)
            assert abs(mp.mpf(r.numerator) / r.denominator / check - 1) < mp.mpf(10) ** (-50)
            out[str(n)] = frac(r)
    return out


# ---------------------------------------------------------------- bessel


def rayleigh(nu):
    """Rayleigh sums s_1..s_3 of 1/j_(nu,k)^2, exact rationals in nu."""
    return [
        Fraction(1, 4) / (nu + 1),
        Fraction(1, 16) / ((nu + 1) ** 2 * (nu + 2)),
        Fraction(1, 32) / ((nu + 1) ** 3 * (nu + 2) * (nu + 3)),
    ]


def bessel_references():
    out = {}
    with mp.workdps(DPS):
        for nu in grids.BESSEL_FIXED_NU + grids.BESSEL_NU_GRID:
            count = grids.BESSEL_DEEP_COUNT if nu == 0 else grids.BESSEL_COUNT
            nuv = mp.mpf(nu.numerator) / nu.denominator
            entry = {"s": [frac(s) for s in rayleigh(nu)]}
            if nu != Fraction(1, 2):  # half-order zeros are checked against k*pi
                entry["zeros"] = [real(mp.besseljzero(nuv, k)) for k in range(1, count + 1)]
            out[str(nu)] = entry
    return out


def airy_references():
    with mp.workdps(130):
        s1 = 3 * mp.gamma(mp.mpf(2) / 3) ** 4 / (4 * mp.pi**2)
        return {"s1": real(s1, 120)}


# -------------------------------------------------------------- q-series


def q_poch(z, q, n):
    out = Fraction(1)
    for k in range(n):
        out *= 1 - z * q**k
    return out


def sums_from_sigmas(s1, s2):
    # power sums of the roots from the first two elementary symmetric functions
    return [s1, s1 * s1 - 2 * s2]


def qbessel_references():
    # defining series: sum_n (-x)^n q^(n(n+nu)) / (4^n (q;q)_n (q^(nu+1);q)_n)
    out = {}
    for nu, q in grids.QBESSEL_GRID:
        sig = [
            q ** (n * (n + nu)) / (4**n * q_poch(q, q, n) * q_poch(q ** (nu + 1), q, n))
            for n in (1, 2)
        ]
        out[f"nu={nu},q={q}"] = {
            "sigma": [frac(s) for s in sig],
            "s": [frac(s) for s in sums_from_sigmas(*sig)],
        }
    return out


def qairy_references():
    # defining series: sum_n (-x)^n q^(n^2) / (q;q)_n
    out = {}
    for q in grids.QAIRY_GRID:
        sig = [q ** (n * n) / q_poch(q, q, n) for n in (1, 2)]
        out[str(q)] = {
            "sigma": [frac(s) for s in sig],
            "s": [frac(s) for s in sums_from_sigmas(*sig)],
        }
    return out


# ------------------------------------------------------------ L-functions


def kronecker(d, n):
    """Kronecker symbol (d/n), n >= 1, by factoring n and Euler's criterion."""
    out = 1
    p = 2
    while n > 1:
        while n % p == 0:
            n //= p
            if p == 2:
                out *= 0 if d % 2 == 0 else (1 if d % 8 in (1, 7) else -1)
            else:
                r = pow(d % p, (p - 1) // 2, p)
                out *= 0 if r == 0 else (1 if r == 1 else -1)
        p += 1
    return out


def xi_real(fn, t):
    value = fn(t)
    assert abs(value.imag) <= mp.mpf(10) ** (-(mp.dps - 15)) * max(1, abs(value.real))
    return value.real


def first_sum(fn):
    # the product over the zeros gives Xi(t)/Xi(0) = 1 - s_1 t^2 + ...
    return -mp.diff(lambda t: xi_real(fn, t), 0, 2) / (2 * xi_real(fn, 0))


def zeta_references():
    def xi(t):
        s = mp.mpf(1) / 2 + 1j * t
        return s * (s - 1) / 2 * mp.pi ** (-s / 2) * mp.gamma(s / 2) * mp.zeta(s)

    with mp.workdps(DPS):
        ordinates = [mp.zetazero(k).imag for k in range(1, grids.ZETA_ORDINATES + 2)]
        # zeros with 0 < Im s < T, at T midway above each ordinate
        counts = [
            int(mp.nzeros((ordinates[k] + ordinates[k + 1]) / 2))
            for k in range(grids.ZETA_ORDINATES)
        ]
        return {
            "s1": real(first_sum(xi)),
            "ordinates": [real(t) for t in ordinates[: grids.ZETA_ORDINATES]],
            "nzeros_above": counts,
        }


def dirichlet_references():
    out = {}
    for d in grids.DISCRIMINANTS:
        m = abs(d)
        a = 0 if d > 0 else 1
        chi = [kronecker(d, n) if math.gcd(n, m) == 1 else 0 for n in range(m)]

        def lam(t, chi=chi, m=m, a=a):
            s = mp.mpf(1) / 2 + 1j * t
            return mp.power(m / mp.pi, (s + a) / 2) * mp.gamma((s + a) / 2) * mp.dirichlet(s, chi)

        with mp.workdps(DPS):
            ordinates = []
            step = mp.mpf(1) / 20
            lo = step
            flo = xi_real(lam, lo)
            while len(ordinates) < grids.DIRICHLET_ORDINATES:
                hi = lo + step
                fhi = xi_real(lam, hi)
                if flo * fhi < 0:
                    root = mp.findroot(lambda t: xi_real(lam, t), (lo, hi), solver="anderson")
                    ordinates.append(root)
                lo, flo = hi, fhi
            out[str(d)] = {
                "character": chi,
                "s1": real(first_sum(lam)),
                "ordinates": [real(t) for t in ordinates],
            }
    return out


def main():
    refs = {
        "command": COMMAND,
        "mpmath": mpmath.__version__,
        "sinc_zeta_over_pi": sinc_references(),
        "bessel": bessel_references(),
        "airy": airy_references(),
        "qbessel": qbessel_references(),
        "qairy": qairy_references(),
        "zeta": zeta_references(),
        "dirichlet": dirichlet_references(),
    }
    OUT.write_text(json.dumps(refs, indent=1) + "\n")
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
