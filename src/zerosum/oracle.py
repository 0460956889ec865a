"""Brute-force zero location and truncated power sums.

Every zero is isolated by a verified sign-change bracket and refined
strictly inside it by one Anderson-Bjorck bracketed secant with a
closing step (`_refine`); no derivative evaluations and no steps outside
a certified bracket, so this route shares nothing with the
coefficient-based machinery it cross-checks and the final bracket width
localizes each zero.  A bracket the refiner cannot close within its
step budget raises AccuracyError instead of yielding a midpoint.

One per-zero loop (`_locate`) draws every bracket.  From the third zero
on it first tries the family's seed from its zero asymptotics: McMahon's
expansion for Bessel, DLMF 9.9.6 for Airy, and the ratio law
x_(k+1)/x_k -> q^(-2) for the q-families.  A seed counts only if three
checks hold: its left end lies above the previous zero, its ends carry
the signs (-1)^(k-1) and -(-1)^(k-1) that f(0) = 1 implies for zero k,
and the refined zero passes the family's spacing check, which costs no
evaluation.  Otherwise a forward scan (`_scan`) from the previous zero,
stepped by the family's own rule, brackets the zero.

Series evaluation near large zeros loses digits to alternating-series
cancellation.  Each evaluator starts from a per-family loss estimate,
measures the cancellation it actually met (largest term over result),
and retries with more working digits until the surviving precision is
certified, giving up only past a per-family budget cap.

The Bessel family is the exception at large z: there each value comes
from Hankel's asymptotic expansion, whose remainder DLMF 10.17(iii)
bounds by the first neglected term (real order, z > 0), used wherever
that bound plus rounding leaves the same surviving digits the series
would have to certify.  Above that switch point the oracle no longer
evaluates the Taylor series whose coefficients feed the Newton routes,
so there it shares nothing with them but the function itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from mpmath import mp, mpf

from .errors import (
    AccuracyError,
    BracketFailureError,
    DomainError,
    LimitExceededError,
    PrecisionExhaustedError,
    ScanExhaustedError,
)
from .precision import DEFAULT_PREC, check_precision, to_real, working
from .zeta import XiEvaluator

BESSEL_COUNT_CAP = 500
AIRY_COUNT_CAP = 200
Q_COUNT_CAP = 200
XI_COUNT_CAP = 50

MODE_SQUARED = "squared"
MODE_PLAIN = "plain"

_LOG10E = 0.4342944819032518


@dataclass(frozen=True)
class ZeroList:
    """Positive zeros in ascending order with residual magnitudes.

    tol and tol_kind describe how tightly each zero is localized:
    "absolute" means z is within tol of the true zero, "relative" means
    within tol*z.  Downstream sums propagate this into their bounds.
    """

    zeros: tuple
    residuals: tuple
    family: str
    lambda_mode: str
    precision: int
    tol: object = None
    tol_kind: str = "absolute"
    modulus: int = 1
    note: str = ""

    def __post_init__(self):
        if self.lambda_mode not in (MODE_SQUARED, MODE_PLAIN):
            raise DomainError(f"unknown lambda mode {self.lambda_mode!r}")
        if self.tol_kind not in ("absolute", "relative"):
            raise DomainError(f"unknown tolerance kind {self.tol_kind!r}")
        if len(self.zeros) != len(self.residuals):
            raise DomainError("zeros and residuals must have equal length")
        if not self.zeros:
            raise DomainError("zero list is empty")
        prev = 0
        for z in self.zeros:
            if not z > prev:
                raise DomainError("zeros must be strictly increasing and positive")
            prev = z

    @property
    def count(self):
        return len(self.zeros)

    def lambdas(self):
        """Reciprocal (squared) zeros, the summands of the power sums."""
        if self.lambda_mode == MODE_SQUARED:
            return tuple(1 / (z * z) for z in self.zeros)
        return tuple(1 / z for z in self.zeros)


@dataclass(frozen=True)
class TailEstimate:
    """Estimated remainder of a power sum beyond the computed zeros."""

    value: object
    bound_kind: str
    confidence_note: str

    def __post_init__(self):
        if self.bound_kind not in ("asymptotic-density", "geometric-ratio"):
            raise DomainError(f"unknown bound kind {self.bound_kind!r}")
        if not self.value >= 0:
            raise DomainError("tail estimate must be non-negative")


@dataclass(frozen=True)
class TruncatedPowerSum:
    """Partial power sum over computed zeros plus its tail estimate."""

    estimate: object
    error_bound: object
    order: int
    tail: TailEstimate
    family: str


def _adaptive_eval(pass_fn, prec, guess_digits, cap_digits, label):
    """Run a fixed-precision series pass with measured-cancellation retries."""
    dps = prec + 20 + max(0, int(guess_digits))
    cap = prec + 40 + max(0, int(cap_digits))
    if dps > cap:
        raise PrecisionExhaustedError(
            f"{label}: expected cancellation {int(guess_digits)} digits "
            f"exceeds the budget cap {cap}"
        )
    for _ in range(12):
        total, maxmag, _ = pass_fn(dps)
        if total == 0:
            lost = float(dps)
        else:
            with mp.workdps(30):
                lost = float(mp.log10(maxmag / abs(total))) if maxmag > 0 else 0.0
        if dps - lost >= prec / 2 + 8:
            return total
        dps = max(dps + 10, int(lost) + prec // 2 + 24)
        if dps > cap:
            raise PrecisionExhaustedError(
                f"{label}: cancellation needs {dps} working digits, cap {cap}"
            )
    raise PrecisionExhaustedError(f"{label}: evaluation did not stabilize")


def _series_pass(dps, first, ratio_fn):
    # sum t_0 + t_1 + ... with t_{k+1} = t_k * ratio_fn(k); stops once the
    # terms have decayed below the working epsilon relative to the peak
    with mp.workdps(dps):
        eps = mpf(10) ** (-(dps - 2))
        t = first()
        total = t
        maxmag = abs(t)
        k = 0
        while k < 1_000_000:
            t = t * ratio_fn(k)
            total += t
            mag = abs(t)
            if mag > maxmag:
                maxmag = mag
            if mag < eps * maxmag:
                return +total, +maxmag, k
            k += 1
    raise AccuracyError("series pass exceeded the term cap")


def _hankel_length(nu, zf, dps):
    """Fewest terms L >= 1 per Hankel sum whose remainders fall below 10^(2-dps).

    Walks log10 |a_k(nu) / z^k| in floating point.  P sums a_0 .. a_2L-2
    and Q sums a_1 .. a_2L-1, so their first neglected terms are a_2L and
    a_2L+1; DLMF 10.17(iii) bounds each remainder by that term once
    2L >= nu - 1/2.  Returns None when the terms start to grow (the
    expansion has passed its smallest term) before they reach the target.
    """
    target = 2.0 - dps
    lmin = max(1, math.ceil(nu / 2 - 0.25))
    prev = mag = 0.0  # log10 |a_k / z^k| at k - 1 and k
    k = 0
    while True:
        factor = abs(4 * nu * nu - (2 * k + 1) ** 2) / (8 * (k + 1) * zf)
        if factor == 0:
            # half-odd-integer order: a_(k+1) and every later term vanish
            return max(lmin, (k + 2) // 2)
        if factor >= 1 and 2 * k + 1 > 2 * abs(nu):
            # past 2k + 1 > 2|nu| the term ratio only grows
            return None
        prev, mag = mag, mag + math.log10(factor)
        k += 1
        if k % 2 == 1 and k >= 2 * lmin + 1 and max(prev, mag) < target:
            return (k - 1) // 2


def _hankel_pass(nu, z, dps, length, scale):
    """Hankel's expansion of the normalized Bessel series at z > 0.

    f(z) = Gamma(nu+1) (2/z)^nu J_nu(z) with
    J_nu(z) = sqrt(2/(pi z)) (P cos w - Q sin w), w = z - nu pi/2 - pi/4
    (DLMF 10.17.3).  Returns (value, digits): digits is log10 of
    |P cos w - Q sin w| over its error bound, which adds the first
    neglected term of each sum (DLMF 10.17(iii), real nu, z > 0) to a
    rounding bound at `dps` working digits.
    """
    with mp.workdps(dps):
        zv = +z
        mu = 4 * nu * nu
        t = mp.one
        p = q = size = mp.zero
        for k in range(2 * length):
            size += abs(t)
            if k % 2 == 0:
                p += -t if k % 4 == 2 else t
            else:
                q += -t if k % 4 == 3 else t
            t = t * (mu - (2 * k + 1) ** 2) / (8 * (k + 1) * zv)
        tail_p = abs(t)
        tail_q = abs(t * (mu - (4 * length + 1) ** 2) / (8 * (2 * length + 1) * zv))
        size += tail_p + tail_q
        w = zv - (nu / 2 + mpf(1) / 4) * mp.pi
        cos_w, sin_w = mp.cos_sin(w)
        combo = p * cos_w - q * sin_w
        eps = mpf(10) ** (2 - dps)
        err = tail_p + tail_q + eps * (
            (abs(w) + abs(nu) + 4) * (abs(p) + abs(q)) + 4 * (length + 1) * size
        )
        if combo == 0:
            return combo, -math.inf
        with mp.workdps(30):
            digits = float(mp.log10(abs(combo) / err))
        return scale(dps) * zv ** (-(nu + mpf(1) / 2)) * combo, digits


def _bessel_series(nu, z, prec):
    """Taylor series of the normalized Bessel function, cancellation-certified."""
    zf = abs(float(z))
    guess = 0.45 * zf + 6
    cap = max(prec, 2 * zf * _LOG10E + prec / 2)

    def pass_fn(dps):
        with mp.workdps(dps):
            nuv = to_real(nu, dps - 10)
            zv = +z
            x = (zv / 2) ** 2
            return _series_pass(
                dps, lambda: mp.one, lambda k: -x / ((k + 1) * (nuv + k + 1))
            )

    return _adaptive_eval(pass_fn, prec, guess, cap, f"bessel(nu={float(nu)})")


def _make_bessel_eval(nu, prec):
    """Normalized Bessel series f(z) = Gamma(nu+1) (2/z)^nu J_nu(z).

    At each z > 0 Hankel's expansion is tried first.  It is used only when
    its certified error (DLMF 10.17(iii) remainder plus rounding) leaves
    the prec/2 + 8 surviving digits that `_adaptive_eval` demands of the
    Taylor series, with up to three working-digit raises; otherwise the
    call falls back to the Taylor series.  The switch is thus decided per
    call; for orders that are not half odd integers it falls near
    z = 1.1 (prec + 20), where the expansion's smallest term first drops
    below the working epsilon.  For half-odd-integer orders the expansion
    terminates (for nu = 1/2 it is sqrt(2/(pi z)) sin z), its remainder
    is zero and it serves every z > 0.
    """
    nuf = float(nu)
    need = prec / 2 + 8
    scales = {}

    def scale(dps):
        # Gamma(nu+1) 2^nu sqrt(2/pi), cached per working precision
        if dps not in scales:
            with mp.workdps(dps):
                scales[dps] = mp.gamma(nu + 1) * mpf(2) ** nu * mp.sqrt(2 / mp.pi)
        return scales[dps]

    def evaluate(z):
        if z > 0:
            zf = float(z)
            dps = prec + 20
            for _ in range(3):
                length = _hankel_length(nuf, zf, dps)
                if length is None:
                    break
                value, digits = _hankel_pass(nu, z, dps, length, scale)
                if digits >= need:
                    return value
                dps += int(min(need - digits, dps)) + 10
        return _bessel_series(nu, z, prec)

    return evaluate


def _make_airy_eval(prec):
    def evaluate(z):
        zf = abs(float(z))
        loss = 2 * (zf / 3) ** 1.5 * _LOG10E
        guess = loss + 6
        cap = 1.6 * loss + prec

        def pass_fn(dps):
            with mp.workdps(dps):
                zv = +z
                w = (zv / 3) ** 3
                c1 = mp.pi / (3 * mp.gamma(mpf(2) / 3))
                c2 = mp.pi * zv / (9 * mp.gamma(mpf(4) / 3))
                eps = mpf(10) ** (-(dps - 2))
                t1, t2 = c1, c2
                total = t1 + t2
                maxmag = max(abs(t1), abs(t2))
                k = 0
                while k < 1_000_000:
                    t1 = t1 * (-w) / ((k + 1) * (k + mpf(2) / 3))
                    t2 = t2 * (-w) / ((k + 1) * (k + mpf(4) / 3))
                    total += t1 + t2
                    mag = max(abs(t1), abs(t2))
                    if mag > maxmag:
                        maxmag = mag
                    if mag < eps * maxmag:
                        return +total, +maxmag, k
                    k += 1
                raise AccuracyError("series pass exceeded the term cap")

        return _adaptive_eval(pass_fn, prec, guess, cap, "airy")

    return evaluate


def _make_qairy_eval(q, prec):
    def evaluate(z):
        zf = max(abs(float(z)), 1.0)
        lq = -math.log(float(to_real(q, 30)))
        loss = _LOG10E * (math.log(zf) ** 2) / (4 * lq)
        guess = loss + 8
        cap = 3 * loss + prec + 40

        def pass_fn(dps):
            with mp.workdps(dps):
                qv = to_real(q, dps - 10)
                zv = +z
                return _series_pass(
                    dps,
                    lambda: mp.one,
                    lambda k: -zv * qv ** (2 * k + 1) / (1 - qv ** (k + 1)),
                )

        return _adaptive_eval(pass_fn, prec, guess, cap, f"qairy(q={q})")

    return evaluate


def _make_qbessel_eval(nu, q, prec):
    nuf = float(nu)

    def evaluate(x):
        lq = -math.log(float(to_real(q, 30)))
        u = max(math.log(max(abs(float(x)), 1.0) / 4) + nuf * math.log(float(to_real(q, 30))), 0.0)
        loss = _LOG10E * u * u / (4 * lq)
        guess = loss + 8
        cap = 3 * loss + prec + 40

        def pass_fn(dps):
            with mp.workdps(dps):
                qv = to_real(q, dps - 10)
                nuv = to_real(nu, dps - 10)
                xv = +x
                qn = qv**nuv

                def ratio(k):
                    return -xv * qv ** (2 * k + 1) * qn / (
                        4 * (1 - qv ** (k + 1)) * (1 - qv ** (k + 1) * qn)
                    )

                return _series_pass(dps, lambda: mp.one, ratio)

        return _adaptive_eval(pass_fn, prec, guess, cap, f"qbessel(nu={nuf},q={q})")

    return evaluate


def _sign(v):
    if v > 0:
        return 1
    if v < 0:
        return -1
    return 0


def _refine(f, lo, hi, flo, fhi, tol, relative=False):
    """Narrow the sign-change bracket [lo, hi] until it is within tol.

    Anderson-Bjorck bracketed secant (BIT 13, 1973): the bracket invariant
    of plain bisection is kept (so the final width certifies the zero
    location), but simple zeros converge in few evaluations.  When the
    same end is replaced twice running, the kept end's value is scaled
    by m = 1 - f(x)/f(replaced end), or by 1/2 when m <= 0, which
    prevents the one-sided stall of naive regula falsi; flo and fhi keep
    opposite signs throughout, so the secant denominator never vanishes.
    The width goal is hi - lo <= tol, or hi - lo <= tol*lo with
    `relative` (zeros spread over many orders of magnitude), and the
    reported zero is the arithmetic or geometric midpoint to match.
    Each secant point keeps min(width/128, 0.45 goal) from both ends;
    once the secant has settled next to the root, that closing step
    lands across it and leaves a bracket narrower than the goal.  A
    bracket still wider than the goal after the step budget raises
    AccuracyError rather than report its midpoint.
    """
    if _sign(flo) * _sign(fhi) >= 0:
        raise BracketFailureError("bracketed refinement needs a sign change")
    kept = 0
    for _ in range(5000):
        width = hi - lo
        goal = tol * lo if relative else tol
        if width <= goal:
            z = mp.sqrt(lo * hi) if relative else (lo + hi) / 2
            return z, abs(f(z))
        x = (lo * fhi - hi * flo) / (fhi - flo)
        # clamp instead of rejecting: when the proposal hugs an endpoint the
        # root is there too, and a point under half the goal inside it
        # closes the bracket in one step
        pad = min(width / 128, goal * mpf("0.45"))
        if x < lo + pad:
            x = lo + pad
        elif x > hi - pad:
            x = hi - pad
        fx = f(x)
        if fx == 0:
            return x, mp.zero
        if _sign(fx) == _sign(flo):
            if kept == 1:
                fhi *= _anderson_bjorck(fx, flo)
            lo, flo = x, fx
            kept = 1
        else:
            if kept == -1:
                flo *= _anderson_bjorck(fx, fhi)
            hi, fhi = x, fx
            kept = -1
    raise AccuracyError(
        f"bracket [{mp.nstr(lo, 10)}, {mp.nstr(hi, 10)}] still wider than the "
        "goal after the refinement budget"
    )


def _anderson_bjorck(fx, freplaced):
    m = 1 - fx / freplaced
    return m if m > 0 else mpf(1) / 2


def _scan(f, s, fs, advance, budget):
    """Step s -> advance(s) at most `budget` times from fs = f(s).

    Yields (lo, hi, flo, fhi) at every strict sign change.  advance is
    called afresh at each step, so it may read zeros refined meanwhile.
    """
    for _ in range(budget):
        nxt = advance(s)
        fn = f(nxt)
        if _sign(fs) * _sign(fn) < 0:
            yield s, nxt, fs, fn
        s, fs = nxt, fn


def _locate(f, count, tol, start, advance, budget, label, seed=None, spaced=None,
            relative=False, partial=False):
    """First `count` zeros of f, given f > 0 from 0 up to its first zero.

    From the third zero on, zero k comes from `seed(zeros)`, a bracket
    from the family's zero asymptotics (None where the rule has none),
    when three checks hold: the left end lies above zero k-1; the ends
    carry the signs (-1)^(k-1) and -(-1)^(k-1), since f changes sign once
    at each simple zero, so a bracket about zero k+1 fails; and the
    refined zero passes `spaced(zeros, z)`, which costs no evaluation and
    rejects a landing on zero k+2 by comparing it with the last gap or
    ratio.  Otherwise the scan brackets zero k with the family's step
    rule `advance(x, zeros)`: it goes on from its last step, or after a
    seeded zero it restarts one sixteenth of a step past that zero (at
    `start` before the first zero), where f must carry the sign
    (-1)^(k-1).  Each restart walks at most `budget` steps, and no point
    past the count-th zero is evaluated.  An exhausted scan raises
    ScanExhaustedError, or with `partial` ends the list early.
    """
    zeros, residuals = [], []
    scan = None
    while len(zeros) < count:
        k = len(zeros) + 1
        want = 1 if k % 2 == 1 else -1
        located = None
        bracket = seed(zeros) if seed is not None and k > 2 else None
        if bracket is not None and bracket[0] > zeros[-1]:
            lo, hi = bracket
            flo = f(lo)
            if _sign(flo) == want:
                fhi = f(hi)
                if _sign(fhi) == -want:
                    located = _refine(f, lo, hi, flo, fhi, tol, relative)
                    if not spaced(zeros, located[0]):
                        located = None
        if located is not None:
            scan = None
        else:
            if scan is None:
                s = start
                if zeros:
                    s = zeros[-1] + (advance(zeros[-1], zeros) - zeros[-1]) / 16
                fs = f(s)
                if _sign(fs) != want:
                    raise BracketFailureError(f"{label}: sign pattern broken left of zero {k}")
                scan = _scan(f, s, fs, lambda x: advance(x, zeros), budget)
            bracket = next(scan, None)
            if bracket is None:
                if partial:
                    break
                raise ScanExhaustedError(
                    f"{label}: found {len(zeros)} of {count} zeros within the scan budget"
                )
            located = _refine(f, *bracket, tol, relative)
        zeros.append(+located[0])
        residuals.append(+located[1])
    return zeros, residuals


# Seed rules: each proposes a bracket for zero k = len(zeros) + 1, k >= 3.
# Each half-width has a floor of the width goal `tol`, so a bracket never
# collapses where the expansion is exact (nu = 1/2).


def _bessel_seed(nu, zeros, tol):
    """McMahon's expansion (DLMF 10.21.19) through the beta^(-5) term.

    beta = (k + nu/2 - 1/4) pi and mu = 4 nu^2; the half-width is 4x the
    beta^(-7) term, and there is no seed when that is 1 or more.
    """
    mu = 4 * nu * nu
    beta = (len(zeros) + 1 + nu / 2 - mpf(1) / 4) * mp.pi
    w = 1 / (8 * beta)
    w2 = w * w
    series = 1 + w2 * (4 * (7 * mu - 31) / 3 + w2 * 32 * ((83 * mu - 982) * mu + 3779) / 15)
    center = beta - (mu - 1) * w * series
    term7 = 64 * (mu - 1) * (((6949 * mu - 153855) * mu + 1585743) * mu - 6277237) / 105
    half = max(4 * abs(term7) * w2**3 * w, tol)
    if not half < 1:
        return None
    return center - half, center + half


def _bessel_spaced(zeros, z):
    # consecutive Bessel gaps change slowly toward pi, while a landing on
    # zero k+2 spans three gaps
    return z - zeros[-1] < mpf(3) / 2 * (zeros[-1] - zeros[-2])


def _airy_seed(zeros, tol):
    """z_k = 3^(1/3) T(t), t = 3 pi (4k - 1)/8 (DLMF 9.9.6 and 9.9.18).

    T(t) = t^(2/3) (1 + 5/48 u - 5/36 u^2 + 77125/82944 u^3) with
    u = t^(-2); the half-width is 4x the u^4 term.
    """
    t = 3 * mp.pi * (4 * (len(zeros) + 1) - 1) / 8
    u = 1 / (t * t)
    scale = mp.cbrt(3) * t ** (mpf(2) / 3)
    center = scale * (1 + u * (mpf(5) / 48 - u * (mpf(5) / 36 - u * mpf(77125) / 82944)))
    half = max(4 * scale * mpf(108056875) / 6967296 * u**4, tol)
    return center - half, center + half


def _airy_spaced(zeros, z):
    # the gaps between Airy zeros shrink monotonically
    return z - zeros[-1] <= zeros[-1] - zeros[-2]


def _ratio_seed(q, xs, tol):
    """Ratio law x_(k+1)/x_k -> q^(-2) for the zeros of A_q and of the
    q-Bessel series in x = z^2 (Ismail and Zhang, Adv. Math. 209 (2007);
    Hayman, Contemp. Math. 382 (2005)).

    With rho = x_(k-1)/x_(k-2) and eps = rho q^2 - 1 the excess eps
    shrinks about q-fold per zero: the center is x_(k-1) (1 + q eps)/q^2
    and the relative half-width |q eps|/2.
    """
    eps = xs[-1] / xs[-2] * q * q - 1
    center = xs[-1] * (1 + q * eps) / (q * q)
    half = max(abs(q * eps) / 2, tol)
    return center * (1 - half), center * (1 + half)


def _ratio_spaced(q, tol, xs, x):
    # the ratios fall toward q^(-2) from above, so a landing on zero k+2
    # has a ratio above q^(-6); 4 tol covers the located zeros' widths
    return x / xs[-1] < min(xs[-1] / xs[-2] * (1 + 4 * tol), q**-6)


def _check_count(count, cap, prec):
    check_precision(prec)
    if not isinstance(count, int) or count < 1:
        raise DomainError(f"count must be a positive integer, got {count!r}")
    if count > cap:
        raise LimitExceededError(f"count {count} exceeds the cap {cap}")


def bessel_zeros(nu, count, prec=DEFAULT_PREC):
    """First `count` positive zeros of the order-nu Bessel-type series.

    From the third zero on, each bracket is seeded from McMahon's
    expansion (`_bessel_seed`); the seed counts only if its ends carry
    the expected signs and the refined zero's gap to the previous one
    stays below 1.5x the previous gap.  Otherwise, and for the first two
    zeros, a scan in steps of pi/8 from the previous zero brackets it
    (see `_locate`).  Zeros are located to 10^(-prec/2) absolute.

    Values of f(z) = Gamma(nu+1) (2/z)^nu J_nu(z) come from its Taylor
    series below the switch point and from Hankel's expansion with the
    DLMF 10.17(iii) remainder bound above it (about z = 1.1 (prec + 20),
    or every z > 0 for half-odd-integer nu, where the expansion
    terminates); see `_make_bessel_eval`.  Above the switch the Taylor
    series that feeds the Newton routes is not evaluated at all.
    Residuals are |f| at each reported zero on either side.
    """
    _check_count(count, BESSEL_COUNT_CAP, prec)
    with working(prec, 15):
        nuv = to_real(nu, prec)
        if not nuv > -1:
            raise DomainError(f"Bessel order must satisfy nu > -1, got {nu}")
        f = _make_bessel_eval(nuv, prec)
        xtol = mpf(10) ** (-(prec // 2))
        step = mp.pi / 8
        zeros, residuals = _locate(
            f, count, xtol, mpf(1) / 1000, lambda x, _: x + step, 400 * count,
            f"bessel(nu={nu})",
            seed=lambda zs: _bessel_seed(nuv, zs, xtol),
            spaced=_bessel_spaced,
        )
        return ZeroList(
            zeros=tuple(zeros),
            residuals=tuple(residuals),
            family="bessel",
            lambda_mode=MODE_SQUARED,
            precision=prec,
            tol=+xtol,
            tol_kind="absolute",
            note=f"nu = {nu}",
        )


def airy_zeros(count, prec=DEFAULT_PREC):
    """First `count` positive zeros of the Airy-type entire function.

    From the third zero on, each bracket is seeded from the asymptotic
    form of the Airy zeros (`_airy_seed`); the seed counts only if its
    ends carry the expected signs and the refined zero's gap to the
    previous one does not grow.  Otherwise, and for the first two zeros,
    a scan with step 0.35x the last gap (gaps shrink, so no zero can be
    skipped) brackets it.  Bracketed refinement narrows each zero to
    10^(-prec/2).
    """
    _check_count(count, AIRY_COUNT_CAP, prec)
    with working(prec, 15):
        f = _make_airy_eval(prec)
        xtol = mpf(10) ** (-(prec // 2))

        def advance(x, zeros):
            if len(zeros) > 1:
                return x + (zeros[-1] - zeros[-2]) * mpf("0.35")
            return x + (zeros[0] * mpf("0.3") if zeros else mpf("0.6"))

        zeros, residuals = _locate(
            f, count, xtol, mpf(1) / 10, advance, 60 * count + 200, "airy",
            seed=lambda zs: _airy_seed(zs, xtol),
            spaced=_airy_spaced,
        )
        return ZeroList(
            zeros=tuple(zeros),
            residuals=tuple(residuals),
            family="airy",
            lambda_mode=MODE_SQUARED,
            precision=prec,
            tol=+xtol,
            tol_kind="absolute",
        )


def qairy_zeros(q, count, prec=DEFAULT_PREC):
    """First `count` zeros of the q-Airy-type series, 0 < q <= 0.9.

    Zeros grow geometrically (consecutive ratios approach 1/q^2).  From
    the third zero on, each bracket is seeded from that ratio law
    (`_ratio_seed`); the seed counts only if its ends carry the expected
    signs and the new ratio stays below the last ratio and below q^(-6).
    Otherwise, and for the first two zeros, a multiplicative scan with
    ratio sqrt(1/q) brackets it.  Refinement is geometric; accuracy is
    10^(-prec/2) relative, which is what the downstream reciprocal sums
    consume.
    """
    _check_count(count, Q_COUNT_CAP, prec)
    with working(prec, 15):
        qv = to_real(q, prec)
        if not 0 < qv <= mpf("0.9"):
            raise DomainError(f"q must satisfy 0 < q <= 0.9, got {q}")
        f = _make_qairy_eval(qv, prec)
        rtol = mpf(10) ** (-(prec // 2))
        # first zero is at least (1-q)/q (reciprocal of the first sum)
        start = mpf(2) / 5 * (1 - qv) / qv
        ratio = mp.sqrt(1 / qv)
        zeros, residuals = _locate(
            f, count, rtol, start, lambda x, _: x * ratio, 12 * count + 240,
            f"qairy(q={q})",
            seed=lambda zs: _ratio_seed(qv, zs, rtol),
            spaced=lambda zs, z: _ratio_spaced(qv, rtol, zs, z),
            relative=True,
        )
        return ZeroList(
            zeros=tuple(zeros),
            residuals=tuple(residuals),
            family="qairy",
            lambda_mode=MODE_PLAIN,
            precision=prec,
            tol=+rtol,
            tol_kind="relative",
            note=f"q = {q}",
        )


def qbessel_zeros(nu, q, count, prec=DEFAULT_PREC):
    """First `count` positive zeros of the order-nu q-Bessel-type series.

    The reduced series is entire in x = z^2, so zeros are located in x
    and reported as sqrt(x); accuracy is 10^(-prec/2) relative on x.  The
    x-zero ratios approach 1/q^2: from the third zero on, each bracket is
    seeded and checked as in `qairy_zeros`, and otherwise a scan with
    ratio 1/q brackets it.
    """
    _check_count(count, Q_COUNT_CAP, prec)
    with working(prec, 15):
        qv = to_real(q, prec)
        nuv = to_real(nu, prec)
        if not 0 < qv <= mpf("0.9"):
            raise DomainError(f"q must satisfy 0 < q <= 0.9, got {q}")
        if not nuv > -1:
            raise DomainError(f"q-Bessel order must satisfy nu > -1, got {nu}")
        f = _make_qbessel_eval(nuv, qv, prec)
        rtol = mpf(10) ** (-(prec // 2))
        sigma1 = qv ** (nuv + 1) / (4 * (1 - qv) * (1 - qv ** (nuv + 1)))
        start = mpf(2) / 5 / sigma1
        ratio = 1 / qv
        xs, residuals = _locate(
            f, count, rtol, start, lambda x, _: x * ratio, 12 * count + 240,
            f"qbessel(nu={nu},q={q})",
            seed=lambda zs: _ratio_seed(qv, zs, rtol),
            spaced=lambda zs, z: _ratio_spaced(qv, rtol, zs, z),
            relative=True,
        )
        zeros = [mp.sqrt(x) for x in xs]
        return ZeroList(
            zeros=tuple(zeros),
            residuals=tuple(residuals),
            family="qbessel",
            lambda_mode=MODE_SQUARED,
            precision=prec,
            tol=+rtol,
            tol_kind="relative",
            note=f"nu = {nu}, q = {q}; residuals taken on the x = z^2 series",
        )


def _smooth_zero_count(t):
    # smooth critical-line counting term (T/2pi) ln(T/2pi) - T/2pi + 7/8
    x = t / (2 * math.pi)
    return x * math.log(x) - x + 0.875


def _ordinate_for_count(count):
    t = 20.0
    for _ in range(60):
        x = t / (2 * math.pi)
        g = _smooth_zero_count(t) - count
        dg = math.log(x) / (2 * math.pi)
        if dg <= 0:
            t += 5.0
            continue
        t -= g / dg
        t = max(t, 15.0)
    return t


def xi_zeros(count, prec=DEFAULT_PREC, chi=None):
    """First `count` positive ordinates where the cosine transform vanishes.

    Scans [10, T] in 0.5 steps (T from the smooth counting term), refines
    inside the bracket at a calibrated quadrature level, and cross-checks the
    found count against the smooth counting term within +-2, rescanning
    once with a halved step on mismatch.  Only positive ordinates are
    reported.  For a Dirichlet kernel (chi set) the scan starts near 0
    and no counting cross-check is available.
    """
    _check_count(count, XI_COUNT_CAP, prec)
    ev = XiEvaluator(chi=chi, prec=prec, points=48)
    with working(prec, 15):
        if chi is None:
            t_end = _ordinate_for_count(count + 1) + 2.0
            scan_lo = mpf(10)
        else:
            t_end = 18.0 + 3.2 * count
            scan_lo = mpf(1) / 4
        _, bulk_err = ev.calibrate_transform([t_end, t_end / 2, max(12.0, t_end / 5)])

        def f(z):
            return ev.transform_at(z)[0]

        xtol = mpf(10) ** (-(prec // 2))

        def run_scan(step):
            budget = int(float((mpf(t_end) - scan_lo) / step)) + 8
            return _locate(
                f, count, xtol, scan_lo, lambda x, _: x + step, budget, "xi", partial=True
            )

        step = mpf(1) / 2
        zeros, residuals = run_scan(step)
        if chi is None and zeros:
            smooth = _smooth_zero_count(float(zeros[-1]) + 0.01)
            if abs(smooth - len(zeros)) > 2:
                zeros, residuals = run_scan(step / 2)
                smooth = _smooth_zero_count(float(zeros[-1]) + 0.01)
                if abs(smooth - len(zeros)) > 2:
                    raise AccuracyError(
                        f"found {len(zeros)} ordinates but the counting term "
                        f"predicts {smooth:.2f}; zeros were likely missed"
                    )
        if len(zeros) < count:
            raise ScanExhaustedError(
                f"located {len(zeros)} of {count} ordinates below {t_end:.1f}"
            )
        return ZeroList(
            zeros=tuple(zeros),
            residuals=tuple(residuals),
            family="xi" if chi is None else "xi-dirichlet",
            lambda_mode=MODE_SQUARED,
            precision=prec,
            tol=+xtol,
            tol_kind="absolute",
            modulus=1 if chi is None else chi.modulus,
            note=f"transform error bound {mp.nstr(bulk_err, 3)}",
        )


def tail_estimate(zero_list, n, prec=DEFAULT_PREC):
    """Remainder estimate for the order-n power sum beyond the last zero."""
    check_precision(prec)
    if not isinstance(n, int) or n < 1:
        raise DomainError(f"order must be a positive integer, got {n!r}")
    fam = zero_list.family
    with working(prec, 15):
        zs = [to_real(z, prec) for z in zero_list.zeros]
        last = zs[-1]
        if fam == "bessel":
            if len(zs) < 2:
                raise DomainError("bessel tail needs at least two zeros")
            g = min(mp.pi, last - zs[-2])
            value = last ** (1 - 2 * n) / (g * (2 * n - 1))
            return TailEstimate(
                value=+value,
                bound_kind="asymptotic-density",
                confidence_note=(
                    "arithmetic gap model; gap floor from the final computed "
                    "gap and pi (monotone gap behavior)"
                ),
            )
        if fam == "airy":
            k = len(zs)
            c = last / mpf(k) ** (mpf(2) / 3)
            value = 3 * c ** (-2 * n) * mpf(k) ** (-(4 * n - 3) / mpf(3)) / (4 * n - 3)
            return TailEstimate(
                value=+value,
                bound_kind="asymptotic-density",
                confidence_note=(
                    "two-thirds-power growth with empirical constant "
                    "c = z_K / K^(2/3); the constant grows with K, so the "
                    "integral bound is conservative"
                ),
            )
        if fam in ("qairy", "qbessel"):
            if len(zs) < 3:
                raise DomainError("geometric tail needs at least three zeros")
            lam = zero_list.lambdas()
            rho = lam[-1] / lam[-2]
            drift = abs(rho / (lam[-2] / lam[-3]) - 1)
            rho_adj = rho * (1 + 3 * drift)
            if not rho_adj < 1:
                raise AccuracyError("zero ratios have not entered the geometric regime")
            value = lam[-1] ** n * rho_adj**n / (1 - rho_adj**n)
            return TailEstimate(
                value=+value,
                bound_kind="geometric-ratio",
                confidence_note=(
                    "last reciprocal-zero ratio, inflated by 3x its final "
                    "drift to cover monotone convergence of the ratios"
                ),
            )
        if fam in ("xi", "xi-dirichlet"):
            # ordinate density at height t is log(m t / 2 pi) / 2 pi
            base = last ** (1 - 2 * n) / (2 * mp.pi)
            value = base * (
                mp.log(zero_list.modulus * last / (2 * mp.pi)) / (2 * n - 1)
                + mpf(1) / (2 * n - 1) ** 2
            )
            value *= mpf("1.15")
            return TailEstimate(
                value=+value,
                bound_kind="asymptotic-density",
                confidence_note=(
                    "critical-line density integral (smooth counting term with "
                    "the conductor), inflated 15% to cover ordinate fluctuations"
                ),
            )
    raise DomainError(f"no tail model for family {fam!r}")


def truncated_power_sum(zero_list, n, exponent_mode=None, prec=DEFAULT_PREC, tail=None):
    """Order-n power sum over the computed zeros with a two-part bound.

    exponent_mode "squared" sums 1/zero^(2n), "plain" sums 1/zero^n;
    None takes the mode the zero list was built with.  Terms are
    accumulated smallest first (descending zeros).  error_bound is the
    tail estimate plus the propagated zero-location uncertainty (with a
    2x margin), since at large counts the partial sum's own accuracy,
    not the tail, limits the bracket.  The true sum is expected to lie
    in [estimate - error_bound, estimate + error_bound], and because
    truncation always undershoots, in practice in
    [estimate, estimate + error_bound].
    """
    check_precision(prec)
    if not isinstance(n, int) or n < 1:
        raise DomainError(f"order must be a positive integer, got {n!r}")
    if exponent_mode is None:
        exponent_mode = zero_list.lambda_mode
    if exponent_mode not in (MODE_SQUARED, MODE_PLAIN):
        raise DomainError(f"unknown exponent mode {exponent_mode!r}")
    if tail is None:
        tail = tail_estimate(zero_list, n, prec)
    with working(prec, 15):
        power = 2 * n if exponent_mode == MODE_SQUARED else n
        acc = mp.zero
        location = mp.zero
        for z in reversed(zero_list.zeros):
            zv = to_real(z, prec)
            term = zv ** (-power)
            acc += term
            if zero_list.tol is not None:
                rel = zero_list.tol / zv if zero_list.tol_kind == "absolute" else zero_list.tol
                location += power * rel * term
        return TruncatedPowerSum(
            estimate=+acc,
            error_bound=+(tail.value + 2 * location),
            order=n,
            tail=tail,
            family=zero_list.family,
        )
