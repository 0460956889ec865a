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

Every series the oracle evaluates is summed by one fixed-point term
engine (`_fixed_pass`) on Python integers scaled by 2^wp, wp the
working bits plus guard bits, the way mpmath sums its own elementary
series (Brent and Zimmermann, Modern Computer Arithmetic, ch. 4).  Each
family gives its term ratio as integer operations: exact ratios for
Bessel, Airy and Hankel, running products of q^(2k+1) and q^(k+1) for
the q-families.  Each pass also returns a bound on its own rounding
error.  Series evaluation near large zeros loses digits to
alternating-series cancellation.  Each evaluator starts from a
per-family loss estimate, measures the cancellation it actually met
(largest term over result), and retries with more working digits until
both the cancellation and the rounding bound leave the surviving
precision certified, giving up only past a per-family budget cap.

The Bessel family is the exception at large z: there each value comes
from Hankel's asymptotic expansion, whose remainder DLMF 10.17(iii)
bounds by the first neglected term (real order, z > 0), used wherever
that bound plus rounding leaves the same surviving digits the series
would have to certify.  Above that switch point the oracle no longer
evaluates the Taylor series whose coefficients feed the Newton routes,
so there it shares nothing with them but the function itself.

Each family's count cap, lambda mode, tolerance kind and tail model sit
in one record of `_FAMILIES`, keyed by `ZeroList.family`; a zero list,
the locators, `tail_estimate` and `truncated_power_sum` read them only
from there, so a list's family alone fixes how it is summed.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import namedtuple
from dataclasses import dataclass

from mpmath import libmp, mp, mpf

from .errors import (
    AccuracyError,
    BracketFailureError,
    DomainError,
    PrecisionExhaustedError,
    ScanExhaustedError,
)
from .precision import (
    DEFAULT_PREC, check_integer, check_nu, check_order, check_precision, check_q,
    fixed_point_bits, to_real, working,
)
from .zeta import XiEvaluator

BESSEL_COUNT_CAP = 500
AIRY_COUNT_CAP = 200
Q_COUNT_CAP = 200
XI_COUNT_CAP = 50
Q_MAX = "0.9"  # the q-families' locators take 0 < q <= Q_MAX

MODE_SQUARED = "squared"
MODE_PLAIN = "plain"

_LOG10E = 0.4342944819032518
_LOG10_2 = math.log10(2)


@dataclass(frozen=True)
class ZeroList:
    """Positive zeros in ascending order with residual magnitudes.

    family keys the list's record in `_FAMILIES`, which fixes the power
    its sums take (lambda_mode) and how tol, a positive finite real,
    localizes each zero (tol_kind): "absolute" means z is within tol of
    the true zero, "relative" means within tol*z.  Downstream sums
    propagate this into their bounds.
    """

    zeros: tuple
    residuals: tuple
    family: str
    precision: int
    tol: object
    modulus: int = 1
    note: str = ""

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise DomainError(f"unknown zero-list family {self.family!r}")
        if len(self.zeros) != len(self.residuals):
            raise DomainError("zeros and residuals must have equal length")
        if not self.zeros:
            raise DomainError("zero list is empty")
        real = isinstance(self.tol, (int, float, mpf)) and not isinstance(self.tol, bool)
        if not (real and 0 < self.tol < mp.inf):
            raise DomainError(f"tol must be a positive finite real, got {self.tol!r}")
        check_integer(self.modulus, "modulus", 1)
        prev = 0
        for z in self.zeros:
            if not z > prev:
                raise DomainError("zeros must be strictly increasing and positive")
            prev = z

    @property
    def lambda_mode(self):
        return _FAMILIES[self.family].mode

    @property
    def tol_kind(self):
        return _FAMILIES[self.family].tol_kind

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


def _log10(x):
    """log10 |x| of a nonzero finite mpf, in floating point."""
    man, exp = x.man_exp
    return math.log10(abs(man)) + exp * _LOG10_2


def _digits(value, err):
    """log10 (|value| / err): the digits of value that survive err."""
    if value == 0 or err == mp.inf:
        return -math.inf
    if err == 0:
        return math.inf
    return _log10(value) - _log10(err)


_Goals = namedtuple("_Goals", "width start need")


@functools.lru_cache(maxsize=None)
def _goals(prec):
    """The oracle's digit rules at `prec` target digits: the width goal of
    every located zero (absolute, or relative for the q-families), taken
    at the locators' prec + 15 digits; the working digits every
    evaluation starts from; and the digits a value must keep through
    cancellation and rounding to be certified."""
    with working(prec, 15):
        width = mpf(10) ** (-(prec // 2))
    return _Goals(width, prec + 20, prec / 2 + 8)


def _adaptive_eval(pass_fn, prec, guess_digits, cap_digits, label):
    """Run a fixed-precision series pass with measured-cancellation retries.

    pass_fn(dps) returns (total, maxmag, nterms, err).  The value is
    certified once the cancellation it met (largest term over result)
    leaves _goals(prec).need of the dps working digits and its rounding
    bound err leaves as many.
    """
    _, start, need = _goals(prec)
    dps = start + max(0, int(guess_digits))
    cap = prec + 40 + max(0, int(cap_digits))
    if dps > cap:
        raise PrecisionExhaustedError(
            f"{label}: expected cancellation {int(guess_digits)} digits "
            f"exceeds the budget cap {cap}"
        )
    for _ in range(12):
        total, maxmag, _, err = pass_fn(dps)
        if total == 0:
            lost = float(dps)
        else:
            lost = _log10(maxmag) - _log10(total) if maxmag > 0 else 0.0
        if dps - lost >= need and _digits(total, err) >= need:
            return total
        dps = max(dps + 10, int(lost) + prec // 2 + 24)
        if dps > cap:
            raise PrecisionExhaustedError(
                f"{label}: cancellation needs {dps} working digits, cap {cap}"
            )
    raise PrecisionExhaustedError(f"{label}: evaluation did not stabilize")


# The term engine.  Every oracle series is summed on Python ints scaled
# by 2^wp, wp = fixed_point_bits(dps): term k + 1 is
# floor(t_k num_k 2^-shift / den_k), where each family gives its term
# ratio as a generator of the integers num_k and den_k, a shift, and for
# ratios built from rounded running products a bound on their drift.

_TERM_CAP = 1_000_000


def _mpf(n, exp, bits, rnd=libmp.round_nearest):
    """n * 2^exp rounded to `bits` bits."""
    return mp.make_mpf(libmp.from_man_exp(n, exp, bits, rnd))


def _parts(x):
    """Exact signed (mantissa, exponent) of an mpf."""
    man, exp = x.man_exp  # the mantissa of man_exp carries no sign
    return (-man if x < 0 else man), exp


def _shift(n, s):
    # n * 2^s, floored when s < 0
    return n << s if s >= 0 else n >> -s


def _fixed_pass(wp, dps, head, ratios, shift=0, e0=0, drift=0):
    """Sum head + t_1 + ... in fixed point, t_(k+1) = floor(t_k num_k 2^-shift / den_k).

    Terms are integers in units of 2^-wp.  With `dps` given the pass
    stops after the first term below 10^(2 - dps) times the largest so
    far; with dps = None it sums every ratio `ratios` yields.  Returns
    (total, maxmag, size, n, last, err): the sum, the largest term, the
    sum of |terms|, the number of ratios applied, the last term, and a
    bound on |total - exact sum of the same n + 1 terms| (None where the
    bound does not apply), all in units of 2^-wp.

    The bound assumes: the exact head lies within e0 of `head`; each
    num_k 2^-shift / den_k differs from the exact ratio r_k by at most
    (k + 2) drift 2^-wp (1 + |r_k|) (drift = 0 for exact ratios); and the
    exact |r_k| exceed 1 only on a prefix of k, so the terms rise, then
    fall.  Each floor errs by under one unit, and an error made at term m
    reaches term k multiplied by |t_k / t_m| <= max(1, |t_k / t_0|); the
    shift and the division make one floor, as den_k > 0.
    Summing these (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., ch. 3) gives, with S = size and T = |head| - e0,
        err <= (e0 + n) S / T + n (n + 1)/2 + 4 drift n (n + 2) S / 2^wp,
    once the coefficients of S add to at most 1/4; the factor 2 applied
    below covers the difference between exact and computed terms in S.
    """
    cut = 0 if dps is None else 10 ** (dps - 2)
    t = total = head
    maxmag = size = abs(head)
    n = 0
    small = None  # (maxmag - 1) // cut: terms up to this are below the cut
    for num, den in ratios:
        t = (t * num >> shift) // den
        total += t
        mag = t if t >= 0 else -t
        size += mag
        n += 1
        if mag > maxmag:
            maxmag, small = mag, None
        elif cut:
            if small is None:
                small = (maxmag - 1) // cut
            if mag <= small:
                break
    else:
        if cut:
            raise AccuracyError("series pass exceeded the term cap")
    low = abs(head) - e0
    if low <= 0:
        err = 0 if head == 0 and e0 == 0 else None
    elif 4 * ((e0 + n) << wp) + 16 * drift * n * (n + 2) * low > low << wp:
        err = None
    else:
        err = 2 * (
            -(-(e0 + n) * size // low)
            + n * (n + 1) // 2
            + (4 * drift * n * (n + 2) * size >> wp)
            + 1
        )
    return total, maxmag, size, n, t, err


def _series_result(wp, dps, total, maxmag, n, err, exp=0):
    """The pass contract (total, maxmag, nterms, err) as mpf at dps digits.

    Integers are in units of 2^(exp - wp); the rounding of total to dps
    digits is added to err, which is rounded up.
    """
    bits = libmp.dps_to_prec(dps)
    if err is None:
        err_v = mp.inf
    else:
        err_v = _mpf(err + (abs(total) >> (bits - 1)) + 1, exp - wp, bits, libmp.round_ceiling)
    return _mpf(total, exp - wp, bits), _mpf(maxmag, exp - wp, bits), n, err_v


def _bessel_pass(nu, z, dps):
    """Normalized Bessel Taylor series sum_k (-(z/2)^2)^k / (k! (nu+1)_k).

    Its ratios -(z/2)^2 / (k (nu + k)) are exact: with nu = nun / 2^s
    and z = zm 2^ze each is -zm^2 2^-shift / (k (nun + k 2^s)).
    """
    wp = fixed_point_bits(dps)
    nm, ne = _parts(nu)
    s = max(0, -ne)
    nun = nm << max(0, ne)
    zm, ze = _parts(z)
    num, shift = -zm * zm, 2 - 2 * ze - s
    if shift < 0:
        num, shift = num << -shift, 0
    ratios = ((num, k * (nun + (k << s))) for k in range(1, _TERM_CAP))
    total, maxmag, _, n, _, err = _fixed_pass(wp, dps, 1 << wp, ratios, shift)
    return _series_result(wp, dps, total, maxmag, n, err)


def _bessel_series(nu, z, prec):
    """Taylor series of the normalized Bessel function, cancellation-certified."""
    zf = abs(float(z))
    guess = 0.45 * zf + 6
    cap = max(prec, 2 * zf * _LOG10E + prec / 2)
    return _adaptive_eval(
        lambda dps: _bessel_pass(nu, z, dps), prec, guess, cap, f"bessel(nu={float(nu)})"
    )


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
    (DLMF 10.17.3).  P and Q are summed by the term engine to `length`
    terms each, over the exact ratio between Hankel's terms k and k + 2,
    -(mu - (2k+1)^2)(mu - (2k+3)^2) / (64 (k+1)(k+2) z^2) with mu = 4 nu^2,
    which carries their alternating signs.  Returns (value, digits):
    digits is log10 of |P cos w - Q sin w| over its error bound, which
    adds the first neglected term of each sum (DLMF 10.17(iii), real nu,
    z > 0) and the engine's bounds on P and Q to a rounding bound at
    `dps` working digits.
    """
    bits = libmp.dps_to_prec(dps)
    wp = fixed_point_bits(dps)
    nm, ne = _parts(nu)
    mu, s = nm * nm, -2 * ne - 2  # 4 nu^2 = mu / 2^s
    if s < 0:
        mu, s = mu << -s, 0
    zm, ze = _parts(z)
    zz, shift = zm * zm, 2 * s + 2 * ze + 6
    up, shift = max(0, -shift), max(0, shift)
    # Q's head (mu - 1) / (8 z) is q_num / (zm 2^(s + 3 + ze)), floored
    q_num, sh = mu - (1 << s), wp - s - 3 - ze
    q_head = (q_num << sh) // zm if sh >= 0 else q_num // (zm << -sh)
    sums, size, tails, err = [], 0, 0, 0
    for head, e0, k in ((1 << wp, 0, 0), (q_head, int(q_num != 0), 1)):
        ratios = (
            (-(mu - ((2 * j + 1) ** 2 << s)) * (mu - ((2 * j + 3) ** 2 << s)) << up,
             (j + 1) * (j + 2) * zz)
            for j in range(k, _TERM_CAP, 2)
        )
        total, _, part, _, last, bound = _fixed_pass(
            wp, None, head, itertools.islice(ratios, length - 1), shift, e0
        )
        if bound is None:
            return mp.zero, -math.inf
        num, den = next(ratios)
        sums.append(_mpf(total, -wp, bits))
        tails += abs((last * num >> shift) // den) + 2
        size += part
        err += bound
    p, q = sums
    with mp.workdps(dps):
        zv = +z
        tail = _mpf(tails, -wp, bits, libmp.round_ceiling)
        size_v = _mpf(size, -wp, bits) + tail
        w = zv - (nu / 2 + mpf(1) / 4) * mp.pi
        cos_w, sin_w = mp.cos_sin(w)
        combo = p * cos_w - q * sin_w
        eps = mpf(10) ** (2 - dps)
        err = tail + _mpf(err, -wp, bits, libmp.round_ceiling) + eps * (
            (abs(w) + abs(nu) + 4) * (abs(p) + abs(q)) + 4 * (length + 1) * size_v
        )
        digits = _digits(combo, err)
        if combo == 0:
            return combo, digits
        return scale(dps) * zv ** (-(nu + mpf(1) / 2)) * combo, digits


def _make_bessel_eval(nu, prec):
    """Normalized Bessel series f(z) = Gamma(nu+1) (2/z)^nu J_nu(z).

    At each z > 0 Hankel's expansion is tried first.  It is used only when
    its certified error (DLMF 10.17(iii) remainder, the term engine's
    bounds on P and Q, plus rounding) leaves the surviving digits that
    `_adaptive_eval` demands of the Taylor series (`_goals`), with up to
    three working-digit raises; otherwise the call falls back to the
    Taylor series, summed by the same engine.  The switch is thus decided
    per call; for orders that are not half odd integers it falls near
    z = 1.1 (prec + 20), where the expansion's smallest term first drops
    below the working epsilon.  For half-odd-integer orders the expansion
    terminates (for nu = 1/2 it is sqrt(2/(pi z)) sin z), its remainder
    is zero and it serves every z > 0.
    """
    nuf = float(nu)
    goals = _goals(prec)
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
            dps = goals.start
            for _ in range(3):
                length = _hankel_length(nuf, zf, dps)
                if length is None:
                    break
                value, digits = _hankel_pass(nu, z, dps, length, scale)
                if digits >= goals.need:
                    return value
                dps += int(min(goals.need - digits, dps)) + 10
        return _bessel_series(nu, z, prec)

    return evaluate


def _airy_heads(wp):
    """pi / (3 Gamma(2/3)) and pi / (9 Gamma(4/3)) in units of 2^-wp, each
    within 2 units."""
    with mp.workprec(wp + 20):
        heads = (mp.pi / (3 * mp.gamma(mpf(2) / 3)), mp.pi / (9 * mp.gamma(mpf(4) / 3)))
    return tuple(_shift(man, exp + wp) for man, exp in map(_parts, heads))


def _airy_pass(z, dps, heads):
    """f(z) = (pi/3^(1/3)) Ai(-z/3^(1/3)) = L1 + z L2 as two lanes.

    L1 sums c1 (-z^3/9)^k / (k! prod_(j<=k) (3j - 1)) and L2 sums
    c2 (-z^3/9)^k / (k! prod_(j<=k) (3j + 1)), with the heads c1, c2 that
    heads(wp) gives (`_airy_heads`).  The lane ratios, -z^3 / (9 k (3k - 1))
    and -z^3 / (9 k (3k + 1)), are exact; each lane stops by its own cut,
    and z L2 is formed exactly on the integers.
    """
    wp = fixed_point_bits(dps)
    zm, ze = _parts(z)
    num, shift = -zm**3, -3 * ze
    if shift < 0:
        num, shift = num << -shift, 0
    lanes = []
    for head, sign in zip(heads(wp), (-1, 1)):
        # each lane's generator is used up before `sign` moves on
        ratios = ((num, 9 * k * (3 * k + sign)) for k in range(1, _TERM_CAP))
        lanes.append(_fixed_pass(wp, dps, head, ratios, shift, e0=2))
    (s1, m1, _, n1, _, e1), (s2, m2, _, n2, _, e2) = lanes
    up, down = max(ze, 0), max(-ze, 0)  # units of 2^(min(ze, 0) - wp)
    total = (s1 << down) + (zm * s2 << up)
    maxmag = max(m1 << down, abs(zm) * m2 << up)
    err = None if e1 is None or e2 is None else (e1 << down) + (abs(zm) * e2 << up)
    return _series_result(wp, dps, total, maxmag, n1 + n2, err, min(ze, 0))


def _make_airy_eval(prec):
    """Series of f(z) = (pi/3^(1/3)) Ai(-z/3^(1/3)).

    The lane heads are computed once, 256 bits above the working
    precision first asked for, and floored to each lower precision:
    floor(floor(c 2^W) / 2^(W - wp)) = floor(c 2^wp).  They are computed
    afresh only when a pass needs more bits.
    """
    top, top_heads = 0, ()

    def heads(wp):
        nonlocal top, top_heads
        if wp > top:
            top = wp + 256
            top_heads = _airy_heads(top)
        return tuple(h >> (top - wp) for h in top_heads)

    def evaluate(z):
        zf = abs(float(z))
        loss = 2 * (zf / 3) ** 1.5 * _LOG10E
        guess = loss + 6
        cap = 1.6 * loss + prec
        return _adaptive_eval(lambda dps: _airy_pass(z, dps, heads), prec, guess, cap, "airy")

    return evaluate


def _qairy_pass(q, z, dps):
    """q-Airy series sum_k (-z)^k q^(k^2) / (q; q)_k.

    Its ratios -z q^(2k+1) / (1 - q^(k+1)) come from running products
    of z q^(2k+1) and q^(k+1) in units of 2^-wp, each step floored, so
    the k-th of each is within k + 1 units.  As 1 - q^(k+1) >= 1 - q,
    the ratio errors are within (k + 1)(1 + |r_k|) 2^-wp / (1 - q).
    """
    wp = fixed_point_bits(dps)
    one = 1 << wp
    qm, qe = _parts(q)  # 0 < q < 1, so qe < 0
    zm, ze = _parts(z)
    q1, q2 = _shift(qm, qe + wp), qm * qm

    def ratios(zq, qk):
        for _ in range(_TERM_CAP):
            yield -zq, one - qk
            zq = zq * q2 >> -2 * qe
            qk = qk * qm >> -qe

    drift = -(-one // (one - q1))
    total, maxmag, _, n, _, err = _fixed_pass(
        wp, dps, one, ratios(_shift(zm * qm, ze + qe + wp), q1), drift=drift
    )
    return _series_result(wp, dps, total, maxmag, n, err)


def _make_qairy_eval(q, prec):
    lq = -math.log(float(to_real(q, 30)))

    def evaluate(z):
        zf = max(abs(float(z)), 1.0)
        loss = _LOG10E * (math.log(zf) ** 2) / (4 * lq)
        guess = loss + 8
        cap = 3 * loss + prec + 40
        return _adaptive_eval(
            lambda dps: _qairy_pass(q, z, dps), prec, guess, cap, f"qairy(q={q})"
        )

    return evaluate


def _qbessel_pass(q, qn, x, dps):
    """q-Bessel series in x = z^2 with qn = q^nu (to wp + 20 bits).

    Its ratios -x q^nu q^(2k+1) / (4 (1 - q^(k+1)) (1 - q^(nu+k+1))) come
    from running products of x q^nu q^(2k+1) / 4, q^(k+1) and
    q^(nu+k+1) in units of 2^-wp, each step floored, so the k-th of each
    is within k + 2 units.  As the denominator is at least
    D_0 = (1 - q)(1 - q^(nu+1)), the ratio errors are within
    2 (k + 2)(1 + |r_k|) 2^-wp / D_0, plus the relative error of qn.
    """
    wp = fixed_point_bits(dps)
    one = 1 << wp
    qm, qe = _parts(q)
    nm, ne = _parts(qn)
    xm, xe = _parts(x)
    q1, w1, q2 = _shift(qm, qe + wp), _shift(qm * nm, qe + ne + wp), qm * qm

    def ratios(zq, qk, wk):
        for _ in range(_TERM_CAP):
            yield -zq << wp, (one - qk) * (one - wk)
            zq = zq * q2 >> -2 * qe
            qk = qk * qm >> -qe
            wk = wk * qm >> -qe

    drift = -(-2 * one * one // ((one - q1) * (one - w1))) + 1
    zq = _shift(xm * qm * nm, xe + qe + ne - 2 + wp)
    total, maxmag, _, n, _, err = _fixed_pass(
        wp, dps, one, ratios(zq, q1, w1), drift=drift
    )
    return _series_result(wp, dps, total, maxmag, n, err)


def _q_power(q, nu, dps):
    """q^nu to 20 bits past the engine's working bits at dps."""
    with mp.workprec(fixed_point_bits(dps) + 20):
        return q**nu


def _make_qbessel_eval(nu, q, prec):
    """q-Bessel series in x; log q and q^nu (per working precision) are
    computed once."""
    nuf = float(nu)
    lqf = math.log(float(to_real(q, 30)))
    powers = {}

    def evaluate(x):
        u = max(math.log(max(abs(float(x)), 1.0) / 4) + nuf * lqf, 0.0)
        loss = _LOG10E * u * u / (4 * -lqf)
        guess = loss + 8
        cap = 3 * loss + prec + 40

        def pass_fn(dps):
            if dps not in powers:
                powers[dps] = _q_power(q, nu, dps)
            return _qbessel_pass(q, powers[dps], x, dps)

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


# Tail models: each estimates sum_(k > K) z_k^-p beyond the K computed
# zeros zs of zero_list for the power p its family sums, p = 2n for the
# squared families and n for q-Airy, so every such sum converges.


def _gap_tail(zero_list, zs, p):
    if len(zs) < 2:
        raise DomainError("bessel tail needs at least two zeros")
    last = zs[-1]
    g = min(mp.pi, last - zs[-2])
    return last ** (1 - p) / (g * (p - 1))


def _airy_tail(zero_list, zs, p):
    # z_k ~ c k^(2/3), so the terms fall as k^(-2p/3)
    k = len(zs)
    c = zs[-1] / mpf(k) ** (mpf(2) / 3)
    return 3 * c ** (-p) * mpf(k) ** (-(2 * p - 3) / mpf(3)) / (2 * p - 3)


def _ratio_tail(zero_list, zs, p):
    if len(zs) < 3:
        raise DomainError("geometric tail needs at least three zeros")
    lam = zero_list.lambdas()
    rho = lam[-1] / lam[-2]
    drift = abs(rho / (lam[-2] / lam[-3]) - 1)
    rho_adj = rho * (1 + 3 * drift)
    if not rho_adj < 1:
        raise AccuracyError("zero ratios have not entered the geometric regime")
    e = mpf(p) / 2 if zero_list.lambda_mode == MODE_SQUARED else p  # z^-p = lam^e
    return lam[-1] ** e * rho_adj**e / (1 - rho_adj**e)


def _density_tail(zero_list, zs, p):
    # ordinate density at height t is log(m t / 2 pi) / 2 pi
    last = zs[-1]
    base = last ** (1 - p) / (2 * mp.pi)
    value = base * (
        mp.log(zero_list.modulus * last / (2 * mp.pi)) / (p - 1) + mpf(1) / (p - 1) ** 2
    )
    return value * mpf("1.15")


# One record per ZeroList.family.  It holds no seed, spacing or scan rule:
# those stay in the locators, where tests replace them by module name.
_Family = namedtuple("_Family", "cap mode tol_kind tail bound_kind note")
_FAMILIES = {
    "bessel": _Family(
        BESSEL_COUNT_CAP, MODE_SQUARED, "absolute", _gap_tail, "asymptotic-density",
        "arithmetic gap model; gap floor from the final computed gap and pi "
        "(monotone gap behavior)",
    ),
    "airy": _Family(
        AIRY_COUNT_CAP, MODE_SQUARED, "absolute", _airy_tail, "asymptotic-density",
        "two-thirds-power growth with empirical constant c = z_K / K^(2/3); the "
        "constant grows with K, so the integral bound is conservative",
    ),
    "qairy": _Family(
        Q_COUNT_CAP, MODE_PLAIN, "relative", _ratio_tail, "geometric-ratio",
        "last reciprocal-zero ratio, inflated by 3x its final drift to cover "
        "monotone convergence of the ratios",
    ),
    "xi": _Family(
        XI_COUNT_CAP, MODE_SQUARED, "absolute", _density_tail, "asymptotic-density",
        "critical-line density integral (smooth counting term with the "
        "conductor), inflated 15% to cover ordinate fluctuations",
    ),
}
_FAMILIES["qbessel"] = _FAMILIES["qairy"]._replace(mode=MODE_SQUARED)


def _check_count(count, family, prec):
    check_precision(prec)
    check_integer(count, "count", 1, cap=_FAMILIES[family].cap)


def _zero_list(family, zeros, residuals, prec, tol, note="", modulus=1):
    return ZeroList(
        zeros=tuple(zeros), residuals=tuple(residuals), family=family, precision=prec,
        tol=+tol, modulus=modulus, note=note,
    )


def _ratio_locate(f, count, q, tol, start, ratio, label):
    """`_locate` under the q-families' rules: ratio-law seeds and spacing
    checks, relative width goals, and a scan multiplying by `ratio`."""
    return _locate(
        f, count, tol, start, lambda x, _: x * ratio, 12 * count + 240, label,
        seed=lambda zs: _ratio_seed(q, zs, tol),
        spaced=lambda zs, z: _ratio_spaced(q, tol, zs, z),
        relative=True,
    )


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
    _check_count(count, "bessel", prec)
    with working(prec, 15):
        nuv = check_nu(nu, prec)
        f = _make_bessel_eval(nuv, prec)
        xtol = _goals(prec).width
        step = mp.pi / 8
        zeros, residuals = _locate(
            f, count, xtol, mpf(1) / 1000, lambda x, _: x + step, 400 * count,
            f"bessel(nu={nu})",
            seed=lambda zs: _bessel_seed(nuv, zs, xtol),
            spaced=_bessel_spaced,
        )
        return _zero_list("bessel", zeros, residuals, prec, xtol, f"nu = {nu}")


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
    _check_count(count, "airy", prec)
    with working(prec, 15):
        f = _make_airy_eval(prec)
        xtol = _goals(prec).width

        def advance(x, zeros):
            if len(zeros) > 1:
                return x + (zeros[-1] - zeros[-2]) * mpf("0.35")
            return x + (zeros[0] * mpf("0.3") if zeros else mpf("0.6"))

        zeros, residuals = _locate(
            f, count, xtol, mpf(1) / 10, advance, 60 * count + 200, "airy",
            seed=lambda zs: _airy_seed(zs, xtol),
            spaced=_airy_spaced,
        )
        return _zero_list("airy", zeros, residuals, prec, xtol)


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
    _check_count(count, "qairy", prec)
    with working(prec, 15):
        qv = check_q(q, prec, Q_MAX)
        f = _make_qairy_eval(qv, prec)
        rtol = _goals(prec).width
        # first zero is at least (1-q)/q (reciprocal of the first sum)
        start = mpf(2) / 5 * (1 - qv) / qv
        zeros, residuals = _ratio_locate(
            f, count, qv, rtol, start, mp.sqrt(1 / qv), f"qairy(q={q})"
        )
        return _zero_list("qairy", zeros, residuals, prec, rtol, f"q = {q}")


def qbessel_zeros(nu, q, count, prec=DEFAULT_PREC):
    """First `count` positive zeros of the order-nu q-Bessel-type series.

    The reduced series is entire in x = z^2, so zeros are located in x
    and reported as sqrt(x); accuracy is 10^(-prec/2) relative on x.  The
    x-zero ratios approach 1/q^2: from the third zero on, each bracket is
    seeded and checked as in `qairy_zeros`, and otherwise a scan with
    ratio 1/q brackets it.
    """
    _check_count(count, "qbessel", prec)
    with working(prec, 15):
        qv = check_q(q, prec, Q_MAX)
        nuv = check_nu(nu, prec, "q-Bessel")
        f = _make_qbessel_eval(nuv, qv, prec)
        rtol = _goals(prec).width
        sigma1 = qv ** (nuv + 1) / (4 * (1 - qv) * (1 - qv ** (nuv + 1)))
        start = mpf(2) / 5 / sigma1
        xs, residuals = _ratio_locate(
            f, count, qv, rtol, start, 1 / qv, f"qbessel(nu={nu},q={q})"
        )
        return _zero_list(
            "qbessel", [mp.sqrt(x) for x in xs], residuals, prec, rtol,
            f"nu = {nu}, q = {q}; residuals taken on the x = z^2 series",
        )


def _smooth_zero_count(t, m, c):
    # smooth counting term (t/2pi) ln(m t/2pi) - t/2pi + c (Davenport, ch. 16)
    x = t / (2 * math.pi)
    return x * math.log(m * x) - x + c


def _ordinate_for_count(count, m, c):
    # the clamp keeps m t/2pi > 1, where the count rises
    t = 20.0
    for _ in range(60):
        x = t / (2 * math.pi)
        g = _smooth_zero_count(t, m, c) - count
        dg = math.log(m * x) / (2 * math.pi)
        t = max(t - g / dg, 15.0 / m)
    return t


def xi_zeros(count, prec=DEFAULT_PREC, chi=None):
    """First `count` positive ordinates where the cosine transform vanishes.

    One scan serves zeta (chi None) and L(s, chi) of conductor m and
    parity a, sized by the smooth count N(t) = (t/2pi) ln(m t/2pi) -
    t/2pi + c, with c = 7/8 for zeta and (2a - 1)/8 for L(s, chi).  It
    runs from 10 (zeta has no zero below 14.13) or 0 (L) to N^-1(count +
    1) + 2 in steps of min(1/2, s/4), s = 2pi / ln(max(m x/2pi, e)) the
    mean spacing, and refines each bracket with one trapezoid sweep per
    evaluation.  Unless found - N lies in [-1, 2] just above the last
    ordinate, it rescans once at half the step, then raises AccuracyError.
    |S(t)| can exceed 1, so this check is an estimate, not a proof.
    """
    _check_count(count, "xi", prec)
    ev = XiEvaluator(chi=chi, prec=prec)
    # (conductor, counting constant, scan start); zeta's pole adds 1 to c
    m, c, scan_lo = (1, 0.875, 10) if chi is None else (chi.modulus, (2 * chi.parity - 1) / 8, 0)
    with working(prec, 15):
        t_end = _ordinate_for_count(count + 1, m, c) + 2.0
        _, bulk_err = ev.calibrate_transform(t_end)

        def f(z):
            return ev.transform_at(z)[0]

        def step(x, scale):
            spacing = 2 * math.pi / math.log(max(m * float(x) / (2 * math.pi), math.e))
            return scale * min(0.5, spacing / 4)

        def excess(zeros):
            # found minus the smooth count just above the last ordinate
            return len(zeros) - _smooth_zero_count(float(zeros[-1]) + 0.01, m, c)

        xtol = _goals(prec).width
        for scale in (1, 0.5):
            budget = int((t_end - scan_lo) / step(t_end, scale)) + 8
            zeros, residuals = _locate(
                f, count, xtol, mpf(scan_lo), lambda x, _: x + step(x, scale), budget, "xi",
                partial=True,
            )
            if not zeros or -1 <= excess(zeros) <= 2:
                break
        else:
            raise AccuracyError(
                f"found {len(zeros)} ordinates, {excess(zeros):+.2f} off the counting "
                "term; zeros were likely missed"
            )
        if len(zeros) < count:
            raise ScanExhaustedError(
                f"located {len(zeros)} of {count} ordinates below {t_end:.1f}"
            )
        return _zero_list(
            "xi", zeros, residuals, prec, xtol,
            f"transform error bound {mp.nstr(bulk_err, 3)}", m,
        )


def _power(zero_list, n):
    # the p of the sum of zero^-p that is the list's order-n power sum
    return 2 * n if zero_list.lambda_mode == MODE_SQUARED else n


def tail_estimate(zero_list, n, prec=DEFAULT_PREC):
    """The family's model of the order-n power sum's remainder beyond the last zero."""
    check_precision(prec)
    check_order(n)
    spec = _FAMILIES[zero_list.family]
    with working(prec, 15):
        zs = [to_real(z, prec) for z in zero_list.zeros]
        return TailEstimate(
            value=+spec.tail(zero_list, zs, _power(zero_list, n)),
            bound_kind=spec.bound_kind,
            confidence_note=spec.note,
        )


def truncated_power_sum(zero_list, n, prec=DEFAULT_PREC):
    """Order-n power sum over the computed zeros with a two-part bound.

    The list's family fixes the power: 1/zero^(2n) for squared-mode
    families, 1/zero^n for q-Airy.  Terms are accumulated smallest first
    (descending zeros).  error_bound is the family's tail estimate plus
    the propagated zero-location uncertainty (with a 2x margin), since at
    large counts the partial sum's own accuracy, not the tail, limits the
    bracket.  The true sum is expected to lie in [estimate - error_bound,
    estimate + error_bound], and because truncation always undershoots,
    in practice in [estimate, estimate + error_bound].
    """
    tail = tail_estimate(zero_list, n, prec)
    power = _power(zero_list, n)
    absolute = zero_list.tol_kind == "absolute"
    with working(prec, 15):
        acc = mp.zero
        location = mp.zero
        for z in reversed(zero_list.zeros):
            zv = to_real(z, prec)
            term = zv ** (-power)
            acc += term
            rel = zero_list.tol / zv if absolute else zero_list.tol
            location += power * rel * term
        return TruncatedPowerSum(
            estimate=+acc,
            error_bound=+(tail.value + 2 * location),
            order=n,
            tail=tail,
            family=zero_list.family,
        )
