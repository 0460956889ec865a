"""Moment tables and cosine transforms of zeta-type heat kernels.

The Riemann kernel density and its Dirichlet-character analogues are
summed directly from their theta-series definitions; their even moments
feed the Newton routes, and their cosine transforms locate zeros on the
critical line.  Moments use composite Gauss-Legendre on [0, t_cutoff]
with the panel count doubled until two successive refinements agree.
The cosine transform uses the trapezoid rule h (Phi(0)/2 + sum_j Phi(j h)
cos(j z h)), which converges exponentially because Phi is even and
analytic in the strip |Im t| < pi/4 (Trefethen and Weideman, SIAM Rev.
56 (2014), Thm 5.1).  Its levels halve h, so each level reuses the kernel
values of the one below and computes only its new midpoints, and a sweep
at z is one Clenshaw recurrence on integers with a single cosine.  The
level is chosen before any sweep: that theorem bounds its error through
the integral of |Phi| along the strip, which `_strip_majorant` bounds in
closed form from the theta series.

Both kernels are even in t: for the Riemann kernel this is Polya's form
(Titchmarsh, The Theory of the Riemann Zeta-Function, section 10.1), and
for a real primitive character it is the theta functional equation.  So
each kernel is summed at -|t|, where the theta argument exp(2|t|) is at
least 1: the series converges doubly exponentially, its largest term is
within a few digits of its value, and one pass at fixed working digits
meets the target.  A table that is not a real primitive character breaks
the symmetry, so every kernel of a caller's character takes only a
`DirichletCharacter`, whose constructor proves the table real, completely
multiplicative and primitive; anything else raises DomainError.

The theta series is summed on integers scaled to its first term
(`_theta_sum`); every node's error bound includes the pass's rounding bound.
Node set-up and the moment pass run on mpmath's raw libmp values and exact
integers, each step rounded as its mpf expression would be, so every
moment table is bit-identical to the plain mpf arithmetic.  The transform
sweep carries its own rounding bound into the printed transform bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from mpmath import libmp, mp, mpf
from mpmath.libmp import (
    fone, from_man_exp, fzero, mpf_abs, mpf_add, mpf_cos, mpf_div, mpf_exp, mpf_le,
    mpf_mul, mpf_mul_int, mpf_neg, mpf_pi, mpf_pow_int, mpf_shift, round_nearest as _RND,
    to_fixed,
)

from .characters import DirichletCharacter
from .errors import AccuracyError, DomainError, VanishingMomentError
from .newton import CoefficientSeries
from .precision import (
    DEFAULT_PREC, GUARD_BITS, check_integer, check_precision, fixed_point_bits, to_real, working,
)
from .quadrature import panel_grid

MOMENT_ORDER_CAP = 12

_SERIES_TERM_CAP = 2_000_000

# refinement budget: Gauss-Legendre panels 2, 4, 8, ... up to 2^10, and
# trapezoid levels 0 .. 10
_MAX_DOUBLINGS = 10

# trapezoid level k of the cosine transform has 24 2^k intervals
_TRAPEZOID_INTERVALS = 24

# strip half-widths a = (pi/4)(1 - 2^-i) at which the trapezoid error
# bound is tried: the best a nears pi/4 as the level's step h shrinks
_STRIP_WIDTHS = tuple(math.pi / 4 * (1 - 2.0**-i) for i in range(1, 11))

# relative margin on the float majorant: each of its terms is a handful
# of correctly rounded or few-ulp operations, so its sum errs by far less
_MAJORANT_MARGIN = 1 + 1e-9


@dataclass(frozen=True)
class MomentTable:
    """Even moments b_n, normalized beta_n, and per-entry error bounds."""

    b: tuple
    beta: tuple
    quadrature_error: tuple
    modulus: int
    parity: int
    precision: int

    def series(self):
        """Coefficient series sigma_n = beta_n for the Newton routes."""
        return CoefficientSeries(sigmas=self.beta, precision=self.precision)


def _kernel_shape(chi):
    # (modulus, exp growth rate of the reflected series, envelope constant)
    if chi is None:
        return 1, 4.5, 4 * math.pi * (2 * math.pi + 3) * 1.02
    return chi.modulus, 0.5 + chi.parity, 6.0


def _fix(s, *xs):
    """floor(x_1 ... x_k 2^s) of positive raw mpfs, from their exact mantissas."""
    man = 1
    for _, m, e, _ in xs:
        man, s = man * m, s + e
    return man << s if s >= 0 else man >> -s


def _theta_sum(base, consts, coef, bound, dps, stop_abs=None):
    """Sum coef(n, *consts) base^(n^2) over n >= 1 on fixed-point integers.

    base, consts and stop_abs are raw mpfs.  coef is linear in the positive
    consts, bound(n, *consts) >= |coef|, and bound(n, 1, ..., 1) is at
    least the sum of coef's |coefficients|.  Terms are integers in units of
    2^(e - wp): e is the binary exponent of the first term's bound,
    bound(1) base, rounded const by const as in mpf at dps digits, and wp
    the working bits of dps plus guard bits.  Each const c enters
    as floor(c base 2^(wp - e)), and base^(n^2 - 1) as the floored running
    products E_(n+1) = E_n G_n, G_(n+1) = G_n base^2 in units of 2^-wp.
    Once base^(2n+1) <= 1/2 the tail is below 32 bound(n) base^(n^2); the
    sum stops when that is under stop_abs, or else under 10^(3 - dps)
    times the largest term so far.

    Each floor errs by under one unit, so G_n is within 2n and E_n within
    n^2 units, and term n within bound(n) (n^2 + n) 2^-wp + bound(n, 1,
    ...) + 2.  Returns (total, max_term_magnitude, terms_used, err) with
    exact raw mpfs, err bounding the distance of total to the exact sum of
    the same terms of base and consts.
    """
    prec = libmp.dps_to_prec(dps)
    wp = fixed_point_bits(dps)
    top = fzero
    for i, c in enumerate(consts):
        unit = bound(1, *(int(i == j) for j in range(len(consts))))
        top = mpf_add(top, mpf_mul_int(c, unit, prec, _RND), prec, _RND)
    _, _, exp, bc = mpf_mul(top, base, prec, _RND)
    e = exp + bc
    ints = [_fix(wp - e, c, base) for c in consts]
    e_pow, g_pow, b_sq = 1 << wp, _fix(wp, base, base, base), _fix(wp, base, base)
    half = 1 << (wp - 1)
    stop = None
    if stop_abs is not None:  # clamped above every tail: no huge shift
        stop = _fix(wp - e, stop_abs) if stop_abs[2] + stop_abs[3] - e < wp else 1 << 2 * wp
    cut = 10 ** (dps - 3)
    total = maxmag = err = 0
    n = 1
    while n <= _SERIES_TERM_CAP:
        term = coef(n, *ints) * e_pow >> wp
        total += term
        maxmag = max(maxmag, abs(term))
        bnd = bound(n, *ints)
        err += (bnd * (n * n + n) >> wp) + 2
        if g_pow <= half:
            tail = 32 * bnd * e_pow >> wp
            if (tail < stop) if stop is not None else (tail * cut < maxmag):
                break
        e_pow = e_pow * g_pow >> wp
        g_pow = g_pow * b_sq >> wp
        n += 1
    else:
        raise AccuracyError("theta series did not converge within the term cap")
    err += n * bound(n, *[1] * len(ints))
    total, maxmag, err = (from_man_exp(v, e - wp) for v in (total, maxmag, err))
    return total, maxmag, n, err


def _character_coef(chi):
    # theta coefficients a n^parity chi(n), bounded by a (n + 1)
    return (lambda n, a: a * n**chi.parity * chi(n)), (lambda n, a: a * (n + 1))


def _phi_pass(chi, t, dps, stop_abs=None):
    """One fixed-precision pass over the kernel series at the point -|t|.

    stop_abs, a raw mpf, drives truncation, else the pass stops relative
    to its largest term.  One h = exp(|t|/2) gives every power of e^|t|
    the coefficients need; each step rounds as the mpf expression in the
    comments would at dps digits.  Returns (total, max_term_magnitude,
    terms_used, rounding error bound) with raw mpfs.
    """
    prec = libmp.dps_to_prec(dps)
    tv = mpf_abs(to_real(t, max(dps - 15, 30))._mpf_, prec, _RND)
    h = mpf_exp(mpf_shift(tv, -1), prec, _RND)
    x = mpf_pow_int(h, 4, prec, _RND)
    pi = mpf_pi(prec, _RND)
    neg_pi_x = mpf_mul(mpf_neg(pi), x, prec, _RND)
    if chi is None:  # exp(-pi x), 8 pi^2 x x h, 12 pi x h
        base = mpf_exp(neg_pi_x, prec, _RND)
        a = mpf_mul(mpf_mul_int(mpf_pow_int(pi, 2, prec, _RND), 8, prec, _RND), x, prec, _RND)
        b = mpf_mul_int(pi, 12, prec, _RND)
        for y in (x, h):
            a, b = mpf_mul(a, y, prec, _RND), mpf_mul(b, y, prec, _RND)
        consts = (a, b)
        coef = lambda n, a, b: (a * n * n - b) * n * n
        bound = lambda n, a, b: (a * n * n + b) * n * n
    else:  # exp(-pi x / modulus), 4 h^(1 + 2 parity)
        base = mpf_exp(mpf_div(neg_pi_x, libmp.from_int(chi.modulus), prec, _RND), prec, _RND)
        consts = (mpf_mul_int(mpf_pow_int(h, 1 + 2 * chi.parity, prec, _RND), 4, prec, _RND),)
        coef, bound = _character_coef(chi)
    return _theta_sum(base, consts, coef, bound, dps, stop_abs)


def _phi_nodes(chi, ts, abs_tol):
    """Kernel values at every t in ts, each with a certified error below abs_tol.

    Returns a list of (value, absolute error bound) pairs.  The working
    digits, the series stop threshold and the rounding unit depend on
    abs_tol alone, so they are set up once for all the points.
    """
    with mp.workdps(40):
        tol = abs(to_real(abs_tol, 30))
        if tol == 0:
            raise DomainError("abs_tol must be nonzero")
        need = -mp.log10(tol)
    dps = int(need) + 20
    stop = (tol / 8)._mpf_
    with mp.workdps(30):
        unit = (mpf(10) ** (1 - dps))._mpf_
        floor = (tol / 4)._mpf_
    # round_err = (nterms + 5) maxmag unit + floor + err at 30 digits
    p30 = libmp.dps_to_prec(30)
    pairs = []
    for t in ts:
        total, maxmag, nterms, err = _phi_pass(chi, t, dps, stop_abs=stop)
        round_err = mpf_mul(mpf_mul_int(maxmag, nterms + 5, p30, _RND), unit, p30, _RND)
        round_err = mpf_add(mpf_add(round_err, floor, p30, _RND), err, p30, _RND)
        if not mpf_le(round_err, tol._mpf_):
            raise AccuracyError("kernel value did not reach the absolute error target")
        pairs.append((mp.make_mpf(total), mp.make_mpf(round_err)))
    return pairs


def _phi_relative(chi, t, prec):
    """Kernel value verified to `prec` significant digits."""
    dps = prec + 18
    total, maxmag, nterms, _ = _phi_pass(chi, t, dps)
    total, maxmag = mp.make_mpf(total), mp.make_mpf(maxmag)
    if total != 0:
        with mp.workdps(30):
            lost = float(mp.log10(maxmag / abs(total)))
        if dps - lost - math.log10(nterms + 1.0) - prec >= 3:
            with working(prec):
                return +total
    raise AccuracyError("kernel value did not reach the relative precision target")


def phi_riemann(t, prec=DEFAULT_PREC, abs_tol=None):
    """Riemann heat-kernel density at the point t.

    Without abs_tol the value is verified to `prec` relative digits and
    must come out positive.  With abs_tol the value is only certified to
    that absolute error, which is the mode the quadrature and the deep
    decay checks use.
    """
    check_precision(prec)
    if abs_tol is not None:
        return _phi_nodes(None, (t,), abs_tol)[0][0]
    value = _phi_relative(None, t, prec)
    if not value > 0:
        raise AccuracyError(f"kernel density came out non-positive at t = {t}")
    return value


def phi_chi(t, chi, prec=DEFAULT_PREC, abs_tol=None):
    """Dirichlet heat-kernel density at t for a real primitive character.

    chi must be a DirichletCharacter; modes as in phi_riemann.
    """
    check_precision(prec)
    _check_character(chi)
    if abs_tol is not None:
        return _phi_nodes(chi, (t,), abs_tol)[0][0]
    return _phi_relative(chi, t, prec)


def theta_selfcheck(chi, x, prec=DEFAULT_PREC):
    """Residual of the theta functional equation for the character table.

    Even characters must satisfy S(x) = S(1/x)/sqrt(x), odd ones
    T(x) = T(1/x)/x^(3/2), where S/T are the (n-weighted) theta sums.
    A genuine primitive table drives the residual to roundoff; anything
    else leaves an O(1) residual.
    """
    check_precision(prec)
    with working(prec, 25):
        xv = to_real(x, prec + 20)
        if not xv > 0:
            raise DomainError("theta self-check needs x > 0")
        eps = mpf(10) ** (-(prec + 20))
        coef, bound = _character_coef(chi)

        def half_sum(y):
            base = mp.exp(-mp.pi * y / chi.modulus)
            return mp.make_mpf(_theta_sum(base._mpf_, (fone,), coef, bound, mp.dps, eps._mpf_)[0])

        lhs = 2 * half_sum(xv)
        rhs = 2 * half_sum(1 / xv)
        rhs *= 1 / mp.sqrt(xv) if chi.parity == 0 else xv ** mpf("-1.5")
        return +abs(lhs - rhs)


def _check_character(chi):
    # the kernel is even, and so summed at -|t|, only for a real primitive
    # character, which DirichletCharacter's constructor proves exactly
    if not isinstance(chi, DirichletCharacter):
        raise DomainError(
            f"expected a DirichletCharacter, got {type(chi).__name__}; only a "
            "real primitive character table gives an even kernel"
        )


def _solve_t_cutoff(m, alpha, const, target, order):
    # smallest T with Integral_T^inf t^(2n) * envelope(t) dt below
    # 10^(-target-8); envelope(t) = const * e^(alpha t) * e^(-pi e^(2t)/m)
    budget = (target + 8) * math.log(10) + math.log(const)
    t_val = 1.0
    for _ in range(8):
        inner = budget + alpha * t_val + 2 * order * math.log(max(t_val, 1.0))
        t_val = 0.5 * math.log(m * inner / math.pi)
    return t_val + 0.05


def _tail_bound(m, alpha, const, t_cut, order):
    # Integral_T^inf t^(2n) envelope(t) dt <= envelope value / decay rate
    with mp.workdps(40):
        tv = mpf(t_cut)
        rate = 2 * mp.pi * mp.exp(2 * tv) / m - alpha - 2 * order / tv
        if rate <= 0:
            return mp.inf
        val = const * tv ** (2 * order) * mp.exp(alpha * tv - mp.pi * mp.exp(2 * tv) / m)
        return val / rate


def _strip_majorant(chi, a):
    """Float bound M(a) on the integral over the real line of |Phi(t + iy)|, |y| <= a.

    Phi is even and real on the real line, so that integral is twice the
    one over t >= 0, where the theta series converges for a < pi/4.  Its
    term n is a sum over parts (w, p, s) of w n^p e^(2st) exp(-pi n^2
    e^(2t) / m): (8 pi^2, 4, 9/4) and (-12 pi, 2, 5/4) for zeta, and
    (4 chi(n), parity, (1 + 2 parity)/4) for a character.  At t + iy each
    has modulus at most |w| n^p e^(2st) exp(-c e^(2t)), c = pi n^2
    cos(2a) / m, and v = c e^(2t) turns the integral of that over t >= 0
    into |w| n^p c^-s Gamma(s, c) / 2.  So M(a) = sum_n sum_parts |w| n^p
    c^-s Gamma(s, c).  Each c^-s Gamma(s, c) is at most Gamma(s) c^-s
    and, once d = c - max(s - 1, 0) > 0, at most e^-c / d, because for
    v >= c, v^(s-1) <= c^(s-1) e^((s-1)(v-c)/c) if s > 1 and v^(s-1) <=
    c^(s-1) if s <= 1.  That second form E(n) falls from n to n + 1 by
    a factor below r(n) = ((n + 1)/n)^p e^(-c_1 (2n + 1)), c_1 = c / n^2,
    which decreases in n; once r(n) < 1 the terms from n on sum to at
    most E(n) / (1 - r(n)).
    """
    if chi is None:
        m, parts = 1, ((8 * math.pi**2, 4, 9 / 4), (12 * math.pi, 2, 5 / 4))
    else:
        m, parts = chi.modulus, ((4.0, chi.parity, (1 + 2 * chi.parity) / 4),)
    c1 = math.pi * math.cos(2 * a) / m
    p_top = max(p for _, p, _ in parts)
    total, n = 0.0, 0
    while True:
        n += 1
        for w, p, s in parts:
            c, d = c1 * n * n, c1 * n * n - max(s - 1, 0)
            gamma_form = math.gamma(s) * c**-s
            total += w * n**p * (min(gamma_form, math.exp(-c) / d) if d > 0 else gamma_form)
        # the omitted terms: E(n + 1) / (1 - ratio bound at n + 1)
        c = c1 * (n + 1) ** 2
        ds = [c - max(s - 1, 0) for _, _, s in parts]
        ratio = ((n + 2) / (n + 1)) ** p_top * math.exp(-c1 * (2 * n + 3))
        if min(ds) <= 0 or ratio >= 1:
            continue
        tail = sum(w * (n + 1) ** p * math.exp(-c) / d for (w, p, _), d in zip(parts, ds))
        tail /= 1 - ratio
        if tail <= 1e-6 * total:
            return (total + tail) * _MAJORANT_MARGIN


class XiEvaluator:
    """Cosine transform and moment table of one kernel, with cached grids.

    chi = None selects the Riemann kernel; any other chi must be a
    DirichletCharacter, or DomainError is raised.  The kernel values at the
    nodes are computed once per refinement level and reused across every
    moment order and every transform argument.  Integrals aim at prec +
    15 digits.
    """

    # Gauss-Legendre rule size of every moment panel
    points = 24

    def __init__(self, chi=None, prec=DEFAULT_PREC):
        check_precision(prec)
        if chi is not None:
            _check_character(chi)
        self.chi = chi
        self.prec = prec
        m, alpha, const = _kernel_shape(chi)
        self.modulus = m
        target = prec + 15
        t_cut = _solve_t_cutoff(m, alpha, const, target, MOMENT_ORDER_CAP)
        self.t_cutoff = to_real(t_cut, 40)
        tail0 = _tail_bound(m, alpha, const, float(self.t_cutoff), 0)
        if not tail0 < mpf(10) ** (-(target + 5)):
            raise DomainError(
                f"t_cutoff {t_cut} leaves a kernel tail above 10^-{target + 5}"
            )
        self.target_digits = target
        self._alpha = alpha
        self._const = const
        self._dps = target + 25
        # per-node absolute tolerance keeps the summed quadrature error
        # below 10^(-target-6)
        with mp.workdps(40):
            self._node_tol = mpf(10) ** (-(target + 6)) / (2 * self.t_cutoff)
        self._tail0 = tail0
        # trapezoid step of level 0, t_cutoff / _TRAPEZOID_INTERVALS rounded
        # up to a float: every node j h is an exact mpf and covers t_cutoff
        self._h0 = mpf(math.nextafter(t_cut / _TRAPEZOID_INTERVALS, math.inf))._mpf_
        self._wp = fixed_point_bits(self._dps)
        self._levels = {}
        self._trapezoids = {}
        self._log_majorants = None
        self._bulk_level = None
        self._bulk_err = None

    def _level(self, k):
        """(nodes, wPhi, summed node error) of Gauss-Legendre level k.

        wPhi holds weight times kernel value at each node, rounded at
        self._dps digits as w * Phi in mpf.
        """
        if k not in self._levels:
            prec = libmp.dps_to_prec(self._dps)
            grid = panel_grid(0, self.t_cutoff, 2**k, self.points, self._dps)
            nodes = tuple(t for t, _ in grid)
            pairs = _phi_nodes(self.chi, nodes, self._node_tol)
            wphi, err_sum = [], fzero
            for (_, w_node), (val, err) in zip(grid, pairs):
                wphi.append(mpf_mul(w_node._mpf_, val._mpf_, prec, _RND))
                err_sum = mpf_add(err_sum, mpf_mul(w_node._mpf_, err._mpf_, prec, _RND), prec, _RND)
            self._levels[k] = (nodes, tuple(map(mp.make_mpf, wphi)), mp.make_mpf(err_sum))
        return self._levels[k]

    def _trapezoid(self, k):
        """(h, a, summed node error, sweep rounding bound) of trapezoid level k.

        Level k has N = _TRAPEZOID_INTERVALS 2^k intervals of width
        h = h_0 2^-k.  Its even nodes are level k - 1's, so only the new
        midpoints go through the kernel.  a_j = floor(Phi(j h) 2^wp) for
        j >= 1 and a_0 = floor(Phi(0) 2^(wp - 1)), so the rule is
        h 2^-wp sum_j a_j cos(j z h).
        The node error is h (err_0/2 + sum_j err_j).  The sweep bound, in
        units h 2^-wp: each floor of a_j and of the recurrence enters as a
        change of one coefficient by under one unit, and |T_j| <= 1, so
        2 (N + 1); cos(z h) is within 2 units, and |T_j'| <= j^2, so
        2 sum_j j^2 |a_j| 2^-wp; the last rounding, to wp minus the guard
        bits, adds sum_j |a_j| 2^(33 - wp).
        """
        if k not in self._trapezoids:
            h = mpf_shift(self._h0, -k)
            n = _TRAPEZOID_INTERVALS << k
            js = range(n + 1) if k == 0 else range(1, n, 2)
            ts = [mp.make_mpf(from_man_exp(j * h[1], h[2])) for j in js]
            pairs = _phi_nodes(self.chi, ts, self._node_tol)
            new = [to_fixed(v._mpf_, self._wp) for v, _ in pairs]
            with mp.workdps(30):
                node_err = mp.make_mpf(h) * mp.fsum(e for _, e in pairs)
                if k == 0:
                    a = new
                    a[0] >>= 1
                    node_err -= mp.make_mpf(h) * pairs[0][1] / 2
                else:
                    _, below, below_err, _ = self._trapezoid(k - 1)
                    a = [0] * (n + 1)
                    a[::2], a[1::2] = below, new
                    node_err += below_err / 2
            units = 2 * (n + 1) + (2 * sum(j * j * abs(aj) for j, aj in enumerate(a)) >> self._wp)
            units += (sum(map(abs, a)) >> (self._wp - GUARD_BITS - 1)) + 2
            sweep_err = mp.make_mpf(from_man_exp(units * h[1], h[2] - self._wp))
            self._trapezoids[k] = (h, tuple(a), node_err, sweep_err)
        return self._trapezoids[k]

    def _sweep(self, k, zv):
        """Level-k trapezoid sum of Phi(t) cos(zv t) by one Clenshaw recurrence.

        With x = cos(zv h) in units of 2^-wp, b_j = a_j + floor(2 x b_(j+1))
        - b_(j+2) and S = a_0 + floor(x b_1) - b_2 give S = sum_j a_j T_j(x)
        = sum_j a_j cos(j zv h).  zv h is exact and its cosine is taken at
        wp bits, so one cosine serves the whole level.
        """
        h, a = self._trapezoid(k)[:2]
        wp = self._wp
        z = zv._mpf_
        x = to_fixed(mpf_cos(mpf_mul(z, h, z[3] + h[3], _RND), wp, _RND), wp)
        b1 = b2 = 0
        shift = wp - 1
        for aj in a[:0:-1]:
            b1, b2 = aj + (x * b1 >> shift) - b2, b1
        total = a[0] + (x * b1 >> wp) - b2
        return mp.make_mpf(from_man_exp(total * h[1], h[2] - wp, wp - GUARD_BITS, _RND))

    def moment(self, n):
        """(b_n, error bound): the 2n-th kernel moment.

        The panel count doubles until two successive levels agree.  The
        bound adds their gap, the cached per-node kernel errors amplified
        by the largest weight t^(2n) on [0, t_cutoff], and the tail beyond
        t_cutoff.
        """
        check_integer(n, "moment order", cap=MOMENT_ORDER_CAP)
        prec = libmp.dps_to_prec(self._dps)
        with mp.workdps(self._dps):
            wmax = max(mp.one, self.t_cutoff ** (2 * n))
            tol = mpf(10) ** (-self.target_digits)
            prev = None
            for k in range(1, _MAX_DOUBLINGS + 1):
                nodes, wphi, err_sum = self._level(k)
                cur = fzero  # cur += wPhi t^(2n), node by node
                for t_node, wv in zip(nodes, wphi):
                    term = mpf_mul(wv._mpf_, mpf_pow_int(t_node._mpf_, 2 * n, prec, _RND), prec, _RND)
                    cur = mpf_add(cur, term, prec, _RND)
                cur = mp.make_mpf(cur)
                if prev is not None:
                    gap = abs(cur - prev)
                    if gap <= tol * max(abs(cur), mp.one):
                        tail = _tail_bound(
                            self.modulus, self._alpha, self._const, float(self.t_cutoff), n
                        )
                        return cur, +(gap + err_sum * wmax + tail)
                prev = cur
        raise AccuracyError(
            "quadrature did not converge within the refinement budget"
        )

    def _log_strip_bound(self, k, z_max):
        """log of the level-k discretization bound for |z| <= z_max.

        f(t) = Phi(t) cos(z t) is even, so the rule h (f(0)/2 + sum_j f(j h))
        is half the trapezoid sum over all integers j, and its error half
        that sum's.  For f analytic in |Im t| < a with the integral of
        |f(t + iy)| over the real line at most M_f for every |y| < a, the
        full sum errs by at most 2 M_f / (e^(2 pi a / h) - 1) (Trefethen and
        Weideman, SIAM Rev. 56 (2014), Thm 5.1).  |cos(z (t + iy))| <=
        cosh(z y) <= e^(a z_max), so M_f <= M(a) e^(a z_max) and the rule
        errs by at most M(a) e^(a z_max) / (e^(2 pi a / h) - 1), minimized
        here over _STRIP_WIDTHS.  h = h_0 2^-k is an exact float, and the
        majorant's relative margin covers the rounding of these float steps.
        """
        if self._log_majorants is None:
            self._log_majorants = [(a, math.log(_strip_majorant(self.chi, a))) for a in _STRIP_WIDTHS]
        h = libmp.to_float(self._h0) / 2**k
        best = math.inf
        for a, log_m in self._log_majorants:
            x = 2 * math.pi * a / h
            best = min(best, log_m + a * z_max - x - math.log1p(-math.exp(-x)))
        return best

    def calibrate_transform(self, z_max):
        """Fix a single trapezoid level for bulk transform evaluation.

        Locks the lowest level k whose discretization bound at |z_max|
        (`_log_strip_bound`) is at most 10^-target_digits
        e^(-pi z_max / 4): the transform decays like e^(-pi z / 4), so an
        absolute target alone would leave its top values without digits.
        Only levels 0..k are built, and nothing is swept.  Returns (k,
        bound): the absolute bound at every |z| <= z_max adds the
        discretization bound, the summed node error of level k, the sweep's
        rounding bound and the omitted nodes past t_cutoff.  Bulk zero
        scans use transform_at() afterwards, one sweep per argument.
        """
        with mp.workdps(self._dps):
            z_max = math.nextafter(float(abs(to_real(z_max, self._dps))), math.inf)
        log_target = -self.target_digits * math.log(10) - math.pi * z_max / 4
        for k in range(_MAX_DOUBLINGS + 1):
            log_strip = self._log_strip_bound(k, z_max)
            if log_strip <= log_target:
                _, _, node_err, sweep_err = self._trapezoid(k)
                with mp.workdps(30):
                    self._bulk_err = +(mp.exp(log_strip) + node_err + sweep_err + self._tail0)
                self._bulk_level = k
                return self._bulk_level, self._bulk_err
        raise AccuracyError("no trapezoid level within the budget meets the transform target")

    def transform_at(self, z):
        """Single-sweep cosine transform at the calibrated level."""
        if self._bulk_level is None:
            raise AccuracyError("call calibrate_transform before transform_at")
        with mp.workdps(self._dps):
            return self._sweep(self._bulk_level, to_real(z, self._dps)), self._bulk_err

    def moment_table(self, order):
        """MomentTable with b_0..b_order, beta_0..beta_order, error bounds."""
        check_integer(order, "moment order", 1, cap=MOMENT_ORDER_CAP)
        pairs = [self.moment(n) for n in range(order + 1)]
        b = tuple(p[0] for p in pairs)
        errs = tuple(p[1] for p in pairs)
        b0, e0 = b[0], errs[0]
        if self.chi is None:
            if not b0 > e0:
                raise AccuracyError("zeroth moment is not certifiably positive")
            for n in range(1, order + 1):
                if not b[n] > errs[n]:
                    raise AccuracyError(f"moment b_{n} is not certifiably positive")
        else:
            if abs(b0) <= 10 * e0:
                raise VanishingMomentError(
                    "zeroth moment vanishes within the error bound; "
                    "power sums are undefined for this character"
                )
        with working(self.prec, 15):
            beta = [mp.one]
            for n in range(1, order + 1):
                beta.append(+(b[n] / (mp.factorial(2 * n) * b0)))
        return MomentTable(
            b=b,
            beta=tuple(beta),
            quadrature_error=errs,
            modulus=self.modulus,
            parity=0 if self.chi is None else self.chi.parity,
            precision=self.prec,
        )


def riemann_moments(order, prec=DEFAULT_PREC):
    """Moment table of the Riemann kernel."""
    return XiEvaluator(chi=None, prec=prec).moment_table(order)


def dirichlet_moments(chi, order, prec=DEFAULT_PREC):
    """Moment table of the Dirichlet kernel of a DirichletCharacter."""
    return XiEvaluator(chi=chi, prec=prec).moment_table(order)


def riemann_s_closed(b, k, prec=DEFAULT_PREC):
    """Closed-form power sums s_1..s_4 in terms of the raw moments."""
    check_integer(k, "closed-form index k", 1, 4)
    if len(b) < k + 1:
        raise DomainError(f"need moments b_0..b_{k}, got {len(b)} entries")
    with working(prec, 15):
        b0, b1 = to_real(b[0], prec), to_real(b[1], prec)
        if k == 1:
            return +(b1 / (2 * b0))
        b2 = to_real(b[2], prec)
        if k == 2:
            return +((3 * b1**2 - b0 * b2) / (12 * b0**2))
        b3 = to_real(b[3], prec)
        if k == 3:
            return +((30 * b1**3 - 15 * b0 * b1 * b2 + b0**2 * b3) / (240 * b0**3))
        b4 = to_real(b[4], prec)
        num = (
            630 * b1**4
            - 420 * b0 * b1**2 * b2
            + 35 * b0**2 * b2**2
            + 28 * b0**2 * b1 * b3
            - b0**3 * b4
        )
        return +(num / (10080 * b0**4))
