"""Real primitive Dirichlet characters built from fundamental discriminants.

The quadratic character attached to a fundamental discriminant d is the
Kronecker symbol (d/n); its modulus is |d| and it is even (parity 0) for
d > 0, odd (parity 1) for d < 0.  Character tables are validated for
integer values, complete multiplicativity and primitivity at construction
time, exactly; the zeta layer takes no other proof that a table gives an
even kernel.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

from .errors import DomainError, NotFundamentalError
from .precision import check_integer

VALIDATION_MODULUS_CAP = 1000


def kronecker_symbol(a, n):
    """Kronecker symbol (a/n) for integer a and non-negative integer n."""
    if any(isinstance(x, bool) or not isinstance(x, int) for x in (a, n)):
        raise DomainError("kronecker symbol takes integer arguments")
    if n < 0:
        raise DomainError("kronecker symbol is used with n >= 0 here")
    if n == 0:
        return 1 if a in (1, -1) else 0
    result = 1
    # factor 2s out of n; (a/2) is 0 for even a, else depends on a mod 8
    twos = 0
    while n % 2 == 0:
        n //= 2
        twos += 1
    if twos:
        if a % 2 == 0:
            return 0
        if twos % 2 == 1 and a % 8 in (3, 5):
            result = -result
    # Jacobi symbol core via quadratic reciprocity
    a %= n
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _squarefree(k):
    k = abs(k)
    p = 2
    while p * p <= k:
        if k % (p * p) == 0:
            return False
        p += 1
    return True


def is_fundamental_discriminant(d):
    """True when d indexes a real primitive character (d = 1 excluded)."""
    if not isinstance(d, int) or d in (0, 1):
        return False
    if d % 4 == 1:
        return _squarefree(d)
    if d % 4 == 0:
        k = d // 4
        return k % 4 in (2, 3) and _squarefree(k)
    return False


@dataclass(frozen=True)
class DirichletCharacter:
    """Real character table chi(0..m-1) to modulus m.

    values must be integers, values[k] must be 0 exactly when gcd(k, m) >
    1, the table must be completely multiplicative, and the character must
    be primitive (not induced from any proper divisor of m).
    """

    modulus: int
    values: tuple

    def __post_init__(self):
        m = self.modulus
        check_integer(m, "modulus", 2)
        try:  # integers only: int() would truncate 0.4 to 0 and -1.9 to -1
            vals = tuple(operator.index(v) for v in self.values)
        except TypeError:
            raise DomainError(f"character values must be integers, got {self.values!r}") from None
        object.__setattr__(self, "values", vals)
        if len(vals) != m:
            raise DomainError(f"character table must have length {m}, got {len(vals)}")
        if m > VALIDATION_MODULUS_CAP:
            raise DomainError(f"modulus above validation cap {VALIDATION_MODULUS_CAP}")
        for k in range(m):
            if math.gcd(k, m) > 1:
                if vals[k] != 0:
                    raise DomainError(f"chi({k}) must vanish, gcd({k},{m}) > 1")
            elif vals[k] not in (-1, 1):
                raise DomainError(f"real character values must be +-1, got chi({k}) = {vals[k]}")
        for j in range(m):
            for k in range(j, m):
                if vals[j * k % m] != vals[j] * vals[k]:
                    raise DomainError(
                        f"table is not multiplicative at ({j}, {k}) mod {m}"
                    )
        if not self._is_primitive():
            raise DomainError(f"character mod {m} is induced from a smaller modulus")

    def _is_primitive(self):
        # chi is primitive iff no proper divisor f of m has chi constant (=1)
        # on units congruent to 1 mod f.
        m = self.modulus
        for f in range(1, m):
            if m % f != 0:
                continue
            induced = all(
                self.values[n] == 1
                for n in range(1, m)
                if math.gcd(n, m) == 1 and (n - 1) % f == 0
            )
            if induced:
                return False
        return True

    def __call__(self, n):
        return self.values[n % self.modulus]

    @property
    def parity(self):
        """0 for an even character, 1 for an odd one."""
        return 0 if self.values[self.modulus - 1] == 1 else 1


def kronecker_character(d):
    """The real primitive character of modulus |d| for fundamental d."""
    if not is_fundamental_discriminant(d):
        raise NotFundamentalError(
            f"{d!r} is not a fundamental discriminant (needs d = 1 mod 4 squarefree, "
            "or d = 4k with k = 2, 3 mod 4 squarefree; d != 0, 1)"
        )
    m = abs(d)
    values = tuple(kronecker_symbol(d, n) for n in range(m))
    chi = DirichletCharacter(modulus=m, values=values)
    expected_parity = 0 if d > 0 else 1
    if chi.parity != expected_parity:
        raise DomainError(f"parity check failed for discriminant {d}")
    return chi
