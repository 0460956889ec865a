"""Kronecker symbol and real primitive character tables."""

from __future__ import annotations

import math

import pytest

from zerosum import (
    DirichletCharacter,
    DomainError,
    NotFundamentalError,
    is_fundamental_discriminant,
    kronecker_character,
    kronecker_symbol,
)


def test_kronecker_against_euler_criterion(rng):
    # for odd prime p, (a/p) = a^((p-1)/2) mod p
    for p in (3, 5, 7, 11, 13, 31, 97):
        for _ in range(30):
            a = rng.randint(-200, 200)
            want = pow(a % p, (p - 1) // 2, p)
            want = -1 if want == p - 1 else want
            assert kronecker_symbol(a, p) == want


def test_kronecker_two_and_edge_cases():
    for a in (-9, -7, -1, 1, 3, 5, 7, 9, 15, 17):
        want = 1 if a % 8 in (1, 7) else -1
        assert kronecker_symbol(a, 2) == want
    for a in (-4, 0, 2, 6):
        assert kronecker_symbol(a, 2) == 0
    assert kronecker_symbol(1, 0) == 1
    assert kronecker_symbol(-1, 0) == 1
    assert kronecker_symbol(5, 0) == 0
    assert kronecker_symbol(7, 1) == 1
    with pytest.raises(DomainError):
        kronecker_symbol(3, -2)
    with pytest.raises(DomainError):
        kronecker_symbol(2.0, 3)


def test_kronecker_multiplicative_in_n(rng):
    for _ in range(40):
        a = rng.randint(-60, 60)
        m = rng.randint(1, 40)
        n = rng.randint(1, 40)
        assert kronecker_symbol(a, m * n) == kronecker_symbol(a, m) * kronecker_symbol(a, n)


def test_fundamental_discriminant_classification():
    accepted = (-3, -4, 5, 8, -8, -7, -11, 12, 13, 21, 24, 28, -15)
    rejected = (0, 1, 2, 3, 4, 6, 7, 9, -9, 16, 18, 25, 45, -12, 50)
    for d in accepted:
        assert is_fundamental_discriminant(d), d
    for d in rejected:
        assert not is_fundamental_discriminant(d), d


def test_kronecker_character_small_tables():
    chi3 = kronecker_character(-3)
    assert chi3.modulus == 3
    assert chi3.values == (0, 1, -1)
    assert chi3.parity == 1
    chi4 = kronecker_character(-4)
    assert chi4.modulus == 4
    assert chi4.values == (0, 1, 0, -1)
    assert chi4.parity == 1
    chi5 = kronecker_character(5)
    assert chi5.modulus == 5
    assert chi5.values == (0, 1, -1, -1, 1)
    assert chi5.parity == 0
    assert chi5(7) == chi5(2) == -1
    assert chi5(-1) == chi5(4) == 1


def test_character_table_is_completely_multiplicative():
    for d in (-3, -4, 5, -8, 12, 13):
        chi = kronecker_character(d)
        m = chi.modulus
        for j in range(m):
            for k in range(m):
                assert chi(j * k) == chi(j) * chi(k)
        for k in range(m):
            expected_zero = math.gcd(k, m) > 1
            assert (chi(k) == 0) == expected_zero
        assert chi.parity == (0 if d > 0 else 1)


def test_non_fundamental_rejected():
    for d in (0, 1, 7, 9, -9, 6, 45):
        with pytest.raises(NotFundamentalError):
            kronecker_character(d)


def test_character_validation_rejects_bad_tables():
    # wrong zero pattern
    with pytest.raises(DomainError):
        DirichletCharacter(modulus=4, values=(0, 1, 1, -1))
    # not multiplicative: chi(2)^2 must equal chi(4) mod 5
    with pytest.raises(DomainError):
        DirichletCharacter(modulus=5, values=(0, 1, 1, -1, -1))
    # induced from modulus 3, hence not primitive mod 6
    with pytest.raises(DomainError):
        DirichletCharacter(modulus=6, values=(0, 1, 0, 0, 0, -1))
    # principal character mod 3 is induced from modulus 1
    with pytest.raises(DomainError):
        DirichletCharacter(modulus=3, values=(0, 1, 1))
    with pytest.raises(DomainError):
        DirichletCharacter(modulus=1, values=(1,))
    # non-real value
    with pytest.raises(DomainError):
        DirichletCharacter(modulus=3, values=(0, 1, 2))


def test_character_validation_rejects_non_integer_values():
    # int() would truncate each of these to the table of chi_-3
    for values in ((0.4, 1, -1), (0, 1, -1.9), (0, 1.0, -1), (0, "1", -1)):
        with pytest.raises(DomainError):
            DirichletCharacter(modulus=3, values=values)
    assert DirichletCharacter(modulus=3, values=[0, 1, -1]).values == (0, 1, -1)


def test_validation_modulus_cap():
    # 1004 = 4 * 251 with 251 = 3 mod 4, so it is fundamental, but the
    # table validator refuses moduli above its cap
    assert is_fundamental_discriminant(1004)
    with pytest.raises(DomainError):
        kronecker_character(1004)
