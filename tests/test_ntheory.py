from math import gcd

import pytest

from biplane.errors import InputError
from biplane.ntheory import (divisors, factorize, is_prime, is_prime_power,
                             is_square, legendre, multiplicative_order,
                             square_free_part, ternary_isotropic)


def test_factorize_roundtrip():
    for n in range(1, 500):
        f = factorize(n)
        prod = 1
        for p, e in f.items():
            assert is_prime(p)
            prod *= p**e
        assert prod == n


def test_divisors():
    assert divisors(121) == [1, 11, 121]
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    for n in range(1, 200):
        assert divisors(n) == [d for d in range(1, n + 1) if n % d == 0]


def test_square_free_part():
    assert square_free_part(14) == 14
    assert square_free_part(4) == 1
    assert square_free_part(18) == 2
    for n in range(1, 300):
        sf = square_free_part(n)
        assert n % sf == 0
        assert is_square(n // sf)


def test_is_prime_power():
    assert is_prime_power(121) == (11, 2)
    assert is_prime_power(8) == (2, 3)
    assert is_prime_power(12) is None
    assert is_prime_power(1) is None


def test_legendre_against_square_counting():
    for p in (3, 5, 7, 11, 13, 37):
        squares = {x * x % p for x in range(1, p)}
        for a in range(1, p):
            assert legendre(a, p) == (1 if a in squares else -1)


def _order_by_stepping(a: int, m: int) -> int:
    x, n = a % m, 1
    while x != 1:
        x = x * a % m
        n += 1
    return n


def test_multiplicative_order():
    assert multiplicative_order(2, 11) == 10
    assert multiplicative_order(3, 11) == 5
    assert multiplicative_order(5, 1) == 1
    with pytest.raises(InputError):
        multiplicative_order(2, 4)
    with pytest.raises(InputError):
        multiplicative_order(1, 0)


def test_multiplicative_order_against_stepping():
    for m in range(2, 300):
        for a in range(1, m):
            if gcd(a, m) == 1:
                assert multiplicative_order(a, m) == _order_by_stepping(a, m), (a, m)


def _isotropic_brute(a: int, b: int, bound: int = 60) -> bool:
    for x in range(bound + 1):
        for y in range(bound + 1):
            val = a * x * x + b * y * y
            if val < 0:
                continue
            z = int(val**0.5)
            for cand in (z - 1, z, z + 1):
                if cand >= 0 and cand * cand == val and (x, y, cand) != (0, 0, 0):
                    return True
    return False


@pytest.mark.parametrize("a,b", [(2, -2), (3, -2), (6, 2), (7, 2), (10, -2),
                                 (11, -2), (14, 2), (15, 2), (18, -2),
                                 (5, 3), (2, 3), (3, 1)])
def test_hilbert_route_matches_small_search(a, b):
    # small coefficients have small minimal solutions, so the bounded search
    # is decisive here
    assert ternary_isotropic(a, b) == _isotropic_brute(a, b)


def test_ternary_isotropic_invariants():
    # solvability of z^2 = a x^2 + b y^2 is symmetric in a and b, blind to
    # square factors, and unchanged by b -> -ab: it asks whether b is a norm
    # z^2 - a x^2 from Q(sqrt a), and -a = 0^2 - a 1^2 is one. The primes
    # that a s^2 and -ab share with the other argument exercise the reduction
    vals = [-30, -15, -7, -6, -2, -1, 1, 2, 3, 5, 6, 7, 10, 14, 15, 21, 30]
    outcomes = set()
    for a in vals:
        for b in vals:
            t = ternary_isotropic(a, b)
            assert ternary_isotropic(b, a) == t, (a, b)
            assert ternary_isotropic(a, -a * b) == t, (a, b)
            for s in (2, 3, 5, 6):
                assert ternary_isotropic(a * s * s, b) == t, (a, b, s)
            outcomes.add(t)
    assert outcomes == {False, True}
