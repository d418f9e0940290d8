"""Small exact integer number-theory helpers.

Everything here is integer-only; no floating point enters any decision.
"""

from math import gcd, isqrt, prod

from .errors import InputError, ScaleError

# Largest n factorize admits. Trial division runs up to isqrt(n), so the
# slowest n under the cap is a prime: 999999999989 takes 0.06 s (Python
# 3.11, one core of a shared VM). BRC factors k - lambda and lambda: the row
# with both prime near the cap, lambda = 499999999979 and k - lambda =
# 999999999959, takes 0.10 s.
FACTORIZE_CAP = 10**12


def is_square(n: int) -> bool:
    if n < 0:
        return False
    r = isqrt(n)
    return r * r == n


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division; n above FACTORIZE_CAP raises
    ScaleError."""
    if n <= 0:
        raise InputError(f"cannot factorize {n}")
    if n > FACTORIZE_CAP:
        raise ScaleError(f"{n} exceeds the trial-division cap {FACTORIZE_CAP}")
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d * d != n:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def square_free_part(n: int) -> int:
    """The square-free s with n = s * m**2 for some integer m (n > 0)."""
    out = 1
    for p, e in factorize(n).items():
        if e % 2 == 1:
            out *= p
    return out


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    return factorize(n) == {n: 1}


def is_prime_power(n: int) -> tuple[int, int] | None:
    """Return (p, e) with n = p**e, or None if n is not a prime power."""
    if n < 2:
        return None
    f = factorize(n)
    if len(f) != 1:
        return None
    (p, e), = f.items()
    return p, e


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) for an odd prime p."""
    a %= p
    if a == 0:
        return 0
    r = pow(a, (p - 1) // 2, p)
    return 1 if r == 1 else -1


def ternary_isotropic(a: int, b: int) -> bool:
    """Decide whether z^2 = a*x^2 + b*y^2 has a nontrivial rational solution.

    Legendre's theorem on a x^2 + b y^2 - z^2 = 0, after one reduction:
    square factors drop out, and each prime g shared by a = g a' and
    b = g b' moves to the third coefficient, as g times the form is
    a' (g x)^2 + b' (g y)^2 - g z^2. The coefficients are then square-free,
    pairwise coprime and of mixed sign, and the form is solvable iff, for
    every odd prime p of each coefficient, minus the product of the other
    two is a square mod p; the prime 2 imposes nothing.
    """
    if a == 0 or b == 0:
        return True  # z = 0 plus a unit vector on the zero coefficient
    if a < 0 and b < 0:
        return False
    odd_a = {p for p, e in factorize(abs(a)).items() if e % 2}
    odd_b = {p for p, e in factorize(abs(b)).items() if e % 2}
    only_a, only_b, shared = odd_a - odd_b, odd_b - odd_a, odd_a & odd_b
    a = prod(only_a) if a > 0 else -prod(only_a)
    b = prod(only_b) if b > 0 else -prod(only_b)
    c = -prod(shared)
    return all(legendre(-y * z, p) == 1
               for primes, y, z in ((only_a, b, c), (only_b, c, a), (shared, a, b))
               for p in primes if p != 2)


def multiplicative_order(a: int, m: int) -> int:
    """Order of a modulo m >= 1; requires gcd(a, m) = 1.

    The order divides phi(m), so it is the least divisor d of phi(m) with
    a**d = 1 (mod m).
    """
    if m < 1 or gcd(a, m) != 1:
        raise InputError(f"{a} is not a unit modulo {m}")
    phi = m
    for p in factorize(m):
        phi = phi // p * (p - 1)
    # 1 % m: modulo 1 every residue is 0, and every a has order 1
    return next(d for d in divisors(phi) if pow(a, d, m) == 1 % m)
