"""Small exact integer number-theory helpers.

Everything here is integer-only; no floating point enters any decision.
"""

from math import gcd, isqrt

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


def _p_adic_split(n: int, p: int) -> tuple[int, int]:
    """Write n = p**e * u with p not dividing u; return (e, u)."""
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e, n


def hilbert_symbol(a: int, b: int, p: int) -> int:
    """Hilbert symbol (a, b)_p over the p-adic rationals, p prime.

    Equals +1 iff z^2 = a*x^2 + b*y^2 has a nontrivial p-adic solution.
    """
    if a == 0 or b == 0:
        raise InputError("hilbert symbol needs nonzero arguments")
    alpha, u = _p_adic_split(abs(a), p)
    beta, w = _p_adic_split(abs(b), p)
    u = u if a > 0 else -u
    w = w if b > 0 else -w
    if p == 2:
        def eps(z: int) -> int:  # (z-1)/2 mod 2 for odd z
            return 0 if z % 4 == 1 else 1

        def omega(z: int) -> int:  # (z^2-1)/8 mod 2 for odd z
            return 0 if z % 8 in (1, 7) else 1

        expo = eps(u) * eps(w) + alpha * omega(w) + beta * omega(u)
        return -1 if expo % 2 else 1
    expo = alpha * beta * ((p - 1) // 2)
    sym = -1 if expo % 2 else 1
    if beta % 2:
        sym *= legendre(u, p)
    if alpha % 2:
        sym *= legendre(w, p)
    return sym


def ternary_isotropic(a: int, b: int) -> bool:
    """Decide whether z^2 = a*x^2 + b*y^2 has a nontrivial rational solution.

    By Hasse-Minkowski it suffices to check the reals plus the Hilbert
    symbol at 2 and at every odd prime dividing a*b.
    """
    if a == 0 or b == 0:
        return True  # z = 0 plus a unit vector on the zero coefficient
    if a < 0 and b < 0:
        return False
    primes = {2}
    primes.update(factorize(abs(a)))
    primes.update(factorize(abs(b)))
    return all(hilbert_symbol(a, b, p) == 1 for p in sorted(primes))


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
