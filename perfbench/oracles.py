"""Exact reference answers computed without the program under test.

Each function here re-derives a value from first principles (closed forms,
direct sums, plain 3x3 integer matrix arithmetic), so a check against it
does not share a code path with the library it checks.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

IDENTITY = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def odd_primes(upto: int) -> list[int]:
    return [p for p in range(3, upto + 1, 2) if all(p % q for q in range(3, isqrt(p) + 1, 2))]


def valuation(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


# -- forms as sextuples and 3x3 integer matrices ---------------------------

def gram(c) -> tuple:
    a, b, cc, d, e, f = c
    return ((2 * a, f, e), (f, 2 * b, d), (e, d, 2 * cc))


def mat_mul(x, y) -> tuple:
    return tuple(tuple(sum(x[i][k] * y[k][j] for k in range(3)) for j in range(3)) for i in range(3))


def transpose(x) -> tuple:
    return tuple(tuple(x[j][i] for j in range(3)) for i in range(3))


def det3(m) -> int:
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def transform(c, u) -> tuple:
    """Sextuple of the form with Gram U' G U."""
    g = mat_mul(transpose(u), mat_mul(gram(c), u))
    return (g[0][0] // 2, g[1][1] // 2, g[2][2] // 2, g[1][2], g[0][2], g[0][1])


def discriminant(c) -> int:
    return det3(gram(c)) // 2


def random_unimodular(rng, steps: int = 5) -> tuple:
    """A product of `steps` random elementary shears and a signed permutation."""
    u = IDENTITY
    for _ in range(steps):
        i, j = rng.sample(range(3), 2)
        rows = [list(r) for r in IDENTITY]
        rows[i][j] = rng.choice((-2, -1, 1, 2))
        u = mat_mul(u, tuple(tuple(r) for r in rows))
    perm = rng.sample(range(3), 3)
    signed = tuple(
        tuple(rng.choice((-1, 1)) if perm[c] == r else 0 for c in range(3)) for r in range(3)
    )
    return mat_mul(u, signed)


def parse_form(text: str) -> tuple:
    return tuple(int(v) for v in text.split(","))


def form_str(c) -> str:
    return ",".join(str(v) for v in c)


# -- representation numbers -------------------------------------------------

def three_square_counts(limit: int) -> list[int]:
    """r3[n] = #{(x, y, z) in Z^3 : x^2 + y^2 + z^2 == n}, by direct summation."""
    r3 = [0] * (limit + 1)
    m = isqrt(limit)
    for x in range(-m, m + 1):
        for y in range(-m, m + 1):
            rest = limit - x * x - y * y
            if rest < 0:
                continue
            zm = isqrt(rest)
            for z in range(-zm, zm + 1):
                r3[x * x + y * y + z * z] += 1
    return r3


# -- local densities in closed form ------------------------------------------

def legendre(a: int, p: int) -> int:
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def density_sum_of_three_squares_odd(n: int, p: int) -> Fraction:
    """p-adic density of x^2+y^2+z^2 at an odd prime p (Siegel's two-case form)."""
    v = valuation(n, p)
    m = n // p**v
    k = v // 2
    if v % 2 == 0:
        return 1 + Fraction(1, p) + Fraction(legendre(-m, p) - 1, p ** (k + 1))
    return (1 + Fraction(1, p)) * (1 - Fraction(1, p ** (k + 1)))


def density_four_yz_minus_xx_2adic(n: int) -> Fraction:
    """2-adic density of 4yz - x^2 at n.

    Every TG2(p) form is Z_2-equivalent to it: the quaternion algebra behind
    the genus is ramified only at p and infinity, so its 2-adic lattice does
    not depend on the odd prime p.
    """
    a = 0
    while n % 4 == 0:
        n //= 4
        a += 1
    if n % 8 == 7:
        return Fraction(3)
    if n % 8 == 3:
        return 3 - Fraction(1, 2 ** (a - 1)) if a >= 1 else Fraction(1)
    return 3 - Fraction(3, 2**a)


def genus_mass(p: int) -> Fraction:
    return Fraction(p - 1, 48)
