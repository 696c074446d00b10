"""Exact p-adic local representation densities by congruence counting.

The counter works modulo p^t by recursion on x mod p, in work that grows
with t, not with p^t.  At odd p the form is diagonalised over Z/p^t and a
Jordan recursion counts the solutions that are smooth mod p in closed form
and recurses on the rest with one exponent less.  At p = 2 Hensel
lifting on x mod 2 lifts smooth residues by a power of 4 and passes the
singular ones down one exponent, level by level, counting identical
subproblems once.  Each count is charged to the work limit first.
Densities are rationals count / p^(2t), checked equal at t and t+1.

The closed-form densities (odd-prime two-case formula, the 2-adic table for
sums of three squares, the difference kernel, the squarefree-part product)
live here as well, so each has an independent counting cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import gcd, prod

from .forms import FormError, ResourceLimitError as ResourceLimitError, TernaryForm, charge


class StabilizationError(RuntimeError):
    """Density failed to stabilize between exponents t and t+1."""


# -- elementary number theory ---------------------------------------------

def valuation(n: int, p: int) -> tuple[int, int]:
    """(v, n // p**v) for the largest v with p**v dividing the nonzero n."""
    if p < 2:
        raise ValueError(f"valuation base must be >= 2, got {p}")
    if n == 0:
        raise ValueError("valuation of 0 is undefined")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v, n


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    i = 2
    while i * i <= p:
        if p % i == 0:
            return False
        i += 1
    return True


def kronecker(a: int, n: int) -> int:
    """The Kronecker symbol (a|n), defined for all integers."""
    if n == 0:
        return 1 if a in (1, -1) else 0
    result = 1
    if n < 0:
        n = -n
        if a < 0:
            result = -1
    t, n = valuation(n, 2)
    if t:
        if a % 2 == 0:
            return 0
        if t % 2 == 1 and a % 8 in (3, 5):
            result = -result
    a %= n
    # Jacobi loop: n odd positive.
    while a:
        e, a = valuation(a, 2)
        if e % 2 and n % 8 in (3, 5):
            result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


# -- congruence counting by recursion on x mod p -------------------------

def _diagonal_odd(coeffs, p: int, q: int) -> list[int]:
    """Diagonal coefficients of the form after a change of basis over Z/q.

    q is a power of the odd prime p, so the form is x'Ax with A = Gram/2.
    Each step pivots on an entry of A of least valuation (gcd with q),
    preferring a diagonal one; an off-diagonal pivot A_ij is first moved onto
    the diagonal by e_i -> e_i + e_j, which gives A_ii + 2A_ij + A_jj of the
    same valuation.  The Schur complement of the pivot is the rest of the form.
    """
    a, b, c, d, e, f = coeffs
    h = (q + 1) // 2  # 1/2 mod q
    m = [[a, f * h, e * h], [f * h, b, d * h], [e * h, d * h, c]]
    diag = []
    while m:
        k = len(m)
        i, j = min(
            ((i, j) for i in range(k) for j in range(i, k)),
            key=lambda ij: (gcd(m[ij[0]][ij[1]], q), ij[0] != ij[1]),
        )
        if i != j:
            m[i] = [x + y for x, y in zip(m[i], m[j])]
            for row in m:
                row[i] += row[j]
        g = gcd(m[i][i], q)
        if g == q:  # every entry left is 0 mod q
            return diag + [0] * k
        diag.append(m[i][i] % q)
        inv = pow(m[i][i] // g, -1, q)
        rest = [r for r in range(k) if r != i]
        m = [[(m[r][s] - m[i][r] // g * inv * m[i][s]) % q for s in rest] for r in rest]
    return diag


def _nonzero_solutions(units: list[int], m: int, p: int) -> int:
    """#{x in F_p^k, x != 0 : sum u_i x_i^2 = m}, for units u_i and odd p.

    The classical counts of a diagonal quadratic form over F_p (Lidl and
    Niederreiter, Finite Fields, section 6.2) with the zero vector taken out.
    """
    k = len(units)
    if k == 0:
        return 0
    det = prod(units)
    half = (k - 1) // 2
    if k % 2:
        total = p ** (k - 1) + p**half * kronecker((-1) ** half * m * det, p)
    else:
        nu = p - 1 if m % p == 0 else -1
        total = p ** (k - 1) + nu * p**half * kronecker((-1) ** (k // 2) * det, p)
    return total - (m % p == 0)


def _count_odd(coeffs, n: int, p: int, t: int) -> int:
    """Jordan recursion on the diagonal form <c_1, c_2, c_3> modulo p^t.

    With I the indices of the unit c_i, every solution with x_I != 0 (mod p)
    is smooth and lifts p^(2(t-1)) ways, the other coordinates free mod p;
    the rest have x_I = p*y_I, which needs p | n and leaves the form with
    c_I multiplied and the other c_i divided by p, modulo p^(t-1):

        N_t(n) = p^(2(t-1)) p^(3-k) Z(n mod p) + [p | n] p^(3-k) N_(t-1)(n/p).
    """
    diag = _diagonal_odd(coeffs, p, p**t)
    n %= p**t
    total, scale = 0, 1
    while t:
        units = [c for c in diag if c % p]
        free = p ** (3 - len(units))
        total += scale * p ** (2 * (t - 1)) * free * _nonzero_solutions(units, n, p)
        if n % p:
            return total
        scale *= free
        n //= p
        t -= 1
        diag = [c * p if c % p else c // p for c in diag]
    return total + scale


def _count_two(coeffs, n: int, t: int) -> int:
    """Hensel lifting on x mod 2 for F = Q + L.x + k ≡ 0 (mod 2^t), level by level.

    An all-even F is halved (8 lifts per solution).  Otherwise each x0 mod 2
    with F(x0) even is either smooth (an odd entry of grad F(x0)), lifting
    4^(t-1) ways, or passed down as F(x0 + 2y)/2 = F(x0)/2 + grad F(x0).y
    + 2Q(y) modulo 2^(t-1).  Each level maps its distinct subproblems to the
    number of ways they are reached; the keys below the top level are reduced
    modulo the level's 2^t, so identical subproblems are counted once.  A
    subproblem modulo 2^t costs 8*t units of work: 8 residues on t-bit
    integers, charged level by level against the work limit.
    """
    level = {(*coeffs, 0, 0, 0, -n): 1}
    total = work = 0
    while t and level:
        work += 8 * t * len(level)
        charge(work, "2-adic lifting modulo 2^%d", t)
        below: dict[tuple[int, ...], int] = {}
        mask = (1 << (t - 1)) - 1
        for F, ways in level.items():
            a, b, c, d, e, f, l1, l2, l3, k = F
            if all(v % 2 == 0 for v in F):
                child = tuple((v >> 1) & mask for v in F)
                below[child] = below.get(child, 0) + 8 * ways
                continue
            for x, y, z in product((0, 1), repeat=3):  # x*x = x on {0, 1}
                val = a * x + b * y + c * z + d * y * z + e * z * x + f * x * y + l1 * x + l2 * y + l3 * z + k
                if val % 2:
                    continue
                grad = (2 * a * x + f * y + e * z + l1, f * x + 2 * b * y + d * z + l2, e * x + d * y + 2 * c * z + l3)
                if any(g % 2 for g in grad):
                    total += ways << (2 * (t - 1))
                else:
                    child = tuple(v & mask for v in (2 * a, 2 * b, 2 * c, 2 * d, 2 * e, 2 * f, *grad, val // 2))
                    below[child] = below.get(child, 0) + ways
        level = below
        t -= 1
    return total + sum(level.values())


def count_solutions_mod(form: TernaryForm, n: int, p: int, t: int) -> int:
    """#{(x,y,z) mod p^t : form(x,y,z) ≡ n (mod p^t)}, exactly.

    Raises ResourceLimitError when the count would cost more than the work
    limit: t^2 * log2(p) units at odd p, 8*t per subproblem modulo 2^t at p = 2.
    """
    if not is_prime(p):
        raise FormError(f"{p} is not a prime")
    if t < 1:
        raise ValueError("t must be >= 1")
    if p == 2:
        return _count_two(form.coeffs, n, t)
    charge(t * t * p.bit_length(), "counting modulo %d^%d", p, t)  # t steps on t*log2(p)-bit integers
    return _count_odd(form.coeffs, n, p, t)


# -- densities ------------------------------------------------------------

@dataclass(frozen=True)
class LocalDensity:
    value: Fraction
    prime: int
    exponent_used: int


def sufficient_exponent(n: int, p: int) -> int:
    return valuation(n, p)[0] + (5 if p == 2 else 3)


def local_density(form: TernaryForm, n: int, p: int) -> LocalDensity:
    """d_{form,p}(n) = count / p^(2t) at a stabilized exponent t.

    t = v_p(n) + 3 for odd p, v_2(n) + 5 for p = 2; equality of the values
    at t and t+1 is verified and a mismatch is a hard error.
    """
    if n < 1:
        raise ValueError("local density is defined for n >= 1")
    if not is_prime(p):
        raise FormError(f"{p} is not a prime")
    t = sufficient_exponent(n, p)
    val = Fraction(count_solutions_mod(form, n, p, t), p ** (2 * t))
    val2 = Fraction(count_solutions_mod(form, n, p, t + 1), p ** (2 * (t + 1)))
    if val != val2:
        raise StabilizationError(
            f"density of {form} at p={p}, n={n} differs between t={t} and t={t + 1}"
        )
    return LocalDensity(val, p, t)


def density_formula_odd(n: int, p: int) -> Fraction:
    """Two-case closed form for the density at an odd prime coprime to 2*disc."""
    if n < 1:
        raise ValueError("n must be >= 1")
    v, m = valuation(n, p)
    k = v // 2
    if v % 2 == 0:
        return Fraction(1, p) + 1 + Fraction(kronecker(-m, p) - 1, p ** (k + 1))
    return (Fraction(1, p) + 1) * (1 - Fraction(1, p ** (k + 1)))


def psi(n: int) -> Fraction:
    """2-adic density of x^2+y^2+z^2: the three-case 4^a*k table."""
    if n < 1:
        raise ValueError("n must be >= 1")
    a, k = valuation(n, 4)
    if k % 8 == 7:
        return Fraction(0)
    if k % 8 == 3:
        return Fraction(1, 2**a)
    return Fraction(3, 2 ** (a + 1))


def gamma_p(n: int, p: int) -> Fraction:
    """p * (density(p^2*n) - density(n)) for x^2+y^2+z^2, in closed form."""
    if n < 1:
        raise ValueError("n must be >= 1")
    v, m = valuation(n, p)
    k = v // 2
    lead = Fraction(p - 1, p ** (1 + k))
    if v % 2 == 0:
        return lead * (1 - kronecker(-m, p))
    return lead * (1 + Fraction(1, p))


def p_factor(n: int) -> Fraction:
    """Product over odd primes p with p^2 | n of the squarefull correction."""
    if n < 1:
        raise ValueError("n must be >= 1")
    result = Fraction(1)
    # Factor by trial division; desk-scale n only.  The factor left over
    # after the loop is a prime to the first power, so it contributes 1.
    p = 3
    _, rest = valuation(n, 2)
    while p * p <= rest:
        if rest % p == 0:
            v, rest = valuation(rest, p)
            b = v // 2
            if b >= 1:
                mm = n // p ** (2 * b)
                term = sum(Fraction(1, p**i) for i in range(b))
                term += 1 / (p**b * (1 - Fraction(kronecker(-mm, p), p)))
                result *= term
        p += 2
    return result
