"""Exact p-adic local representation densities by congruence counting.

The counter works modulo p^t by recursion on x mod p, in work that grows
with t, not with p^t.  At odd p the form is diagonalised over Z/p^t, each
step pivoting on the first unit on the diagonal, and a Jordan recursion
counts the solutions that are smooth mod p in closed form and recurses on
the rest with one exponent less.  At p = 2 Hensel lifting on x mod 2 lifts
smooth residues by a power of 4 and passes the singular ones down one
exponent, level by level, counting identical subproblems once.  Each
subproblem is 2^j Q1 + L.x + k, with Q1 the form over its 2-content: at
j >= 1 the parity of k alone settles it, and only j = 0 branches on x mod 2.
Each count is charged to the work limit first.

Both counters give the counts modulo p^t and p^(t+1) from one pass: the
recursion modulo p^(t+1) passes through the one modulo p^t a step before
its end.  Densities are rationals count / p^(2t), and the counts from that
one pass are checked to give the same value at t and t+1.  One integer
core, `_density_pair`, returns that count, p^(2t) and t; `local_density`
is its count over p^(2t) as a Fraction, with t.

The closed-form densities (the odd-prime two-case formula, the 2-adic table
for sums of three squares, the difference kernel) live here as well, so
each has an independent counting cross-check.  Each closed form has one
integer core that returns (num, den) with den > 0, and its public name is
that pair as a Fraction.  The density suites of `verify` read these cores
and `_density_pair` and compare by cross-multiplication, building a
Fraction only on failure.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import product
from math import gcd, isqrt, prod

from .forms import FormError, ResourceLimitError as ResourceLimitError, TernaryForm, _read_only, charge


class StabilizationError(RuntimeError):
    """Density failed to stabilize between exponents t and t+1."""


# -- elementary number theory ---------------------------------------------

def valuation(n: int, p: int) -> tuple[int, int]:
    """(v, n // p**v) for the largest v with p**v dividing the nonzero n."""
    if p < 2:
        raise ValueError(f"valuation base must be >= 2, got {p}")
    if n == 0:
        raise ValueError("valuation of 0 is undefined")
    if p == 2 or p == 4:  # the trailing zero bits of n, in steps of one or two
        step = p.bit_length() - 1
        v = ((n & -n).bit_length() - 1) // step
        return v, n >> step * v
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v, n


# The first 13 primes.  Miller-Rabin to all of them as bases is exact for
# n < MR_BOUND (J. Sorenson and J. Webster, Strong pseudoprimes to twelve
# prime bases, Math. Comp. 86 (2017); MR_BOUND is their psi_13).
MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_BOUND = 3317044064679887385961981


def is_prime(p: int) -> bool:
    """Exact primality.

    Below MR_BOUND: deterministic Miller-Rabin to the bases MR_BASES,
    charged len(MR_BASES) * log2(p) units first (one modular squaring per
    bit and base).  From MR_BOUND on: trial division by 2 and the odd
    numbers up to sqrt(p), charged isqrt(p) units first.
    """
    if p < 2:
        return False
    if p >= MR_BOUND:
        r = isqrt(p)
        charge(r, "testing %d for primality", p)
        if p % 2 == 0:
            return False
        for i in range(3, r + 1, 2):
            if p % i == 0:
                return False
        return True
    charge(len(MR_BASES) * p.bit_length(), "testing %d for primality", p)
    for b in MR_BASES:
        if p % b == 0:
            return p == b
    s, d = valuation(p - 1, 2)
    for b in MR_BASES:
        x = pow(b, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
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
    if not n & 1:
        if not a & 1:
            return 0
        t, n = valuation(n, 2)
        if t & 1 and a % 8 in (3, 5):
            result = -result
    a %= n
    # Jacobi loop: n odd positive.
    while a:
        if not a & 1:
            e, a = valuation(a, 2)
            if e & 1 and n % 8 in (3, 5):
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
    Each step pivots on the first unit on the diagonal and takes its Schur
    complement as the rest of the form; the last 1x1 block is the last
    coefficient.  Only when no diagonal entry is a unit does a step scan for
    an entry of least valuation (gcd with q), preferring a diagonal one; an
    off-diagonal pivot A_ij is first moved onto the diagonal by
    e_i -> e_i + e_j, which gives A_ii + 2A_ij + A_jj of the same valuation.
    A form with no cross terms is its own diagonal: each step would leave
    the rest of it as it is, so it is only reduced mod q.  The order of the
    coefficients may then differ from the steps', which no count reads.
    """
    a, b, c, d, e, f = coeffs
    if not (d or e or f):
        return [a % q, b % q, c % q]
    h = (q + 1) // 2  # 1/2 mod q
    m = [[a, f * h, e * h], [f * h, b, d * h], [e * h, d * h, c]]
    diag = []
    while len(m) > 1:
        k = len(m)
        g = 1
        for i in range(k):
            if m[i][i] % p:
                break
        else:
            # The first entry, row by row from the diagonal, of least key
            # 2 * gcd(A_rs, q) + (r != s).
            best = 2 * q + 2  # above every key
            for r in range(k):
                for s in range(r, k):
                    key = gcd(m[r][s], q) * 2 + (r != s)
                    if key < best:
                        i, j, best = r, s, key
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
    return diag + [m[0][0] % q]


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


def _counts_odd(coeffs, n: int, p: int, t: int) -> tuple[int, int]:
    """(N_t(n), N_(t+1)(n)) by one Jordan recursion on the form diagonalised modulo p^(t+1).

    The diagonal <c_1, c_2, c_3> modulo p^(t+1) is one modulo p^t as well.
    With I the indices of the unit c_i, every solution with x_I != 0 (mod p)
    is smooth and lifts p^(2(t-1)) ways, the other coordinates free mod p;
    the rest have x_I = p*y_I, which needs p | n and leaves the form with
    c_I multiplied and the other c_i divided by p, modulo p^(t-1):

        N_t(n) = p^(2(t-1)) p^(3-k) Z(n mod p) + [p | n] p^(3-k) N_(t-1)(n/p).

    Each step of the recursion modulo p^(t+1) is the same step modulo p^t
    with its smooth term multiplied by p^2, so N_t is read off the walk to
    N_(t+1) one step before its end.  Charged (t+1)^2 * log2(p) units: t+1
    steps on integers of (t+1)*log2(p) bits.
    """
    charge((t + 1) ** 2 * p.bit_length(), "counting modulo %d^%d", p, t + 1)
    diag = _diagonal_odd(coeffs, p, p ** (t + 1))
    total, scale, low = 0, 1, None
    for s in range(t + 1, 0, -1):  # the exponent left
        if s == 1:  # the walk modulo p^t ends here
            low = total // (p * p) + scale
        units = [c for c in diag if c % p]
        free = p ** (3 - len(units))
        total += scale * p ** (2 * (s - 1)) * free * _nonzero_solutions(units, n, p)
        if n % p:
            break
        scale *= free
        n //= p
        diag = [c * p if c % p else c // p for c in diag]
    else:
        total += scale
    return (total // (p * p) if low is None else low), total


@cache
def _parity_split(bits: int) -> tuple[int, tuple[tuple[int, int, int], ...]]:
    """(smooth count, singular residues) among x mod 2 for an F whose ten
    entries (a, b, c, d, e, f, l1, l2, l3, k) have the parities of bits 0..9."""
    a, b, c, d, e, f, l1, l2, l3, k = [(bits >> i) & 1 for i in range(10)]
    smooth, singular = 0, []
    for x, y, z in product((0, 1), repeat=3):  # x*x = x on {0, 1}
        if (a * x + b * y + c * z + d * y * z + e * z * x + f * x * y + l1 * x + l2 * y + l3 * z + k) % 2:
            continue
        if (f * y + e * z + l1) % 2 or (f * x + d * z + l2) % 2 or (e * x + d * y + l3) % 2:
            smooth += 1
        else:
            singular.append((x, y, z))
    return smooth, tuple(singular)


def _counts_two(coeffs, n: int, t: int) -> tuple[int, int]:
    """(N_t(n), N_(t+1)(n)) by one walk of the Hensel tree modulo 2^(t+1).

    With 2^c the 2-content of the form and Q1 the form divided by it, every
    subproblem is F = 2^j Q1 + L.x + k ≡ 0 (mod 2^s), keyed (j, l1, l2, l3, k)
    with j <= s; the root has j = min(c, t+1), L = 0 and k = -n.

    Only at j = 0 does a residue x0 mod 2 with F(x0) even branch: it is
    smooth (an odd entry of grad F(x0)), lifting 4^(s-1) ways, or passed
    down as F(x0 + 2y)/2 = F(x0)/2 + grad F(x0).y + 2 Q1(y) modulo 2^(s-1),
    a child with j = 1 whose L, a gradient at a singular residue, is even.
    Halving keeps L ≡ 0 (mod 2^j), so at j >= 1 F ≡ k (mod 2) and nothing
    branches: an odd k leaves no solution, and an even k halves F to the
    child (j-1, L/2, k/2), reached 8 ways.  Each level maps its distinct
    subproblems to the number of ways they are reached; L and k below the
    top level are reduced modulo the level's 2^s, so identical subproblems
    are counted once (2^j Q1 modulo 2^s is 0 at j = s and otherwise tells
    j apart).

    Every branch reads only parities, and above the leaves the keys are
    reduced modulo at least 2, so the tree modulo 2^t is this tree cut one
    level early: a smooth residue adds 4^(s-2) ways to N_t, and the ways
    still pending at the leaves (s = 1) count once each.  A subproblem
    modulo 2^s costs 8*s units of work: 8 residues on s-bit integers,
    charged level by level against the work limit.
    """
    g = gcd(*coeffs)
    j = min((g & -g).bit_length() - 1, t + 1) if g else t + 1  # 2^c is g's lowest set bit
    a, b, c, d, e, f = coeffs
    a, b, c, d, e, f = a >> j, b >> j, c >> j, d >> j, e >> j, f >> j  # Q1, read only at j = 0
    quad = a & 1 | (b & 1) << 1 | (c & 1) << 2 | (d & 1) << 3 | (e & 1) << 4 | (f & 1) << 5
    level = {(j, 0, 0, 0, -n): 1}
    low = high = work = 0
    for s in range(t + 1, 0, -1):  # the exponent left
        if not level:
            break
        if s == 1:
            low += sum(level.values())
        work += 8 * s * len(level)
        charge(work, "2-adic lifting modulo 2^%d", s)
        below: dict[tuple[int, ...], int] = {}
        mask = (1 << (s - 1)) - 1
        smooth = 0
        for (j, l1, l2, l3, k), ways in level.items():
            if j:  # F ≡ k (mod 2): halve F or drop it
                if not k & 1:
                    child = (j - 1, l1 >> 1 & mask, l2 >> 1 & mask, l3 >> 1 & mask, k >> 1 & mask)
                    below[child] = below.get(child, 0) + 8 * ways
                continue
            count, singular = _parity_split(quad | (l1 & 1) << 6 | (l2 & 1) << 7 | (l3 & 1) << 8 | (k & 1) << 9)
            smooth += count * ways
            for x, y, z in singular:
                val = k + x * (a + l1) + y * (b + l2) + z * (c + l3) + y * z * d + z * x * e + x * y * f
                child = (
                    1,
                    (l1 + 2 * a * x + f * y + e * z) & mask,
                    (l2 + f * x + 2 * b * y + d * z) & mask,
                    (l3 + e * x + d * y + 2 * c * z) & mask,
                    val >> 1 & mask,
                )
                below[child] = below.get(child, 0) + ways
        high += smooth << 2 * (s - 1)
        if s > 1:
            low += smooth << 2 * (s - 2)
        level = below
    return low, high + sum(level.values())


def _counts(form: TernaryForm, n: int, p: int, t: int) -> tuple[int, int]:
    """(count modulo p^t, count modulo p^(t+1)) for the prime p, from one pass."""
    return _counts_two(form.coeffs, n, t) if p == 2 else _counts_odd(form.coeffs, n, p, t)


def count_solutions_mod(form: TernaryForm, n: int, p: int, t: int) -> int:
    """#{(x,y,z) mod p^t : form(x,y,z) ≡ n (mod p^t)}, exactly.

    Raises ResourceLimitError when the count would cost more than the work
    limit: t^2 * log2(p) units at odd p, 8*t per subproblem modulo 2^t at p = 2.
    """
    if not is_prime(p):
        raise FormError(f"{p} is not a prime")
    if t < 1:
        raise ValueError("t must be >= 1")
    return _counts(form, n, p, t - 1)[1]


# -- densities ------------------------------------------------------------

class LocalDensity:
    """A local density `value`, counted at the exponent `exponent_used`
    (`local_density`); read-only, equal and hashed by both."""

    def __init__(self, value: Fraction, exponent_used: int):
        vars(self).update(value=value, exponent_used=exponent_used)

    __setattr__ = __delattr__ = _read_only

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.value, self.exponent_used) == (other.value, other.exponent_used)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.value, self.exponent_used))

    def __repr__(self) -> str:
        return f"{self.__class__.__qualname__}(value={self.value!r}, exponent_used={self.exponent_used!r})"


def sufficient_exponent(n: int, p: int) -> int:
    return valuation(n, p)[0] + (5 if p == 2 else 3)


def _density_pair(form: TernaryForm, n: int, p: int) -> tuple[int, int, int]:
    """(N_t(n), p^(2t), t): `local_density` in integers, not in lowest terms.

    t = v_p(n) + 3 for odd p, v_2(n) + 5 for p = 2.  One pass of the counter
    modulo p^(t+1) gives the counts N_t and N_(t+1); the values at t and t+1
    are equal exactly when N_(t+1) = p^2 N_t, and a mismatch is a hard error.
    The pass is charged as the count modulo p^(t+1).
    """
    if n < 1:
        raise ValueError("local density is defined for n >= 1")
    if not is_prime(p):
        raise FormError(f"{p} is not a prime")
    t = sufficient_exponent(n, p)
    low, high = _counts(form, n, p, t)
    if high != low * p * p:
        raise StabilizationError(
            f"density of {form} at p={p}, n={n} differs between t={t} and t={t + 1}"
        )
    return low, p ** (2 * t), t


def local_density(form: TernaryForm, n: int, p: int) -> LocalDensity:
    """d_{form,p}(n) = count / p^(2t) at a stabilized exponent t (see `_density_pair`)."""
    count, den, t = _density_pair(form, n, p)
    return LocalDensity(Fraction(count, den), t)


def _density_odd_pair(n: int, p: int) -> tuple[int, int]:
    """(num, den), den > 0, of `density_formula_odd`, in integers."""
    if n < 1:
        raise ValueError("n must be >= 1")
    v, m = valuation(n, p)
    pk = p ** (v // 2)
    if v % 2 == 0:  # 1 + 1/p + ((-m|p) - 1)/p^(k+1)
        return pk * (p + 1) + kronecker(-m, p) - 1, pk * p
    return (p + 1) * (pk * p - 1), pk * p * p  # (1 + 1/p)(1 - 1/p^(k+1))


def density_formula_odd(n: int, p: int) -> Fraction:
    """Two-case closed form for the density at an odd prime coprime to 2*disc."""
    return Fraction(*_density_odd_pair(n, p))


def _psi_pair(n: int) -> tuple[int, int]:
    """(num, den), den > 0, of `psi`, in integers."""
    if n < 1:
        raise ValueError("n must be >= 1")
    a, k = valuation(n, 4)
    if k % 8 == 7:
        return 0, 1
    if k % 8 == 3:
        return 1, 2**a
    return 3, 2 ** (a + 1)


def psi(n: int) -> Fraction:
    """2-adic density of x^2+y^2+z^2: the three-case 4^a*k table."""
    return Fraction(*_psi_pair(n))


def _gamma_pair(n: int, p: int) -> tuple[int, int]:
    """(num, den), den > 0, of `gamma_p`, in integers."""
    if n < 1:
        raise ValueError("n must be >= 1")
    v, m = valuation(n, p)
    pk = p ** (v // 2)
    if v % 2 == 0:  # (p-1)/p^(k+1) * (1 - (-m|p))
        return (p - 1) * (1 - kronecker(-m, p)), pk * p
    return p * p - 1, pk * p * p  # (p-1)/p^(k+1) * (1 + 1/p)


def gamma_p(n: int, p: int) -> Fraction:
    """p * (density(p^2*n) - density(n)) for x^2+y^2+z^2, in closed form."""
    return Fraction(*_gamma_pair(n, p))
