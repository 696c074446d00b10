"""Exact p-adic local representation densities by congruence counting.

The direct counter works modulo p^t in O(p^2t)-ish time: it splits off one
variable, histograms each piece's values, and convolves the histograms
(exactly, via packed big-integer multiplication).  Densities are rationals
count / p^(2t), certified by recomputing at t+1 and demanding equality.

The closed-form densities (odd-prime two-case formula, the 2-adic table for
sums of three squares, the difference kernel, the squarefree-part product)
live here as well, so each has an independent counting cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .forms import FormError, TernaryForm, apply_basis
from .matrices import shear

DEFAULT_WORK_LIMIT = 10**9


class ResourceLimitError(RuntimeError):
    """Requested congruence count exceeds the configured work limit."""


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


# -- value histograms -----------------------------------------------------

def _uni_hist(alpha: int, q: int) -> list[int]:
    """hist[v] = #{x mod q : alpha * x^2 ≡ v (mod q)}."""
    h = [0] * q
    for x in range(q):
        h[(alpha * x * x) % q] += 1
    return h


def _conv_cyclic(h1: list[int], h2: list[int]) -> list[int]:
    """Exact cyclic convolution via packed big-int multiplication.

    Both inputs are single-variable histograms, each summing to q, so every
    coefficient of the product is at most q^2; it fits its 8-byte word
    while q < 2^32.
    """
    q = len(h1)
    assert q < 1 << 32, "histogram too long for 8-byte product words"
    b1 = b"".join(v.to_bytes(8, "little") for v in h1)
    b2 = b"".join(v.to_bytes(8, "little") for v in h2)
    prod = int.from_bytes(b1, "little") * int.from_bytes(b2, "little")
    raw = prod.to_bytes(16 * q, "little")
    out = [0] * q
    for i in range(2 * q - 1):
        word = int.from_bytes(raw[8 * i : 8 * i + 8], "little")
        out[i % q] += word
    return out


def _yz_pair_count(w: int, s: int) -> int:
    """#{(y, z) mod 2^s : y*z ≡ w (mod 2^s)}."""
    if s == 0:
        return 1
    if w % (1 << s) == 0:
        return s * (1 << (s - 1)) + (1 << s)
    i, _ = valuation(w % (1 << s), 2)
    return (i + 1) * (1 << (s - 1))


def _scaled_yz_hist(k: int, t: int) -> list[int]:
    """hist[v] = #{(y, z) mod 2^t : k*y*z ≡ v (mod 2^t)}."""
    q = 1 << t
    k %= q
    h = [0] * q
    if k == 0:
        h[0] = q * q
        return h
    j, k = valuation(k, 2)
    s = t - j
    mult = 1 << (2 * j)
    for w in range(1 << s):
        h[((k << j) * w) % q] += mult * _yz_pair_count(w, s)
    return h


def _binary_hist_brute(b: int, c: int, d: int, q: int) -> list[int]:
    h = [0] * q
    for y in range(q):
        by = b * y * y
        dy = d * y
        for z in range(q):
            h[(by + c * z * z + dy * z) % q] += 1
    return h


# -- direct congruence counting -------------------------------------------

@lru_cache(maxsize=256)
def _odd_split_hists(a: int, b: int, c: int, d: int, p: int, t: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Histograms of a*x^2 and of b*y^2 + c*z^2 + d*yz modulo p^t (odd p)."""
    q = p**t
    h1 = _uni_hist(a, q)
    b %= q
    c %= q
    d %= q
    vals = [valuation(v, p)[0] for v in (b, c, d) if v]
    if not vals:
        h2 = [0] * q
        h2[0] = q * q
        return tuple(h1), tuple(h2)
    j = min(min(vals), t)
    pj = p**j
    b2, c2, d2 = b // pj, c // pj, d // pj
    t2 = t - j
    q2 = p**t2
    if t2 == 0:
        h2 = [0] * q
        h2[0] = q * q
        return tuple(h1), tuple(h2)
    if b2 % p == 0 and c2 % p == 0:
        # cross term is the unit: y -> y, z -> y + z
        b2, c2, d2 = b2 + c2 + d2, c2, 2 * c2 + d2
    elif b2 % p == 0:
        b2, c2 = c2, b2
    inv4b = pow(4 * b2, -1, q2)
    gamma = (c2 - d2 * d2 * inv4b) % q2
    hq2 = _conv_cyclic(_uni_hist(b2, q2), _uni_hist(gamma, q2))
    h2 = [0] * q
    mult = pj * pj
    for w in range(q2):
        h2[(pj * w) % q] += mult * hq2[w]
    return tuple(h1), tuple(h2)


def _count_odd(coeffs, n: int, p: int, t: int) -> int:
    if t <= 0:
        return 1
    q = p**t
    a, b, c, d, e, f = (v % q for v in coeffs)
    n %= q
    if all(v % p == 0 for v in (a, b, c, d, e, f)):
        if n % p:
            return 0
        return p**3 * _count_odd(
            tuple(v // p for v in (a, b, c, d, e, f)), n // p, p, t - 1
        )
    form = TernaryForm(a, b, c, d, e, f)
    # Move a unit onto the x^2 coefficient.
    if form.a % p == 0:
        if form.b % p:
            form = apply_basis(form, ((0, 1, 0), (1, 0, 0), (0, 0, -1)))
        elif form.c % p:
            form = apply_basis(form, ((0, 0, 1), (0, -1, 0), (1, 0, 0)))
        elif form.d % p:
            form = apply_basis(form, shear(1, 2))  # b += c + d
            form = apply_basis(form, ((0, 1, 0), (1, 0, 0), (0, 0, -1)))
        elif form.e % p:
            form = apply_basis(form, shear(0, 2))  # a += c + e
        else:
            form = apply_basis(form, shear(0, 1))  # a += b + f
    # Kill the cross terms involving x.
    inv2a = pow(2 * form.a, -1, q)
    t2 = (-form.f * inv2a) % q
    t3 = (-form.e * inv2a) % q
    form = apply_basis(form, ((1, t2, t3), (0, 1, 0), (0, 0, 1)))
    assert form.e % q == 0 and form.f % q == 0
    h1, h2 = _odd_split_hists(form.a % q, form.b % q, form.c % q, form.d % q, p, t)
    return sum(h1[v] * h2[(n - v) % q] for v in range(q))


@lru_cache(maxsize=256)
def _two_split_hists(alpha: int, b: int, c: int, d: int, t: int, work_limit: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    q = 1 << t
    h1 = _uni_hist(alpha, q)
    if d % q == 0:
        h2 = _conv_cyclic(_uni_hist(b, q), _uni_hist(c, q))
    elif b % q == 0 and c % q == 0:
        h2 = _scaled_yz_hist(d, t)
    else:
        if q * q > work_limit:
            raise ResourceLimitError(
                f"binary histogram modulo 2^{t} needs {q * q} operations (limit {work_limit})"
            )
        h2 = _binary_hist_brute(b % q, c % q, d % q, q)
    return tuple(h1), tuple(h2)


def _count_two(coeffs, n: int, t: int, work_limit: int) -> int:
    if t <= 0:
        return 1
    q = 1 << t
    a, b, c, d, e, f = (v % q for v in coeffs)
    n %= q
    if all(v % 2 == 0 for v in (a, b, c, d, e, f)):
        if n % 2:
            return 0
        return 8 * _count_two(
            tuple(v // 2 for v in (a, b, c, d, e, f)), n // 2, t - 1, work_limit
        )
    # Find a variable with no cross terms modulo q.
    if e % q == 0 and f % q == 0:
        alpha, bin3 = a, (b, c, d)
    elif d % q == 0 and f % q == 0:
        alpha, bin3 = b, (a, c, e)
    elif d % q == 0 and e % q == 0:
        alpha, bin3 = c, (a, b, f)
    else:
        if q**3 > work_limit:
            raise ResourceLimitError(
                f"brute-force count modulo 2^{t} needs {q**3} operations (limit {work_limit})"
            )
        form = TernaryForm(a, b, c, d, e, f)
        total = 0
        for x in range(q):
            for y in range(q):
                base = a * x * x + b * y * y + f * x * y
                lin = d * y + e * x
                for z in range(q):
                    if (base + c * z * z + lin * z - n) % q == 0:
                        total += 1
        return total
    h1, h2 = _two_split_hists(alpha, bin3[0], bin3[1], bin3[2], t, work_limit)
    return sum(h1[v] * h2[(n - v) % q] for v in range(q))


def count_solutions_mod(
    form: TernaryForm, n: int, p: int, t: int, work_limit: int = DEFAULT_WORK_LIMIT
) -> int:
    """#{(x,y,z) mod p^t : form(x,y,z) ≡ n (mod p^t)}, exactly."""
    if not is_prime(p):
        raise FormError(f"{p} is not a prime")
    if t < 1:
        raise ValueError("t must be >= 1")
    if p**t > work_limit // 64:
        raise ResourceLimitError(
            f"modulus p^t = {p}^{t} exceeds the work limit {work_limit}"
        )
    if p == 2:
        return _count_two(form.coeffs, n, t, work_limit)
    return _count_odd(form.coeffs, n, p, t)


# -- densities ------------------------------------------------------------

@dataclass(frozen=True)
class LocalDensity:
    value: Fraction
    prime: int
    exponent_used: int
    stabilized: bool


def sufficient_exponent(n: int, p: int) -> int:
    return valuation(n, p)[0] + (5 if p == 2 else 3)


def local_density(
    form: TernaryForm, n: int, p: int, work_limit: int = DEFAULT_WORK_LIMIT
) -> LocalDensity:
    """d_{form,p}(n) = count / p^(2t) at a stabilized exponent t.

    t = v_p(n) + 3 for odd p, v_2(n) + 5 for p = 2; equality of the values
    at t and t+1 is verified and a mismatch is a hard error.
    """
    if n < 1:
        raise ValueError("local density is defined for n >= 1")
    if not is_prime(p):
        raise FormError(f"{p} is not a prime")
    t = sufficient_exponent(n, p)
    val = Fraction(count_solutions_mod(form, n, p, t, work_limit), p ** (2 * t))
    val2 = Fraction(count_solutions_mod(form, n, p, t + 1, work_limit), p ** (2 * (t + 1)))
    if val != val2:
        raise StabilizationError(
            f"density of {form} at p={p}, n={n} differs between t={t} and t={t + 1}"
        )
    return LocalDensity(val, p, t, True)


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


def sqrt_count_mod_2t(c: int, t: int) -> int:
    """#{0 <= x < 2^t : x^2 ≡ c (mod 2^t)}."""
    if t < 1:
        raise ValueError("t must be >= 1")
    q = 1 << t
    if not 0 <= c < q:
        raise ValueError("need 0 <= c < 2^t")
    if c == 0:
        return 1 << (t // 2)
    j, c = valuation(c, 2)
    if j % 2:
        return 0
    m = j // 2
    r = t - j  # >= 1 since 2^j <= c < 2^t
    if r >= 3:
        return (1 << m) * 4 if c % 8 == 1 else 0
    if r == 2:
        return (1 << m) * 2 if c % 4 == 1 else 0
    return 1 << m  # r == 1: x^2 ≡ 1 (mod 2) always solvable by odd x


def character_sum_check(a: int, p: int) -> int:
    """sum_{y=0}^{p-1} (y^2 + a | p); equals -1 whenever p is odd, p ∤ a."""
    if p % 2 == 0 or a % p == 0:
        raise ValueError("need an odd prime p not dividing a")
    return sum(kronecker(y * y + a, p) for y in range(p))
