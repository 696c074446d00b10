from collections import Counter
from fractions import Fraction
from math import isqrt
from pathlib import Path

import json
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ternaryforms import local
from ternaryforms.forms import WORK_LIMIT, FormError, TernaryForm
from ternaryforms.genus import enumerate_tg1
from ternaryforms.local import (
    LocalDensity,
    ResourceLimitError,
    StabilizationError,
    _counts,
    count_solutions_mod,
    density_formula_odd,
    gamma_p,
    is_prime,
    kronecker,
    local_density,
    psi,
    valuation,
)

ODD_PRIMES = [3, 5, 7, 11, 13, 17, 19, 23]


def test_kronecker_matches_euler_criterion():
    for p in ODD_PRIMES:
        for a in range(1, p):
            euler = pow(a, (p - 1) // 2, p)
            expected = 1 if euler == 1 else -1
            assert kronecker(a, p) == expected, (a, p)
        assert kronecker(p, p) == 0
        assert kronecker(0, p) == 0


def test_kronecker_at_two():
    for a in range(-20, 21):
        if a % 2 == 0:
            assert kronecker(a, 2) == 0
        elif a % 8 in (1, 7):
            assert kronecker(a, 2) == 1
        else:
            assert kronecker(a, 2) == -1


def test_kronecker_special_cases():
    assert kronecker(7, 1) == 1
    assert kronecker(-3, 1) == 1
    assert kronecker(1, 0) == 1
    assert kronecker(-1, 0) == 1
    assert kronecker(5, 0) == 0


# (a|-n) = (a|n) * (-1 if a < 0 else 1), worked by hand.
@pytest.mark.parametrize(
    "a, n, expected",
    [(-1, -1, -1), (-5, -3, -1), (3, -8, -1), (-3, -8, 1), (-2, -7, 1), (-4, -3, 1), (5, -1, 1)],
)
def test_kronecker_at_negative_n(a, n, expected):
    assert kronecker(a, n) == expected


@given(st.integers(-50, 50), st.integers(1, 40), st.integers(1, 40))
@settings(max_examples=300, deadline=None)
def test_kronecker_multiplicative_in_modulus(a, m, n):
    assert kronecker(a, m * n) == kronecker(a, m) * kronecker(a, n)


def kronecker_oracle(a, n):
    """(a|n) from the factorisation of n by trial division: Euler's criterion
    at each odd prime, (a|2) = 0, 1, -1 for a even, a ≡ ±1, a ≡ ±3 (mod 8),
    and (a|-1) = -1 exactly when a < 0."""
    if n == 0:
        return int(a in (1, -1))
    result = -1 if n < 0 and a < 0 else 1
    n, p = abs(n), 2
    while n > 1:
        if p * p > n:
            p = n
        while n % p == 0:
            n //= p
            if p == 2:
                result *= 0 if a % 2 == 0 else 1 if a % 8 in (1, 7) else -1
            else:
                euler = pow(a, (p - 1) // 2, p)
                result *= -1 if euler == p - 1 else euler
        p += 1
    return result


# n = ±2^e * m: composite, even and negative moduli, besides small n of either sign.
KRONECKER_MODULI = st.one_of(
    st.integers(-10**4, 10**4),
    st.builds(lambda sign, e, m: sign * (m << e), st.sampled_from((1, -1)), st.integers(0, 12), st.integers(1, 10**5)),
)


@given(st.integers(-10**4, 10**4), KRONECKER_MODULI)
@settings(max_examples=500, deadline=None)
def test_kronecker_matches_the_factorisation_oracle(a, n):
    assert kronecker(a, n) == kronecker_oracle(a, n)



def brute_hist(form, q):
    """hist[v] = #{(x, y, z) mod q : form(x, y, z) ≡ v (mod q)}, over all q^3 points.

    The points with x and with -x take the same values ((y, z) -> (-y, -z)),
    so x runs over 0..q//2 and each x other than 0 and q/2 counts twice.
    """
    a, b, c, d, e, f = form.coeffs
    # form(x, y, z) = a x^2 + (b y^2 + c z^2 + d yz) + x (e z + f y)
    yz = [((b * y * y + c * z * z + d * y * z) % q, (e * z + f * y) % q) for y in range(q) for z in range(q)]
    hist = [0] * q
    for x in range(q // 2 + 1):
        weight = 1 if x == 0 or 2 * x == q else 2
        ax = a * x * x
        for v, k in Counter([(ax + r + x * s) % q for r, s in yz]).items():
            hist[v] += weight * k
    return hist


def brute_count(form, n, q):
    return brute_hist(form, q)[n % q]


BRUTE_FORMS = [
    TernaryForm(1, 1, 1, 0, 0, 0),
    TernaryForm(1, 1, 3, 0, 0, 1),
    TernaryForm(2, 2, 2, 1, 1, -1),
    TernaryForm(31, 5, 11, 1, -14, 6),
    TernaryForm(3, 4, 4, 4, 0, 0),
    TernaryForm(1, 3, 9, 3, 0, 0),
    TernaryForm(3, 3, 6, 3, 3, 3),
    TernaryForm(-1, 0, 0, 1, 0, 0),
    TernaryForm(-1, 0, 0, 4, 0, 0),
    TernaryForm(2, 4, 8, 4, 0, 2),
]


@pytest.mark.parametrize("form", BRUTE_FORMS, ids=str)
def test_count_matches_brute_force(form):
    for p, t in [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (5, 1), (7, 1)]:
        q = p**t
        for n in (0, 1, 2, p, q - 1, q):
            assert count_solutions_mod(form, n, p, t) == brute_count(form, n, q), (
                form,
                p,
                t,
                n,
            )


SPLITLESS_TG2 = ("3,7,7,6,2,-2", "3,15,15,14,2,-2", "7,8,15,8,2,4")
# The highest t per prime with the count modulo p^(t+1) at most 16 at p = 2
# and at most 125 at odd p.
PAIR_TOPS = {2: 3, 3: 3, 5: 2, 7: 1}


@pytest.mark.parametrize("form", BRUTE_FORMS + [TernaryForm.parse(s) for s in SPLITLESS_TG2], ids=str)
def test_one_pass_counts_both_exponents(form):
    for p, top in PAIR_TOPS.items():
        hists = [brute_hist(form, p**s) for s in range(top + 2)]
        for t in range(top + 1):
            lo, hi = p**t, p ** (t + 1)
            for n in range(-1, 2 * hi + 1):
                assert _counts(form, n, p, t) == (hists[t][n % lo], hists[t + 1][n % hi]), (form, p, t, n)


def test_a_density_walks_one_two_adic_tree(monkeypatch):
    # The counts modulo 2^t and 2^(t+1) come from one walk of the (t+1)-tree,
    # so the 2-adic charges run down from t+1 once.
    levels = []
    real = local.charge

    def record(units, what, *args):
        if what.startswith("2-adic"):
            levels.append(args[0])
        real(units, what, *args)

    monkeypatch.setattr(local, "charge", record)
    for form, n in ((TernaryForm.parse(SPLITLESS_TG2[0]), 32), (TernaryForm(1, 1, 1, 0, 0, 0), 12)):
        levels.clear()
        t = local_density(form, n, 2).exponent_used
        assert levels and levels == list(range(t + 1, t + 1 - len(levels), -1)), (form, n, levels)


def test_a_density_diagonalises_once(monkeypatch):
    moduli = []
    real = local._diagonal_odd

    def record(coeffs, p, q):
        moduli.append(q)
        return real(coeffs, p, q)

    monkeypatch.setattr(local, "_diagonal_odd", record)
    for form, n, p in ((TernaryForm(1, 3, 9, 3, 0, 0), 45, 3), (TernaryForm(31, 5, 11, 1, -14, 6), 7, 7)):
        moduli.clear()
        t = local_density(form, n, p).exponent_used
        assert moduli == [p ** (t + 1)], (form, n, p, moduli)


# For each (form, n, p): the density and exponent, and every charge of the
# count in order (units and message), recorded before the 2-adic subproblems
# were keyed (j, l, k) and the odd-p pivot became the first diagonal unit.
FROZEN_KERNELS = json.loads((Path(__file__).resolve().parent / "data" / "frozen_kernels.json").read_text())


@pytest.mark.parametrize("case", FROZEN_KERNELS, ids=lambda c: f"{c['form']}@{c['n']},{c['p']}")
def test_kernels_count_and_charge_as_recorded(monkeypatch, case):
    charges = []
    real = local.charge

    def record(units, what, *args):
        charges.append([units, what % args])
        real(units, what, *args)

    monkeypatch.setattr(local, "charge", record)
    res = local_density(TernaryForm.parse(case["form"]), case["n"], case["p"])
    assert (str(res.value), res.exponent_used) == (case["density"], case["exponent_used"])
    assert charges == case["charges"]


# 2-content 2, 4 and 8 over odd squares, odd cross terms or both; pure cross
# terms; and the zero form.
SCALED_AND_CROSS_FORMS = [
    TernaryForm.parse(s)
    for s in (
        "2,2,2,0,0,0", "2,6,10,2,2,-2", "0,0,0,2,2,2", "2,4,4,2,0,0",
        "4,4,12,4,4,0", "-4,0,0,8,0,0", "4,8,8,4,0,12",
        "8,8,8,0,0,0", "8,24,40,8,0,-8", "0,0,0,8,8,0",
        "0,0,0,1,0,0", "0,0,0,1,1,1", "0,0,0,3,2,0", "0,0,0,0,0,2", "0,0,0,4,6,2",
        "0,0,0,0,0,0",
    )
]


@pytest.mark.parametrize("form", SCALED_AND_CROSS_FORMS, ids=str)
def test_two_adic_counts_of_scaled_and_cross_term_forms(form):
    hists = [brute_hist(form, 2**s) for s in range(7)]
    for t in range(6):
        for n in range(2 ** (t + 1)):
            assert _counts(form, n, 2, t) == (hists[t][n % 2**t], hists[t + 1][n]), (form, t, n)


@pytest.mark.parametrize(
    "form,n,p,least",
    # Taken at the commit before the one-pass counters: a density is charged
    # as the count at t+1, as when it counted at t and t+1 in turn.
    [("1,1,1,0,0,0", 1594323, 3, 578), ("3,7,7,6,2,-2", 32, 2, 3288), ("1,1,1,0,0,0", 2**40, 2, 21264)],
)
def test_least_admitted_work_limit(form, n, p, least):
    f = TernaryForm.parse(form)
    with pytest.raises(ResourceLimitError):
        limited(least - 1, local_density, f, n, p)
    assert limited(least, local_density, f, n, p) == local_density(f, n, p)


def test_is_prime_is_charged_before_trial_division():
    # From local.MR_BOUND on, primality is trial division, charged isqrt(p)
    # units before it starts: far past the default limit, so refused.
    for p in (local.MR_BOUND, 2 * local.MR_BOUND, 3 * (local.MR_BOUND // 3 + 1)):
        with pytest.raises(ResourceLimitError, match="testing %d for primality" % p):
            is_prime(p)
        with pytest.raises(ResourceLimitError):
            limited(isqrt(p) - 1, is_prime, p)
    # Even numbers and multiples of 3 stop at the first divisor once admitted.
    assert not limited(isqrt(2 * local.MR_BOUND), is_prime, 2 * local.MR_BOUND)
    assert not limited(isqrt(3 * (local.MR_BOUND // 3 + 1)), is_prime, 3 * (local.MR_BOUND // 3 + 1))


def trial_division(n):
    """Oracle: n >= 2 has no divisor 2 <= d <= sqrt(n)."""
    return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))


def test_is_prime_matches_trial_division_below_1e5():
    assert [n for n in range(10**5) if is_prime(n)] == [n for n in range(10**5) if trial_division(n)]


@pytest.mark.parametrize(
    "n, prime",
    [
        # Strong pseudoprimes to the first 4, 9 and 12 prime bases.
        (3215031751, False),
        (3825123056546413051, False),
        (318665857834031151167461, False),
        # Mersenne numbers: 2^61 - 1 is prime, 2^67 - 1 = 193707721 * 761838257287.
        (2**61 - 1, True),
        (2**67 - 1, False),
        (10**16 + 61, True),
        (10**12 + 39, True),
        (10**12 + 41, False),
        (999983**2, False),
        (local.MR_BOUND - 1, False),
    ],
)
def test_miller_rabin_is_exact_on_hard_cases(n, prime):
    assert is_prime(n) is prime


def test_miller_rabin_is_charged_by_bits_before_it_starts():
    p = 10**16 + 61
    units = len(local.MR_BASES) * p.bit_length()
    with pytest.raises(ResourceLimitError):
        limited(units - 1, is_prime, p)
    start = time.perf_counter()
    assert limited(units, is_prime, p)
    assert time.perf_counter() - start < 0.1
    assert [q for q in range(60) if is_prime(q)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]


def test_count_higher_exponent_spot():
    f = TernaryForm(1, 1, 3, 0, 0, 1)
    assert count_solutions_mod(f, 5, 3, 3) == brute_count(f, 5, 27)
    assert count_solutions_mod(f, 9, 3, 3) == brute_count(f, 9, 27)
    g = TernaryForm(1, 1, 1, 0, 0, 0)
    assert count_solutions_mod(g, 7, 2, 5) == brute_count(g, 7, 32)
    assert count_solutions_mod(g, 12, 2, 5) == brute_count(g, 12, 32)


def limited(limit, fn, *args):
    """fn(*args) with the work limit set to limit, restored afterwards."""
    token = WORK_LIMIT.set(limit)
    try:
        return fn(*args)
    finally:
        WORK_LIMIT.reset(token)


def test_work_limit():
    # Modulo 3^30 the count costs 30^2 * 2 units, modulo 2^30 8 * 30 per subproblem.
    three = TernaryForm(1, 1, 1, 0, 0, 0)
    with pytest.raises(ResourceLimitError):
        limited(10**3, count_solutions_mod, three, 1, 3, 30)
    assert limited(1800, count_solutions_mod, three, 1, 3, 30) == count_solutions_mod(three, 1, 3, 30)
    with pytest.raises(ResourceLimitError):
        limited(200, count_solutions_mod, three, 1, 2, 30)
    assert WORK_LIMIT.get() == 10**9
    with pytest.raises(ResourceLimitError):
        count_solutions_mod(three, 1, 2, 10**15)


def test_genus_classes_share_their_density_at_p_73():
    classes = [form for form, _ in enumerate_tg1(73).classes]
    for n in range(1, 11):
        values = {local_density(form, n, 73).value for form in classes}
        assert len(values) == 1, (n, values)


def test_two_adic_count_at_depth_1205():
    # One level per exponent, so no recursion limit applies.
    n = 2**1200
    res = limited(10**400, local_density, TernaryForm(1, 1, 1, 0, 0, 0), n, 2)
    assert res.exponent_used == 1205
    assert res.value == psi(n)


def test_local_density_stabilizes():
    three = TernaryForm(1, 1, 1, 0, 0, 0)
    res = local_density(three, 1, 2)
    assert res.value == Fraction(3, 2)
    assert local_density(three, 3, 2).value == Fraction(1)
    assert local_density(three, 7, 2).value == Fraction(0)


def break_stabilization(monkeypatch, form, n, p):
    """Make `local._counts` at (form, n, p) return a count modulo p^(t+1) that is not p^2 times the one modulo p^t."""
    counts = local._counts

    def unstable(f, m, q, t):
        low, high = counts(f, m, q, t)
        return (low, high + 1) if (f, m, q) == (form, n, p) else (low, high)

    monkeypatch.setattr(local, "_counts", unstable)


def test_counts_that_do_not_stabilize_raise(monkeypatch):
    three = TernaryForm(1, 1, 1, 0, 0, 0)
    break_stabilization(monkeypatch, three, 5, 3)
    message = "density of 1,1,1,0,0,0 at p=3, n=5 differs between t=3 and t=4"
    with pytest.raises(StabilizationError, match=f"^{message}$"):
        local_density(three, 5, 3)
    assert local_density(three, 5, 5).value == density_formula_odd(5, 5)


def test_local_density_rejects_nonpositive():
    with pytest.raises(ValueError):
        local_density(TernaryForm(1, 1, 1, 0, 0, 0), 0, 3)
    with pytest.raises(ValueError, match="^t must be >= 1$"):
        count_solutions_mod(TernaryForm(1, 1, 1, 0, 0, 0), 1, 3, 0)
    for closed_form in (lambda n: density_formula_odd(n, 3), psi, lambda n: gamma_p(n, 3)):
        with pytest.raises(ValueError, match="^n must be >= 1$"):
            closed_form(0)


def test_psi_table():
    assert psi(1) == Fraction(3, 2)
    assert psi(2) == Fraction(3, 2)
    assert psi(3) == Fraction(1)
    assert psi(7) == Fraction(0)
    assert psi(4) == Fraction(3, 4)
    assert psi(12) == Fraction(1, 2)
    assert psi(28) == Fraction(0)
    for n in range(1, 129):
        assert psi(4 * n) == psi(n) / 2


def test_density_formula_odd_spot():
    # p coprime to n: 1 + kronecker(-n, p)/p
    for p in (3, 5, 7):
        for n in range(1, 20):
            if n % p == 0:
                continue
            assert density_formula_odd(n, p) == 1 + Fraction(kronecker(-n, p), p)


def density_formula_odd_oracle(n, p):
    v, m = valuation(n, p)
    k = v // 2
    if v % 2 == 0:
        return Fraction(1, p) + 1 + Fraction(kronecker(-m, p) - 1, p ** (k + 1))
    return (Fraction(1, p) + 1) * (1 - Fraction(1, p ** (k + 1)))


def gamma_p_oracle(n, p):
    v, m = valuation(n, p)
    k = v // 2
    lead = Fraction(p - 1, p ** (1 + k))
    if v % 2 == 0:
        return lead * (1 - kronecker(-m, p))
    return lead * (1 + Fraction(1, p))


def test_closed_forms_match_their_fraction_expressions():
    # Each closed form builds one Fraction from an integer numerator and
    # denominator; the oracles are the formulas written as Fraction sums.
    for p in (3, 5, 7, 11, 13):
        for n in range(1, 3000):
            assert density_formula_odd(n, p) == density_formula_odd_oracle(n, p), (n, p)
            assert gamma_p(n, p) == gamma_p_oracle(n, p), (n, p)


def test_gamma_p_consistency():
    for p in (3, 5, 7):
        for n in range(1, 60):
            assert gamma_p(n, p) == p * (
                density_formula_odd(p * p * n, p) - density_formula_odd(n, p)
            )


def brute_sqrt_count(c, t):
    q = 1 << t
    return sum(1 for x in range(q) if (x * x - c) % q == 0)


X_SQUARED = TernaryForm(1, 0, 0, 0, 0, 0)


def test_sqrt_count_mod_2t():
    # x^2 ≡ c (mod 2^t): y and z are free, so the count is 4^t times the roots.
    for t in range(1, 11):
        for c in range(1 << t):
            assert count_solutions_mod(X_SQUARED, c, 2, t) == 4**t * brute_sqrt_count(c, t), (c, t)


def test_sqrt_count_four_mod_sixteen():
    # x^2 ≡ 4 (mod 16) has solutions x ∈ {2, 6, 10, 14}: exactly 4.
    assert count_solutions_mod(X_SQUARED, 4, 2, 4) == 4 * 16**2
    assert brute_sqrt_count(4, 4) == 4


def _pair_hist(k, q):
    """hist[w] = #{(y, z) mod q : k*y*z ≡ w (mod q)}, directly."""
    hist = [0] * q
    for y in range(q):
        for z in range(q):
            hist[(k * y * z) % q] += 1
    return hist


def test_yz_pair_count():
    # yz: x is free, so the count is q times the number of (y, z) pairs.
    for s in range(1, 7):
        q = 1 << s
        hist = _pair_hist(1, q)
        for w in range(q):
            assert count_solutions_mod(TernaryForm(0, 0, 0, 1, 0, 0), w, 2, s) == q * hist[w], (w, s)


def test_scaled_yz_hist():
    for t in range(1, 6):
        q = 1 << t
        for k in (0, 1, 2, 3, 4, 6, q - 1):
            hist = _pair_hist(k, q)
            form = TernaryForm(0, 0, 0, k, 0, 0)
            assert [count_solutions_mod(form, w, 2, t) for w in range(q)] == [q * h for h in hist], (k, t)


# Every (p, t) with q^3 <= 3*10^4.
SMALL_MODULI = [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (7, 1)]


@st.composite
def p_heavy_forms(draw, p):
    """Forms whose coefficients carry p^0..p^2, and sparse rank-1/rank-2 shapes."""
    coeff = st.builds(lambda c, e: c * p**e, st.integers(-6, 6), st.integers(0, 2))
    coeffs = draw(st.lists(coeff, min_size=6, max_size=6))
    support = draw(st.sampled_from([range(6), (0,), (3,), (0, 3), (0, 1), (1, 2, 3)]))
    return TernaryForm(*(c if i in support else 0 for i, c in enumerate(coeffs)))


SHAPED_FORMS = [
    X_SQUARED,
    TernaryForm(0, 0, 0, 1, 0, 0),  # yz
    TernaryForm(-1, 0, 0, 4, 0, 0),  # 4yz - x^2
]


@pytest.mark.parametrize("p,t", SMALL_MODULI)
@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_count_matches_brute_force_property(p, t, data):
    form = data.draw(st.one_of(st.sampled_from(SHAPED_FORMS), p_heavy_forms(p)), label="form")
    q = p**t
    hist, low = brute_hist(form, q), brute_hist(form, q // p)
    for n in range(2 * q + 1):
        assert count_solutions_mod(form, n, p, t) == hist[n % q], (form, n, p, t)
        assert _counts(form, n, p, t - 1) == (low[n % (q // p)], hist[n % q]), (form, n, p, t)


def test_count_matches_closed_forms_at_large_t():
    three = TernaryForm(1, 1, 1, 0, 0, 0)
    limit = 10**30
    for v in range(6):
        for m in (1, 2, 3, 5, 6, 7, 10):
            n = 11**v * m
            assert limited(limit, local_density, three, n, 11).value == density_formula_odd(n, 11), n
    for k in (1, 2, 3, 5, 6, 7, 11, 15):
        n = 2**20 * k
        assert limited(limit, local_density, three, n, 2).value == psi(n), n


def test_rank_one_count_is_bounded():
    start = time.perf_counter()
    count = limited(10**12, count_solutions_mod, X_SQUARED, 0, 2, 24)
    assert time.perf_counter() - start < 1
    assert count == 2**12 * 2**48  # x ≡ 0 (mod 2^12), y and z free


@pytest.mark.parametrize("form", SPLITLESS_TG2)
def test_two_adic_density_without_split(form):
    # Every variable has a cross term, so none splits off; the density of a
    # TG2 class at 2 is that of 4yz - x^2.
    res = local_density(TernaryForm.parse(form), 32, 2)
    assert res.value == Fraction(9, 4)
    assert res.value == local_density(TernaryForm(-1, 0, 0, 4, 0, 0), 32, 2).value


def test_character_sum():
    for p in (3, 5, 7, 11, 13):
        for a in range(1, p):
            assert sum(kronecker(y * y + a, p) for y in range(p)) == -1


def test_valuation():
    assert valuation(48, 2) == (4, 3)
    assert valuation(-50, 5) == (2, -2)
    assert valuation(7, 3) == (0, 7)
    assert valuation(4**5 * 7, 4) == (5, 7)
    for n, p in ((5, 1), (5, 0), (5, -3), (0, 3), (0, 2), (0, 4), (0, 1)):
        with pytest.raises(ValueError):
            valuation(n, p)


def valuation_oracle(n, p):
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v, n


def test_valuation_at_two_and_four_reads_the_trailing_zero_bits():
    rng = random.Random(2951)
    samples = [*range(1, 10**4 + 1), *(rng.getrandbits(200) << rng.randrange(40) for _ in range(200))]
    for n in samples:
        for m in (n, -n):
            for p in (2, 4):
                assert valuation(m, p) == valuation_oracle(m, p), (m, p)


def test_counting_rejects_non_prime_p():
    form = TernaryForm(1, 1, 1, 0, 0, 0)
    for p in (-3, 0, 1, 4, 9, 15):
        with pytest.raises(FormError):
            count_solutions_mod(form, 1, p, 2)
        with pytest.raises(FormError):
            local_density(form, 1, p)


def test_local_density_is_compared_and_hashed_by_value_and_exponent():
    d = local_density(TernaryForm(1, 1, 1, 0, 0, 0), 3, 3)
    same = LocalDensity(d.value, d.exponent_used)
    assert d == same and hash(d) == hash(same)
    assert d != LocalDensity(d.value, d.exponent_used + 1) and d != LocalDensity(d.value + 1, d.exponent_used)
    assert d != (d.value, d.exponent_used)
    assert repr(same) == f"LocalDensity(value={d.value!r}, exponent_used={d.exponent_used})"
    with pytest.raises(AttributeError):
        d.value = Fraction(0)
