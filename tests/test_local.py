from fractions import Fraction

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ternaryforms.forms import FormError, TernaryForm
from ternaryforms.genus import enumerate_tg1
from ternaryforms.local import (
    ResourceLimitError,
    count_solutions_mod,
    density_formula_odd,
    gamma_p,
    kronecker,
    local_density,
    p_factor,
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


@given(st.integers(-50, 50), st.integers(1, 40), st.integers(1, 40))
@settings(max_examples=300, deadline=None)
def test_kronecker_multiplicative_in_modulus(a, m, n):
    assert kronecker(a, m * n) == kronecker(a, m) * kronecker(a, n)


def brute_hist(form, q):
    """hist[v] = #{(x, y, z) mod q : form(x, y, z) ≡ v (mod q)}, over all q^3 points."""
    hist = [0] * q
    for x in range(q):
        for y in range(q):
            for z in range(q):
                hist[form(x, y, z) % q] += 1
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


def test_count_higher_exponent_spot():
    f = TernaryForm(1, 1, 3, 0, 0, 1)
    assert count_solutions_mod(f, 5, 3, 3) == brute_count(f, 5, 27)
    assert count_solutions_mod(f, 9, 3, 3) == brute_count(f, 9, 27)
    g = TernaryForm(1, 1, 1, 0, 0, 0)
    assert count_solutions_mod(g, 7, 2, 5) == brute_count(g, 7, 32)
    assert count_solutions_mod(g, 12, 2, 5) == brute_count(g, 12, 32)


def test_work_limit():
    # Modulo 3^30 the count costs 30^2 * 2 units, modulo 2^30 8 * 30 per subproblem.
    three = TernaryForm(1, 1, 1, 0, 0, 0)
    with pytest.raises(ResourceLimitError):
        count_solutions_mod(three, 1, 3, 30, work_limit=10**3)
    assert count_solutions_mod(three, 1, 3, 30, work_limit=1800) == count_solutions_mod(three, 1, 3, 30)
    with pytest.raises(ResourceLimitError):
        count_solutions_mod(three, 1, 2, 30, work_limit=200)
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
    res = local_density(TernaryForm(1, 1, 1, 0, 0, 0), n, 2, work_limit=10**400)
    assert res.exponent_used == 1205
    assert res.value == psi(n)


def test_local_density_stabilizes():
    three = TernaryForm(1, 1, 1, 0, 0, 0)
    res = local_density(three, 1, 2)
    assert res.value == Fraction(3, 2)
    assert res.stabilized
    assert local_density(three, 3, 2).value == Fraction(1)
    assert local_density(three, 7, 2).value == Fraction(0)


def test_local_density_rejects_nonpositive():
    with pytest.raises(ValueError):
        local_density(TernaryForm(1, 1, 1, 0, 0, 0), 0, 3)


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


def test_gamma_p_consistency():
    for p in (3, 5, 7):
        for n in range(1, 60):
            assert gamma_p(n, p) == p * (
                density_formula_odd(p * p * n, p) - density_formula_odd(n, p)
            )


def test_p_factor_values():
    for n in (1, 2, 3, 5, 6, 7, 10, 30, 4, 8, 12):
        assert p_factor(n) == 1, n  # no odd square factor
    assert p_factor(9) == Fraction(5, 4)
    assert p_factor(25) == Fraction(5, 4)
    assert p_factor(45) == Fraction(3, 2)
    assert p_factor(9 * 25) == Fraction(5, 4) * Fraction(5, 4)


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
    hist = brute_hist(form, q)
    for n in range(2 * q + 1):
        assert count_solutions_mod(form, n, p, t) == hist[n % q], (form, n, p, t)


def test_count_matches_closed_forms_at_large_t():
    three = TernaryForm(1, 1, 1, 0, 0, 0)
    limit = 10**30
    for v in range(6):
        for m in (1, 2, 3, 5, 6, 7, 10):
            n = 11**v * m
            assert local_density(three, n, 11, work_limit=limit).value == density_formula_odd(n, 11), n
    for k in (1, 2, 3, 5, 6, 7, 11, 15):
        n = 2**20 * k
        assert local_density(three, n, 2, work_limit=limit).value == psi(n), n


def test_rank_one_count_is_bounded():
    start = time.perf_counter()
    count = count_solutions_mod(X_SQUARED, 0, 2, 24, work_limit=10**12)
    assert time.perf_counter() - start < 1
    assert count == 2**12 * 2**48  # x ≡ 0 (mod 2^12), y and z free


@pytest.mark.parametrize("form", ["3,7,7,6,2,-2", "3,15,15,14,2,-2", "7,8,15,8,2,4"])
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
    for n, p in ((5, 1), (5, 0), (5, -3), (0, 3)):
        with pytest.raises(ValueError):
            valuation(n, p)


def test_counting_rejects_non_prime_p():
    form = TernaryForm(1, 1, 1, 0, 0, 0)
    for p in (-3, 0, 1, 4, 9, 15):
        with pytest.raises(FormError):
            count_solutions_mod(form, 1, p, 2)
        with pytest.raises(FormError):
            local_density(form, 1, p)
