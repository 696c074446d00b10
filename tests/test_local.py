from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ternaryforms.forms import FormError, TernaryForm
from ternaryforms.local import (
    ResourceLimitError,
    _scaled_yz_hist,
    _yz_pair_count,
    character_sum_check,
    count_solutions_mod,
    density_formula_odd,
    gamma_p,
    kronecker,
    local_density,
    p_factor,
    psi,
    sqrt_count_mod_2t,
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


def brute_count(form, n, q):
    total = 0
    for x in range(q):
        for y in range(q):
            for z in range(q):
                if (form(x, y, z) - n) % q == 0:
                    total += 1
    return total


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
    with pytest.raises(ResourceLimitError):
        count_solutions_mod(TernaryForm(1, 1, 1, 0, 0, 0), 1, 3, 30, work_limit=10**6)


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


def test_sqrt_count_mod_2t():
    for t in range(1, 11):
        for c in range(1 << t):
            assert sqrt_count_mod_2t(c, t) == brute_sqrt_count(c, t), (c, t)


def test_sqrt_count_four_mod_sixteen():
    # x^2 ≡ 4 (mod 16) has solutions x ∈ {2, 6, 10, 14}: exactly 4.
    assert sqrt_count_mod_2t(4, 4) == 4
    assert brute_sqrt_count(4, 4) == 4


def test_yz_pair_count():
    for s in range(0, 7):
        q = 1 << s
        for w in range(q):
            direct = sum(
                1 for y in range(q) for z in range(q) if (y * z - w) % q == 0
            )
            assert _yz_pair_count(w, s) == direct, (w, s)


def test_scaled_yz_hist():
    for t in range(1, 6):
        q = 1 << t
        for k in (0, 1, 2, 3, 4, 6, q - 1):
            hist = _scaled_yz_hist(k, t)
            direct = [0] * q
            for y in range(q):
                for z in range(q):
                    direct[(k * y * z) % q] += 1
            assert list(hist) == direct, (k, t)


def test_character_sum():
    for p in (3, 5, 7, 11, 13):
        for a in range(1, p):
            assert character_sum_check(a, p) == -1


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
