from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ternaryforms.counting import (
    half_points_up_to,
    rep_count,
    s,
    s_batch,
    theta,
    two_squares_sieve,
    vectors_with_value,
)
from ternaryforms.forms import FormError, TernaryForm, discriminant
from ternaryforms.matrices import adjugate

H1 = TernaryForm(31, 5, 11, 1, -14, 6)


def brute_theta(form, bound):
    """Box enumeration oracle: |x_i| <= sqrt(bound * adj_ii / disc)."""
    g = form.gram()
    adj = adjugate(g)
    disc = discriminant(form)
    lims = [isqrt(2 * bound * adj[i][i] // (2 * disc)) + 1 for i in range(3)]
    counts = [0] * (bound + 1)
    for x in range(-lims[0], lims[0] + 1):
        for y in range(-lims[1], lims[1] + 1):
            for z in range(-lims[2], lims[2] + 1):
                v = form(x, y, z)
                if 0 <= v <= bound:
                    counts[v] += 1
    return tuple(counts)


@pytest.mark.parametrize(
    "form,bound",
    [
        (TernaryForm(1, 1, 1, 0, 0, 0), 60),
        (TernaryForm(1, 1, 3, 0, 0, 1), 60),
        (TernaryForm(2, 2, 2, 1, 1, -1), 60),
        (TernaryForm(1, 2, 7, 0, 0, 1), 60),
        (H1, 50),
        (TernaryForm(3, 4, 4, 4, 0, 0), 50),
        (TernaryForm(7, 8, 8, -4, 8, 8), 50),
        (TernaryForm(2, 3, 5, -2, 1, 1), 50),
    ],
    ids=str,
)
def test_theta_matches_box_oracle(form, bound):
    assert theta(form, bound).counts == brute_theta(form, bound)


def test_theta_rejects_indefinite():
    with pytest.raises(FormError):
        theta(TernaryForm(-1, 0, 0, 1, 0, 0), 10)


def test_theta_zero_count():
    assert theta(H1, 0).counts == (1,)


def test_vectors_with_value():
    f = TernaryForm(1, 1, 1, 0, 0, 0)
    vs = vectors_with_value(f, 2)
    assert len(vs) == 12
    assert all(f(*v) == 2 for v in vs)
    assert vs == sorted(vs)
    assert vectors_with_value(f, 0) == [(0, 0, 0)]
    assert vectors_with_value(f, -1) == []
    assert vectors_with_value(f, 7) == []


def brute_s(n):
    total = 0
    r = isqrt(n)
    for x in range(-r, r + 1):
        for y in range(-r, r + 1):
            zz = n - x * x - y * y
            if zz < 0:
                continue
            z = isqrt(zz)
            if z * z == zz:
                total += 1 if z == 0 else 2
    return total


def test_s_small_values():
    assert [s(n) for n in range(9)] == [1, 6, 12, 8, 6, 24, 24, 0, 12]
    assert s(9) == 30
    assert s(16) == 6
    assert s(25) == 30
    assert s(27) == 32


def test_s_matches_brute():
    for n in range(300):
        assert s(n) == brute_s(n), n


def test_s_batch_consistent():
    values = [1, 5, 9, 44, 100, 121, 250]
    batch = s_batch(values)
    assert batch == {n: s(n) for n in values}


def test_s_vanishes_on_forbidden_residues():
    for a in range(3):
        for k in range(6):
            assert s(4**a * (8 * k + 7)) == 0


def test_s_rejects_negative():
    with pytest.raises(FormError):
        s(-1)


def test_two_squares_sieve():
    for limit in (0, 1, 2, 50, 2000):
        m = isqrt(limit)
        direct = [0] * (limit + 1)
        for u in range(-m, m + 1):
            for v in range(-m, m + 1):
                if u * u + v * v <= limit:
                    direct[u * u + v * v] += 1
        assert two_squares_sieve(limit) == direct, limit


def test_rep_count_uses_exact_enumeration():
    assert rep_count(H1, 0) == 1
    assert rep_count(H1, -3) == 0
    counts = theta(H1, 40).counts
    for n in range(41):
        assert rep_count(H1, n) == counts[n]


@given(st.integers(1, 120))
@settings(max_examples=60, deadline=None)
def test_rep_counts_even_for_positive_n(n):
    assert rep_count(TernaryForm(2, 3, 5, -2, 1, 1), n) % 2 == 0


def _definite_form(m):
    """The form of Gram 2*M'*M, positive definite when M is nonsingular."""
    gram = tuple(
        tuple(2 * sum(m[k][i] * m[k][j] for k in range(3)) for j in range(3))
        for i in range(3)
    )
    return TernaryForm.from_gram(gram)


@given(
    st.lists(st.integers(-3, 3), min_size=9, max_size=9).filter(
        lambda e: (e[0] * (e[4] * e[8] - e[5] * e[7]) - e[1] * (e[3] * e[8] - e[5] * e[6])
                   + e[2] * (e[3] * e[7] - e[4] * e[6])) != 0
    ),
    st.integers(0, 200),
)
@settings(max_examples=150, deadline=None)
def test_single_value_counts_match_the_filtered_enumeration(entries, n):
    form = _definite_form((entries[0:3], entries[3:6], entries[6:9]))
    half = [(x, y, z) for x, y, z, v in half_points_up_to(form, n) if v == n]
    signed = half + [(-x, -y, -z) for x, y, z in half] if n else [(0, 0, 0)]
    assert vectors_with_value(form, n) == sorted(signed)
    assert rep_count(form, n) == len(signed)
