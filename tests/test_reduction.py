import time
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ternaryforms.counting import half_points_up_to
from ternaryforms.forms import FormError, TernaryForm, apply_map, discriminant, is_positive_definite
from ternaryforms.matrices import det3, from_columns, mat_mul, shear
from ternaryforms.reduction import _greedy, reduce_form

H_FORMS = [
    TernaryForm(31, 5, 11, 1, -14, 6),
    TernaryForm(15, 14, 10, 7, 4, 16),
    TernaryForm(11, 7, 20, 7, 2, 4),
    TernaryForm(7, 11, 21, 11, 2, 4),
]


def test_known_canonical_forms():
    assert reduce_form(H_FORMS[0])[0] == TernaryForm(5, 11, 26, 7, 3, -1)
    assert reduce_form(TernaryForm(2, 2, 2, -1, 1, 1))[0] == TernaryForm(2, 2, 2, 1, 1, -1)
    assert reduce_form(TernaryForm(7, 8, 8, -4, 8, 8))[0] == TernaryForm(3, 7, 7, 6, 2, -2)
    assert reduce_form(TernaryForm(1, 1, 1, 0, 0, 0))[0] == TernaryForm(1, 1, 1, 0, 0, 0)


@pytest.mark.parametrize("form", H_FORMS, ids=str)
def test_witness_property(form):
    canon, u = reduce_form(form)
    assert apply_map(form, u) == canon
    assert discriminant(canon) == discriminant(form)


@pytest.mark.parametrize("form", H_FORMS, ids=str)
def test_idempotent(form):
    canon, _ = reduce_form(form)
    again, _ = reduce_form(canon)
    assert again == canon


def test_rejects_indefinite():
    with pytest.raises(FormError):
        reduce_form(TernaryForm(-1, 0, 0, 1, 0, 0))


small = st.integers(-2, 2)


def _unimodular(p1, p2, p3, swap):
    m = ((1, p1, p2), (0, 1, p3), (0, 0, 1))
    if swap:
        m = tuple(tuple(m[i][j] for i in (2, 0, 1)) for j in range(3))
        # rebuild properly: permute columns of the shear
        m = ((p2, 1, p1), (p3, 0, 1), (1, 0, 0))
    return m


@given(small, small, small, st.booleans(), st.sampled_from(H_FORMS))
@settings(max_examples=120, deadline=None)
def test_class_invariance(p1, p2, p3, swap, form):
    u = _unimodular(p1, p2, p3, swap)
    scrambled = apply_map(form, u)
    assert reduce_form(scrambled)[0] == reduce_form(form)[0]


@given(small, small, small, small, small, small)
@settings(max_examples=80, deadline=None)
def test_random_positive_forms_reduce_consistently(a, b, c, d, e, f):
    # Build a positive definite Gram as 2 * M' * M from a nonsingular M.
    m = ((1 + abs(a), b, c), (0, 1 + abs(d), e), (0, 0, 1 + abs(f)))
    gram = tuple(
        tuple(2 * sum(m[k][i] * m[k][j] for k in range(3)) for j in range(3))
        for i in range(3)
    )
    form = TernaryForm.from_gram(gram)
    canon, u = reduce_form(form)
    assert apply_map(form, u) == canon
    shear = ((1, 1, -1), (0, 1, 2), (0, 0, 1))
    assert reduce_form(apply_map(form, shear))[0] == canon


def _pair_primitive(v1, v2):
    """True when the pair (v1, v2) extends to a basis of Z^3."""
    minors = (v1[i] * v2[j] - v1[j] * v2[i] for i, j in ((0, 1), (0, 2), (1, 2)))
    return gcd(*minors) == 1


def search_all_points(form):
    """Oracle: the canonical form from every point up to the greedy c.

    The least value a, the least b of a primitive pair (v1, v2) with
    form(v1) = a, and the least c completing such a pair to a unimodular
    basis are found by grouping all points by value; the least key over
    those bases is the canonical form.
    """
    pre, _ = _greedy(form)
    by_value = {}
    for x, y, z, v in half_points_up_to(pre, pre.c):
        by_value.setdefault(v, []).extend([(x, y, z), (-x, -y, -z)])
    values = sorted(by_value)
    firsts = by_value[values[0]]
    b = next(v for v in values if any(_pair_primitive(v1, v2) for v1 in firsts for v2 in by_value[v]))
    pairs = [(v1, v2) for v1 in firsts for v2 in by_value[b] if _pair_primitive(v1, v2)]
    c = next(
        v for v in values if v >= b
        and any(abs(det3(from_columns(v1, v2, v3))) == 1 for v1, v2 in pairs for v3 in by_value[v])
    )
    best = None
    for v1, v2 in pairs:
        for v3 in by_value[c]:
            if abs(det3(from_columns(v1, v2, v3))) == 1:
                cand = apply_map(pre, from_columns(v1, v2, v3))
                key = (abs(cand.d), abs(cand.e), abs(cand.f), cand.d < 0, cand.e < 0, cand.f < 0)
                best = min(best or (key, cand), (key, cand), key=lambda kc: kc[0])
    return best[1]


def _word(moves):
    """The unimodular product of elementary shears (i, j, t)."""
    u = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    for i, j, t in moves:
        if i != j:
            u = mat_mul(u, shear(i, j, t))
    return u


@given(
    st.integers(1, 6), st.integers(1, 40), st.integers(1, 400),
    st.integers(-40, 40), st.integers(-6, 6), st.integers(-6, 6),
    st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(-3, 3)), max_size=6),
)
@settings(max_examples=200, deadline=None)
def test_reduction_matches_the_all_points_search(a, b, c, d, e, f, moves):
    form = TernaryForm(a, b, c, d, e, f)
    assume(is_positive_definite(form))
    expected = search_all_points(form)
    image = apply_map(form, _word(moves))
    for g in (form, image):
        canon, u = reduce_form(g)
        assert canon == expected, g
        assert apply_map(g, u) == canon


def test_reduction_of_an_elongated_form_is_fast():
    form = TernaryForm(1, 1, 10**6, 0, 0, 0)
    start = time.perf_counter()
    canon, u = reduce_form(form)
    assert time.perf_counter() - start < 1
    assert canon == form
    assert apply_map(form, u) == canon
