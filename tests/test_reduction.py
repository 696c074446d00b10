import time
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ternaryforms.counting import half_points_up_to
from test_isometry import definite_forms, skewed_forms
from test_matrices import IDENTITY, shear
from ternaryforms.forms import (
    FormError,
    TernaryForm,
    _greedy,
    _minkowski,
    _require_definite,
    _shear,
    apply_map,
    discriminant,
    is_positive_definite,
)
from ternaryforms.genus import build_tg2, enumerate_tg1
from ternaryforms.local import is_prime
from ternaryforms.matrices import det3, from_columns, mat_mul
from ternaryforms.reduction import reduce_form

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


def minkowski_by_shears(form):
    """Oracle for `_minkowski`: its loop without the reduced-input return,
    so every form goes through the greedy step and the sign tests."""
    _require_definite(form)
    g = [list(row) for row in form.gram()]
    u = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    _greedy(g, u)
    while True:
        for s1, s2 in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
            if g[0][0] + g[1][1] + 2 * (s1 * s2 * g[0][1] + s1 * g[0][2] + s2 * g[1][2]) < 0:
                _shear(g, u, 2, 0, s1)
                _shear(g, u, 2, 1, s2)
                _greedy(g, u)
                break
        else:
            reduced = TernaryForm(g[0][0] // 2, g[1][1] // 2, g[2][2] // 2, g[1][2], g[0][2], g[0][1])
            return reduced, tuple(map(tuple, u))


@given(
    st.lists(st.integers(-50, 50), min_size=6, max_size=6),
    st.lists(st.integers(-5, 5), min_size=9, max_size=9),
    st.sampled_from([(i, j) for i in range(3) for j in range(3) if i != j]),
    st.integers(-4, 4),
)
@settings(max_examples=300, deadline=None)
def test_shear_is_the_change_of_basis_by_the_shear_matrix(entries, basis, pair, t):
    # e_i -> e_i + t*e_j is the basis S = I + t*E_ji: the Gram matrix goes to
    # S' G S and the basis to U S, each entry exactly.
    i, j = pair
    a, b, c, d, e, f = entries
    g = [[2 * a, f, e], [f, 2 * b, d], [e, d, 2 * c]]
    u = [basis[0:3], basis[3:6], basis[6:9]]
    s = shear(i, j, t)
    expected_g = [list(row) for row in mat_mul(tuple(zip(*s)), mat_mul(g, s))]
    expected_u = [list(row) for row in mat_mul(u, s)]
    _shear(g, u, i, j, t)
    assert (g, u) == (expected_g, expected_u)


# Definite forms as drawn (mostly not reduced), skewed in their class, and
# already reduced: the last take `_minkowski`'s early return.
minkowski_inputs = st.one_of(
    definite_forms, skewed_forms, skewed_forms.map(lambda form: minkowski_by_shears(form)[0])
)


@given(minkowski_inputs)
@settings(max_examples=300, deadline=None)
def test_minkowski_matches_the_shearing_loop(form):
    assert _minkowski(form) == minkowski_by_shears(form)


@pytest.mark.parametrize("form", [TernaryForm(0, 0, 0, 0, 0, 0), TernaryForm(0, 1, 1, 0, 0, 0)], ids=str)
def test_minkowski_refuses_a_semidefinite_form_that_passes_the_stopping_tests(form):
    with pytest.raises(FormError, match="not positive definite"):
        _minkowski(form)


@pytest.mark.parametrize("p", [p for p in range(3, 74, 2) if is_prime(p)])
def test_genus_classes_are_their_own_minkowski_forms(p):
    tg1 = enumerate_tg1(p)
    for form, _ in tg1.classes + build_tg2(tg1).classes:
        assert _minkowski(form) == (form, IDENTITY)


def _pair_primitive(v1, v2):
    """True when the pair (v1, v2) extends to a basis of Z^3."""
    minors = (v1[i] * v2[j] - v1[j] * v2[i] for i, j in ((0, 1), (0, 2), (1, 2)))
    return gcd(*minors) == 1


def search_all_points(form):
    """Oracle: the canonical form from every point up to the c of a basis.

    The least value a, the least b of a primitive pair (v1, v2) with
    form(v1) = a, and the least c completing such a pair to a unimodular
    basis are found by grouping all points by value; the least key over
    those bases is the canonical form.  The largest diagonal entry of any
    sorted basis bounds that c; the Minkowski basis bounds it most tightly.
    """
    pre, _ = _minkowski(form)
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
