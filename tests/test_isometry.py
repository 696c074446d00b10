import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_genus import count_calls
from test_matrices import IDENTITY, gram_dot, shear
from ternaryforms.counting import vectors_with_value
from ternaryforms.forms import FormError, TernaryForm, _minkowski, apply_map, discriminant, is_positive_definite
from ternaryforms.genus import enumerate_tg1
from ternaryforms.isometry import automorphs, equivalent
from ternaryforms.reduction import reduce_form
from ternaryforms.matrices import Mat3, det3, from_columns, mat_mul, mat_neg, unimodular_inverse

H1 = TernaryForm(31, 5, 11, 1, -14, 6)
H3 = TernaryForm(11, 7, 20, 7, 2, 4)


# The oracle: a direct backtracking search from g to h in g's basis.
def _isometries(g: TernaryForm, h: TernaryForm, first_only: bool) -> list[Mat3]:
    """All U with U' * Gram(g) * U == Gram(h) (or just one if first_only)."""
    gram = g.gram()
    s1 = vectors_with_value(g, h.a)
    if not s1:
        return []
    s2 = vectors_with_value(g, h.b)
    if not s2:
        return []
    s3 = vectors_with_value(g, h.c)
    if not s3:
        return []
    found: list[Mat3] = []
    for v1 in s1:
        for v2 in s2:
            if gram_dot(gram, v1, v2) != h.f:
                continue
            for v3 in s3:
                if gram_dot(gram, v1, v3) != h.e:
                    continue
                if gram_dot(gram, v2, v3) != h.d:
                    continue
                u = from_columns(v1, v2, v3)
                if det3(u) not in (1, -1):
                    continue
                found.append(u)
                if first_only:
                    return found
    return found


def _product(shears):
    u = IDENTITY
    for i, j, t in shears:
        if i != j:
            u = mat_mul(u, shear(i, j, t))
    return u


# Unimodular U with entries in [-5, 5], as products of elementary shears.
unimodular = (
    st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(-3, 3)), max_size=6)
    .map(_product)
    .filter(lambda u: max(abs(x) for row in u for x in row) <= 5)
)
definite_forms = st.builds(
    TernaryForm, *[st.integers(1, 8)] * 3, *[st.integers(-8, 8)] * 3
).filter(is_positive_definite)
# g = f o U: a definite form in a skewed basis of its class.
skewed_forms = st.builds(apply_map, definite_forms, unimodular)


@pytest.mark.parametrize(
    "form,order",
    [
        (TernaryForm(1, 1, 1, 0, 0, 0), 48),
        (TernaryForm(1, 1, 3, 0, 0, 1), 24),
        (TernaryForm(2, 2, 2, 1, 1, -1), 12),
        (TernaryForm(1, 2, 7, 0, 0, 1), 8),
        (H1, 2),
        (H3, 4),
        (TernaryForm(7, 11, 21, 11, 2, 4), 4),
    ],
    ids=str,
)
def test_automorph_orders(form, order):
    assert len(automorphs(form)) == order


def test_automorphs_form_a_group():
    group = automorphs(TernaryForm(1, 1, 3, 0, 0, 1))
    elems = set(group)
    assert IDENTITY in elems
    assert mat_neg(IDENTITY) in elems
    for g in elems:
        assert unimodular_inverse(g) in elems
        for h in elems:
            assert mat_mul(g, h) in elems


def test_automorphs_fix_the_form():
    for g in automorphs(H3):
        assert apply_map(H3, g) == H3


@given(skewed_forms)
@settings(max_examples=60, deadline=None)
def test_automorphs_match_the_search_in_the_input_basis(g):
    # The search on the Minkowski form, conjugated back, against the direct
    # search in the basis the form was given in.
    assert automorphs(g) == tuple(sorted(_isometries(g, g, False)))


# Pairs of forms: one class twice, or two classes of TG1(29), which has
# three, so some pairs are different classes of one genus.
GENUS_29 = [form for form, _ in enumerate_tg1(29).classes]
form_pairs = st.one_of(
    definite_forms.map(lambda f: (f, f)),
    st.tuples(st.sampled_from(GENUS_29), st.sampled_from(GENUS_29)),
)


@given(form_pairs, unimodular, unimodular)
@settings(max_examples=80, deadline=None)
def test_equivalent_matches_the_search_in_the_input_basis(pair, u, v):
    # g = f1 o U and h = f2 o V: equivalent answers None exactly when the
    # direct search from g to h finds nothing, and its witness maps g to h.
    g, h = apply_map(pair[0], u), apply_map(pair[1], v)
    w = equivalent(g, h)
    assert (w is None) == (_isometries(g, h, first_only=True) == [])
    assert (w is None) == (pair[0] != pair[1])
    if w is not None:
        assert apply_map(g, w) == h


# Inequivalent classes of one discriminant whose Minkowski diagonals agree,
# so that only the search tells them apart.
TIED_DIAGONALS = [
    (TernaryForm(1, 1, 2, 0, 0, 1), TernaryForm(1, 1, 2, 1, 1, 0)),  # disc 6
    (TernaryForm(1, 2, 2, 0, 1, 1), TernaryForm(1, 2, 2, 2, 0, 0)),  # disc 12
    (TernaryForm(1, 2, 3, 1, 0, 1), TernaryForm(1, 2, 3, 2, 0, 0)),  # disc 20
    (TernaryForm(1, 2, 3, 0, 0, 1), TernaryForm(1, 2, 3, 1, 1, 0)),  # disc 21
    (TernaryForm(1, 3, 4, 1, 1, -1), TernaryForm(1, 3, 4, 3, 0, 0)),  # disc 39
]


@pytest.mark.parametrize("pair", TIED_DIAGONALS, ids=lambda pair: " ".join(map(str, pair)))
def test_tied_diagonals_are_inequivalent_classes(pair):
    g, h = pair
    assert discriminant(g) == discriminant(h)
    assert _minkowski(g)[0].coeffs[:3] == _minkowski(h)[0].coeffs[:3]
    assert reduce_form(g)[0] == g and reduce_form(h)[0] == h
    assert equivalent(g, h) is None


@given(
    st.one_of(
        form_pairs,
        st.sampled_from(TIED_DIAGONALS + [pair[::-1] for pair in TIED_DIAGONALS]),
        st.tuples(definite_forms, definite_forms),
    ),
    unimodular,
    unimodular,
)
@settings(max_examples=150, deadline=None)
def test_equivalent_matches_the_canonical_forms(pair, u, v):
    # Oracle: g and h are equivalent exactly when reduce_form gives both one
    # canonical form; equivalent reads the Minkowski diagonals first.
    g, h = apply_map(pair[0], u), apply_map(pair[1], v)
    w = equivalent(g, h)
    assert (w is None) == (reduce_form(g)[0] != reduce_form(h)[0])
    if w is not None:
        assert apply_map(g, w) == h


def test_equivalent_searches_no_form_whose_diagonal_differs(monkeypatch):
    # 1,3,11,0,0,1 and 3,4,4,3,2,-2 are classes of discriminant 121 with the
    # diagonals (1, 3, 11) and (3, 4, 4).
    searches = count_calls(monkeypatch, "reduction", "_search")
    f1, f2 = TernaryForm(1, 3, 11, 0, 0, 1), TernaryForm(3, 4, 4, 3, 2, -2)
    assert equivalent(apply_map(f1, ((1, 2, 0), (0, 1, -1), (0, 0, 1))), f2) is None
    assert searches == []
    g, h = TIED_DIAGONALS[0]
    assert equivalent(g, h) is None
    assert searches == [(g, IDENTITY), (h, IDENTITY)]


def test_equivalent_with_witness():
    u = ((1, 2, 0), (0, 1, -1), (0, 0, 1))
    other = apply_map(H1, u)
    w = equivalent(H1, other)
    assert w is not None
    assert apply_map(H1, w) == other


def test_inequivalent_same_discriminant():
    # both discriminant 121, distinct classes
    f1 = TernaryForm(1, 3, 11, 0, 0, 1)
    f2 = TernaryForm(3, 4, 4, 3, 2, -2)
    assert equivalent(f1, f2) is None
    assert equivalent(f2, f1) is None


def test_different_discriminant_short_circuit():
    assert equivalent(H1, TernaryForm(1, 1, 1, 0, 0, 0)) is None


def test_equivalence_preserves_automorph_order():
    u = ((1, 0, 3), (0, 1, 1), (0, 0, 1))
    assert len(automorphs(apply_map(H3, u))) == len(automorphs(H3))


def test_rejects_indefinite():
    with pytest.raises(FormError):
        automorphs(TernaryForm(-1, 0, 0, 1, 0, 0))
    # Either form, whether or not the discriminants already differ.
    three_squares = TernaryForm(1, 1, 1, 0, 0, 0)
    for indefinite in (TernaryForm(-1, 0, 0, 1, 0, 0), TernaryForm(-1, 0, 0, 2, 0, 0)):
        for pair in ((indefinite, three_squares), (three_squares, indefinite)):
            with pytest.raises(FormError, match="not positive definite"):
                equivalent(*pair)
