import copy
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ternaryforms
from ternaryforms.forms import (
    FormError,
    TernaryForm,
    apply_basis,
    apply_map,
    content,
    discriminant,
    is_positive_definite,
    is_primitive,
)
from ternaryforms.matrices import Mat3, mat_mul, mat_scale_exact
from test_matrices import IDENTITY, big_mat, gram_dot, mat, vec
from ternaryforms.reduction import reduce_form
from ternaryforms.watson import phi, phi_inverse

H1 = TernaryForm(31, 5, 11, 1, -14, 6)


def test_parse_round_trip():
    f = TernaryForm.parse("31,5,11,1,-14,6")
    assert f == H1
    assert TernaryForm.parse(str(f)) == f


def test_parse_wrong_count():
    with pytest.raises(FormError, match="6"):
        TernaryForm.parse("1,2,3")


def test_parse_names_bad_coefficient():
    with pytest.raises(FormError, match="coefficient c"):
        TernaryForm.parse("1,2,x,4,5,6")


def test_gram_round_trip():
    g = H1.gram()
    assert g == ((62, 6, -14), (6, 10, 1), (-14, 1, 22))
    assert TernaryForm.from_gram(g) == H1


def test_from_gram_rejects_odd_diagonal():
    with pytest.raises(FormError):
        TernaryForm.from_gram(((1, 0, 0), (0, 2, 0), (0, 0, 2)))


def test_from_gram_rejects_asymmetric():
    with pytest.raises(FormError):
        TernaryForm.from_gram(((2, 1, 0), (0, 2, 0), (0, 0, 2)))


def test_discriminant_values():
    assert discriminant(TernaryForm(1, 1, 1, 0, 0, 0)) == 4
    assert discriminant(TernaryForm(1, 1, 3, 0, 0, 1)) == 9
    assert discriminant(TernaryForm(4, 3, 4, 0, 4, 0)) == 144
    assert discriminant(H1) == 73 * 73


def test_evaluate():
    f = TernaryForm(1, 2, 3, 4, 5, 6)
    x, y, z = 2, -1, 3
    assert f(x, y, z) == x * x + 2 * y * y + 3 * z * z + 4 * y * z + 5 * z * x + 6 * x * y


def test_positive_definite():
    assert is_positive_definite(H1)
    assert not is_positive_definite(TernaryForm(-1, 1, 1, 0, 0, 0))
    assert not is_positive_definite(TernaryForm(1, 1, -1, 0, 0, 0))
    assert not is_positive_definite(TernaryForm(-1, 0, 0, 1, 0, 0))


def test_content_and_primitive():
    assert is_primitive(H1)
    assert content(TernaryForm(2, 4, 6, 8, 10, 12)) == 2
    assert not is_primitive(TernaryForm(2, 4, 6, 8, 10, 12))


def test_apply_map_rejects_non_unimodular():
    with pytest.raises(FormError):
        apply_map(H1, ((2, 0, 0), (0, 1, 0), (0, 0, 1)))


def test_apply_map_identity():
    assert apply_map(H1, IDENTITY) == H1


def transpose(a: Mat3) -> Mat3:
    return tuple(tuple(a[j][i] for j in range(3)) for i in range(3))


def apply_basis_by_products(form: TernaryForm, u: Mat3, den: int = 1) -> TernaryForm:
    """Oracle for `apply_basis`: the Gram matrix U' G U / den as matrix
    products, scaled exactly, read back by `from_gram`."""
    g = mat_mul(transpose(u), mat_mul(form.gram(), u))
    if den != 1:
        try:
            g = mat_scale_exact(g, 1, den)
        except ValueError:
            raise FormError(f"the Gram matrix of {form} in basis {u}, divided by {den}, is not integral") from None
    return TernaryForm.from_gram(g)


def outcome(change_of_basis, form, u, den):
    """The form a change of basis returns, or the message of its FormError."""
    try:
        return change_of_basis(form, u, den)
    except FormError as exc:
        return str(exc)


@given(mat)
@settings(max_examples=200, deadline=None)
def test_transpose_involution(m):
    assert transpose(transpose(m)) == m


@given(big_mat, vec, vec)
@settings(max_examples=200, deadline=None)
def test_gram_dot_is_the_matrix_product(g, v, w):
    # v' g w as a 1x1 product of padded 3x3 matrices: v' in the first row,
    # w in the first column.
    row = (v, (0, 0, 0), (0, 0, 0))
    col = transpose((w, (0, 0, 0), (0, 0, 0)))
    assert gram_dot(g, v, w) == mat_mul(mat_mul(row, g), col)[0][0]


def with_dependent_third_column(m: Mat3, s: int, t: int) -> Mat3:
    """m with its third column replaced by s times the first plus t times the second."""
    return tuple((x, y, s * x + t * y) for x, y, _ in m)


any_forms = st.builds(TernaryForm, *[st.integers(-30, 30)] * 6)
# Integer matrices, singular ones included.
any_bases = st.one_of(
    mat,
    st.builds(with_dependent_third_column, mat, st.integers(-2, 2), st.integers(-2, 2)),
    st.just(((0, 0, 0),) * 3),
)


@given(any_forms, any_bases, st.sampled_from([1, 2, 3, 4, 9]))
@settings(max_examples=500, deadline=None)
def test_apply_basis_matches_the_matrix_products(form, u, den):
    assert outcome(apply_basis, form, u, den) == outcome(apply_basis_by_products, form, u, den)


@pytest.mark.parametrize(
    "form, u, den, expected",
    [
        (H1, IDENTITY, 3, f"the Gram matrix of {H1} in basis {IDENTITY}, divided by 3, is not integral"),
        (TernaryForm(1, 1, 1, 0, 0, 0), IDENTITY, 2, "Gram matrix must have even diagonal"),
        (TernaryForm(2, 2, 2, 0, 0, 0), IDENTITY, 2, TernaryForm(1, 1, 1, 0, 0, 0)),
        (TernaryForm(1, 1, 1, 0, 0, 0), ((3, 0, 0), (0, 3, 0), (0, 0, 0)), 9, TernaryForm(1, 1, 0, 0, 0, 0)),
    ],
    ids=["not integral", "odd diagonal", "halved", "singular"],
)
def test_apply_basis_refuses_as_the_matrix_products_do(form, u, den, expected):
    assert outcome(apply_basis, form, u, den) == outcome(apply_basis_by_products, form, u, den) == expected


small = st.integers(-3, 3)


@given(small, small, small, small, small, small)
@settings(max_examples=200, deadline=None)
def test_apply_shear_preserves_discriminant(p, q, r, s, t, u):
    m = ((1, p, q), (0, 1, r), (0, 0, 1))
    f = TernaryForm(3 + abs(s), 4 + abs(t), 5 + abs(u), 1, -1, 2)
    assert discriminant(apply_map(f, m)) == discriminant(f)


# TG1 classes for p = 3, 5, 7, 11, 11, 73, each beside a unimodular image in
# Convenient Shape 1 (a and d odd, e and f even).
SHAPE_1 = [
    (TernaryForm(1, 1, 3, 0, 0, 1), TernaryForm(7, 4, 1, -1, -2, 10)),
    (TernaryForm(2, 2, 2, 1, 1, -1), TernaryForm(3, 2, 2, -1, 2, 2)),
    (TernaryForm(1, 2, 7, 0, 0, 1), TernaryForm(11, 8, 2, -1, -2, 18)),
    (TernaryForm(1, 3, 11, 0, 0, 1), TernaryForm(15, 12, 3, -1, -2, 26)),
    (TernaryForm(3, 4, 4, 3, 2, -2), TernaryForm(3, 4, 4, 3, 2, -2)),
    (H1, H1),
]


@pytest.mark.parametrize("form, shape1", SHAPE_1, ids=[str(f) for f, _ in SHAPE_1])
def test_shape1_conversion(form, shape1):
    a, _, _, d, e, f = shape1.coeffs
    assert a % 2 == d % 2 == 1 and e % 2 == f % 2 == 0
    assert (a + discriminant(form)) % 4 == 0
    assert reduce_form(shape1)[0] == reduce_form(form)[0]


TG2_SAMPLE = [
    TernaryForm(3, 4, 4, 4, 0, 0),
    TernaryForm(3, 7, 7, 6, 2, -2),
    TernaryForm(4, 7, 8, 0, 4, 0),
    TernaryForm(11, 28, 80, 28, 4, 8),
]


# The TG2 side has no shape conversion of its own: phi_inverse is lambda_4,
# accepted only when phi maps it back onto the class of the input.
@pytest.mark.parametrize("form", TG2_SAMPLE, ids=str)
def test_shape2_conversion(form):
    pre = phi_inverse(form)
    assert discriminant(form) == 16 * discriminant(pre)
    assert phi(pre) == reduce_form(form)[0]


def test_shape2_rejects_wrong_discriminant():
    with pytest.raises(FormError, match="not Φ"):
        phi_inverse(TernaryForm(1, 1, 3, 0, 0, 1))


def test_shape2_rejects_odd_cross_terms():
    # discriminant 48 = 16 * 3, but f is odd
    f = TernaryForm(1, 1, 16, 0, 0, -1)
    assert discriminant(f) == 48
    with pytest.raises(FormError, match="not Φ"):
        phi_inverse(f)


@pytest.mark.parametrize("form", [TernaryForm(1, 2, 2, 0, 0, 0), TernaryForm(3, 2, 2, 0, 0, 0)], ids=str)
def test_shape2_rejects_values_one_or_two_mod_4(form):
    # discriminant 16 * odd and even cross terms, but x^2 takes 1 and 2y^2 takes 2
    assert discriminant(form) // 16 % 2 == 1
    with pytest.raises(FormError, match="not Φ"):
        phi_inverse(form)


def test_every_export_resolves_once():
    # A name deleted from the package must leave `__all__` too.
    exports = ternaryforms.__all__
    assert len(exports) == len(set(exports))
    for name in exports:
        assert hasattr(ternaryforms, name), name


@pytest.mark.parametrize("name", ["a", "f", "coeffs", "other"])
def test_a_form_refuses_assignment_and_deletion(name):
    form = TernaryForm(1, 1, 1, 0, 0, 0)
    with pytest.raises(AttributeError):
        setattr(form, name, 2)
    with pytest.raises(AttributeError):
        delattr(form, name)
    assert form.coeffs == (1, 1, 1, 0, 0, 0) and (form.a, form.f) == (1, 0)


@settings(max_examples=200, deadline=None)
@given(st.tuples(*[st.integers(-3, 3)] * 6), st.tuples(*[st.integers(-3, 3)] * 6))
def test_forms_compare_and_hash_as_their_coefficients(s, t):
    f, g = TernaryForm(*s), TernaryForm(*t)
    assert f.coeffs == s and (f.a, f.b, f.c, f.d, f.e, f.f) == s
    assert (f == g, f != g, f < g, f <= g, f > g, f >= g) == (s == t, s != t, s < t, s <= t, s > t, s >= t)
    assert hash(f) == hash(s)
    # A form is never its coefficient tuple, nor ordered against one.
    assert f != s and s != f and f not in {s}
    with pytest.raises(TypeError):
        f < s  # noqa: B015


def test_form_repr_names_the_six_fields():
    assert repr(TernaryForm(1, 1, 1, 0, 0, 0)) == "TernaryForm(a=1, b=1, c=1, d=0, e=0, f=0)"
    assert repr(H1) == "TernaryForm(a=31, b=5, c=11, d=1, e=-14, f=6)"


def test_forms_pickle_and_copy_as_their_coefficients():
    for form in (H1, TernaryForm(a=1, b=1, c=1, d=0, e=0, f=0)):
        for twin in (pickle.loads(pickle.dumps(form)), copy.deepcopy(form), copy.copy(form)):
            assert twin == form and type(twin) is TernaryForm and twin.coeffs == form.coeffs

