import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ternaryforms.matrices import (
    Mat3,
    Vec3,
    adjugate,
    column_hnf,
    det3,
    mat_mul,
    unimodular_inverse,
)

# Helpers the tests build unimodular words and oracles from; the package
# itself does not use them.
IDENTITY: Mat3 = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def shear(i: int, j: int, t: int = 1) -> Mat3:
    """Elementary unimodular matrix: right-multiplying adds t * column j to column i."""
    rows = [list(r) for r in IDENTITY]
    rows[j][i] = t
    return tuple(tuple(r) for r in rows)


def gram_dot(g: Mat3, v: Vec3, w: Vec3) -> int:
    """v' * g * w; with g a Gram matrix, the cross coefficient of the columns v, w."""
    (g11, g12, g13), (g21, g22, g23), (g31, g32, g33) = g
    v1, v2, v3 = v
    w1, w2, w3 = w
    return (
        v1 * (g11 * w1 + g12 * w2 + g13 * w3)
        + v2 * (g21 * w1 + g22 * w2 + g23 * w3)
        + v3 * (g31 * w1 + g32 * w2 + g33 * w3)
    )


ints = st.integers(-9, 9)
mat = st.tuples(*(st.tuples(ints, ints, ints) for _ in range(3)))


@given(mat)
@settings(max_examples=200, deadline=None)
def test_adjugate_identity(m):
    d = det3(m)
    prod = mat_mul(m, adjugate(m))
    assert prod == tuple(
        tuple(d if i == j else 0 for j in range(3)) for i in range(3)
    )


@given(mat, mat)
@settings(max_examples=200, deadline=None)
def test_det_multiplicative(m1, m2):
    assert det3(mat_mul(m1, m2)) == det3(m1) * det3(m2)


def test_unimodular_inverse():
    m = ((1, 2, 3), (0, 1, 4), (0, 0, 1))
    inv = unimodular_inverse(m)
    assert mat_mul(m, inv) == IDENTITY
    assert mat_mul(inv, m) == IDENTITY


def _in_lattice(basis, v):
    """Solve basis * x = v over the integers (basis lower triangular)."""
    if basis[0][0] == 0:
        return all(c == 0 for c in v)
    x0, r = divmod(v[0], basis[0][0])
    if r:
        return False
    v1 = v[1] - x0 * basis[1][0]
    x1, r = divmod(v1, basis[1][1])
    if r:
        return False
    v2 = v[2] - x0 * basis[2][0] - x1 * basis[2][1]
    return v2 % basis[2][2] == 0


@given(st.lists(st.tuples(ints, ints, ints), min_size=1, max_size=5))
@settings(max_examples=150, deadline=None)
def test_column_hnf_spans_input(cols):
    cols = cols + [(7, 0, 0), (0, 7, 0), (0, 0, 7)]
    h = column_hnf(cols)
    # lower triangular with positive pivots
    assert h[0][1] == h[0][2] == h[1][2] == 0
    assert h[0][0] > 0 and h[1][1] > 0 and h[2][2] > 0
    basis = h
    for v in cols:
        assert _in_lattice(basis, v)
    # the basis columns are themselves integer combinations of the inputs:
    # index of the HNF lattice times any original full-rank sublattice index
    # agree, checked via idempotence
    assert column_hnf([tuple(h[i][j] for i in range(3)) for j in range(3)]) == h


def sorting_column_hnf(cols):
    """Oracle: the column HNF by repeated sorting, eliminating row by row.

    In each row the columns with a nonzero entry there are sorted by its
    size and the second reduced by the first until one is left; then the
    earlier pivot columns are reduced by the later ones.
    """
    work = [list(c) for c in cols]
    basis = []
    for row in range(3):
        pool = [c for c in work if any(c[row:])]
        live = [c for c in pool if c[row] != 0]
        rest = [c for c in pool if c[row] == 0]
        while len(live) > 1:
            live.sort(key=lambda c: abs(c[row]))
            a, b = live[0], live[1]
            q = b[row] // a[row]
            for i in range(3):
                b[i] -= q * a[i]
            if b[row] == 0:
                rest.append(b)
                live.remove(b)
        if not live:
            raise ValueError("columns do not span a full-rank lattice")
        piv = live[0]
        if piv[row] < 0:
            piv = [-x for x in piv]
        basis.append(piv)
        work = rest
    for j in range(3):
        for i in range(j + 1, 3):
            q = basis[j][i] // basis[i][i]
            for k in range(3):
                basis[j][k] -= q * basis[i][k]
    return tuple(zip(*(tuple(c) for c in basis)))


big = st.integers(-(10**6), 10**6)
residue = st.integers(0, 3)
columns = st.one_of(
    st.lists(st.tuples(big, big, big), min_size=1, max_size=60),
    # The shape of a lambda_4 scan: 4 e_i and 32 residues mod 4.
    st.lists(st.tuples(residue, residue, residue), min_size=32, max_size=32).map(
        lambda rs: [(4, 0, 0), (0, 4, 0), (0, 0, 4)] + rs
    ),
)


def with_redundant(cols, coeffs):
    """cols followed by integer combinations of pairs of them."""
    return cols + [
        tuple(s * x + t * y for x, y in zip(cols[i % len(cols)], cols[j % len(cols)]))
        for i, j, s, t in coeffs
    ]


redundant = st.lists(st.tuples(st.integers(0, 59), st.integers(0, 59), ints, ints), max_size=10)


@given(columns, redundant)
@settings(max_examples=200, deadline=None)
def test_column_hnf_matches_the_sorting_elimination(cols, coeffs):
    cols = with_redundant(cols, coeffs)
    try:
        expected = sorting_column_hnf(cols)
    except ValueError:
        with pytest.raises(ValueError, match="full-rank"):
            column_hnf(cols)
        return
    assert column_hnf(cols) == expected


@given(
    st.lists(st.tuples(big, big, st.just(0)), min_size=1, max_size=40),
    st.permutations(range(3)),
    redundant,
)
@settings(max_examples=60, deadline=None)
def test_column_hnf_refuses_rank_deficient_columns(cols, perm, coeffs):
    cols = [tuple(c[k] for k in perm) for c in with_redundant(cols, coeffs)]
    with pytest.raises(ValueError, match="full-rank"):
        sorting_column_hnf(cols)
    with pytest.raises(ValueError, match="full-rank"):
        column_hnf(cols)


@given(mat, st.integers(0, 2), st.integers(0, 2), ints)
@settings(max_examples=200, deadline=None)
def test_shear_adds_a_multiple_of_one_column_to_another(m, i, j, t):
    if i == j:
        return
    out = mat_mul(m, shear(i, j, t))
    for r in range(3):
        assert out[r][i] == m[r][i] + t * m[r][j]
        for k in range(3):
            if k != i:
                assert out[r][k] == m[r][k]
    assert det3(shear(i, j, t)) == 1


big = st.integers(-(2**70), 2**70)
vec = st.tuples(big, big, big)
big_mat = st.tuples(vec, vec, vec)


@given(big_mat, big_mat)
@settings(max_examples=200, deadline=None)
def test_mat_mul_is_the_sum_of_products(m1, m2):
    assert mat_mul(m1, m2) == tuple(
        tuple(sum(m1[i][k] * m2[k][j] for k in range(3)) for j in range(3)) for i in range(3)
    )
