"""Small exact integer 3x3 matrix utilities.

Matrices are tuples of three rows, each a tuple of three Python ints, so
they are hashable and arbitrary precision.  No numpy here: scrambled Gram
products overflow 64 bits quickly.
"""

from __future__ import annotations

Mat3 = tuple[tuple[int, int, int], ...]
Vec3 = tuple[int, int, int]


def mat_mul(a: Mat3, b: Mat3) -> Mat3:
    (a11, a12, a13), (a21, a22, a23), (a31, a32, a33) = a
    (b11, b12, b13), (b21, b22, b23), (b31, b32, b33) = b
    return (
        (a11 * b11 + a12 * b21 + a13 * b31, a11 * b12 + a12 * b22 + a13 * b32, a11 * b13 + a12 * b23 + a13 * b33),
        (a21 * b11 + a22 * b21 + a23 * b31, a21 * b12 + a22 * b22 + a23 * b32, a21 * b13 + a22 * b23 + a23 * b33),
        (a31 * b11 + a32 * b21 + a33 * b31, a31 * b12 + a32 * b22 + a33 * b32, a31 * b13 + a32 * b23 + a33 * b33),
    )


def det3(a: Mat3) -> int:
    (a11, a12, a13), (a21, a22, a23), (a31, a32, a33) = a
    return (
        a11 * (a22 * a33 - a23 * a32)
        - a12 * (a21 * a33 - a23 * a31)
        + a13 * (a21 * a32 - a22 * a31)
    )


def adjugate(a: Mat3) -> Mat3:
    """Adjugate: a * adjugate(a) == det3(a) * I."""
    (a11, a12, a13), (a21, a22, a23), (a31, a32, a33) = a
    return (
        (a22 * a33 - a23 * a32, a13 * a32 - a12 * a33, a12 * a23 - a13 * a22),
        (a23 * a31 - a21 * a33, a11 * a33 - a13 * a31, a13 * a21 - a11 * a23),
        (a21 * a32 - a22 * a31, a12 * a31 - a11 * a32, a11 * a22 - a12 * a21),
    )


def mat_neg(a: Mat3) -> Mat3:
    (a11, a12, a13), (a21, a22, a23), (a31, a32, a33) = a
    return ((-a11, -a12, -a13), (-a21, -a22, -a23), (-a31, -a32, -a33))


def mat_scale_exact(a: Mat3, num: int, den: int) -> Mat3:
    """(num/den) * a; raises ValueError when any entry is not integral."""
    out = []
    for row in a:
        new = []
        for x in row:
            p, r = divmod(x * num, den)
            if r:
                raise ValueError("matrix scaling is not integral")
            new.append(p)
        out.append(tuple(new))
    return tuple(out)


def unimodular_inverse(a: Mat3) -> Mat3:
    d = det3(a)
    if d not in (1, -1):
        raise ValueError(f"matrix has determinant {d}, not ±1")
    adj = adjugate(a)
    return adj if d == 1 else mat_neg(adj)


def from_columns(c1: Vec3, c2: Vec3, c3: Vec3) -> Mat3:
    return tuple(zip(c1, c2, c3))


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with g = gcd(a, b) = s*a + t*b > 0, for a, b not both zero."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return (a, s0, t0) if a > 0 else (-a, -s0, -t0)


def column_hnf(cols: list[Vec3]) -> Mat3:
    """Canonical basis of the lattice spanned by `cols` (full rank required).

    Returns the Hermite normal form: a lower-triangular 3x3 matrix with
    positive pivots and each entry below a pivot reduced into [0, p) by the
    pivot p of its row, whose columns span the same lattice as the input
    columns; it is unique, so equal lattices give equal matrices.

    The columns are inserted one at a time, in O(#columns).  Column r of the
    pivot set has zeros above row r and a positive pivot in row r.  A new
    column meets the pivot of its first nonzero row: when the pivot divides
    that entry, a multiple of the pivot column clears it; otherwise the
    unimodular pair (s, t; q/g, -p/g) from p*s + q*t = g replaces the two by
    a pivot column of pivot g and a column that is zero in that row.  What
    is left moves on to the next row, or becomes the pivot of a row that has
    none.  Each changed pivot column is reduced by the pivots below it, so
    its entries stay below the pivots.  Raises ValueError on rank < 3.
    """
    piv: list[Vec3 | None] = [None, None, None]
    for c in cols:
        for r in range(3):
            q = c[r]
            if not q:
                continue
            p_col = piv[r]
            if p_col is None:
                piv[r] = c if q > 0 else (-c[0], -c[1], -c[2])
                _reduce_below(piv, r)
                break
            p = p_col[r]
            a0, a1, a2 = p_col
            if q % p == 0:
                k = q // p
                c = (c[0] - k * a0, c[1] - k * a1, c[2] - k * a2)
                continue
            g, s, t = _xgcd(p, q)
            u, w = q // g, p // g
            b0, b1, b2 = c
            piv[r] = (s * a0 + t * b0, s * a1 + t * b1, s * a2 + t * b2)
            c = (u * a0 - w * b0, u * a1 - w * b1, u * a2 - w * b2)
            _reduce_below(piv, r)
    if None in piv:
        raise ValueError("columns do not span a full-rank lattice")
    _reduce_below(piv, 0)
    _reduce_below(piv, 1)
    return from_columns(*piv)


def _reduce_below(piv: list, r: int) -> None:
    """Reduce the entries of pivot column r below row r into [0, p) by the pivots p below it."""
    col = piv[r]
    for i in range(r + 1, 3):
        below = piv[i]
        if below is not None:
            k = col[i] // below[i]
            if k:
                col = (col[0] - k * below[0], col[1] - k * below[1], col[2] - k * below[2])
    piv[r] = col
