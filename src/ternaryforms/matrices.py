"""Small exact integer 3x3 matrix utilities.

Matrices are tuples of three rows, each a tuple of three Python ints, so
they are hashable and arbitrary precision.  No numpy here: scrambled Gram
products overflow 64 bits quickly.
"""

from __future__ import annotations

from math import gcd

Mat3 = tuple[tuple[int, int, int], ...]
Vec3 = tuple[int, int, int]

IDENTITY: Mat3 = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def mat_mul(a: Mat3, b: Mat3) -> Mat3:
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3))
        for i in range(3)
    )


def transpose(a: Mat3) -> Mat3:
    return tuple(tuple(a[j][i] for j in range(3)) for i in range(3))


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
    return tuple(tuple(-x for x in row) for row in a)


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
    return tuple((c1[i], c2[i], c3[i]) for i in range(3))


def gram_dot(g: Mat3, v: Vec3, w: Vec3) -> int:
    """v' * g * w; with g a Gram matrix, the cross coefficient of the columns v, w."""
    return sum(v[i] * g[i][j] * w[j] for i in range(3) for j in range(3))


def shear(i: int, j: int, t: int = 1) -> Mat3:
    """Elementary unimodular matrix: right-multiplying adds t * column j to column i."""
    rows = [list(r) for r in IDENTITY]
    rows[j][i] = t
    return tuple(tuple(r) for r in rows)


def column_hnf(cols: list[Vec3]) -> Mat3:
    """Canonical basis of the lattice spanned by `cols` (full rank required).

    Returns a lower-triangular 3x3 matrix with positive pivots and
    off-pivot entries reduced modulo the pivot of their row, columns
    spanning the same lattice as the input columns.
    """
    # Work on a list of column vectors, eliminating row by row.
    work = [list(c) for c in cols]
    basis: list[list[int]] = []
    for row in range(3):
        # Combine columns until a single one has a nonzero entry in `row`.
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
    # Reduce earlier columns against later pivots: basis[j] has pivot at row j.
    for j in range(3):
        for i in range(j + 1, 3):
            q = basis[j][i] // basis[i][i]
            for k in range(3):
                basis[j][k] -= q * basis[i][k]
    return from_columns(*(tuple(c) for c in basis))


def complete_primitive(v: Vec3) -> Mat3:
    """A unimodular matrix whose first column is the primitive vector v."""
    x, y, z = v
    if gcd(gcd(x, y), z) != 1:
        raise ValueError(f"vector {v} is not primitive")
    g = gcd(x, y)
    if g == 0:
        # x = y = 0, so z = ±1.
        m = from_columns(v, (1, 0, 0), (0, 1, 0))
    else:
        s, t = _bezout(x, y)   # s*x + t*y == g
        p, q = _bezout(g, z)   # p*g + q*z == 1
        c2 = (-t, s, 0)
        c3 = (-q * (x // g), -q * (y // g), p)
        m = from_columns(v, c2, c3)
    if det3(m) not in (1, -1):
        raise AssertionError("primitive completion failed")
    return m


def _bezout(a: int, b: int) -> tuple[int, int]:
    """(s, t) with s*a + t*b == gcd(a, b)."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_s, old_t = -old_s, -old_t
    return old_s, old_t
