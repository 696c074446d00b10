"""Small exact integer 3x3 matrix utilities.

Matrices are tuples of three rows, each a tuple of three Python ints, so
they are hashable and arbitrary precision.  No numpy here: scrambled Gram
products overflow 64 bits quickly.
"""

from __future__ import annotations

Mat3 = tuple[tuple[int, int, int], ...]
Vec3 = tuple[int, int, int]


def mat_mul(a: Mat3, b: Mat3) -> Mat3:
    (b11, b12, b13), (b21, b22, b23), (b31, b32, b33) = b
    return tuple(
        (x * b11 + y * b21 + z * b31, x * b12 + y * b22 + z * b32, x * b13 + y * b23 + z * b33)
        for x, y, z in a
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
    return tuple(zip(c1, c2, c3))


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
