"""Canonical reduction of positive definite ternary forms.

Two stages.  The first, `forms._minkowski`, brings the form to Minkowski
reduction: a greedy descent (integer shears e_i -> e_i + t*e_j, strictly
decreasing the Gram diagonal, then sorting it) makes |f| <= a, |e| <= a,
|d| <= b, and replacing e_3 by e_3 + s1*e_1 + s2*e_2 (s1, s2 = +-1) while
that lowers c, that is while a + b + s1*s2*f + s1*e + s2*d < 0, followed by
the greedy step again, leaves c <= form(v) for every v with v_3 = +-1; a
form that already passes these tests is returned as it is.  In three
variables the test vectors with entries 0, +-1 suffice for Minkowski
reduction, and the diagonal of a Minkowski-reduced form is its successive
minima (van der Waerden, Acta Math. 96 (1956); Schiemann, Math. Ann. 308
(1997)).  The second stage searches the vectors of values a, b and c for
the unique lexicographically least equivalent sextuple, ordered by
(a, b, c, |d|, |e|, |f|, sign pattern of (d, e, f)).  The vectors of all
three values come from one scan of the rows up to c
(`counting._vectors_with_values`), with one square test per value and row,
each list sorted, so the search order does not depend on the scan.

The two stages are separate calls: `_canonical_bases` is `_minkowski`
followed by `_search` on the Minkowski form and its witness.  The search
works in the Minkowski basis and multiplies by the witness only the bases
it returns.  Since the canonical form keeps the Minkowski diagonal,
`isometry.equivalent`, which only tells classes apart, compares the
diagonals first and searches only when they tie; the mass suite asks it
for each pair of classes of a genus.

This search is the package's only short-vector backtrack.  It keeps every
basis that reaches the least sextuple r: these are all the U with
apply_map(form, U) == r, so any two differ by an automorph, and the set of
them times the inverse of the first is the automorph group of the form
(`isometry.automorphs`).  Two forms are equivalent exactly when their
canonical forms agree (`isometry.equivalent`).
"""

from __future__ import annotations

from .counting import _vectors_with_values
from .forms import TernaryForm, _minkowski
from .matrices import Mat3, mat_mul, mat_neg


def _canonical_bases(form: TernaryForm) -> tuple[TernaryForm, list[Mat3]]:
    """(r, bases): the canonical form and every U with apply_map(form, U) == r.

    The bases come in search order; the first is `reduce_form`'s witness and
    their number is |Aut(form)|.  `_minkowski` refuses an indefinite form.
    """
    return _search(*_minkowski(form))


def _search(pre: TernaryForm, u: Mat3) -> tuple[TernaryForm, list[Mat3]]:
    """`_canonical_bases` of a form whose Minkowski form is pre, with witness u.

    The search runs in pre's basis and builds each basis V as rows from its
    three vectors.  -V is a basis exactly when V is, of the same sextuple,
    and of V and -V the one whose first vector leads with a negative entry
    comes first in search order; so only those first vectors are tried, and
    the negated bases follow the bases found.  Only the bases returned are
    multiplied by u.  It does not test definiteness; `_minkowski` has.
    """
    (g11, g12, g13), (_, g22, g23), (_, _, g33) = pre.gram()
    # For each diagonal value, its vectors v with G*v, all from one scan of
    # the rows up to c.
    lifted = {
        value: [
            (x, y, z, g11 * x + g12 * y + g13 * z, g12 * x + g22 * y + g23 * z, g13 * x + g23 * y + g33 * z)
            for x, y, z in vecs
        ]
        for value, vecs in _vectors_with_values(pre, {pre.a, pre.b, pre.c}).items()
    }
    firsts = [v for v in lifted[pre.a] if v[:3] < (0, 0, 0)]
    seconds, thirds = lifted[pre.b], lifted[pre.c]
    # |d| = |B(v2, v3)| <= 2 sqrt(bc) <= b + c, and a triple with |d| above
    # that of the best so far cannot reach it.
    best = None
    bound = pre.b + pre.c
    bases: list[Mat3] = []
    for x1, y1, z1, h1, h2, h3 in firsts:
        for x2, y2, z2, _, _, _ in seconds:
            # v1 x v2, so that det(v1, v2, v3) is its dot product with v3.
            c1, c2, c3 = y1 * z2 - z1 * y2, z1 * x2 - x1 * z2, x1 * y2 - y1 * x2
            if not (c1 or c2 or c3):  # v2 = +-v1: no v3 completes a basis
                continue
            f = x2 * h1 + y2 * h2 + z2 * h3
            for x3, y3, z3, k1, k2, k3 in thirds:
                det = c1 * x3 + c2 * y3 + c3 * z3
                if det != 1 and det != -1:
                    continue
                d = x2 * k1 + y2 * k2 + z2 * k3
                if d > bound or -d > bound:
                    continue
                e = x1 * k1 + y1 * k2 + z1 * k3
                key = (abs(d), abs(e), abs(f), d < 0, e < 0, f < 0)
                if best is None or key < best:
                    best, bound, bases, coeffs = key, key[0], [], (d, e, f)
                elif key != best:
                    continue
                bases.append(((x1, x2, x3), (y1, y2, y3), (z1, z2, z3)))
    assert best is not None
    bases = [mat_mul(u, v) for v in bases]
    return TernaryForm(pre.a, pre.b, pre.c, *coeffs), bases + [mat_neg(v) for v in bases]


def reduce_form(form: TernaryForm) -> tuple[TernaryForm, Mat3]:
    """Canonical representative of the equivalence class, with witness.

    Returns (r, u) with apply_map(form, u) == r; r is the same for every
    form in the class.
    """
    canon, bases = _canonical_bases(form)
    return canon, bases[0]
