"""Canonical reduction of positive definite ternary forms.

Two stages.  The first, `forms._minkowski`, brings the form to Minkowski
reduction: a greedy descent (integer shears e_i -> e_i + t*e_j, strictly
decreasing the Gram diagonal, then sorting it) makes |f| <= a, |e| <= a,
|d| <= b, and replacing e_3 by e_3 + s1*e_1 + s2*e_2 (s1, s2 = +-1) while
that lowers c, that is while a + b + s1*s2*f + s1*e + s2*d < 0, followed by
the greedy step again, leaves c <= form(v) for every v with v_3 = +-1.  In
three variables the test vectors with entries 0, +-1 suffice for Minkowski
reduction, and the diagonal of a Minkowski-reduced form is its successive
minima (van der Waerden, Acta Math. 96 (1956); Schiemann, Math. Ann. 308
(1997)).  The second stage searches the vectors of values a, b and c for
the unique lexicographically least equivalent sextuple, ordered by
(a, b, c, |d|, |e|, |f|, sign pattern of (d, e, f)).
"""

from __future__ import annotations

from .counting import vectors_with_value
from .forms import FormError, TernaryForm, _greedy, _minkowski, apply_map, is_positive_definite
from .matrices import Mat3, det3, from_columns, gram_dot, mat_mul


def reduce_form(form: TernaryForm) -> tuple[TernaryForm, Mat3]:
    """Canonical representative of the equivalence class, with witness.

    Returns (r, u) with apply_map(form, u) == r; r is the same for every
    form in the class.
    """
    if not is_positive_definite(form):
        raise FormError("reduction requires a positive definite form")
    pre, u0 = _minkowski(form)
    firsts = vectors_with_value(pre, pre.a)
    seconds = vectors_with_value(pre, pre.b)
    thirds = vectors_with_value(pre, pre.c)

    gram = pre.gram()
    best = None
    for v1 in firsts:
        for v2 in seconds:
            f = gram_dot(gram, v1, v2)
            for v3 in thirds:
                m = from_columns(v1, v2, v3)
                if det3(m) not in (1, -1):
                    continue
                d, e = gram_dot(gram, v2, v3), gram_dot(gram, v1, v3)
                key = (abs(d), abs(e), abs(f), d < 0, e < 0, f < 0)
                if best is None or key < best[0]:
                    best = (key, m)
    assert best is not None
    m = best[1]
    return apply_map(pre, m), mat_mul(u0, m)
