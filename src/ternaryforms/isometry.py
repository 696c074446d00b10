"""Integral equivalence testing and automorph group enumeration.

Both read canonical reduction (`reduction`), which finds every basis U
taking a form to its canonical form r.  Two such U differ by an automorph,
so the automorph group, a sorted tuple of matrices, is the set of them
times the inverse of the first.  Two forms g and h are equivalent exactly
when their canonical forms agree, and then U_g * U_h^-1 takes g to h, in
the coordinates g was given in.
"""

from __future__ import annotations

from .forms import TernaryForm, _require_definite, discriminant
from .matrices import Mat3, mat_mul, unimodular_inverse
from .reduction import _canonical_bases, reduce_form


def equivalent(g: TernaryForm, h: TernaryForm) -> Mat3 | None:
    """A witness U with apply_map(g, U) == h, or None when inequivalent."""
    if discriminant(g) != discriminant(h):
        _require_definite(g)
        _require_definite(h)
        return None
    canon_g, u_g = reduce_form(g)
    canon_h, u_h = reduce_form(h)
    return mat_mul(u_g, unimodular_inverse(u_h)) if canon_g == canon_h else None


def automorphs(form: TernaryForm) -> tuple[Mat3, ...]:
    """The full integral orthogonal group of the form (contains ±identity), sorted."""
    _, bases = _canonical_bases(form)
    # form o u == r == form o bases[0] exactly when u * bases[0]^-1 fixes form.
    w_inv = unimodular_inverse(bases[0])
    return tuple(sorted(mat_mul(u, w_inv) for u in bases))
