"""Integral equivalence testing and automorph group enumeration.

Both read canonical reduction (`reduction`), which finds every basis U
taking a form to its canonical form r.  Two such U differ by an automorph,
so the automorph group, a sorted tuple of matrices, is the set of them
times the inverse of the first.  Two forms g and h are equivalent exactly
when their canonical forms agree, and then U_g * U_h^-1 takes g to h, in
the coordinates g was given in.  The canonical form keeps the diagonal of
the Minkowski form, the successive minima, so forms whose Minkowski
diagonals differ are inequivalent with no search.
"""

from __future__ import annotations

from .forms import TernaryForm, _minkowski, _require_definite, discriminant
from .matrices import Mat3, mat_mul, unimodular_inverse
from .reduction import _canonical_bases, _search


def equivalent(g: TernaryForm, h: TernaryForm) -> Mat3 | None:
    """A witness U with apply_map(g, U) == h, or None when inequivalent."""
    if discriminant(g) != discriminant(h):
        _require_definite(g)
        _require_definite(h)
        return None
    (pre_g, u_g), (pre_h, u_h) = _minkowski(g), _minkowski(h)
    if pre_g.coeffs[:3] != pre_h.coeffs[:3]:
        return None
    (canon_g, bases_g), (canon_h, bases_h) = _search(pre_g, u_g), _search(pre_h, u_h)
    return mat_mul(bases_g[0], unimodular_inverse(bases_h[0])) if canon_g == canon_h else None


def automorphs(form: TernaryForm) -> tuple[Mat3, ...]:
    """The full integral orthogonal group of the form (contains ±identity), sorted."""
    _, bases = _canonical_bases(form)
    # form o u == r == form o bases[0] exactly when u * bases[0]^-1 fixes form.
    w_inv = unimodular_inverse(bases[0])
    return tuple(sorted(mat_mul(u, w_inv) for u in bases))
