"""Integral equivalence testing and automorph group enumeration.

Both operations backtrack over short vectors: candidate columns are the
vectors realizing the target form's diagonal values, checked against the
off-diagonal Gram constraints.  Complete by construction, fast at desk
scale.  The automorph group is a class invariant up to conjugation, so
`automorphs` searches the Minkowski-reduced form (`forms._minkowski`), whose
short-vector sets are the smallest, and conjugates the group back into the
input basis.  `equivalent` searches the input basis, because its witness is
printed in those coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass

from .counting import vectors_with_value
from .forms import FormError, TernaryForm, _minkowski, discriminant, is_positive_definite
from .matrices import Mat3, det3, from_columns, gram_dot, mat_mul, unimodular_inverse


@dataclass(frozen=True)
class AutomorphGroup:
    form: TernaryForm
    elements: tuple[Mat3, ...]

    @property
    def order(self) -> int:
        return len(self.elements)


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


def equivalent(g: TernaryForm, h: TernaryForm) -> Mat3 | None:
    """A witness U with apply_map(g, U) == h, or None when inequivalent."""
    if not (is_positive_definite(g) and is_positive_definite(h)):
        raise FormError("equivalence testing requires positive definite forms")
    if discriminant(g) != discriminant(h):
        return None
    result = _isometries(g, h, first_only=True)
    return result[0] if result else None


def automorphs(form: TernaryForm) -> AutomorphGroup:
    """The full integral orthogonal group of the form (contains ±identity)."""
    if not is_positive_definite(form):
        raise FormError("automorph enumeration requires a positive definite form")
    pre, u = _minkowski(form)
    elements = _isometries(pre, pre, first_only=False)
    if pre != form:
        # A fixes pre = form o u exactly when u A u^-1 fixes form.
        u_inv = unimodular_inverse(u)
        elements = [mat_mul(u, mat_mul(a, u_inv)) for a in elements]
    return AutomorphGroup(form, tuple(sorted(elements)))
