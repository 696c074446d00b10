"""Watson's lambda_m transformation and the Phi bijection.

Lambda_m restricts a form to the sublattice where it is m-divisible
(G*v ≡ 0 and f(v) ≡ 0 mod m), rescales by 1/m, and rereads the result as an
integral form.  For forms of odd discriminant lambda_4 is the coefficient
map Phi(<a,b,c,d,e,f>) = <a,4b,4c,4d,2e,2f> on Convenient Shape 1, and is
an involution on classes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .forms import (
    FormError,
    TernaryForm,
    _is_shape1,
    _is_shape2,
    apply_map,
    discriminant,
    divisibility_lattice_basis,
    is_positive_definite,
    to_convenient_shape_1,
    to_convenient_shape_2,
)
from .isometry import equivalent
from .matrices import (
    Mat3,
    adjugate,
    det3,
    mat_mul,
    mat_neg,
    mat_scale_exact,
    transpose,
    unimodular_inverse,
)
from .reduction import reduce_form


@dataclass(frozen=True)
class WatsonLattice:
    form: TernaryForm
    modulus: int
    basis: Mat3


def lambda_lattice(form: TernaryForm, m: int) -> WatsonLattice:
    """Canonical (column-HNF) basis of the m-divisibility sublattice."""
    return WatsonLattice(form, m, divisibility_lattice_basis(form, m))


def _lambda_raw(form: TernaryForm, m: int) -> tuple[TernaryForm, Mat3, Mat3]:
    """(raw transformed form, basis M, cofactor N with M*N = N*M = m*I)."""
    lat = lambda_lattice(form, m)
    mbasis = lat.basis
    gram2 = mat_mul(transpose(mbasis), mat_mul(form.gram(), mbasis))
    try:
        scaled = mat_scale_exact(gram2, 1, m)
    except ValueError:
        raise FormError(
            f"scaled Gram of {form} under lambda_{m} is not integral"
        ) from None
    raw = TernaryForm.from_gram(scaled)
    det = det3(mbasis)
    adj = adjugate(mbasis)
    try:
        n = mat_scale_exact(adj if det > 0 else mat_neg(adj), m, abs(det))
    except ValueError:
        raise FormError(
            f"cofactor matrix of lambda_{m} basis is not integral for {form}"
        ) from None
    return raw, mbasis, n


def _canonical(form: TernaryForm) -> TernaryForm:
    """The reduced class representative when the form is definite, else the form."""
    return reduce_form(form)[0] if is_positive_definite(form) else form


def lambda_m(form: TernaryForm, m: int) -> TernaryForm:
    """Watson's m-mapping; canonically reduced when the input is definite."""
    if m < 2:
        raise FormError("modulus must be >= 2")
    raw, _, _ = _lambda_raw(form, m)
    return _canonical(raw)


def phi(form: TernaryForm, reduce: bool = True) -> TernaryForm:
    """<a,b,c,d,e,f> -> <a,4b,4c,4d,2e,2f> on Convenient Shape 1."""
    if discriminant(form) % 2 == 0:
        raise FormError("phi requires odd discriminant")
    if not _is_shape1(form):
        form, _ = to_convenient_shape_1(form)
    a, b, c, d, e, f = form.coeffs
    out = TernaryForm(a, 4 * b, 4 * c, 4 * d, 2 * e, 2 * f)
    return _canonical(out) if reduce else out


def phi_inverse(form: TernaryForm, reduce: bool = True) -> TernaryForm:
    """Quarter the Shape-2 Gram via (1/4) * D * H * D with D = diag(2,1,1)."""
    if not _is_shape2(form):
        form, _ = to_convenient_shape_2(form)
    a, b, c, d, e, f = form.coeffs
    out = TernaryForm(a, b // 4, c // 4, d // 4, e // 2, f // 2)
    return _canonical(out) if reduce else out


def transport_automorph(
    preimage: TernaryForm, image: TernaryForm, m: int, r: Mat3
) -> Mat3:
    """Map an automorph r of the preimage to one of image = lambda_m(preimage).

    s = (1/m) * N * r * M on the raw transformed form, conjugated into the
    coordinates of the canonical image.  Raises when s is not integral or
    not an automorph (which would contradict the transport construction).
    """
    raw, mbasis, n = _lambda_raw(preimage, m)
    if apply_map(preimage, r) != preimage:
        raise FormError("r is not an automorph of the preimage")
    prod = mat_mul(n, mat_mul(r, mbasis))
    try:
        s_raw = mat_scale_exact(prod, 1, m)
    except ValueError:
        raise FormError("transported automorph is not integral") from None
    if apply_map(raw, s_raw) != raw:
        raise FormError("transported matrix is not an automorph of the image")
    if raw == image:
        return s_raw
    w = equivalent(raw, image)
    if w is None:
        raise FormError(f"image {image} is not equivalent to lambda_{m} of the preimage")
    return mat_mul(unimodular_inverse(w), mat_mul(s_raw, w))
