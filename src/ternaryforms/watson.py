"""Watson's lambda_m transformation and the Phi bijection.

Lambda_m restricts a form to the sublattice where it is m-divisible
(G*v ≡ 0 and f(v) ≡ 0 mod m), rescales by 1/m, and rereads the result as an
integral form.  For forms of odd discriminant lambda_4 is the coefficient
map Phi(<a,b,c,d,e,f>) = <a,4b,4c,4d,2e,2f> on Convenient Shape 1, and is
an involution on classes, so Phi^-1 is lambda_4 with Phi as its exact check.
"""

from __future__ import annotations

from .forms import (
    FormError,
    TernaryForm,
    _is_shape1,
    apply_map,
    discriminant,
    is_positive_definite,
    is_primitive,
    to_convenient_shape_1,
)
from .isometry import equivalent
from .matrices import (
    Mat3,
    Vec3,
    adjugate,
    column_hnf,
    det3,
    mat_mul,
    mat_neg,
    mat_scale_exact,
    transpose,
    unimodular_inverse,
)
from .reduction import reduce_form

# Largest residue box m^3 the m-divisibility scan may walk.
_LATTICE_SCAN_LIMIT = 10**8


def divisibility_lattice_basis(form: TernaryForm, m: int) -> Mat3:
    """Canonical (column-HNF) basis of {v : G v ≡ 0, form(v) ≡ 0 (mod m)}."""
    if m < 1:
        raise FormError("modulus must be >= 1")
    if m**3 > _LATTICE_SCAN_LIMIT:
        raise FormError(f"modulus {m} too large for the residue scan")
    g = form.gram()
    cols: list[Vec3] = [(m, 0, 0), (0, m, 0), (0, 0, m)]
    for x in range(m):
        for y in range(m):
            for z in range(m):
                v = (x, y, z)
                gv = tuple(sum(g[i][k] * v[k] for k in range(3)) for i in range(3))
                if all(t % m == 0 for t in gv) and form(*v) % m == 0:
                    cols.append(v)
    return column_hnf(cols)


def _lambda_raw(form: TernaryForm, m: int) -> tuple[TernaryForm, Mat3, Mat3]:
    """(raw transformed form, basis M, cofactor N with M*N = N*M = m*I)."""
    mbasis = divisibility_lattice_basis(form, m)
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


def phi(form: TernaryForm) -> TernaryForm:
    """<a,b,c,d,e,f> -> <a,4b,4c,4d,2e,2f> on Convenient Shape 1."""
    if discriminant(form) % 2 == 0:
        raise FormError("phi requires odd discriminant")
    if not is_primitive(form):
        raise FormError("phi requires a primitive form")
    if not _is_shape1(form):
        form, _ = to_convenient_shape_1(form)
    a, b, c, d, e, f = form.coeffs
    return _canonical(TernaryForm(a, 4 * b, 4 * c, 4 * d, 2 * e, 2 * f))


def phi_inverse(form: TernaryForm) -> TernaryForm:
    """The reduced primitive preimage under Phi, computed as lambda_4.

    lambda_4 inverts Phi on classes; the result is returned only when Phi maps
    it back onto the class of the input, so a wrong preimage cannot escape.
    """
    if not is_positive_definite(form):
        raise FormError("phi_inverse requires a positive definite form")
    pre = lambda_m(form, 4)
    if discriminant(pre) % 2 == 0 or not is_primitive(pre) or phi(pre) != reduce_form(form)[0]:
        raise FormError(f"{form} is not Φ of a primitive form of odd discriminant")
    return pre


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
