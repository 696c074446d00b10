"""Watson's lambda_m transformation and the Phi bijection.

Lambda_m restricts a form to the sublattice where it is m-divisible
(G*v ≡ 0 and f(v) ≡ 0 mod m), rescales by 1/m, and rereads the result as an
integral form.  The vectors with G*v ≡ 0 (mod m) are m times the dual of
G Z^3 + m Z^3, and f mod m is a homomorphism onto {0, m/2} on them, so the
sublattice comes from Hermite normal forms with no scan of residues.
`transport_automorph` moves automorphs of a form onto its lambda_m image
and returns, beside them, the image's automorph group read off the same
reduction that found the image.  Phi restricts a form of odd discriminant
to the index-4 sublattice {v : G*v ≡ 0 mod 2} = Z r + 2 Z^3,
r = (d, e, f) mod 2, with no rescaling; in a basis where a and d are odd
and e and f even this is the coefficient map
<a,b,c,d,e,f> -> <a,4b,4c,4d,2e,2f>.  On forms of odd discriminant lambda_4
inverts Phi on classes, so Phi^-1 is lambda_4 with Phi as its exact check.
"""

from __future__ import annotations

from typing import Sequence

from .forms import (
    FormError,
    TernaryForm,
    apply_basis,
    apply_map,
    discriminant,
    is_primitive,
)
from .matrices import (
    Mat3,
    Vec3,
    adjugate,
    column_hnf,
    det3,
    mat_mul,
    mat_scale_exact,
    unimodular_inverse,
)
from .reduction import _canonical_bases, reduce_form


def divisibility_lattice_basis(form: TernaryForm, m: int) -> Mat3:
    """Canonical (column-HNF) basis of {v : G v ≡ 0, form(v) ≡ 0 (mod m)}.

    K = {v : G v ≡ 0 (mod m)} is m Λ*, the dual of Λ = G Z^3 + m Z^3 scaled
    by m: v·λ ≡ 0 (mod m) for the columns λ of the symmetric G exactly when
    G v ≡ 0, and always for λ = m e_i.  With B the column HNF of Λ, the rows
    of m adj(B) / det(B) span K.  For v, w in K, form(v + w) = form(v) +
    form(w) + v'Gw with v'Gw ≡ 0, and 2 form(v) = v'Gv ≡ 0 (mod m), so form
    mod m is additive on K with values in {0, m/2}.  Its kernel is K when it
    vanishes on the basis; otherwise, with k0 a basis vector where it does
    not, the kernel is spanned by each k_j, plus k0 where form(k_j) ≢ 0 (so
    2 k0 among them).  The work is two Hermite normal forms and an adjugate,
    polynomial in log m.
    """
    if m < 1:
        raise FormError("modulus must be >= 1")
    lam = column_hnf([*form.gram(), (m, 0, 0), (0, m, 0), (0, 0, m)])
    cols: list[Vec3] = list(mat_scale_exact(adjugate(lam), m, det3(lam)))
    odd = [k for k in cols if form(*k) % m]
    if odd:
        k0 = odd[0]  # k0 itself becomes 2 k0
        cols = [tuple(x + y for x, y in zip(k, k0)) if form(*k) % m else k for k in cols]
    return column_hnf(cols)


def _lambda_raw(form: TernaryForm, m: int) -> tuple[TernaryForm, Mat3]:
    """(raw transformed form, its basis M): the form on M's lattice, rescaled by 1/m."""
    mbasis = divisibility_lattice_basis(form, m)
    return apply_basis(form, mbasis, m), mbasis


def _canonical(form: TernaryForm) -> TernaryForm:
    """The reduced class representative when the form is definite, else the form.

    Reduction tests definiteness once; its refusal of an indefinite form is
    the only FormError it raises (a work limit is a ResourceLimitError).
    """
    try:
        return reduce_form(form)[0]
    except FormError:
        return form


def lambda_m(form: TernaryForm, m: int) -> TernaryForm:
    """Watson's m-mapping; canonically reduced when the input is definite."""
    if m < 2:
        raise FormError("modulus must be >= 2")
    return _canonical(_lambda_raw(form, m)[0])


def _phi_raw(form: TernaryForm) -> TernaryForm:
    """The form on {v : G v ≡ 0 (mod 2)}, in its column-HNF basis, unreduced.

    G mod 2 is the alternating matrix of (d, e, f) mod 2, whose kernel holds
    r = (d, e, f) mod 2.  At odd discriminant (≡ def + ad + be + cf mod 2) r
    is not 0 and G mod 2 has rank 2, so the sublattice is Z r + 2 Z^3, of
    index 4 whatever the basis.  When a and d are odd and e and f even,
    r = e_1 and the basis (e_1, 2e_2, 2e_3) gives <a,4b,4c,4d,2e,2f>.
    """
    if discriminant(form) % 2 == 0:
        raise FormError("phi requires odd discriminant")
    if not is_primitive(form):
        raise FormError("phi requires a primitive form")
    r = (form.d % 2, form.e % 2, form.f % 2)
    return apply_basis(form, column_hnf([(2, 0, 0), (0, 2, 0), (0, 0, 2), r]))


def phi(form: TernaryForm) -> TernaryForm:
    """The form on {v : G v ≡ 0 (mod 2)} (`_phi_raw`); canonically reduced when definite."""
    return _canonical(_phi_raw(form))


def phi_inverse(form: TernaryForm) -> TernaryForm:
    """The reduced primitive preimage under Phi, computed as lambda_4.

    lambda_4 inverts Phi on classes; the result is returned only when Phi maps
    it back onto the class of the input, so a wrong preimage cannot escape.
    """
    target = reduce_form(form)[0]  # refuses an indefinite form
    pre = lambda_m(form, 4)
    if discriminant(pre) % 2 == 0 or not is_primitive(pre) or phi(pre) != target:
        raise FormError(f"{form} is not Φ of a primitive form of odd discriminant")
    return pre


def transport_automorph(
    preimage: TernaryForm, m: int, rs: Sequence[Mat3]
) -> tuple[TernaryForm, tuple[Mat3, ...], tuple[Mat3, ...]]:
    """(lambda_m(preimage), the automorphs rs of the preimage mapped into it,
    the automorph group of lambda_m(preimage), sorted).

    Each r goes to s = M^-1 * r * M = adj(M) * r * M / det(M) on the raw
    transformed form (det(M) > 0, as M is a column HNF), then into the
    coordinates of the canonical image by the witness w of reduce_form(raw):
    w^-1 * s * w.  The lattice and w are built once for the whole sequence,
    and the images come back in the order of rs.  The canonical search of raw
    that finds w = B_1 finds every basis B_i taking raw to the image, so the
    w^-1 * B_i are the automorphs of the image: the group comes from that
    search, not from the transport.  Raises when some s is not integral or
    not an automorph (which would contradict the transport construction).
    """
    raw, mbasis = _lambda_raw(preimage, m)
    adj, det = adjugate(mbasis), det3(mbasis)
    image, bases = _canonical_bases(raw)
    w, w_inv = bases[0], unimodular_inverse(bases[0])
    out = []
    for r in rs:
        if apply_map(preimage, r) != preimage:
            raise FormError("r is not an automorph of the preimage")
        try:
            s_raw = mat_scale_exact(mat_mul(adj, mat_mul(r, mbasis)), 1, det)
        except ValueError:
            raise FormError("transported automorph is not integral") from None
        if apply_map(raw, s_raw) != raw:
            raise FormError("transported matrix is not an automorph of the image")
        out.append(mat_mul(w_inv, mat_mul(s_raw, w)))
    return image, tuple(out), tuple(sorted(mat_mul(w_inv, u) for u in bases))
