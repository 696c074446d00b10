from itertools import product

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ternaryforms import isometry, verify, watson
from ternaryforms.counting import rep_count, theta
from ternaryforms.forms import (
    FormError,
    TernaryForm,
    discriminant,
    apply_basis,
    apply_map,
    is_positive_definite,
    is_primitive,
)
from ternaryforms.genus import GenusCache, GenusSet, build_tg2, enumerate_tg1
from ternaryforms.isometry import automorphs, equivalent
from test_matrices import IDENTITY, shear
from ternaryforms.matrices import (
    adjugate,
    column_hnf,
    det3,
    mat_mul,
    mat_scale_exact,
    unimodular_inverse,
)
from ternaryforms.reduction import _canonical_bases, reduce_form
from ternaryforms.verify import SUITE_PRIMES
from ternaryforms.watson import (
    _lambda_raw,
    _phi_raw,
    _transport,
    _witnessed_transport,
    divisibility_lattice_basis,
    lambda_m,
    phi,
    phi_inverse,
    transport_automorph,
)
from test_forms import SHAPE_1
from test_genus import count_calls, replace_everywhere

PRIMES = [3, 5, 7, 11, 13]


def test_phi_is_a_coefficient_map_on_shape_1():
    # On Convenient Shape 1, Phi is the paper's coefficient map
    # <a,b,c,d,e,f> -> <a,4b,4c,4d,2e,2f>; test_shape1_conversion checks
    # that each image is in shape 1 and in its form's class.
    for form, shape1 in SHAPE_1:
        a, b, c, d, e, f = shape1.coeffs
        image = reduce_form(TernaryForm(a, 4 * b, 4 * c, 4 * d, 2 * e, 2 * f))[0]
        assert phi(shape1) == phi(form) == image


@pytest.mark.parametrize(
    "form, image",
    [
        # Shape 1: the coefficient map itself.
        (TernaryForm(1, 1, -3, 1, 0, 0), TernaryForm(1, 4, -12, 4, 0, 0)),
        # Not shape 1: the form in the Hermite basis of the sublattice.
        (TernaryForm(1, 1, -3, 0, 0, 1), TernaryForm(4, 4, -3, 0, 0, 4)),
    ],
    ids=str,
)
def test_phi_on_indefinite_forms(form, image):
    assert phi(form) == image
    assert discriminant(image) == 16 * discriminant(form)


def test_phi_requires_odd_discriminant():
    with pytest.raises(FormError):
        phi(TernaryForm(1, 1, 1, 0, 0, 0))


@pytest.mark.parametrize("p", PRIMES)
def test_phi_scales_discriminant_by_sixteen(p):
    for form, _ in enumerate_tg1(p).classes:
        assert discriminant(phi(form)) == 16 * discriminant(form)


@pytest.mark.parametrize("p", PRIMES)
def test_phi_inverse_round_trip(p):
    tg1 = enumerate_tg1(p)
    tg2 = build_tg2(tg1)
    for form, _ in tg1.classes:
        assert phi_inverse(phi(form)) == form
    for form, _ in tg2.classes:
        assert phi(phi_inverse(form)) == form


def test_phi_inverse_of_a_delta_three_mod_four_image():
    # delta = 59 ≡ 3 (mod 4): the image takes the value 25 ≡ 1 (mod 4).
    image = phi(TernaryForm(2, 5, 7, 3, 1, -2))
    assert image == TernaryForm(5, 8, 25, 0, 2, 4)
    assert phi_inverse(image) == TernaryForm(2, 5, 7, 3, 1, -2)


@pytest.mark.parametrize(
    "form",
    [
        TernaryForm(1, 4, 4, 0, 0, 0),  # lambda_4 gives x^2 + y^2 + z^2, discriminant 4
        TernaryForm(3, 12, 12, 12, 0, 0),  # content 3
    ],
    ids=str,
)
def test_phi_inverse_refuses_forms_outside_the_image(form):
    with pytest.raises(FormError, match="not Φ of a primitive form of odd discriminant"):
        phi_inverse(form)


def test_phi_inverse_requires_definite_form():
    with pytest.raises(FormError, match="positive definite"):
        phi_inverse(TernaryForm(-1, 4, 4, 0, 0, 0))


diagonal = st.integers(0, 12)
cross = st.integers(-6, 6)


def _odd_discriminant_form(residue, a0, b0, c0, k, e, f):
    """Positive definite form with odd d and discriminant ≡ residue (mod 4)."""
    # An odd d makes the discriminant ≡ K - a (mod 4), K = def - be^2 - cf^2,
    # so a's residue picks the discriminant's; a diagonally dominant Gram
    # matrix is positive definite.
    d = 2 * k + 1
    b = b0 + (abs(d) + abs(f)) // 2 + 1
    c = c0 + (abs(d) + abs(e)) // 2 + 1
    a = a0 + (abs(e) + abs(f)) // 2 + 1
    a += (d * e * f - b * e * e - c * f * f - residue - a) % 4
    return TernaryForm(a, b, c, d, e, f)


@pytest.mark.parametrize("residue", [1, 3])
@given(diagonal, diagonal, diagonal, cross, cross, cross)
@settings(max_examples=100, deadline=None)
def test_phi_inverse_inverts_phi(residue, a0, b0, c0, k, e, f):
    form = _odd_discriminant_form(residue, a0, b0, c0, k, e, f)
    assert discriminant(form) % 4 == residue
    assume(is_primitive(form))
    assert phi_inverse(phi(form)) == reduce_form(form)[0]


shears = st.lists(
    st.tuples(st.integers(0, 2), st.integers(1, 2), st.integers(-2, 2)), max_size=6
)


@given(st.sampled_from([1, 3]), diagonal, diagonal, diagonal, cross, cross, cross, shears, st.booleans())
@settings(max_examples=100, deadline=None)
def test_phi_is_a_class_invariant_equal_to_lambda_4(residue, a0, b0, c0, k, e, f, moves, flip):
    form = _odd_discriminant_form(residue, a0, b0, c0, k, e, f)
    assume(is_primitive(form))
    u = ((-1, 0, 0), (0, 1, 0), (0, 0, 1)) if flip else IDENTITY
    for i, step, t in moves:
        u = mat_mul(u, shear(i, (i + step) % 3, t))
    assert phi(apply_map(form, u)) == phi(form) == lambda_m(form, 4)


@pytest.mark.parametrize("p", PRIMES)
def test_lambda_4_equals_phi(p):
    for form, _ in enumerate_tg1(p).classes:
        assert _lambda_raw(form, 4)[0] == _phi_raw(form)
        assert lambda_m(form, 4) == phi(form)
        assert lambda_m(lambda_m(form, 4), 4) == form


def test_lambda_lattice_structure():
    form = TernaryForm(1, 1, 3, 0, 0, 1)
    basis = divisibility_lattice_basis(form, 4)
    g = form.gram()
    cols = [tuple(basis[i][j] for i in range(3)) for j in range(3)]
    for v in cols:
        assert form(*v) % 4 == 0
        assert all(sum(g[i][k] * v[k] for k in range(3)) % 4 == 0 for i in range(3))


def _generator_sum_residues(form, m):
    """The residues v in [0, m)^3 with G v ≡ 0 and form(v) ≡ 0 (mod m), by
    generator sums over the Gram rows."""
    g = form.gram()
    found = []
    for x in range(m):
        for y in range(m):
            for z in range(m):
                v = (x, y, z)
                gv = tuple(sum(g[i][k] * v[k] for k in range(3)) for i in range(3))
                if all(t % m == 0 for t in gv) and form(*v) % m == 0:
                    found.append(v)
    return found


@given(diagonal, diagonal, diagonal, cross, cross, cross, st.sampled_from([2, 3, 4, 5, 6, 9]))
@settings(max_examples=150, deadline=None)
def test_lambda_lattice_matches_the_generator_sum_scan(a0, b0, c0, d, e, f, m):
    form = TernaryForm(
        a0 + (abs(e) + abs(f)) // 2 + 1,
        b0 + (abs(d) + abs(f)) // 2 + 1,
        c0 + (abs(d) + abs(e)) // 2 + 1,
        d,
        e,
        f,
    )
    assert is_positive_definite(form)
    residues = _generator_sum_residues(form, m)
    expected = column_hnf([(m, 0, 0), (0, m, 0), (0, 0, m)] + residues)
    assert divisibility_lattice_basis(form, m) == expected


@given(*[st.integers(-12, 12)] * 6, st.integers(1, 12))
@settings(max_examples=300, deadline=None)
def test_lambda_lattice_is_the_kernel_of_the_form_on_the_scaled_dual(a, b, c, d, e, f, m):
    # Definite, indefinite and degenerate forms alike (the zero form included):
    # the lattice comes from the Gram matrix mod m, not from positivity.
    form = TernaryForm(a, b, c, d, e, f)
    expected = column_hnf([(m, 0, 0), (0, m, 0), (0, 0, m)] + _generator_sum_residues(form, m))
    assert divisibility_lattice_basis(form, m) == expected


@pytest.mark.parametrize(
    "form, m",
    [
        (TernaryForm(0, 0, 0, 0, 0, 0), 7),  # G = 0: every v, and form(v) = 0
        (TernaryForm(1, 0, 0, 0, 0, 0), 6),  # degenerate: only x is constrained
        (TernaryForm(1, 1, -1, 0, 0, 0), 2),  # indefinite: form mod 2 is odd on K = Z^3
        (TernaryForm(1, 1, 1, 0, 0, 0), 4),  # form(2 e_i) = 4: K = 2 Z^3 is kept whole
    ],
    ids=str,
)
def test_lambda_lattice_on_edge_forms(form, m):
    expected = column_hnf([(m, 0, 0), (0, m, 0), (0, 0, m)] + _generator_sum_residues(form, m))
    assert divisibility_lattice_basis(form, m) == expected


def _phi_scan_basis(form):
    """Oracle: the column HNF of {v : G v ≡ 0 (mod 2)}, by a scan of the eight
    residues mod 2."""
    g = form.gram()
    cols = [(2, 0, 0), (0, 2, 0), (0, 0, 2)]
    for v in product(range(2), repeat=3):
        if all(sum(g[i][k] * v[k] for k in range(3)) % 2 == 0 for i in range(3)):
            cols.append(v)
    return column_hnf(cols)


@given(*[st.integers(-20, 20)] * 6)
@settings(max_examples=300, deadline=None)
def test_phi_lattice_is_spanned_by_the_kernel_vector(a, b, c, d, e, f):
    # Definite and indefinite forms alike: only the Gram matrix mod 2 counts.
    form = TernaryForm(a, b, c, d, e, f)
    assume(discriminant(form) % 2 and is_primitive(form))
    basis = _phi_scan_basis(form)
    assert _phi_raw(form) == apply_basis(form, basis)
    assert column_hnf([(2, 0, 0), (0, 2, 0), (0, 0, 2), (d % 2, e % 2, f % 2)]) == basis


odd_discriminant_forms = st.one_of(
    st.builds(TernaryForm, *[st.integers(-20, 20)] * 6),
    st.builds(_odd_discriminant_form, st.sampled_from([1, 3]), diagonal, diagonal, diagonal, cross, cross, cross),
)


@pytest.mark.parametrize("r", [r for r in product((0, 1), repeat=3) if any(r)])
def test_phi_writes_out_the_column_hnf_of_its_lattice(monkeypatch, r):
    # _phi_raw builds the basis of Z r + 2 Z^3 itself, with no column_hnf:
    # it must be that HNF, for each of the seven residues r of (d, e, f).
    form = next(
        g
        for a, b, c in product((1, 2, 3), repeat=3)
        if discriminant(g := TernaryForm(a, b, c, *r)) % 2 and is_primitive(g)
    )
    bases = []
    monkeypatch.setattr(watson, "apply_basis", lambda form, u: bases.append(u) or apply_basis(form, u))
    _phi_raw(form)
    assert bases == [column_hnf([(2, 0, 0), (0, 2, 0), (0, 0, 2), r])]


@given(odd_discriminant_forms)
@example(TernaryForm(-1, 0, 0, 1, 0, 0))  # yz - x^2, indefinite
@example(TernaryForm(3, 4, 4, 3, 2, -2))  # a TG1(11) class
@settings(max_examples=300, deadline=None)
def test_the_lambda_4_lattice_is_twice_the_phi_lattice(form):
    # Definite and indefinite forms alike: at odd discriminant the lambda_4
    # lattice {v : G v ≡ 0, f(v) ≡ 0 (mod 4)} is 2 (Z r + 2 Z^3), so lambda_4
    # before reduction is Phi before reduction, coefficient for coefficient.
    assume(discriminant(form) % 2 and is_primitive(form))
    raw, basis = _lambda_raw(form, 4)
    assert basis == mat_scale_exact(_phi_scan_basis(form), 2, 1)
    assert raw == _phi_raw(form)


def test_lambda_rejects_bad_modulus():
    with pytest.raises(FormError):
        lambda_m(TernaryForm(1, 1, 1, 0, 0, 0), 1)
    with pytest.raises(FormError, match="^modulus must be >= 1$"):
        divisibility_lattice_basis(TernaryForm(1, 1, 1, 0, 0, 0), 0)


def test_rep_scaling_under_phi():
    for p in (3, 5, 11):
        for form, _ in enumerate_tg1(p).classes:
            image = phi(form)
            for n in range(1, 80):
                assert rep_count(form, n) == rep_count(image, 4 * n), (form, n)
            for n in range(1, 80):
                if n % 4 in (1, 2):
                    assert rep_count(image, n) == 0


def test_transport_automorph_bijection():
    form = TernaryForm(3, 4, 4, 3, 2, -2)  # TG1(11) class with |Aut| = 12
    image = phi(form)
    pre = automorphs(form)
    img = automorphs(image)
    lam, transported, group = transport_automorph(form, 4, pre)
    assert lam == image == lambda_m(form, 4)
    assert group == img
    assert len(transported) == len(pre)
    assert set(transported) == set(img)


def test_transport_rejects_non_automorph():
    form = TernaryForm(3, 4, 4, 3, 2, -2)
    with pytest.raises(FormError):
        transport_automorph(form, 4, [shear(1, 0)])


def test_transport_respects_composition():
    form = TernaryForm(2, 2, 2, 1, 1, -1)
    elems = automorphs(form)
    tmap = dict(zip(elems, transport_automorph(form, 4, elems)[1]))
    for r1 in elems:
        for r2 in elems:
            assert tmap[mat_mul(r1, r2)] == mat_mul(tmap[r1], tmap[r2])


@pytest.mark.parametrize("p", [q for q in range(3, 74) if all(q % k for k in range(2, q))])
def test_transport_group_is_the_automorph_group_of_the_image(p):
    # The group read off the reduction of the raw lambda_4 form equals the
    # group found by a reduction of the image itself.
    for form, _ in enumerate_tg1(p).classes:
        image, _, group = transport_automorph(form, 4, ())
        assert group == automorphs(image)
        assert all(apply_map(image, u) == image for u in group)


def test_watson_suite_searches_each_class_for_its_automorphs_once(tmp_path, monkeypatch):
    # Each class's group is read off the one search that checked it as TG1
    # was read from its rows, and its image's group off the one search of
    # its Phi form that built TG2: the suite itself searches nothing.
    path = str(tmp_path / "genus.json")
    GenusCache(path).tg1(11)
    cache = GenusCache(path)
    calls = count_calls(monkeypatch, "reduction", "_canonical_bases")
    report = verify.watson_suite(primes=(11,), n_scaling=4, cache=cache)
    assert not any(report.values())
    forms = [form for form, _ in cache.tg1(11).classes]
    assert sorted(form for form, in calls) == sorted(forms + [_phi_raw(form) for form in forms])


@pytest.mark.parametrize("p", [q for q in range(3, 74) if all(q % k for k in range(2, q))])
def test_watson_suite_makes_no_canonical_search_on_a_checked_cache(tmp_path, monkeypatch, p):
    # TG1 enumerated (cold) or read from its rows (warm), both genera record
    # the witnesses of their searches, so the suite takes no fallback.
    path = str(tmp_path / "genus.json")
    cold = GenusCache(path)
    cold.tg1(p), cold.tg2(p)
    warm = GenusCache(path)
    warm.tg1(p), warm.tg2(p)
    names = (
        ("reduction", "_search"),
        ("isometry", "automorphs"),
        ("watson", "transport_automorph"),
        ("watson", "lambda_m"),
    )
    calls = [count_calls(monkeypatch, module, name) for module, name in names]
    for cache in (cold, warm):
        assert not any(verify.watson_suite(primes=(p,), n_scaling=4, cache=cache).values())
    assert calls == [[]] * len(names)


@pytest.mark.parametrize("p", SUITE_PRIMES)
def test_the_witnessed_transport_is_the_transport(p):
    # Read off the witnesses of TG1 and TG2, lambda_4's image, the image of
    # each automorph and the image's group are transport_automorph's.
    cache = GenusCache()
    tg1, tg2 = cache.tg1(p), cache.tg2(p)
    image_of = {source: (image, bases) for source, (image, _), bases in zip(tg2.sources, tg2.classes, tg2.witnesses)}
    for (form, _), bases in zip(tg1.classes, tg1.witnesses):
        image, image_bases = image_of[form]
        lam, transported, group = _witnessed_transport(form, bases, image, image_bases)
        expected = transport_automorph(form, 4, automorphs(form))
        assert (lam, group) == (expected[0], expected[2])
        assert sorted(transported) == sorted(expected[1])


@pytest.mark.parametrize("residue", [1, 3])
@given(diagonal, diagonal, diagonal, cross, cross, cross)
@settings(max_examples=100, deadline=None)
def test_v_takes_the_form_to_lambda_4_of_its_phi_image(residue, a0, b0, c0, k, e, f):
    # watson's module docstring: with (raw, M) lambda_4's raw form and basis,
    # g and W0 from the search of phi's raw form, and M_g lambda_4's basis
    # of g, V = M W0 M_g / 4 is integral and unimodular and takes the form to
    # lambda_4's raw form of g.
    form = _odd_discriminant_form(residue, a0, b0, c0, k, e, f)
    assume(is_primitive(form))
    mbasis = _lambda_raw(form, 4)[1]
    image, bases = _canonical_bases(_phi_raw(form))
    raw_image, mbasis_image = _lambda_raw(image, 4)
    v = mat_scale_exact(mat_mul(mbasis, mat_mul(bases[0], mbasis_image)), 1, 4)
    assert det3(v) in (1, -1)
    assert apply_map(form, v) == raw_image


def test_transport_rejects_a_wrong_image(monkeypatch):
    # transport_automorph returns the image it built; the suite compares it
    # with the image TG2 records for the class, or with phi for a TG2 built
    # by hand without sources, so a wrong image is reported by name, not
    # transported into.  TG2's witnesses do not take lambda_4's raw form to
    # the wrong image, so the suite does not trust them.
    form = TernaryForm(3, 4, 4, 3, 2, -2)
    wrong = TernaryForm(1, 3, 11, 0, 0, 1)
    assert transport_automorph(form, 4, automorphs(form))[0] != wrong
    line = [f"p=11 {form}: lambda_4 differs from phi"]
    cache = GenusCache()
    tg2 = cache.tg2(11)
    classes = tuple((wrong if source == form else image, aut) for (image, aut), source in zip(tg2.classes, tg2.sources))
    for witnesses in (tg2.witnesses, ()):
        cache.put(GenusSet("TG2", 11, classes, tg2.sources, witnesses))
        assert verify.watson_suite(primes=(11,), n_scaling=4, cache=cache)["phi-equals-lambda4"] == line
    cache.put(GenusSet("TG2", 11, tg2.classes))
    monkeypatch.setattr(verify, "phi", lambda f: wrong if f == form else phi(f))
    assert verify.watson_suite(primes=(11,), n_scaling=4, cache=cache)["phi-equals-lambda4"] == line


G11 = TernaryForm(3, 4, 4, 3, 2, -2)  # a TG1(11) class with |Aut| = 12


def _wrong_lambda(f, m):
    # lambda_m's raw form, with the TG1(11) class 1,3,11,0,0,1 as that of Phi(G11).
    raw, basis = _lambda_raw(f, m)
    return (TernaryForm(1, 3, 11, 0, 0, 1) if f == phi(G11) else raw), basis


def _wrong_theta(f, bound):
    counts = theta(f, bound)
    return (counts[0], counts[1] + 2, *counts[2:]) if f == G11 else counts


def _wrong_transport(f, *args):
    image, transported, group = _transport(f, *args)
    return (image, transported[:1] * len(transported), group) if f == G11 else (image, transported, group)


# Where the suite reads each property, with witnesses or without: lambda_m
# and transport_automorph read lambda_m's raw form and the transport from
# the same two functions the witnessed transport reads.
READS = {
    "lambda_m": ("watson", "_lambda_raw"),
    "theta": ("counting", "theta"),
    "transport_automorph": ("watson", "_transport"),
}


@pytest.mark.parametrize(
    "name, wrong, key",
    [
        ("lambda_m", _wrong_lambda, "lambda4-involution"),
        ("theta", _wrong_theta, "rep-scaling"),
        ("transport_automorph", _wrong_transport, "automorph-transport"),
    ],
)
def test_each_watson_property_reports_its_own_fault(monkeypatch, name, wrong, key):
    replace_everywhere(monkeypatch, *READS[name], wrong)
    report = verify.watson_suite(primes=(11,), n_scaling=4)
    assert list(report) == ["lambda4-involution", "phi-equals-lambda4", "rep-scaling", "automorph-transport"]
    assert [k for k, lines in report.items() if lines] == [key]
    assert len(report[key]) == 1 and report[key][0].startswith(f"p=11 {G11}")


def _transport_one_by_one(preimage, image, m, r):
    """The per-automorph construction: s = N r M / m on the raw form, with the
    cofactor N = m adj(M) / det(M), conjugated by a witness from the
    backtracking equivalence search."""
    raw, mbasis = _lambda_raw(preimage, m)
    n = mat_scale_exact(adjugate(mbasis), m, det3(mbasis))
    s_raw = mat_scale_exact(mat_mul(n, mat_mul(r, mbasis)), 1, m)
    assert apply_map(raw, s_raw) == raw
    if raw == image:
        return s_raw
    w = equivalent(raw, image)
    return mat_mul(unimodular_inverse(w), mat_mul(s_raw, w))


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 19, 23])
def test_transport_matches_the_per_automorph_construction(p):
    # The two constructions conjugate by witnesses w_old and w_new of
    # raw -> image; t = w_old^-1 w_new is then an automorph of the image, and
    # each batch element is the old element conjugated by t.  Where t is not
    # central (p = 5, 11, 17, 23) the two differ element by element.
    for form, _ in enumerate_tg1(p).classes:
        image = phi(form)
        elems = automorphs(form)
        old = [_transport_one_by_one(form, image, 4, r) for r in elems]
        lam, new, _ = transport_automorph(form, 4, elems)
        assert lam == image
        raw = _lambda_raw(form, 4)[0]
        w_old = IDENTITY if raw == image else equivalent(raw, image)
        t = mat_mul(unimodular_inverse(w_old), reduce_form(raw)[1])
        assert apply_map(image, t) == image
        t_inv = unimodular_inverse(t)
        assert list(new) == [mat_mul(t_inv, mat_mul(o, t)) for o in old]
        assert set(new) == set(old) == set(automorphs(image))


def _count_suite_lambda_builds(monkeypatch):
    """(lambda-lattice builds, equivalence searches, TG1 classes) of the p = 11 suite."""
    calls = {"lambda": 0, "equivalent": 0}
    raw_builder = watson._lambda_raw
    search = isometry.equivalent

    def counted_lambda(*args):
        calls["lambda"] += 1
        return raw_builder(*args)

    def counted_equivalent(*args):
        calls["equivalent"] += 1
        return search(*args)

    monkeypatch.setattr(watson, "_lambda_raw", counted_lambda)
    for module in (isometry, watson, verify):
        monkeypatch.setattr(module, "equivalent", counted_equivalent, raising=False)
    report = verify.watson_suite(primes=(11,), n_scaling=20)
    assert not any(report.values())
    return calls["lambda"], calls["equivalent"], len(enumerate_tg1(11).classes)


def test_watson_suite_builds_at_most_two_lambda_lattices_per_class(monkeypatch):
    # lambda_4 of the form comes with the transport of its automorph group;
    # only lambda_4 of the image is built on its own.
    builds, searches, classes = _count_suite_lambda_builds(monkeypatch)
    assert 0 < builds <= 2 * classes
    assert searches == 0


def test_lambda_9_on_nine_divisible_form():
    # x^2 + y^2 + z^2 restricted to 3 * Z^3 and rescaled by 9 returns itself.
    form = TernaryForm(9, 9, 9, 0, 0, 0)
    out = lambda_m(form, 9)
    assert out == TernaryForm(1, 1, 1, 0, 0, 0)
