import importlib
import json
import sys
from fractions import Fraction
from math import isqrt

import pytest

from ternaryforms import genus as genus_module
from ternaryforms.forms import FormError, TernaryForm, discriminant, is_positive_definite, is_primitive
from ternaryforms.genus import (
    GenusCache,
    GenusSet,
    IncompletenessError,
    build_tg2,
    enumerate_tg1,
    mass_closed_form,
)
from ternaryforms.isometry import automorphs, equivalent
from ternaryforms.local import is_prime
from ternaryforms.reduction import _canonical_bases, reduce_form
from ternaryforms.verify import verify_theorem_1_3
from ternaryforms.watson import _phi_raw, phi

KNOWN_TG1 = {
    3: [((1, 1, 3, 0, 0, 1), 24)],
    5: [((2, 2, 2, 1, 1, -1), 12)],
    7: [((1, 2, 7, 0, 0, 1), 8)],
    11: [((1, 3, 11, 0, 0, 1), 8), ((3, 4, 4, 3, 2, -2), 12)],
    13: [((2, 5, 5, 3, 1, -1), 4)],
}


@pytest.mark.parametrize("p", sorted(KNOWN_TG1))
def test_known_small_genera(p):
    genus = enumerate_tg1(p)
    assert [(f.coeffs, aut) for f, aut in genus.classes] == KNOWN_TG1[p]
    assert genus.mass == Fraction(p - 1, 48)


def test_mass_closed_form():
    assert mass_closed_form(73) == Fraction(3, 2)
    for p in (4, 9, 2, 1):
        with pytest.raises(FormError):
            mass_closed_form(p)


def test_rejects_bad_p():
    with pytest.raises(FormError):
        enumerate_tg1(9)
    with pytest.raises(FormError):
        enumerate_tg1(2)
    assert enumerate_tg1(101).mass == mass_closed_form(101)  # no prime bound


def test_classes_are_primitive_and_inequivalent():
    genus = enumerate_tg1(11)
    for f, _ in genus.classes:
        assert is_primitive(f)
        assert discriminant(f) == 121
    (f1, _), (f2, _) = genus.classes
    assert equivalent(f1, f2) is None


def test_tg2_construction():
    tg1 = enumerate_tg1(11)
    tg2 = build_tg2(tg1)
    assert tg2.prime == 11
    assert tg2.mass == tg1.mass
    for f, aut in tg2.classes:
        assert discriminant(f) == 16 * 121
        assert is_primitive(f)
    assert sorted(a for _, a in tg2.classes) == sorted(a for _, a in tg1.classes)
    with pytest.raises(FormError):
        build_tg2(tg2)
    # TG1(11) with its two |Aut| values, 8 and 12, swapped.
    (f1, aut1), (f2, aut2) = tg1.classes
    changed = "automorph order changed under Phi: 1,3,11,0,0,1 has 12, image 4,11,12,0,4,0 has 8"
    with pytest.raises(FormError, match=f"^{changed}$"):
        build_tg2(GenusSet("TG1", 11, ((f1, aut2), (f2, aut1))))


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61])
def test_tg2_reads_image_and_aut_off_one_reduction(p, monkeypatch):
    tg1 = enumerate_tg1(p)
    calls = count_calls(monkeypatch, "reduction", "_canonical_bases")
    tg2 = build_tg2(tg1)
    assert len(calls) == len(tg1.classes)
    monkeypatch.undo()
    # Each image is phi of its class, with the |Aut| of the automorph group.
    expected = sorted((phi(f), len(automorphs(phi(f)))) for f, _ in tg1.classes)
    assert list(tg2.classes) == expected
    assert [aut for _, aut in tg2.classes] == [len(automorphs(f)) for f, _ in tg2.classes]


def test_cache_round_trip(tmp_path):
    path = tmp_path / "genus.json"
    cache = GenusCache(str(path))
    built = {(label, p): cache.tg1(p) if label == "TG1" else cache.tg2(p)
             for label, p in [("TG1", 7), ("TG1", 3), ("TG1", 11), ("TG2", 11)]}
    assert path.exists()
    # a fresh cache object reads the stored data without re-enumerating
    cache2 = GenusCache(str(path))
    for (label, p), g in built.items():
        g2 = cache2.get(label, p)
        assert g2 is not None
        assert g2.classes == g.classes
        assert g2.mass == mass_closed_form(p)
    assert cache2.tg1(7).classes == built["TG1", 7].classes
    assert cache2.tg2(11).classes == built["TG2", 11].classes


def test_cache_stores_only_the_rows(tmp_path):
    path = tmp_path / "genus.json"
    GenusCache(str(path)).tg2(11)
    assert path.read_text() == '{"TG1,11":[[1,3,11,0,0,1],[3,4,4,3,2,-2]]}'


def test_cache_reads_the_indented_layout(tmp_path):
    # Writes are compact; the reader does not depend on the whitespace, so an
    # indented copy of the same rows loads the same genera.
    path = tmp_path / "genus.json"
    cache = GenusCache(str(path))
    tg2 = cache.tg2(11)
    compact = path.read_text()
    assert "\n" not in compact and ": " not in compact
    path.write_text(json.dumps(json.loads(compact), indent=1))
    reread = GenusCache(str(path))
    assert reread.get("TG1", 11).classes == cache.tg1(11).classes
    assert reread.get("TG2", 11).classes == tg2.classes


def count_calls(monkeypatch, module: str, name: str) -> list:
    """The argument tuples of every later call of ternaryforms.<module>.<name>,
    through each package module that holds a reference to it."""
    original = getattr(importlib.import_module(f"ternaryforms.{module}"), name)
    calls = []

    def counting(*args):
        calls.append(args)
        return original(*args)

    for key, mod in list(sys.modules.items()):
        if key.split(".")[0] == "ternaryforms" and vars(mod).get(name) is original:
            monkeypatch.setattr(mod, name, counting)
    return calls


def test_file_loaded_genus_is_checked_once_per_instance(tmp_path, monkeypatch):
    path = tmp_path / "genus.json"
    GenusCache(str(path)).tg1(11)
    calls = count_calls(monkeypatch, "reduction", "_canonical_bases")
    cache = GenusCache(str(path))
    first = cache.tg1(11)
    assert cache.tg1(11) is first
    assert cache.get("TG1", 11) is first
    # One canonical reduction per class gives both its check and its |Aut|.
    assert sorted(form for form, in calls) == [form for form, _ in first.classes]


def test_enumeration_reads_aut_off_the_reduction(monkeypatch):
    calls = count_calls(monkeypatch, "isometry", "automorphs")
    genus = enumerate_tg1(29)
    assert calls == []
    assert [aut for _, aut in genus.classes] == [len(automorphs(form)) for form, _ in genus.classes]


def test_cache_detects_corruption(tmp_path):
    path = tmp_path / "genus.json"
    cache = GenusCache(str(path))
    cache.tg1(7)
    data = json.loads(path.read_text())
    data["TG1,7"][0][2] += 1  # 1,2,8,0,0,1: discriminant 56, not 49
    path.write_text(json.dumps(data))
    with pytest.raises(FormError, match="discriminant 49; cache corrupt"):
        GenusCache(str(path)).get("TG1", 7)


def test_cache_detects_swapped_automorph_orders(tmp_path):
    # The file stores no |Aut|: with the two TG1(11) rows swapped, each form
    # still gets its own order.
    path = tmp_path / "genus.json"
    GenusCache(str(path)).tg1(11)  # classes with |Aut| 8 and 12
    data = json.loads(path.read_text())
    data["TG1,11"].reverse()
    path.write_text(json.dumps(data))
    orders = {form.coeffs: aut for form, aut in GenusCache(str(path)).tg1(11).classes}
    assert orders == dict(KNOWN_TG1[11])


def _corrupt_tg1_11(path, how):
    """Write TG1(11) to the cache file at path, then damage its second class."""
    GenusCache(str(path)).tg1(11)  # 1,3,11,0,0,1 (|Aut| 8) and 3,4,4,3,2,-2 (|Aut| 12)
    data = json.loads(path.read_text())
    rows = data["TG1,11"]
    if how == "wrong-class":
        rows[1] = [2, 2, 2, 1, 1, -1]  # TG1(5)'s class: same |Aut|, mass unchanged
    elif how == "dropped-class":
        del rows[1]  # mass 1/8 left of 5/24
    else:
        rows[1] = rows[1][:5]
    path.write_text(json.dumps(data))


def inject_tg1_29(path, row):
    """Write TG1(29) to the cache file at path, then put row in place of the
    class 3,8,10,1,2,3.  Its other classes are 2,11,11,7,1,-1 and
    3,10,10,9,2,-2; every class has |Aut| 4 but the last, with 12."""
    GenusCache(str(path)).tg1(29)
    data = json.loads(path.read_text())
    rows = data["TG1,29"]
    rows[rows.index([3, 8, 10, 1, 2, 3])] = row
    path.write_text(json.dumps(data))


# Each injection keeps the mass: 2,12,11,8,1,3 is an unreduced form of the
# class 2,11,11,7,1,-1, which has |Aut| 4 like the class it replaces.
INJECTED_TG1_29 = {
    "unreduced": ([2, 12, 11, 8, 1, 3], "holds 2,12,11,8,1,3, not its canonical form 2,11,11,7,1,-1"),
    "repeated": ([2, 11, 11, 7, 1, -1], "holds 2,11,11,7,1,-1 twice"),
}


@pytest.mark.parametrize("how", sorted(INJECTED_TG1_29))
def test_cache_rejects_an_injected_tg1_class(tmp_path, how):
    row, message = INJECTED_TG1_29[how]
    path = tmp_path / "genus.json"
    inject_tg1_29(path, row)
    with pytest.raises(FormError, match=f"{message}; cache corrupt"):
        GenusCache(str(path)).tg1(29)


def test_cache_ignores_a_tg2_entry(tmp_path):
    # 1,2,242,0,0,0 has discriminant 16 * 11^2 and |Aut| 8, like the class
    # 4,11,12,0,4,0 it replaces, but lies outside TG2(11).  TG2 is derived
    # from the TG1 rows, so a "TG2,p" entry is never read.
    path = tmp_path / "genus.json"
    GenusCache(str(path)).tg1(11)
    data = json.loads(path.read_text())
    data["TG2,11"] = [[3, 15, 15, 14, 2, -2], [1, 2, 242, 0, 0, 0]]
    path.write_text(json.dumps(data))
    cache = GenusCache(str(path))
    assert [(f.coeffs, aut) for f, aut in cache.tg2(11).classes] == [((3, 15, 15, 14, 2, -2), 12), ((4, 11, 12, 0, 4, 0), 8)]
    assert verify_theorem_1_3(11, 50, cache).passed


# Each damage to the TG1(11) rows, and the message that refuses TG2(11).
DAMAGED_TG1_11 = {
    "dropped-class": (lambda rows: rows[:1], "has mass 1/8, not 5/24"),
    "one-class-twice": (
        lambda rows: [rows[0], [1, 3, 12, 1, 2, 1]],  # rows[0] in the basis (e_1, e_2, e_1 + e_3)
        "holds 1,3,11,0,0,1 and 1,3,12,1,2,1, of one class",
    ),
    "wrong-discriminant": (
        lambda rows: [rows[0], [3, 4, 5, 3, 2, -2]],
        "holds 3,4,5,3,2,-2, not positive definite of discriminant 121",
    ),
}


@pytest.mark.parametrize("how", sorted(DAMAGED_TG1_11))
def test_damaged_tg1_rows_refuse_tg2(tmp_path, how):
    damage, message = DAMAGED_TG1_11[how]
    path = tmp_path / "genus.json"
    GenusCache(str(path)).tg1(11)
    data = json.loads(path.read_text())
    data["TG1,11"] = damage(data["TG1,11"])
    path.write_text(json.dumps(data))
    with pytest.raises(FormError) as info:
        GenusCache(str(path)).tg2(11)
    assert str(info.value) == f"genus cache {path}: genus cache entry TG1,11 {message}; cache corrupt"


def test_tg2_refuses_a_class_held_twice():
    # 2,12,11,8,1,3 is an unreduced form of the TG1(29) class 2,11,11,7,1,-1:
    # its Phi image is that class's image, so TG2 would hold it twice.
    tg1 = enumerate_tg1(29)
    twin = GenusSet("TG1", 29, tg1.classes + ((TernaryForm(2, 12, 11, 8, 1, 3), 4),))
    message = "TG1,29 holds 2,11,11,7,1,-1 and 2,12,11,8,1,3, of one class"
    with pytest.raises(FormError, match=f"^{message}$"):
        build_tg2(twin)
    cache = GenusCache(None)
    cache.put(twin)
    with pytest.raises(FormError) as info:
        cache.tg2(29)
    assert str(info.value) == f"genus cache entry {message}; cache corrupt"


@pytest.mark.parametrize("p", [11, 29, 73])
def test_warm_tg2_reduces_one_phi_image_per_class(tmp_path, monkeypatch, p):
    path = tmp_path / "genus.json"
    rows = GenusCache(str(path)).tg1(p).classes
    calls = count_calls(monkeypatch, "reduction", "_canonical_bases")
    tg2 = GenusCache(str(path)).tg2(p)
    assert len(calls) == len(tg2.classes) == len(rows)
    assert sorted(form for form, in calls) == sorted(_phi_raw(form) for form, _ in rows)
    assert not {form for form, in calls} & {form for form, _ in rows}


@pytest.mark.parametrize("how", ["wrong-class", "missing-coeffs", "dropped-class"])
def test_cache_rejects_damaged_class(tmp_path, how):
    path = tmp_path / "genus.json"
    _corrupt_tg1_11(path, how)
    with pytest.raises(FormError, match="cache corrupt"):
        GenusCache(str(path)).tg1(11)


def test_cache_rejects_entry_stored_under_another_key(tmp_path):
    path = tmp_path / "genus.json"
    GenusCache(str(path)).tg1(7)
    data = json.loads(path.read_text())
    data["TG1,11"] = data["TG1,7"]
    path.write_text(json.dumps(data))
    with pytest.raises(FormError, match="cache corrupt"):
        GenusCache(str(path)).tg1(11)


def test_memoryless_cache():
    cache = GenusCache()
    assert cache.path is None
    g = cache.tg1(5)
    assert g.mass == Fraction(1, 12)


def full_box_tg1(p):
    """Oracle: reduce every primitive sextuple of discriminant p^2 with
    0 < a <= b <= c, |d| <= b, |e| <= a, |f| <= a and abc <= p^2."""
    disc = p * p
    seen = set()
    a = 1
    while a**3 <= disc:
        for b in range(a, isqrt(disc // a) + 1):
            for f in range(-a, a + 1):
                for e in range(-a, a + 1):
                    for d in range(-b, b + 1):
                        num = disc - d * e * f + a * d * d + b * e * e
                        denom = 4 * a * b - f * f
                        if num % denom == 0 and b <= num // denom and a * b * (num // denom) <= disc:
                            form = TernaryForm(a, b, num // denom, d, e, f)
                            if is_primitive(form):
                                seen.add(reduce_form(form)[0])
        a += 1
    return sorted((form, len(automorphs(form))) for form in seen)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 19, 23, 29, 31])
def test_tg1_matches_the_full_box_scan(p):
    assert list(enumerate_tg1(p).classes) == full_box_tg1(p)


def _icbrt(n: int) -> int:
    r = round(n ** (1 / 3))
    while r**3 > n:
        r -= 1
    while (r + 1) ** 3 <= n:
        r += 1
    return r


def _scan_reduced_candidates(disc: int):
    """Sextuples in the reduced box with the given discriminant.

    Bounds: 0 < a <= b <= c, |d| <= b, 0 <= e <= a, 0 <= f <= a and
    a*b*c <= disc // 2.  Every class has a Minkowski-reduced form, which has
    |e|, |f| <= a; changing the sign of e_1, e_2 or e_3 multiplies (d, e, f)
    by (1, -1, -1), (-1, 1, -1) or (-1, -1, 1) inside that box, so one sign
    pattern has e, f >= 0.  Seeber's inequality abc <= 2 det(Gram/2) for
    reduced forms reads abc <= disc / 2 here (Gauss's 1831 review of Seeber;
    Conway-Sloane, SPLAG ch. 15).
    """
    half = disc // 2
    for a in range(1, _icbrt(half) + 1):
        for b in range(a, isqrt(half // a) + 1):
            for f in range(a + 1):
                denom = 4 * a * b - f * f
                for e in range(a + 1):
                    for d in range(-b, b + 1):
                        num = disc - d * e * f + a * d * d + b * e * e
                        if num % denom:
                            continue
                        c = num // denom
                        if c < b or a * b * c > half:
                            continue
                        yield TernaryForm(a, b, c, d, e, f)


def scanned_tg1(p):
    """Oracle: canonicalise every sextuple of the reduced-box scan.

    Each one is primitive and has p | 4ab - f^2, the lemma `_seed` solves by.
    """
    seen = {}
    for form in _scan_reduced_candidates(p * p):
        assert is_primitive(form), form
        assert (4 * form.a * form.b - form.f**2) % p == 0, form
        canon, bases = _canonical_bases(form)
        seen.setdefault(canon, len(bases))
    return sorted(seen.items())


@pytest.mark.parametrize("p", [p for p in range(3, 98) if is_prime(p)])
def test_neighbour_closure_matches_the_drained_scan(p):
    assert list(enumerate_tg1(p).classes) == scanned_tg1(p)


def test_enumeration_pulls_only_the_seed_and_reduces_per_neighbour(monkeypatch):
    seeds = count_calls(monkeypatch, "genus", "_seed")
    calls = count_calls(monkeypatch, "reduction", "_canonical_bases")
    classes = enumerate_tg1(61).classes
    assert seeds == [(61,)]
    assert len(calls) <= 1 + (3 + 1) * len(classes)


def test_the_closure_builds_only_the_neighbours_it_reduces(monkeypatch):
    builds = count_calls(monkeypatch, "genus", "apply_basis")
    calls = count_calls(monkeypatch, "reduction", "_canonical_bases")
    enumerate_tg1(61)
    # The forms reduced, in order: lazy building must not change the
    # depth-first sequence, last line first.
    assert [form.coeffs for form, in calls] == [
        (2, 23, 23, -15, 1, 1),
        (200, 207, 23, 45, 71, 397),
        (35, 90, 2, 7, 6, 102),
        (29, 55, 162, 187, 120, 67),
        (18, 18, 21, 29, 32, 25),
        (98, 116, 189, 295, 264, 207),
    ]
    assert len(builds) == 5
    for p in range(3, 62, 2):
        if is_prime(p):
            builds.clear()
            calls.clear()
            enumerate_tg1(p)
            # Every form reduced but the seed is a neighbour built for it.
            assert len(builds) == len(calls) - 1, p


@pytest.mark.parametrize(
    "primes",
    [[p for p in range(3, 2 * 10**4) if is_prime(p)], [10**9 + 7, 2**61 - 1, 10**18 + 9]],
    ids=["odd primes below 2e4", "large primes"],
)
def test_seed_is_a_positive_form_of_discriminant_p2_in_the_box(primes):
    for p in primes:
        form = genus_module._seed(p)
        a, b, c, d, e, f = form.coeffs
        assert is_positive_definite(form) and discriminant(form) == p * p, (p, form)
        assert 0 <= e <= a <= b and 0 <= f <= a and abs(d) <= b, (p, form)
        assert 2 * a**3 <= p * p and 2 * a * b * b <= p * p, (p, form)


def test_the_mass_decides_completeness(monkeypatch):
    monkeypatch.setattr(genus_module, "_neighbours", lambda form, ell: iter(()))
    # TG1(11) has two classes, of masses 1/8 and 1/12; the seed alone is short.
    with pytest.raises(IncompletenessError, match=r"TG1\(11\) mass 1/(8|12) != 5/24"):
        enumerate_tg1(11)
    # TG1(3) is one class of |Aut| 24: the seed alone reaches the mass 1/24.
    assert [(f.coeffs, aut) for f, aut in enumerate_tg1(3).classes] == KNOWN_TG1[3]


@pytest.mark.parametrize(
    "form, ell", [(TernaryForm(1, 1, 9, 0, 0, 0), 3), (TernaryForm(1, 1, 3, 0, 0, 1), 3), (TernaryForm(1, 1, 25, 0, 0, 0), 5)]
)
def test_neighbours_refuse_a_prime_dividing_the_discriminant(form, ell):
    with pytest.raises(FormError, match=f"{ell} divides the discriminant"):
        genus_module._neighbours(form, ell)


@pytest.mark.parametrize("p, ell", [(3, 5), (7, 3), (11, 3)])
def test_neighbours_lie_in_the_genus(p, ell):
    classes = dict(enumerate_tg1(p).classes)
    for form in classes:
        neighbours = list(genus_module._neighbours(form, ell))
        assert len(neighbours) == ell + 1
        assert {reduce_form(nb)[0] for nb in neighbours} <= set(classes)
