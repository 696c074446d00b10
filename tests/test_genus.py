import json
from fractions import Fraction
from math import isqrt

import pytest

from ternaryforms.forms import FormError, TernaryForm, discriminant, is_primitive
from ternaryforms.genus import (
    GenusCache,
    build_tg2,
    enumerate_tg1,
    mass_closed_form,
    weighted_rep_sum,
)
from ternaryforms.isometry import automorphs, equivalent
from ternaryforms.reduction import reduce_form

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
    with pytest.raises(FormError):
        enumerate_tg1(101)  # beyond the default bound


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


def test_weighted_rep_sum_combination_is_integral():
    tg1 = enumerate_tg1(11)
    tg2 = build_tg2(tg1)
    for n in range(1, 40):
        val = 48 * weighted_rep_sum(tg1, n) - 96 * weighted_rep_sum(tg2, n)
        assert val.denominator == 1


def test_cache_round_trip(tmp_path):
    path = tmp_path / "genus.json"
    cache = GenusCache(str(path))
    g = cache.tg1(7)
    assert path.exists()
    # a fresh cache object reads the stored data without re-enumerating
    cache2 = GenusCache(str(path))
    g2 = cache2.get("TG1", 7)
    assert g2 is not None
    assert g2.classes == g.classes
    assert cache2.tg1(7).classes == g.classes


def test_cache_detects_corruption(tmp_path):
    path = tmp_path / "genus.json"
    cache = GenusCache(str(path))
    cache.tg1(7)
    data = json.loads(path.read_text())
    data["TG1,7"]["classes"][0]["aut"] = 6
    path.write_text(json.dumps(data))
    with pytest.raises(FormError):
        GenusCache(str(path)).get("TG1", 7)


def test_cache_detects_swapped_automorph_orders(tmp_path):
    path = tmp_path / "genus.json"
    GenusCache(str(path)).tg1(11)  # classes with |Aut| 8 and 12
    data = json.loads(path.read_text())
    first, second = data["TG1,11"]["classes"]
    first["aut"], second["aut"] = second["aut"], first["aut"]  # mass unchanged
    path.write_text(json.dumps(data))
    with pytest.raises(FormError, match="corrupt"):
        GenusCache(str(path)).tg1(11)


def _corrupt_tg1_11(path, how):
    """Write TG1(11) to the cache file at path, then damage its second class."""
    GenusCache(str(path)).tg1(11)  # 1,3,11,0,0,1 (|Aut| 8) and 3,4,4,3,2,-2 (|Aut| 12)
    data = json.loads(path.read_text())
    entry = data["TG1,11"]["classes"][1]
    if how == "wrong-class":
        entry["coeffs"] = [2, 2, 2, 1, 1, -1]  # TG1(5)'s class: same |Aut|, mass unchanged
    else:
        del entry["coeffs"]
    path.write_text(json.dumps(data))


@pytest.mark.parametrize("how", ["wrong-class", "missing-coeffs"])
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


def test_cache_env_var(tmp_path, monkeypatch):
    path = tmp_path / "env_cache.json"
    monkeypatch.setenv("TERNARY_CACHE", str(path))
    cache = GenusCache()
    cache.tg1(5)
    assert path.exists()


def test_memoryless_cache():
    cache = GenusCache(None)
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
    return sorted((form, automorphs(form).order) for form in seen)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 19, 23, 29, 31])
def test_tg1_matches_the_full_box_scan(p):
    assert list(enumerate_tg1(p).classes) == full_box_tg1(p)
