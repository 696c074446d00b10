from dataclasses import replace
from fractions import Fraction

import pytest

from test_genus import count_calls
from test_isometry import TIED_DIAGONALS
from ternaryforms import verify
from ternaryforms.forms import TernaryForm, _minkowski, apply_map
from ternaryforms.genus import GenusCache, GenusSet
from ternaryforms.local import (
    LocalDensity,
    _density_odd_pair,
    _gamma_pair,
    _psi_pair,
    density_formula_odd,
    gamma_p,
    psi,
    valuation,
)
from ternaryforms.verify import (
    FOUR_YZ_MINUS_XX,
    IdentityReport,
    _check_weighted_identity,
    _four_yz_pair,
    _yz_pair,
    density_suites,
    mass_suite,
    verify_theorem_1_1,
    verify_theorem_1_2,
    verify_theorem_1_3,
    watson_suite,
)


def test_report_schema():
    report = verify_theorem_1_1(25)
    d = report.to_dict()
    assert set(d) == {"identity", "p", "n_max", "failures", "pass"}
    assert d["identity"] == "thm1.1"
    assert d["p"] == 3
    assert d["n_max"] == 25
    assert d["failures"] == []
    assert d["pass"] is True


def test_small_scale_identities():
    assert verify_theorem_1_1(100).passed
    assert verify_theorem_1_2(100).passed
    assert verify_theorem_1_3(3, 60).passed
    assert verify_theorem_1_3(11, 60).passed


def test_wrong_weights_are_detected():
    report = _check_weighted_identity(
        "broken",
        3,
        40,
        (
            (3, TernaryForm(1, 1, 3, 0, 0, 1)),  # weight should be 2
            (-4, TernaryForm(4, 3, 4, 0, 4, 0)),
        ),
    )
    assert not report.passed
    assert report.failures
    first = report.failures[0]
    assert first["lhs"] != first["rhs"]

    report = _check_weighted_identity(
        "broken",
        3,
        6,
        (
            (Fraction(5, 3), TernaryForm(1, 1, 3, 0, 0, 1)),
            (-4, TernaryForm(4, 3, 4, 0, 4, 0)),
        ),
    )
    assert {
        "n": 3,
        "lhs": 8,
        "rhs": "16/3",
        "error": "non-integer RHS",
        "terms": [
            {"form": "1,1,3,0,0,1", "weight": "5/3", "count": 8, "term": "40/3"},
            {"form": "4,3,4,0,4,0", "weight": "-4", "count": 2, "term": "-8"},
        ],
    } in report.failures
    assert {
        "n": 1,
        "lhs": 12,
        "rhs": 10,
        "terms": [
            {"form": "1,1,3,0,0,1", "weight": "5/3", "count": 6, "term": "10"},
            {"form": "4,3,4,0,4,0", "weight": "-4", "count": 0, "term": "0"},
        ],
    } in report.failures


def test_a_failure_names_each_class_term(monkeypatch):
    # One theta value of thm1.1's second class raised by one: only n = 7
    # fails, and its entry gives each class's weight * R_form(7).
    theta = verify.theta

    def perturbed(form, bound):
        counts = theta(form, bound)
        return counts[:7] + (counts[7] + 1,) + counts[8:] if form == TernaryForm(4, 3, 4, 0, 4, 0) else counts

    monkeypatch.setattr(verify, "theta", perturbed)
    report = verify_theorem_1_1(20)
    r1, r2 = theta(TernaryForm(1, 1, 3, 0, 0, 1), 7)[7], theta(TernaryForm(4, 3, 4, 0, 4, 0), 7)[7]
    assert report.failures == [
        {
            "n": 7,
            "lhs": 2 * r1 - 4 * r2,
            "rhs": 2 * r1 - 4 * (r2 + 1),
            "terms": [
                {"form": "1,1,3,0,0,1", "weight": "2", "count": r1, "term": str(2 * r1)},
                {"form": "4,3,4,0,4,0", "weight": "-4", "count": r2 + 1, "term": str(-4 * (r2 + 1))},
            ],
        }
    ]
    assert report.to_dict()["pass"] is False


def test_failing_report_is_not_pass():
    r = IdentityReport("x", None, 5, failures=[{"n": 1, "lhs": 0, "rhs": 1}])
    assert not r.passed
    assert r.to_dict()["pass"] is False


def test_density_suites_tiny():
    suites = density_suites(n_odd=12, n_dyadic=16, n_split=10, n_gamma=12, n_scale=8)
    assert set(suites) == {
        "odd-prime-closed-form",
        "dyadic-three-squares",
        "split-anisotropic-odd",
        "prime-square-scaling",
        "dyadic-difference-forms",
        "difference-kernel",
    }
    for name, failures in suites.items():
        assert failures == [], name


SUITES_OFF = dict(n_odd=0, n_dyadic=0, n_split=0, n_gamma=0, n_scale=0)
SMALL_SUITES = dict(n_odd=6, n_dyadic=16, n_split=10, n_gamma=6, n_scale=8)
SPLIT_3 = TernaryForm(1, 3, 3, 0, 0, 0)  # <u, p, pu> at p = 3, where -1 is a nonresidue


def _one_more_at(f, at):
    """f, with its value at the arguments `at` raised by one.

    f is a closed form's integer core, whose (num, den) becomes
    (num + den, den), or local_density, whose density is raised.
    """

    def perturbed(*args):
        value = f(*args)
        if args != at:
            return value
        if isinstance(value, LocalDensity):
            return replace(value, value=value.value + 1)
        num, den = value
        return num + den, den

    return perturbed


# The integer core in verify that the suites read for each closed form.
CORES = {
    "density_formula_odd": "_density_odd_pair",
    "psi": "_psi_pair",
    "gamma_p": "_gamma_pair",
    "_yz_table": "_yz_pair",
    "_four_yz_table": "_four_yz_pair",
}

# (closed form, or name in verify, the arguments it is perturbed at, {suite: case labels that fail})
PERTURBATIONS = [
    ("density_formula_odd", (5, 3), {"odd-prime-closed-form": ["p=3 n=5"], "difference-kernel": ["p=3 n=5"]}),
    ("psi", (5,), {"dyadic-three-squares": ["n=5"], "dyadic-difference-forms": ["three-squares recurrence n=5"]}),
    ("gamma_p", (5, 3), {"split-anisotropic-odd": ["p=3 n=5"], "difference-kernel": ["p=3 n=5"]}),
    ("_yz_table", (5,), {"dyadic-difference-forms": ["yz-xx table n=5"]}),
    ("_four_yz_table", (5,), {"dyadic-difference-forms": ["4yz-xx table n=5"]}),
    # The base density is the expected side of the scaling checks.
    (
        "local_density",
        (SPLIT_3, 5, 3),
        {"split-anisotropic-odd": ["p=3 n=5"], "prime-square-scaling": ["p=3 n=5 k=1", "p=3 n=5 k=2"]},
    ),
    ("local_density", (SPLIT_3, 45, 3), {"prime-square-scaling": ["p=3 n=5 k=1"]}),
    ("local_density", (FOUR_YZ_MINUS_XX, 20, 2), {"dyadic-difference-forms": ["doubling recurrence n=5"]}),
]


@pytest.mark.parametrize("name, at, fired", PERTURBATIONS)
def test_every_density_suite_reports_a_wrong_value(monkeypatch, name, at, fired):
    name = CORES.get(name, name)
    monkeypatch.setattr(verify, name, _one_more_at(getattr(verify, name), at))
    suites = density_suites(**SMALL_SUITES)
    assert {suite: [line.split(":")[0] for line in lines] for suite, lines in suites.items() if lines} == fired


def test_density_failure_lines_read_case_counted_expected(monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(verify, "_yz_pair", _one_more_at(verify._yz_pair, (5,)))
        suites = density_suites(**{**SUITES_OFF, "n_dyadic": 6})
    counted = verify.local_density(verify.YZ_MINUS_XX, 5, 2).value
    assert suites["dyadic-difference-forms"] == [f"yz-xx table n=5: {counted} != {Fraction(*_yz_pair(5)) + 1}"]


def test_each_integer_core_is_its_closed_form():
    for n in range(1, 2001):
        for core, public in ((_psi_pair, psi), (_yz_pair, _yz_table_oracle), (_four_yz_pair, _four_yz_table_oracle)):
            assert core(n)[1] > 0 and Fraction(*core(n)) == public(n), (core.__name__, n)
        for p in (3, 5, 7, 11, 13):
            for core, public in ((_density_odd_pair, density_formula_odd), (_gamma_pair, gamma_p)):
                assert core(n, p)[1] > 0 and Fraction(*core(n, p)) == public(n, p), (core.__name__, n, p)


def test_passing_density_suites_build_no_fraction(monkeypatch):
    def refuse(*args):
        raise AssertionError(f"Fraction{args} built on the density-suite path")

    monkeypatch.setattr(verify, "Fraction", refuse)
    assert not any(density_suites(**SMALL_SUITES).values())


@pytest.mark.parametrize(
    "sizes, calls",
    [
        # The split suite's counts at n <= 20 are the scaling suite's bases,
        # and its counts at n = 9, 18 are the scaled counts at p = 3, n = 1, 2.
        ({**SUITES_OFF, "n_split": 20, "n_scale": 20}, 154),
        ({**SUITES_OFF, "n_split": 20}, 60),
        # No base count at n = 9, 18, where p^2 | n and no check reads it.
        ({**SUITES_OFF, "n_scale": 20}, 154),
        # The doubling recurrence's count at 4n <= 128 is the 4yz-xx count at 4n.
        ({**SUITES_OFF, "n_dyadic": 128}, 480),
        # The sizes `verify all` runs.
        ({}, 2420),
    ],
)
def test_density_suites_count_each_density_once(monkeypatch, sizes, calls):
    densities = count_calls(monkeypatch, "local", "local_density")
    suites = density_suites(**sizes)
    assert not any(suites.values())
    assert len(densities) == len(set(densities)) == calls


def _yz_table_oracle(n):
    a, k = valuation(n, 4)
    if k % 8 == 7:
        return Fraction(3, 2)
    if k % 8 == 3:
        return Fraction(3, 2) - Fraction(1, 2 ** (a + 1))
    return Fraction(3, 2) - Fraction(3, 2 ** (a + 2))


def _four_yz_table_oracle(n):
    a, k = valuation(n, 4)
    if k % 8 == 7:
        return Fraction(3)
    if k % 8 == 3:
        return 3 - Fraction(1, 2 ** (a - 1)) if a >= 1 else Fraction(1)
    return 3 - Fraction(3, 2**a)


def test_dyadic_tables_match_their_fraction_expressions():
    for n in range(1, 3000):
        assert Fraction(*_yz_pair(n)) == _yz_table_oracle(n), n
        assert Fraction(*_four_yz_pair(n)) == _four_yz_table_oracle(n), n


def test_watson_suite_small():
    result = watson_suite(primes=(3,), n_scaling=30)
    for name, failures in result.items():
        assert failures == [], name


def test_mass_suite_searches_no_class_when_no_diagonals_tie(monkeypatch):
    # No two classes of TG1(29) or of TG2(29) share a Minkowski diagonal, so
    # the diagonals alone show the classes inequivalent, with no search.
    cache = GenusCache(None)
    cache.tg1(29), cache.tg2(29)
    searches = count_calls(monkeypatch, "reduction", "_search")
    assert mass_suite(primes=(29,), cache=cache) == []
    assert searches == []


def test_mass_suite_searches_only_classes_whose_diagonals_tie(monkeypatch):
    # The classes of TIED_DIAGONALS stored as one genus: each pair shares its
    # Minkowski diagonal, 1,1,1,0,0,0 shares none and is not searched.
    cache = GenusCache(None)
    classes = ((TernaryForm(1, 1, 1, 0, 0, 0), 48), *((form, 1) for pair in TIED_DIAGONALS for form in pair))
    twin = apply_map(TIED_DIAGONALS[0][0], ((1, 1, 0), (0, 1, 0), (0, 0, 1)))
    cache.put(GenusSet("TG1", 29, classes + ((twin, 1),)))
    cache.put(GenusSet("TG2", 29, classes))
    searches = count_calls(monkeypatch, "reduction", "_search")
    assert mass_suite(primes=(29,), cache=cache) == [
        "p=29: TG1 mass 529/48 != 7/12",
        "p=29: TG2 mass 481/48 != TG1 mass 529/48",
        "p=29: TG1 classes 1,1,2,0,0,1 and 1,3,2,0,0,3 are equivalent",
    ]
    tied = {_minkowski(form)[0] for form, _ in (*classes[1:], (twin, 1))}
    assert {pre for pre, _ in searches} == tied


def test_mass_suite_names_equivalent_classes():
    # Two bases of the class 2,11,11,7,1,-1 stored as if they were two
    # classes, and its image stored twice in TG2: the mass is wrong and each
    # genus holds one class twice.  Reading TG2 from such TG1 rows is refused
    # (tests/test_genus.py), so the TG2 is put by hand.
    cache = GenusCache(None)
    tg1, tg2 = cache.tg1(29), cache.tg2(29)
    twin = TernaryForm(2, 12, 11, 8, 1, 3)
    cache.put(GenusSet("TG1", 29, tg1.classes + ((twin, 4),)))
    cache.put(GenusSet("TG2", 29, tg2.classes + ((TernaryForm(8, 15, 31, 2, 8, 4), 4),)))
    assert mass_suite(primes=(29,), cache=cache) == [
        "p=29: TG1 mass 5/6 != 7/12",
        "p=29: TG1 classes 2,11,11,7,1,-1 and 2,12,11,8,1,3 are equivalent",
        "p=29: TG2 classes 8,15,31,2,8,4 and 8,15,31,2,8,4 are equivalent",
    ]
