"""Acceptance suite: one test per criterion, all equalities exact.

The heavy work happens once, in a session fixture that runs the headless
CLI sweep and keeps its genus cache for the structural criteria.
"""

import hashlib
import json
import subprocess
import sys
from fractions import Fraction

import pytest

import pins
from ternaryforms.forms import TernaryForm, apply_map
from ternaryforms.genus import GenusCache
from ternaryforms.isometry import equivalent

MASS_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 73)

H_FORMS = [
    TernaryForm(31, 5, 11, 1, -14, 6),
    TernaryForm(15, 14, 10, 7, 4, 16),
    TernaryForm(11, 7, 20, 7, 2, 4),
    TernaryForm(7, 11, 21, 11, 2, 4),
]


@pytest.fixture(scope="session")
def full_run(tmp_path_factory):
    cache = tmp_path_factory.mktemp("acceptance") / "genus.json"
    proc = subprocess.run(
        [sys.executable, "-m", "ternaryforms.cli", "--cache", str(cache), "verify", "all"],
        capture_output=True,
        text=True,
        timeout=1800,
    )
    assert proc.stdout, proc.stderr
    return proc.returncode, json.loads(proc.stdout), str(cache), proc.stdout


def _identity(report, name, p):
    for entry in report["identities"]:
        if entry["identity"] == name and entry["p"] == p:
            return entry
    raise AssertionError(f"no report for {name} p={p}")


def test_criterion_1_three_squares_times_nine(full_run):
    """s(9n) - 3s(n) equals the weighted two-form count, n <= 1000, exactly."""
    entry = _identity(full_run[1], "thm1.1", 3)
    assert entry["n_max"] == 1000
    assert entry["failures"] == []
    assert entry["pass"] is True


def test_criterion_2_three_squares_times_twenty_five(full_run):
    """s(25n) - 5s(n) equals the weighted two-form count, n <= 1000, exactly."""
    entry = _identity(full_run[1], "thm1.2", 5)
    assert entry["n_max"] == 1000
    assert entry["failures"] == []
    assert entry["pass"] is True


def test_criterion_3_general_prime_identity(full_run):
    """s(p^2 n) - p s(n) = 48*W1(n) - 96*W2(n) for the test primes.

    n <= 500 for p in {3,5,7,11,13}; n <= 200 for p = 73, where the genus
    weights must come out as (24,24,12,12) and (-48,-48,-24,-24).
    """
    report, cache_path = full_run[1], full_run[2]
    for p in (3, 5, 7, 11, 13):
        entry = _identity(report, "thm1.3", p)
        assert entry["n_max"] == 500
        assert entry["failures"] == []
    entry = _identity(report, "thm1.3", 73)
    assert entry["n_max"] == 200
    assert entry["failures"] == []
    cache = GenusCache(cache_path)
    w1 = sorted(48 // aut for _, aut in cache.tg1(73).classes)
    w2 = sorted(-96 // aut for _, aut in cache.tg2(73).classes)
    assert w1 == [12, 12, 24, 24]
    assert w2 == [-48, -48, -24, -24]


def test_criterion_4_genus_structure_at_73(full_run):
    """TG1(73): exactly 4 classes matching the reference forms bijectively,
    automorph orders {2,2,4,4}, mass exactly 3/2."""
    cache = GenusCache(full_run[2])
    genus = cache.tg1(73)
    assert len(genus.classes) == 4
    assert sorted(aut for _, aut in genus.classes) == [2, 2, 4, 4]
    assert genus.mass == Fraction(3, 2)
    matched = set()
    for h in H_FORMS:
        hits = []
        for f, _ in genus.classes:
            w = equivalent(h, f)
            if w is not None:
                assert apply_map(h, w) == f  # certified witness
                hits.append(f)
        assert len(hits) == 1, h
        matched.add(hits[0])
    assert len(matched) == 4


def test_criterion_5_mass_certificates(full_run):
    """Enumerated mass equals (p-1)/48 for every test prime; TG2 matches."""
    assert full_run[1]["mass"]["pass"] is True, full_run[1]["mass"]["failures"]
    cache = GenusCache(full_run[2])
    for p in MASS_PRIMES:
        tg1 = cache.tg1(p)
        assert tg1.mass == Fraction(p - 1, 48), p
        assert cache.tg2(p).mass == tg1.mass, p


def test_criterion_6_local_density_suites(full_run):
    """Closed-form densities equal direct congruence counts at full scale."""
    suites = full_run[1]["density"]["suites"]
    expected = {
        "odd-prime-closed-form",
        "dyadic-three-squares",
        "split-anisotropic-odd",
        "prime-square-scaling",
        "dyadic-difference-forms",
        "difference-kernel",
    }
    assert set(suites) == expected
    for name, result in suites.items():
        assert result["failures"] == [], name
        assert result["pass"] is True, name


def test_criterion_7_watson_properties(full_run):
    """lambda_4 is an involution realizing Phi, rep counts scale by 4, and
    automorph transport is a bijection, on every test-genus class."""
    watson = full_run[1]["watson"]
    expected = {
        "lambda4-involution",
        "phi-equals-lambda4",
        "rep-scaling",
        "automorph-transport",
    }
    assert set(watson) == expected
    for name, result in watson.items():
        assert result["failures"] == [], name
        assert result["pass"] is True, name


def test_criterion_8_headless_and_deterministic(full_run):
    """`verify all` runs headless with exit code 0; output does not depend
    on the thread-count setting."""
    assert full_run[0] == 0
    assert full_run[1]["pass"] is True
    outs = []
    for threads in ("1", "8"):
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "ternaryforms.cli",
                "--threads",
                threads,
                "verify",
                "thm1.3",
                "--p",
                "7",
                "--n-max",
                "60",
            ],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0
        outs.append(proc.stdout)
    assert outs[0] == outs[1]


# SHA-256 of the `verify all` stdout (1658 bytes), recorded at commit 87e0c13
# with `python -m ternaryforms.cli --cache <fresh file> verify all` and pinned
# in the `verify-all` row of data/pins.json.  A refactor leaves it unchanged;
# only a deliberate change to the report's content, order or formatting may
# update it.
VERIFY_ALL_STDOUT_SHA256 = {row["name"]: row for row in pins.rows()}["verify-all"]["stdout_sha256"]


def test_verify_all_stdout_is_byte_identical(full_run):
    """The `verify all` report is byte-for-byte the recorded one."""
    digest = hashlib.sha256(full_run[3].encode()).hexdigest()
    assert digest == VERIFY_ALL_STDOUT_SHA256


def test_verify_all_stdout_is_byte_identical_on_a_warm_cache(full_run):
    """A second `verify all` reads every genus from the cache file the first
    one wrote, and prints the same recorded report."""
    proc = subprocess.run(
        [sys.executable, "-m", "ternaryforms.cli", "--cache", full_run[2], "verify", "all"],
        capture_output=True,
        text=True,
        timeout=1800,
    )
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == VERIFY_ALL_STDOUT_SHA256
