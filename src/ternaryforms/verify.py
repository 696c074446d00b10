"""End-to-end checks of the headline identities and the density suites.

Every check is an exact integer or rational equality; a report collects the
full list of counterexamples rather than stopping at the first.

The density suites hold every value as a (num, den) pair of integers with
den > 0: each closed form has one integer core (in `local`, and the two
dyadic difference-form tables here), a counted density is the count over
p^(2t) of `local._density_pair`, the integer core of `local_density`, and
the suites compare two pairs by cross-multiplication.  A Fraction is built
only to write a failure line.
"""

from __future__ import annotations

import functools
from copy import deepcopy
from fractions import Fraction
from itertools import zip_longest
from math import lcm
from operator import add, sub

from .counting import THREE_SQUARES, s_batch, theta
from .forms import TernaryForm
from .genus import GenusCache, mass_closed_form
from .isometry import automorphs, equivalent
from .local import (
    _density_odd_pair,
    _density_pair,
    _gamma_pair,
    _psi_pair,
    kronecker,
    valuation,
)
from .watson import _witnessed_transport, lambda_m, phi, transport_automorph

THM11_FORMS = (
    (2, TernaryForm(1, 1, 3, 0, 0, 1)),
    (-4, TernaryForm(4, 3, 4, 0, 4, 0)),
)
THM12_FORMS = (
    (4, TernaryForm(2, 2, 2, -1, 1, 1)),
    (-8, TernaryForm(7, 8, 8, -4, 8, 8)),
)


class IdentityReport:
    """The counterexamples (`failures`) to `identity` at p for 1 <= n <= n_max.

    Reports are equal when all four fields are, and are not hashable, as
    `failures` grows; `to_dict` writes the fields in that order, then
    "pass", over a fresh copy of the failures.
    """

    def __init__(self, identity: str, p: int | None, n_max: int, failures: list[dict] | None = None):
        self.identity, self.p, self.n_max = identity, p, n_max
        self.failures = [] if failures is None else failures

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return vars(self) == vars(other)
        return NotImplemented

    def __repr__(self) -> str:
        return (
            f"{self.__class__.__qualname__}(identity={self.identity!r}, p={self.p!r}, "
            f"n_max={self.n_max!r}, failures={self.failures!r})"
        )

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {
            "identity": self.identity,
            "p": self.p,
            "n_max": self.n_max,
            "failures": deepcopy(self.failures),
            "pass": self.passed,
        }


def _check_weighted_identity(identity: str, p: int, n_max: int, weights_forms) -> IdentityReport:
    """s(p^2 n) - p*s(n) == sum of weight * R_form(n), for 1 <= n <= n_max.

    Weights are ints or Fractions.  With den their common denominator, the
    integer series den*(s(p^2 n) - p*s(n)) and sum of (weight*den) * R_form(n)
    are built whole and compared once; n is walked only to write the
    failures, where the two differ.  A right-hand side that is not an
    integer is reported as a failure of its own kind.  Each failure lists
    every class's term weight * R_form(n) under "terms".
    """
    report = IdentityReport(identity, p, n_max)
    s_n, s_p2n = s_batch(1, n_max), s_batch(p * p, n_max)
    den = lcm(*(w.denominator for w, _ in weights_forms))
    thetas = [(w, f, theta(f, n_max)) for w, f in weights_forms]
    lhs = list(map(sub, s_p2n, map(p.__mul__, s_n)))
    scaled = list(map(den.__mul__, lhs))
    num = [0] * (n_max + 1)
    for w, _, counts in thetas:
        num = list(map(add, num, map((w.numerator * (den // w.denominator)).__mul__, counts)))
    # The lists start at n = 0, where a mismatch is no failure: the walk
    # below starts at 1.
    if scaled == num:
        return report
    for n in range(1, n_max + 1):
        if scaled[n] == num[n]:
            continue
        if num[n] % den:
            failure = {"n": n, "lhs": lhs[n], "rhs": str(Fraction(num[n], den)), "error": "non-integer RHS"}
        else:
            failure = {"n": n, "lhs": lhs[n], "rhs": num[n] // den}
        failure["terms"] = [
            {"form": str(f), "weight": str(w), "count": counts[n], "term": str(w * counts[n])}
            for w, f, counts in thetas
        ]
        report.failures.append(failure)
    return report


def verify_theorem_1_1(n_max: int) -> IdentityReport:
    return _check_weighted_identity("thm1.1", 3, n_max, THM11_FORMS)


def verify_theorem_1_2(n_max: int) -> IdentityReport:
    return _check_weighted_identity("thm1.2", 5, n_max, THM12_FORMS)


def verify_theorem_1_3(p: int, n_max: int, cache: GenusCache | None = None) -> IdentityReport:
    """s(p^2 n) - p*s(n) == 48*sum_TG1 R/|Aut| - 96*sum_TG2 R/|Aut|."""
    cache = cache or GenusCache()
    weights_forms = [(Fraction(48, aut), f) for f, aut in cache.tg1(p).classes]
    weights_forms += [(Fraction(-96, aut), f) for f, aut in cache.tg2(p).classes]
    return _check_weighted_identity("thm1.3", p, n_max, weights_forms)


# -- density suites -------------------------------------------------------

YZ_MINUS_XX = TernaryForm(-1, 0, 0, 1, 0, 0)
FOUR_YZ_MINUS_XX = TernaryForm(-1, 0, 0, 4, 0, 0)

# The suites of `density_suites`, in report order, each with its case label.
_DENSITY_SUITES = {
    "odd-prime-closed-form": "p={} n={}",
    "dyadic-three-squares": "n={}",
    "split-anisotropic-odd": "p={} n={}",
    "prime-square-scaling": "p={} n={} k={}",
    "dyadic-difference-forms": "{} n={}",
    "difference-kernel": "p={} n={}",
}


def _yz_pair(n: int) -> tuple[int, int]:
    a, k = valuation(n, 4)
    if k % 8 == 7:
        return 3, 2
    if k % 8 == 3:  # 3/2 - 1/2^(a+1)
        return 3 * 2**a - 1, 2 ** (a + 1)
    return 3 * 2 ** (a + 1) - 3, 2 ** (a + 2)  # 3/2 - 3/2^(a+2)


def _four_yz_pair(n: int) -> tuple[int, int]:
    a, k = valuation(n, 4)
    if k % 8 == 7:
        return 3, 1
    if k % 8 == 3:  # 3 - 1/2^(a-1), and 1 at a = 0
        return (3 * 2 ** (a - 1) - 1, 2 ** (a - 1)) if a >= 1 else (1, 1)
    return 3 * 2**a - 3, 2**a  # 3 - 3/2^a


def _split_anisotropic_form(p: int) -> TernaryForm:
    """<u, p, pu> with -u the least quadratic nonresidue mod the odd prime p.

    Half of 1, ..., p - 1 are nonresidues, so the search stops below p; a u
    not found there means `kronecker` is wrong, and is an error.
    """
    for u in range(1, p):
        if kronecker(-u, p) == -1:
            return TernaryForm(u, p, p * u, 0, 0, 0)
    raise RuntimeError(f"no u < {p} with (-u|{p}) = -1: kronecker is wrong at p={p}")


def _density_checks(n_odd: int, n_dyadic: int, n_split: int, n_gamma: int, n_scale: int):
    """(suite, case arguments, counted, expected) for every density check, each suite's in order.

    Both sides are (num, den) pairs with den > 0.  Every density is read
    through one memo that ends with the generator, so each (form, n, p) is
    counted once per call; it keeps the (count, p^(2t)) of
    `local._density_pair`, not in lowest terms.
    """
    density = functools.cache(lambda form, n, p: _density_pair(form, n, p)[:2])
    for p in (3, 5, 7, 11):
        for n in range(1, n_odd + 1):
            yield "odd-prime-closed-form", (p, n), density(THREE_SQUARES, n, p), _density_odd_pair(n, p)
    for n in range(1, n_dyadic + 1):
        yield "dyadic-three-squares", (n,), density(THREE_SQUARES, n, 2), _psi_pair(n)
    for p in (3, 5, 7):
        form = _split_anisotropic_form(p)
        for n in range(1, n_split + 1):
            g, h = _gamma_pair(n, p)
            yield "split-anisotropic-odd", (p, n), density(form, n, p), (p * g, (p - 1) * h)
        for n in range(1, n_scale + 1):
            if n % (p * p):
                a, b = density(form, n, p)
                for k in (1, 2) if p < 7 else (1,):
                    yield "prime-square-scaling", (p, n, k), density(form, n * p ** (2 * k), p), (a, b * p**k)
    for n in range(1, n_dyadic + 1):
        a1, b1 = d1 = density(YZ_MINUS_XX, n, 2)
        a2, b2 = d2 = density(FOUR_YZ_MINUS_XX, n, 2)
        rows = [
            ("yz-xx table", d1, _yz_pair(n)),
            ("4yz-xx table", d2, _four_yz_pair(n)),
            ("three-squares recurrence", (2 * a1 * b2 - a2 * b1, b1 * b2), _psi_pair(n)),
            ("doubling recurrence", (2 * a1, b1), density(FOUR_YZ_MINUS_XX, 4 * n, 2)),
            ("constant combination", (4 * a1 * b2 - a2 * b1, b1 * b2), (3, 1)),
        ]
        if n % 4:
            rows.append(("initial values", d2, (3 if n % 8 == 7 else 1 if n % 8 == 3 else 0, 1)))
        for name, counted, expected in rows:
            yield "dyadic-difference-forms", (name, n), counted, expected
    for p in (3, 5, 7, 11):
        for n in range(1, n_gamma + 1):
            a, b = _density_odd_pair(p * p * n, p)
            c, d = _density_odd_pair(n, p)
            yield "difference-kernel", (p, n), _gamma_pair(n, p), (p * (a * d - c * b), b * d)


def density_suites(
    n_odd: int = 200,
    n_dyadic: int = 256,
    n_split: int = 150,
    n_gamma: int = 200,
    n_scale: int = 50,
) -> dict[str, list[str]]:
    """Run every closed-form-vs-counting density check; values are failure
    lists of "<case>: <counted> != <expected>".

    Each check compares two (num, den) pairs by cross-multiplication; the
    Fractions are built only to write a failure line."""
    failures: dict[str, list[str]] = {suite: [] for suite in _DENSITY_SUITES}
    for suite, case, (a, b), (c, d) in _density_checks(n_odd, n_dyadic, n_split, n_gamma, n_scale):
        if a * d != c * b:
            failures[suite].append(f"{_DENSITY_SUITES[suite].format(*case)}: {Fraction(a, b)} != {Fraction(c, d)}")
    return failures


def _verdict(failures: list) -> dict:
    return {"pass": not failures, "failures": failures}


def verify_density_theorems() -> dict:
    suites = {k: _verdict(v) for k, v in density_suites().items()}
    return {"identity": "density-suites", "suites": suites, "pass": all(v["pass"] for v in suites.values())}


# -- Watson property suite ------------------------------------------------

# The primes whose genera the mass and Watson suites of `verify_all` check.
SUITE_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 73)


def watson_suite(
    primes=SUITE_PRIMES, n_scaling: int = 300, cache: GenusCache | None = None
) -> dict[str, list[str]]:
    """Watson's properties of every TG1(p) class and its Phi image.

    The image of each class is read from TG2(p), which records the TG1 form
    each of its classes came from; a class TG2 does not name as a source (a
    genus built by hand) is mapped by `phi`.  When both genera record the
    witnesses of their searches, both automorph groups, the transport and
    lambda_4 of the image are read off them (`watson._witnessed_transport`)
    with no search; a genus without them, or a witness that fails, takes
    `automorphs`, `transport_automorph` and `lambda_m`.
    """
    cache = cache or GenusCache()
    failures: dict[str, list[str]] = {
        k: [] for k in ("lambda4-involution", "phi-equals-lambda4", "rep-scaling", "automorph-transport")
    }
    for p in primes:
        tg1, tg2 = cache.tg1(p), cache.tg2(p)
        images = dict(zip(tg2.sources, (image for image, _ in tg2.classes)))
        image_witnesses = dict(zip(tg2.sources, tg2.witnesses))
        for (form, _), bases in zip_longest(tg1.classes, tg1.witnesses):
            image = images[form] if form in images else phi(form)
            image_bases = image_witnesses.get(form)
            witnessed = bases and image_bases and _witnessed_transport(form, bases, image, image_bases)
            lam, transported, aut_img = witnessed or transport_automorph(form, 4, automorphs(form))
            if lam != image:
                failures["phi-equals-lambda4"].append(f"p={p} {form}: lambda_4 differs from phi")
            if not witnessed and lambda_m(image, 4) != form:
                failures["lambda4-involution"].append(f"p={p} {form}: lambda_4^2 is not the identity")
            counts = theta(form, n_scaling)
            image_counts = theta(image, 4 * n_scaling)
            for n in range(1, n_scaling + 1):
                if counts[n] != image_counts[4 * n]:
                    failures["rep-scaling"].append(f"p={p} {form} n={n}: R(n) != R_phi(4n)")
            transported = set(transported)
            if transported != set(aut_img):
                failures["automorph-transport"].append(
                    f"p={p} {form}: transport is not a bijection "
                    f"({len(transported)} images vs |Aut| {len(aut_img)})"
                )
    return failures


def mass_suite(primes=SUITE_PRIMES, cache: GenusCache | None = None) -> list[str]:
    cache = cache or GenusCache()
    fails = []
    for p in primes:
        tg1 = cache.tg1(p)  # enumerate_tg1 raises on mass mismatch already
        if tg1.mass != mass_closed_form(p):
            fails.append(f"p={p}: TG1 mass {tg1.mass} != {mass_closed_form(p)}")
        tg2 = cache.tg2(p)
        if tg2.mass != tg1.mass:
            fails.append(f"p={p}: TG2 mass {tg2.mass} != TG1 mass {tg1.mass}")
        for genus in (tg1, tg2):
            for i, (f1, _) in enumerate(genus.classes):
                for f2, _ in genus.classes[i + 1 :]:
                    if equivalent(f1, f2) is not None:
                        fails.append(f"p={p}: {genus.label} classes {f1} and {f2} are equivalent")
    return fails


# The n_max of Theorems 1.1 and 1.2 in `verify_all`, and its (p, n_max) runs
# of Theorem 1.3.
N_IDENTITIES = 1000
THM13_RUNS = ((3, 500), (5, 500), (7, 500), (11, 500), (13, 500), (73, 200))


def verify_all(cache: GenusCache | None = None) -> dict:
    """The full headless acceptance sweep; deterministic and exact."""
    cache = cache or GenusCache()
    reports = [
        verify_theorem_1_1(N_IDENTITIES).to_dict(),
        verify_theorem_1_2(N_IDENTITIES).to_dict(),
        *(verify_theorem_1_3(p, n_max, cache).to_dict() for p, n_max in THM13_RUNS),
    ]
    result = {
        "identities": reports,
        "mass": _verdict(mass_suite(cache=cache)),
        "density": verify_density_theorems(),
        "watson": {k: _verdict(v) for k, v in watson_suite(cache=cache).items()},
    }
    verdicts = (*reports, result["mass"], result["density"], *result["watson"].values())
    result["pass"] = all(v["pass"] for v in verdicts)
    return result
