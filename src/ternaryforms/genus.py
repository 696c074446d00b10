"""Genus enumeration for discriminant p^2 and the Phi-built 16p^2 companion.

TG1(p) is enumerated by scanning reduced sextuples (the mass identity
(p-1)/48 certifies completeness, turning the heuristic scan bound into a
verified one).  TG2(p) is constructed class by class through Phi, with the
automorph-order match checked as required by the bijection.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .counting import rep_count
from .forms import FormError, TernaryForm, discriminant, is_positive_definite, is_primitive
from .isometry import automorphs
from .local import is_prime
from .reduction import reduce_form
from .watson import phi

CACHE_ENV = "TERNARY_CACHE"
DEFAULT_PRIME_BOUND = 97


class IncompletenessError(RuntimeError):
    """Enumerated mass does not match the closed form: scan bound bug."""


@dataclass(frozen=True)
class GenusSet:
    label: str  # "TG1" or "TG2"
    prime: int
    classes: tuple[tuple[TernaryForm, int], ...]  # (canonical form, |Aut|)

    @property
    def mass(self) -> Fraction:
        return sum((Fraction(1, aut) for _, aut in self.classes), Fraction(0))


def mass_closed_form(p: int) -> Fraction:
    if p == 2 or not is_prime(p):
        raise FormError(f"{p} is not an odd prime")
    return Fraction(p - 1, 48)


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
    Conway-Sloane, SPLAG ch. 15).  The mass certificate checks completeness.
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


def enumerate_tg1(p: int) -> GenusSet:
    """All classes of positive primitive forms of discriminant p^2.

    Completeness is certified against the closed-form mass (p-1)/48.
    """
    mass = mass_closed_form(p)
    if p > DEFAULT_PRIME_BOUND:
        raise FormError(f"p = {p} exceeds the configured bound {DEFAULT_PRIME_BOUND}")
    disc = p * p
    seen: dict[TernaryForm, None] = {}
    for cand in _scan_reduced_candidates(disc):
        if not is_primitive(cand):
            continue
        canon, _ = reduce_form(cand)
        seen.setdefault(canon, None)
    classes = tuple(
        sorted((form, automorphs(form).order) for form in seen)
    )
    result = GenusSet("TG1", p, classes)
    if result.mass != mass:
        raise IncompletenessError(
            f"TG1({p}) mass {result.mass} != {mass}; enumeration bound bug"
        )
    return result


def build_tg2(tg1: GenusSet) -> GenusSet:
    """Image genus under Phi, with automorph orders checked to transfer."""
    if tg1.label != "TG1":
        raise FormError("build_tg2 expects a TG1 genus")
    classes = []
    for form, aut in tg1.classes:
        image = phi(form)
        image_aut = automorphs(image).order
        if image_aut != aut:
            raise FormError(
                f"automorph order changed under Phi: {form} has {aut}, image {image} has {image_aut}"
            )
        classes.append((image, image_aut))
    result = GenusSet("TG2", tg1.prime, tuple(sorted(classes)))
    if result.mass != tg1.mass:
        raise FormError("TG2 mass differs from TG1 mass")
    return result


def weighted_rep_sum(genus: GenusSet, n: int) -> Fraction:
    """Sum over classes of R(n)/|Aut|."""
    return sum(
        (Fraction(rep_count(form, n), aut) for form, aut in genus.classes),
        Fraction(0),
    )


# -- JSON cache -----------------------------------------------------------

def _genus_to_dict(genus: GenusSet) -> dict:
    return {
        "v": 1,
        "label": genus.label,
        "p": genus.prime,
        "classes": [
            {"coeffs": list(form.coeffs), "aut": aut} for form, aut in genus.classes
        ],
        "mass": f"{genus.mass.numerator}/{genus.mass.denominator}",
    }


def _genus_from_dict(data: dict, label: str, p: int) -> GenusSet:
    """The genus stored under (label, p); every class must be positive definite
    of discriminant p^2 (TG1) or 16p^2 (TG2), and the mass must be the
    closed-form (p-1)/48 of both genera.  Reducedness is not checked."""
    key = f"{label},{p}"
    if not isinstance(data, dict):
        raise FormError(f"genus cache entry {key} is not a JSON object; cache corrupt")
    if data.get("v") != 1:
        raise FormError(f"unsupported genus cache version {data.get('v')}")
    try:
        classes = []
        for entry in data["classes"]:
            coeffs, aut = entry["coeffs"], entry["aut"]
            if len(coeffs) != 6 or not all(type(v) is int for v in (*coeffs, aut)) or aut < 1:
                raise ValueError(f"class {entry} is not six integers and a positive order")
            classes.append((TernaryForm(*coeffs), aut))
        genus = GenusSet(data["label"], data["p"], tuple(classes))
        mass = Fraction(data["mass"])
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise FormError(f"genus cache entry {key} is malformed ({type(exc).__name__}: {exc}); cache corrupt") from None
    if (genus.label, genus.prime) != (label, p):
        raise FormError(f"genus cache entry {key} holds {genus.label},{genus.prime}; cache corrupt")
    disc = (1 if label == "TG1" else 16) * p * p
    for form, _ in genus.classes:
        if not is_positive_definite(form) or discriminant(form) != disc:
            raise FormError(f"genus cache entry {key} holds {form}, not positive definite of discriminant {disc}; cache corrupt")
    if genus.mass != mass:
        raise FormError("genus cache mass mismatch; cache corrupt")
    if mass != mass_closed_form(p):
        raise FormError(f"genus cache entry {key} has mass {mass}, not {mass_closed_form(p)}; cache corrupt")
    return genus


class GenusCache:
    """Persists genus enumerations to a JSON file, written atomically.

    The automorph orders of a genus read from the file are recomputed on its
    first use: the mass check alone cannot see two orders swapped.
    """

    def __init__(self, path: str | None = None):
        self.path = path or os.environ.get(CACHE_ENV)
        self._store: dict[str, dict] = {}
        if self.path and os.path.exists(self.path):
            try:
                with open(self.path) as fh:
                    self._store = json.load(fh)
            except (OSError, ValueError) as exc:
                raise FormError(f"cannot read genus cache {self.path}: {exc}") from None
            if not isinstance(self._store, dict):
                raise FormError(f"genus cache {self.path} is not a JSON object")
        self._unchecked = set(self._store)

    @staticmethod
    def _key(label: str, p: int) -> str:
        return f"{label},{p}"

    def get(self, label: str, p: int) -> GenusSet | None:
        key = self._key(label, p)
        data = self._store.get(key)
        if not data:
            return None
        try:
            genus = _genus_from_dict(data, label, p)
        except FormError as exc:
            raise FormError(f"genus cache {self.path}: {exc}") from None
        if key in self._unchecked:
            for form, aut in genus.classes:
                order = automorphs(form).order
                if order != aut:
                    raise FormError(
                        f"genus cache {self.path}: {key} stores |Aut({form})| = {aut}, "
                        f"recomputed {order}; cache corrupt"
                    )
            self._unchecked.discard(key)
        return genus

    def put(self, genus: GenusSet) -> None:
        self._store[self._key(genus.label, genus.prime)] = _genus_to_dict(genus)
        if self.path:
            d = os.path.dirname(os.path.abspath(self.path))
            fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
            try:
                with os.fdopen(fd, "w") as fh:
                    fh.write(json.dumps(self._store, separators=(",", ":")))
                os.replace(tmp, self.path)
            except BaseException:
                if os.path.exists(tmp):
                    os.unlink(tmp)
                raise

    def tg1(self, p: int) -> GenusSet:
        cached = self.get("TG1", p)
        if cached is None:
            cached = enumerate_tg1(p)
            self.put(cached)
        return cached

    def tg2(self, p: int) -> GenusSet:
        cached = self.get("TG2", p)
        if cached is None:
            cached = build_tg2(self.tg1(p))
            self.put(cached)
        return cached
