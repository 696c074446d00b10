"""Genus enumeration for discriminant p^2 and the Phi-built 16p^2 companion.

TG1(p) is found as the closure of one class under Kneser's ell-neighbour
step (M. Kneser, Klassenzahlen definiter quadratischer Formen, Arch. Math. 8
(1957); R. Schulze-Pillot, An algorithm for computing genera of ternary and
quaternary quadratic forms, ISSAC 1991).  The seed `_seed` solves the
reduced box for b and d mod p instead of scanning it; ell = 3, or 5 when
p = 3, so ell does not divide the discriminant, and each class has ell + 1
isotropic lines mod ell, each giving one neighbour in the same genus; a
neighbour is built only when the closure draws it to be reduced.  The
neighbour graph need not reach every class (a genus may hold several spinor
genera), so it decides nothing: the closure stops once the classes found
reach the closed-form mass (p-1)/48, and that mass is the certificate of
completeness.  The drained box scan stays in the tests as the oracle; the
work limit, charged with the closure's size before the seed, is the only
bound on p.  |Aut| of each class is the number of bases its canonical
reduction finds.  TG2(p) is the set of Phi images of TG1's classes.
`_checked_classes` is the one path from the forms of TG1's classes to a
checked genus, TG1 from the forms or TG2 from their Phi images; `build_tg2`
calls it, and so does GenusCache, which stores only the canonical forms of
TG1, when a genus is first read from them.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Iterator

from .forms import FormError, TernaryForm, apply_basis, charge, discriminant, is_positive_definite
from .local import is_prime
from .matrices import column_hnf
from .reduction import _canonical_bases
from .watson import _phi_raw


class IncompletenessError(RuntimeError):
    """The neighbour closure of TG1 fell short of the closed-form mass."""


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


def _seed(p: int) -> TernaryForm:
    """A positive form of discriminant p^2, found by solving the reduced box mod p.

    The box is Seeber's: 0 < a <= b, |d| <= b, 0 <= e, f <= a and abc <= p^2/2
    hold for a reduced form of each class after sign changes of the basis
    (Gauss's 1831 review of Seeber; Conway-Sloane, SPLAG ch. 15).  Every
    positive form of discriminant p^2 has p-adic Jordan type <u> + p<v, w>:
    the other type, <u, v> + p^2<w>, would be isotropic at p, at 2 (an even
    unimodular plane, which represents every 2-adic unit, plus <2u>) and at
    every other finite prime, so anisotropic only at infinity, which Hilbert
    reciprocity forbids.  So p divides every 2x2 minor of the Gram matrix,
    and as p does not divide a (a^3 <= p^2/2), b = f^2 (4a)^-1 and
    d = e f (2a)^-1 mod p.  The walk takes b and d in those classes only and
    accepts any integer c: a > 0, 4ab - f^2 > 0 and the discriminant make the
    form positive definite.  The (a, f, b, e) rows are charged as a running
    sum at each a.
    """
    disc, half = p * p, p * p // 2
    rows, a = 0, 1
    while a**3 <= half:
        top = isqrt(half // a)
        rows += (a + 1) ** 2 * ((top - a) // p + 1)
        charge(rows, "the TG1 seed walk of discriminant %d, up to a = %d,", disc, a)
        inv = pow(4 * a, -1, p)
        for f in range(a + 1):
            for b in range(a + (f * f * inv - a) % p, top + 1, p):
                denom = 4 * a * b - f * f
                for e in range(a + 1):
                    for d in range(-b + (2 * e * f * inv + b) % p, b + 1, p):
                        num = disc - d * e * f + a * d * d + b * e * e
                        if num % denom == 0:
                            return TernaryForm(a, b, num // denom, d, e, f)
        a += 1
    raise IncompletenessError(f"the reduced box of discriminant {disc} holds no form")


def _neighbours(form: TernaryForm, ell: int) -> Iterator[TernaryForm]:
    """The ell-neighbours of form, one per isotropic line mod the odd prime ell.

    ell must not divide the discriminant; FormError otherwise, at the call.
    The neighbours are then built one at a time as they are drawn, the last
    line first.  For a line v with Q(v) = 0 mod ell (there are ell + 1),
    lift v to Q(v) = 0 mod ell^2; the neighbour is
    {x : B(x, v) = 0 mod ell} + Z v/ell.  Scaled by ell it is spanned by
    ell^2 e_i, ell times two kernel vectors of x -> B(x, v) mod ell, and v,
    so with M the HNF of those its Gram matrix is M'GM / ell^2.
    """
    if discriminant(form) % ell == 0:
        raise FormError(f"{ell} divides the discriminant of {form}; its {ell}-neighbours are not defined")

    def build() -> Iterator[TernaryForm]:
        g = form.gram()
        lines = [(1, y, z) for y in range(ell) for z in range(ell)] + [(0, 1, z) for z in range(ell)] + [(0, 0, 1)]
        for v in reversed(lines):
            q = form(*v)
            if q % ell:
                continue
            h = [sum(x * y for x, y in zip(row, v)) % ell for row in g]  # B(e_k, v) mod ell
            # G is invertible mod ell, so some B(e_i, v) is a unit.
            i = next(k for k in range(3) if h[k])
            inv = pow(h[i], -1, ell)
            # Q(v + ell*t*e_i) = Q(v) + ell*t*B(e_i, v) mod ell^2.
            t = -(q // ell) * inv % ell
            v = tuple(x + ell * t * (k == i) for k, x in enumerate(v))
            cols = [tuple(ell * ell * (k == j) for k in range(3)) for j in range(3)]
            cols += [tuple(ell * ((k == j) - h[j] * inv * (k == i)) for k in range(3)) for j in range(3) if j != i]
            yield apply_basis(form, column_hnf(cols + [v]), ell * ell)

    return build()


def enumerate_tg1(p: int) -> GenusSet:
    """All classes of positive primitive forms of discriminant p^2.

    Canonicalises the seed, then the ell-neighbours (ell = 3, or 5 when
    p = 3) of each new class in turn, depth first, until the classes found
    reach the closed-form mass (p-1)/48, which certifies completeness.  The
    closure keeps a stack of neighbour iterators, so a neighbour is built
    only when it is reduced.  A closure that runs out of neighbours short of
    the mass raises IncompletenessError.  Every form of discriminant p^2 is
    primitive, as disc(kQ) = k^3 disc(Q).  The closure is charged
    1000 (ell + 1)(p - 1) units before the seed: |Aut| <= 48 bounds the
    class number by p - 1, and one neighbour reduction costs about as much
    time as 1300 theta units.
    """
    mass = mass_closed_form(p)
    ell = 5 if p == 3 else 3
    charge(1000 * (ell + 1) * (p - 1), "the %d-neighbour closure of TG1(%d)", ell, p)
    seen: dict[TernaryForm, int] = {}
    found = Fraction(0)
    stack = [iter([_seed(p)])]
    while stack and found < mass:
        for form in stack[-1]:
            canon, bases = _canonical_bases(form)
            if canon not in seen:
                seen[canon] = len(bases)  # |Aut(form)| = |Aut(canon)|
                found += Fraction(1, len(bases))
                stack.append(_neighbours(canon, ell))
                break
        else:
            stack.pop()
    if found != mass:
        raise IncompletenessError(
            f"TG1({p}) mass {found} != {mass}; the {ell}-neighbour closure fell short of the mass"
        )
    return GenusSet("TG1", p, tuple(sorted(seen.items())))


def _checked_classes(label: str, p: int, forms: list[TernaryForm]) -> dict[TernaryForm, int]:
    """{canonical class: |Aut|} of TG1(p), or of TG2(p) through Phi, from
    forms of TG1's classes, in the order of forms.

    Every form must be positive definite of discriminant p^2, so primitive
    (disc(kQ) = k^3 disc(Q)).  For TG1 each form must be its own canonical
    form; for TG2 it is not reduced at all, and one canonical reduction of
    its Phi sublattice form (`watson._phi_raw`) gives the image class and
    its |Aut|.  Forms of one class (equal images, as Phi is a bijection on
    classes) are refused, and the mass must be the closed-form (p-1)/48.
    These checks are complete: distinct classes of discriminant p^2 whose
    masses sum to the mass of all of TG1 are all of TG1, and their images
    are all of TG2.  Each refusal names "TG1,p", the forms' genus.
    """
    key = f"TG1,{p}"
    classes: dict[TernaryForm, int] = {}
    form_of: dict[TernaryForm, TernaryForm] = {}
    for form in forms:
        if not is_positive_definite(form) or discriminant(form) != p * p:
            raise FormError(f"{key} holds {form}, not positive definite of discriminant {p * p}")
        canon, bases = _canonical_bases(form if label == "TG1" else _phi_raw(form))
        if label == "TG1" and canon != form:
            raise FormError(f"{key} holds {form}, not its canonical form {canon}")
        if canon in classes:
            first = form_of[canon]
            twice = f"{form} twice" if first == form else f"{first} and {form}, of one class"
            raise FormError(f"{key} holds {twice}")
        classes[canon], form_of[canon] = len(bases), form
    mass = sum((Fraction(1, aut) for aut in classes.values()), Fraction(0))
    if mass != mass_closed_form(p):
        raise FormError(f"{key} has mass {mass}, not {mass_closed_form(p)}")
    return classes


def build_tg2(tg1: GenusSet) -> GenusSet:
    """Image genus under Phi (`_checked_classes`), with each class's |Aut| checked to transfer."""
    if tg1.label != "TG1":
        raise FormError("build_tg2 expects a TG1 genus")
    classes = _checked_classes("TG2", tg1.prime, [form for form, _ in tg1.classes])
    for (form, aut), (image, image_aut) in zip(tg1.classes, classes.items()):
        if image_aut != aut:
            raise FormError(f"automorph order changed under Phi: {form} has {aut}, image {image} has {image_aut}")
    return GenusSet("TG2", tg1.prime, tuple(sorted(classes.items())))


# -- JSON cache -----------------------------------------------------------

class GenusCache:
    """Persists the classes of TG1 to a JSON file, written atomically, or
    keeps them in memory only when no path is given; TG2 is derived.

    The file maps "TG1,p" to the coefficient rows of the classes; other
    entries are not read, and a file with any entry that is not a list is
    refused when it is opened, so `put` never writes rows beside an entry of
    another layout.  `put` of TG1 also stores its rows, and TG2 is always
    read from TG1's rows, never from a TG1 in memory.  A genus is read from
    the rows once per instance and checked by `_checked_classes`, with one
    canonical reduction per row: TG1 from the rows, TG2 from their Phi
    images.  The instance keeps every genus it has checked or been given.
    """

    def __init__(self, path: str | None = None):
        self.path = path
        self._rows: dict[str, list] = {}
        self._genera: dict[str, GenusSet] = {}
        if self.path and os.path.exists(self.path):
            try:
                with open(self.path) as fh:
                    self._rows = json.load(fh)
            except (OSError, ValueError) as exc:
                raise FormError(f"cannot read genus cache {self.path}: {exc}") from None
            if not isinstance(self._rows, dict):
                raise FormError(f"genus cache {self.path} is not a JSON object")
            for key, rows in self._rows.items():
                if not isinstance(rows, list):
                    raise FormError(f"genus cache {self.path}: entry {key} is not a list of rows; cache corrupt")

    def get(self, label: str, p: int) -> GenusSet | None:
        key, rows = f"{label},{p}", self._rows.get(f"TG1,{p}")
        if key not in self._genera and rows is not None:
            try:
                if not all(isinstance(r, list) and len(r) == 6 and all(type(v) is int for v in r) for r in rows):
                    raise FormError(f"TG1,{p} is not a list of six-integer rows")
                classes = _checked_classes(label, p, [TernaryForm(*row) for row in rows])
            except FormError as exc:
                where = f"genus cache {self.path}: " if self.path else ""
                raise FormError(f"{where}genus cache entry {exc}; cache corrupt") from None
            self._genera[key] = GenusSet(label, p, tuple(sorted(classes.items())))
        return self._genera.get(key)

    def put(self, genus: GenusSet) -> None:
        """Keep genus; a TG1 genus is also stored as rows, and written to the file."""
        key = f"{genus.label},{genus.prime}"
        self._genera[key] = genus
        if genus.label != "TG1":
            return
        self._rows[key] = [list(form.coeffs) for form, _ in genus.classes]
        if self.path:
            d = os.path.dirname(os.path.abspath(self.path))
            tmp = None
            try:
                fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
                with os.fdopen(fd, "w") as fh:
                    fh.write(json.dumps(self._rows, separators=(",", ":")))
                os.replace(tmp, self.path)
            except OSError as exc:
                raise FormError(f"cannot write genus cache {self.path}: {exc}") from None
            finally:
                if tmp is not None and os.path.exists(tmp):
                    os.unlink(tmp)

    def tg1(self, p: int) -> GenusSet:
        cached = self.get("TG1", p)
        if cached is None:
            cached = enumerate_tg1(p)
            self.put(cached)
        return cached

    def tg2(self, p: int) -> GenusSet:
        cached = self.get("TG2", p)
        if cached is None:
            self.tg1(p)  # stores TG1's rows, which `get` reads TG2 from
            cached = self.get("TG2", p)
        return cached
