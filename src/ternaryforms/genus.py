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
reduction finds.  `GENERA` maps each genus to the sublattice map taking
TG1's classes into it (Phi for TG2).  `_checked_classes` is the one path
from the forms of TG1's classes to a checked genus (each |Aut| checked to
carry over whenever TG1's orders are known), for `build_tg2` and for
GenusCache, which stores only TG1's forms and reads every genus from them;
the genus it returns records each class's TG1 form, so the Watson suite
reads Phi's image of a class off TG2 instead of reducing it again.  Both
record, as a class's `witnesses`, every basis the search that found the
class returned, so the Watson suite reads each automorph group off the genus
with no search of its own.
"""

from __future__ import annotations

import contextlib
import json
import os
import stat
from fractions import Fraction
from math import isqrt, lcm
from typing import Iterator, Sequence

from .forms import (
    FormError,
    TernaryForm,
    _minkowski,
    _read_only,
    apply_basis,
    charge,
    discriminant,
    is_positive_definite,
)
from .local import is_prime
from .matrices import Mat3, column_hnf
from .reduction import _canonical_bases, _search
from .watson import _phi_raw


class IncompletenessError(RuntimeError):
    """The neighbour closure of TG1 fell short of the closed-form mass."""


# label: the map taking a TG1(p) class's form into the genus (None: itself)
GENERA = {"TG1": None, "TG2": _phi_raw}
_BASE = next(label for label, sublattice in GENERA.items() if sublattice is None)
_PHI_IMAGE = next(label for label, sublattice in GENERA.items() if sublattice is _phi_raw)


def _key(label: str, p: int) -> str:
    """The cache's key of label's genus at p ("label,p"); the key of the base
    genus (`_key(_BASE, p)`, "TG1,p") names its rows and starts every refusal
    of them.  A label outside GENERA is refused."""
    if label not in GENERA:
        raise FormError(f"no genus {label!r}; the genera are {', '.join(GENERA)}")
    return f"{label},{p}"


class GenusSet:
    """The classes of one genus at one prime, read-only.

    `label` is a key of GENERA; `classes` holds (canonical form, |Aut|)
    pairs, sorted by form.  `sources` holds the TG1 form each class is the
    image of, in the order of classes (`_checked_classes`).  `witnesses`
    holds each class's bases from the canonical search that found it, in the
    order of classes: of the first neighbour to reach it (`enumerate_tg1`)
    or of the form's image under the map (`_checked_classes`).  Each U takes
    the searched form to the class, so with W0 the first,
    Aut(class) = {W0^-1 U}.  Both are empty when the genus is built
    otherwise.  Two genera are equal, and hash alike, when their label,
    prime and classes are, whatever sources and witnesses they record; the
    repr leaves out the witnesses.
    """

    def __init__(
        self,
        label: str,
        prime: int,
        classes: tuple[tuple[TernaryForm, int], ...],
        sources: tuple[TernaryForm, ...] = (),
        witnesses: tuple[Sequence[Mat3], ...] = (),
    ):
        vars(self).update(label=label, prime=prime, classes=classes, sources=sources, witnesses=witnesses)

    __setattr__ = __delattr__ = _read_only

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.label, self.prime, self.classes) == (other.label, other.prime, other.classes)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.label, self.prime, self.classes))

    def __repr__(self) -> str:
        return (
            f"{self.__class__.__qualname__}(label={self.label!r}, prime={self.prime!r}, "
            f"classes={self.classes!r}, sources={self.sources!r})"
        )

    @property
    def mass(self) -> Fraction:
        """The sum of 1/|Aut| over the classes, as one Fraction over the lcm of the orders."""
        orders = [aut for _, aut in self.classes]
        common = lcm(*orders)
        return Fraction(sum(common // aut for aut in orders), common)


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


def _sign_key(form: TernaryForm) -> tuple[int, ...]:
    """The least sextuple form takes under sign changes of its basis vectors.

    Negating e_1, e_2, e_3 by s1, s2, s3 takes (d, e, f) to (d*s2*s3,
    e*s1*s3, f*s1*s2) and keeps (a, b, c); s and -s act alike, so s1 = 1
    gives all 8 patterns.  Forms with equal keys are equivalent.
    """
    a, b, c, d, e, f = form.coeffs
    return (a, b, c, *min((d * s2 * s3, e * s3, f * s2) for s2 in (1, -1) for s3 in (1, -1)))


def enumerate_tg1(p: int) -> GenusSet:
    """All classes of positive primitive forms of discriminant p^2.

    Canonicalises the seed, then the ell-neighbours (ell = 3, or 5 when
    p = 3) of each new class in turn, depth first, until the classes found
    reach the closed-form mass (p-1)/48, which certifies completeness.  The
    closure keeps a stack of neighbour iterators, so a neighbour is built
    only when it is reduced.  Each form drawn is Minkowski-reduced first,
    and searched (`reduction._search`) only when no form searched before
    has its sign key (`_sign_key`): a form with a key already seen is a sign
    change of a searched one, so its class is seen, and the first form to
    reach each class is still the one searched.  A closure that runs out of
    neighbours short of the mass raises IncompletenessError.  Every form of
    discriminant p^2 is primitive, as disc(kQ) = k^3 disc(Q).  The closure
    is charged 1000 (ell + 1)(p - 1) units before the seed: |Aut| <= 48
    bounds the class number by p - 1, and one neighbour reduction costs
    about as much time as 1300 theta units.
    """
    mass = mass_closed_form(p)
    ell = 5 if p == 3 else 3
    charge(1000 * (ell + 1) * (p - 1), "the %d-neighbour closure of TG1(%d)", ell, p)
    seen: dict[TernaryForm, list[Mat3]] = {}
    searched: set[tuple[int, ...]] = set()
    found = Fraction(0)
    stack = [iter([_seed(p)])]
    while stack and found < mass:
        for form in stack[-1]:
            pre, u = _minkowski(form)
            key = _sign_key(pre)
            if key in searched:
                continue
            searched.add(key)
            canon, bases = _search(pre, u)
            if canon not in seen:
                seen[canon] = bases  # |Aut(form)| = |Aut(canon)| = len(bases)
                found += Fraction(1, len(bases))
                stack.append(_neighbours(canon, ell))
                break
        else:
            stack.pop()
    if found != mass:
        raise IncompletenessError(
            f"{_BASE}({p}) mass {found} != {mass}; the {ell}-neighbour closure fell short of the mass"
        )
    order = sorted(seen)
    classes = tuple((canon, len(seen[canon])) for canon in order)
    return GenusSet(_BASE, p, classes, witnesses=tuple(map(seen.get, order)))


def _checked_classes(label: str, p: int, classes: Sequence[tuple[TernaryForm, int | None]]) -> GenusSet:
    """label's genus at p, checked from TG1(p)'s (form, |Aut| or None) pairs.

    Every form must be positive definite of discriminant p^2, so primitive
    (disc(kQ) = k^3 disc(Q)).  With no map in GENERA (TG1) each form must be
    its own canonical form; else one canonical reduction of the form's image
    under the map (Phi's sublattice form for TG2) gives its class and
    |Aut|.  Forms of one class (equal images, as Phi is a bijection on
    classes) are refused, and the mass must be the closed-form (p-1)/48.
    These checks are complete: distinct classes of discriminant p^2 whose
    masses sum to the mass of all of TG1 are all of TG1, and their images
    are all of TG2.  Each refusal names `_key(_BASE, p)`, the forms' genus;
    last, a given |Aut| (TG1's order) must equal its image's, as Phi keeps it.
    The genus records, as its `sources`, the form each class was read from,
    and as its `witnesses`, the bases of that class's search.
    """
    key, sublattice = _key(_BASE, p), GENERA[label]
    images: dict[TernaryForm, list[Mat3]] = {}
    form_of: dict[TernaryForm, TernaryForm] = {}
    for form, _ in classes:
        if not is_positive_definite(form) or discriminant(form) != p * p:
            raise FormError(f"{key} holds {form}, not positive definite of discriminant {p * p}")
        canon, bases = _canonical_bases(form if sublattice is None else sublattice(form))
        if sublattice is None and canon != form:
            raise FormError(f"{key} holds {form}, not its canonical form {canon}")
        if canon in images:
            first = form_of[canon]
            twice = f"{form} twice" if first == form else f"{first} and {form}, of one class"
            raise FormError(f"{key} holds {twice}")
        images[canon], form_of[canon] = bases, form
    order = sorted(images)
    genus = GenusSet(
        label,
        p,
        tuple((canon, len(images[canon])) for canon in order),
        tuple(map(form_of.get, order)),
        tuple(map(images.get, order)),
    )
    mass, closed = genus.mass, mass_closed_form(p)
    if mass != closed:
        raise FormError(f"{key} has mass {mass}, not {closed}")
    for (form, aut), (image, bases) in zip(classes, images.items()):
        if aut is not None and aut != len(bases):
            raise FormError(f"automorph order changed under Phi: {form} has {aut}, image {image} has {len(bases)}")
    return genus


def build_tg2(tg1: GenusSet) -> GenusSet:
    """Image genus under Phi, each class's |Aut| checked to carry over (`_checked_classes`)."""
    return _checked_classes(_PHI_IMAGE, tg1.prime, tg1.classes)


# -- JSON cache -----------------------------------------------------------

class GenusCache:
    """Persists the classes of TG1 to a JSON file, or keeps them in memory
    only when the path is None (an empty path is refused).  The constructor
    reads the file once, as UTF-8 text; a missing file is an empty cache,
    even under a path that does not lead through directories (then `put`
    refuses to write it).
    `put` writes a temporary file beside it, created exclusively (so 0666
    less the umask), gives it an existing file's mode and renames it over
    the file.

    The file maps `_key(_BASE, p)` to the coefficient rows of the classes; other
    entries are not read, and a file with any entry that is not a list is
    refused when it is opened, so `put` never writes rows beside an entry of
    another layout.  `put` of TG1 also stores its rows.  `get` reads a genus
    of GENERA (any other label is refused) from the rows once per instance,
    or None before they exist, checked by `_checked_classes`, never from a
    TG1 in memory, though TG1's orders, once held, must carry over; `read`
    fills a miss.  The instance keeps every genus it has checked or been given.
    """

    def __init__(self, path: str | None = None):
        if path == "":
            raise FormError("the genus cache path is empty; name a file")
        self.path = path
        self._rows: dict[str, list] = {}
        self._genera: dict[str, GenusSet] = {}
        if self.path is not None:
            try:
                with open(self.path, encoding="utf-8") as fh:
                    self._rows = json.load(fh)
            except (FileNotFoundError, NotADirectoryError):  # no file there
                pass
            except (OSError, ValueError) as exc:
                raise FormError(f"cannot read genus cache {self.path}: {exc}") from None
            if not isinstance(self._rows, dict):
                raise FormError(f"genus cache {self.path} is not a JSON object")
            for key, rows in self._rows.items():
                if not isinstance(rows, list):
                    raise FormError(f"genus cache {self.path}: entry {key} is not a list of rows; cache corrupt")

    def get(self, label: str, p: int) -> GenusSet | None:
        key, rows_key = _key(label, p), _key(_BASE, p)
        rows = self._rows.get(rows_key)
        if key not in self._genera and rows is not None:
            orders = dict(self._genera[rows_key].classes) if rows_key in self._genera else {}
            try:
                if not all(isinstance(r, list) and len(r) == 6 and all(type(v) is int for v in r) for r in rows):
                    raise FormError(f"{rows_key} is not a list of six-integer rows")
                forms = [TernaryForm(*row) for row in rows]
                self._genera[key] = _checked_classes(label, p, [(form, orders.get(form)) for form in forms])
            except FormError as exc:
                where = f"genus cache {self.path}: " if self.path is not None else ""
                raise FormError(f"{where}genus cache entry {exc}; cache corrupt") from None
        return self._genera.get(key)

    def put(self, genus: GenusSet) -> None:
        """Keep genus; a TG1 genus is also stored as rows, and written to the file."""
        key = _key(genus.label, genus.prime)
        self._genera[key] = genus
        if GENERA[genus.label] is not None:
            return
        self._rows[key] = [list(form.coeffs) for form, _ in genus.classes]
        if self.path is not None:
            # A name of fixed length, so a long cache file name still fits.
            tmp = os.path.join(os.path.dirname(os.path.abspath(self.path)), f"tmp{os.urandom(6).hex()}.tmp")
            # ours holds the temporary file from the statement that creates
            # it to the one that renames it, so that an interrupt at any line
            # removes the file if, and only if, this call made it.
            ours = None
            try:
                with (ours := open(tmp, "xb")):
                    ours.write(json.dumps(self._rows, separators=(",", ":")).encode())
                with contextlib.suppress(FileNotFoundError):  # a new file keeps open()'s mode, 0666 less the umask
                    os.chmod(tmp, stat.S_IMODE(os.stat(self.path).st_mode))
                ours = os.replace(tmp, self.path)  # None
            except OSError as exc:
                raise FormError(f"cannot write genus cache {self.path}: {exc.strerror}") from None
            finally:
                if ours is not None:
                    os.unlink(tmp)

    def read(self, label: str, p: int) -> GenusSet:
        """label's genus at p, read from the rows of TG1(p), enumerated on a miss."""
        genus = self.get(label, p)
        if genus is None:
            self.put(enumerate_tg1(p))
            genus = self.get(label, p)
        return genus

    def tg1(self, p: int) -> GenusSet:
        return self.read(_BASE, p)

    def tg2(self, p: int) -> GenusSet:
        return self.read(_PHI_IMAGE, p)
