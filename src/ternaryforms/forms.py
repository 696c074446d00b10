"""Integer ternary quadratic forms a*x^2 + b*y^2 + c*z^2 + d*yz + e*zx + f*xy.

The sextuple <a,b,c,d,e,f> is the central object; its Gram matrix is
[[2a, f, e], [f, 2b, d], [e, d, 2c]] and the discriminant is half the Gram
determinant.  All arithmetic is exact.  Minkowski reduction (`_minkowski`)
lives here, below `counting`, `isometry` and `reduction`, which all use it.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .matrices import IDENTITY, Mat3, det3, from_columns, mat_mul, shear, transpose


class FormError(ValueError):
    """Raised when an operation's precondition on a form is violated."""


@dataclass(frozen=True, order=True)
class TernaryForm:
    a: int
    b: int
    c: int
    d: int
    e: int
    f: int

    @property
    def coeffs(self) -> tuple[int, int, int, int, int, int]:
        return (self.a, self.b, self.c, self.d, self.e, self.f)

    def gram(self) -> Mat3:
        a, b, c, d, e, f = self.coeffs
        return ((2 * a, f, e), (f, 2 * b, d), (e, d, 2 * c))

    def __call__(self, x: int, y: int, z: int) -> int:
        a, b, c, d, e, f = self.coeffs
        return a * x * x + b * y * y + c * z * z + d * y * z + e * z * x + f * x * y

    def __str__(self) -> str:
        return ",".join(str(v) for v in self.coeffs)

    @classmethod
    def from_gram(cls, g: Mat3) -> "TernaryForm":
        if any(g[i][i] % 2 for i in range(3)):
            raise FormError("Gram matrix must have even diagonal")
        if any(g[i][j] != g[j][i] for i in range(3) for j in range(3)):
            raise FormError("Gram matrix must be symmetric")
        return cls(
            g[0][0] // 2, g[1][1] // 2, g[2][2] // 2, g[1][2], g[0][2], g[0][1]
        )

    @classmethod
    def parse(cls, text: str) -> "TernaryForm":
        parts = text.split(",")
        if len(parts) != 6:
            raise FormError(f"expected 6 comma-separated coefficients, got {len(parts)}")
        vals = []
        names = "abcdef"
        for name, part in zip(names, parts):
            try:
                vals.append(int(part.strip()))
            except ValueError:
                raise FormError(f"coefficient {name} is not an integer: {part!r}") from None
        return cls(*vals)


def discriminant(form: TernaryForm) -> int:
    a, b, c, d, e, f = form.coeffs
    return 4 * a * b * c + d * e * f - a * d * d - b * e * e - c * f * f


def is_positive_definite(form: TernaryForm) -> bool:
    """Leading principal minors of the Gram matrix all positive."""
    a, b, c, d, e, f = form.coeffs
    if a <= 0:
        return False
    if 4 * a * b - f * f <= 0:
        return False
    return discriminant(form) > 0


def is_primitive(form: TernaryForm) -> bool:
    return content(form) == 1


def content(form: TernaryForm) -> int:
    return gcd(*form.coeffs)


def apply_map(form: TernaryForm, u: Mat3) -> TernaryForm:
    """Form with Gram U' G U.  U must be unimodular."""
    if det3(u) not in (1, -1):
        raise FormError(f"matrix is not unimodular (det {det3(u)})")
    return apply_basis(form, u)


def apply_basis(form: TernaryForm, u: Mat3) -> TernaryForm:
    """Form with Gram U' G U for an arbitrary integer matrix U."""
    g = mat_mul(transpose(u), mat_mul(form.gram(), u))
    return TernaryForm.from_gram(g)


def _greedy(form: TernaryForm) -> tuple[TernaryForm, Mat3]:
    """Shear while the Gram diagonal strictly drops, then sort it; with witness."""
    u = IDENTITY
    cur = form
    while True:
        g = cur.gram()
        improved = False
        for i in range(3):
            for j in range(3):
                if i == j:
                    continue
                gij, gjj = g[i][j], g[j][j]
                # t minimizing g_ii + 2*t*g_ij + t^2*g_jj (nearest integer).
                t = -((2 * gij + gjj) // (2 * gjj))
                if t == 0:
                    continue
                delta = 2 * t * gij + t * t * gjj
                if delta < 0:
                    m = shear(i, j, t)
                    cur = apply_map(cur, m)
                    u = mat_mul(u, m)
                    improved = True
                    g = cur.gram()
        if not improved:
            break
    # Sort the diagonal.
    g = cur.gram()
    order = sorted(range(3), key=lambda k: g[k][k])
    if order != [0, 1, 2]:
        perm = from_columns(*(tuple(1 if r == order[c] else 0 for r in range(3)) for c in range(3)))
        cur = apply_map(cur, perm)
        u = mat_mul(u, perm)
    return cur, u


def _minkowski(form: TernaryForm) -> tuple[TernaryForm, Mat3]:
    """A Minkowski-reduced form equivalent to form, with witness."""
    cur, u = _greedy(form)
    while True:
        a, b, _, d, e, f = cur.coeffs
        for s1, s2 in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
            if a + b + s1 * s2 * f + s1 * e + s2 * d < 0:
                m = ((1, 0, s1), (0, 1, s2), (0, 0, 1))  # e_3 -> e_3 + s1*e_1 + s2*e_2
                cur, u2 = _greedy(apply_map(cur, m))
                u = mat_mul(u, mat_mul(m, u2))
                break
        else:
            return cur, u
