"""Integer ternary quadratic forms a*x^2 + b*y^2 + c*z^2 + d*yz + e*zx + f*xy.

The sextuple <a,b,c,d,e,f> is the central object; its Gram matrix is
[[2a, f, e], [f, 2b, d], [e, d, 2c]] and the discriminant is half the Gram
determinant.  All arithmetic is exact.  A change of basis (`apply_basis`)
computes the six coefficients of U'GU from the form's six coefficients and
the columns of U, with no matrix built.  Minkowski reduction (`_minkowski`)
lives here, below `counting` and `reduction`, which use it; a form that
already passes its stopping tests returns at once with the identity
witness, and any other is sheared as a mutable Gram matrix and basis in
place, one integer row and column per shear, and built as a form only at
the end.  It is the one definiteness gate (`_require_definite`) of every
class-level enumeration and reduction.  Every module imports this one, so
the work limit is here: each step that can grow calls `charge` before it
starts.
"""

from __future__ import annotations

from contextvars import ContextVar
from math import gcd

from .matrices import Mat3, det3


class FormError(ValueError):
    """Raised when an operation's precondition on a form is violated."""


class ResourceLimitError(RuntimeError):
    """A step would cost more units of work than the work limit allows."""


WORK_LIMIT: ContextVar[int] = ContextVar("WORK_LIMIT", default=10**9)  # units any one step may do


def charge(units: int, what: str, *args) -> None:
    """Refuse the step `what % args` (formatted only then) when it would cost more than WORK_LIMIT units."""
    if units > WORK_LIMIT.get():
        raise ResourceLimitError(f"{what % args} costs {units} units, above the work limit {WORK_LIMIT.get()}")


def _read_only(self, name: str, *value) -> None:
    """`__setattr__` and `__delattr__` of the read-only classes: both refuse every name."""
    raise AttributeError(f"cannot assign to or delete {name!r}: {self.__class__.__name__} is read-only")


class TernaryForm:
    """The form <a,b,c,d,e,f>, immutable.

    Its one slot, `coeffs`, holds the six coefficients as a tuple, set once
    by the constructor through the slot's own setter; `a` ... `f` are
    read-only views of it, and hot paths read `coeffs`.  Forms compare,
    order and hash as their coefficient tuples, but a form equals no tuple
    (nor anything but a form).  The repr names the six fields,
    `TernaryForm(a=1, b=1, c=1, d=0, e=0, f=0)`, and a form pickles and
    copies as its coefficients.
    """

    __slots__ = ("coeffs",)
    __match_args__ = ("a", "b", "c", "d", "e", "f")
    coeffs: tuple[int, int, int, int, int, int]

    def __init__(self, a: int, b: int, c: int, d: int, e: int, f: int):
        _set_coeffs(self, (a, b, c, d, e, f))

    a = property(lambda self: self.coeffs[0])
    b = property(lambda self: self.coeffs[1])
    c = property(lambda self: self.coeffs[2])
    d = property(lambda self: self.coeffs[3])
    e = property(lambda self: self.coeffs[4])
    f = property(lambda self: self.coeffs[5])

    __setattr__ = __delattr__ = _read_only

    def __repr__(self) -> str:
        a, b, c, d, e, f = self.coeffs
        return f"{self.__class__.__qualname__}(a={a!r}, b={b!r}, c={c!r}, d={d!r}, e={e!r}, f={f!r})"

    def __reduce__(self):
        return TernaryForm, self.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.coeffs == other.coeffs
        return NotImplemented

    def __lt__(self, other):
        if other.__class__ is self.__class__:
            return self.coeffs < other.coeffs
        return NotImplemented

    def __le__(self, other):
        if other.__class__ is self.__class__:
            return self.coeffs <= other.coeffs
        return NotImplemented

    def __gt__(self, other):
        if other.__class__ is self.__class__:
            return self.coeffs > other.coeffs
        return NotImplemented

    def __ge__(self, other):
        if other.__class__ is self.__class__:
            return self.coeffs >= other.coeffs
        return NotImplemented

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


_set_coeffs = TernaryForm.coeffs.__set__  # the slot's own setter: __setattr__ refuses every name


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


def apply_basis(form: TernaryForm, u: Mat3, den: int = 1) -> TernaryForm:
    """Form with Gram U' G U / den for an arbitrary integer matrix U.

    The six coefficients are the dot products of the columns u_i of U with
    the columns G u_j, with no matrix built.  Raises FormError when that Gram
    matrix is not integral with even diagonal.
    """
    a, b, c, d, e, f = form.coeffs
    a, b, c = 2 * a, 2 * b, 2 * c  # the Gram diagonal
    (x1, x2, x3), (y1, y2, y3), (z1, z2, z3) = u  # column j of U is (xj, yj, zj)
    # G times column j of U is (pj, qj, rj).
    p1, q1, r1 = a * x1 + f * y1 + e * z1, f * x1 + b * y1 + d * z1, e * x1 + d * y1 + c * z1
    p2, q2, r2 = a * x2 + f * y2 + e * z2, f * x2 + b * y2 + d * z2, e * x2 + d * y2 + c * z2
    p3, q3, r3 = a * x3 + f * y3 + e * z3, f * x3 + b * y3 + d * z3, e * x3 + d * y3 + c * z3
    a, b, c = x1 * p1 + y1 * q1 + z1 * r1, x2 * p2 + y2 * q2 + z2 * r2, x3 * p3 + y3 * q3 + z3 * r3
    d, e, f = x2 * p3 + y2 * q3 + z2 * r3, x1 * p3 + y1 * q3 + z1 * r3, x1 * p2 + y1 * q2 + z1 * r2
    if den != 1:
        if a % den or b % den or c % den or d % den or e % den or f % den:
            raise FormError(f"the Gram matrix of {form} in basis {u}, divided by {den}, is not integral")
        a, b, c, d, e, f = a // den, b // den, c // den, d // den, e // den, f // den
        # u_j' G u_j = 2 Q(u_j) is even; only the division can make it odd.
        if a % 2 or b % 2 or c % 2:
            raise FormError("Gram matrix must have even diagonal")
    return TernaryForm(a // 2, b // 2, c // 2, d, e, f)


def _shear(g: list[list[int]], u: list[list[int]], i: int, j: int, t: int) -> None:
    """e_i -> e_i + t*e_j, in place on the Gram matrix g and the basis columns of u.

    Row i of g gains t times row j, its diagonal entry becomes
    g_ii + 2t g_ij + t^2 g_jj, and column i is set to the new row i.
    """
    gi, gj = g[i], g[j]
    gii = gi[i] + t * (2 * gi[j] + t * gj[j])
    gi[0] += t * gj[0]
    gi[1] += t * gj[1]
    gi[2] += t * gj[2]
    gi[i] = gii
    g0, g1, g2 = g
    g0[i], g1[i], g2[i] = gi
    u0, u1, u2 = u
    u0[i] += t * u0[j]
    u1[i] += t * u1[j]
    u2[i] += t * u2[j]


def _greedy(g: list[list[int]], u: list[list[int]]) -> None:
    """Shear while the Gram diagonal strictly drops, then sort it; in place."""
    improved = True
    while improved:
        improved = False
        for i, j in ((0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)):
            gij, gjj = g[i][j], g[j][j]
            # t minimizing g_ii + 2*t*g_ij + t^2*g_jj (nearest integer).
            t = -((2 * gij + gjj) // (2 * gjj))
            if t and 2 * t * gij + t * t * gjj < 0:
                _shear(g, u, i, j, t)
                improved = True
    if not g[0][0] <= g[1][1] <= g[2][2]:
        order = sorted(range(3), key=lambda k: g[k][k])
        g[:] = [[g[r][c] for c in order] for r in order]
        u[:] = [[row[c] for c in order] for row in u]


def _require_definite(form: TernaryForm) -> None:
    """Refuse a form that is not positive definite: its enumerations are infinite."""
    if not is_positive_definite(form):
        raise FormError(f"{form} is not positive definite; enumeration requires a positive definite form")


def _minkowski(form: TernaryForm) -> tuple[TernaryForm, Mat3]:
    """A Minkowski-reduced form equivalent to form, with witness; refuses an indefinite form."""
    _require_definite(form)
    a, b, c, d, e, f = form.coeffs
    # The loop's stopping tests: the greedy step shears nothing and keeps the
    # order, and no e_3 -> e_3 + s1*e_1 + s2*e_2 lowers c.
    if (
        a <= b <= c
        and -a <= f <= a
        and -a <= e <= a
        and -b <= d <= b
        and a + b >= -f - e - d
        and a + b >= f - e + d
        and a + b >= f + e - d
        and a + b >= -f + e + d
    ):
        return form, ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    g = [list(row) for row in form.gram()]
    u = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    _greedy(g, u)
    while True:
        # a + b + s1*s2*f + s1*e + s2*d, doubled.
        for s1, s2 in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
            if g[0][0] + g[1][1] + 2 * (s1 * s2 * g[0][1] + s1 * g[0][2] + s2 * g[1][2]) < 0:
                _shear(g, u, 2, 0, s1)  # e_3 -> e_3 + s1*e_1 + s2*e_2
                _shear(g, u, 2, 1, s2)
                _greedy(g, u)
                break
        else:
            # The shears keep g symmetric with an even diagonal.
            reduced = TernaryForm(g[0][0] // 2, g[1][1] // 2, g[2][2] // 2, g[1][2], g[0][2], g[0][1])
            return reduced, tuple(map(tuple, u))
