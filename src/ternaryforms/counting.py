"""Exact representation counts by lattice point enumeration.

The enumeration nests exact integer quadratic bounds obtained by projecting
the form: with A2 = 4ab - f^2 and discriminant D, every point with value
<= B satisfies z^2 <= A2*B/D, then y lies in an integer-root interval, then
x.  Interval endpoints from isqrt are widened by one and candidates filtered
by exact evaluation, so no point is ever missed.  A single value n needs no
x loop: in each (y, z) row the points of value n are the integer roots of
a quadratic in x, found by one isqrt and a perfect-square test, so
`rep_count` and `vectors_with_value` cost O(n) rows instead of the
O(n^(3/2)) points up to n.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt
from typing import Iterator

from .forms import FormError, TernaryForm, discriminant, is_positive_definite

THREE_SQUARES = TernaryForm(1, 1, 1, 0, 0, 0)


@dataclass(frozen=True)
class ThetaVector:
    form: TernaryForm
    bound: int
    counts: tuple[int, ...]


def _ceil_div(p: int, q: int) -> int:
    return -((-p) // q)


def _rows(form: TernaryForm, bound: int) -> Iterator[tuple[int, int, int, int]]:
    """Yield (y, z, lin, dx) for the (y, z) rows of the half region.

    In a row form(x, y, z) = a*x^2 + lin*x + c0, and dx = lin^2 - 4a(c0 - bound)
    >= 0 is its x-discriminant at the value bound: (2ax + lin)^2 <= dx exactly
    when form(x, y, z) <= bound.  Rows with z = 0 have y >= 0.
    """
    if not is_positive_definite(form):
        raise FormError("enumeration requires a positive definite form")
    if bound < 0:
        return
    a, b, c, d, e, f = form.coeffs
    disc = discriminant(form)
    a2 = 4 * a * b - f * f
    p = 2 * a * d - e * f
    zmax = isqrt(a2 * bound // disc)
    for z in range(0, zmax + 1):
        dy = 4 * a * bound * a2 - 4 * a * disc * z * z
        if dy < 0:
            continue
        sy = isqrt(dy)
        ylo = _ceil_div(-p * z - sy - 1, a2)
        yhi = (-p * z + sy + 1) // a2
        if z == 0:
            ylo = max(ylo, 0)
        for y in range(ylo, yhi + 1):
            lin = f * y + e * z
            dx = lin * lin - 4 * a * (b * y * y + c * z * z + d * y * z - bound)
            if dx >= 0:
                yield y, z, lin, dx


def half_points_up_to(form: TernaryForm, bound: int) -> Iterator[tuple[int, int, int, int]]:
    """Yield (x, y, z, value) for nonzero points with value <= bound.

    One representative per +-pair: the last nonzero coordinate is positive.
    """
    a = form.a
    two_a, four_a = 2 * a, 4 * a
    for y, z, lin, dx in _rows(form, bound):
        sx = isqrt(dx)
        xlo = _ceil_div(-lin - sx - 1, two_a)
        xhi = (-lin + sx + 1) // two_a
        if z == 0 and y == 0:
            xlo = max(xlo, 1)
        c0 = bound + (lin * lin - dx) // four_a  # form(0, y, z), exactly
        for x in range(xlo, xhi + 1):
            v = (a * x + lin) * x + c0
            if v <= bound:
                yield (x, y, z, v)


def _half_solutions(form: TernaryForm, n: int) -> Iterator[tuple[int, int, int]]:
    """Yield (x, y, z) with form(x, y, z) == n >= 1, one per +-pair: the integer
    roots x of each row's quadratic, found by one isqrt and a square test."""
    two_a = 2 * form.a
    for y, z, lin, dx in _rows(form, n):
        r = isqrt(dx)
        if r * r != dx:
            continue
        for num in (-lin - r, -lin + r) if r else (-lin,):
            if num % two_a == 0 and (z or y or num > 0):
                yield num // two_a, y, z


def vectors_with_value(form: TernaryForm, n: int) -> list[tuple[int, int, int]]:
    """All integer triples v with form(v) == n, both signs, sorted."""
    if n < 0:
        return []
    if n == 0:
        return [(0, 0, 0)]
    out = []
    for x, y, z in _half_solutions(form, n):
        out.append((x, y, z))
        out.append((-x, -y, -z))
    out.sort()
    return out


def theta(form: TernaryForm, bound: int) -> ThetaVector:
    """counts[n] = number of representations of n, for 0 <= n <= bound."""
    if bound < 0:
        raise FormError("theta bound must be nonnegative")
    counts = [0] * (bound + 1)
    counts[0] = 1
    for _, _, _, v in half_points_up_to(form, bound):
        counts[v] += 2
    return ThetaVector(form, bound, tuple(counts))


def rep_count(form: TernaryForm, n: int) -> int:
    if n < 0:
        return 0
    if n == 0:
        return 1
    return 2 * sum(1 for _ in _half_solutions(form, n))


# -- sum of three squares -------------------------------------------------

def two_squares_sieve(limit: int) -> list[int]:
    """r2[k] = #{(u,v) in Z^2 : u^2 + v^2 == k} for 0 <= k <= limit.

    Each unordered pair 0 <= a <= b of square roots is visited once; it stands
    for 8 signed ordered pairs when 0 < a < b and for 4 when a = 0 < b or
    0 < a = b.
    """
    r2 = [0] * (limit + 1)
    r2[0] = 1
    squares = [k * k for k in range(isqrt(limit) + 1)]
    for i, aa in enumerate(squares[1:], 1):
        r2[aa] += 4
        if 2 * aa <= limit:
            r2[2 * aa] += 4
        for bb in squares[i + 1 : isqrt(limit - aa) + 1]:
            r2[aa + bb] += 8
    return r2


def s_batch(values: list[int]) -> dict[int, int]:
    """s(n) for every n in values, sharing one two-squares sieve."""
    if not values:
        return {}
    if min(values) < 0:
        raise FormError("s(n) requires n >= 0")
    r2 = two_squares_sieve(max(values))
    out = {}
    for n in values:
        total = r2[n]
        x = 1
        while x * x <= n:
            total += 2 * r2[n - x * x]
            x += 1
        out[n] = total
    return out


def s(n: int) -> int:
    """Number of representations of n as a sum of three integer squares.

    Counted row by row in constant memory; s_batch sieves for many values.
    """
    if n < 0:
        raise FormError("s(n) requires n >= 0")
    return rep_count(THREE_SQUARES, n)
