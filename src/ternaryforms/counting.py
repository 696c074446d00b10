"""Exact representation counts by lattice point enumeration.

The enumeration nests exact integer quadratic bounds obtained by projecting
the form: with A2 = 4ab - f^2 and discriminant D, every point with value
<= B satisfies z^2 <= A2*B/D, then y lies in an integer-root interval
(endpoints from isqrt widened by one), and the rows that reach B are kept
by their exact x-discriminant dx.  `_layers` computes this geometry once
per layer z: the y range, with the widened ends dropped where dx < 0, and
dx and its first difference at the first row.  Along a layer dx is a
quadratic in y with second difference -2*A2, so each walker runs its own
loop over y and moves to the next row with two additions.  In a row,
form(x, y, z) <= B exactly when |2ax + lin| <= isqrt(dx), so `theta`
counts each row over that exact interval in one tight loop, with no
per-point test; `half_points_up_to` yields the same points one by one from
rows evaluated directly from the form and stays as its oracle.

`theta` also shares whole layers.  With Q2 = ax^2 + fxy + by^2 and
mu = (2be - fd, 2ad - fe) / A2, the form is Q2(w + z*mu) + (D/A2)*z^2 for
w = (x, y).  z*mu is integral exactly when m | z, m = A2 / gcd(A2, 2be - fd,
2ad - fe), and Q2(w) = Q2(-w); so when z = +-z0 (mod m), layer z holds the
values of layer z0 shifted by (z^2 - z0^2)*D/A2, an integer.  The layers
0 <= z <= zmax are grouped by z mod m up to sign; a group is enumerated
once, at its least z, when that costs less than enumerating the other
members (`_layer_plan`).  Its histogram is packed once into an integer of
64-bit lanes, and each member adds it at its shift by one big-integer shift
and addition; the sum is cut to the lanes 0..bound and unpacked once.
Layer 0 is its half region (y > 0, or y = 0 < x) twice plus the origin, and
a layer z > 0 counts twice, for +-z.  For x^2+xy+y^2+3z^2 (m = 1) up to
1000 that is the 1,821 points of the half of layer 0 and 18 shifts, instead
of 44,289 points.

A single value n needs no x loop: in each (y, z) row the points of value n
are the integer roots of a quadratic in x, found by one isqrt and a
perfect-square test on dx, so `rep_count` and `vectors_with_value` cost
O(n) rows instead of the O(n^(3/2)) points up to n, each row a square test
and two additions in `_half_solutions`' loop over a layer, which yields the
roots of a square row itself, with no generator per row.  Several values
share one scan of the rows up to the largest (`_vectors_with_values`,
which canonical reduction reads); a lower value is tested only in the rows
whose dx reaches it.  `theta` and `rep_count` count class invariants, so
they enumerate the Minkowski-reduced form (`forms._minkowski`), whose short
diagonal keeps the row ranges tight however skewed the input basis is;
`vectors_with_value` answers in the input coordinates and enumerates the
input basis.  `_layers` does not test definiteness: each entry point does,
once, before any shortcut for n <= 0.  `s_batch` reads the sum of three
squares on whole progressions from one two-squares table per process, grown
in place, and adds the table's strided slices as whole integers whose
16-bit lanes are the entries, a few C calls per slice rather than one
addition per entry; an entry is at most 1020, so at least 64 slices share
the 16-bit lanes before they are widened.  The table is sieved from
Jacobi's r2(k) = 4 sum_{d | k} chi(d), one strided byte-map update per
divisor d over all its multiples in a block, in 8-bit lanes that are exact
below `_LANE_BOUND` (larger tables are refused) and blocks of `_BLOCK`
lanes, and its even entries are copied from r2(2m) = r2(m), so the memory
beside the table does not grow with it.  Each charges its size to the work
limit (`forms.charge`) before it starts: the rows, theta's
points and counts, and s_batch's table entries and slice reads at 2 units
each, their bytes, so the limit also bounds the table's memory.  theta
charges the points of every layer, shared or not, so its refusals do not
depend on the groups, and refuses as many points as its 64-bit lanes could
not hold (`_THETA_POINTS`).
"""

from __future__ import annotations

import sys
import threading
from array import array
from math import gcd, isqrt
from operator import add
from typing import Iterator

from .forms import FormError, ResourceLimitError, TernaryForm, _minkowski, _require_definite, charge, discriminant

THREE_SQUARES = TernaryForm(1, 1, 1, 0, 0, 0)


def _ceil_div(p: int, q: int) -> int:
    return -((-p) // q)


def _row_bound(a: int, a2: int, disc: int, bound: int) -> int:
    """An upper bound on the rows `_layers` spans: zmax + 1 values of z, each
    with at most (2*sy + 2) // a2 + 1 values of y, where sy <= isqrt(4*a*bound*a2)."""
    return (isqrt(a2 * bound // disc) + 1) * ((2 * isqrt(4 * a * bound * a2) + 2) // a2 + 1)


def _layers(form: TernaryForm, bound: int, layers=None) -> Iterator[tuple[int, int, int, int, int]]:
    """Yield (z, ylo, yhi, dx, delta) for the layers z in `layers` (default
    every layer, 0 <= z <= zmax) of the half region up to the value bound.

    The layer's rows are ylo <= y <= yhi, with y >= 0 when z = 0.  In a row
    form(x, y, z) = a*x^2 + lin*x + c0 with lin = f*y + e*z, and
    dx = lin^2 - 4a(c0 - bound) is its x-discriminant: (2ax + lin)^2 <= dx
    exactly when form(x, y, z) <= bound.  Along the layer
    dx = -a2*y^2 + beta*y + gamma with beta = -2(2ad - ef)z and
    gamma = (e^2 - 4ac)z^2 + 4a*bound, so a walker starts from dx at ylo and
    delta = dx(ylo + 1) - dx(ylo), adds delta to dx and -2*a2 to delta per
    row, two additions.  The y bounds are isqrt roots widened by one, which
    admit at most one row with dx < 0 at each end; those rows are dropped
    here, so every row from ylo to yhi has dx >= 0.

    The rows are charged (`_row_bound`) before the first layer.  Callers
    check that the form is positive definite, and that each layer given is
    at most zmax = isqrt(a2*bound // disc).
    """
    if bound < 0:
        return
    a, b, c, d, e, f = form.coeffs
    disc = discriminant(form)
    a2 = 4 * a * b - f * f
    charge(_row_bound(a, a2, disc, bound), "enumerating the rows up to %d", bound)
    p, g, t = 2 * a * d - e * f, e * e - 4 * a * c, 4 * a * bound
    s, q = a2 * t, 4 * a * disc
    for z in range(isqrt(a2 * bound // disc) + 1) if layers is None else layers:
        # z <= zmax gives disc * z^2 <= a2 * bound, so the root's argument is >= 0.
        pz, zz = p * z, z * z
        sy = isqrt(s - q * zz)
        beta, gamma = -2 * pz, g * zz + t
        ylo = -((pz + sy + 1) // a2) if z else 0
        yhi = (sy + 1 - pz) // a2
        dx = (beta - a2 * ylo) * ylo + gamma
        delta = beta - a2 * (2 * ylo + 1)
        if dx < 0:
            ylo, dx, delta = ylo + 1, dx + delta, delta - 2 * a2
        if (beta - a2 * yhi) * yhi + gamma < 0:
            yhi -= 1
        yield z, ylo, yhi, dx, delta


def half_points_up_to(form: TernaryForm, bound: int) -> Iterator[tuple[int, int, int, int]]:
    """Yield (x, y, z, value) for nonzero points with value <= bound.

    One representative per +-pair: the last nonzero coordinate is positive.
    The rows are those of `_layers`, each evaluated from the form rather
    than by differences.  Each row's x range is widened by one and filtered
    by exact evaluation; `theta` and `_half_solutions` walk the same rows
    by differences, and this point by point enumeration is their oracle.
    """
    _require_definite(form)
    a, b, c, d, e, f = form.coeffs
    two_a = 2 * a
    for z, ylo, yhi, _, _ in _layers(form, bound):
        for y in range(ylo, yhi + 1):
            lin = f * y + e * z
            c0 = b * y * y + c * z * z + d * y * z  # form(0, y, z)
            sx = isqrt(lin * lin - 4 * a * (c0 - bound))
            xlo = _ceil_div(-lin - sx - 1, two_a)
            xhi = (-lin + sx + 1) // two_a
            if z == 0 and y == 0:
                xlo = max(xlo, 1)
            for x in range(xlo, xhi + 1):
                v = (a * x + lin) * x + c0
                if v <= bound:
                    yield (x, y, z, v)


def _half_solutions(form: TernaryForm, values: tuple[int, ...]) -> Iterator[tuple[int, int, int, int]]:
    """Yield (v, x, y, z) with form(x, y, z) == v for each v in `values`, one
    per +-pair.  `values` holds distinct integers >= 1 in decreasing order.

    One scan of the rows up to the first (largest) value, top: each layer
    of `_layers` is walked in one loop over y that carries the row's
    x-discriminant dx at top by its differences, two additions per row.
    The points of value v in a row are the integer roots of its quadratic,
    whose discriminant is dx - 4a(top - v): one isqrt and a square test.
    top has its own test in every row.  The lower values are tested only in
    rows whose dx reaches the largest of them, dx >= 4a(top - v); the
    discriminant falls with v, so a row stops at the first value it cannot
    reach.  A square discriminant r^2 gives the roots x = (-lin +- r) / 2a,
    lin = fy + ez, each yielded here when it is an integer, one per +-pair
    (the half region: z > 0, or z = 0 < y, or z = y = 0 < x).  The rows are
    charged once, before the first (`_layers`).
    """
    top = values[0]
    a, b, _, _, e, f = form.coeffs
    two_a, dd = 2 * a, 2 * (4 * a * b - f * f)  # dx's second difference along y is -dd
    lower = [(v, 4 * a * (top - v)) for v in values[1:]]
    # dx <= 4a*top in every row, so with one value no row reaches `lower`.
    reach = lower[0][1] if lower else 4 * a * top + 1
    for z, ylo, yhi, dx, delta in _layers(form, top):
        for y in range(ylo, yhi + 1):
            r = isqrt(dx)
            if r * r == dx:
                lin = f * y + e * z
                for num in (-lin - r, -lin + r) if r else (-lin,):
                    if num % two_a == 0 and (z or y or num > 0):
                        yield top, num // two_a, y, z
            if dx >= reach:
                for v, shift in lower:
                    d = dx - shift
                    if d < 0:
                        break
                    r = isqrt(d)
                    if r * r == d:
                        lin = f * y + e * z
                        for num in (-lin - r, -lin + r) if r else (-lin,):
                            if num % two_a == 0 and (z or y or num > 0):
                                yield v, num // two_a, y, z
            dx += delta
            delta -= dd


def _vectors_with_values(form: TernaryForm, values) -> dict[int, list[tuple[int, int, int]]]:
    """{v: all integer triples of value v, both signs, sorted} for the
    positive values given, from one row scan (`_half_solutions`)."""
    out: dict[int, list[tuple[int, int, int]]] = {v: [] for v in values}
    for v, x, y, z in _half_solutions(form, tuple(sorted(out, reverse=True))):
        vecs = out[v]
        vecs.append((x, y, z))
        vecs.append((-x, -y, -z))
    for vecs in out.values():
        vecs.sort()
    return out


def vectors_with_value(form: TernaryForm, n: int) -> list[tuple[int, int, int]]:
    """All integer triples v with form(v) == n, both signs, sorted."""
    _require_definite(form)
    if n < 0:
        return []
    if n == 0:
        return [(0, 0, 0)]
    return _vectors_with_values(form, (n,))[n]


def _add_rows(hist: list[int], form: TernaryForm, bound: int, top: int, layers) -> None:
    """Add 2 to hist[v - low] for each point of value v <= bound in the half
    region of the given layers, with top = bound - low.  Each layer of
    `_layers` is walked in one loop over y that carries lin and dx by their
    differences; the x of a row with value <= bound are exactly
    |2ax + lin| <= isqrt(dx)."""
    a, b, _, _, e, f = form.coeffs
    two_a, four_a, dd = 2 * a, 4 * a, 2 * (4 * a * b - f * f)  # dx's second difference along y is -dd
    for z, ylo, yhi, dx, delta in _layers(form, bound, layers):
        lin = f * ylo + e * z
        for y in range(ylo, yhi + 1):
            sx = isqrt(dx)
            xlo = 1 if z == 0 and y == 0 else -((lin + sx) // two_a)
            c0 = top + (lin * lin - dx) // four_a  # form(0, y, z) - low, exactly
            for x in range(xlo, (sx - lin) // two_a + 1):
                hist[(a * x + lin) * x + c0] += 2
            lin += f
            dx += delta
            delta -= dd


# Arrays hold their entries in the host's byte order; the lanes of theta and
# s_batch are little-endian on every host.
_BIG_ENDIAN = sys.byteorder == "big"


def _lanes(row: array) -> int:
    """The integer whose lanes of row.itemsize bytes, least significant
    first, are the entries of row (byteswapped in place on big-endian hosts)."""
    if _BIG_ENDIAN:
        row.byteswap()
    return int.from_bytes(row.tobytes(), "little")


def _unlanes(lanes: int, count: int) -> array:
    """The first `count` 64-bit lanes of lanes, which holds no more, as an array."""
    out = array("Q")
    out.frombytes(lanes.to_bytes(8 * count, "little"))
    if _BIG_ENDIAN:
        out.byteswap()
    return out


# A whole layer with a window of W values holds about 2*pi*W/sqrt(a2) points.
# A group is added at its shifts when 2*pi*3*W_others/sqrt(a2) > W_all,
# squared: _SHARE * W_others^2 > a2 * W_all^2, with _SHARE = (6*pi)^2, that
# is when a point costs 3 added values.  This never holds when a2 >= _SHARE.
# Measured (Python 3.11), a point of `_add_rows` costs 85-120 ns and a lane
# of the packed shift and addition 6-7 ns, about 15 lanes a point; but each
# addition spans the whole sum, and packing, cutting and unpacking cost
# 25-50 ns a value once per theta, so at the class thetas' bounds (60 to
# 1000) sharing more groups (_SHARE from 1,000 to 100,000) was slower.
_SHARE = 355

# theta adds its shared layers in 64-bit lanes.  A lane it keeps holds the
# points of one value n <= bound in layers z != 0, both signs of z: at most
# twice the points of the half region that theta charges, so those must be
# fewer than 2^63.
_THETA_POINTS = 1 << 63


def _layer_plan(a2: int, disc: int, bound: int, m: int) -> tuple[list[int], list[list[int]]]:
    """(singles, groups) for the layers 0 <= z <= isqrt(a2*bound // disc).

    Layers z = +-z0 (mod m) form a group, least z first.  A group is kept
    when adding its first layer at every member's shift costs less than
    enumerating the others (`_SHARE`); the layers of every other group are
    singles, in increasing order.
    """
    layers = range(isqrt(a2 * bound // disc) + 1)
    if a2 >= _SHARE:
        return list(layers), []
    classes: dict[int, list[int]] = {}
    for z in layers:
        classes.setdefault(min(z % m, -z % m), []).append(z)
    singles, groups = [], []
    for zs in classes.values():
        # Layer z's values are >= disc*z^2/a2, so its window has
        # bound + 1 - ceil(disc*z^2/a2) entries.
        others = sum(bound + 1 - _ceil_div(disc * z * z, a2) for z in zs[1:])
        whole = others + bound + 1 - _ceil_div(disc * zs[0] * zs[0], a2)
        if _SHARE * others * others > a2 * whole * whole:
            groups.append(zs)
        else:
            singles += zs
    return sorted(singles), groups


def theta(form: TernaryForm, bound: int) -> tuple[int, ...]:
    """(R(0), ..., R(bound)): the number of representations of each n <= bound.

    Layers z = +-z0 (mod m) hold the values of layer z0 shifted by
    (z^2 - z0^2)*disc/a2 (module docstring).  A group of such layers is
    enumerated once, at its least z, and added at each member's shift when
    that costs less than enumerating the other members (`_layer_plan`);
    every other layer is enumerated row by row.  A group's histogram is
    packed once into an integer of 64-bit lanes (`_lanes`), and each member
    adds it shifted by its least value, one big-integer addition.  The sum
    is cut to its lanes 0..bound, unpacked once (`_unlanes`) and added to the
    counts of the other layers.  A carry only moves up, out of the lanes
    that are kept, and each kept lane holds the points of value n in the
    members' layers, which is below 2^64 when theta is admitted
    (`_THETA_POINTS`).
    """
    if bound < 0:
        raise FormError("theta bound must be nonnegative")
    reduced = _minkowski(form)[0]
    a, b, c, d, e, f = reduced.coeffs
    a2, disc = 4 * a * b - f * f, discriminant(reduced)
    # dx <= 4*a*bound, so a row holds at most (isqrt(4*a*bound) + 1) // a + 1 points.
    points = _row_bound(a, a2, disc, bound) * ((isqrt(4 * a * bound) + 1) // a + 1)
    charge(points + bound + 1, "theta up to %d", bound)
    if points >= _THETA_POINTS:
        raise ResourceLimitError(
            f"theta up to {bound} is refused: its 64-bit lanes are exact only below {_THETA_POINTS} points"
        )
    counts = [0] * (bound + 1)
    counts[0] = 1
    singles, groups = _layer_plan(a2, disc, bound, a2 // gcd(a2, 2 * b * e - f * d, 2 * a * d - f * e))
    shifted = 0
    for z0, *zs in groups:
        # A member z's values start at ceil(disc*z^2/a2), where those of the
        # base layer z0, shifted, start.
        lows = [_ceil_div(disc * z * z, a2) for z in zs]
        if z0 == 0:
            # The first group: counts holds only the origin so far.  Layer 0
            # is its half twice plus the origin; each z = jm > 0 adds it twice
            # more, for +-z.
            _add_rows(counts, reduced, bound, bound, (0,))
            layer = _lanes(array("Q", counts)) << 1
        else:
            # The whole layer z0, twice for +-z0, from its least value on.
            low = _ceil_div(disc * z0 * z0, a2)
            hist = [0] * (bound + 1 - low)
            _add_rows(hist, reduced, bound, bound - low, (z0,))
            layer = _lanes(array("Q", hist))
            lows.append(low)
        for low in lows:
            shifted += layer << 64 * low
    _add_rows(counts, reduced, bound, bound, singles)
    if not groups:
        return tuple(counts)
    return tuple(map(add, counts, _unlanes(shifted & ((1 << 64 * (bound + 1)) - 1), bound + 1)))


def rep_count(form: TernaryForm, n: int) -> int:
    reduced = _minkowski(form)[0]
    if n < 0:
        return 0
    if n == 0:
        return 1
    return 2 * sum(1 for _ in _half_solutions(reduced, (n,)))


# -- sum of three squares -------------------------------------------------

# r2(k) = #{(u, v) in Z^2 : u^2 + v^2 == k} for 0 <= k < len(_R2), shared by
# every caller in the process.  It is a pure function of k, so it is grown in
# place and never rebuilt, and every entry below len(_R2) is final: readers
# take no lock, and growers take turns under _GROWING.  The sieve holds
# r2(k)/4 in 8-bit lanes, exact for k < _LANE_BOUND =
# 5^3*13*17*29*37*41*53, the least k with r2(k)/4 >= 256; below it
# r2(k) <= 1020 fits every entry, and larger tables are refused.
_R2 = array("H", [1])
_LANE_BOUND = 64_411_251_125
_GROWING = threading.Lock()

# New entries are made at most 4 * _BLOCK at a time (_BLOCK sieved lanes), so
# the memory beside the table (about 5 bytes a sieved lane) stays fixed.
_BLOCK = 1 << 15

# Byte maps: a lane plus or minus 2 (mod 256), and the low and high byte of
# 4 * lane, r2(k).
_PLUS_2 = bytes((i + 2) & 255 for i in range(256))
_MINUS_2 = bytes((i - 2) & 255 for i in range(256))
_LOW = bytes((4 * i) & 255 for i in range(256))
_HIGH = bytes((4 * i) >> 8 for i in range(256))

def _two_squares_table(limit: int) -> array:
    """The shared r2 table, grown to cover 0 <= k <= limit.

    The new entries are made in chunks, old <= k < stop, each in an array of
    its own (`_two_squares_chunk`) that one `extend` appends once it is
    filled.  So an interrupted or failed growth keeps the chunks before it
    and publishes no entry that is not final.  A chunk holds at most
    4 * _BLOCK entries and ends at stop <= 2 * old, so the entries it reads
    are all published.
    """
    if limit >= _LANE_BOUND:
        raise ResourceLimitError(
            f"a two-squares table up to {limit} is refused: its sieve is exact only below {_LANE_BOUND}"
        )
    r2 = _R2
    if limit >= len(r2):
        with _GROWING:
            while (old := len(r2)) <= limit:
                r2.extend(_two_squares_chunk(r2, old, min(limit + 1, 2 * old, old + 4 * _BLOCK)))
    return r2


def _two_squares_chunk(r2: array, old: int, stop: int) -> array:
    """r2(k) for old <= k < stop <= 2 * old, from the table r2's first old entries.

    Jacobi: r2(k) = 4 * sum_{d | k} chi(d), chi the character mod 4.  For odd
    k the divisors pair up as (d, k/d) with d < sqrt(k), and a pair adds
    chi(d) + chi(k/d), which is 2 chi(d) when k/d = d (mod 4) and 0
    otherwise; d = sqrt(k) adds chi(d).  So r2(k) = 0 for k = 3 (mod 4), and
    the entries k = 1 (mod 4) are sieved in lanes, one byte per entry, lane i
    for k = 4i + 1: each odd d adds 2 chi(d) to the k = d(d + 4) + 4dj, every
    d-th lane from lane (d^2 - 1)/4 + d, by one strided slice passed through
    a byte map, and chi(d) to d^2.  The lanes hold r2(k)/4 mod 256, which is
    exact below _LANE_BOUND; two more byte maps widen them into the chunk as
    4 * lane.  The map (u, v) -> (u + v, u - v) is a bijection from the
    representations of m onto those of 2m, so r2(2m) = r2(m) for every
    m >= 1: the even entries are one strided copy of r2(k/2), k/2 < old.
    """
    chunk = array("H", bytes(2 * (stop - old)))
    lo, hi = (old + 2) // 4, (stop + 2) // 4  # the lanes i with old <= 4i + 1 < stop
    lanes = bytearray(hi - lo)
    top = isqrt(4 * hi - 3) + 1
    for d0, chi, add_2chi in ((1, 1, _PLUS_2), (3, -1, _MINUS_2)):
        for d in range(d0, top, 4):
            square_lane = (d * d - 1) // 4
            if lo <= square_lane:
                first = square_lane + d - lo
                lanes[square_lane - lo] = (lanes[square_lane - lo] + chi) & 255
            else:
                first = (square_lane - lo) % d
            lanes[first::d] = lanes[first::d].translate(add_2chi)
    wide = bytearray(2 * (hi - lo))
    wide[0::2] = lanes.translate(_LOW)
    wide[1::2] = lanes.translate(_HIGH)
    block = array("H", wide)
    if _BIG_ENDIAN:
        block.byteswap()
    chunk[4 * lo + 1 - old :: 4] = block
    even = old + old % 2
    chunk[even - old :: 2] = r2[even // 2 : (stop + 1) // 2]
    return chunk


def _widen(lanes: int, count: int) -> int:
    """The integer whose 64-bit lanes hold the first `count` 16-bit lanes of lanes."""
    narrow = lanes.to_bytes(2 * count, "little")
    wide = bytearray(8 * count)
    wide[0::8] = narrow[0::2]
    wide[1::8] = narrow[1::2]
    return int.from_bytes(wide, "little")


def s_batch(step: int, n_max: int) -> list[int]:
    """[s(step*n) for 0 <= n <= n_max], read from the shared two-squares table.

    s(m) = r2(m) + 2 * sum_{z >= 1} r2(m - z^2).  For a fixed z the arguments
    step*n - z^2 form a progression of difference step, so each z reads one
    strided slice of the table: r2(step*n - z^2) for n = n_max, n_max - 1, ...
    down to the least n with step*n >= z^2.  The slices all start at n_max,
    and no z reaches n = 0.  Each slice is read as one integer whose 16-bit
    lanes are its entries (`_lanes`), so adding integers adds the slices
    position by position.  Every entry is r2(k) = 4 * lane <= 1020 below
    _LANE_BOUND (`_two_squares_table`), and r2(k) <= 4 d(k) <= 8 sqrt(k), so
    `per` = 65535 // min(1020, 8 isqrt(top) + 8) slices add up to at most
    65535 in every lane and no lane carries into the next: 64 slices when
    top >= 127^2.  Each such partial sum is widened into 64-bit lanes
    (`_widen`), where the sum over every z cannot carry, and the lanes are
    read back as one array (`_unlanes`).
    """
    if step < 1 or n_max < 0:
        raise FormError("s_batch requires step >= 1 and n_max >= 0")
    top = step * n_max
    # Two units per entry of the table and of its slices: the bytes they take.
    charge(2 * (top + 1 + isqrt(top) * (n_max + 1)), "s_batch up to %d", top)
    r2 = _two_squares_table(top)
    size, zs = n_max + 1, isqrt(top)
    per = 65535 // min(1020, 8 * zs + 8)
    tails = 0
    for first in range(1, zs + 1, per):
        part = 0
        for z in range(first, min(first + per, zs + 1)):
            part += _lanes(r2[top - z * z :: -step])
        tails += _widen(part, size)
    out = _unlanes(_widen(_lanes(r2[top::-step]), size) + 2 * tails, size)
    out.reverse()
    return out.tolist()


def s(n: int) -> int:
    """Number of representations of n as a sum of three integer squares.

    Counted row by row in constant memory; s_batch reads whole progressions.
    """
    if n < 0:
        raise FormError("s(n) requires n >= 0")
    return rep_count(THREE_SQUARES, n)
