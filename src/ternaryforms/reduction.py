"""Canonical reduction of positive definite ternary forms.

Two stages: a greedy Eisenstein-style descent (signed permutations plus
integer shears, strictly decreasing the Gram diagonal) brings the
coefficients to desk scale; an exhaustive successive-minima search then
picks the unique lexicographically least equivalent sextuple, ordered by
(a, b, c, |d|, |e|, |f|, sign pattern of (d, e, f)).
"""

from __future__ import annotations

from math import gcd

from .counting import half_points_up_to
from .forms import FormError, TernaryForm, apply_map, is_positive_definite
from .matrices import IDENTITY, Mat3, Vec3, det3, from_columns, mat_mul, shear


def _greedy(form: TernaryForm) -> tuple[TernaryForm, Mat3]:
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


def _pair_primitive(v1: Vec3, v2: Vec3) -> bool:
    m01 = v1[0] * v2[1] - v1[1] * v2[0]
    m02 = v1[0] * v2[2] - v1[2] * v2[0]
    m12 = v1[1] * v2[2] - v1[2] * v2[1]
    return gcd(gcd(m01, m02), m12) == 1


def _signed(vs: list[Vec3]) -> list[Vec3]:
    out = []
    for v in vs:
        out.append(v)
        out.append((-v[0], -v[1], -v[2]))
    return out


def reduce_form(form: TernaryForm) -> tuple[TernaryForm, Mat3]:
    """Canonical representative of the equivalence class, with witness.

    Returns (r, u) with apply_map(form, u) == r; r is the same for every
    form in the class.
    """
    if not is_positive_definite(form):
        raise FormError("reduction requires a positive definite form")
    pre, u0 = _greedy(form)

    bound = pre.c
    by_value: dict[int, list[Vec3]] = {}
    for x, y, z, v in half_points_up_to(pre, bound):
        by_value.setdefault(v, []).append((x, y, z))
    values = sorted(by_value)

    a_min = values[0]
    firsts = by_value[a_min]

    pairs: list[tuple[Vec3, Vec3]] = []
    b_min = None
    for v in values:
        if v < a_min:
            continue
        for v1 in firsts:
            for v2 in by_value[v]:
                if _pair_primitive(v1, v2):
                    pairs.append((v1, v2))
        if pairs:
            b_min = v
            break
    assert b_min is not None, "no primitive pair found below the greedy bound"

    c_min = None
    for v in values:
        if v < b_min:
            continue
        found = False
        for v1, v2 in pairs:
            for v3 in by_value[v]:
                if det3(from_columns(v1, v2, v3)) in (1, -1):
                    found = True
                    break
            if found:
                break
        if found:
            c_min = v
            break
    assert c_min is not None, "no unimodular completion found below the greedy bound"

    best_key = None
    best = None
    firsts_pm = _signed(firsts)
    seconds_pm = _signed(by_value[b_min])
    thirds_pm = _signed(by_value[c_min])
    for v1 in firsts_pm:
        for v2 in seconds_pm:
            if not _pair_primitive(v1, v2):
                continue
            for v3 in thirds_pm:
                m = from_columns(v1, v2, v3)
                if det3(m) not in (1, -1):
                    continue
                cand = apply_map(pre, m)
                key = (
                    abs(cand.d), abs(cand.e), abs(cand.f),
                    cand.d < 0, cand.e < 0, cand.f < 0,
                )
                if best_key is None or key < best_key:
                    best_key = key
                    best = (cand, m)
    assert best is not None
    final, m = best
    return final, mat_mul(u0, m)
