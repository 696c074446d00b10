import inspect
import threading
from array import array
from itertools import zip_longest
from math import gcd, isqrt
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from test_genus import count_calls
from test_isometry import definite_forms, skewed_forms, unimodular
from test_local import limited
from ternaryforms import counting
from ternaryforms.counting import (
    THREE_SQUARES,
    _half_solutions,
    _layer_plan,
    _vectors_with_values,
    half_points_up_to,
    rep_count,
    s,
    s_batch,
    theta,
    vectors_with_value,
)
from ternaryforms.forms import FormError, ResourceLimitError, TernaryForm, _minkowski, apply_map, discriminant
from ternaryforms.isometry import automorphs, equivalent
from ternaryforms.matrices import adjugate
from ternaryforms.reduction import reduce_form
from ternaryforms.watson import _lambda_raw, _phi_raw, lambda_m, phi, phi_inverse

H1 = TernaryForm(31, 5, 11, 1, -14, 6)


def brute_theta(form, bound):
    """Box enumeration oracle: |x_i| <= sqrt(bound * adj_ii / disc)."""
    g = form.gram()
    adj = adjugate(g)
    disc = discriminant(form)
    lims = [isqrt(2 * bound * adj[i][i] // (2 * disc)) + 1 for i in range(3)]
    counts = [0] * (bound + 1)
    for x in range(-lims[0], lims[0] + 1):
        for y in range(-lims[1], lims[1] + 1):
            for z in range(-lims[2], lims[2] + 1):
                v = form(x, y, z)
                if 0 <= v <= bound:
                    counts[v] += 1
    return tuple(counts)


@pytest.mark.parametrize(
    "form,bound",
    [
        (TernaryForm(1, 1, 1, 0, 0, 0), 60),
        (TernaryForm(1, 1, 3, 0, 0, 1), 60),
        (TernaryForm(2, 2, 2, 1, 1, -1), 60),
        (TernaryForm(1, 2, 7, 0, 0, 1), 60),
        (H1, 50),
        (TernaryForm(3, 4, 4, 4, 0, 0), 50),
        (TernaryForm(7, 8, 8, -4, 8, 8), 50),
        (TernaryForm(2, 3, 5, -2, 1, 1), 50),
    ],
    ids=str,
)
def test_theta_matches_box_oracle(form, bound):
    assert theta(form, bound) == brute_theta(form, bound)


def test_theta_rejects_indefinite():
    with pytest.raises(FormError):
        theta(TernaryForm(-1, 0, 0, 1, 0, 0), 10)


def test_theta_zero_count():
    assert theta(H1, 0) == (1,)


def test_vectors_with_value():
    f = TernaryForm(1, 1, 1, 0, 0, 0)
    vs = vectors_with_value(f, 2)
    assert len(vs) == 12
    assert all(f(*v) == 2 for v in vs)
    assert vs == sorted(vs)
    assert vectors_with_value(f, 0) == [(0, 0, 0)]
    assert vectors_with_value(f, -1) == []
    assert vectors_with_value(f, 7) == []
    # A negative bound yields nothing; it is checked before the row bound's isqrt.
    assert list(half_points_up_to(f, -1)) == []


def brute_s(n):
    total = 0
    r = isqrt(n)
    for x in range(-r, r + 1):
        for y in range(-r, r + 1):
            zz = n - x * x - y * y
            if zz < 0:
                continue
            z = isqrt(zz)
            if z * z == zz:
                total += 1 if z == 0 else 2
    return total


def test_s_small_values():
    assert [s(n) for n in range(9)] == [1, 6, 12, 8, 6, 24, 24, 0, 12]
    assert s(9) == 30
    assert s(16) == 6
    assert s(25) == 30
    assert s(27) == 32


def test_s_matches_brute():
    for n in range(300):
        assert s(n) == brute_s(n), n


def test_s_counts_rows_like_the_sieve():
    # s(n) counts row by row; s_batch reads the two-squares table.
    assert [s(n) for n in range(2001)] == s_batch(1, 2000)


def test_s_rejects_negative_n():
    with pytest.raises(FormError):
        s(-1)


def test_s_batch_consistent():
    for step, n_max in ((1, 250), (9, 44), (121, 30), (7, 0)):
        assert s_batch(step, n_max) == [s(step * n) for n in range(n_max + 1)]


@given(st.sampled_from([1, 4, 9, 25, 49, 121, 169]), st.integers(0, 60))
@settings(max_examples=60, deadline=None)
def test_s_batch_reads_progressions_like_the_row_count(step, n_max):
    assert s_batch(step, n_max) == [s(step * n) for n in range(n_max + 1)]


def _zip_longest_s_batch(step, n_max):
    """Oracle: s_batch's position-by-position sums of the strided slices of
    the r2 table (the shared one, or a patched one), one boxed addition per
    entry."""
    top = step * n_max
    r2 = counting._two_squares_table(top)
    rows = [r2[top - z * z :: -step] for z in range(1, isqrt(top) + 1)]
    tails = [0, *reversed(list(map(sum, zip_longest(*rows, fillvalue=0))))]
    return [r + 2 * t for r, t in zip(r2[: top + 1 : step], tails)]


@given(st.integers(1, 400), st.integers(0, 300))
@example(1, 0)
@example(10**6, 0)
@example(4, 1)
@example(9, 1000)
@settings(max_examples=80, deadline=None)
def test_s_batch_lanes_match_the_zip_longest_sums(step, n_max):
    assert s_batch(step, n_max) == _zip_longest_s_batch(step, n_max)


def test_s_batch_widens_each_slice_alone_near_two_to_the_sixteen():
    # Below _LANE_BOUND every entry is r2(k) = 4 * lane <= 1020, so 64 slices
    # share a 16-bit lane and fill it to 64 * 1020 = 65280, near 2^16.
    # isqrt(top) = 4096 makes 64 such groups, each widened alone: their sums
    # need the 64-bit lanes.
    step, n_max = 4096 * 4096, 1
    assert 65535 // min(1020, 8 * isqrt(step * n_max) + 8) == 64
    table = array("H", [1020]) * (step * n_max + 1)
    for z in range(isqrt(step * n_max) + 1):
        table[step * n_max - z * z] -= z % 13
    with patch.object(counting, "_R2", table):
        got = s_batch(step, n_max)
        assert got == _zip_longest_s_batch(step, n_max)
    assert got[1] > 2**22


@pytest.mark.parametrize("step, n_max", [(1, 20000), (9, 3000), (121, 200), (1, 10000)])
def test_s_batch_lanes_do_not_carry_at_the_bound(step, n_max):
    # Every entry at the largest value the lanes allow: r2(k) = 4 * lane <=
    # 1020 below _LANE_BOUND, and r2(k) <= 8 sqrt(k), the tighter bound when
    # top < 127^2 = 16129 (the last case).  per slices fill a 16-bit lane to
    # per * bound <= 65535, and one more would carry.  There are more slices
    # than per, so the first group is full.
    top = step * n_max
    bound = min(1020, 8 * isqrt(top) + 8)
    assert (bound < 1020) == (top < 16129)
    per = 65535 // bound
    assert 1 < per < isqrt(top) and (per + 1) * bound > 65535
    table = array("H", [bound]) * (top + 1)
    with patch.object(counting, "_R2", table):
        got = s_batch(step, n_max)
        assert got == _zip_longest_s_batch(step, n_max)


def test_two_squares_table_grows_in_place():
    # Rising tops extend the same array to exactly the largest top + 1
    # entries; a smaller top leaves it alone.  Rebuilding per call fails here.
    table = array("H", [1])
    with patch.object(counting, "_R2", table):
        for step, n_max in ((1, 10), (9, 30), (25, 40)):
            s_batch(step, n_max)
            assert counting._R2 is table
            assert len(table) == step * n_max + 1
        s_batch(4, 100)
        assert counting._R2 is table
    assert len(table) == 1001
    assert list(table) == two_squares_sieve(1000)


def test_s_batch_charges_the_bytes_of_its_table():
    # s_batch(1, 1000) reads 1001 table entries and 31 slices of 1001
    # entries: 32032 entries, 64064 bytes.  A limit between the two refuses
    # it, so a table is never admitted for less than its memory.
    entries = 1001 + isqrt(1000) * 1001
    for limit in (entries, 2 * entries - 1):
        with pytest.raises(ResourceLimitError, match=f"s_batch up to 1000 costs {2 * entries} units"):
            limited(limit, s_batch, 1, 1000)
    assert limited(2 * entries, s_batch, 1, 1000) == [s(n) for n in range(1001)]


def test_s_batch_rejects_bad_arguments():
    with pytest.raises(FormError):
        s_batch(0, 5)
    with pytest.raises(FormError):
        s_batch(1, -1)


@given(st.lists(st.integers(0, 3000), min_size=1, max_size=6))
@settings(max_examples=40, deadline=None)
def test_two_squares_table_grown_in_steps_equals_the_sieve(limits):
    table = array("H", [1])
    with patch.object(counting, "_R2", table):
        for limit in sorted(limits):
            counting._two_squares_table(limit)
    assert list(table) == two_squares_sieve(max(limits))


@given(st.integers(0, 600), st.integers(0, 1), st.lists(st.integers(0, 2500), min_size=1, max_size=4))
@settings(max_examples=60, deadline=None)
def test_two_squares_table_grows_from_an_odd_or_even_length(first, parity, limits):
    # The first growth leaves len(table) = first + 1 of the given parity, so
    # the next one starts its odd and even entries at an old of either parity.
    first += (first + 1 + parity) % 2
    table = array("H", [1])
    with patch.object(counting, "_R2", table):
        counting._two_squares_table(first)
        assert len(table) % 2 == parity
        for limit in sorted(limits):
            counting._two_squares_table(first + limit)
    assert list(table) == two_squares_sieve(first + max(limits))


@pytest.fixture(scope="module")
def sieve_200k():
    return two_squares_sieve(200_000)


@given(st.lists(st.integers(1, 199_999), min_size=2, max_size=2))
@settings(max_examples=5, deadline=None)
def test_two_squares_table_grown_in_three_random_steps_to_2e5(sieve_200k, cuts):
    # 160225 = 5^2 * 13 * 17 * 29: r2 = 4 * 3 * 2 * 2 * 2 = 96, a lane of 24
    # summed from the chi of twelve divisor pairs.
    table = array("H", [1])
    with patch.object(counting, "_R2", table):
        for limit in (*sorted(cuts), 200_000):
            counting._two_squares_table(limit)
    assert table[160_225] == 96
    assert list(table) == sieve_200k


@pytest.mark.parametrize("block", [1, 3, 1000])
@given(limits=st.lists(st.integers(0, 5000), min_size=1, max_size=4))
@example(limits=[5000])
@settings(max_examples=25, deadline=None)
def test_two_squares_table_grows_across_blocks(block, limits):
    table = array("H", [1])
    with patch.object(counting, "_R2", table), patch.object(counting, "_BLOCK", block):
        for limit in sorted(limits):
            counting._two_squares_table(limit)
    assert list(table) == two_squares_sieve(max(limits))


@pytest.mark.parametrize("first", range(1, 14))
def test_two_squares_table_grows_from_every_length_mod_four(first):
    # Lane i holds k = 4i + 1, so the first new lane, and where blocks of 3
    # lanes start, depend on len(table) = first + 1 mod 4.
    table = array("H", [1])
    with patch.object(counting, "_R2", table), patch.object(counting, "_BLOCK", 3):
        counting._two_squares_table(first)
        counting._two_squares_table(first + 400)
    assert list(table) == two_squares_sieve(first + 400)


def test_an_interrupted_growth_leaves_only_filled_entries():
    # s_batch calls isqrt once for its charge, and the sieve once per chunk of
    # at most 4 * _BLOCK = 1000 entries, so the third call interrupts the
    # second chunk: the first, up to 5000, is kept, and nothing after it.
    table, r2 = array("H", two_squares_sieve(4000)), two_squares_sieve(18000)
    calls = []

    def interrupting(n):
        calls.append(n)
        if len(calls) == 3:
            raise KeyboardInterrupt
        return isqrt(n)

    with patch.object(counting, "_R2", table), patch.object(counting, "_BLOCK", 250):
        with patch.object(counting, "isqrt", interrupting), pytest.raises(KeyboardInterrupt):
            s_batch(9, 2000)
        assert len(table) == 5001
        assert list(table) == r2[:5001]
        # s(m) = r2(m) + 2 * sum_{z >= 1} r2(m - z^2)
        expected = [sum(r2[9 * n - z * z] * (2 - (z == 0)) for z in range(isqrt(9 * n) + 1)) for n in range(2001)]
        assert s_batch(9, 2000) == expected
    assert list(table) == r2


def test_two_squares_table_grows_one_grower_at_a_time():
    # Grower A is held inside its sieve, in its first chunk, while grower B
    # asks for a growth of its own.  B must not append to the table under A:
    # A's chunk would then land after B's entries.
    table = array("H", two_squares_sieve(1000))
    inside, release, answers = threading.Event(), threading.Event(), {}

    def held(n):
        if threading.current_thread().name == "A" and not inside.is_set():
            inside.set()
            release.wait(10)
        return isqrt(n)

    def grow(limit):
        answers[threading.current_thread().name] = counting._two_squares_table(limit)[: limit + 1].tolist()

    a = threading.Thread(target=grow, args=(4000,), name="A")
    b = threading.Thread(target=grow, args=(3000,), name="B")
    with patch.object(counting, "_R2", table), patch.object(counting, "_BLOCK", 250):
        with patch.object(counting, "isqrt", held):
            a.start()
            assert inside.wait(10)
            b.start()
            b.join(0.5)
            release.set()
            a.join(10)
            b.join(10)
        assert not a.is_alive() and not b.is_alive()
    assert answers == {"A": two_squares_sieve(4000), "B": two_squares_sieve(3000)}
    assert list(table) == two_squares_sieve(4000)


def test_lane_bound_is_the_least_k_whose_r2_over_4_reaches_256():
    # r2(k)/4 = prod (e_q + 1) over the primes q = 1 (mod 4), e_q their
    # exponents in k, when the primes 3 (mod 4) divide k to even powers, and 0
    # otherwise.  So the least k with r2(k)/4 >= 256 has prime factors 1
    # (mod 4) only, with exponents not increasing along the primes.
    primes = [q for q in range(5, 200, 4) if all(q % r for r in range(3, isqrt(q) + 1, 2))]
    least = 5**256

    def search(i, k, count, top):
        nonlocal least
        if count >= 256:
            least = min(least, k)
            return
        for e in range(1, top + 1):
            k *= primes[i]
            if k >= least:
                return
            search(i + 1, k, count * (e + 1), e)

    search(0, 1, 1, 255)
    assert least == counting._LANE_BOUND == 5**3 * 13 * 17 * 29 * 37 * 41 * 53


def test_two_squares_table_refuses_lanes_that_would_wrap():
    # Refused before anything is allocated, from the table and from s_batch
    # at a work limit that admits the table's bytes.
    bound = counting._LANE_BOUND
    table = array("H", [1])
    with patch.object(counting, "_R2", table):
        with pytest.raises(ResourceLimitError, match=f"sieve is exact only below {bound}$"):
            counting._two_squares_table(bound)
        with pytest.raises(ResourceLimitError, match=f"up to {bound} is refused"):
            limited(10**17, s_batch, 1, bound)
    assert list(table) == [1]


def test_s_vanishes_on_forbidden_residues():
    for a in range(3):
        for k in range(6):
            assert s(4**a * (8 * k + 7)) == 0


def two_squares_sieve(limit):
    """Oracle: r2[k] = #{(u,v) in Z^2 : u^2 + v^2 == k} for 0 <= k <= limit,
    sieved in one pass over the unordered pairs 0 <= a <= b."""
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


def test_two_squares_sieve():
    for limit in (0, 1, 2, 50, 2000):
        m = isqrt(limit)
        direct = [0] * (limit + 1)
        for u in range(-m, m + 1):
            for v in range(-m, m + 1):
                if u * u + v * v <= limit:
                    direct[u * u + v * v] += 1
        assert two_squares_sieve(limit) == direct, limit


def test_rep_count_uses_exact_enumeration():
    assert rep_count(H1, 0) == 1
    assert rep_count(H1, -3) == 0
    counts = theta(H1, 40)
    for n in range(41):
        assert rep_count(H1, n) == counts[n]


@given(st.integers(1, 120))
@settings(max_examples=60, deadline=None)
def test_rep_counts_even_for_positive_n(n):
    assert rep_count(TernaryForm(2, 3, 5, -2, 1, 1), n) % 2 == 0


def _definite_form(m):
    """The form of Gram 2*M'*M, positive definite when M is nonsingular."""
    gram = tuple(
        tuple(2 * sum(m[k][i] * m[k][j] for k in range(3)) for j in range(3))
        for i in range(3)
    )
    return TernaryForm.from_gram(gram)


@given(
    st.lists(st.integers(-3, 3), min_size=9, max_size=9).filter(
        lambda e: (e[0] * (e[4] * e[8] - e[5] * e[7]) - e[1] * (e[3] * e[8] - e[5] * e[6])
                   + e[2] * (e[3] * e[7] - e[4] * e[6])) != 0
    ),
    st.integers(0, 200),
)
@settings(max_examples=150, deadline=None)
def test_single_value_counts_match_the_filtered_enumeration(entries, n):
    form = _definite_form((entries[0:3], entries[3:6], entries[6:9]))
    points = list(half_points_up_to(form, n))
    assert all(v == form(x, y, z) for x, y, z, v in points)  # row evaluation is exact
    half = [(x, y, z) for x, y, z, v in points if v == n]
    signed = half + [(-x, -y, -z) for x, y, z in half] if n else [(0, 0, 0)]
    assert vectors_with_value(form, n) == sorted(signed)
    assert rep_count(form, n) == len(signed)


# theta and rep_count enumerate the Minkowski form of the class; the direct
# enumeration in the given basis stays as their oracle.


@given(skewed_forms, st.integers(1, 60))
@settings(max_examples=60, deadline=None)
def test_rep_count_matches_the_count_in_the_input_basis(g, n):
    assert rep_count(g, n) == 2 * sum(1 for _ in _half_solutions(g, (n,)))


# Elongated forms <a, a, c> in a skewed basis: few long rows.
elongated_forms = st.builds(
    lambda a, c, u: apply_map(TernaryForm(a, a, c, 0, 0, 0), u), st.integers(1, 3), st.integers(10, 10**4), unimodular
)


# Minkowski-reduced forms <a, b, c, 0, 0, f>: m = 1, so every layer is in the
# group of z = 0.
split_forms = st.builds(
    lambda a, db, dc, f: TernaryForm(a, a + db, a + db + dc, 0, 0, max(-a, min(f, a))),
    st.integers(1, 4), st.integers(0, 3), st.integers(0, 6), st.integers(-4, 4),
)


def layer_modulus(form):
    """(m, a2, disc) of the Minkowski form that theta enumerates: layers
    z = +-z0 (mod m) are shifted copies of layer z0."""
    reduced = _minkowski(form)[0]
    a, b, c, d, e, f = reduced.coeffs
    a2 = 4 * a * b - f * f
    return a2 // gcd(a2, 2 * b * e - f * d, 2 * a * d - f * e), a2, discriminant(reduced)


# One form for each way theta plans its layers, at a bound where groups
# share layers: (form, the plan at bound 300).
PLANS = {
    "m = 1, one group": (TernaryForm(1, 1, 3, 0, 0, 1), ([], [list(range(11))])),
    "m = 3, groups of 0 and of +-1": (
        TernaryForm(2, 2, 2, -1, 1, 1),
        ([], [[0, 3, 6, 9, 12], [1, 2, 4, 5, 7, 8, 10, 11, 13]]),
    ),
    "m = 162, above the 6 layers": (TernaryForm(9, 10, 10, 7, -4, -6), (list(range(6)), [])),
    "m = 2, a2 = 212: no group pays": (TernaryForm(3, 18, 18, 17, 2, -2), (list(range(5)), [])),
    "m = 1, a2 = 396 >= _SHARE": (TernaryForm(10, 10, 40, 0, 0, 2), (list(range(3)), [])),
}


@pytest.mark.parametrize("name", PLANS)
def test_the_layer_plan_groups_layers_congruent_up_to_sign(name):
    form, plan = PLANS[name]
    m, a2, disc = layer_modulus(form)
    singles, groups = _layer_plan(a2, disc, 300, m)
    assert (singles, groups) == plan
    # Every layer once; a group is the layers congruent to its first up to sign.
    zmax = isqrt(a2 * 300 // disc)
    assert sorted(singles + [z for zs in groups for z in zs]) == list(range(zmax + 1))
    for z0, *zs in groups:
        assert [z0, *zs] == [z for z in range(zmax + 1) if (z - z0) % m == 0 or (z + z0) % m == 0]


# theta counts each row over its exact x interval and adds shared layers at
# their shifts; the point by point enumeration half_points_up_to stays as its
# oracle.  Bounds up to 300 let groups share layers.
@given(
    st.one_of(skewed_forms, elongated_forms, split_forms),
    st.one_of(st.integers(0, 3), st.integers(4, 40), st.integers(200, 300)),
)
@example(PLANS["m = 1, one group"][0], 300)
@example(PLANS["m = 3, groups of 0 and of +-1"][0], 300)
@example(PLANS["m = 162, above the 6 layers"][0], 300)
@example(PLANS["m = 2, a2 = 212: no group pays"][0], 300)
@example(PLANS["m = 1, a2 = 396 >= _SHARE"][0], 300)
@example(TernaryForm(4, 3, 4, 0, 4, 0), 1000)
@example(TernaryForm(7, 8, 8, -4, 8, 8), 1000)
@settings(max_examples=80, deadline=None)
def test_theta_matches_the_histogram_in_the_input_basis(g, bound):
    counts = [1] + [0] * bound
    for _, _, _, v in half_points_up_to(g, bound):
        counts[v] += 2
    assert theta(g, bound) == tuple(counts)


# With a2*mu = (2be - fd, 2ad - fe), form(x, y, z) = Q2(w + z*mu) + (disc/a2)*z^2
# for w = (x, y), and z*mu is integral exactly when m | z.
@given(definite_forms, st.integers(0, 6), st.integers(0, 2), st.sampled_from((1, -1)))
@settings(max_examples=150, deadline=None)
def test_layers_congruent_up_to_sign_mod_m_are_shifted_copies(g, z0, j, sign):
    a, b, c, d, e, f = g.coeffs
    a2, disc = 4 * a * b - f * f, discriminant(g)
    u, v = 2 * b * e - f * d, 2 * a * d - f * e
    m = a2 // gcd(a2, u, v)
    z = sign * z0 + j * m
    shift, rem = divmod((z * z - z0 * z0) * disc, a2)
    assert rem == 0
    # z = z0 (mod m): w -> w + (z0 - z)*mu.  z = -z0 (mod m): w -> -w - (z0 + z)*mu.
    # Each is a bijection of Z^2 that takes layer z0 onto layer z.
    t = z0 - z if sign == 1 else z0 + z
    assert (t * u) % a2 == 0 and (t * v) % a2 == 0
    tx, ty = t * u // a2, t * v // a2
    for x in range(-4, 5):
        for y in range(-4, 5):
            image = (x + tx, y + ty) if sign == 1 else (-x - tx, -y - ty)
            assert g(*image, z) == g(x, y, z0) + shift


@pytest.mark.parametrize(
    "form, bound, least",
    # Taken at the commit before layers were shared: theta charges the points
    # of every layer, so the least admitted work limit is unchanged.
    [
        (TernaryForm(1, 1, 1, 0, 0, 0), 1000, 134121),
        (TernaryForm(1, 1, 3, 0, 0, 1), 1000, 92391),
        (TernaryForm(2, 2, 2, -1, 1, 1), 1000, 55051),
        (H1, 300, 1005),
        (TernaryForm(15, 26, 10, 23, -16, -31), 2000, 16401),
    ],
    ids=str,
)
def test_theta_is_admitted_at_the_same_work_limit(form, bound, least):
    with pytest.raises(ResourceLimitError, match=f"theta up to {bound} costs {least} units"):
        limited(least - 1, theta, form, bound)
    assert limited(least, theta, form, bound) == theta(form, bound)


def test_theta_refuses_three_squares_to_3e8_at_the_same_charge():
    with pytest.raises(ResourceLimitError, match="theta up to 300000000 costs 20787280702727 units"):
        theta(TernaryForm(1, 1, 1, 0, 0, 0), 300000000)


def test_theta_refuses_the_points_its_lanes_cannot_hold():
    # x^2+y^2+z^2 to 10^13 is charged 10^13 + 1 counts and more than 2^64
    # points.  A work limit that admits the charge still refuses it, before
    # the counts of 10^13 + 1 values are allocated.
    bound, charged = 10**13, 126491177186538334377
    assert charged - bound - 1 >= 2**64
    with pytest.raises(ResourceLimitError, match=f"theta up to {bound} costs {charged} units"):
        theta(THREE_SQUARES, bound)
    with pytest.raises(ResourceLimitError, match=f"up to {bound} is refused: .* exact only below {2**63} points$"):
        limited(charged, theta, THREE_SQUARES, bound)


# The short vectors of several values come from one row scan; the per-value
# vectors_with_value is its oracle.
@given(skewed_forms, st.sets(st.integers(1, 30), min_size=1, max_size=3))
@settings(max_examples=80, deadline=None)
def test_one_scan_short_vectors_match_the_per_value_lists(g, values):
    assert _vectors_with_values(g, values) == {v: vectors_with_value(g, v) for v in values}


# The row walk carries dx by its differences from the ends `_layers` leaves;
# the rows of half_points_up_to are evaluated from the form, so the points
# it enumerates, filtered by value, are its oracle.
@given(
    st.one_of(skewed_forms, skewed_forms.map(lambda g: _minkowski(g)[0])),
    st.sets(st.integers(1, 120), min_size=1, max_size=3),
)
@example(TernaryForm(1, 1, 1, 0, 0, 1), {7, 3, 1})  # a2 = 3
@example(TernaryForm(5, 11, 26, 7, -3, 1), {26, 11, 5})  # the value a: the row z = y = 0
@example(H1, {50, 31, 5})  # not reduced
@example(TernaryForm(1, 1, 1000, 0, 0, 0), {1001, 999, 1})  # long rows; 999 has no representation
@settings(max_examples=120, deadline=None)
def test_half_solutions_match_the_filtered_enumeration(g, values):
    values = tuple(sorted(values, reverse=True))
    expected = sorted((v, x, y, z) for x, y, z, v in half_points_up_to(g, values[0]) if v in values)
    assert sorted(_half_solutions(g, values)) == expected


def test_half_solutions_yield_each_root_as_its_row_is_walked():
    # rep_count and s(n) count row by row in constant memory: the roots come
    # from a generator, the first while the scan is still in its first layer,
    # not from a list built over every layer.
    walked = []
    layers = counting._layers

    def recording_layers(*args):
        for layer in layers(*args):
            walked.append(layer[0])
            yield layer

    expected = s(10**4)
    with patch.object(counting, "_layers", recording_layers):
        solutions = _half_solutions(THREE_SQUARES, (10**4,))
        assert inspect.isgenerator(solutions)
        assert next(solutions) == (10**4, 100, 0, 0)
        assert walked == [0]
        assert 2 * (1 + sum(1 for _ in solutions)) == expected
    assert walked == list(range(101))


SHORT_VECTOR_SEARCHES = {
    "rep_count": lambda f: rep_count(f, 1000),
    "vectors_with_value": lambda f: vectors_with_value(f, 1000),
    "reduce_form": reduce_form,
}
SKEWED = TernaryForm(15, 26, 10, 23, -16, -31)


@pytest.mark.parametrize(
    "name, form, least",
    # Taken at the commit before the rows were walked by differences: the
    # rows are charged as before, so the least admitted work limit holds.
    [
        ("rep_count", THREE_SQUARES, 2048),
        ("rep_count", H1, 140),
        ("rep_count", SKEWED, 242),
        ("vectors_with_value", THREE_SQUARES, 2048),
        ("vectors_with_value", H1, 330),
        ("vectors_with_value", SKEWED, 315),
        ("reduce_form", THREE_SQUARES, 6),
        ("reduce_form", H1, 8),
        ("reduce_form", SKEWED, 6),
    ],
    ids=str,
)
def test_short_vector_searches_are_admitted_at_the_same_work_limit(name, form, least):
    call = SHORT_VECTOR_SEARCHES[name]
    with pytest.raises(ResourceLimitError, match=f"costs {least} units"):
        limited(least - 1, call, form)
    assert limited(least, call, form) == call(form)


@pytest.mark.parametrize(
    "form", [H1, apply_map(TernaryForm(1, 1, 1, 0, 0, 0), ((2, 5, 1), (1, 3, 1), (1, 2, 1)))], ids=str
)
def test_rep_count_walks_the_rows_of_the_minkowski_form(form):
    pre = _minkowski(form)[0]
    assert pre != form
    walked = []

    def recording_half_solutions(f, values):
        walked.append((f, values))
        return _half_solutions(f, values)

    with patch.object(counting, "_half_solutions", recording_half_solutions):
        count = rep_count(form, 50)
    assert count == rep_count(pre, 50)
    assert walked == [(pre, (50,))]


def test_rep_count_and_theta_refuse_indefinite_forms():
    form = TernaryForm(-1, 0, 0, 1, 0, 0)
    for call in (lambda: rep_count(form, 1), lambda: theta(form, 3)):
        with pytest.raises(FormError, match="enumeration requires a positive definite form"):
            call()
    # The form vanishes at (0, 0, z) for every z, so R(0) is infinite.
    for call in (rep_count, vectors_with_value):
        for n in (0, -1):
            with pytest.raises(FormError, match="enumeration requires a positive definite form"):
                call(form, n)


G11 = TernaryForm(3, 4, 4, 3, 2, -2)  # a TG1(11) class
G11_IMAGE = phi(G11)

# Each entry point, its input, and the forms it tests for definiteness: every
# form it enumerates or reduces, once.
ENTRY_POINTS = {
    "theta": (lambda f: theta(f, 10), H1, [H1]),
    "rep_count n=0": (lambda f: rep_count(f, 0), H1, [H1]),
    "rep_count n=10": (lambda f: rep_count(f, 10), H1, [H1]),
    "vectors_with_value": (lambda f: vectors_with_value(f, 10), H1, [H1]),
    "half_points_up_to": (lambda f: list(half_points_up_to(f, 10)), H1, [H1]),
    "reduce_form": (reduce_form, H1, [H1]),
    "automorphs": (automorphs, H1, [H1]),
    "lambda_m": (lambda f: lambda_m(f, 4), G11, [_lambda_raw(G11, 4)[0]]),
    "phi": (phi, G11, [_phi_raw(G11)]),
    "equivalent": (lambda f: equivalent(f, f), G11, [G11, G11]),
    # The input, its lambda_4 preimage (G11) and that preimage's Phi image.
    "phi_inverse": (phi_inverse, G11_IMAGE, [G11_IMAGE, _lambda_raw(G11_IMAGE, 4)[0], _phi_raw(G11)]),
}


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_each_entry_point_tests_definiteness_once(monkeypatch, name):
    call, form, tested = ENTRY_POINTS[name]
    calls = count_calls(monkeypatch, "forms", "is_positive_definite")
    call(form)
    assert calls == [(f,) for f in tested]
