"""The benchmark's workloads, their inputs and their oracles.

Each workload has a set-up step (untimed by `wall_s`, timed by `setup_s` in
named laps), a timed phase that makes every call into the program through a
`Ledger`, an untimed `after` step, and oracle checks that run after both.
Every check compares with a value from `oracles` or with the program's own
exact report, never with a second run of the code path being checked.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import time
from fractions import Fraction

import oracles as orc
import speed
from ternaryforms import cli, genus, local, verify
from ternaryforms.forms import TernaryForm


class Ledger:
    """Operations attempted and failed, and the latency of each call.

    A call runs one request against the program and may cover several
    operations (one per n of an identity, say).  An exception fails all of
    them; otherwise the call's check says how many failed.  Checks are
    deferred to `settle()` so oracle work stays out of the timed phase.
    The label names the request: calls with equal labels in different
    passes are the same request.  Latencies are scaled to the reference
    host speed (see `speed`).
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.latencies_ms: list[tuple[str, float]] = []
        self.notes: list[str] = []
        self.results: dict = {}
        self._pending: list = []
        self._speed = speed.Scaler()

    def call(self, label: str, ops: int, fn, check, key=None) -> None:
        start = time.perf_counter()
        try:
            result, exc = fn(), None
        except Exception as err:  # any program error fails the call's operations
            result, exc = None, err
        elapsed = time.perf_counter() - start
        self.latencies_ms.append((label, 1000 * self._speed.scale(elapsed)))
        if key is not None and exc is None:
            self.results[key] = result
        self.record(label, ops, result, exc, check)

    def record(self, label: str, ops: int, result, exc, check) -> None:
        """Count and check an answer obtained outside the timed calls."""
        self._pending.append((label, ops, result, exc, check))

    def settle(self) -> None:
        for label, ops, result, exc, check in self._pending:
            if exc is not None:
                bad, why = ops, f"{type(exc).__name__}: {exc}"
            else:
                try:
                    bad, why = min(ops, check(result, self.results)), "wrong answer"
                except Exception as err:  # an answer the oracle cannot read is wrong
                    bad, why = ops, f"unreadable answer ({type(err).__name__}: {err})"
            self.attempted += ops
            self.failed += bad
            if bad and len(self.notes) < 10:
                self.notes.append(f"{label}: {bad}/{ops} failed, {why}")
        self._pending.clear()


def _fresh(path: str) -> str:
    if os.path.exists(path):
        os.unlink(path)
    return path


# -- genus-sweep ------------------------------------------------------------

class GenusSweep:
    """Cold genus enumeration into a fresh cache file, then the identities."""

    PRIMES = orc.odd_primes(61)
    N_THM13 = 150
    N_WATSON = 60
    N_THM11 = 1000

    def setup(self, workdir: str, seed: int, watch) -> None:
        self.path = _fresh(os.path.join(workdir, "genus-sweep-cache.json"))

    def run(self, ledger: Ledger) -> None:
        cache = genus.GenusCache(self.path)
        for p in self.PRIMES:
            ledger.call(f"TG1({p})", 1, lambda p=p: cache.tg1(p), _genus_check(p, 1), key=p)
            ledger.call(f"TG2({p})", 1, lambda p=p: cache.tg2(p), _genus_check(p, 16))
            ledger.call(
                f"thm1.3 p={p}", self.N_THM13,
                lambda p=p: verify.verify_theorem_1_3(p, self.N_THM13, cache), _report_check,
            )
            ledger.call(
                f"mass_suite p={p}", 1,
                lambda p=p: verify.mass_suite(primes=(p,), cache=cache), lambda r, _: int(bool(r)),
            )
            classes = len(ledger.results[p].classes) if p in ledger.results else 1
            ledger.call(
                f"watson_suite p={p}", 4 * classes,
                lambda p=p: verify.watson_suite(primes=(p,), n_scaling=self.N_WATSON, cache=cache),
                _watson_check,
            )
        ledger.call("thm1.1", self.N_THM11, lambda: verify.verify_theorem_1_1(self.N_THM11), _report_check)
        ledger.call("thm1.2", self.N_THM11, lambda: verify.verify_theorem_1_2(self.N_THM11), _report_check)

    def after(self, ledger: Ledger) -> dict:
        return {"cache_bytes": os.path.getsize(self.path)}


def _genus_check(p: int, scale: int):
    def check(g, _):
        discs = {orc.discriminant(f.coeffs) for f, _ in g.classes}
        mass = sum((Fraction(1, aut) for _, aut in g.classes), Fraction(0))
        return int(discs != {scale * p * p} or mass != orc.genus_mass(p) or g.prime != p)

    return check


def _report_check(report, _):
    return len({f["n"] for f in report.failures})


def _watson_check(suite, _):
    # Each failure line reads "p=<p> <form>...": one operation per (property, class).
    return len({(prop, line.split()[1].rstrip(":")) for prop, lines in suite.items() for line in lines})


# -- density-sweep ----------------------------------------------------------

THREE = TernaryForm(1, 1, 1, 0, 0, 0)
SUITE_OFF = dict(n_odd=0, n_dyadic=0, n_split=0, n_gamma=0, n_scale=0)


class DensitySweep:
    """Congruence counting: the closed-form suites, one giant convolution,
    and the TG1/TG2 representatives at p and at 2."""

    # (keyword, size, operations the suite call checks)
    SUITES = (
        ("n_odd", 10, 4 * 10),  # p in 3, 5, 7, 11
        ("n_dyadic", 128, 2 * 128),  # three squares and the difference forms
        ("n_split", 60, 3 * 60),  # p in 3, 5, 7
        ("n_gamma", 200, 4 * 200),  # closed forms only
    )
    GIANT = [49 * k for k in range(1, 7)]  # x^2+y^2+z^2 at p = 7: modulus 7^6
    REP_PRIMES = (3, 5, 7, 11)
    DYADIC_N = (1, 2, 3, 5, 7)
    # TG2 classes of p = 5, 11, 13 that the 2-adic counter can only brute-force.
    PROBE_FORMS = (TernaryForm(3, 7, 7, 6, 2, -2), TernaryForm(3, 15, 15, 14, 2, -2), TernaryForm(7, 8, 15, 8, 2, 4))
    PROBE_N = 32

    def setup(self, workdir: str, seed: int, watch) -> None:
        self.reps = {}
        for p in self.REP_PRIMES:
            tg1 = genus.enumerate_tg1(p)
            self.reps[p] = ([f for f, _ in tg1.classes], [f for f, _ in genus.build_tg2(tg1).classes])
            watch.lap(f"representatives p={p}")
        self.giant_expected = {n: orc.density_sum_of_three_squares_odd(n, 7) for n in self.GIANT}
        self.dyadic_expected = {n: orc.density_four_yz_minus_xx_2adic(n) for n in self.DYADIC_N}

    def run(self, ledger: Ledger) -> None:
        for kw, size, ops in self.SUITES:
            ledger.call(
                f"density_suites {kw}={size}", ops,
                lambda kw=kw, size=size: verify.density_suites(**{**SUITE_OFF, kw: size}),
                lambda r, _: sum(len(v) for v in r.values()),
            )
        for n in self.GIANT:
            expected = self.giant_expected[n]
            ledger.call(
                f"density x^2+y^2+z^2 n={n} p=7", 1,
                lambda n=n: local.local_density(THREE, n, 7).value, lambda r, _, e=expected: int(r != e),
            )
        for p in self.REP_PRIMES:
            tg1, tg2 = self.reps[p]
            for n in range(1, 2 * p + 1):
                for f in tg1 + tg2:
                    ledger.call(
                        f"density {f} n={n} p={p}", 1,
                        lambda f=f, n=n, p=p: local.local_density(f, n, p).value,
                        _agree(p, n, tg1 + tg2), key=(p, n, f),
                    )
        for p in self.REP_PRIMES:
            for n in self.DYADIC_N:
                expected = self.dyadic_expected[n]
                for f in self.reps[p][1]:
                    ledger.call(
                        f"density {f} n={n} p=2", 1,
                        lambda f=f, n=n: local.local_density(f, n, 2).value,
                        lambda r, _, e=expected: int(r != e),
                    )

    def after(self, ledger: Ledger) -> dict:
        return {"defect_probe": probe_defect(
            ledger, self.PROBE_FORMS, self.PROBE_N, lambda f, n: local.local_density(f, n, 2).value,
        )}


def probe_defect(ledger: Ledger, forms, n: int, density) -> dict:
    """Probe the known 2-adic defect outside the timed phase.

    For these forms the 2-adic counter has no split and falls back to a loop
    over all (x, y, z) mod 2^t, which the default work limit refuses at
    n = 32.  A refusal is the known defect and is only reported; any value
    that does come back, and any other error, is an operation checked
    against the closed form.
    """
    expected = orc.density_four_yz_minus_xx_2adic(n)
    outcome = {}
    for f in forms:
        try:
            value, exc = density(f, n), None
        except local.ResourceLimitError as err:
            outcome[str(f)] = type(err).__name__
            continue
        except Exception as err:  # any other error fails the operation
            value, exc = None, err
        outcome[str(f)] = type(exc).__name__ if exc else str(value)
        ledger.record(f"defect probe {f} n={n} p=2", 1, value, exc, lambda r, _: int(r != expected))
    return outcome


def _agree(p: int, n: int, forms):
    """Every class of the genus agrees, and TG1 agrees with TG2 (lambda_4 has 2-power index)."""

    def check(value, results):
        values = {results[(p, n, f)] for f in forms if (p, n, f) in results}
        return int(len(values) != 1)

    return check


# -- cli-queries --------------------------------------------------------------

CACHE_PRIMES = orc.odd_primes(61)
# (kind, shares).  A synthetic mix, not measured traffic: each of the seven
# tqf commands gets two shares of the stream, and reduce splits its two
# between TG1 forms and elongated forms.  The stream depends on the seed
# alone and every pass of a run sends it again.  Within a kind the size
# parameter (prime, c or n) is stratified over its range, and the rest of
# what sets a query's work (class, skew of U, v_q(n)) is fixed by its index,
# so the seed changes forms, witnesses and order but not how much work the
# stream holds.
QUERY_MIX = (
    ("reduce", 1),
    ("reduce-elongated", 1),
    ("equiv", 2),
    ("auts", 2),
    ("count", 2),
    ("density", 2),
    ("mass", 2),
    ("phi", 2),
)
SHARES = sum(share for _, share in QUERY_MIX)


class CliQueries:
    """A closed loop with one client: seeded `tqf` queries through cli.main."""

    QUERIES = 24 * SHARES

    def setup(self, workdir: str, seed: int, watch) -> None:
        self.path = _fresh(os.path.join(workdir, "cli-queries-cache.json"))
        cache = genus.GenusCache(self.path)
        self.tg1 = {}
        self.tg2 = {}
        for p in CACHE_PRIMES:
            self.tg1[p] = [(f.coeffs, aut) for f, aut in cache.tg1(p).classes]
            self.tg2[p] = {str(f) for f, _ in cache.tg2(p).classes}
            watch.lap(f"warm cache p={p}")
        self.r3 = orc.three_square_counts(1000)
        watch.lap("three-square counts")
        rng = random.Random(f"cli-queries:{seed}")
        self.queries = []
        for kind, share in QUERY_MIX:
            count = self.QUERIES * share // SHARES
            for i in range(count):
                argv, check = self._query(rng, kind, i, (i + rng.random()) / count)
                self.queries.append((f"{kind} #{i}", argv, check))
        rng.shuffle(self.queries)

    def run(self, ledger: Ledger) -> None:
        for label, argv, check in self.queries:
            ledger.call(label, 1, lambda argv=argv: invoke(["--cache", self.path, *argv]), cli_check(check))

    def after(self, ledger: Ledger) -> dict:
        return {"queries": len(self.queries)}

    def _query(self, rng, kind, i, x):
        """The i-th query of its kind; x in [0, 1) is its stratified size."""
        p = CACHE_PRIMES[int(x * len(CACHE_PRIMES))]
        form, aut = self.tg1[p][i % len(self.tg1[p])]  # |Aut| sets the work, so the class is not drawn
        u = _unimodular(rng, i)
        g = orc.transform(form, u)
        if kind == "reduce":
            return ["reduce", orc.form_str(g)], _reduced_check(g, form)
        if kind == "reduce-elongated":
            target = (1, 1, 1000 + int(x * 19001), 0, 0, 0)
            g = orc.transform(target, u)
            return ["reduce", orc.form_str(g)], _reduced_check(g, target)
        if kind == "equiv":
            if i % 10 < 3:  # inequivalent classes of one genus
                several = [q for q in CACHE_PRIMES if len(self.tg1[q]) > 1]
                classes = self.tg1[several[int(x * len(several))]]
                (f1, _), (f2, _) = classes[i % len(classes)], classes[(i + 1) % len(classes)]
                h = orc.transform(f2, _unimodular(rng, i + 1))
                return ["equiv", orc.form_str(orc.transform(f1, u)), orc.form_str(h)], _equiv_check(None, None)
            h = orc.transform(form, _unimodular(rng, i + 1))
            return ["equiv", orc.form_str(g), orc.form_str(h)], _equiv_check(g, h)
        if kind == "auts":
            return ["auts", orc.form_str(g)], _auts_check(g, aut)
        if kind == "count":
            n = 1 + int(x * 1000)
            g = orc.transform((1, 1, 1, 0, 0, 0), u)
            return ["count", orc.form_str(g), str(n)], _field_check("count", self.r3[n])
        if kind == "density":
            # v_q(n) sets the modulus the counter needs, so it is fixed by the
            # index, not drawn: per prime, a third of the queries have v_q(n) = 1.
            q = (3, 5, 7)[i % 3]
            v = int(i // 3 % 3 == 2)
            m = 1 + int(x * 1000 // q**v)
            while m % q == 0:
                m += 1
            n = m * q**v
            g = orc.transform((1, 1, 1, 0, 0, 0), u)
            d = orc.density_sum_of_three_squares_odd(n, q)
            return ["density", orc.form_str(g), str(n), str(q)], _field_check("density", _frac(d))
        if kind == "mass":
            return ["mass", "TG2", str(p)], _mass_check(p)
        if kind == "phi":
            return ["phi", orc.form_str(g)], _phi_check(p, self.tg2[p])
        raise ValueError(kind)


def _unimodular(rng, i: int) -> tuple:
    """A random unimodular U whose largest entry is 2, 3, 4 or 5, by index.

    How skewed U leaves a form sets much of the work of a query, so the
    skew is fixed by the index, not drawn."""
    size = 2 + i % 4
    while True:
        u = orc.random_unimodular(rng)
        if max(abs(v) for row in u for v in row) == size:
            return u


def invoke(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def cli_check(check):
    """A nonzero exit code fails the query; otherwise the parsed JSON is checked."""

    def run(answer, _):
        code, text = answer
        return 1 if code != 0 else int(not check(json.loads(text)))

    return run


def _frac(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _reduced_check(g, target):
    def check(data):
        w = data["witness"]
        return data["reduced"] == orc.form_str(target) and orc.transform(g, w) == target and abs(orc.det3(w)) == 1

    return check


def _equiv_check(g, h):
    def check(data):
        if g is None:
            return data["equivalent"] is False and data["witness"] is None
        w = data["witness"]
        return data["equivalent"] is True and orc.transform(g, w) == h and abs(orc.det3(w)) == 1

    return check


def _auts_check(g, aut):
    def check(data):
        elements = {tuple(map(tuple, e)) for e in data["elements"]}
        return (
            data["order"] == aut == len(elements)
            and all(orc.transform(g, e) == g and abs(orc.det3(e)) == 1 for e in elements)
        )

    return check


def _field_check(field, expected):
    return lambda data: data[field] == expected


def _mass_check(p):
    return lambda data: data["mass"] == _frac(orc.genus_mass(p)) and data["match"] is True


def _phi_check(p, tg2):
    def check(data):
        image = data["image"]
        return image in tg2 and orc.discriminant(orc.parse_form(image)) == 16 * p * p

    return check


# -- verify-all (one-shot stage profile, not a gated workload) ----------------

class VerifyAll:
    def setup(self, workdir: str, seed: int, watch) -> None:
        self.path = _fresh(os.path.join(workdir, "verify-all-cache.json"))

    def run(self, ledger: Ledger) -> None:
        cache = genus.GenusCache(self.path)
        ledger.call("verify_all", 1, lambda: verify.verify_all(cache=cache), lambda r, _: int(not r["pass"]))

    def after(self, ledger: Ledger) -> dict:
        return {}


WORKLOADS = {
    "genus-sweep": GenusSweep,
    "density-sweep": DensitySweep,
    "cli-queries": CliQueries,
    "verify-all": VerifyAll,
}
