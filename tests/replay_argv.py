"""Seeded `tqf` argv for the `replay-...` rows of `data/pins.json`.

`draws(seed, n)` gives n argv for each of the 13 commands, drawn from the
seed alone (this module imports nothing from the program, so one seed gives
the same argv on every checkout): valid and invalid forms, JSON and TSV, `=`
spellings and abbreviations of the options, bad labels, non-primes, work
limits from 10^5 to 10^8 and, for `verify`, small `--n-max` with `verify all`
once.  `fixture(cwd)` makes what the drawn `--cache` values name: a corrupt
cache file and a directory in place of one; a cache named under a directory
that does not exist cannot be written, and `genus.json` starts absent.
`pins.py` says how a row runs and digests one command's argv.
"""

from __future__ import annotations

import random
from pathlib import Path

# Classes of TG1 and TG2 for small p, x^2+y^2+z^2 and a form of discriminant 6.
BASE_FORMS = (
    (1, 1, 3, 0, 0, 1),
    (2, 2, 2, 1, 1, -1),
    (1, 2, 7, 0, 0, 1),
    (1, 3, 11, 0, 0, 1),
    (3, 4, 4, 3, 2, -2),
    (2, 5, 5, 3, 1, -1),
    (4, 3, 4, 0, 4, 0),
    (2, 2, 2, -1, 1, 1),
    (7, 8, 8, -4, 8, 8),
    (4, 11, 12, 0, 4, 0),
    (1, 1, 1, 0, 0, 0),
    (1, 1, 2, 0, 0, 1),
)
# Not a definite form, or not a form at all.
BAD_FORMS = ("1,2,3", "1,1,1,0,0,x", "1,-1,0,0,0,0", "0,1,1,0,0,0", "1,1,1,0,0,0,0", "", "-1,-1,-1,0,0,0", "1,1,1,2,2,2")
PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61)
NON_PRIMES = ("1", "2", "9", "15", "0", "-7", "x", "49")


def transformed(form, rng, skew):
    """form under a random unimodular product of shears with entries up to skew."""
    a, b, c, d, e, f = form
    g = [[2 * a, f, e], [f, 2 * b, d], [e, d, 2 * c]]
    for _ in range(rng.randint(0, 4)):
        i, j = rng.sample(range(3), 2)
        t = rng.randint(-skew, skew)
        # basis vector i -> e_i + t e_j: row and column i gain t times j
        for k in range(3):
            g[i][k] += t * g[j][k]
        for k in range(3):
            g[k][i] += t * g[k][j]
    perm = rng.sample(range(3), 3)
    g = [[g[r][s] for s in perm] for r in perm]
    return ",".join(map(str, (g[0][0] // 2, g[1][1] // 2, g[2][2] // 2, g[1][2], g[0][2], g[0][1])))


def rarely(rng, good, bad, share=0.1):
    """good, or one of bad in a share of the draws."""
    return rng.choice(bad) if rng.random() < share else good


def form_arg(rng, bases=BASE_FORMS):
    if rng.random() < 0.1:
        return rng.choice(BAD_FORMS)
    if rng.random() < 0.15:
        # an elongated form <1, 1, c>
        return transformed((1, 1, rng.randint(1000, 20000), 0, 0, 0), rng, 2)
    return transformed(rng.choice(bases), rng, rng.randint(1, 3))


def prime_arg(rng):
    return rarely(rng, str(rng.choice(PRIMES)), NON_PRIMES)


def option(rng, flag, value):
    """flag and value as one of the spellings argparse takes: in full, with
    `=`, or abbreviated."""
    style = rng.random()
    if style < 0.2:
        return [f"{flag}={value}"]
    if style < 0.35 and len(flag) > 3:
        return [flag[: rng.randint(3, len(flag) - 1)], value]
    return [flag, value]


def options(rng):
    """Top-level options in a random order, and the work limit they set."""
    chosen, limit = [], None
    if rng.random() < 0.5:
        chosen.append(option(rng, "--format", rarely(rng, rng.choice(("json", "tsv")), ("xml",), 0.05)))
    if rng.random() < 0.5:
        chosen.append(option(rng, "--cache", rarely(rng, "genus.json", ("bad.json", "unreadable", "no-such-dir/genus.json", ""))))
    if rng.random() < 0.5:
        limit = rng.choice((10 ** rng.randint(5, 8), rng.randint(1, 9) * 10 ** rng.randint(5, 7)))
        value = rarely(rng, str(limit), ("0", "-5", "x"), 0.05)
        limit = limit if value == str(limit) else None
        chosen.append(option(rng, "--work-limit", value))
    if rng.random() < 0.1:
        chosen.append(option(rng, "--threads", rarely(rng, rng.choice(("1", "4")), ("y",))))
    if rng.random() < 0.02:
        chosen.append(["--nope"])
    rng.shuffle(chosen)
    return [token for opt in chosen for token in opt], limit


def verify_argv(rng):
    target = rarely(rng, rng.choice(("thm1.1", "thm1.2", "thm1.3", "thm1.3", "density")), ("thm9",), 0.05)
    argv = ["verify", target]
    if target == "thm1.3" or rng.random() < 0.1:
        if rng.random() < 0.95:
            argv += option(rng, "--p", rarely(rng, prime_arg(rng), ("73",)))
    if target.startswith("thm1") or rng.random() < 0.1:
        n_max = rarely(rng, str(rng.randint(1, 100 if target == "thm1.3" else 300)), ("0", "-3"), 0.05)
        argv += option(rng, "--n-max", n_max)
    return argv


def size_arg(rng, limit, small, heavy):
    """A size up to small, or, when a work limit of at most 10^8 is set, one
    whose work is past any such limit (so it is refused before it starts),
    or a bad size."""
    if limit is not None and rng.random() < 0.2:
        return str(heavy)
    return rarely(rng, str(rng.randint(0, small)), ("-1", "x"))


def command_argv(name, rng, limit):
    if name in ("disc", "reduce", "auts"):
        return [name, form_arg(rng)]
    if name == "phi":
        # Phi takes forms of odd discriminant, such as the TG1 classes
        return [name, form_arg(rng, BASE_FORMS[:6])]
    if name == "phi-inv":
        # Phi images of TG1 classes and other forms
        return [name, form_arg(rng, BASE_FORMS[6:10] if rng.random() < 0.7 else BASE_FORMS)]
    if name == "count":
        return [name, form_arg(rng), size_arg(rng, limit, 200000, 10**9)]
    if name == "theta":
        return [name, form_arg(rng), size_arg(rng, limit, 2000, 10**6)]
    if name == "equiv":
        base = rng.choice(BASE_FORMS)
        other = base if rng.random() < 0.5 else rng.choice(BASE_FORMS)
        return [name, transformed(base, rng, 2), rarely(rng, transformed(other, rng, 2), BAD_FORMS)]
    if name in ("genus", "mass"):
        return [name, rarely(rng, rng.choice(("TG1", "TG2")), ("TG3", "tg1", "TG", "")), prime_arg(rng)]
    if name == "lambda":
        return [name, form_arg(rng), rarely(rng, str(rng.randint(2, 12)), ("0", "1", "-1", "1001"))]
    if name == "density":
        p = rarely(rng, rng.choice((2, 3, 5, 7, 11)), (4, 9, 1, 0))
        n = rng.choice((rng.randint(1, 500), p ** rng.randint(1, 12) * rng.randint(1, 9) if p > 1 else 1))
        return [name, form_arg(rng), rarely(rng, str(n), ("0", "-2"), 0.05), str(p)]
    return verify_argv(rng)


COMMANDS = ("disc", "reduce", "count", "theta", "auts", "equiv", "genus", "mass", "phi", "phi-inv", "lambda", "density", "verify")


def draws(seed: int, n: int) -> dict[str, list[list[str]]]:
    """{command: [argv, ...]}, n argv for each of COMMANDS, drawn in order
    from one generator seeded with seed."""
    rng = random.Random(seed)
    out = {}
    verify_all_at = rng.randrange(n) if n else None
    for name in COMMANDS:
        argvs = out[name] = []
        for i in range(n):
            prefix, limit = options(rng)
            if name == "verify" and i == verify_all_at:
                rest = ["verify", "all"]
            elif rng.random() < 0.03:
                rest = [name, "--help"]
            else:
                rest = command_argv(name, rng, limit)
            argvs.append(prefix + rest)
    return out


def fixture(cwd: str) -> None:
    """The files that the drawn `--cache` values name, made in cwd."""
    Path(cwd, "bad.json").write_text('{"TG1,11":[[1,3,11,0,0,1],[1,3,12,1,2,1]]}')
    Path(cwd, "unreadable").mkdir()
