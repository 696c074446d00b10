"""Replay seeded argv through `tqf` in process and print one digest per command.

    python3 replay/run.py --seed 1 --n 20

For each of the 13 commands the script draws N argv from the seed alone
(it imports nothing from the program to do so, so one seed gives the same
argv on every checkout): valid and invalid forms, JSON and TSV, `=`
spellings and abbreviations of the options, bad labels, non-primes, work
limits from 10^5 to 10^8 and, for `verify`, small `--n-max` with
`verify all` once.  Each argv runs through `ternaryforms.cli.main` of the
checkout this script sits in, from a fresh temporary directory that holds a
shared genus cache file, a corrupt one and a directory in place of one;
one more cache is named under a directory that does not exist, so it
cannot be written.  One line per command gives its name, the exit codes
seen and the SHA-256 of every (argv, exit code, stdout, stderr) in order.
Two checkouts answer alike on the replayed argv when their lines agree.

The script exits 1 if any argv exits 1 (an identity reported disproved) or
4 (an internal error), and names those argv on stderr; otherwise 0.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ternaryforms.cli import main as tqf  # noqa: E402

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
        chosen.append(option(rng, "--cache", rarely(rng, "genus.json", ("bad.json", "unreadable", "no-such-dir/genus.json"))))
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


def replay(seed: int, n: int):
    """{command: [(argv, exit code, stdout, stderr), ...]} for one seed, run
    from the current directory."""
    rng = random.Random(seed)
    records = {}
    verify_all_at = rng.randrange(n) if n else None
    for name in COMMANDS:
        runs = records[name] = []
        for i in range(n):
            prefix, limit = options(rng)
            if name == "verify" and i == verify_all_at:
                rest = ["verify", "all"]
            elif rng.random() < 0.03:
                rest = [name, "--help"]
            else:
                rest = command_argv(name, rng, limit)
            argv = prefix + rest
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = tqf(argv)
            runs.append((argv, code, out.getvalue(), err.getvalue()))
    return records


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--n", type=int, required=True, help="argv per command")
    args = parser.parse_args(argv)
    os.environ["COLUMNS"] = "80"  # argparse wraps help and usage to the terminal
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            Path("bad.json").write_text('{"TG1,11":[[1,3,11,0,0,1],[1,3,12,1,2,1]]}')
            Path("unreadable").mkdir()
            records = replay(args.seed, args.n)
        finally:
            os.chdir(here)
    bad = []
    for name, runs in records.items():
        digest = hashlib.sha256()
        for run in runs:
            digest.update(json.dumps(run).encode() + b"\n")
            if run[1] in (1, 4):
                bad.append(run)
        exits = Counter(code for _, code, _, _ in runs)
        codes = ",".join(f"{code}:{count}" for code, count in sorted(exits.items()))
        print(f"{name}\t{len(runs)}\texits {codes}\t{digest.hexdigest()}")
    for argv, code, _, err in bad:
        print(f"exit {code}: {' '.join(argv)}: {err.strip()}", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
