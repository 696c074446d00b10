"""Pinned `tqf` outputs in one table, and the one checker that reads it.

`data/pins.json` is a list of rows, one per line, each with a `name` (its
test id) and of one of two kinds.  A row of the first kind holds `argv` and
the expected `exit` code, and any of:
- `stdout`, the exact text, or `stdout_sha256`, the SHA-256 of its UTF-8 bytes;
- `stdout_has` and `stderr_has`, text the stream must contain;
- `files`, {file name: text} written into the row's directory first (a
  corrupt cache file);
- `before`, argv lists run first and not checked (to warm a cache file);
- `why`, a note for the reader.
A replay row, `replay-<command>-seed<seed>`, holds `replay` (one of the 13
commands), `seed` and `n`, and pins `exits` (each exit code seen, with its
count) and `sha256`.  It runs the n argv that `replay_argv.draws(seed, n)`
gives that command, in order, with `COLUMNS=80` (argparse wraps help to the
terminal) in a directory that holds `replay_argv.fixture`; `sha256` is taken
over one JSON line [argv, exit, stdout, stderr] per argv.  Any argv that
exits 1 (an identity reported disproved) or 4 (an internal error) fails the
row, named in a form a shell takes.
Each row runs alone in a fresh temporary directory, so the cache files its
argv names are relative and no row sees another row's files.

Two runners call `check`:
- `test_pins.py`, in Tier-1: one test per row, through `cli.main` in
  process (`pytest -k pins`, or one row: `pytest -k 'pins[verify-all]'`);
- this file as a script, `python3 tests/pins.py` (no arguments): every row
  through the `tqf` on PATH, one process per run, so the installed console
  entry point is covered.  It prints each failing row's name and what
  differs, and exits 1 if any row fails.

The rows named `golden-...` were `data/cli_golden.json`: the stdout and exit
code of 114 `reduce`, `auts`, `phi`, `genus` and `mass` commands, recorded at
commit 8da1ea4 (and again when p = 101 came within reach), for the four H
forms, the TG1 classes of p <= 29 in a skewed basis, <1,1,c> in a skewed
basis for c from 2 to 20000, and `genus`/`mass` of TG1 and TG2 at p <= 29,
p = 101 and p = 9 (exit 2).  That file is merged into this table, so that one
row format and one checker hold every pin.  Its rows keep their exact stdout,
and each `genus`/`mass` case is three rows: uncached, into a fresh cache file
(`-fresh-cache`) and from that file (`-warm-cache`).

To record outputs that are meant to change, run
`PYTHONPATH=src python3 tests/test_pins.py` from the root of the repository.
It rewrites the `stdout` and `stdout_sha256` of every row, and the `exits`
and `sha256` of every replay row, from this checkout and leaves every other
key as it is; read the diff of `data/pins.json`, and name each row it
changes in CHANGES.md.
"""

import contextlib
import hashlib
import json
import os
import shlex
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path
from unittest.mock import patch

import replay_argv

PINS = Path(__file__).resolve().parent / "data" / "pins.json"
KEYS = {"name", "why", "files", "before", "argv", "exit", "stdout", "stdout_sha256", "stdout_has", "stderr_has"}
REPLAY_KEYS = {"name", "replay", "seed", "n", "exits", "sha256"}


def rows() -> list[dict]:
    return json.loads(PINS.read_text())


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run(row: dict, invoke) -> list[tuple[list[str], int, str, str]]:
    """(argv, exit, stdout, stderr) of each argv that row checks, each run as
    invoke(argv, cwd) in one fresh directory: row's argv after its files and
    its before, or a replay row's drawn argv in its fixture."""
    replay = "replay" in row
    columns = patch.dict(os.environ, {"COLUMNS": "80"}) if replay else contextlib.nullcontext()
    with tempfile.TemporaryDirectory() as cwd, columns:
        if replay:
            replay_argv.fixture(cwd)
            argvs = replay_argv.draws(row["seed"], row["n"])[row["replay"]]
        else:
            for name, text in row.get("files", {}).items():
                Path(cwd, name).write_text(text)
            for argv in row.get("before", []):
                invoke(argv, cwd)
            argvs = [row["argv"]]
        return [(argv, *invoke(argv, cwd)) for argv in argvs]


def _replay_pins(runs) -> dict:
    """A replay row's `exits` and `sha256` from its runs."""
    exits = Counter(str(code) for _, code, _, _ in runs)
    lines = "".join(json.dumps(result) + "\n" for result in runs)
    return {"exits": dict(sorted(exits.items())), "sha256": _sha256(lines)}


def check(row: dict, invoke) -> list[str]:
    """What differs from row's pins when invoke runs it; [] when all hold."""
    keys = REPLAY_KEYS if "replay" in row else KEYS
    problems = [f"unknown keys {sorted(set(row) - keys)}"] if set(row) - keys else []
    runs = run(row, invoke)
    if "replay" in row:
        problems += [f"exit {code}: tqf {shlex.join(argv)}: {err.strip()}" for argv, code, _, err in runs if code in (1, 4)]
        got = _replay_pins(runs)
        problems += [f"{key} {got[key]}, pinned {row[key]}" for key in got if got[key] != row[key]]
        return problems
    [(_, code, out, err)] = runs
    if code != row["exit"]:
        problems.append(f"exit {code}, pinned {row['exit']}; stderr {err!r}")
    if "stdout" in row and out != row["stdout"]:
        problems.append(f"stdout {out!r}, pinned {row['stdout']!r}")
    if "stdout_sha256" in row and _sha256(out) != row["stdout_sha256"]:
        problems.append(f"stdout SHA-256 {_sha256(out)}, pinned {row['stdout_sha256']}")
    for stream, text in (("stdout", out), ("stderr", err)):
        if f"{stream}_has" in row and row[f"{stream}_has"] not in text:
            problems.append(f"{stream} {text!r} lacks {row[f'{stream}_has']!r}")
    return problems


def record(invoke) -> None:
    """Rewrite every row's stdout and stdout_sha256, and every replay row's
    exits and sha256, from invoke's runs."""
    table = rows()
    for row in table:
        runs = run(row, invoke)
        if "replay" in row:
            row.update(_replay_pins(runs))
            continue
        out = runs[0][2]
        if "stdout" in row:
            row["stdout"] = out
        if "stdout_sha256" in row:
            row["stdout_sha256"] = _sha256(out)
    PINS.write_text("[\n" + ",\n".join(json.dumps(row) for row in table) + "\n]\n")


def tqf(argv: list[str], cwd: str) -> tuple[int, str, str]:
    """The `tqf` console script on PATH, run in cwd."""
    proc = subprocess.run(["tqf", *argv], cwd=cwd, capture_output=True)
    return proc.returncode, proc.stdout.decode(), proc.stderr.decode()


def main() -> int:
    table, failed = rows(), 0
    for row in table:
        problems = check(row, tqf)
        for problem in problems:
            print(f"{row['name']}: {problem}")
        failed += bool(problems)
    print(f"{len(table) - failed} of {len(table)} pinned rows hold")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
