"""`tqf reduce`, `auts`, `phi`, `genus` and `mass`, replayed byte for byte.

`data/cli_golden.json` holds the argv, exit code and stdout of every command
that `_record_cases` builds:
- `reduce`, `auts` and `phi` of the four H forms, and of each TG1 class for
  p <= 29 in a skewed basis;
- `reduce` and `auts` of <1,1,c> in a skewed basis, from c = 2 to 20000;
- `genus` and `mass` of TG1 and TG2 for p <= 29 and p = 101, and for p = 9,
  which exits 2.

It was recorded at commit 8da1ea4, and again when p = 101 came within reach
(its four cases went from exit 2 to 0), by running this file as a script
from the root of the repository:

    PYTHONPATH=src python tests/test_cli_golden.py

Record it again only when an output is meant to change, and say which in
CHANGES.md.  The replay runs every `genus` and `mass` command three times:
without a cache, into a fresh cache file, and from that file.
"""

import contextlib
import io
import json
from pathlib import Path

from ternaryforms import cli
from ternaryforms.forms import TernaryForm, apply_map
from ternaryforms.genus import enumerate_tg1

FIXTURE = Path(__file__).resolve().parent / "data" / "cli_golden.json"

H_FORMS = ("31,5,11,1,-14,6", "15,14,10,7,4,16", "11,7,20,7,2,4", "7,11,21,11,2,4")
PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29)
SKEWS = (
    ((1, 2, 0), (0, 1, -1), (0, 0, 1)),
    ((1, 0, 3), (0, 1, 1), (0, 0, 1)),
    ((2, 1, 0), (1, 1, 0), (3, -2, 1)),
    ((0, 1, 0), (-1, 3, 2), (1, -2, -1)),
)


def _invoke(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def _record_cases():
    classes = [form for p in PRIMES for form, _ in enumerate_tg1(p).classes]
    forms = list(H_FORMS) + [str(apply_map(f, SKEWS[k % 4])) for k, f in enumerate(classes)]
    argvs = [[cmd, form] for form in forms for cmd in ("reduce", "auts", "phi")]
    for k, c in enumerate((2, 5, 97, 1000, 20000)):
        form = str(apply_map(TernaryForm(1, 1, c, 0, 0, 0), SKEWS[k % 4]))
        argvs += [["reduce", form], ["auts", form]]
    argvs += [[cmd, label, str(p)] for p in PRIMES + (9, 101) for cmd in ("genus", "mass") for label in ("TG1", "TG2")]
    return [dict(zip(("argv", "exit", "stdout"), (argv, *_invoke(argv)))) for argv in argvs]


def test_cli_output_matches_the_recording(tmp_path):
    cache = str(tmp_path / "genus.json")
    cases = json.loads(FIXTURE.read_text())
    assert len(cases) == 114
    mismatched = []
    for case in cases:
        argv = case["argv"]
        runs = [argv] + [["--cache", cache, *argv]] * 2 * (argv[0] in ("genus", "mass"))
        mismatched += [run for run in runs if _invoke(run) != (case["exit"], case["stdout"])]
    assert mismatched == []


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(_record_cases(), indent=0) + "\n")
