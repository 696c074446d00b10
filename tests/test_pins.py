"""Every row of `data/pins.json` through `cli.main` in process, one test per row.

`pins.py` says what a row holds.  Run as a script from the root of the
repository, `PYTHONPATH=src python3 tests/test_pins.py` records the rows'
`stdout` and `stdout_sha256` again from this checkout; do that only when an
output is meant to change.
"""

import contextlib
import io
import os

import pytest

import pins
from ternaryforms import cli


def in_process(argv, cwd):
    out, err, home = io.StringIO(), io.StringIO(), os.getcwd()
    os.chdir(cwd)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        os.chdir(home)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("row", pins.rows(), ids=lambda row: row["name"])
def test_pins(row):
    assert pins.check(row, in_process) == []


if __name__ == "__main__":
    pins.record(in_process)
