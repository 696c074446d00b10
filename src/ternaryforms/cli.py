"""Command line front end.

Each subcommand is declared once, by `_command` on the function that builds
its report, each `verify` target once, as a row of `VERIFY_TARGETS`, and
each top-level option once, as a row of `OPTIONS`; the genus labels are the
keys of `genus.GENERA`, each read by `GenusCache.read`. An argv of the
plain shape (options spelled in full, each with its value, then a command
and exactly its positionals) is parsed from those tables in one pass
(`_table_args`); argparse parses everything else, so help, every usage
message, abbreviations and `--opt=value` spellings are argparse's own. A
report is written in one pass over it (`_json`), byte-identical to
json.dumps(report, indent=1) with each Fraction and TernaryForm given as
its string; `--format tsv` writes one line per field.

Exit codes: 0 success (and identity checks passing), 1 identity failure,
2 usage error (including a bad form, a non-prime p and an unreadable,
unwritable or corrupt genus cache), 3 resource limit exceeded (a step
refused by the work limit, or a MemoryError), 4 internal error (any other
exception, reported in one line on stderr).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from contextvars import copy_context
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from .counting import rep_count, theta
from .forms import WORK_LIMIT, FormError, TernaryForm, discriminant
from .genus import GENERA, GenusCache, mass_closed_form
from .isometry import automorphs, equivalent
from .local import ResourceLimitError, local_density
from .reduction import reduce_form
from .verify import (
    N_IDENTITIES,
    verify_all,
    verify_density_theorems,
    verify_theorem_1_1,
    verify_theorem_1_2,
    verify_theorem_1_3,
)
from .watson import lambda_m, phi, phi_inverse

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_INTERNAL = 4


class _UsageError(Exception):
    pass


# A Fraction is written as the string "num/den" (a whole number keeps its
# "/1") and a TernaryForm as the string of its sextuple.
_TEXT = {Fraction: lambda q: f"{q.numerator}/{q.denominator}", TernaryForm: str}

# The other scalars, as json.dumps writes them.
_SCALARS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def _text(obj) -> str:
    """The string of a Fraction or TernaryForm (json's `default` hook)."""
    if type(obj) not in _TEXT:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
    return _TEXT[type(obj)](obj)


def _json(obj, pad: str) -> str:
    """json.dumps(obj, indent=1) for obj nested where a new line starts with
    pad, in one pass; a tuple is written as a list and a dict's keys are str."""
    scalar = _SCALARS.get(type(obj))
    if scalar is not None:
        return scalar(obj)
    inner = pad + " "
    if type(obj) is dict:
        items = [f"{encode_basestring_ascii(k)}: {_json(v, inner)}" for k, v in obj.items()]
        opening, closing = "{", "}"
    elif type(obj) in (list, tuple):
        items = [_json(v, inner) for v in obj]
        opening, closing = "[", "]"
    else:
        return encode_basestring_ascii(_text(obj))
    if not items:
        return opening + closing
    return opening + inner + ("," + inner).join(items) + pad + closing


def _tsv_field(value) -> str:
    """A nested value as compact JSON, any other as its string."""
    if type(value) in (dict, list, tuple):
        return json.dumps(value, separators=(",", ":"), default=_text)
    return _TEXT.get(type(value), str)(value)


def _emit(data: dict, fmt: str) -> None:
    """Write the report as JSON, exactly json.dumps(report, indent=1) with a
    Fraction or TernaryForm as its string, or as TSV lines."""
    try:
        if fmt == "json":
            print(_json(data, "\n"))
        else:
            for key, value in data.items():
                fields = value if type(value) in (list, tuple) else [value]
                print(f"{key}\t" + ";".join(map(_tsv_field, fields)))
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader stopped early (`tqf ... | head`).  Point stdout at
        # /dev/null so the flush at interpreter exit cannot fail again; the
        # exit code still reports the computation.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


# Each top-level option: its flag and its `add_argument` keywords, dest and
# default among them.
OPTIONS = {
    "--format": {"dest": "format", "choices": ("json", "tsv"), "default": "json"},
    "--cache": {"dest": "cache", "default": None, "help": "path to the genus cache JSON file"},
    "--threads": {
        "dest": "threads",
        "type": int,
        "default": 1,
        "help": "upper bound on worker threads (computation is sequential)",
    },
    "--work-limit": {
        "dest": "work_limit",
        "type": int,
        "default": None,
        "help": "units of work any one step may do (default 10^9)",
    },
}

COMMANDS: dict[str, tuple] = {}
FORM = ("form", {"help": "sextuple a,b,c,d,e,f"})
INT = {"type": int}
LABEL = ("label", {"choices": GENERA})


def _command(name, help_, *arguments):
    """Declare `tqf name`: its help, its (name, `add_argument` keywords) pairs
    and, as the decorated function of the parsed arguments, its report."""

    def declare(report):
        COMMANDS[name] = (help_, arguments, report)
        return report

    return declare


@_command("disc", "discriminant of a form", FORM)
def _disc(args):
    form = TernaryForm.parse(args.form)
    return {"form": form, "disc": discriminant(form)}


@_command("reduce", "canonical reduced representative and witness", FORM)
def _reduce(args):
    form = TernaryForm.parse(args.form)
    canon, witness = reduce_form(form)
    return {"form": form, "reduced": canon, "witness": witness}


@_command("count", "representation count R(n)", FORM, ("n", INT))
def _count(args):
    form = TernaryForm.parse(args.form)
    if args.n < 0:
        raise _UsageError("n must be nonnegative")
    return {"form": form, "n": args.n, "count": rep_count(form, args.n)}


@_command("theta", "representation counts R(0..bound)", FORM, ("bound", INT))
def _theta(args):
    form = TernaryForm.parse(args.form)
    return {"form": form, "bound": args.bound, "counts": theta(form, args.bound)}


@_command("auts", "automorph group", FORM)
def _auts(args):
    form = TernaryForm.parse(args.form)
    group = automorphs(form)
    return {"form": form, "order": len(group), "elements": group}


@_command("equiv", "equivalence test with witness", ("form1", {}), ("form2", {}))
def _equiv(args):
    f1 = TernaryForm.parse(args.form1)
    f2 = TernaryForm.parse(args.form2)
    witness = equivalent(f1, f2)
    return {"form1": f1, "form2": f2, "equivalent": witness is not None, "witness": witness}


@_command("genus", f"enumerate {' or '.join(GENERA)} for an odd prime", LABEL, ("p", INT))
def _genus(args):
    genus = GenusCache(args.cache).read(args.label, args.p)
    classes = [{"form": f, "aut": aut} for f, aut in genus.classes]
    return {"label": genus.label, "p": genus.prime, "classes": classes, "mass": genus.mass}


@_command("mass", "genus mass, enumerated and closed form", LABEL, ("p", INT))
def _mass(args):
    mass, closed = GenusCache(args.cache).read(args.label, args.p).mass, mass_closed_form(args.p)
    return {"label": args.label, "p": args.p, "mass": mass, "closed_form": closed, "match": mass == closed}


@_command("phi", "image under the doubling map Phi", FORM)
def _phi(args):
    form = TernaryForm.parse(args.form)
    return {"form": form, "image": phi(form)}


@_command("phi-inv", "preimage under Phi", FORM)
def _phi_inv(args):
    form = TernaryForm.parse(args.form)
    return {"form": form, "preimage": phi_inverse(form)}


@_command("lambda", "Watson lambda_m transform", FORM, ("m", INT))
def _lambda(args):
    form = TernaryForm.parse(args.form)
    return {"form": form, "m": args.m, "image": lambda_m(form, args.m)}


@_command("density", "p-adic local density at n", FORM, ("n", INT), ("p", INT))
def _density(args):
    form = TernaryForm.parse(args.form)
    if args.n < 1:
        raise _UsageError("n must be >= 1")
    res = local_density(form, args.n, args.p)
    return {"form": form, "n": args.n, "p": args.p, "density": res.value, "exponent_used": res.exponent_used}


# target: (takes and so requires --p, default --n-max or None if it refuses
# --n-max, report of the parsed arguments and n_max)
VERIFY_TARGETS = {
    "thm1.1": (False, N_IDENTITIES, lambda args, n_max: verify_theorem_1_1(n_max).to_dict()),
    "thm1.2": (False, N_IDENTITIES, lambda args, n_max: verify_theorem_1_2(n_max).to_dict()),
    "thm1.3": (True, 200, lambda args, n_max: verify_theorem_1_3(args.p, n_max, GenusCache(args.cache)).to_dict()),
    "density": (False, None, lambda args, n_max: verify_density_theorems()),
    "all": (False, None, lambda args, n_max: verify_all(cache=GenusCache(args.cache))),
}


def _takers(column: int) -> str:
    """The targets whose row takes the flag of column 0 (--p) or 1 (--n-max), comma separated."""
    return ", ".join(t for t, row in VERIFY_TARGETS.items() if row[column] not in (False, None))


@_command(
    "verify",
    "exact verification of the excess identities",
    ("target", {"choices": VERIFY_TARGETS}),
    ("--p", {"type": int, "help": f"odd prime, for verify {_takers(0)}"}),
    ("--n-max", {"type": int, "help": f"largest n checked, for verify {_takers(1)}"}),
)
def _verify(args):
    takes_p, n_max, report = VERIFY_TARGETS[args.target]
    if args.p is not None and not takes_p:
        raise _UsageError(f"--p applies only to verify {_takers(0)}, not {args.target}")
    if args.n_max is not None:
        if n_max is None:
            raise _UsageError(f"--n-max applies only to verify {_takers(1)}, not {args.target}")
        if args.n_max < 1:
            raise _UsageError("--n-max must be >= 1")
        n_max = args.n_max
    if takes_p and args.p is None:
        raise _UsageError(f"verify {args.target} requires --p")
    return report(args, n_max)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The `tqf` parser, from `OPTIONS` and `COMMANDS`, for the argv that
    `_table_args` does not take: help, usage errors and spellings such as
    `--cach` or `--format=tsv`. It is built on the first such call and reused
    by every later one in the process; `parse_args` returns a fresh Namespace
    each time."""
    top = argparse.ArgumentParser(
        prog="tqf", description="Exact arithmetic for positive ternary quadratic forms."
    )
    for flag, kwargs in OPTIONS.items():
        top.add_argument(flag, **kwargs)
    sub = top.add_subparsers(dest="command", required=True)
    for name, (help_, arguments, report) in COMMANDS.items():
        p = sub.add_parser(name, help=help_)
        for arg, kwargs in arguments:
            p.add_argument(arg, **kwargs)
        p.set_defaults(report=report)
    return top


def _table_value(token, kwargs):
    """token as argparse reads the value of the argument declared by kwargs;
    ValueError where argparse might read it otherwise (a token that is not a
    str or starts with "-") or would refuse it."""
    if not isinstance(token, str) or token.startswith("-"):
        raise ValueError(token)
    value = kwargs["type"](token) if "type" in kwargs else token
    if "choices" in kwargs and value not in kwargs["choices"]:
        raise ValueError(token)
    return value


def _table_args(argv: list) -> argparse.Namespace | None:
    """The Namespace `_build_parser().parse_args(argv)` returns, read from
    `OPTIONS` and `COMMANDS` in one pass, or None unless argv has the plain
    shape: top-level options spelled in full, each followed by its value, then
    a command without options and exactly its positionals, where no value
    starts with "-" and every value converts and is among its choices."""
    values = {kwargs["dest"]: kwargs["default"] for kwargs in OPTIONS.values()}
    try:
        i = 0
        while argv[i] in OPTIONS:
            kwargs = OPTIONS[argv[i]]
            values[kwargs["dest"]] = _table_value(argv[i + 1], kwargs)
            i += 2
        values["command"] = argv[i]
        _, arguments, values["report"] = COMMANDS[argv[i]]
        if len(argv) - i - 1 != len(arguments):
            return None
        for (dest, kwargs), token in zip(arguments, argv[i + 1 :]):
            if dest.startswith("-"):
                return None
            values[dest] = _table_value(token, kwargs)
    except (IndexError, KeyError, TypeError, ValueError):
        # argv ends early, names no command, holds an unhashable token, or
        # has a value argparse might read otherwise or would refuse.
        return None
    args = argparse.Namespace()
    vars(args).update(values)  # a quarter of the cost of Namespace(**values)
    return args


def _run(args) -> int:
    if args.work_limit is not None and args.work_limit < 1:
        raise _UsageError("--work-limit must be >= 1")
    WORK_LIMIT.set(args.work_limit or WORK_LIMIT.get())
    report = args.report(args)
    _emit(report, args.format)
    return EXIT_OK if report.get("pass", True) else EXIT_FAIL


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _table_args(argv)
    if args is None:
        try:
            args = _build_parser().parse_args(argv)
        except SystemExit as exc:
            return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return copy_context().run(_run, args)  # the work limit _run sets ends here
    except (_UsageError, FormError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except MemoryError:
        # A work limit raised with --work-limit can admit a step whose
        # memory the host lacks; that is a resource limit, not a crash.
        print(
            "error: MemoryError: the host has too little memory for this step; "
            "a lower --work-limit refuses it before it starts",
            file=sys.stderr,
        )
        return EXIT_RESOURCE
    except Exception as exc:
        # A crash must not read as a disproved identity (exit 1).
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
