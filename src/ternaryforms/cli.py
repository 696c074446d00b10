"""Command line front end.

Exit codes: 0 success (and identity checks passing), 1 identity failure,
2 usage error (including a bad form, a non-prime p and an unreadable or
corrupt genus cache), 3 resource limit exceeded, 4 internal error (any other
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

from .counting import rep_count, theta
from .forms import WORK_LIMIT, FormError, TernaryForm, discriminant
from .genus import GenusCache, mass_closed_form
from .isometry import automorphs, equivalent
from .local import ResourceLimitError, local_density
from .reduction import reduce_form
from .verify import (
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


def _jsonable(obj):
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, TernaryForm):
        return str(obj)
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def _emit(data: dict, fmt: str) -> None:
    data = _jsonable(data)
    try:
        if fmt == "json":
            print(json.dumps(data, indent=1))
        else:
            for key, value in data.items():
                if isinstance(value, list):
                    value = ";".join(str(v) for v in value)
                print(f"{key}\t{value}")
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader stopped early (`tqf ... | head`).  Point stdout at
        # /dev/null so the flush at interpreter exit cannot fail again; the
        # exit code still reports the computation.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The `tqf` parser, built on the first `main` call and reused by every
    later one in the process; `parse_args` returns a fresh Namespace each time."""
    top = argparse.ArgumentParser(
        prog="tqf", description="Exact arithmetic for positive ternary quadratic forms."
    )
    top.add_argument("--format", choices=("json", "tsv"), default="json")
    top.add_argument("--cache", help="path to the genus cache JSON file")
    top.add_argument(
        "--threads",
        type=int,
        default=1,
        help="upper bound on worker threads (computation is sequential)",
    )
    top.add_argument("--work-limit", type=int, default=None, help="units of work any one step may do (default 10^9)")
    sub = top.add_subparsers(dest="command", required=True)

    def with_form(name, help_):
        p = sub.add_parser(name, help=help_)
        p.add_argument("form", help="sextuple a,b,c,d,e,f")
        return p

    with_form("disc", "discriminant of a form")
    with_form("reduce", "canonical reduced representative and witness")
    p = with_form("count", "representation count R(n)")
    p.add_argument("n", type=int)
    p = with_form("theta", "representation counts R(0..bound)")
    p.add_argument("bound", type=int)
    with_form("auts", "automorph group")
    p = sub.add_parser("equiv", help="equivalence test with witness")
    p.add_argument("form1")
    p.add_argument("form2")
    p = sub.add_parser("genus", help="enumerate TG1 or TG2 for an odd prime")
    p.add_argument("label", choices=("TG1", "TG2"))
    p.add_argument("p", type=int)
    p = sub.add_parser("mass", help="genus mass, enumerated and closed form")
    p.add_argument("label", choices=("TG1", "TG2"))
    p.add_argument("p", type=int)
    with_form("phi", "image under the doubling map Phi")
    with_form("phi-inv", "preimage under Phi")
    p = with_form("lambda", "Watson lambda_m transform")
    p.add_argument("m", type=int)
    p = with_form("density", "p-adic local density at n")
    p.add_argument("n", type=int)
    p.add_argument("p", type=int)
    p = sub.add_parser("verify", help="exact verification of the excess identities")
    p.add_argument(
        "target",
        choices=("thm1.1", "thm1.2", "thm1.3", "density", "all"),
    )
    p.add_argument("--p", type=int, default=None, help="prime for thm1.3")
    p.add_argument("--n-max", type=int, default=None)
    return top


def _run(args) -> int:
    if args.work_limit is not None and args.work_limit < 1:
        raise _UsageError("--work-limit must be >= 1")
    WORK_LIMIT.set(args.work_limit or WORK_LIMIT.get())
    fmt = args.format
    cmd = args.command
    if cmd == "disc":
        form = TernaryForm.parse(args.form)
        _emit({"form": form, "disc": discriminant(form)}, fmt)
        return EXIT_OK
    if cmd == "reduce":
        form = TernaryForm.parse(args.form)
        canon, witness = reduce_form(form)
        _emit({"form": form, "reduced": canon, "witness": witness}, fmt)
        return EXIT_OK
    if cmd == "count":
        form = TernaryForm.parse(args.form)
        if args.n < 0:
            raise _UsageError("n must be nonnegative")
        _emit({"form": form, "n": args.n, "count": rep_count(form, args.n)}, fmt)
        return EXIT_OK
    if cmd == "theta":
        form = TernaryForm.parse(args.form)
        vec = theta(form, args.bound)
        _emit({"form": form, "bound": args.bound, "counts": list(vec.counts)}, fmt)
        return EXIT_OK
    if cmd == "auts":
        form = TernaryForm.parse(args.form)
        group = automorphs(form)
        _emit(
            {"form": form, "order": group.order, "elements": [list(map(list, u)) for u in group.elements]},
            fmt,
        )
        return EXIT_OK
    if cmd == "equiv":
        f1 = TernaryForm.parse(args.form1)
        f2 = TernaryForm.parse(args.form2)
        witness = equivalent(f1, f2)
        _emit(
            {
                "form1": f1,
                "form2": f2,
                "equivalent": witness is not None,
                "witness": witness,
            },
            fmt,
        )
        return EXIT_OK
    if cmd in ("genus", "mass"):
        cache = GenusCache(args.cache)
        genus = cache.tg1(args.p) if args.label == "TG1" else cache.tg2(args.p)
    if cmd == "genus":
        classes = [{"form": f, "aut": aut} for f, aut in genus.classes]
        _emit({"label": genus.label, "p": genus.prime, "classes": classes, "mass": genus.mass}, fmt)
        return EXIT_OK
    if cmd == "mass":
        _emit(
            {
                "label": args.label,
                "p": args.p,
                "mass": genus.mass,
                "closed_form": mass_closed_form(args.p),
                "match": genus.mass == mass_closed_form(args.p),
            },
            fmt,
        )
        return EXIT_OK
    if cmd == "phi":
        form = TernaryForm.parse(args.form)
        _emit({"form": form, "image": phi(form)}, fmt)
        return EXIT_OK
    if cmd == "phi-inv":
        form = TernaryForm.parse(args.form)
        _emit({"form": form, "preimage": phi_inverse(form)}, fmt)
        return EXIT_OK
    if cmd == "lambda":
        form = TernaryForm.parse(args.form)
        _emit({"form": form, "m": args.m, "image": lambda_m(form, args.m)}, fmt)
        return EXIT_OK
    if cmd == "density":
        form = TernaryForm.parse(args.form)
        if args.n < 1:
            raise _UsageError("n must be >= 1")
        res = local_density(form, args.n, args.p)
        _emit(
            {
                "form": form,
                "n": args.n,
                "p": args.p,
                "density": res.value,
                "exponent_used": res.exponent_used,
            },
            fmt,
        )
        return EXIT_OK
    if cmd == "verify":
        if args.p is not None and args.target != "thm1.3":
            raise _UsageError(f"--p applies only to verify thm1.3, not {args.target}")
        if args.n_max is not None and not args.target.startswith("thm"):
            raise _UsageError(f"--n-max applies only to verify thm1.x, not {args.target}")
        n_max = args.n_max if args.n_max is not None else 200 if args.target == "thm1.3" else 1000
        if n_max < 1:
            raise _UsageError("--n-max must be >= 1")
        if args.target == "thm1.1":
            report = verify_theorem_1_1(n_max).to_dict()
        elif args.target == "thm1.2":
            report = verify_theorem_1_2(n_max).to_dict()
        elif args.target == "thm1.3":
            if args.p is None:
                raise _UsageError("verify thm1.3 requires --p")
            report = verify_theorem_1_3(args.p, n_max, GenusCache(args.cache)).to_dict()
        elif args.target == "density":
            report = verify_density_theorems()
        else:
            report = verify_all(cache=GenusCache(args.cache))
        _emit(report, fmt)
        return EXIT_OK if report["pass"] else EXIT_FAIL
    raise _UsageError(f"unknown command {cmd}")


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
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
    except Exception as exc:
        # A crash must not read as a disproved identity (exit 1).
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
