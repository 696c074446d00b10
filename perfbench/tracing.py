"""Span recorder for the traced benchmark run.

`install()` replaces each public layer function with a recording wrapper at
every module attribute of the package that refers to it (modules use
`from .x import y`, so patching the defining module alone would miss
callers).  The untraced run never calls `install()`, so it runs the program
unmodified.

A span is [name, parent index, start, end, info].  Spans stay in memory and
are written out once, at the end of the run.  Self time is a span's
duration minus the time its children cover; calls are strictly nested
because the program is single threaded.
"""

from __future__ import annotations

import functools
import gzip
import json
import os
import statistics
import sys
import time
from collections import Counter

# (module, attribute, span name).  Methods are given as "Class.method".
TARGETS = [
    ("counting", "theta", "counting.theta"),
    ("counting", "rep_count", "counting.rep_count"),
    ("counting", "vectors_with_value", "counting.vectors_with_value"),
    ("counting", "s_batch", "counting.s_batch"),
    ("reduction", "reduce_form", "reduction.reduce_form"),
    ("isometry", "automorphs", "isometry.automorphs"),
    ("isometry", "equivalent", "isometry.equivalent"),
    ("local", "local_density", "local.local_density"),
    ("local", "count_solutions_mod", "local.count_solutions_mod"),
    ("genus", "enumerate_tg1", "genus.enumerate_tg1"),
    ("genus", "build_tg2", "genus.build_tg2"),
    ("genus", "GenusCache.__init__", "genus.cache.load"),
    ("genus", "GenusCache.get", "genus.cache.get"),
    ("genus", "GenusCache.put", "genus.cache.put"),
    ("watson", "phi", "watson.phi"),
    ("watson", "lambda_m", "watson.lambda_m"),
    ("watson", "transport_automorph", "watson.transport_automorph"),
    ("verify", "verify_theorem_1_1", "verify.verify_theorem_1_1"),
    ("verify", "verify_theorem_1_2", "verify.verify_theorem_1_2"),
    ("verify", "verify_theorem_1_3", "verify.verify_theorem_1_3"),
    ("verify", "density_suites", "verify.density_suites"),
    ("verify", "verify_density_theorems", "verify.verify_density_theorems"),
    ("verify", "watson_suite", "verify.watson_suite"),
    ("verify", "mass_suite", "verify.mass_suite"),
    ("verify", "verify_all", "verify.verify_all"),
    ("cli", "main", "cli.main"),
]

POINT_CALLERS = ("theta", "rep_count", "vectors_with_value", "reduce_form")
VERIFY_STAGES = (
    "verify_theorem_1_1",
    "verify_theorem_1_2",
    "verify_theorem_1_3",
    "watson_suite",
    "mass_suite",
    "density_suites",
)
CLI_COMMANDS = ("reduce", "equiv", "auts", "count", "density", "mass", "phi")


def _modulus_info(args, kwargs, result, exc):
    p = args[2] if len(args) > 2 else kwargs["p"]
    t = args[3] if len(args) > 3 else kwargs["t"]
    return {"p": p, "q": p**t, "exc": type(exc).__name__ if exc else None}


def _classes_info(args, kwargs, result, exc):
    return len(result.classes) if exc is None else 0


def _load_info(args, kwargs, result, exc):
    cache = args[0]
    return bool(cache.path) and os.path.exists(cache.path)


def _hit_info(args, kwargs, result, exc):
    return result is not None


def _bytes_info(args, kwargs, result, exc):
    cache = args[0]
    return os.path.getsize(cache.path) if exc is None and cache.path else 0


def _command_info(args, kwargs, result, exc):
    argv = args[0] if args else kwargs.get("argv") or []
    return next((tok for tok in argv if tok in CLI_COMMANDS), None)


def _prime_info(args, kwargs, result, exc):
    return args[0] if args else kwargs.get("p")


INFO = {
    "verify.verify_theorem_1_3": _prime_info,
    "local.count_solutions_mod": _modulus_info,
    "genus.enumerate_tg1": _classes_info,
    "genus.cache.load": _load_info,
    "genus.cache.get": _hit_info,
    "genus.cache.put": _bytes_info,
    "cli.main": _command_info,
}


class Recorder:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.points: Counter = Counter()

    def wrap(self, name, fn):
        spans, stack, info = self.spans, self.stack, INFO.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, clock(), 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            exc = result = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                rec[3] = clock()
                stack.pop()
                if info is not None:
                    rec[4] = info(args, kwargs, result, exc)

        return wrapper

    def wrap_points(self, gen_fn):
        """Count what the enumeration generator yields, per calling span."""
        spans, stack, points = self.spans, self.stack, self.points

        @functools.wraps(gen_fn)
        def wrapper(*args, **kwargs):
            caller = spans[stack[-1]][0].rsplit(".", 1)[1] if stack else "none"
            n = 0
            try:
                for item in gen_fn(*args, **kwargs):
                    n += 1
                    yield item
            finally:
                points[caller] += n

        return wrapper

    def install(self) -> None:
        package = sys.modules["ternaryforms"]
        modules = [m for k, m in sys.modules.items() if k == "ternaryforms" or k.startswith("ternaryforms.")]
        replacements = []
        for mod_name, attr, span_name in TARGETS:
            module = getattr(package, mod_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, meth, self.wrap(span_name, getattr(cls, meth)))
            else:
                original = getattr(module, attr)
                replacements.append((original, self.wrap(span_name, original)))
        gen = package.counting.half_points_up_to
        replacements.append((gen, self.wrap_points(gen)))
        for original, wrapper in replacements:
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)

    def dump(self, path: str) -> None:
        with gzip.open(path, "wt") as fh:
            for i, (name, parent, start, end, info) in enumerate(self.spans):
                fh.write(json.dumps([self.run_id, i, parent, name, start, end, info]) + "\n")

    # -- derived metrics ----------------------------------------------------

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for name, parent, start, end, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[i] for i, (_, _, start, end, _) in enumerate(self.spans)]

    def metrics(self) -> dict[str, float]:
        selfs = self.self_times()
        calls: Counter = Counter()
        self_s: Counter = Counter()
        for (name, *_), st in zip(self.spans, selfs):
            calls[name] += 1
            self_s[name] += st
        out: dict[str, float] = {}

        points = sum(self.points.values())
        out["counting.points"] = points
        for caller in POINT_CALLERS:
            out[f"counting.points.{caller}"] = self.points[caller]
        for fn in ("theta", "rep_count", "vectors_with_value", "s_batch"):
            out[f"counting.{fn}.calls"] = calls[f"counting.{fn}"]
            out[f"counting.{fn}.self_s"] = self_s[f"counting.{fn}"]
        enum_s = sum(self_s[f"counting.{fn}"] for fn in POINT_CALLERS[:3]) + self_s["reduction.reduce_form"]
        out["counting.points_per_s"] = points / enum_s if enum_s else 0.0

        durations = [end - start for name, _, start, end, _ in self.spans if name == "reduction.reduce_form"]
        out["reduction.reduce_form.calls"] = calls["reduction.reduce_form"]
        out["reduction.reduce_form.self_s"] = self_s["reduction.reduce_form"]
        out["reduction.reduce_form.max_ms"] = 1000 * max(durations, default=0.0)

        for fn in ("automorphs", "equivalent"):
            out[f"isometry.{fn}.calls"] = calls[f"isometry.{fn}"]
            out[f"isometry.{fn}.self_s"] = self_s[f"isometry.{fn}"]

        out["local.local_density.calls"] = calls["local.local_density"]
        out["local.local_density.self_s"] = self_s["local.local_density"]
        counts = [(span[4], st) for span, st in zip(self.spans, selfs) if span[0] == "local.count_solutions_mod"]
        buckets = Counter()
        for info, st in counts:
            q = info["q"]
            if info["p"] == 2:
                buckets["p2"] += st
            elif q < 10**4:
                buckets["q_lt_1e4"] += st
            elif q < 10**5:
                buckets["q_1e4_1e5"] += st
            else:
                buckets["q_ge_1e5"] += st
        out["local.count_solutions_mod.calls"] = len(counts)
        out["local.count_solutions_mod.self_s"] = self_s["local.count_solutions_mod"]
        out["local.count_solutions_mod.max_modulus"] = max((info["q"] for info, _ in counts), default=0)
        for key in ("p2", "q_lt_1e4", "q_1e4_1e5", "q_ge_1e5"):
            out[f"local.count_solutions_mod.{key}.self_s"] = buckets[key]
        out["local.resource_limit_errors"] = sum(
            1 for info, _ in counts if info["exc"] == "ResourceLimitError"
        )

        for fn in ("enumerate_tg1", "build_tg2"):
            out[f"genus.{fn}.calls"] = calls[f"genus.{fn}"]
            out[f"genus.{fn}.self_s"] = self_s[f"genus.{fn}"]
        out["genus.reduce_per_class"] = self._reduce_per_class()
        puts = [span[4] for span in self.spans if span[0] == "genus.cache.put"]
        out["genus.cache.put.calls"] = len(puts)
        out["genus.cache.put.self_s"] = self_s["genus.cache.put"]
        out["genus.cache.bytes_written"] = sum(puts)
        loads = [(span[4], span[3] - span[2]) for span in self.spans if span[0] == "genus.cache.load"]
        out["genus.cache.loads"] = sum(1 for loaded, _ in loads if loaded)
        out["genus.cache.load_s"] = sum(dt for loaded, dt in loads if loaded)
        hits = [span[4] for span in self.spans if span[0] == "genus.cache.get"]
        out["genus.cache.hit_ratio"] = sum(hits) / len(hits) if hits else 0.0

        for fn in ("phi", "lambda_m", "transport_automorph"):
            out[f"watson.{fn}.calls"] = calls[f"watson.{fn}"]
            out[f"watson.{fn}.self_s"] = self_s[f"watson.{fn}"]

        for fn in VERIFY_STAGES:
            out[f"verify.{fn}.self_s"] = self_s[f"verify.{fn}"]

        out["cli.main.calls"] = calls["cli.main"]
        out["cli.main.self_s"] = self_s["cli.main"]
        for cmd in CLI_COMMANDS:
            ms = [1000 * (s[3] - s[2]) for s in self.spans if s[0] == "cli.main" and s[4] == cmd]
            out[f"cli.main.{cmd}.p50_ms"] = statistics.median(ms) if ms else 0.0
        return out

    def _reduce_per_class(self) -> float:
        """reduce_form calls made inside enumerate_tg1, per class it found."""
        inside = {i for i, span in enumerate(self.spans) if span[0] == "genus.enumerate_tg1"}
        classes = sum(self.spans[i][4] for i in inside)
        calls = 0
        for name, parent, *_ in self.spans:
            if name == "reduction.reduce_form" and parent in inside:
                calls += 1
        return calls / classes if classes else 0.0

    def stages(self, name: str) -> list[tuple[str, object, float]]:
        """(name, info, inclusive seconds) of each direct child of the first `name` span."""
        top = next((i for i, span in enumerate(self.spans) if span[0] == name), None)
        return [(s[0], s[4], s[3] - s[2]) for s in self.spans if top is not None and s[1] == top]

    def stage_table(self) -> list[tuple[str, int, float, float]]:
        """(name, calls, inclusive seconds, self seconds) for every span name."""
        selfs = self.self_times()
        rows: dict[str, list] = {}
        for (name, _, start, end, _), st in zip(self.spans, selfs):
            row = rows.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += end - start
            row[2] += st
        return sorted(((k, *v) for k, v in rows.items()), key=lambda r: -r[3])
