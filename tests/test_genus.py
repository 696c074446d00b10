import contextlib
import errno
import importlib
import io
import json
import os
import stat
import sys
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ternaryforms import cli
from ternaryforms import genus as genus_module
from ternaryforms.forms import FormError, TernaryForm, apply_map, discriminant, is_positive_definite, is_primitive
from ternaryforms.genus import (
    GENERA,
    GenusCache,
    GenusSet,
    IncompletenessError,
    build_tg2,
    enumerate_tg1,
    mass_closed_form,
)
from ternaryforms.isometry import automorphs, equivalent
from ternaryforms.local import is_prime
from ternaryforms.matrices import mat_mul, unimodular_inverse
from ternaryforms.reduction import _canonical_bases, reduce_form
from ternaryforms.verify import SUITE_PRIMES, verify_theorem_1_3
from ternaryforms.watson import _phi_raw, phi

KNOWN_TG1 = {
    3: [((1, 1, 3, 0, 0, 1), 24)],
    5: [((2, 2, 2, 1, 1, -1), 12)],
    7: [((1, 2, 7, 0, 0, 1), 8)],
    11: [((1, 3, 11, 0, 0, 1), 8), ((3, 4, 4, 3, 2, -2), 12)],
    13: [((2, 5, 5, 3, 1, -1), 4)],
}


@pytest.mark.parametrize("p", sorted(KNOWN_TG1))
def test_known_small_genera(p):
    genus = enumerate_tg1(p)
    assert [(f.coeffs, aut) for f, aut in genus.classes] == KNOWN_TG1[p]
    assert genus.mass == Fraction(p - 1, 48)


def test_mass_closed_form():
    assert mass_closed_form(73) == Fraction(3, 2)
    for p in (4, 9, 2, 1):
        with pytest.raises(FormError):
            mass_closed_form(p)


def test_rejects_bad_p():
    with pytest.raises(FormError):
        enumerate_tg1(9)
    with pytest.raises(FormError):
        enumerate_tg1(2)
    assert enumerate_tg1(101).mass == mass_closed_form(101)  # no prime bound


def test_classes_are_primitive_and_inequivalent():
    genus = enumerate_tg1(11)
    for f, _ in genus.classes:
        assert is_primitive(f)
        assert discriminant(f) == 121
    (f1, _), (f2, _) = genus.classes
    assert equivalent(f1, f2) is None


def test_tg2_construction():
    tg1 = enumerate_tg1(11)
    tg2 = build_tg2(tg1)
    assert tg2.prime == 11
    assert tg2.mass == tg1.mass
    for f, aut in tg2.classes:
        assert discriminant(f) == 16 * 121
        assert is_primitive(f)
    assert sorted(a for _, a in tg2.classes) == sorted(a for _, a in tg1.classes)
    with pytest.raises(FormError):
        build_tg2(tg2)
    # TG1(11) with its two |Aut| values, 8 and 12, swapped.
    (f1, aut1), (f2, aut2) = tg1.classes
    changed = "automorph order changed under Phi: 1,3,11,0,0,1 has 12, image 4,11,12,0,4,0 has 8"
    with pytest.raises(FormError, match=f"^{changed}$"):
        build_tg2(GenusSet("TG1", 11, ((f1, aut2), (f2, aut1))))


def test_cache_checks_tg2_against_the_tg1_it_holds():
    # The cache reads TG2's forms from TG1's rows and, holding TG1, passes
    # its orders along: TG1(11) with |Aut| 8 and 12 swapped is refused.
    (f1, aut1), (f2, aut2) = enumerate_tg1(11).classes
    cache = GenusCache(None)
    cache.put(GenusSet("TG1", 11, ((f1, aut2), (f2, aut1))))
    changed = "automorph order changed under Phi: 1,3,11,0,0,1 has 12, image 4,11,12,0,4,0 has 8"
    with pytest.raises(FormError) as info:
        cache.tg2(11)
    assert str(info.value) == f"genus cache entry {changed}; cache corrupt"


@pytest.mark.parametrize("label", ["TG3", "tg2"])
def test_cache_refuses_an_unknown_genus_label(label):
    # Holding TG1(11), whose rows any genus of GENERA is read from, the cache
    # still names no genus by a label outside the table.
    cache = GenusCache(None)
    tg1 = cache.tg1(11)
    refusal = f"^no genus '{label}'; the genera are TG1, TG2$"
    with pytest.raises(FormError, match=refusal):
        cache.get(label, 11)
    with pytest.raises(FormError, match=refusal):
        cache.read(label, 11)
    with pytest.raises(FormError, match=refusal):
        cache.put(GenusSet(label, 11, tg1.classes))
    assert list(genus_module.GENERA) == ["TG1", "TG2"]
    assert cache.get("TG2", 11).classes == build_tg2(tg1).classes


@pytest.mark.parametrize("path", [None, "genus.json"])
def test_get_misses_until_the_tg1_rows_are_held(tmp_path, monkeypatch, path):
    # `get` never builds a genus: it returns None for every label until TG1's
    # rows are put, and the held genus after.
    path = path and str(tmp_path / path)
    cache = GenusCache(path)
    calls = count_calls(monkeypatch, "genus", "enumerate_tg1")
    assert cache.get("TG1", 11) is None
    assert cache.get("TG2", 11) is None
    assert calls == []
    assert list(tmp_path.iterdir()) == []
    monkeypatch.undo()
    tg1 = enumerate_tg1(11)
    cache.put(tg1)
    assert cache.get("TG1", 11) is tg1
    assert cache.get("TG2", 11) == build_tg2(tg1)
    assert cache.get("TG1", 13) is None and cache.get("TG2", 13) is None


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61])
def test_tg2_reads_image_and_aut_off_one_reduction(p, monkeypatch):
    tg1 = enumerate_tg1(p)
    calls = count_calls(monkeypatch, "reduction", "_canonical_bases")
    tg2 = build_tg2(tg1)
    assert len(calls) == len(tg1.classes)
    monkeypatch.undo()
    # Each image is phi of its class, with the |Aut| of the automorph group.
    expected = sorted((phi(f), len(automorphs(phi(f)))) for f, _ in tg1.classes)
    assert list(tg2.classes) == expected
    assert [aut for _, aut in tg2.classes] == [len(automorphs(f)) for f, _ in tg2.classes]


def test_cache_round_trip(tmp_path):
    path = tmp_path / "genus.json"
    cache = GenusCache(str(path))
    built = {(label, p): cache.tg1(p) if label == "TG1" else cache.tg2(p)
             for label, p in [("TG1", 7), ("TG1", 3), ("TG1", 11), ("TG2", 11)]}
    assert path.exists()
    # a fresh cache object reads the stored data without re-enumerating
    cache2 = GenusCache(str(path))
    for (label, p), g in built.items():
        g2 = cache2.get(label, p)
        assert g2 is not None
        assert g2.classes == g.classes
        assert g2.mass == mass_closed_form(p)
    assert cache2.tg1(7).classes == built["TG1", 7].classes
    assert cache2.tg2(11).classes == built["TG2", 11].classes


def test_failed_cache_write_leaves_no_temporary_file(tmp_path, monkeypatch):
    def refuse(src, dst):
        raise PermissionError(errno.EACCES, "Permission denied", src)

    monkeypatch.setattr(genus_module.os, "replace", refuse)
    path = tmp_path / "genus.json"
    with pytest.raises(FormError) as info:
        GenusCache(str(path)).tg1(5)
    assert str(info.value) == f"cannot write genus cache {path}: Permission denied"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("mode", [0o644, 0o600, 0o640])
def test_cache_put_keeps_the_file_mode(tmp_path, mode):
    path = tmp_path / "genus.json"
    GenusCache(str(path)).tg1(5)
    path.chmod(mode)
    GenusCache(str(path)).tg1(7)
    assert stat.S_IMODE(path.stat().st_mode) == mode
    assert json.loads(path.read_text()).keys() == {"TG1,5", "TG1,7"}


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o027])
def test_a_new_cache_file_takes_the_umask_mode(tmp_path, umask):
    path = tmp_path / "genus.json"
    old = os.umask(umask)
    try:
        GenusCache(str(path)).tg1(5)
    finally:
        os.umask(old)
    assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~umask


def test_cache_write_never_reads_the_umask(tmp_path, monkeypatch):
    # The umask is process-wide: setting it, even to read it, would change
    # the mode of files other threads create meanwhile.
    def refuse(mask):
        raise AssertionError(f"os.umask({mask:#o}) called")

    path = tmp_path / "genus.json"
    old = os.umask(0o027)
    monkeypatch.setattr(genus_module.os, "umask", refuse)
    try:
        GenusCache(str(path)).tg1(5)
        assert stat.S_IMODE(path.stat().st_mode) == 0o640
        path.chmod(0o604)
        GenusCache(str(path)).tg1(7)
    finally:
        monkeypatch.undo()
        os.umask(old)
    assert stat.S_IMODE(path.stat().st_mode) == 0o604
    assert json.loads(path.read_text()).keys() == {"TG1,5", "TG1,7"}


def test_cache_write_leaves_a_taken_temporary_name_alone(tmp_path, monkeypatch):
    # The temporary file is created exclusively: a file that already has its
    # name is neither written over nor removed.
    monkeypatch.setattr(genus_module.os, "urandom", lambda n: bytes(n))
    taken = tmp_path / f"tmp{bytes(6).hex()}.tmp"
    taken.write_text("not the cache's")
    path = tmp_path / "genus.json"
    with pytest.raises(FormError) as info:
        GenusCache(str(path)).tg1(5)
    assert str(info.value) == f"cannot write genus cache {path}: File exists"
    assert list(tmp_path.iterdir()) == [taken]
    assert taken.read_text() == "not the cache's"


def test_a_directory_that_refuses_the_create_is_left_empty(tmp_path, monkeypatch):
    def refuse(file, mode="r", *args, **kwargs):
        if "x" in mode:
            raise PermissionError(errno.EACCES, "Permission denied", file)
        return open(file, mode, *args, **kwargs)

    monkeypatch.setattr(genus_module, "open", refuse, raising=False)
    path = tmp_path / "genus.json"
    with pytest.raises(FormError) as info:
        GenusCache(str(path)).tg1(5)
    assert str(info.value) == f"cannot write genus cache {path}: Permission denied"
    assert list(tmp_path.iterdir()) == []


def test_an_empty_cache_path_is_refused(tmp_path, monkeypatch):
    # None alone means no file; "" is refused before anything is read or built.
    monkeypatch.chdir(tmp_path)
    calls = count_calls(monkeypatch, "genus", "enumerate_tg1")
    with pytest.raises(FormError, match="^the genus cache path is empty; name a file$"):
        GenusCache("")
    assert calls == []
    assert list(tmp_path.iterdir()) == []


def _interrupt_at_line_event(codes, k):
    """A trace function that raises KeyboardInterrupt at the k-th line event
    of the frames of the code objects in codes (and then, having raised, is
    unset)."""
    seen = 0

    def local(frame, event, arg):
        nonlocal seen
        if event == "line":
            seen += 1
            if seen == k:
                raise KeyboardInterrupt
        return local

    return lambda frame, event, arg: local if frame.f_code in codes else None


@pytest.mark.parametrize("existing", [False, True], ids=["new-file", "existing-file"])
def test_an_interrupted_cache_write_leaves_the_old_or_the_new_file(tmp_path, existing):
    # A KeyboardInterrupt at each line event of put in turn, raised from
    # sys.settrace where a signal would land only where the interpreter checks
    # for one: it reaches the caller, no temporary file is left, and the
    # cache file holds its old bytes or its new ones.
    tg1_5, tg1_7 = enumerate_tg1(5), enumerate_tg1(7)
    reference, old = tmp_path / "reference.json", None
    if existing:
        GenusCache(str(reference)).put(tg1_5)
        old = reference.read_bytes()
    GenusCache(str(reference)).put(tg1_7)
    new = reference.read_bytes()
    k, tracing = 0, sys.gettrace()
    while True:
        k += 1
        where = tmp_path / str(k)
        where.mkdir()
        path = where / "genus.json"
        if existing:
            path.write_bytes(old)
        cache = GenusCache(str(path))
        sys.settrace(_interrupt_at_line_event({GenusCache.put.__code__}, k))
        try:
            cache.put(tg1_7)
        except KeyboardInterrupt:
            pass
        else:
            break
        finally:
            sys.settrace(tracing)
        assert [f.name for f in where.iterdir() if f.name != "genus.json"] == [], k
        assert (path.read_bytes() if path.exists() else None) in (old, new), k
    assert k > 10 and path.read_bytes() == new


@pytest.mark.parametrize("label", ["TG1", "TG2"])
@pytest.mark.parametrize("held", [None, 5, 7], ids=["new-file", "other-rows", "its-rows"])
def test_an_interrupted_cache_read_answers_as_a_fresh_cache_does(tmp_path, label, held):
    # A KeyboardInterrupt at each line event of read, and of the get and put
    # calls it makes, in turn, on a cache file that is missing, holds the rows
    # of another prime, or holds the rows asked for: the next read on the same
    # instance answers as a fresh instance does, no temporary file is left, and
    # the cache file holds its old bytes or its new ones.
    reference, old = tmp_path / "reference.json", None
    if held is not None:
        GenusCache(str(reference)).put(enumerate_tg1(held))
        old = reference.read_bytes()
    expected = GenusCache(str(reference)).read(label, 7)
    new = reference.read_bytes()
    codes = {GenusCache.read.__code__, GenusCache.get.__code__, GenusCache.put.__code__}
    k, tracing = 0, sys.gettrace()
    while True:
        k += 1
        where = tmp_path / str(k)
        where.mkdir()
        path = where / "genus.json"
        if held is not None:
            path.write_bytes(old)
        cache = GenusCache(str(path))
        sys.settrace(_interrupt_at_line_event(codes, k))
        try:
            genus = cache.read(label, 7)
        except KeyboardInterrupt:
            pass
        else:
            break
        finally:
            sys.settrace(tracing)
        assert [f.name for f in where.iterdir() if f.name != "genus.json"] == [], k
        assert (path.read_bytes() if path.exists() else None) in (old, new), k
        again, fresh = cache.read(label, 7), GenusCache(str(path)).read(label, 7)
        assert again == fresh == expected, k
    assert k > 5 and genus == expected and path.read_bytes() == new


def _answer(call):
    """("ok", call()) or ("refused", the FormError's message)."""
    try:
        return "ok", call()
    except FormError as exc:
        return "refused", str(exc)


@pytest.mark.parametrize("held", ["existing", "missing", "corrupt"])
def test_an_interrupted_cache_open_answers_as_a_fresh_cache_does(tmp_path, held):
    # A KeyboardInterrupt at each line event of GenusCache.__init__ in turn,
    # on a file that holds TG1(7), is missing, or is not JSON: the next
    # instance answers as a fresh one does, the file keeps its bytes and no
    # temporary file is left.
    reference = tmp_path / "reference.json"
    if held == "existing":
        GenusCache(str(reference)).put(enumerate_tg1(7))
    elif held == "corrupt":
        reference.write_text('{"TG1,7": [[1,2,7,0,0,1]')
    old = reference.read_bytes() if reference.exists() else None
    paths = []

    def answer(k):
        """The answer of a fresh instance on directory k's file, with its path left out."""
        kind, value = _answer(lambda: GenusCache(str(paths[k])).read("TG2", 7))
        return kind, value.replace(str(paths[k]), "<path>") if kind == "refused" else value

    k, tracing = -1, sys.gettrace()
    while True:
        k += 1
        where = tmp_path / str(k)
        where.mkdir()
        paths.append(path := where / "genus.json")
        if old is not None:
            path.write_bytes(old)
        if k == 0:
            expected = answer(0)
            assert expected[0] == ("refused" if held == "corrupt" else "ok")
            continue
        sys.settrace(_interrupt_at_line_event({GenusCache.__init__.__code__}, k))
        try:
            GenusCache(str(path))
        except (KeyboardInterrupt, FormError) as exc:
            interrupted = isinstance(exc, KeyboardInterrupt)
        else:
            interrupted = False
        finally:
            sys.settrace(tracing)
        if not interrupted:
            break
        assert (path.read_bytes() if path.exists() else None) == old, k
        assert answer(k) == expected, k
        assert [f.name for f in where.iterdir()] == ["genus.json"], k
    assert k > 3


class _PackageCode:
    """Holds the code object of every function of the package (for
    `_interrupt_at_line_event`)."""

    def __contains__(self, code):
        return code.co_filename.startswith(os.path.dirname(genus_module.__file__))


def test_an_interrupted_warm_mass_query_answers_as_a_fresh_process_does(tmp_path):
    # A KeyboardInterrupt at each line event, in any function of the package,
    # of `tqf --cache f mass TG2 13` on a warm cache file: it reaches the
    # caller, the next run answers as a fresh one does, the file keeps its
    # bytes and no temporary file is left.
    path = tmp_path / "genus.json"
    GenusCache(str(path)).tg1(13)
    old = path.read_bytes()
    argv = ["--cache", str(path), "mass", "TG2", "13"]

    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            return cli.main(argv), out.getvalue()

    expected = run()
    assert expected[0] == 0 and path.read_bytes() == old
    k, tracing = 0, sys.gettrace()
    while True:
        k += 1
        sys.settrace(_interrupt_at_line_event(_PackageCode(), k))
        try:
            answer = run()
        except KeyboardInterrupt:
            pass
        else:
            break
        finally:
            sys.settrace(tracing)
        assert path.read_bytes() == old, k
        assert [f.name for f in tmp_path.iterdir()] == ["genus.json"], k
        assert run() == expected, k
    assert k > 100 and answer == expected and path.read_bytes() == old


def test_a_genus_is_compared_and_hashed_by_its_classes_alone():
    tg1 = enumerate_tg1(11)
    bare = GenusSet("TG1", 11, tg1.classes)
    other = GenusSet("TG1", 11, tg1.classes, sources=tuple(f for f, _ in tg1.classes), witnesses=((),) * 2)
    assert tg1.witnesses and not bare.witnesses and tg1.witnesses != other.witnesses
    assert tg1 == bare == other and hash(tg1) == hash(bare) == hash(other)
    for label, prime, classes in (("TG2", 11, tg1.classes), ("TG1", 13, tg1.classes), ("TG1", 11, tg1.classes[1:])):
        assert tg1 != GenusSet(label, prime, classes)
    assert tg1 != (tg1.label, tg1.prime, tg1.classes)
    assert repr(other) == f"GenusSet(label='TG1', prime=11, classes={tg1.classes!r}, sources={other.sources!r})"
    assert "witnesses" not in repr(tg1)
    with pytest.raises(AttributeError):
        tg1.classes = ()
    assert tg1.mass == Fraction(10, 48)


@given(st.lists(st.one_of(st.sampled_from([1, 2, 3, 4, 6, 8, 12, 16, 24, 48]), st.integers(1, 10**9)), max_size=40))
@example([])
@example([48])
@example([48] * 40)
@settings(max_examples=200, deadline=None)
def test_the_mass_is_the_sum_of_the_inverse_orders(orders):
    # GenusSet.mass is one Fraction over the lcm of the orders; the sum of
    # Fraction(1, |Aut|) it replaced stays as its oracle.
    classes = tuple((TernaryForm(1, 1, k + 1, 0, 0, 0), aut) for k, aut in enumerate(orders))
    assert GenusSet("TG1", 3, classes).mass == sum((Fraction(1, aut) for aut in orders), Fraction(0))


def test_cache_stores_only_the_rows(tmp_path):
    path = tmp_path / "genus.json"
    GenusCache(str(path)).tg2(11)
    assert path.read_text() == '{"TG1,11":[[1,3,11,0,0,1],[3,4,4,3,2,-2]]}'


def test_cache_reads_the_indented_layout(tmp_path):
    # Writes are compact; the reader does not depend on the whitespace, so an
    # indented copy of the same rows loads the same genera.
    path = tmp_path / "genus.json"
    cache = GenusCache(str(path))
    tg2 = cache.tg2(11)
    compact = path.read_text()
    assert "\n" not in compact and ": " not in compact
    path.write_text(json.dumps(json.loads(compact), indent=1))
    reread = GenusCache(str(path))
    assert reread.get("TG1", 11).classes == cache.tg1(11).classes
    assert reread.get("TG2", 11).classes == tg2.classes


def replace_everywhere(monkeypatch, module: str, name: str, new):
    """Put new in place of ternaryforms.<module>.<name> in each package module
    that holds a reference to it; returns the original."""
    original = getattr(importlib.import_module(f"ternaryforms.{module}"), name)
    for key, mod in list(sys.modules.items()):
        if key.split(".")[0] == "ternaryforms" and vars(mod).get(name) is original:
            monkeypatch.setattr(mod, name, new)
    return original


def count_calls(monkeypatch, module: str, name: str) -> list:
    """The argument tuples of every later call of ternaryforms.<module>.<name>,
    through each package module that holds a reference to it."""
    calls = []

    def counting(*args):
        calls.append(args)
        return original(*args)

    original = replace_everywhere(monkeypatch, module, name, counting)
    return calls


def test_file_loaded_genus_is_checked_once_per_instance(tmp_path, monkeypatch):
    path = tmp_path / "genus.json"
    GenusCache(str(path)).tg1(11)
    calls = count_calls(monkeypatch, "reduction", "_canonical_bases")
    cache = GenusCache(str(path))
    first = cache.tg1(11)
    assert cache.tg1(11) is first
    assert cache.get("TG1", 11) is first
    # One canonical reduction per class gives both its check and its |Aut|.
    assert sorted(form for form, in calls) == [form for form, _ in first.classes]


def test_enumeration_reads_aut_off_the_reduction(monkeypatch):
    calls = count_calls(monkeypatch, "isometry", "automorphs")
    genus = enumerate_tg1(29)
    assert calls == []
    assert [aut for _, aut in genus.classes] == [len(automorphs(form)) for form, _ in genus.classes]


def test_cache_detects_corruption(tmp_path):
    path = tmp_path / "genus.json"
    cache = GenusCache(str(path))
    cache.tg1(7)
    data = json.loads(path.read_text())
    data["TG1,7"][0][2] += 1  # 1,2,8,0,0,1: discriminant 56, not 49
    path.write_text(json.dumps(data))
    with pytest.raises(FormError, match="discriminant 49; cache corrupt"):
        GenusCache(str(path)).get("TG1", 7)


@pytest.mark.parametrize(
    "content, reason",
    [
        (b"\x80abc", "'utf-8' codec can't decode byte 0x80 in position 0: invalid start byte"),
        (b"\xff\xfe{}", "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
        (b"\xef\xbb\xbf{}", "Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)"),
    ],
    ids=["not-utf-8", "utf-16-mark", "utf-8-mark"],
)
def test_a_cache_file_that_is_not_utf_8_json_is_refused_with_its_reason(tmp_path, content, reason):
    # The file is read as UTF-8 text: bytes that json.loads would decode by
    # their byte-order mark are refused too, each with the decoder's reason.
    path = tmp_path / "genus.json"
    path.write_bytes(content)
    with pytest.raises(FormError) as info:
        GenusCache(str(path))
    assert str(info.value) == f"cannot read genus cache {path}: {reason}"
    assert path.read_bytes() == content


def test_a_cache_path_that_is_a_directory_is_refused(tmp_path):
    with pytest.raises(FormError) as info:
        GenusCache(str(tmp_path))
    assert str(info.value) == f"cannot read genus cache {tmp_path}: [Errno 21] Is a directory: '{tmp_path}'"
    assert list(tmp_path.iterdir()) == []


def test_a_cache_path_under_a_file_is_empty_and_refused_when_written(tmp_path):
    # No file can be there, so the cache opens empty and the write names the fault.
    (tmp_path / "file").write_text("")
    path = tmp_path / "file" / "genus.json"
    cache = GenusCache(str(path))
    assert cache.get("TG1", 5) is None
    with pytest.raises(FormError) as info:
        cache.tg1(5)
    assert str(info.value) == f"cannot write genus cache {path}: Not a directory"
    assert [f.name for f in tmp_path.iterdir()] == ["file"]


def test_cache_detects_swapped_automorph_orders(tmp_path):
    # The file stores no |Aut|: with the two TG1(11) rows swapped, each form
    # still gets its own order.
    path = tmp_path / "genus.json"
    GenusCache(str(path)).tg1(11)  # classes with |Aut| 8 and 12
    data = json.loads(path.read_text())
    data["TG1,11"].reverse()
    path.write_text(json.dumps(data))
    orders = {form.coeffs: aut for form, aut in GenusCache(str(path)).tg1(11).classes}
    assert orders == dict(KNOWN_TG1[11])


def _corrupt_tg1_11(path, how):
    """Write TG1(11) to the cache file at path, then damage its second class."""
    GenusCache(str(path)).tg1(11)  # 1,3,11,0,0,1 (|Aut| 8) and 3,4,4,3,2,-2 (|Aut| 12)
    data = json.loads(path.read_text())
    rows = data["TG1,11"]
    if how == "wrong-class":
        rows[1] = [2, 2, 2, 1, 1, -1]  # TG1(5)'s class: same |Aut|, mass unchanged
    elif how == "dropped-class":
        del rows[1]  # mass 1/8 left of 5/24
    else:
        rows[1] = rows[1][:5]
    path.write_text(json.dumps(data))


def inject_tg1_29(path, row):
    """Write TG1(29) to the cache file at path, then put row in place of the
    class 3,8,10,1,2,3.  Its other classes are 2,11,11,7,1,-1 and
    3,10,10,9,2,-2; every class has |Aut| 4 but the last, with 12."""
    GenusCache(str(path)).tg1(29)
    data = json.loads(path.read_text())
    rows = data["TG1,29"]
    rows[rows.index([3, 8, 10, 1, 2, 3])] = row
    path.write_text(json.dumps(data))


# Each injection keeps the mass: 2,12,11,8,1,3 is an unreduced form of the
# class 2,11,11,7,1,-1, which has |Aut| 4 like the class it replaces.
INJECTED_TG1_29 = {
    "unreduced": ([2, 12, 11, 8, 1, 3], "holds 2,12,11,8,1,3, not its canonical form 2,11,11,7,1,-1"),
    "repeated": ([2, 11, 11, 7, 1, -1], "holds 2,11,11,7,1,-1 twice"),
}


@pytest.mark.parametrize("how", sorted(INJECTED_TG1_29))
def test_cache_rejects_an_injected_tg1_class(tmp_path, how):
    row, message = INJECTED_TG1_29[how]
    path = tmp_path / "genus.json"
    inject_tg1_29(path, row)
    with pytest.raises(FormError, match=f"{message}; cache corrupt"):
        GenusCache(str(path)).tg1(29)


def test_cache_ignores_a_tg2_entry(tmp_path):
    # 1,2,242,0,0,0 has discriminant 16 * 11^2 and |Aut| 8, like the class
    # 4,11,12,0,4,0 it replaces, but lies outside TG2(11).  TG2 is derived
    # from the TG1 rows, so a "TG2,p" entry is never read.
    path = tmp_path / "genus.json"
    GenusCache(str(path)).tg1(11)
    data = json.loads(path.read_text())
    data["TG2,11"] = [[3, 15, 15, 14, 2, -2], [1, 2, 242, 0, 0, 0]]
    path.write_text(json.dumps(data))
    cache = GenusCache(str(path))
    assert [(f.coeffs, aut) for f, aut in cache.tg2(11).classes] == [((3, 15, 15, 14, 2, -2), 12), ((4, 11, 12, 0, 4, 0), 8)]
    assert verify_theorem_1_3(11, 50, cache).passed


# Each damage to the TG1(11) rows, and the message that refuses TG2(11).
DAMAGED_TG1_11 = {
    "dropped-class": (lambda rows: rows[:1], "has mass 1/8, not 5/24"),
    "one-class-twice": (
        lambda rows: [rows[0], [1, 3, 12, 1, 2, 1]],  # rows[0] in the basis (e_1, e_2, e_1 + e_3)
        "holds 1,3,11,0,0,1 and 1,3,12,1,2,1, of one class",
    ),
    "wrong-discriminant": (
        lambda rows: [rows[0], [3, 4, 5, 3, 2, -2]],
        "holds 3,4,5,3,2,-2, not positive definite of discriminant 121",
    ),
}


@pytest.mark.parametrize("how", sorted(DAMAGED_TG1_11))
def test_damaged_tg1_rows_refuse_tg2(tmp_path, how):
    damage, message = DAMAGED_TG1_11[how]
    path = tmp_path / "genus.json"
    GenusCache(str(path)).tg1(11)
    data = json.loads(path.read_text())
    data["TG1,11"] = damage(data["TG1,11"])
    path.write_text(json.dumps(data))
    with pytest.raises(FormError) as info:
        GenusCache(str(path)).tg2(11)
    assert str(info.value) == f"genus cache {path}: genus cache entry TG1,11 {message}; cache corrupt"


def test_tg2_refuses_a_class_held_twice():
    # 2,12,11,8,1,3 is an unreduced form of the TG1(29) class 2,11,11,7,1,-1:
    # its Phi image is that class's image, so TG2 would hold it twice.
    tg1 = enumerate_tg1(29)
    twin = GenusSet("TG1", 29, tg1.classes + ((TernaryForm(2, 12, 11, 8, 1, 3), 4),))
    message = "TG1,29 holds 2,11,11,7,1,-1 and 2,12,11,8,1,3, of one class"
    with pytest.raises(FormError, match=f"^{message}$"):
        build_tg2(twin)
    cache = GenusCache(None)
    cache.put(twin)
    with pytest.raises(FormError) as info:
        cache.tg2(29)
    assert str(info.value) == f"genus cache entry {message}; cache corrupt"


@pytest.mark.parametrize("p", SUITE_PRIMES)
def test_tg2_records_the_tg1_source_of_each_class(p):
    # TG2's sources are TG1's classes, each once, in the order of the images
    # they map to, whether TG2 is read from the cache or built from TG1.
    tg1 = enumerate_tg1(p)
    for tg2 in (GenusCache(None).tg2(p), build_tg2(tg1)):
        assert sorted(tg2.sources) == [form for form, _ in tg1.classes]
        assert len(tg2.sources) == len(tg2.classes)
        for (image, _), source in zip(tg2.classes, tg2.sources):
            assert phi(source) == image
        # The sources are not part of the genus's value.
        assert GenusSet("TG2", p, tg2.classes) == tg2


@pytest.mark.parametrize("p", SUITE_PRIMES)
def test_witnesses_are_the_bases_of_each_class_search(tmp_path, p):
    # Enumerated, built from TG1 and read from the cache's rows, each class
    # records every basis its search returned, in search order: each takes
    # the searched form to the class, there are |Aut| of them, and
    # {W0^-1 U} is the automorph group.  The searched form is the image of
    # the class's source under the genus's map, or for an enumerated TG1
    # the first neighbour to reach the class, which every U^-1 takes the
    # class back to.
    path = str(tmp_path / "genus.json")
    tg1 = enumerate_tg1(p)
    GenusCache(path).put(tg1)
    cache = GenusCache(path)
    for genus in (tg1, build_tg2(tg1), cache.tg1(p), cache.tg2(p)):
        assert len(genus.witnesses) == len(genus.classes)
        sublattice = GENERA[genus.label] or (lambda form: form)
        for i, ((form, aut), bases) in enumerate(zip(genus.classes, genus.witnesses)):
            w_inv = unimodular_inverse(bases[0])
            searched = sublattice(genus.sources[i]) if genus.sources else apply_map(form, w_inv)
            assert all(apply_map(searched, u) == form for u in bases)
            assert len(bases) == aut
            assert tuple(sorted(mat_mul(w_inv, u) for u in bases)) == automorphs(form)
            assert _canonical_bases(searched) == (form, list(bases))


@pytest.mark.parametrize("p", [11, 29, 73])
def test_warm_tg2_reduces_one_phi_image_per_class(tmp_path, monkeypatch, p):
    path = tmp_path / "genus.json"
    rows = GenusCache(str(path)).tg1(p).classes
    calls = count_calls(monkeypatch, "reduction", "_canonical_bases")
    tg2 = GenusCache(str(path)).tg2(p)
    assert len(calls) == len(tg2.classes) == len(rows)
    assert sorted(form for form, in calls) == sorted(_phi_raw(form) for form, _ in rows)
    assert not {form for form, in calls} & {form for form, _ in rows}


@pytest.mark.parametrize("how", ["wrong-class", "missing-coeffs", "dropped-class"])
def test_cache_rejects_damaged_class(tmp_path, how):
    path = tmp_path / "genus.json"
    _corrupt_tg1_11(path, how)
    with pytest.raises(FormError, match="cache corrupt"):
        GenusCache(str(path)).tg1(11)


def test_cache_rejects_entry_stored_under_another_key(tmp_path):
    path = tmp_path / "genus.json"
    GenusCache(str(path)).tg1(7)
    data = json.loads(path.read_text())
    data["TG1,11"] = data["TG1,7"]
    path.write_text(json.dumps(data))
    with pytest.raises(FormError, match="cache corrupt"):
        GenusCache(str(path)).tg1(11)


def test_memoryless_cache():
    cache = GenusCache()
    assert cache.path is None
    g = cache.tg1(5)
    assert g.mass == Fraction(1, 12)


def full_box_tg1(p):
    """Oracle: reduce every primitive sextuple of discriminant p^2 with
    0 < a <= b <= c, |d| <= b, |e| <= a, |f| <= a and abc <= p^2."""
    disc = p * p
    seen = set()
    a = 1
    while a**3 <= disc:
        for b in range(a, isqrt(disc // a) + 1):
            for f in range(-a, a + 1):
                for e in range(-a, a + 1):
                    for d in range(-b, b + 1):
                        num = disc - d * e * f + a * d * d + b * e * e
                        denom = 4 * a * b - f * f
                        if num % denom == 0 and b <= num // denom and a * b * (num // denom) <= disc:
                            form = TernaryForm(a, b, num // denom, d, e, f)
                            if is_primitive(form):
                                seen.add(reduce_form(form)[0])
        a += 1
    return sorted((form, len(automorphs(form))) for form in seen)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 19, 23, 29, 31])
def test_tg1_matches_the_full_box_scan(p):
    assert list(enumerate_tg1(p).classes) == full_box_tg1(p)


def _icbrt(n: int) -> int:
    r = round(n ** (1 / 3))
    while r**3 > n:
        r -= 1
    while (r + 1) ** 3 <= n:
        r += 1
    return r


def _scan_reduced_candidates(disc: int):
    """Sextuples in the reduced box with the given discriminant.

    Bounds: 0 < a <= b <= c, |d| <= b, 0 <= e <= a, 0 <= f <= a and
    a*b*c <= disc // 2.  Every class has a Minkowski-reduced form, which has
    |e|, |f| <= a; changing the sign of e_1, e_2 or e_3 multiplies (d, e, f)
    by (1, -1, -1), (-1, 1, -1) or (-1, -1, 1) inside that box, so one sign
    pattern has e, f >= 0.  Seeber's inequality abc <= 2 det(Gram/2) for
    reduced forms reads abc <= disc / 2 here (Gauss's 1831 review of Seeber;
    Conway-Sloane, SPLAG ch. 15).
    """
    half = disc // 2
    for a in range(1, _icbrt(half) + 1):
        for b in range(a, isqrt(half // a) + 1):
            for f in range(a + 1):
                denom = 4 * a * b - f * f
                for e in range(a + 1):
                    for d in range(-b, b + 1):
                        num = disc - d * e * f + a * d * d + b * e * e
                        if num % denom:
                            continue
                        c = num // denom
                        if c < b or a * b * c > half:
                            continue
                        yield TernaryForm(a, b, c, d, e, f)


def scanned_tg1(p):
    """Oracle: canonicalise every sextuple of the reduced-box scan.

    Each one is primitive and has p | 4ab - f^2, the lemma `_seed` solves by.
    """
    seen = {}
    for form in _scan_reduced_candidates(p * p):
        assert is_primitive(form), form
        assert (4 * form.a * form.b - form.f**2) % p == 0, form
        canon, bases = _canonical_bases(form)
        seen.setdefault(canon, len(bases))
    return sorted(seen.items())


@pytest.mark.parametrize("p", [p for p in range(3, 98) if is_prime(p)])
def test_neighbour_closure_matches_the_drained_scan(p):
    assert list(enumerate_tg1(p).classes) == scanned_tg1(p)


def test_enumeration_pulls_only_the_seed_and_reduces_per_neighbour(monkeypatch):
    # Each form drawn, the seed and each neighbour, is Minkowski-reduced once.
    seeds = count_calls(monkeypatch, "genus", "_seed")
    calls = count_calls(monkeypatch, "forms", "_minkowski")
    classes = enumerate_tg1(61).classes
    assert seeds == [(61,)]
    assert len(calls) <= 1 + (3 + 1) * len(classes)


def test_the_closure_builds_only_the_neighbours_it_reduces(monkeypatch):
    builds = count_calls(monkeypatch, "genus", "apply_basis")
    calls = count_calls(monkeypatch, "forms", "_minkowski")
    enumerate_tg1(61)
    # The forms reduced (each Minkowski-reduced, then searched unless its
    # sign key was), in order: lazy building must not change the depth-first
    # sequence, last line first.
    assert [form.coeffs for form, in calls] == [
        (2, 23, 23, -15, 1, 1),
        (200, 207, 23, 45, 71, 397),
        (35, 90, 2, 7, 6, 102),
        (29, 55, 162, 187, 120, 67),
        (18, 18, 21, 29, 32, 25),
        (98, 116, 189, 295, 264, 207),
    ]
    assert len(builds) == 5
    for p in range(3, 62, 2):
        if is_prime(p):
            builds.clear()
            calls.clear()
            enumerate_tg1(p)
            # Every form reduced but the seed is a neighbour built for it.
            assert len(builds) == len(calls) - 1, p


# The canonical searches of the closure of TG1(p): one per class at these p.
# Searching every form drawn made 1, 1, 1, 4, 1, 2, 2, 8 and 6.
CLOSURE_SEARCHES = {3: 1, 5: 1, 7: 1, 11: 2, 13: 1, 17: 2, 19: 2, 23: 3, 73: 4}


@pytest.mark.parametrize("p", SUITE_PRIMES)
def test_the_closure_searches_each_sign_key_once(monkeypatch, p):
    drawn = count_calls(monkeypatch, "forms", "_minkowski")
    searches = count_calls(monkeypatch, "reduction", "_search")
    tg1 = enumerate_tg1(p)
    monkeypatch.undo()
    assert len(searches) == CLOSURE_SEARCHES[p] >= len(tg1.classes)
    # Each search is of a drawn form's Minkowski form, and every drawn form's
    # key is the key of one search.
    keys = [genus_module._sign_key(pre) for pre, _ in searches]
    assert len(set(keys)) == len(keys)
    assert {genus_module._sign_key(genus_module._minkowski(form)[0]) for form, in drawn} == set(keys)


def test_the_closure_searches_47_forms_up_to_61(monkeypatch):
    searches = count_calls(monkeypatch, "reduction", "_search")
    for p in range(3, 62, 2):
        if is_prime(p):
            enumerate_tg1(p)
    assert len(searches) == 47  # 79 when every form drawn was searched


SIGNS = [((s1, 0, 0), (0, s2, 0), (0, 0, s3)) for s1 in (1, -1) for s2 in (1, -1) for s3 in (1, -1)]


@given(st.builds(TernaryForm, *[st.integers(1, 9)] * 3, *[st.integers(-9, 9)] * 3), st.sampled_from(SIGNS))
@settings(max_examples=100, deadline=None)
def test_the_sign_key_is_the_least_sign_change_of_the_form(form, signs):
    # The key is a sextuple the form takes under a sign change, the least of
    # them, and the same for every sign change of the form.
    images = {apply_map(form, u).coeffs for u in SIGNS}
    key = genus_module._sign_key(form)
    assert key == min(images)
    assert genus_module._sign_key(apply_map(form, signs)) == key


@pytest.mark.parametrize(
    "primes",
    [[p for p in range(3, 2 * 10**4) if is_prime(p)], [10**9 + 7, 2**61 - 1, 10**18 + 9]],
    ids=["odd primes below 2e4", "large primes"],
)
def test_seed_is_a_positive_form_of_discriminant_p2_in_the_box(primes):
    for p in primes:
        form = genus_module._seed(p)
        a, b, c, d, e, f = form.coeffs
        assert is_positive_definite(form) and discriminant(form) == p * p, (p, form)
        assert 0 <= e <= a <= b and 0 <= f <= a and abs(d) <= b, (p, form)
        assert 2 * a**3 <= p * p and 2 * a * b * b <= p * p, (p, form)


def test_the_mass_decides_completeness(monkeypatch):
    monkeypatch.setattr(genus_module, "_neighbours", lambda form, ell: iter(()))
    # TG1(11) has two classes, of masses 1/8 and 1/12; the seed alone is short.
    with pytest.raises(IncompletenessError, match=r"TG1\(11\) mass 1/(8|12) != 5/24"):
        enumerate_tg1(11)
    # TG1(3) is one class of |Aut| 24: the seed alone reaches the mass 1/24.
    assert [(f.coeffs, aut) for f, aut in enumerate_tg1(3).classes] == KNOWN_TG1[3]


@pytest.mark.parametrize(
    "form, ell", [(TernaryForm(1, 1, 9, 0, 0, 0), 3), (TernaryForm(1, 1, 3, 0, 0, 1), 3), (TernaryForm(1, 1, 25, 0, 0, 0), 5)]
)
def test_neighbours_refuse_a_prime_dividing_the_discriminant(form, ell):
    with pytest.raises(FormError, match=f"{ell} divides the discriminant"):
        genus_module._neighbours(form, ell)


@pytest.mark.parametrize("p, ell", [(3, 5), (7, 3), (11, 3)])
def test_neighbours_lie_in_the_genus(p, ell):
    classes = dict(enumerate_tg1(p).classes)
    for form in classes:
        neighbours = list(genus_module._neighbours(form, ell))
        assert len(neighbours) == ell + 1
        assert {reduce_form(nb)[0] for nb in neighbours} <= set(classes)


@pytest.mark.parametrize("p", [p for p in range(3, 62) if is_prime(p)])
def test_the_neighbour_closure_of_one_tg2_class_is_tg2(p):
    # Phi's images of TG1(p) lie in one genus and no ell-neighbour leads out
    # of them: the closure of one class is every class of TG2(p), which the
    # closure builds without Phi.
    ell = 5 if p == 3 else 3
    classes = {form for form, _ in GenusCache(None).tg2(p).classes}
    start = min(classes)
    seen, todo = {start}, [start]
    while todo:
        for neighbour in genus_module._neighbours(todo.pop(), ell):
            canon = reduce_form(neighbour)[0]
            if canon not in seen:
                seen.add(canon)
                todo.append(canon)
    assert seen == classes
