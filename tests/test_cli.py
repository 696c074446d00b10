import argparse
import contextlib
import io
import json
import os
import resource
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_genus import INJECTED_TG1_29, _corrupt_tg1_11, inject_tg1_29
from test_local import break_stabilization
from ternaryforms import cli
from ternaryforms.cli import (
    EXIT_FAIL,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_RESOURCE,
    EXIT_USAGE,
    main,
)
from ternaryforms.forms import WORK_LIMIT, TernaryForm
from ternaryforms.verify import IdentityReport


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *args):
    code, out, err = run(capsys, *args)
    return code, json.loads(out) if out.strip() else None, err


def test_disc(capsys):
    code, data, _ = run_json(capsys, "disc", "31,5,11,1,-14,6")
    assert code == EXIT_OK
    assert data == {"form": "31,5,11,1,-14,6", "disc": 5329}


def test_reduce(capsys):
    code, data, _ = run_json(capsys, "reduce", "31,5,11,1,-14,6")
    assert code == EXIT_OK
    assert data["reduced"] == "5,11,26,7,3,-1"
    assert len(data["witness"]) == 3


def test_count_and_theta(capsys):
    code, data, _ = run_json(capsys, "count", "1,1,1,0,0,0", "5")
    assert code == EXIT_OK
    assert data["count"] == 24
    code, data, _ = run_json(capsys, "theta", "1,1,1,0,0,0", "4")
    assert data["counts"] == [1, 6, 12, 8, 6]


def test_auts(capsys):
    code, data, _ = run_json(capsys, "auts", "31,5,11,1,-14,6")
    assert code == EXIT_OK
    assert data["order"] == 2
    assert len(data["elements"]) == 2


def test_equiv(capsys):
    code, data, _ = run_json(capsys, "equiv", "31,5,11,1,-14,6", "5,11,26,7,3,-1")
    assert code == EXIT_OK
    assert data["equivalent"] is True
    assert data["witness"] is not None
    code, data, _ = run_json(capsys, "equiv", "1,3,11,0,0,1", "3,4,4,3,2,-2")
    assert data["equivalent"] is False


def test_genus_and_mass(capsys, tmp_path):
    cache = str(tmp_path / "c.json")
    code, data, _ = run_json(capsys, "--cache", cache, "genus", "TG1", "11")
    assert code == EXIT_OK
    assert data["mass"] == "5/24"
    assert len(data["classes"]) == 2
    code, data, _ = run_json(capsys, "--cache", cache, "mass", "TG2", "11")
    assert code == EXIT_OK
    assert data["match"] is True


def test_phi_round_trip(capsys):
    code, data, _ = run_json(capsys, "phi", "1,1,3,0,0,1")
    assert code == EXIT_OK
    image = data["image"]
    code, data, _ = run_json(capsys, "phi-inv", image)
    assert data["preimage"] == "1,1,3,0,0,1"


def test_phi_inverse_of_a_delta_three_mod_four_image(capsys):
    code, data, _ = run_json(capsys, "phi", "2,5,7,3,1,-2")
    assert code == EXIT_OK
    assert data["image"] == "5,8,25,0,2,4"
    code, data, _ = run_json(capsys, "phi-inv", "5,8,25,0,2,4")
    assert code == EXIT_OK
    assert data["preimage"] == "2,5,7,3,1,-2"


def test_phi_inverse_refuses_an_even_discriminant_preimage(capsys):
    # lambda_4 of 1,4,4,0,0,0 is x^2 + y^2 + z^2, of discriminant 4.
    code, _, err = run(capsys, "phi-inv", "1,4,4,0,0,0")
    assert code == EXIT_USAGE
    assert "not Φ of a primitive form of odd discriminant" in err


def test_lambda(capsys):
    code, data, _ = run_json(capsys, "lambda", "9,9,9,0,0,0", "9")
    assert code == EXIT_OK
    assert data["image"] == "1,1,1,0,0,0"


def test_density(capsys):
    code, data, _ = run_json(capsys, "density", "1,1,1,0,0,0", "1", "2")
    assert code == EXIT_OK
    assert data["density"] == "3/2"


@pytest.mark.parametrize("form", ["3,7,7,6,2,-2", "3,15,15,14,2,-2", "7,8,15,8,2,4"])
def test_density_at_two_without_split(capsys, form):
    code, data, _ = run_json(capsys, "density", form, "32", "2")
    assert code == EXIT_OK
    assert data["density"] == "9/4"


@pytest.mark.parametrize("p", ["1", "0", "4", "9"])
def test_density_rejects_non_prime_p(capsys, p):
    code, out, err = run(capsys, "density", "1,1,1,0,0,0", "5", p)
    assert code == EXIT_USAGE
    assert out == ""
    assert "not a prime" in err


def test_density_resource_limit(capsys):
    # 3^13 needs t = 16 and 17: 17^2 * 2 = 578 units.
    code, _, err = run(
        capsys, "--work-limit", "500", "density", "1,1,1,0,0,0", "1594323", "3"
    )
    assert code == EXIT_RESOURCE
    assert "limit" in err


def test_work_limit_holds_for_one_command_only(capsys):
    args = ("density", "1,1,1,0,0,0", "1594323", "3")
    code, _, err = run(capsys, "--work-limit", "500", *args)
    assert (code, "above the work limit 500" in err) == (EXIT_RESOURCE, True)
    assert WORK_LIMIT.get() == 10**9
    code, data, err = run_json(capsys, *args)
    assert (code, err, data["exponent_used"]) == (EXIT_OK, "", 16)


@pytest.mark.parametrize("limit", ["0", "-5"])
def test_work_limit_below_one_is_a_usage_error(capsys, limit):
    code, out, err = run(capsys, "--work-limit", limit, "disc", "1,1,1,0,0,0")
    assert (code, out) == (EXIT_USAGE, "")
    assert "--work-limit must be >= 1" in err


@pytest.mark.parametrize(
    "args, message",
    [
        (("count", "1,1,1,0,0,0", "-1"), "n must be nonnegative"),
        (("density", "1,1,1,0,0,0", "0", "3"), "n must be >= 1"),
        (("theta", "1,1,1,0,0,0", "-1"), "theta bound must be nonnegative"),
        (
            ("count", "1,-1,0,0,0,0", "0"),
            "1,-1,0,0,0,0 is not positive definite; enumeration requires a positive definite form",
        ),
        (("auts", "0,0,1,0,0,0"), "0,0,1,0,0,0 is not positive definite; enumeration requires a positive definite form"),
        (("reduce", "0,0,0,0,0,0"), "0,0,0,0,0,0 is not positive definite; enumeration requires a positive definite form"),
        (
            ("equiv", "1,-1,0,0,0,0", "1,1,1,0,0,0"),
            "1,-1,0,0,0,0 is not positive definite; enumeration requires a positive definite form",
        ),
        (("phi-inv", "1,-1,0,0,0,0"), "1,-1,0,0,0,0 is not positive definite; enumeration requires a positive definite form"),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, tuple) else None,
)
def test_argument_out_of_range_is_a_usage_error(capsys, args, message):
    code, out, err = run(capsys, *args)
    assert (code, out, err) == (EXIT_USAGE, "", f"error: {message}\n")


def _run_child(args, timeout=20, memory=None):
    """(exit code, seconds, peak RSS in MB, stderr) of `tqf args` in its own
    process, its address space capped at `memory` bytes when given."""

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (memory, memory))

    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "ternaryforms.cli", *args],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        preexec_fn=cap if memory else None,
    )
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.perf_counter() - start > timeout:
            proc.kill()
            proc.wait()
            raise AssertionError(f"tqf {' '.join(args)} still running after {timeout} s")
        time.sleep(0.01)
    seconds = time.perf_counter() - start
    err = proc.stderr.read().decode()
    proc.stderr.close()
    return os.waitstatus_to_exitcode(status), seconds, usage.ru_maxrss / 1024, err


@pytest.mark.parametrize(
    "args",
    [
        ("theta", "1,1,1,0,0,0", "300000000"),
        ("count", "1,1,1,0,0,0", "1000000000000"),
        ("verify", "thm1.3", "--p", "5", "--n-max", "10000000"),
        ("genus", "TG1", "1000003"),
    ],
    ids=" ".join,
)
def test_the_default_work_limit_bounds_every_step(args):
    # Each of these once ran out of memory or ran on; now each is refused
    # before the step that would grow starts.
    code, seconds, rss_mb, err = _run_child(args)
    assert code == EXIT_RESOURCE, err
    assert "above the work limit 1000000000" in err
    assert seconds < 2
    assert rss_mb < 100


def test_lambda_past_the_residue_scan_answers():
    # The lambda-lattice is m times a dual lattice, found by Hermite normal
    # forms in O(log m) size; the m^3 residue scan that was refused here is gone.
    code, seconds, _, err = _run_child(("lambda", "1,1,1,0,0,0", "1001"))
    assert (code, err) == (EXIT_OK, "")
    assert seconds < 1


def test_mass_at_a_huge_prime_is_refused_in_bounded_time():
    # The neighbour closure is charged 1000 (ell + 1)(p - 1) units before its
    # seed is sought, so it is refused without any walk of the reduced box.
    code, seconds, _, err = _run_child(("mass", "TG1", "100000000000031"))
    assert code == EXIT_RESOURCE, err
    assert "above the work limit 1000000000" in err
    assert seconds < 5


def test_density_at_a_huge_prime_answers():
    # Primality is tested once, by Miller-Rabin charged 13 * 47 bits units.
    code, _, _, err = _run_child(("density", "1,1,1,0,0,0", "1", "100000000000031"))
    assert (code, err) == (EXIT_OK, "")


@pytest.mark.parametrize(
    "p, code, expected",
    # Refused by the isqrt(p) charge of trial division (about 1.5 * 10^9 units)
    # before primality was tested by Miller-Rabin.
    [
        (str(2**61 - 1), EXIT_OK, f"{2**61 - 2}/{2**61 - 1}"),
        (str(2**61 + 1), EXIT_USAGE, None),
    ],
)
def test_density_past_the_trial_division_charge(capsys, p, code, expected):
    got, data, err = run_json(capsys, "density", "1,1,1,0,0,0", "1", p)
    assert got == code, err
    if expected:
        assert (data["density"], data["exponent_used"]) == (expected, 3)
    else:
        assert "not a prime" in err


@pytest.mark.parametrize("p", ["797", "937", "997", "1009", "10007"])
def test_mass_answers_for_primes_up_to_10007(capsys, p):
    code, data, _ = run_json(capsys, "mass", "TG1", p)
    assert (code, data["match"]) == (EXIT_OK, True)


def test_density_at_p_73(capsys):
    code, data, _ = run_json(capsys, "density", "1,1,73,0,0,0", "73", "73")
    assert code == EXIT_OK
    assert data["exponent_used"] == 4


def test_deep_two_adic_density(capsys):
    code, data, err = run_json(
        capsys, "--work-limit", str(10**400), "density", "1,1,1,0,0,0", str(2**1200), "2"
    )
    assert (code, err) == (EXIT_OK, "")
    assert data["density"] == f"3/{2**601}"


@pytest.mark.parametrize("form", ["3,3,3,3,0,0", "3,3,3,0,0,3"])
def test_phi_refuses_an_imprimitive_form(capsys, form):
    code, out, err = run(capsys, "phi", form)
    assert code == EXIT_USAGE
    assert out == ""
    assert "primitive" in err


def test_verify_passes(capsys):
    code, data, _ = run_json(capsys, "verify", "thm1.1", "--n-max", "30")
    assert code == EXIT_OK
    assert data["pass"] is True
    code, data, _ = run_json(capsys, "verify", "thm1.3", "--p", "5", "--n-max", "30")
    assert code == EXIT_OK


@pytest.mark.parametrize(
    "args",
    [
        ("verify", "thm1.1", "--n-max", "0"),
        ("verify", "thm1.2", "--n-max", "-3"),
        ("verify", "thm1.3", "--p", "5", "--n-max", "0"),
    ],
    ids=" ".join,
)
def test_verify_refuses_n_max_below_one(capsys, args):
    code, out, err = run(capsys, *args)
    assert code == EXIT_USAGE
    assert out == ""
    assert "--n-max" in err


@pytest.mark.parametrize(
    "args",
    [
        ("verify", "density", "--n-max", "-5"),
        ("verify", "all", "--p", "7"),
        ("verify", "thm1.1", "--p", "7", "--n-max", "5"),
        ("verify", "thm1.2", "--p", "11", "--n-max", "5"),
    ],
    ids=" ".join,
)
def test_verify_refuses_a_flag_its_target_does_not_take(capsys, args):
    code, out, err = run(capsys, *args)
    assert code == EXIT_USAGE
    assert out == ""
    flag = "--n-max" if args[1] == "density" else "--p"
    assert f"error: {flag} applies only to" in err


@pytest.mark.parametrize(
    "args, n_max",
    [(("thm1.1",), 1000), (("thm1.2",), 1000), (("thm1.3", "--p", "5"), 200)],
    ids=lambda v: " ".join(v) if isinstance(v, tuple) else str(v),
)
def test_verify_default_n_max(capsys, args, n_max):
    code, data, _ = run_json(capsys, "verify", *args)
    assert (code, data["n_max"], data["pass"]) == (EXIT_OK, n_max, True)


def test_verify_n_max_refusal_names_the_targets_that_take_it(capsys):
    code, out, err = run(capsys, "verify", "density", "--n-max", "5")
    assert (code, out) == (EXIT_USAGE, "")
    assert err == "error: --n-max applies only to verify thm1.1, thm1.2, thm1.3, not density\n"


def test_verify_p_refusal_names_every_target_that_takes_it(capsys, monkeypatch):
    monkeypatch.setitem(cli.VERIFY_TARGETS, "thm9.9", (True, 10, lambda args, n_max: {}))
    code, out, err = run(capsys, "verify", "all", "--p", "7")
    assert (code, out) == (EXIT_USAGE, "")
    assert err == "error: --p applies only to verify thm1.3, thm9.9, not all\n"


def test_verify_help_names_the_targets_that_take_each_flag(capsys):
    code, out, _ = run(capsys, "verify", "--help")
    takers = [", ".join(t for t, row in cli.VERIFY_TARGETS.items() if row[k] not in (False, None)) for k in (0, 1)]
    help_text = " ".join(out.split())
    assert code == EXIT_OK
    assert f"--p P odd prime, for verify {takers[0]}" in help_text
    assert f"--n-max N_MAX largest n checked, for verify {takers[1]}" in help_text


def test_verify_requires_p(capsys):
    code, _, err = run(capsys, "verify", "thm1.3")
    assert code == EXIT_USAGE
    assert "--p" in err


def test_malformed_sextuple_names_field(capsys):
    code, _, err = run(capsys, "disc", "1,2,zz,4,5,6")
    assert code == EXIT_USAGE
    assert "coefficient c" in err


def test_wrong_arity(capsys):
    code, _, err = run(capsys, "disc", "1,2,3")
    assert code == EXIT_USAGE


def test_unknown_subcommand(capsys):
    code, _, _ = run(capsys, "frobnicate")
    assert code == EXIT_USAGE


def test_tsv_format(capsys):
    code, out, _ = run(capsys, "--format", "tsv", "disc", "1,1,1,0,0,0")
    assert code == EXIT_OK
    lines = dict(line.split("\t") for line in out.strip().splitlines())
    assert lines["disc"] == "4"


def test_tsv_format_joins_a_list_with_semicolons(capsys):
    code, out, _ = run(capsys, "--format", "tsv", "theta", "1,1,1,0,0,0", "3")
    assert (code, out) == (EXIT_OK, "form\t1,1,1,0,0,0\nbound\t3\ncounts\t1;6;12;8\n")


@pytest.mark.parametrize(
    "argv, key", [(("genus", "TG1", "11"), "classes"), (("auts", "11,7,20,7,2,4"), "elements")]
)
def test_tsv_format_writes_nested_values_as_json(capsys, argv, key):
    code, out, _ = run(capsys, "--format", "tsv", *argv)
    lines = dict(line.split("\t") for line in out.strip().splitlines())
    _, data, _ = run_json(capsys, *argv)
    assert code == EXIT_OK
    assert [json.loads(field) for field in lines[key].split(";")] == data[key]
    assert " " not in lines[key]  # compact JSON


def test_threads_flag_accepted(capsys):
    code1, out1, _ = run(capsys, "--threads", "1", "count", "2,2,2,1,1,-1", "25")
    code4, out4, _ = run(capsys, "--threads", "4", "count", "2,2,2,1,1,-1", "25")
    assert code1 == code4 == EXIT_OK
    assert out1 == out4


@pytest.mark.parametrize("kind", ["garbage", "directory"])
def test_unreadable_cache_is_a_usage_error(capsys, tmp_path, kind):
    path = tmp_path / "genus.json"
    if kind == "garbage":
        path.write_text('{"TG1,5": ')
    else:
        path.mkdir()
    code, _, err = run(capsys, "--cache", str(path), "mass", "TG1", "5")
    assert code == EXIT_USAGE
    assert str(path) in err


def test_unwritable_cache_is_a_usage_error(capsys, tmp_path):
    # A missing directory: permission bits would not stop a run as root.
    path = tmp_path / "no-such-dir" / "genus.json"
    code, out, err = run(capsys, "--cache", str(path), "mass", "TG1", "11")
    assert code == EXIT_USAGE
    assert out == ""
    assert f"cannot write genus cache {path}: " in err


@pytest.mark.parametrize(
    "args, expected",
    [
        (("disc", "1,1,1,0,0,0"), EXIT_OK),
        (("reduce", "31,5,11,1,-14,6"), EXIT_OK),
        (("verify", "thm1.1", "--n-max", "5"), EXIT_OK),
        (("genus", "TG1", "5"), EXIT_USAGE),
        (("mass", "TG2", "5"), EXIT_USAGE),
        (("verify", "thm1.3", "--p", "5", "--n-max", "5"), EXIT_USAGE),
        (("verify", "all"), EXIT_USAGE),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, tuple) else str(v),
)
def test_only_commands_that_read_a_genus_open_the_cache(capsys, tmp_path, args, expected):
    path = tmp_path / "genus.json"
    path.write_text('{"TG1,5": ')
    code, _, err = run(capsys, "--cache", str(path), *args)
    assert code == expected
    assert (str(path) in err) == (expected == EXIT_USAGE)


@pytest.mark.parametrize("how", ["wrong-class", "missing-coeffs"])
def test_damaged_cache_class_is_a_usage_error(capsys, tmp_path, how):
    path = tmp_path / "genus.json"
    _corrupt_tg1_11(path, how)
    code, out, err = run(capsys, "--cache", str(path), "genus", "TG1", "11")
    assert code == EXIT_USAGE
    assert out == ""
    assert "cache corrupt" in err


@pytest.mark.parametrize(
    "args", [("mass", "TG1", "11"), ("verify", "thm1.3", "--p", "11", "--n-max", "20")], ids=" ".join
)
def test_cache_missing_a_class_is_a_usage_error(capsys, tmp_path, args):
    # A genus missing a class must read neither as a failed mass check
    # (exit 0) nor as a disproved identity (exit 1).
    path = tmp_path / "genus.json"
    _corrupt_tg1_11(path, "dropped-class")
    code, out, err = run(capsys, "--cache", str(path), *args)
    assert code == EXIT_USAGE
    assert out == ""
    assert "mass 1/8, not 5/24; cache corrupt" in err


@pytest.mark.parametrize("how", sorted(INJECTED_TG1_29))
@pytest.mark.parametrize(
    "args", [("mass", "TG1", "29"), ("verify", "thm1.3", "--p", "29", "--n-max", "30")], ids=" ".join
)
def test_cache_with_an_injected_class_is_a_usage_error(capsys, tmp_path, args, how):
    # The injections keep the mass, so only the row checks stop `mass` from
    # printing a match and `verify` from reporting a disproved identity.
    path = tmp_path / "genus.json"
    inject_tg1_29(path, INJECTED_TG1_29[how][0])
    code, out, err = run(capsys, "--cache", str(path), *args)
    assert code == EXIT_USAGE
    assert out == ""
    assert f"genus cache {path}: " in err
    assert "cache corrupt" in err


# Files once stored a versioned object per genus; only coefficient rows are
# read now, and the message names the file to delete.
OLD_LAYOUT_TG1_11 = {
    "v": 1, "label": "TG1", "p": 11, "mass": "5/24",
    "classes": [{"coeffs": [1, 3, 11, 0, 0, 1], "aut": 8}, {"coeffs": [3, 4, 4, 3, 2, -2], "aut": 12}],
}


def test_cache_in_the_old_layout_is_a_usage_error(capsys, tmp_path):
    path = tmp_path / "genus.json"
    path.write_text(json.dumps({"TG1,11": OLD_LAYOUT_TG1_11}))
    code, out, err = run(capsys, "--cache", str(path), "mass", "TG1", "11")
    assert code == EXIT_USAGE
    assert out == ""
    assert "cache corrupt" in err
    assert str(path) in err


def test_cache_in_the_old_layout_is_refused_for_any_key(capsys, tmp_path):
    # The file is refused when opened, so a query for a key it lacks neither
    # succeeds nor writes new rows beside the old entry.
    path = tmp_path / "genus.json"
    text = json.dumps({"TG1,11": OLD_LAYOUT_TG1_11})
    path.write_text(text)
    code, out, err = run(capsys, "--cache", str(path), "mass", "TG1", "5")
    assert code == EXIT_USAGE
    assert out == ""
    assert "cache corrupt" in err
    assert str(path) in err
    assert path.read_text() == text


def test_parser_is_built_once_and_carries_nothing_between_calls(capsys, tmp_path):
    cache = str(tmp_path / "genus.json")
    one = "1,1,1,0,0,0"
    calls = [
        (("count", one), EXIT_USAGE),
        (("--help",), EXIT_OK),
        (("--format", "tsv", "disc", one), EXIT_OK),
        (("disc", one), EXIT_OK),
        (("--cache", cache, "verify", "thm1.3", "--p", "7", "--n-max", "5"), EXIT_OK),
        (("verify", "thm1.1", "--n-max", "5"), EXIT_OK),
        (("count", one, "5"), EXIT_OK),
        (("theta", one, "4"), EXIT_OK),
        (("reduce", "31,5,11,1,-14,6"), EXIT_OK),
        (("auts", "2,2,2,1,1,-1"), EXIT_OK),
        (("equiv", "1,3,11,0,0,1", "3,4,4,3,2,-2"), EXIT_OK),
        (("--cache", cache, "mass", "TG2", "7"), EXIT_OK),
        (("mass", "TG1", "9"), EXIT_USAGE),
        (("phi", "1,1,3,0,0,1"), EXIT_OK),
        (("lambda", "9,9,9,0,0,0", "9"), EXIT_OK),
        (("--work-limit", "500", "density", one, "1594323", "3"), EXIT_RESOURCE),
        (("density", one, "1", "2"), EXIT_OK),
        (("frobnicate",), EXIT_USAGE),
        (("verify", "thm1.3"), EXIT_USAGE),
        (("disc", one), EXIT_OK),
    ]
    cli._build_parser.cache_clear()
    outs = []
    for args, expected in calls:
        code, out, _ = run(capsys, *args)
        assert code == expected, args
        outs.append(out)
    # Only the argv `_table_args` refuses reach the parser: `count` without
    # its n, `--help`, the three `verify` calls and `frobnicate`.
    info = cli._build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 5)
    assert outs[2] == f"form\t{one}\ndisc\t4\n"
    assert json.loads(outs[3]) == json.loads(outs[-1]) == {"form": one, "disc": 4}
    assert json.loads(outs[5])["pass"] is True


# -- the table parser --------------------------------------------------------

_FORMS = ["1,1,1,0,0,0", "31,5,11,1,-14,6", "-1,1,1,0,0,0", "-31,5,11,1,-14,6", "1, 1,1,0,0,0"]
_INTS = ["-5", "0", "7", "500", "1_0", " 7", "\u0663", "9" * 5000, "1.5"]
_STRINGS = ["TG1", "TG2", "TG3", "json", "tsv", "xml", "c.json", "disc", "all", ""]
_VALUES = _FORMS + _INTS + _STRINGS
_SPELLINGS = ["--format=tsv", "--cache=c.json", "--threads=2", "--work-limit=500", "--form", "--cach", "--th", "--w"]
_SPELLINGS += ["--p", "--n-max"]
_TOKENS = _VALUES + [*cli.OPTIONS, *_SPELLINGS, *cli.COMMANDS, "frobnicate", "-h", "--help", "--", "-"]


def _value_of(kwargs):
    """Values for an argument declared by kwargs: mostly of its kind (a
    choice or not, an int, a form), some of any kind."""
    if "choices" in kwargs:
        own = [*kwargs["choices"], "TG3", "xml"]
    else:
        own = _INTS if "type" in kwargs else _FORMS + ["c.json", ""]
    return st.sampled_from(own * 6 + _VALUES)


@st.composite
def _nearly_plain(draw):
    """Options, each spelled in full or not and followed by a value, then a
    command and as many values as it takes positionals, or one more or less."""
    argv = []
    for _ in range(draw(st.integers(0, 3))):
        flag = draw(st.sampled_from([*cli.OPTIONS] * 4 + _SPELLINGS))
        argv += [flag, draw(_value_of(cli.OPTIONS.get(flag, {})))]
    command = draw(st.sampled_from([*cli.COMMANDS, "frobnicate"]))
    arguments = list(cli.COMMANDS.get(command, (None, [("form", {})]))[1])
    arguments += draw(st.sampled_from([[]] * 6 + [[("extra", {})]]))
    arguments = arguments[: len(arguments) - draw(st.sampled_from([0] * 6 + [1]))]
    return argv + [command] + [draw(_value_of(kwargs)) for _, kwargs in arguments]


# Mostly argv of nearly the plain shape, which a uniform draw from the whole
# alphabet would rarely give, and uniform draws besides.
_ARGV = st.one_of(_nearly_plain(), st.lists(st.sampled_from(_TOKENS), max_size=8))


@given(_ARGV)
@settings(max_examples=1000, deadline=None)
def test_table_args_is_none_or_what_argparse_returns(argv):
    table = cli._table_args(argv)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            oracle = cli._build_parser().parse_args(argv)
        except SystemExit:
            oracle = None
    assert table is None or table == oracle


_PLAIN = {
    "disc": ["31,5,11,1,-14,6"],
    "reduce": ["31,5,11,1,-14,6"],
    "count": ["1,1,1,0,0,0", "25"],
    "theta": ["2,2,2,1,1,-1", "20"],
    "auts": ["11,7,20,7,2,4"],
    "equiv": ["31,5,11,1,-14,6", "5,11,26,7,3,-1"],
    "genus": ["TG1", "11"],
    "mass": ["TG2", "11"],
    "phi": ["1,1,3,0,0,1"],
    "phi-inv": ["3,4,4,4,0,0"],
    "lambda": ["9,9,9,0,0,0", "9"],
    "density": ["1,1,1,0,0,0", "12", "2"],
}


def test_plain_argv_is_shown_for_every_command_without_options():
    assert set(_PLAIN) == set(cli.COMMANDS) - {"verify"}


def _no_parser():
    raise AssertionError("argparse was asked to parse a plain argv")


@pytest.mark.parametrize("command", _PLAIN)
def test_plain_argv_never_reaches_argparse(capsys, tmp_path, monkeypatch, command):
    cache = str(tmp_path / "genus.json")
    options = ([], ["--cache", cache], ["--format", "tsv"], ["--work-limit", "1000000000"])
    options += (["--cache", cache, "--threads", "2", "--format", "tsv"],)
    for argv in ([*opts, command, *_PLAIN[command]] for opts in options):
        with monkeypatch.context() as m:
            m.setattr(cli, "_table_args", lambda argv: None)
            expected = run(capsys, *argv)
        with monkeypatch.context() as m:
            m.setattr(cli, "_build_parser", _no_parser)
            assert run(capsys, *argv) == expected, argv
        assert (expected[0], expected[2]) == (EXIT_OK, ""), argv


def test_main_without_argv_reads_sys_argv(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["tqf", "disc", "1,1,1,0,0,0"])
    code = main(None)
    assert (code, json.loads(capsys.readouterr().out)) == (EXIT_OK, {"form": "1,1,1,0,0,0", "disc": 4})


def test_internal_error_has_its_own_exit_code(capsys, monkeypatch):
    def boom(form):
        raise RuntimeError("simulated fault")

    monkeypatch.setattr(cli, "discriminant", boom)
    code, out, err = run(capsys, "disc", "1,1,1,0,0,0")
    assert code == EXIT_INTERNAL
    assert out == ""
    assert err.splitlines() == ["internal error: RuntimeError: simulated fault"]


def test_running_out_of_memory_is_a_resource_limit(capsys, monkeypatch):
    # A raised --work-limit can admit a step whose memory the host lacks.
    def exhausted(form, bound):
        raise MemoryError

    monkeypatch.setattr(cli, "theta", exhausted)
    code, out, err = run(capsys, "--work-limit", "100000000000", "theta", "1,1,1,0,0,0", "10")
    assert (code, out) == (EXIT_RESOURCE, "")
    assert err.splitlines() == [
        "error: MemoryError: the host has too little memory for this step; "
        "a lower --work-limit refuses it before it starts"
    ]


def test_a_table_larger_than_memory_exits_three():
    # The counted left side of thm1.3 at p = 401 reads an r2 table of 52 GB.
    # Charged at 2 units per entry, its bytes, a work limit of 10^11 refuses
    # it before it starts.  The child's address space is capped at 1 GiB all
    # the same, so an admitted table's allocation would fail at once.
    args = ("--work-limit", "100000000000", "verify", "thm1.3", "--p", "401", "--n-max", "161202")
    code, seconds, _, err = _run_child(args, memory=1 << 30)
    assert code == EXIT_RESOURCE, err
    assert err == (
        "error: s_batch up to 25921442802 costs 103750574012 units, above the work limit 100000000000\n"
    )
    assert seconds < 10


def test_a_table_past_the_lane_bound_exits_three():
    # A work limit of 10^17 admits the bytes of an r2 table up to
    # 64411251125, but its 8-bit sieve lanes would wrap there.  It is
    # refused before anything is allocated: in a child capped at 1 GiB, an
    # allocation would fail with a MemoryError and another message.
    args = ("--work-limit", str(10**17), "verify", "thm1.1", "--n-max", "64411251125")
    code, seconds, _, err = _run_child(args, memory=1 << 30)
    assert code == EXIT_RESOURCE, err
    assert err == (
        "error: a two-squares table up to 64411251125 is refused: its sieve is exact only below 64411251125\n"
    )
    assert seconds < 10


@pytest.mark.parametrize("argv", [("density", "1,1,1,0,0,0", "5", "3"), ("verify", "density")])
def test_a_density_that_does_not_stabilize_is_an_internal_error(capsys, monkeypatch, argv):
    # verify density reads this density in its odd-prime suite; a crash must not exit 1.
    break_stabilization(monkeypatch, TernaryForm(1, 1, 1, 0, 0, 0), 5, 3)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (EXIT_INTERNAL, "")
    assert err.splitlines() == [
        "internal error: StabilizationError: density of 1,1,1,0,0,0 at p=3, n=5 differs between t=3 and t=4"
    ]


def test_disproved_identity_exits_one(capsys, monkeypatch):
    def disproved(n_max):
        return IdentityReport("thm1.1", 3, n_max, [{"n": 1, "lhs": 0, "rhs": 1}])

    monkeypatch.setattr(cli, "verify_theorem_1_1", disproved)
    code, data, err = run_json(capsys, "verify", "thm1.1", "--n-max", "5")
    assert (code, data["n_max"], data["pass"], err) == (EXIT_FAIL, 5, False, "")


def test_closed_stdout_pipe_ends_quietly():
    proc = subprocess.Popen(
        [sys.executable, "-m", "ternaryforms.cli", "theta", "1,1,1,0,0,0", "3000"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    proc.stdout.close()  # no reader is left before the program writes
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=120) == EXIT_OK
    assert "Traceback" not in err
    assert "BrokenPipeError" not in err


def _readme_cli_lines():
    """The argv of each `tqf` line of the README's CLI block."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```\n", 2)[1]
    lines = block.splitlines()
    assert lines and all(line.startswith("tqf ") for line in lines)
    return [line.split()[1:] for line in lines]


@pytest.mark.parametrize("argv", _readme_cli_lines(), ids=" ".join)
def test_readme_cli_line_succeeds(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)  # `--cache genus.json` writes where it runs
    code, out, err = run(capsys, *argv)
    assert (code, err) == (EXIT_OK, "")
    assert json.loads(out)


def test_readme_cli_block_shows_every_command():
    parser = cli._build_parser()
    shown = {parser.parse_args(argv).command for argv in _readme_cli_lines()}
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert shown == set(sub.choices)


# -- the one-pass writer ----------------------------------------------------


def _jsonable_oracle(obj):
    """Oracle: the report as json.dumps takes it, tuples as lists and a
    Fraction or TernaryForm as its string, built before any output."""
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, TernaryForm):
        return str(obj)
    if isinstance(obj, dict):
        return {k: _jsonable_oracle(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable_oracle(v) for v in obj]
    return obj


def _emit_oracle(data: dict, fmt: str) -> str:
    """Oracle: the output, from the converted report through json.dumps."""
    data = _jsonable_oracle(data)
    if fmt == "json":
        return json.dumps(data, indent=1) + "\n"
    lines = []
    for key, value in data.items():
        fields = value if isinstance(value, list) else [value]
        compact = (json.dumps(v, separators=(",", ":")) if isinstance(v, (dict, list)) else str(v) for v in fields)
        lines.append(f"{key}\t" + ";".join(compact) + "\n")
    return "".join(lines)


leaves = st.one_of(
    st.integers(),
    st.booleans(),
    st.none(),
    st.text(),
    st.sampled_from(['"', "\\", "é☃", "a\tb\nc", "\x00\x1f\x7f"]),
    st.fractions(),
    st.integers().map(Fraction),  # a whole number keeps its /1
    st.builds(TernaryForm, *[st.integers(-50, 50)] * 6),
)
nested = st.recursive(
    leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=4), children, max_size=4),
    ),
    max_leaves=20,
)


@given(st.dictionaries(st.text(max_size=6), nested, max_size=5), st.sampled_from(["json", "tsv"]))
@settings(max_examples=200, deadline=None)
def test_emit_writes_what_json_dumps_writes_of_the_converted_report(report, fmt):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._emit(report, fmt)
    assert out.getvalue() == _emit_oracle(report, fmt)


def test_emit_refuses_a_value_json_cannot_write():
    with pytest.raises(TypeError, match="Object of type set is not JSON serializable"):
        cli._json({"x": [{1}]}, "\n")
