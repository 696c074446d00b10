import json
import subprocess
import sys

import pytest

from test_genus import _corrupt_tg1_11
from ternaryforms import cli
from ternaryforms.cli import (
    EXIT_FAIL,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_RESOURCE,
    EXIT_USAGE,
    main,
)


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


@pytest.mark.parametrize("how", ["wrong-class", "missing-coeffs"])
def test_damaged_cache_class_is_a_usage_error(capsys, tmp_path, how):
    path = tmp_path / "genus.json"
    _corrupt_tg1_11(path, how)
    code, out, err = run(capsys, "--cache", str(path), "genus", "TG1", "11")
    assert code == EXIT_USAGE
    assert out == ""
    assert "cache corrupt" in err


def test_internal_error_has_its_own_exit_code(capsys, monkeypatch):
    def boom(form):
        raise RuntimeError("simulated fault")

    monkeypatch.setattr(cli, "discriminant", boom)
    code, out, err = run(capsys, "disc", "1,1,1,0,0,0")
    assert code == EXIT_INTERNAL
    assert out == ""
    assert err.splitlines() == ["internal error: RuntimeError: simulated fault"]


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
