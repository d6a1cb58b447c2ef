import pytest

from hecke2 import cli
from hecke2.cli import MAX_FORM_DEGREE, MAX_PRIME, main, parse_form
from hecke2.deltapoly import DeltaPoly
from hecke2.verify import VerificationReport


@pytest.fixture
def cache_env(tmp_path, monkeypatch):
    monkeypatch.setenv("HECKE2_CACHE_DIR", str(tmp_path))
    return tmp_path


def test_parse_form():
    assert parse_form("1,3,15") == DeltaPoly.from_exponents([1, 3, 15])
    assert parse_form("0") == DeltaPoly(1)
    assert parse_form("0x") == DeltaPoly(0)
    assert parse_form("") == DeltaPoly(0)
    with pytest.raises(ValueError):
        parse_form("1,a")
    with pytest.raises(ValueError):
        parse_form("-2")


def test_hecke_command(capsys):
    assert main(["hecke", "--p", "3", "--form", "15"]) == 0
    assert capsys.readouterr().out.strip() == "x^13 + x^5"
    assert main(["hecke", "--p", "5", "--form", "9"]) == 0
    assert capsys.readouterr().out.strip() == "0"
    assert main(["hecke", "--p", "7", "--form", "7", "--both"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["x^1", "x^1", "agree"]
    assert main(["hecke", "--p", "3", "--form", "15", "--naive"]) == 0
    assert capsys.readouterr().out.strip() == "x^13 + x^5"


def test_hecke_command_usage_errors(capsys):
    assert main(["hecke", "--p", "9", "--form", "1"]) == 2
    assert main(["hecke", "--p", "3", "--form", "nope"]) == 2
    capsys.readouterr()


def test_repeated_exponent_is_a_usage_error(capsys, monkeypatch):
    # over GF(2) a repeated exponent would cancel, so `3,3` would silently be
    # the zero form; the spec is rejected and the exponent named
    with pytest.raises(ValueError, match="^exponent 3 is repeated$"):
        parse_form("1,3,5,3")

    def never(*args):
        raise AssertionError("a form with a repeated exponent reached the computation")

    monkeypatch.setattr(cli, "hecke_fast", never)
    monkeypatch.setattr(cli, "g_general", never)
    assert main(["hecke", "--p", "3", "--form", "3,3"]) == 2
    assert main(["g", "--form", "1,7,15,7"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: exponent 3 is repeated",
        "error: exponent 7 is repeated",
    ]
    with pytest.raises(SystemExit):
        main(["g", "--help"])
    assert "distinct exponents" in capsys.readouterr().out


def test_hecke_route_flags(capsys):
    # the recurrence route is the default; --naive and --both exclude each other
    for flags in (["--fast"], ["--naive", "--both"]):
        with pytest.raises(SystemExit) as exc:
            main(["hecke", "--p", "3", "--form", "15", *flags])
        assert exc.value.code == 2
    with pytest.raises(SystemExit):
        main(["hecke", "--help"])
    out = " ".join(capsys.readouterr().out.split())
    assert "--fast" not in out
    # the help states what one call of the recurrence route costs
    assert "tail octets times the terms of F_p" in out


def test_form_degree_cap(capsys, monkeypatch):
    assert parse_form(str(MAX_FORM_DEGREE)).degree == MAX_FORM_DEGREE
    with pytest.raises(ValueError):
        parse_form(f"1,{MAX_FORM_DEGREE + 1}")

    def never(*args):
        raise AssertionError("a form above the cap reached the computation")

    monkeypatch.setattr(cli, "hecke_fast", never)
    monkeypatch.setattr(cli, "hecke_naive", never)
    monkeypatch.setattr(cli, "g_general", never)
    big = str(MAX_FORM_DEGREE + 1)
    assert main(["hecke", "--p", "3", "--form", big]) == 2
    assert main(["hecke", "--p", "3", "--form", big, "--both"]) == 2
    assert main(["g", "--form", f"1,{big}"]) == 2
    assert f"at most {MAX_FORM_DEGREE}" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        main(["hecke", "--help"])
    assert f"each at most {MAX_FORM_DEGREE}" in capsys.readouterr().out


def test_prime_cap(capsys, monkeypatch):
    def never(*args):
        raise AssertionError("a prime above the cap reached the computation")

    for name in ("is_odd_prime", "compute_charpoly", "cached_charpoly", "read_charpoly",
                 "hecke_fast", "hecke_naive"):
        monkeypatch.setattr(cli, name, never)
    big = str(10**30 + 57)
    for argv in (
        ["fp", "compute", "--p", big],
        ["fp", "show", "--p", str(MAX_PRIME + 1)],
        ["fp", "verify", "--p", big],
        ["hecke", "--p", big, "--form", "15"],
        ["hecke", "--p", big, "--form", "15", "--naive"],
        ["hecke", "--p", str(MAX_PRIME + 1), "--form", "15", "--both"],
    ):
        assert main(argv) == 2
    assert f"--p must be at most {MAX_PRIME}" in capsys.readouterr().err
    for command in ("fp", "hecke"):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        assert f"odd prime, at most {MAX_PRIME}" in capsys.readouterr().out


def test_verify_and_bench_range_caps(capsys, monkeypatch):
    def never(*args):
        raise AssertionError("an out-of-range argument reached the computation")

    for name in ("run_suite", "compute_charpoly", "odd_primes_up_to"):
        monkeypatch.setattr(cli, name, never)
    for argv in (
        ["verify", "theorem", "--kmax", "-1"],
        ["verify", "all", "--kmax", "0"],
        ["verify", "all", "--kmax", str(MAX_FORM_DEGREE + 1)],
        ["verify", "all", "--pmax", str(MAX_PRIME + 1)],
        ["verify", "all", "--pmax", str(MAX_PRIME + 1), "--long"],
        # --long sweeps to its own bound, so a --kmax beside it would be ignored
        ["verify", "theorem", "--long", "--kmax", "100"],
        ["bench", "--pmax", str(MAX_PRIME + 1)],
        # no odd prime to check or solve: a claim or table over none must not run
        ["verify", "all", "--pmax", "2"],
        ["verify", "prop1", "--pmax", "-1"],
        ["bench", "--pmax", "2"],
        ["bench", "--pmax", "-1"],
    ):
        assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"--kmax must be between 1 and {MAX_FORM_DEGREE}" in err
    assert "--long sweeps to k<=32999 and takes no --kmax" in err
    assert err.count(f"--pmax must be between 3 and {MAX_PRIME}") == 7
    for command in ("verify", "bench"):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        assert f"3 to {MAX_PRIME}" in capsys.readouterr().out
    with pytest.raises(SystemExit):
        main(["verify", "--help"])
    assert f"1 to {MAX_FORM_DEGREE}; not with --long" in " ".join(capsys.readouterr().out.split())

    # the bounds themselves are accepted
    seen = []
    monkeypatch.setattr(cli, "run_suite", lambda suite, cfg: seen.append(cfg) or VerificationReport())
    argv = ["verify", "all", "--kmax", str(MAX_FORM_DEGREE), "--pmax", str(MAX_PRIME)]
    assert main(argv) == 0
    assert main(["verify", "all", "--kmax", "1"]) == 0
    assert main(["verify", "all", "--long"]) == 0
    assert main(["verify", "all"]) == 0
    assert [(c.kmax, c.pmax, c.structure_kmax) for c in seen] == [
        (MAX_FORM_DEGREE, MAX_PRIME, MAX_FORM_DEGREE), (1, 31, 1),
        (4095, 31, 32999), (4095, 31, 4095),
    ]
    capsys.readouterr()


def test_largest_prime_below_cap_is_accepted(capsys):
    largest = max(q for q in range(3, MAX_PRIME + 1, 2) if all(q % d for d in range(3, q, 2)))
    # T_p kills Delta mod 2 at every odd prime
    assert main(["hecke", "--p", str(largest), "--form", "1", "--naive"]) == 0
    assert capsys.readouterr().out.strip() == "0"


def test_g_command(capsys):
    assert main(["g", "--form", "15"]) == 0
    line = capsys.readouterr().out.strip()
    assert line == "g=5 h=4 dominant=15 code=(3,1) witness=T3^3 T5^1"
    assert main(["g", "--form", "0x"]) == 0
    assert capsys.readouterr().out.strip() == "g=-inf"
    assert main(["g", "--form", "1,3"]) == 0
    assert capsys.readouterr().out.startswith("g=2")
    assert main(["g", "--form", "3,6"]) == 0
    out = capsys.readouterr().out
    assert "component s=0" in out and "component s=1" in out


def test_fp_round_trip(cache_env, capsys):
    assert main(["fp", "compute", "--p", "3"]) == 0
    capsys.readouterr()
    assert main(["fp", "show", "--p", "3"]) == 0
    out = capsys.readouterr().out
    assert "s3: 1" in out and "s4: 4" in out
    assert "F_3(X,Y) = Y^4 + X Y + X^4" in out
    assert main(["fp", "verify", "--p", "3"]) == 0
    capsys.readouterr()


def test_fp_show_renders_f5_without_cache(cache_env, capsys):
    assert main(["fp", "show", "--p", "5"]) == 0
    out = capsys.readouterr().out
    assert "F_5(X,Y) = Y^6 + X^2 Y^4 + X^4 Y^2 + X Y + X^6" in out


def test_fp_verify_flags_corruption(cache_env, capsys):
    assert main(["fp", "compute", "--p", "7"]) == 0
    capsys.readouterr()
    path = cache_env / "fp_7.txt"
    text = path.read_text()
    path.write_text(text.replace("s7: 1", "s7: 3"))
    assert main(["fp", "verify", "--p", "7"]) == 1
    err = capsys.readouterr().err
    assert "congruence" in err or "symmetry" in err

    path.write_text(text.replace("end 3", "end 4"))
    assert main(["fp", "verify", "--p", "7"]) == 1
    assert "checksum" in capsys.readouterr().err

    # structurally legal but wrong relation: caught by the series residual
    path.write_text(text.replace("s6: 2", "s6: -").replace("end 3", "end 2"))
    assert main(["fp", "verify", "--p", "7"]) == 1
    assert "residual" in capsys.readouterr().err


def test_fp_verify_missing_cache(cache_env, capsys):
    assert main(["fp", "verify", "--p", "11"]) == 1
    capsys.readouterr()


def test_fp_rejects_composite(cache_env, capsys):
    assert main(["fp", "compute", "--p", "9"]) == 2
    capsys.readouterr()


def test_verify_command(capsys):
    assert main(["verify", "tables", "--kmax", "63", "--pmax", "7"]) == 0
    out = capsys.readouterr().out
    assert "claim=t3-table" in out and "status=pass" in out
    assert "claims passed" in out


def test_verify_exit_code_on_unknown_suite():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "nope"])
    assert exc.value.code == 2


def test_bench_command(capsys):
    assert main(["bench", "--pmax", "13"]) == 0
    out = capsys.readouterr().out
    for p in (3, 5, 7, 11, 13):
        assert f"\n{p:>5} " in "\n" + out
    assert "total" in out


def test_cli_output_is_deterministic(capsys):
    main(["g", "--form", "1,3,15"])
    first = capsys.readouterr().out
    main(["g", "--form", "1,3,15"])
    assert capsys.readouterr().out == first
