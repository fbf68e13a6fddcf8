"""End-to-end command line tests: flags, exit codes, round trips."""

import hashlib
import json

import pytest

from olmcheck.charts import Chart
from olmcheck.cli import main
from olmcheck.fields import QQ
from olmcheck.ideals import Ideal
from olmcheck.verify import CheckResult, ChartReport


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_build_json_contains_chart_data(capsys):
    code, out, _ = run(capsys, "build", "--d", "6", "--l", "2",
                       "--fiber", "special")
    assert code == 0
    data = json.loads(out)
    assert data["case"] == "EE"
    assert data["Z"] == [3, 4]
    reduced = data["ideals"]["reduced"]
    assert "x[3][1]*x[4][2] - x[3][2]*x[4][1]" in reduced
    trace = [t for t in reduced if "x[3][1]*x[4][6]" in t and "x[3][6]*x[4][1]" in t]
    assert trace, "trace quadric missing from the special fiber"


def test_build_text_round_trips_through_gb(capsys, tmp_path):
    gen_file = tmp_path / "chart.gens"
    code, _, _ = run(capsys, "build", "--d", "6", "--l", "2",
                     "--format", "text", "--out", str(gen_file))
    assert code == 0
    out_file = tmp_path / "basis.txt"
    code, _, _ = run(capsys, "gb", "--input", str(gen_file),
                     "--out", str(out_file))
    assert code == 0
    chart = Chart(6, 2, QQ)
    ring = chart.reduced_ring
    basis = [ring.parse(ln) for ln in out_file.read_text().splitlines() if ln]
    assert Ideal(ring, basis).equals(chart.reduced_ideal())


# sha256 of ``olmcheck build`` output per (format, fiber): the printed order
# and the dedup of every chart ideal, pinned byte for byte
BUILD_DIGESTS = {
    (5, 2, 32003): {
        ("text", "arithmetic"):
            "bfc330dca15a9c25dc4333d6bbb150b7935c1619de52a86f15997f9cd0082136",
        ("text", "special"):
            "9e72720f3b810a28dbd05ff6216e150af97a182eb1d5dbe86a3989fea6e189fe",
        ("text", "generic"):
            "f9731a9eb993032daa8514c88fe5fdb6c0281efccfd8ffaf77e665c9217bb81e",
        ("json", "arithmetic"):
            "97acc622116480d82d9a4b6c6c780ca388cee4c2cd707d85de5370f08dadf172",
        ("json", "special"):
            "773fe72c39cbaae2eeceadf970b87f3049e8d3654dfa8ea7071eccfb197dc5de",
        ("json", "generic"):
            "e0ff4a4d95dda56dc4212cd85a6b914d767c47558d32c348ecdd2b2fa8b9209c",
    },
    (5, 2, 0): {
        ("text", "arithmetic"):
            "bfc330dca15a9c25dc4333d6bbb150b7935c1619de52a86f15997f9cd0082136",
        ("text", "special"):
            "9e72720f3b810a28dbd05ff6216e150af97a182eb1d5dbe86a3989fea6e189fe",
        ("text", "generic"):
            "f9731a9eb993032daa8514c88fe5fdb6c0281efccfd8ffaf77e665c9217bb81e",
        ("json", "arithmetic"):
            "2ad58c2933dc5bfed2b98a449e93599dded0816a037bb52c5b44da8719371744",
        ("json", "special"):
            "4e8cafe83fbd9d4da8c7496caec4e06dd28b28b9ab8b36f5c7311e85177ab588",
        ("json", "generic"):
            "ff1a38a5a18f493234dd999cafd16df3216b5acd0d601037a54b09e6a064a041",
    },
    (5, 3, 32003): {
        ("text", "arithmetic"):
            "d48e66c1e494ca8a64d3c34fe2530f9d461189ad419114debe6185fa65025d24",
        ("text", "special"):
            "f045526e47ed4968a07457e43f51e49ad1181c45417f56a396daf5ca0a67325c",
        ("text", "generic"):
            "851848d9d8d7430906d5eeeb046621422f7339ce529ce426b5ef41c8987abc16",
        ("json", "arithmetic"):
            "40c4b864b1bb7004bdbada36cd96464125d42326efc601c61aa6d11fc7e7a7c5",
        ("json", "special"):
            "6cb59d3cedf0b0b785e57a2fe3e13f1cd6ff0a11398cef04f68563c43f0bf543",
        ("json", "generic"):
            "6b5c18c47b9447310c8896e2c2fa0544b49b7d0320ca32cdf342a618c0d5d9b8",
    },
    (5, 3, 0): {
        ("text", "arithmetic"):
            "d48e66c1e494ca8a64d3c34fe2530f9d461189ad419114debe6185fa65025d24",
        ("text", "special"):
            "f045526e47ed4968a07457e43f51e49ad1181c45417f56a396daf5ca0a67325c",
        ("text", "generic"):
            "851848d9d8d7430906d5eeeb046621422f7339ce529ce426b5ef41c8987abc16",
        ("json", "arithmetic"):
            "98f74abb754ac3bac3790d4532265801cd49f67fb03afda82e4c685ff61ebd3d",
        ("json", "special"):
            "1aca8eb3b4ee1f64897c3b87e157e503d7a7254bad7f84bcaf8dcea170d6f5af",
        ("json", "generic"):
            "375c81c1564971eda6c42b880e8bbca8672f0f3218e2aee3e74f863f31621f98",
    },
    (6, 2, 32003): {
        ("text", "arithmetic"):
            "25448f1b6a65d2335581eb07e7dbf303b6b864dda4facfdf72933e2cb5cd6898",
        ("text", "special"):
            "03fd9ce5ae504fca80c111345a4c2feb56606ac7cdb844a495750ccaa4c27623",
        ("text", "generic"):
            "ae48aa46b35048253c03b554d2f43ff9b1dc982601871a589dcaf8c33ec4a46e",
        ("json", "arithmetic"):
            "b84e7b1cef3007f9c40417ac0c290d34ba4affac6a6cd86ef95479ffbe26bfeb",
        ("json", "special"):
            "d320c19d7a3c13b18fd1f39828a0105f67468755bd07172665188f7bae07ae7c",
        ("json", "generic"):
            "6868b48ebb058787ca19874068db4944af7aa8ad2f24b76d6263aa8cc2836c5d",
    },
    (6, 2, 0): {
        ("text", "arithmetic"):
            "25448f1b6a65d2335581eb07e7dbf303b6b864dda4facfdf72933e2cb5cd6898",
        ("text", "special"):
            "03fd9ce5ae504fca80c111345a4c2feb56606ac7cdb844a495750ccaa4c27623",
        ("text", "generic"):
            "ae48aa46b35048253c03b554d2f43ff9b1dc982601871a589dcaf8c33ec4a46e",
        ("json", "arithmetic"):
            "b84e7b1cef3007f9c40417ac0c290d34ba4affac6a6cd86ef95479ffbe26bfeb",
        ("json", "special"):
            "d320c19d7a3c13b18fd1f39828a0105f67468755bd07172665188f7bae07ae7c",
        ("json", "generic"):
            "6868b48ebb058787ca19874068db4944af7aa8ad2f24b76d6263aa8cc2836c5d",
    },
    (6, 3, 32003): {
        ("text", "arithmetic"):
            "ef29e5972574ae893fbc91661ab7105e2fcecb0e9185f71d0e80ab2cf58080d0",
        ("text", "special"):
            "791a2655a432626ad8b6982733e9fa20db1a75b898a7a9ade66c4186a165ef3a",
        ("text", "generic"):
            "8a317a373a8f85816da8259a367ed40dc2d27572341c18f60ae8150533ac078b",
        ("json", "arithmetic"):
            "c27d507624096038ca75c3b704333124f0154098d8824f7b8d51d6338de640e8",
        ("json", "special"):
            "2e5c85ccff81a5d89144eeafbfd0599cfb4da7279c8d575296860b797b0eb79d",
        ("json", "generic"):
            "dd6c6007fe45f6ea1be370d3653abaa81e1c302148a40bf1cacbf2c225125c65",
    },
    (6, 3, 0): {
        ("text", "arithmetic"):
            "7e236940d9a007cbf8a3ea337dafa430dfed19afbfed94a384208157346aa07f",
        ("text", "special"):
            "ca1604b8545827cec8bbef9f22ae2c91cb056757effdb56bacdbe530be462a6b",
        ("text", "generic"):
            "472b238a88814e2d503c375d9613ddf06f88e88fa0b328c87dff8206044f9530",
        ("json", "arithmetic"):
            "40decda972a38c703d099de1c39da8249d4ffca77eaa4468ac2f26ea80cd44bb",
        ("json", "special"):
            "fa60b7f75f2bb1c702679960f9b37084ada26662d206b274382ce9f10d7dc940",
        ("json", "generic"):
            "7d088d507014e91d0d72b5102a217de532bb72e6c555fbc1d15cfd9f5dbcaa01",
    },
    # the two-component shapes of the other parity cases
    (7, 3, 32003): {
        ("json", "arithmetic"):
            "e637909f3842430672f242a78ac2ac4e7808c18390956b5dad6b68c9dd9b12f9",
    },
    (7, 4, 32003): {
        ("json", "arithmetic"):
            "1aa70d5284b8a12587e2503d141f03de1fba562cc3435e35001c8b745fa5d75e",
    },
    (8, 4, 32003): {
        ("json", "arithmetic"):
            "449a1ab7f136b0d10425539b2c154d196d093f1dbdd4b580c77126645aaf553d",
    },
}


@pytest.mark.parametrize("d, l, modulus", list(BUILD_DIGESTS))
def test_build_output_bytes_are_pinned(capsys, d, l, modulus):
    for (fmt, fiber), digest in BUILD_DIGESTS[d, l, modulus].items():
        code, out, _ = run(capsys, "build", "--d", str(d), "--l", str(l),
                           "--modulus", str(modulus), "--format", fmt,
                           "--fiber", fiber)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, (fmt, fiber)


def test_gb_json_format(capsys, tmp_path):
    f = tmp_path / "gens.txt"
    f.write_text("# a comment\nx[1][1]*x[2][2] - x[1][2]*x[2][1]\nx[1][1] + pi\n")
    code, out, _ = run(capsys, "gb", "--input", str(f), "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["variables"][-1] == "pi"
    assert len(data["basis"]) >= 2


def test_gb_block_order_and_modulus(capsys, tmp_path):
    f = tmp_path / "gens.txt"
    f.write_text("t*x[1][1] - 1\nt*x[1][2] - x[1][1]\n")
    # name 't' sorts after the matrix variables, so eliminate with block:2
    code, out, _ = run(capsys, "gb", "--input", str(f),
                       "--order", "block:2", "--modulus", "32003")
    assert code == 0
    assert out.strip()


def test_gb_missing_input_is_usage_error(capsys):
    code, _, err = run(capsys, "gb", "--input", "missing.txt")
    assert code == 2
    assert "missing.txt" in err


def test_gb_unparsable_input_is_usage_error(capsys, tmp_path):
    f = tmp_path / "bad.txt"
    f.write_text("x[1][1] +\n")
    code, _, _ = run(capsys, "gb", "--input", str(f))
    assert code == 2


def test_gb_zero_denominator_is_usage_error(capsys, tmp_path):
    for text, modulus in (("x + 1/0", "0"), ("x - 1/7", "7")):
        f = tmp_path / "zero.txt"
        f.write_text(text + "\n")
        code, _, err = run(capsys, "gb", "--input", str(f), "--modulus", modulus)
        assert code == 2
        assert err.startswith("parse error:")


def test_gb_exponent_overflow_is_usage_error(capsys, tmp_path):
    # the generators parse, but the lcm of their leads has degree 40000
    f = tmp_path / "overflow.txt"
    f.write_text("x^20000*y - 1\nx*y^20000 - 1\n")
    code, out, err = run(capsys, "gb", "--input", str(f))
    assert code == 2
    assert not out
    assert err == "error: lcm degree 40000 overflows the packed field\n"


def test_gb_without_nonzero_generators_is_usage_error(capsys, tmp_path,
                                                     monkeypatch):
    # a file of zero polynomials used to reach Buchberger and exit 1
    import olmcheck.cli as climod
    monkeypatch.setattr(climod, "buchberger",
                        lambda *args: pytest.fail("Buchberger ran"))
    f = tmp_path / "zero.txt"
    for text in ("0\n", "x - x\n", "# comment only\n", ""):
        f.write_text(text)
        code, out, err = run(capsys, "gb", "--input", str(f))
        assert (code, out) == (2, "")
        assert err == "no nonzero generators in %s\n" % f


def test_bad_flags_exit_two(capsys):
    assert run(capsys, "build", "--d", "6")[0] == 2          # missing --l
    assert run(capsys, "nonsense")[0] == 2
    assert run(capsys, "build", "--d", "4", "--l", "2")[0] == 2
    assert run(capsys, "verify", "--d", "6", "--l", "2",
               "--check", "nonsense")[0] == 2


def test_verify_check_passes(capsys):
    code, out, _ = run(capsys, "verify", "--d", "6", "--l", "2",
                       "--check", "special-fiber")
    assert code == 0
    assert "CHECK special-fiber: PASS" in out


def test_verify_json_deterministic_modulo_timing(capsys):
    argv = ("verify", "--d", "6", "--l", "2", "--check", "dimensions",
            "--format", "json")
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == 0
    d1, d2 = json.loads(out1), json.loads(out2)
    for d in (d1, d2):
        for rep in d["reports"]:
            rep.pop("timing")
    assert d1 == d2


def test_verify_timeout_exit_code(capsys):
    code, out, _ = run(capsys, "verify", "--d", "6", "--l", "2",
                       "--check", "reduction", "--timeout", "0.000001")
    assert code == 3
    assert "TIMEOUT" in out


def test_timeout_env_var_default(capsys, monkeypatch):
    monkeypatch.setenv("OLMCHECK_TIMEOUT", "0.000001")
    code, out, _ = run(capsys, "verify", "--d", "6", "--l", "2",
                       "--check", "reduction")
    assert code == 3
    monkeypatch.setenv("OLMCHECK_TIMEOUT", "not-a-number")
    code, _, err = run(capsys, "verify", "--d", "6", "--l", "2",
                       "--check", "dimensions")
    assert code == 2  # an unparsable value is a usage error
    assert "'not-a-number'" in err


@pytest.mark.parametrize("command, flag", [
    ("verify", "0"),
    ("verify", "nan"),
    ("verify", "-1"),
    ("gb", "-1"),
])
def test_timeout_must_be_finite_positive(capsys, monkeypatch, tmp_path,
                                         command, flag):
    # these used to run with no budget (exit 0) or, for verify -1, time out;
    # a bad OLMCHECK_TIMEOUT is the case in test_timeout_env_var_default
    monkeypatch.delenv("OLMCHECK_TIMEOUT", raising=False)
    if command == "gb":
        path = tmp_path / "gens.txt"
        path.write_text("x^2 - y\nx*y - 1\n")
        argv = ["gb", "--input", str(path)]
    else:
        argv = ["verify", "--d", "6", "--l", "2", "--check", "dimensions"]
    code, out, err = run(capsys, *argv, "--timeout", flag)
    assert code == 2
    assert out == ""
    assert repr(flag) in err


def test_build_generic_fiber(capsys):
    code, out, _ = run(capsys, "build", "--d", "6", "--l", "2",
                       "--fiber", "generic", "--format", "text")
    assert code == 0
    assert any(ln.strip().endswith("+ 2") for ln in out.splitlines())


def test_failing_report_exit_code(monkeypatch, capsys):
    import olmcheck.cli as climod
    fake = ChartReport(6, 2, "EE",
                       [CheckResult("dimensions", "fail", {"expected": 4})],
                       {"modulus": 32003})
    monkeypatch.setattr(climod, "chart_report",
                        lambda chart, cfg, checks=None: fake)
    code, out, _ = run(capsys, "verify", "--d", "6", "--l", "2",
                       "--check", "dimensions")
    assert code == 1
    assert "CHECK dimensions: FAIL" in out


def test_suite_rejects_bad_parameters(capsys):
    assert run(capsys, "suite", "--charts", "6;2")[0] == 2
    assert run(capsys, "suite", "--charts", "4,2")[0] == 2
    assert run(capsys, "suite", "--charts", "6,2", "--modulus", "4")[0] == 2
    assert run(capsys, "suite", "--charts", "5,2",
               "--modulus", str(2 ** 64 + 13))[0] == 2


def test_suite_runs_under_a_61_bit_prime(capsys):
    code, out, _ = run(capsys, "suite", "--charts", "5,2",
                       "--modulus", str(2 ** 61 - 1))
    assert code == 0
    assert out.count(": PASS") == 3


@pytest.mark.parametrize("charts", ["", ";", " ; "])
def test_empty_suite_runs_no_checks_and_exits_1(capsys, charts):
    code, out, _ = run(capsys, "suite", "--charts", charts)
    assert (code, out) == (1, "NOTE no checks run\n")


def test_suite_runs_reduced_checks(capsys):
    code, out, _ = run(capsys, "suite", "--charts", "6,2",
                       "--modulus", "32003", "--format", "json")
    assert code == 0
    data = json.loads(out)
    names = [c["name"] for c in data["reports"][0]["checks"]]
    assert "dimensions" in names and "special-fiber" in names


def test_suite_exit_code_follows_aggregate_pass(capsys):
    # every check of (9,3) is not-applicable: no report passes, so the
    # suite does not pass and the exit code says so
    from olmcheck.verify import run_suite
    assert not run_suite([(9, 3)]).aggregate_pass
    code, out, _ = run(capsys, "suite", "--charts", "9,3")
    assert out.count("NOT-APPLICABLE") == 3
    assert code == 1
    code, _, _ = run(capsys, "verify", "--d", "6", "--l", "3",
                     "--check", "reduction")
    assert code == 1


def test_unwritable_output_is_io_error(capsys):
    code, _, err = run(capsys, "verify", "--d", "6", "--l", "2",
                       "--check", "dimensions",
                       "--out", "/nonexistent-dir/report.json")
    assert code == 4
    assert "cannot write" in err
