"""End-to-end command line tests: flags, exit codes, round trips."""

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
