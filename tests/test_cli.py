import json
import subprocess
import sys

import pytest

from innerqft.cli import main

CMD = [sys.executable, "-m", "innerqft.cli"]


def run(*args, **kw):
    return subprocess.run(CMD + list(args), capture_output=True, text=True, **kw)


def test_verify_pass_exit_code():
    assert main(["verify", "--suite", "ccr"]) == 0


def test_verify_all_passes(capsys):
    assert main(["verify", "--suite", "all"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out


def test_verify_fail_exit_code():
    # an absurdly strict tolerance makes the numeric suites fail...
    assert main(["verify", "--suite", "unitarity", "--tol", "1e-30"]) == 1


def test_symbolic_suites_ignore_tolerance():
    # ...while exact symbolic suites are tolerance-independent
    for suite in ("ccr", "car", "gauge", "gravlimit"):
        assert main(["verify", "--suite", suite, "--tol", "1e-30"]) == 0


def test_usage_errors(tmp_path):
    proc = run("verify", "--suite", "nonsense")
    assert proc.returncode == 2
    proc = run("verify")
    assert proc.returncode == 2
    proc = run()
    assert proc.returncode == 2
    # malformed numbers in input files are usage errors, not tracebacks
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("seed = x\n")
    legs = tmp_path / "legs.txt"
    legs.write_text("in dirac p=1,0,0 s=x\nout dirac p=1,0,0 s=1\n")
    good_legs = tmp_path / "good_legs.txt"
    good_legs.write_text("in scalar p=1,0,0\nout scalar p=1,0,0\n")
    greens = tmp_path / "greens.txt"
    greens.write_text("vertex abc\n")
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    for args in (("verify", "--suite", "ccr", "--config", str(cfg)),
                 ("reduce", str(empty), "--legs", str(legs)),
                 ("reduce", str(greens), "--legs", str(good_legs))):
        proc = run(*args)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "bad number" in proc.stderr
    # out-of-range values are usage errors too, not tracebacks or failures
    inf_cfg = tmp_path / "inf.cfg"
    inf_cfg.write_text("lambda = inf\n")
    nan_cfg = tmp_path / "nan.cfg"
    nan_cfg.write_text("v_reg = nan\n")
    for args in (("verify", "--suite", "unitarity", "--seed", "-1"),
                 ("verify", "--suite", "gravlimit", "--config", str(inf_cfg)),
                 ("verify", "--suite", "gravlimit", "--config", str(nan_cfg)),
                 ("verify", "--suite", "kinematics", "--tol", "nan")):
        proc = run(*args)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr


def test_json_schema(capsys):
    assert main(["verify", "--suite", "ccr", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["suite"] == "ccr"
    assert doc["seed"] == 0
    assert isinstance(doc["config"], dict)
    assert doc["cases"]
    for case in doc["cases"]:
        assert set(case) == {"name", "status", "detail", "lhs", "rhs",
                             "tolerance"}
        assert case["status"] in ("pass", "fail")
    names = [c["name"] for c in doc["cases"]]
    assert names == sorted(names)


def test_report_determinism(capsys):
    main(["verify", "--suite", "all", "--format", "json", "--seed", "3"])
    first = capsys.readouterr().out
    main(["verify", "--suite", "all", "--format", "json", "--seed", "3"])
    second = capsys.readouterr().out
    assert first == second


def test_seed_changes_sampled_values(capsys):
    main(["verify", "--suite", "kinematics", "--format", "json", "--seed", "1"])
    one = capsys.readouterr().out
    main(["verify", "--suite", "kinematics", "--format", "json", "--seed", "2"])
    two = capsys.readouterr().out
    assert json.loads(one)["seed"] != json.loads(two)["seed"]


def test_commutator_command(capsys):
    assert main(["commutator", "a(k;K)", "a'(h;H)"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "2*L^-4*(2pi)^7*w(k)*d3(h-k)*d4(H-K)"


def test_anticommutator_command(capsys):
    assert main(["anticommutator", "b(k,s=1;K)", "b'(h,s=1;H)"]) == 0
    out = capsys.readouterr().out.strip()
    assert out.startswith("1*L^-4*(2pi)^7*E/m(k)")


def test_vev_command(capsys):
    assert main(["vev", "T a(k;K) a'(h;H)"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "2*L^-4*(2pi)^7*w(k)*d3(h-k)*d4(H-K)"
    assert main(["vev", "a'(h;H) a(k;K)"]) == 0
    assert capsys.readouterr().out.strip() == "0"


def test_parse_error_exit_code(capsys):
    assert main(["vev", "A(k,g=0;K,G=0)"]) == 2
    assert main(["commutator", "a(k;K", "a(h;H)"]) == 2


def test_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("tolerance = 1e-10\nseed = 9\nlambda = 2.0\nv_reg = 16.0\n")
    assert main(["verify", "--suite", "gravlimit", "--config", str(cfg)]) == 0
    capsys.readouterr()
    assert main(["verify", "--suite", "ccr", "--config", str(cfg),
                 "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["seed"] == 9
    assert doc["config"]["lam"] == 2.0


def test_flags_override_config(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = 9\n")
    assert main(["verify", "--suite", "ccr", "--config", str(cfg),
                 "--seed", "4", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 4


def test_bad_config_exit_code(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("nonsense = 1\n")
    assert main(["verify", "--suite", "ccr", "--config", str(cfg)]) == 2
    cfg.write_text("tolerance = -1\n")
    assert main(["verify", "--suite", "ccr", "--config", str(cfg)]) == 2
    cfg.write_text("z = 2.0\n")
    assert main(["verify", "--suite", "ccr", "--config", str(cfg)]) == 2


def test_reduce_command(tmp_path, capsys):
    legs = tmp_path / "legs.txt"
    legs.write_text("in  scalar p=1,2,2\nout scalar p=1,2,2\n")
    greens = tmp_path / "greens.txt"
    greens.write_text("# free theory: no vertices\n")
    assert main(["reduce", str(greens), "--legs", str(legs)]) == 0
    out = capsys.readouterr().out
    assert "connected: 0j" in out
    assert "invariance: 1" in out


def test_reduce_json(tmp_path, capsys):
    legs = tmp_path / "legs.txt"
    legs.write_text("in scalar p=1,0,0\nout scalar p=1,0,0\n")
    greens = tmp_path / "greens.txt"
    greens.write_text("vertex 2.0 0.5\n")
    assert main(["reduce", str(greens), "--legs", str(legs),
                 "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"connected", "elastic", "invariance"}
    assert doc["connected"]["re"] != 0 or doc["connected"]["im"] != 0


def test_reduce_bad_legs(tmp_path, capsys):
    legs = tmp_path / "legs.txt"
    legs.write_text("in tensor p=1,0,0\n")
    greens = tmp_path / "greens.txt"
    greens.write_text("")
    assert main(["reduce", str(greens), "--legs", str(legs)]) == 2
    legs.write_text("in gauge p=1,0,0\n")  # missing polarizations
    assert main(["reduce", str(greens), "--legs", str(legs)]) == 2


def test_console_entry_point():
    proc = run("verify", "--suite", "ccr")
    assert proc.returncode == 0
    assert "passed" in proc.stdout
