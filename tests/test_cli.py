import argparse
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import innerqft
from innerqft import suites
from innerqft.cli import build_parser, main

ROOT = Path(__file__).resolve().parent.parent
CMD = [sys.executable, "-m", "innerqft.cli"]
# children find the package in src/ whether or not PYTHONPATH names it
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))


def run(*args, **kw):
    return subprocess.run(CMD + list(args), capture_output=True, text=True,
                          env=ENV, **kw)


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


# Which steps leave numpy loaded, in one fresh interpreter: the exact
# commands and the benchmark's output checks must not import it.
NUMPY_STEPS = r"""
import contextlib, importlib.util, io, json, sys
steps = []

def step(name):
    steps.append([name, "numpy" in sys.modules])

import innerqft.cli
step("import innerqft.cli")
spec = importlib.util.spec_from_file_location("perfbench_checks", sys.argv[1])
checks = importlib.util.module_from_spec(spec)
sys.modules[spec.name] = checks
spec.loader.exec_module(checks)
step("import perfbench/checks.py")
for argv in (["vev", "T a(k;K) a'(h;H) b(q,s=1;Q) b'(p,s=2;P)"],
             ["commutator", "a(k;K)", "a'(h;H)"],
             ["reduce", sys.argv[2], "--legs", sys.argv[3], "--format", "json"],
             ["verify", "--suite", "ccr"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert innerqft.cli.main(argv) == 0, argv
    step(argv[0])
print(json.dumps(steps))
"""


def test_only_verify_imports_numpy(tmp_path):
    legs = tmp_path / "legs.txt"
    legs.write_text("in dirac p=1,2,2 s=1\nin gauge p=0,1,0 g=1 G=2\n"
                    "out dirac p=1,2,2 s=1\nout gauge p=0,1,0 g=1 G=2\n")
    greens = tmp_path / "greens.txt"
    greens.write_text("vertex 2.0 0.5\n")
    proc = subprocess.run(
        [sys.executable, "-c", NUMPY_STEPS, str(ROOT / "perfbench" / "checks.py"),
         str(greens), str(legs)], capture_output=True, text=True, env=ENV)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [
        ["import innerqft.cli", False], ["import perfbench/checks.py", False],
        ["vev", False], ["commutator", False], ["reduce", False],
        ["verify", True]]


def test_package_names_resolve_lazily():
    for name, module in innerqft._MODULE_OF.items():
        home = importlib.import_module(f"innerqft.{module}")
        assert getattr(innerqft, name) is getattr(home, name)
    assert innerqft.numeric is importlib.import_module("innerqft.numeric")
    with pytest.raises(AttributeError):
        innerqft.no_such_name


def test_suite_choices_are_the_suites():
    (sub,) = [a for a in build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    (suite,) = [a for a in sub.choices["verify"]._actions if a.dest == "suite"]
    assert list(suite.choices) == sorted(suites.SUITES) + ["all"]


def test_failed_exact_case_lists_term_differences(monkeypatch):
    right = suites.scalar_contact()
    extra = suites.dirac_contact()
    # twice the right coefficient, plus a monomial the result lacks
    monkeypatch.setattr(suites, "scalar_contact",
                        lambda *a, **kw: right.scale(2) + extra)
    cases = {c.name: c for c in suites.suite_ccr(suites.RunConfig())}
    (term,) = right.terms
    (absent,) = extra.terms
    want = f"missing: {absent}; wrong coefficient: {term} (want 4)"
    assert cases["ccr.a_adag_contact"].detail == want
    assert cases["ccr.vev_normalization"].detail == want
    assert not cases["ccr.a_adag_contact"].passed
    assert cases["ccr.aa_vanishes"].detail == "exact term equality"
    both = right + extra
    got = suites._exact("x", both, suites.OperatorExpr.zero())
    assert got.detail == "extra: " + ", ".join(str(m) for m in both.terms)
