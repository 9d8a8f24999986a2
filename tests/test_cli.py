import argparse
import contextlib
import importlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import innerqft
from innerqft import suites
from innerqft.cli import build_parser, main
from innerqft.config import RunConfig

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


def test_json_config_block(tmp_path, capsys):
    """The `config` object of a JSON report: every RunConfig field, under
    its field name, in the report's sorted key order."""
    assert list(RunConfig().as_dict()) == [
        "tolerance", "i_epsilon", "seed", "lam", "v_reg", "z", "z2", "z3",
        "fmt"]
    assert main(["verify", "--suite", "ccr", "--format", "json"]) == 0
    assert list(json.loads(capsys.readouterr().out)["config"].items()) == [
        ("fmt", "json"), ("i_epsilon", 1e-08), ("lam", 1.0), ("seed", 0),
        ("tolerance", 1e-12), ("v_reg", 1.0), ("z", 1.0), ("z2", 1.0),
        ("z3", 1.0)]
    cfg = tmp_path / "run.cfg"
    cfg.write_text("tolerance = 1e-10\nseed = 9\nlambda = 2\nv_reg = 16.0\n"
                   "z2 = 0.5\nformat = json\n")
    assert main(["verify", "--suite", "ccr", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert list(json.loads(out)["config"].items()) == [
        ("fmt", "json"), ("i_epsilon", 1e-08), ("lam", 2.0), ("seed", 9),
        ("tolerance", 1e-10), ("v_reg", 16.0), ("z", 1.0), ("z2", 0.5),
        ("z3", 1.0)]
    assert ('  "config": {\n    "fmt": "json",\n    "i_epsilon": 1e-08,\n'
            '    "lam": 2.0,\n    "seed": 9,\n    "tolerance": 1e-10,\n'
            '    "v_reg": 16.0,\n    "z": 1.0,\n    "z2": 0.5,\n'
            '    "z3": 1.0\n  },\n') in out


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


def _reduce_inputs(tmp_path) -> list:
    legs = tmp_path / "legs.txt"
    legs.write_text("in dirac p=1,2,2 s=1\nin gauge p=0,1,0 g=1 G=2\n"
                    "out dirac p=1,2,2 s=1\nout gauge p=0,1,0 g=1 G=2\n")
    greens = tmp_path / "greens.txt"
    greens.write_text("vertex 2.0 0.5\n")
    return [str(greens), str(legs)]


def test_only_verify_imports_numpy(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", NUMPY_STEPS, str(ROOT / "perfbench" / "checks.py"),
         *_reduce_inputs(tmp_path)], capture_output=True, text=True, env=ENV)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [
        ["import innerqft.cli", False], ["import perfbench/checks.py", False],
        ["vev", False], ["commutator", False], ["reduce", False],
        ["verify", True]]


# Which heavy standard modules the exact commands load, in one fresh
# interpreter started with -S, so that `site` (and any .pth file it runs)
# cannot import them first. numpy imports all three, so `verify` is left out.
LEAN_STEPS = r"""
import contextlib, io, json, sys
steps = []

def step(name):
    steps.append([name, sorted(m for m in ("dataclasses", "inspect", "typing")
                               if m in sys.modules)])

import innerqft.cli
step("import innerqft.cli")
for argv in (["vev", "T a(k;K) a'(h;H) b(q,s=1;Q) b'(p,s=2;P)"],
             ["commutator", "a(k;K)", "a'(h;H)"],
             ["reduce", sys.argv[1], "--legs", sys.argv[2], "--format", "json"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert innerqft.cli.main(argv) == 0, argv
    step(argv[0])
print(json.dumps(steps))
"""


def test_exact_commands_import_no_dataclasses_inspect_or_typing(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-S", "-c", LEAN_STEPS, *_reduce_inputs(tmp_path)],
        capture_output=True, text=True, env=ENV)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [
        ["import innerqft.cli", []], ["vev", []], ["commutator", []],
        ["reduce", []]]


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


# Random token strings: an expression command exits 0 or 2, never through
# an exception.
_TOKENS = ["a", "a'", "b", "d", "A'", "(", ")", "[", "]", ";", ",", "k", "K",
           "~", "s=", "g=", "G=", "0", "1", "2", "1/0", "3/2", "0.5", "1.5/2",
           "-", "+", "*", "i", "L", "^", "(2pi)", "Vreg", "w", "E/m", "kd",
           "eta", "ETA", "d3", "d4", "|0>", "T", "@", " "]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["vev", "commutator", "anticommutator"]),
       st.lists(st.lists(st.sampled_from(_TOKENS), max_size=24).map("".join),
                min_size=2, max_size=2))
def test_expression_commands_never_raise(command, texts):
    argv = [command] + (texts[:1] if command == "vev" else texts)
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) in (0, 2)


def _reduce(tmp_path, legs, greens=""):
    (tmp_path / "legs.txt").write_text(legs)
    (tmp_path / "greens.txt").write_text(greens)
    return main(["reduce", str(tmp_path / "greens.txt"),
                 "--legs", str(tmp_path / "legs.txt")])


@pytest.mark.parametrize("leg", ["p=1e400,0,0", "p=1,0,0 E=1e300",
                                 "p=1e200,0,0 E=1", "p=1,0,0 E=nan"])
def test_reduce_rejects_out_of_range_legs(leg, tmp_path, capsys):
    assert _reduce(tmp_path, f"in scalar {leg}\nout scalar p=1,0,0\n") == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("vertex", ["vertex nan", "vertex inf 0",
                                    "vertex 1e308\nvertex 1e308"])
def test_reduce_rejects_non_finite_amplitudes(vertex, tmp_path, capsys):
    legs = "in scalar p=1,0,0\nout scalar p=1,0,0\n"
    assert _reduce(tmp_path, legs, vertex + "\n") == 2
    assert "is not finite" in capsys.readouterr().err


@pytest.mark.parametrize("greens, line", [
    ("vertex nan", 1), ("vertex inf", 1), ("vertex -inf", 1),
    ("vertex inf\nvertex -inf", 1), ("vertex 1\nvertex 0 -inf", 2),
    ("vertex 2 0.5\n# note\nvertex nan 1", 3)])
def test_non_finite_vertex_exits_2_at_its_line(greens, line, tmp_path, capsys):
    legs = "in scalar p=1,0,0\nout scalar p=1,0,0\n"
    assert _reduce(tmp_path, legs, greens + "\n") == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {tmp_path / 'greens.txt'}:{line}: "
                          "vertex factor ")
    assert err.endswith(" is not finite\n")


# Random legs and greens files: reduce exits 0 or 2, never through an
# exception. Most lines are well formed, so that many files load.
_FIELD_KEYS = {"scalar": "", "dirac": " s=1", "antidirac": " s=2",
               "gauge": " g=1 G=2"}
_MOMENTA = ["p=1,0,0"] * 4 + ["p=1/2,0,1", "p=1e400,0,0", "p=1e200,0,0",
                              "p=1/0,0,0", "p=1,0", "p=nan,0,0"]
_EXTRAS = [""] * 8 + ["s=3", "s=x", "g=5", "G=0", "E=1.4142135623730951",
                      "E=1.5", "E=nan", "E=inf", "E=1e300", "q=1"]
_leg_lines = st.builds(
    lambda d, f, p, extra: f"{d} {f} {p}{_FIELD_KEYS[f]} {extra}",
    st.sampled_from(["in", "out"]), st.sampled_from(sorted(_FIELD_KEYS)),
    st.sampled_from(_MOMENTA), st.sampled_from(_EXTRAS))
_vertex_lines = st.lists(
    st.sampled_from(["1", "-2.5", "0"] * 3
                    + ["1e308", "nan", "inf", "1/0", "x"]),
    min_size=1, max_size=2).map(lambda nums: " ".join(["vertex"] + nums))


def _file(lines, max_size):
    return st.lists(lines, max_size=max_size).map(
        lambda ls: "".join(line + "\n" for line in ls))


@settings(max_examples=200, deadline=None)
@given(_file(_leg_lines, 4), _file(_vertex_lines, 3))
def test_reduce_never_raises(legs, greens):
    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        assert _reduce(Path(tmp), legs, greens) in (0, 2)


def test_reduce_accepts_a_rounded_on_shell_energy_at_large_momentum(tmp_path,
                                                                    capsys):
    # E is repr(sqrt(1 + 1e10)): on shell relative to E^2, not absolutely
    legs = "in scalar p=100000,0,0 E=100000.000005\nout scalar p=100000,0,0\n"
    assert _reduce(tmp_path, legs) == 0
    assert "invariance: 1" in capsys.readouterr().out


def test_reduce_rejects_an_off_shell_energy_at_large_momentum(tmp_path, capsys):
    legs = "in scalar p=100000,0,0 E=100000.1\nout scalar p=100000,0,0\n"
    assert _reduce(tmp_path, legs) == 2
    assert "off-shell" in capsys.readouterr().err


# The exact cases of the verify report, pinned per seed. Numeric cases are
# left out: their residuals depend on the BLAS build. A change to this text
# is a declared report change and updates the files with it.
DATA = Path(__file__).resolve().parent / "data"
_PINNED = ("name", "status", "detail", "lhs", "rhs")


@pytest.mark.parametrize("seed", [0, 21])
def test_exact_cases_match_golden_report(seed, capsys):
    assert main(["verify", "--suite", "all", "--format", "json",
                 "--seed", str(seed)]) == 0
    doc = json.loads(capsys.readouterr().out)
    got = [{k: c[k] for k in _PINNED} for c in doc["cases"]
           if c["tolerance"] is None]
    want = json.loads((DATA / f"verify_exact_seed{seed}.json").read_text())
    assert got == want
