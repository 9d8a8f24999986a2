"""The benchmark workloads run through the CLI and pass the benchmark's own
output checks, so a change to printed output that would make benchmark
operations fail shows up in the test suite.

`perfbench/workloads.py` and `perfbench/checks.py` are imported by path and
only read.
"""

import contextlib
import importlib.util
import io
import sys
from pathlib import Path

import pytest

from innerqft import cli, fock, grammar, opalg

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name, monkeypatch):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve string annotations through sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["verify-all", "vev-ladder", "lsz-legs"])
def test_workload_outputs_pass_checks(name, tmp_path, monkeypatch):
    workloads = _load("workloads", monkeypatch)
    checks = _load("checks", monkeypatch)
    wl = workloads.generate(name, 0, tmp_path, smoke=True)
    checker = checks.Checker(wl)
    assert wl.invocations
    for i, inv in enumerate(wl.invocations):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(list(inv.argv))
        checker.check(i, code, out.getvalue().encode())
    assert not checker.failures


def test_tracer_patch_points_are_recorded(monkeypatch, tmp_path):
    """Every layer the traced run names resolves, the class methods and the
    hot leaf it wraps stay patchable, and a traced `vev` and `reduce` each
    record `vev` spans and count `make_monomial` calls."""
    tracing = _load("tracing", monkeypatch)
    for name in tracing.SPANNED + tracing.SUITE_NAMES:
        mod, attr = name.split(".")
        assert callable(getattr(tracing._MODULES[mod], attr, None)), name
    assert isinstance(fock.FockState.__dict__["ket"], classmethod)
    assert isinstance(opalg.OperatorExpr.__dict__["from_monomials"],
                      classmethod)
    assert opalg.make_monomial.__module__ == opalg.__name__
    (tmp_path / "legs.txt").write_text("in scalar p=1/2,0,-1\n"
                                       "out scalar p=1/2,0,-1\n")
    (tmp_path / "greens.txt").write_text("")
    runs = {"vev": ["vev", "a(k;K) a'(h;H)"],
            "reduce": ["reduce", str(tmp_path / "greens.txt"),
                       "--legs", str(tmp_path / "legs.txt")],
            "verify": ["verify", "--suite", "unitarity"],
            "fock": ["verify", "--suite", "fock"]}
    made = {}
    tracer = tracing.Tracer().install()
    try:
        for i, (name, argv) in enumerate(runs.items()):
            tracer.invocation = i
            before = tracer.counts["opalg.make_monomial.calls"]
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(argv) == 0
            made[name] = tracer.counts["opalg.make_monomial.calls"] - before
    finally:
        tracer.remove()
    spanned = {name: {span[0] for span in tracer.spans if span[4] == i}
               for i, name in enumerate(runs)}
    assert {"opalg.vev", "grammar.print_expression"} <= spanned["vev"]
    assert {"opalg.vev", "smatrix.elastic_overlap"} <= spanned["reduce"]
    assert made["vev"] > 0 and made["reduce"] > 0
    assert "smatrix.toy_unitarity_check" in spanned["verify"]
    assert "fock.FockState.ket" in spanned["fock"]
    assert tracer.counts["grammar.print_expression.chars"] > 0
    assert tracer.counts["opalg.OperatorExpr.from_monomials.calls"] > 0


def test_tracer_counts_the_wick_loop(monkeypatch):
    """The Wick loop makes its contact factors through the module global
    `opalg.make_monomial` and hands its result to
    `OperatorExpr.from_monomials`, so the tracer's rebound counters see
    every call: vev(a^3 a'^3) makes 9 contact monomials and one merge of
    its 6 terms."""
    tracing = _load("tracing", monkeypatch)
    e = opalg.OperatorExpr.number(1)
    for x in ([opalg.a(f"k{i}", f"K{i}") for i in range(3)]
              + [opalg.a(f"h{i}", f"H{i}", dagger=True) for i in range(3)]):
        e = e * x
    tracer = tracing.Tracer().install()
    try:
        assert len(opalg.vev(e).terms) == 6
    finally:
        tracer.remove()
    assert tracer.exact_counts() == {
        **dict.fromkeys(tracing.EXACT, 0),
        "opalg.make_monomial.calls": 9,
        "opalg.OperatorExpr.from_monomials.calls": 1,
        "opalg.OperatorExpr.from_monomials.monomials_in": 6,
        "opalg.OperatorExpr.from_monomials.terms_out": 6,
        "opalg.vev.calls": 1, "opalg.vev.terms_out": 6}


@pytest.mark.parametrize("seed", range(4))
def test_vev_outputs_parse_back(seed, tmp_path, monkeypatch):
    """parse(print(e)) == e for the printed vev of every smoke vev-ladder
    input."""
    workloads = _load("workloads", monkeypatch)
    wl = workloads.generate("vev-ladder", seed, tmp_path, smoke=True)
    for inv in wl.invocations:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(list(inv.argv)) == 0
        text = " ".join(op.text() for op in inv.ops)
        want = opalg.vev(grammar.parse_expression(text))
        assert grammar.parse_expression(out.getvalue().strip()) == want
