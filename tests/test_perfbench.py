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

from innerqft import cli, grammar, opalg

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


def test_tracer_patch_points_are_recorded(monkeypatch):
    """The traced run wraps `grammar.print_expression` and reaches
    `toy_unitarity_check` through `smatrix`; both must stay patchable."""
    tracing = _load("tracing", monkeypatch)
    tracer = tracing.Tracer().install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["vev", "a(k;K) a'(h;H)"]) == 0
            assert cli.main(["verify", "--suite", "unitarity"]) == 0
    finally:
        tracer.remove()
    spanned = {span[0] for span in tracer.spans}
    assert {"grammar.print_expression", "smatrix.toy_unitarity_check"} <= spanned
    assert tracer.counts["grammar.print_expression.chars"] > 0


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
