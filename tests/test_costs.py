"""Pinned operation counts: calls into innerqft that a run makes, counted by
test-side wrappers, so a change of cost shows as an exact count that the
speed of the machine cannot blur.

A change that moves a count regenerates the file and declares each change:
  PYTHONPATH=src:tests python3 -c "import test_costs; test_costs.pin_costs()"
"""

import contextlib
import importlib.util
import io
import json
import sys
import tempfile
from collections import Counter
from pathlib import Path

from innerqft import cli, grammar, numeric, opalg, suites
from innerqft.config import RunConfig

COSTS = Path(__file__).resolve().parent / "data" / "cost_counts.json"
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _rebind(undo: list, orig, new) -> None:
    """Replace every module-level binding of `orig` in the innerqft modules."""
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("innerqft"):
            for name, value in list(vars(module).items()):
                if value is orig:
                    undo.append((module, name, orig))
                    setattr(module, name, new)


def _counted(run) -> Counter:
    """The counts of one call of `run`, with the counts that `run` returns
    added."""
    counts: Counter = Counter()
    undo: list = []
    check, make, merge = (numeric.toy_unitarity_check, opalg.make_monomial,
                          opalg.OperatorExpr.__dict__["from_monomials"].__func__)
    contact, atom_init = opalg._contact_factors, opalg.Atom.__post_init__

    def toy_unitarity_check(s, p, *args):
        counts["toy_unitarity_check.calls"] += 1
        counts["toy_unitarity_check.matrices"] += s[..., 0, 0].size
        return check(s, p, *args)

    def make_monomial(*args, **kwargs):
        counts["make_monomial.calls"] += 1
        return make(*args, **kwargs)

    def _contact_factors(lo, hi):
        counts["contact_factors.calls"] += 1
        return contact(lo, hi)

    def atom_post_init(self):
        counts["atom.builds"] += 1
        atom_init(self)

    def from_monomials(cls, monos):
        monos = list(monos)
        counts["from_monomials.monomials_in"] += sum(m is not None for m in monos)
        return merge(cls, monos)

    _rebind(undo, check, toy_unitarity_check)
    _rebind(undo, make, make_monomial)
    _rebind(undo, contact, _contact_factors)
    undo.append((opalg.Atom, "__post_init__", atom_init))
    opalg.Atom.__post_init__ = atom_post_init
    undo.append((opalg.OperatorExpr, "from_monomials",
                 opalg.OperatorExpr.__dict__["from_monomials"]))
    opalg.OperatorExpr.from_monomials = classmethod(from_monomials)
    try:
        counts.update(run())
    finally:
        for owner, name, value in reversed(undo):
            setattr(owner, name, value)
    return counts


def _cli(argv: list):
    """A run of `cli.main(argv)` that returns its exit code and the length
    of its stdout."""
    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        return {"exit": code, "stdout_chars": len(out.getvalue())}
    return run


def _printed_ladder_vev(n: int) -> str:
    """The printed vev of the scalar ladder a^n a'^n: n! coefficient terms."""
    ladder = " ".join([f"a(k{j};K{j})" for j in range(n)]
                      + [f"a'(h{j};H{j})" for j in range(n)])
    return grammar.print_expression(opalg.vev(grammar.parse_expression(ladder)))


def _runs(workdir: Path) -> dict:
    """Each pinned run by name: `verify --suite all --seed 0` in process;
    the seed-0 smoke vev-ladder and lsz-legs invocations of
    perfbench/workloads.py through `cli.main`, with their input files
    written to workdir; and `vev` through `cli.main` on the printed
    a^5 a'^5 and a^6 a'^6 results, so that parsing them back is counted.
    perfbench/workloads.py is imported by path and only read."""
    spec = importlib.util.spec_from_file_location("cost_workloads",
                                                  PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # dataclasses look the module up
    try:
        spec.loader.exec_module(workloads)
    finally:
        del sys.modules[spec.name]
    runs = {"verify --suite all --seed 0": lambda: {
        "cases": len(suites.run_suite("all", RunConfig(seed=0)))}}
    for name in ("vev-ladder", "lsz-legs"):
        for inv in workloads.generate(name, 0, workdir, smoke=True).invocations:
            runs[f"{name} seed 0 smoke: {inv.label}"] = _cli(list(inv.argv))
    for n in (5, 6):
        runs[f"vev of the printed vev(a^{n} a'^{n})"] = _cli(
            ["vev", _printed_ladder_vev(n)])
    return runs


def _costs() -> dict:
    with tempfile.TemporaryDirectory() as workdir:
        return {name: dict(sorted(_counted(run).items()))
                for name, run in _runs(Path(workdir)).items()}


def pin_costs():
    """Rewrite the pinned counts from the current code."""
    COSTS.write_text(json.dumps(_costs(), indent=1) + "\n")


def test_costs_match_pinned_counts():
    assert _costs() == json.loads(COSTS.read_text())
