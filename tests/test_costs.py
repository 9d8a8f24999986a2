"""Pinned operation counts: calls into innerqft that a run makes, counted by
test-side wrappers, so a change of cost shows as an exact count that the
speed of the machine cannot blur.

A change that moves a count regenerates the file and declares each change:
  PYTHONPATH=src:tests python3 -c "import test_costs; test_costs.pin_costs()"
"""

import json
import sys
from collections import Counter
from pathlib import Path

from innerqft import numeric, opalg, suites
from innerqft.config import RunConfig

COSTS = Path(__file__).resolve().parent / "data" / "cost_counts.json"


def _rebind(undo: list, orig, new) -> None:
    """Replace every module-level binding of `orig` in the innerqft modules."""
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("innerqft"):
            for name, value in list(vars(module).items()):
                if value is orig:
                    undo.append((module, name, orig))
                    setattr(module, name, new)


def _counted(run) -> Counter:
    """The counts of one call of `run`, with `run`'s own result counted as
    "cases"."""
    counts: Counter = Counter()
    undo: list = []
    check, make, merge = (numeric.toy_unitarity_check, opalg.make_monomial,
                          opalg.OperatorExpr.__dict__["from_monomials"].__func__)

    def toy_unitarity_check(s, p, *args):
        counts["toy_unitarity_check.calls"] += 1
        counts["toy_unitarity_check.matrices"] += s[..., 0, 0].size
        return check(s, p, *args)

    def make_monomial(*args, **kwargs):
        counts["make_monomial.calls"] += 1
        return make(*args, **kwargs)

    def from_monomials(cls, monos):
        monos = list(monos)
        counts["from_monomials.monomials_in"] += sum(m is not None for m in monos)
        return merge(cls, monos)

    _rebind(undo, check, toy_unitarity_check)
    _rebind(undo, make, make_monomial)
    undo.append((opalg.OperatorExpr, "from_monomials",
                 opalg.OperatorExpr.__dict__["from_monomials"]))
    opalg.OperatorExpr.from_monomials = classmethod(from_monomials)
    try:
        counts["cases"] = len(run())
    finally:
        for owner, name, value in reversed(undo):
            setattr(owner, name, value)
    return counts


_RUNS = {
    "verify --suite all --seed 0":
        lambda: suites.run_suite("all", RunConfig(seed=0)),
}


def _costs() -> dict:
    return {name: dict(sorted(_counted(run).items()))
            for name, run in _RUNS.items()}


def pin_costs():
    """Rewrite the pinned counts from the current code."""
    COSTS.write_text(json.dumps(_costs(), indent=1) + "\n")


def test_costs_match_pinned_counts():
    assert _costs() == json.loads(COSTS.read_text())
