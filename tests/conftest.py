import random
from fractions import Fraction

import pytest

from innerqft import opalg

ACCEPTANCE_RESULTS = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for n, name, ok in sorted(ACCEPTANCE_RESULTS):
        terminalreporter.write_line(
            f"ACCEPTANCE {n} {name}: {'PASS' if ok else 'FAIL'}")


@pytest.fixture
def rng():
    return random.Random(20240826)


MOM_SYMBOLS = ("k", "h", "q", "p2", "r")
INNER_SYMBOLS = ("K", "H", "Q", "R")


def random_symbol(rng, pool=MOM_SYMBOLS):
    return rng.choice(pool)


def random_bound_mom(rng):
    return tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                 for _ in range(3))


def random_mom(rng):
    return random_symbol(rng) if rng.random() < 0.5 else random_bound_mom(rng)


def random_inner(rng, allow_onshell=False, shared_symbols=False):
    """With shared_symbols, an inner symbol may also name a momentum."""
    r = rng.random()
    if r < 0.4:
        return rng.choice(INNER_SYMBOLS + (MOM_SYMBOLS if shared_symbols else ()))
    if allow_onshell and r < 0.55:
        return opalg.OnShell(random_mom(rng))
    spatial = [Fraction(rng.randint(-2, 2)) for _ in range(3)]
    return (sum(abs(c) for c in spatial) + rng.randint(1, 2), *spatial)


def random_ladder(rng, dagger=None, allow_onshell=False, shared_symbols=False):
    field = rng.choice([opalg.SCALAR, opalg.DIRAC_PARTICLE,
                        opalg.DIRAC_ANTIPARTICLE, opalg.GAUGE])
    kwargs = {}
    if field in (opalg.DIRAC_PARTICLE, opalg.DIRAC_ANTIPARTICLE):
        kwargs["spin"] = rng.choice([1, 2, "s", "t"])
    if field == opalg.GAUGE:
        kwargs["pol"] = rng.choice([0, 1, 2, 3, "g", "g2"])
        kwargs["ipol"] = rng.choice([1, 2, 3, "G", "G2"])
    if dagger is None:
        dagger = rng.random() < 0.5
    return opalg.LadderOperator(field, dagger, random_mom(rng),
                                random_inner(rng, allow_onshell, shared_symbols),
                                **kwargs)


def random_product(rng, max_ops=4, allow_onshell=False, shared_symbols=False):
    n = rng.randint(0, max_ops)
    expr = opalg.OperatorExpr.number(
        opalg.CRat(Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-2, 2)))
        or opalg.ONE)
    for _ in range(n):
        expr = expr * opalg.OperatorExpr.from_op(random_ladder(
            rng, allow_onshell=allow_onshell, shared_symbols=shared_symbols))
    return expr


def random_sum(rng, allow_onshell=False, max_ops=5, shared_symbols=False):
    """One to three random products added."""
    expr = opalg.OperatorExpr.zero()
    for _ in range(rng.randint(1, 3)):
        expr = expr + random_product(rng, max_ops, allow_onshell, shared_symbols)
    return expr
