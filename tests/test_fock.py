import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from innerqft import fock, opalg
from innerqft.fock import FockState
from innerqft.grammar import parse_expression
from innerqft.opalg import Delta3, Delta4, LadderOperator, OmegaPow, \
    OperatorExpr, make_monomial

from conftest import random_bound_mom
from test_opalg import swap_reduce_oracle


def bound_op(field=opalg.SCALAR, mom=(1, 0, 0), inner=(2, 0, 0, 0), **kw):
    return LadderOperator(field, True, mom, inner, **kw)


def test_vacuum_is_normalized():
    vac = FockState.vacuum()
    assert fock.inner_product(vac, vac) == OperatorExpr.number(1)


def test_annihilator_kills_vacuum():
    assert fock.apply(opalg.a("k", "K"), FockState.vacuum()).is_zero()
    assert fock.apply(parse_expression("b(k,s=s;K)"), FockState.vacuum()).is_zero()


def test_one_particle_overlap():
    one = FockState.ket(bound_op())
    other = FockState.ket(bound_op(mom=(0, 1, 0)))
    assert not fock.inner_product(one, one).is_zero()
    assert fock.inner_product(other, one).is_zero()


def test_ket_requires_creators():
    with pytest.raises(ValueError):
        FockState.ket(LadderOperator(opalg.SCALAR, False, (1, 0, 0),
                                     (2, 0, 0, 0)))


def test_spacelike_inner_support_rejected():
    with pytest.raises(fock.SupportError):
        FockState.ket(bound_op(inner=(0, 1, 0, 0)))
    with pytest.raises(fock.SupportError):
        FockState.ket(bound_op(inner=(1, 2, 0, 0)))


def test_backward_cone_rejected():
    with pytest.raises(fock.SupportError):
        FockState.ket(bound_op(inner=(-2, 0, 0, 0)))


def test_fermionic_exclusion_in_kets():
    op = bound_op(opalg.DIRAC_PARTICLE, spin=1)
    assert FockState.ket(op, op).is_zero()
    # opposite spins survive
    assert not FockState.ket(op, bound_op(opalg.DIRAC_PARTICLE, spin=2)).is_zero()


def test_norm_sign_table():
    for g in range(4):
        for G in range(1, 4):
            ket = FockState.ket(bound_op(opalg.GAUGE, pol=g, ipol=G))
            want = -1 if g else 1
            # inner metric contributes one more sign flip
            assert fock.norm_sign(ket) == -want


def test_norm_sign_multiplicative():
    neg = bound_op(opalg.GAUGE, pol=0, ipol=1)       # (+1)(-1) = -1
    pos = bound_op(opalg.GAUGE, mom=(0, 1, 0), pol=2, ipol=3)  # (-1)(-1) = +1
    assert fock.norm_sign(FockState.ket(neg)) == -1
    assert fock.norm_sign(FockState.ket(pos)) == 1
    assert fock.norm_sign(FockState.ket(neg, pos)) == -1
    assert type(fock.norm_sign(FockState.ket(pos))) is int


def test_physical_filter():
    bad = bound_op(opalg.GAUGE, pol=0, ipol=2)
    good = bound_op(opalg.GAUGE, mom=(0, 0, 1), pol=3, ipol=2)
    scalar = bound_op()
    assert fock.physical_filter(FockState.ket(bad)).is_zero()
    kept = fock.physical_filter(FockState.ket(good, scalar))
    assert kept.expr == FockState.ket(good, scalar).expr
    mixed = FockState(FockState.ket(bad).expr + FockState.ket(good).expr)
    assert fock.physical_filter(mixed).expr == FockState.ket(good).expr


def test_norm_sign_needs_bound_polarizations():
    for op in (bound_op(opalg.GAUGE, pol="g", ipol=1),
               bound_op(opalg.GAUGE, pol=1, ipol="G")):
        with pytest.raises(ValueError):
            fock.norm_sign(FockState.ket(op))


def test_norm_sign_and_eigenvalues_need_a_bound_spin():
    """A Dirac quantum's weight reads its spin, like a gauge quantum's reads
    its polarizations, so a symbolic spin is refused."""
    for field in (opalg.DIRAC_PARTICLE, opalg.DIRAC_ANTIPARTICLE):
        ket = FockState.ket(bound_op(field, spin="s"))
        with pytest.raises(ValueError, match="bound discrete labels"):
            fock.norm_sign(ket)
        with pytest.raises(ValueError, match="bound discrete labels"):
            fock.momentum_action("p", ket)
        assert fock.norm_sign(FockState.ket(bound_op(field, spin=2))) == 1


# momentum_action in a fresh interpreter that imported only innerqft.fock and
# the innerqft.opalg it loads
MOMENTUM_ACTION_STEPS = r"""
import json, sys
import innerqft.fock as fock
from innerqft.opalg import GAUGE
op = fock.LadderOperator(GAUGE, True, (3, 4, 0), (2, 0, 0, 0), pol=1, ipol=1)
before = "numpy" in sys.modules
((_, p),) = fock.momentum_action("p", fock.FockState.ket(op))
print(json.dumps([before, p, "numpy" in sys.modules]))
"""


def test_momentum_action_does_not_load_numpy():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", MOMENTUM_ACTION_STEPS],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    # [DERIVED] E = sqrt(9 + 16 + 1) = sqrt(26); eta^11 ETA^11 = +1
    assert json.loads(proc.stdout) == [False, [math.sqrt(26), 3, 4, 0], False]


def test_physical_filter_needs_bound_polarizations():
    symbolic = FockState.ket(bound_op(opalg.GAUGE, pol="g", ipol=1))
    with pytest.raises(ValueError):
        fock.physical_filter(symbolic)


def test_physical_states_have_positive_norm_sign():
    rng = random.Random(7)
    for _ in range(60):
        ops = []
        for _ in range(rng.randint(1, 4)):
            mom = random_bound_mom(rng)
            ops.append(bound_op(opalg.GAUGE, mom=mom,
                                inner=(2, 0, 0, 0),
                                pol=rng.choice([1, 2, 3]),
                                ipol=rng.choice([1, 2, 3])))
        ket = FockState.ket(*ops)
        if not ket.is_zero():
            assert fock.norm_sign(ket) == 1


def test_momentum_action_single_quantum():
    ket = FockState.ket(bound_op(mom=(Fraction(2), Fraction(2), Fraction(0))))
    ((_, p),) = fock.momentum_action("p", ket)
    assert p[0] == pytest.approx(3.0)      # sqrt(1 + 8)
    assert p[1:] == (Fraction(2), Fraction(2), Fraction(0))
    ((_, P),) = fock.momentum_action("P", ket)
    assert P == (2, 0, 0, 0)


def test_momentum_action_additive():
    op1 = bound_op(mom=(Fraction(1), Fraction(0), Fraction(0)))
    op2 = bound_op(mom=(Fraction(0), Fraction(2), Fraction(0)),
                   inner=(3, 1, 0, 0))
    both = FockState.ket(op1, op2)
    ((_, total),) = fock.momentum_action("p", both)
    ((_, pa),) = fock.momentum_action("p", FockState.ket(op1))
    ((_, pb),) = fock.momentum_action("p", FockState.ket(op2))
    assert total[0] == pytest.approx(pa[0] + pb[0])
    assert total[1:] == tuple(x + y for x, y in zip(pa[1:], pb[1:]))
    ((_, TP),) = fock.momentum_action("P", both)
    assert TP == (5, 1, 0, 0)


def test_momentum_action_gauge_weights():
    plus = FockState.ket(bound_op(opalg.GAUGE, pol=1, ipol=1))
    minus = FockState.ket(bound_op(opalg.GAUGE, pol=0, ipol=1))
    ((_, p_plus),) = fock.momentum_action("P", plus)
    ((_, p_minus),) = fock.momentum_action("P", minus)
    # weight eta^{gg} eta^{GG}: (-1)(-1)=+1 for spatial, (+1)(-1)=-1 for g=0
    assert p_plus == (2, 0, 0, 0)
    assert p_minus == (-2, 0, 0, 0)


def test_momentum_action_requires_bound_labels():
    ket = FockState(opalg.a("k", "K", dagger=True))
    with pytest.raises(ValueError):
        fock.momentum_action("p", ket)


def test_apply_keeps_creator_part():
    one = FockState.ket(bound_op())
    creator = opalg.OperatorExpr.from_op(bound_op(mom=(0, 1, 0)))
    two = fock.apply(creator, one)
    assert len(two.expr.terms) == 1
    assert all(op.dagger for op in two.expr.terms[0].ops)


def test_conjugate_symmetry_of_overlaps():
    s1 = FockState.ket(bound_op(), bound_op(mom=(0, 1, 0)))
    s2 = FockState.ket(bound_op(), bound_op(mom=(0, 1, 0)))
    lhs = opalg.delta_resolve(fock.inner_product(s1, s2))
    rhs = opalg.delta_resolve(fock.inner_product(s2, s1)).dagger()
    assert lhs == rhs


def test_diagonal_actions_case_compares_kets(monkeypatch):
    from innerqft import suites

    def passed(seed):
        cases = suites.suite_fock(suites.RunConfig(seed=seed))
        return next(c.passed for c in cases
                    if c.name == "fock.diagonal_actions_commute")

    seeds = range(4)
    assert all(passed(seed) for seed in seeds)
    real = fock.momentum_action

    def misassigned(which, s):
        # P assigns its eigenvalues to rescaled copies of the kets
        out = real(which, s)
        if which == "P":
            out = [(make_monomial(m.scalar * opalg.CRat.of(2), ops=m.ops), v)
                   for m, v in out]
        return out

    monkeypatch.setattr(fock, "momentum_action", misassigned)
    assert not any(passed(seed) for seed in seeds)


# Creators for the ket oracle: every species, symbolic, bound and on-shell
# labels, and bound components given as int and as an equal Fraction, so
# that equal operators arrive in different spellings.
_KET_MOMS = ["k", "h", (1, 0, 0), (Fraction(1), 0, 0), (Fraction(1, 2), 0, -1)]
_KET_INNERS = ["K", (2, 0, 0, 0), (Fraction(2), 0, 0, 0), (3, 1, -2, 2),
               opalg.OnShell("k"), opalg.OnShell((1, 0, 0))]


def _creator(field, mom, inner, spin, pol, ipol):
    if field in (opalg.DIRAC_PARTICLE, opalg.DIRAC_ANTIPARTICLE):
        return LadderOperator(field, True, mom, inner, spin=spin)
    if field == opalg.GAUGE:
        return LadderOperator(field, True, mom, inner, pol=pol, ipol=ipol)
    return LadderOperator(field, True, mom, inner)


_creators = st.builds(_creator, st.sampled_from(opalg.FIELDS),
                      st.sampled_from(_KET_MOMS), st.sampled_from(_KET_INNERS),
                      st.sampled_from([1, 2, "s"]), st.sampled_from([0, 3, "g"]),
                      st.sampled_from([1, "G"]))
# products drawn with repetition from a small pool, in any order
_products = st.lists(_creators, min_size=1, max_size=4).flatmap(
    lambda pool: st.lists(st.sampled_from(pool), max_size=6))

_B1 = bound_op(opalg.DIRAC_PARTICLE, spin=1)
_B1_FRACTION = bound_op(opalg.DIRAC_PARTICLE, mom=(Fraction(1), 0, 0), spin=1)
_D2 = bound_op(opalg.DIRAC_ANTIPARTICLE, mom=(0, 1, 0), spin=2)


@settings(max_examples=300, deadline=None)
@given(_products)
@example([_D2, _B1])                              # one fermionic swap
@example([_D2, bound_op(), _B1, _D2])             # Pauli among swaps
@example([_B1, bound_op(), _B1_FRACTION])         # Pauli across a boson
def test_ket_equals_the_reduced_product(ops):
    """The ket is the swap reducer's normal form of the product."""
    product = OperatorExpr.from_monomials([make_monomial(1, ops=tuple(ops))])
    want = swap_reduce_oracle(product)
    got = FockState.ket(*ops).expr
    assert got == want
    assert str(got) == str(want)
