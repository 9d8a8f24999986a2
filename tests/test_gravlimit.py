from fractions import Fraction

import pytest

from innerqft import fock, gravlimit, opalg, suites
from innerqft.config import RunConfig
from innerqft.fock import FieldMasses, FockState
from innerqft.grammar import parse_expression
from innerqft.gravlimit import (RegularizationConfig, barred, grav_limit_expr,
                                project_state)
from innerqft.opalg import (Delta3, ERatioPow, Metric, OmegaPow, OnShell,
                            OperatorExpr, SpinDelta, anticommutator,
                            commutator, make_monomial)


def expr_of(*monos):
    return OperatorExpr.from_monomials(list(monos))


def test_config_validation():
    with pytest.raises(ValueError):
        RegularizationConfig(0.0, 1.0)
    with pytest.raises(ValueError):
        RegularizationConfig(1.0, -1.0)
    assert RegularizationConfig(2.0, 16.0).ratio == Fraction(1)


def test_barred_marks_inner_on_shell():
    e = barred(opalg.a("k", "K"))
    ((m,),) = [e.terms]
    assert m.ops[0].inner == OnShell("k")


def test_scalar_barred_commutator():
    lhs = grav_limit_expr(commutator(barred(opalg.a("k", "K")),
                                     barred(opalg.a("h", "H", dagger=True))))
    want = expr_of(make_monomial(2, twopi=3,
                                 atoms=(OmegaPow("k"), Delta3("k", "h"))))
    assert lhs == want


def test_dirac_barred_anticommutator():
    lhs = grav_limit_expr(anticommutator(
        barred(opalg.b("k", "s", "K")),
        barred(opalg.b("h", "t", "H", dagger=True))))
    want = expr_of(make_monomial(1, twopi=3,
                                 atoms=(ERatioPow("k"), SpinDelta("s", "t"),
                                        Delta3("k", "h"))))
    assert lhs == want


def test_gauge_barred_commutator_keeps_scale_factor():
    lhs = grav_limit_expr(commutator(
        barred(opalg.gauge("k", "g", "K", "G")),
        barred(opalg.gauge("h", "g2", "H", "G2", dagger=True))))
    want = expr_of(make_monomial(2, lam=2, twopi=3,
                                 atoms=(OmegaPow("k"), Metric(True, "g", "g2"),
                                        Metric(False, "G", "G2"),
                                        Delta3("k", "h"))))
    assert lhs == want


def test_matter_limit_independent_of_scale():
    e = commutator(barred(opalg.a("k", "K")),
                   barred(opalg.a("h", "H", dagger=True)))
    unit = grav_limit_expr(e, RegularizationConfig(1.0, 1.0))
    # any configuration with V_reg / L^4 = 1 gives the same limit
    for lam in (2.0, 3.0, 5.0):
        assert grav_limit_expr(e, RegularizationConfig(lam, lam ** 4)) == unit


def test_ratio_scales_scalar_limit():
    e = commutator(barred(opalg.a("k", "K")),
                   barred(opalg.a("h", "H", dagger=True)))
    doubled = grav_limit_expr(e, RegularizationConfig(1.0, 2.0))
    unit = grav_limit_expr(e, RegularizationConfig(1.0, 1.0))
    assert doubled == unit.scale(2)


def test_unresolved_inner_label_raises():
    # a Delta4 over unrelated symbols cannot be collapsed to a volume factor
    e = expr_of(make_monomial(1, atoms=(opalg.Delta4("K", "H"),)))
    with pytest.raises(gravlimit.UnresolvedInnerLabel):
        grav_limit_expr(e)
    e = commutator(opalg.a("k", "K"), opalg.a("h", "H", dagger=True))
    with pytest.raises(gravlimit.UnresolvedInnerLabel,
                       match="^inner label 'H' is not tied to any momentum$"):
        grav_limit_expr(e)


def test_distinct_bound_momenta_stay_apart():
    """A d3 class never joins two distinct bound momenta, so a d4 between
    the inner labels of their operators does not collapse, with or without
    a contradictory d3 pair."""
    ops = "d4(H-K)*a'([1,0,0];H)*a'([2,0,0];K)"
    for text in (ops, "d3(k-[1,0,0])*d3(k-[2,0,0])*" + ops):
        with pytest.raises(gravlimit.UnresolvedInnerLabel,
                           match="^d4 over 'H', 'K' does not collapse$"):
            grav_limit_expr(parse_expression(text))


def test_contradictory_d3_pair_kills_the_limit():
    """Two d3 atoms that bind one momentum to two distinct bound values make
    the monomial zero, as delta_resolve finds, with no d4 to resolve."""
    e = parse_expression("d3(k-[1,0,0])*d3(k-[2,0,0])*a'(q;Q)")
    assert opalg.delta_resolve(e).is_zero()
    assert grav_limit_expr(e).is_zero()
    kept = parse_expression("d3(k-[1,0,0])*d3(k-[1,0,0])*a'(q;Q)")
    assert str(grav_limit_expr(kept)) == \
        "1*d3(k-[1,0,0])*d3(k-[1,0,0])*a'(q;~q)"


@pytest.mark.parametrize("lam, v_reg", [(1.0, 2.0), (2.0, 1.0), (0.5, 3.0),
                                        (2.0, 16.0), (1.5, 0.25)])
def test_gravlimit_suite_passes_under_any_ratio(lam, v_reg):
    """Each exact gravlimit row collapses one d4, so its limit carries one
    factor of Vreg/L^4 under the configured regularization."""
    cases = suites.suite_gravlimit(RunConfig(lam=lam, v_reg=v_reg))
    assert [c.name for c in cases if not c.passed] == []


def test_d3_classes_tie_inner_symbols_shared_with_momenta():
    e = parse_expression("d4(k-h)*d3(k-h)*a'(k;k)*a'(h;h)")
    assert str(grav_limit_expr(e)) == \
        "1*L^4*(2pi)^-4*d3(h-k)*a'(k;~k)*a'(h;~h)"


def test_projection_sets_on_shell_inner():
    op = opalg.LadderOperator(opalg.SCALAR, True, (2, 2, 0), (9, 1, 1, 1))
    projected = project_state(FockState.ket(op))
    ((m,),) = [projected.expr.terms]
    assert m.ops[0].inner == OnShell((2, 2, 0))
    ((_, P),) = fock.momentum_action("P", projected, FieldMasses(scalar=1.0))
    assert P == (3.0, 2, 2, 0)


def test_projection_idempotent():
    op = opalg.LadderOperator(opalg.GAUGE, True, (1, 2, 2), (9, 0, 0, 0),
                              pol=1, ipol=2)
    once = project_state(FockState.ket(op))
    twice = project_state(once)
    assert once.expr == twice.expr


def test_projection_requires_bound_momenta():
    ket = FockState(opalg.a("k", "K", dagger=True))
    with pytest.raises(ValueError):
        project_state(ket)


def test_vacuum_projection():
    vac = FockState.vacuum()
    assert project_state(vac).expr == vac.expr
