"""Bound labels compare by exact value.

Regression tests for float-label defects (near-equal large momenta
collapsing to d3(0), undecided deltas between distinct on-shell labels,
projected kets that did not parse back, a forward-cone check made in
floats, on-shell energies that overflowed), and properties over large,
negative and fractional bound labels.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from innerqft import fock, opalg
from innerqft.fock import FockState
from innerqft.grammar import parse_expression, parse_state, print_expression
from innerqft.gravlimit import project_state
from innerqft.opalg import (Delta3, Delta3Zero, Delta4, Delta4Zero,
                            ERatioPow, LadderOperator, OmegaPow, OnShell,
                            OperatorExpr, make_monomial)

BIG = 10 ** 17


def test_d3_over_near_equal_large_momenta_kills():
    a, b = (BIG, 0, 0), (BIG + 1, 0, 0)
    assert make_monomial(1, atoms=(Delta3(a, b),)) is None
    ket_a = FockState.ket(LadderOperator(opalg.SCALAR, True, a, (1, 0, 0, 0)))
    ket_b = FockState.ket(LadderOperator(opalg.SCALAR, True, b, (1, 0, 0, 0)))
    assert fock.inner_product(ket_b, ket_a).is_zero()
    assert not fock.inner_product(ket_a, ket_a).is_zero()


def test_d4_between_distinct_on_shell_labels_is_zero():
    assert parse_expression("d4(~[1,0,0]-~[2,0,0])").is_zero()
    assert (parse_expression("d4(~[1,0,0]-~[1,0,0])")
            == OperatorExpr.from_monomials([make_monomial(
                1, atoms=(Delta4Zero(),))]))


def test_projected_ket_round_trips():
    ket = FockState.ket(LadderOperator(opalg.SCALAR, True, (1, 1, 0), "K"))
    projected = project_state(ket).expr
    assert parse_state(print_expression(projected)) == projected


@pytest.mark.parametrize("inner", [
    (BIG, BIG + 1, 0, 0),                      # k^2 = -2*10^17 - 1, spacelike
    (10 ** 400, 10 ** 400 + 1, 0, 0),          # beyond float range
    (-10 ** 400, 0, 0, 0),                     # backward cone
    (Fraction(5, 3), Fraction(4, 3), 1, Fraction(1, 10 ** 30)),
])
def test_support_outside_forward_cone_rejected(inner):
    with pytest.raises(fock.SupportError):
        FockState.ket(LadderOperator(opalg.SCALAR, True, (0, 0, 0), inner))


@pytest.mark.parametrize("inner", [
    (BIG + 1, BIG, 0, 0),
    (10 ** 400, 10 ** 400, 0, 0),              # lightlike beyond float range
    (10 ** 400, 3, 4, 0),
    (Fraction(5, 3), Fraction(4, 3), 1, 0),    # exactly lightlike
    (0, 0, 0, 0),
])
def test_support_inside_forward_cone_accepted(inner):
    ket = FockState.ket(LadderOperator(opalg.SCALAR, True, (0, 0, 0), inner))
    assert not ket.is_zero()


@pytest.mark.parametrize("mom", [(10 ** 400, 0, 0), (0, 0, 10 ** 200)])
def test_on_shell_energy_beyond_float_range_names_label(mom):
    ket = FockState.ket(LadderOperator(opalg.SCALAR, True, mom, (1, 0, 0, 0)))
    with pytest.raises(ValueError, match="beyond float range") as err:
        fock.momentum_action("p", ket)
    assert opalg.label_str(OnShell(mom)) in str(err.value)
    ((_, P),) = fock.momentum_action("P", ket)
    assert P == (1, 0, 0, 0)


# -- properties over large, negative and fractional components ---------------

_components = st.one_of(
    st.integers(-10 ** 20, 10 ** 20),
    st.builds(Fraction, st.integers(-10 ** 20, 10 ** 20),
              st.integers(1, 10 ** 9)),
    st.fractions(min_value=-3, max_value=3, max_denominator=7),
    st.sampled_from([BIG, BIG + 1, -BIG]))
_moms = st.tuples(_components, _components, _components)


@st.composite
def _mom_pairs(draw):
    """Two momenta, often equal or one component apart."""
    a = draw(_moms)
    how = draw(st.sampled_from(["same", "near", "other"]))
    if how == "same":
        return a, tuple(Fraction(c) for c in a)
    if how == "near":
        i = draw(st.integers(0, 2))
        step = draw(st.sampled_from([1, -1, Fraction(1, 10 ** 9)]))
        return a, a[:i] + (a[i] + step,) + a[i + 1:]
    return a, draw(_moms)


@settings(max_examples=200, deadline=None)
@given(_mom_pairs(), _components)
def test_delta_decision_is_exact_equality(pair, energy):
    a, b = pair
    cases = [(Delta3(a, b), Delta3Zero()),
             (Delta4((energy,) + a, (energy,) + b), Delta4Zero()),
             (Delta4(OnShell(a), OnShell(b)), Delta4Zero())]
    for atom, zero in cases:
        m = make_monomial(1, atoms=(atom,))
        if a == b:
            assert m is not None and m.atoms == (zero,)
        else:
            assert m is None


@st.composite
def _monomials(draw):
    a, b = draw(_mom_pairs())
    inner = draw(st.sampled_from([OnShell(b), (Fraction(1),) + a, "K"]))
    ops = (LadderOperator(opalg.SCALAR, True, a, inner),
           LadderOperator(opalg.DIRAC_PARTICLE, False, b, OnShell(a), spin=1))
    atoms = (OmegaPow(a, draw(st.integers(-2, 2))), ERatioPow(b),
             Delta3(a, "k"), Delta4(OnShell(b), "K"))
    return make_monomial(draw(_components) or 1, atoms=atoms, ops=ops)


@settings(max_examples=200, deadline=None)
@given(st.lists(_monomials(), min_size=1, max_size=3))
def test_round_trip_bound_labels(monos):
    expr = OperatorExpr.from_monomials(monos)
    text = print_expression(expr)
    assert parse_expression(text) == expr, text


@st.composite
def _creators(draw):
    field = draw(st.sampled_from(opalg.FIELDS))
    kwargs = {}
    if field in (opalg.DIRAC_PARTICLE, opalg.DIRAC_ANTIPARTICLE):
        kwargs["spin"] = draw(st.sampled_from([1, 2]))
    if field == opalg.GAUGE:
        kwargs["pol"] = draw(st.integers(0, 3))
        kwargs["ipol"] = draw(st.integers(1, 3))
    inner = draw(st.sampled_from(["K", "H", (5, 1, 0, 0)]))
    return LadderOperator(field, True, draw(_moms), inner, **kwargs)


@settings(max_examples=150, deadline=None)
@given(st.lists(_creators(), min_size=1, max_size=3))
def test_inertial_action_is_inner_action_of_projection(ops):
    """p_G = p_I in the limit: p on a ket equals P on its projection."""
    ket = FockState.ket(*ops)
    p = [v for _, v in fock.momentum_action("p", ket)]
    P = [v for _, v in fock.momentum_action("P", project_state(ket))]
    assert p == P


@settings(max_examples=300, deadline=None)
@given(st.tuples(_components, _components, _components, _components))
def test_support_is_the_exact_forward_cone(inner):
    t, x, y, z = (Fraction(c) for c in inner)
    op = LadderOperator(opalg.SCALAR, True, (0, 0, 0), inner)
    if t >= 0 and t * t >= x * x + y * y + z * z:
        FockState.ket(op)
    else:
        with pytest.raises(fock.SupportError):
            FockState.ket(op)


# -- one label check: a malformed label raises ValueError, however it is made

_COMPONENTS = "bound label components are ints, fractions or finite floats"

_MALFORMED = [
    # (built directly, expression, binding, message)
    (lambda: Delta4((1, 2), "H"), "d4(K-H)", {"K": (1, 2)},
     "d4: bound inner labels are 4-vectors"),
    (lambda: LadderOperator(opalg.DIRAC_PARTICLE, True, "k", "K", spin=1.5),
     "b'(k,s=s;K)", {"s": 1.5}, "discrete labels bind to ints or symbols"),
    (lambda: LadderOperator(opalg.SCALAR, True, "k", OnShell((1, 2))),
     "a'(k;~q)", {"q": (1, 2)}, "bound momentum labels are 3-vectors"),
    (lambda: LadderOperator(opalg.SCALAR, True, 5, "K"),
     "w(k)*a'(k;K)*a'(h;H)", {"k": 5}, "bound momentum labels are 3-vectors"),
    (lambda: opalg.SpinDelta("s", (1, 2, 3)), "kd(s,t)*w(k)", {"t": (1, 2, 3)},
     "kd: discrete labels bind to ints or symbols"),
    (lambda: LadderOperator(opalg.SCALAR, True, ("a", "b", "c"), "K"),
     "a'([1,2,3];H)*a'(k;K)", {"k": ("a", "b", "c")}, _COMPONENTS),
    (lambda: LadderOperator(opalg.SCALAR, True, (math.nan, 0, 0), "K"),
     "a'(k;K)", {"k": (math.nan, 0, 0)}, _COMPONENTS),
    (lambda: LadderOperator(opalg.SCALAR, True, "k", (1, 0, 0, math.inf)),
     "a'(k;K)", {"K": (1, 0, 0, math.inf)}, _COMPONENTS),
    (lambda: opalg.Atom("w", ((True, 0, 0),)), "w(k)", {"k": (True, 0, 0)},
     "w: " + _COMPONENTS),
]


@pytest.mark.parametrize("build, text, binding, message", _MALFORMED)
def test_malformed_labels_raise_value_error(build, text, binding, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        build()
    with pytest.raises(ValueError, match=message):
        opalg.delta_resolve(parse_expression(text), binding)
