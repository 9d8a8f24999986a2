"""The record contract of the exact value types, and `CRat` arithmetic.

The records of `innerqft.record` are what frozen dataclasses used to be:
equal by value and hashed consistently with it (bound components of any
numeric type), never equal to another type or to a plain tuple or number,
immutable, and printed as `Name(field=value, ...)`. `CRat` sums, products,
negations and conjugates are checked against a reference on plain Fraction
pairs, through both its real fast path and its complex path.
"""

import dataclasses
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from innerqft import fock, gravlimit, opalg
from innerqft.opalg import (Atom, CRat, LadderOperator, Monomial, OnShell,
                            OperatorExpr, make_monomial)

# -- strategies ----------------------------------------------------------------

# binary fractions, so that a float spelling is exact
exact = st.builds(Fraction, st.integers(-8, 8), st.sampled_from([1, 2, 4]))
symbols = st.sampled_from(["k", "h", "K"])
moms = st.one_of(symbols, st.tuples(exact, exact, exact))
inners = st.one_of(symbols, st.tuples(exact, exact, exact, exact),
                   st.builds(OnShell, moms))
discrete = st.sampled_from([1, 2, "s"])

crats = st.builds(CRat, exact, exact)
operators = st.one_of(
    st.builds(LadderOperator, st.just(opalg.SCALAR), st.booleans(), moms,
              inners),
    st.builds(LadderOperator, st.just(opalg.DIRAC_PARTICLE), st.booleans(),
              moms, inners, spin=discrete),
    st.builds(LadderOperator, st.just(opalg.GAUGE), st.booleans(), moms,
              inners, pol=st.sampled_from([0, 3, "g"]),
              ipol=st.sampled_from([1, 3, "G"])))
atoms = st.one_of(
    st.builds(Atom, st.sampled_from(["w", "E/m"]), st.tuples(moms),
              st.integers(-2, 2)),
    st.builds(Atom, st.just("d3"), st.tuples(moms, moms)),
    st.builds(Atom, st.just("d4"), st.tuples(inners, inners)),
    st.builds(Atom, st.sampled_from(["kd", "eta", "ETA"]),
              st.tuples(discrete, discrete)),
    st.builds(Atom, st.sampled_from(["d3(0)", "d4(0)"])))
monomials = st.builds(Monomial, crats, st.integers(-4, 4), st.integers(0, 7),
                      st.integers(0, 2), st.lists(atoms, max_size=3).map(tuple),
                      st.lists(operators, max_size=3).map(tuple))
records = st.one_of(crats, st.builds(OnShell, moms), operators, atoms,
                    monomials)

# the fields of each type, in the order its constructor and repr use
FIELDS = {
    CRat: ("re", "im"),
    OnShell: ("mom",),
    LadderOperator: ("field", "dagger", "mom", "inner", "spin", "pol", "ipol"),
    Atom: ("kind", "args", "power"),
    Monomial: ("scalar", "lam", "twopi", "vreg", "atoms", "ops"),
}


def respell(value, rnd):
    """`value` rebuilt with each Fraction written as a Fraction, a float or
    (when integral) an int, chosen at random: the same value."""
    if isinstance(value, Fraction):
        spell = rnd.choice([Fraction, float, int if value.denominator == 1
                            else Fraction])
        return spell(value)
    if isinstance(value, tuple):
        return tuple(respell(v, rnd) for v in value)
    if type(value) in FIELDS:
        return type(value)(*(respell(getattr(value, f), rnd)
                             for f in FIELDS[type(value)]))
    return value


# -- the record contract -------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(records, st.randoms(use_true_random=False))
def test_equal_fields_give_equal_records_and_hashes(x, rnd):
    # printed first, x alone holds the cached text of its atoms, which
    # takes no part in equality, hashing, printing or pickling
    text = str(x)
    y = respell(x, rnd)
    assert x == y and not x != y
    assert hash(x) == hash(y)
    assert {x: 1}[y] == 1
    assert pickle.loads(pickle.dumps(x)) == x
    if repr(y) == repr(x):
        # a float or int spelling prints differently from a Fraction
        assert str(y) == str(x)
    assert str(pickle.loads(pickle.dumps(x))) == text


@settings(max_examples=150, deadline=None)
@given(operators, operators, st.randoms(use_true_random=False))
def test_operator_keys_decide_equality(x, other, rnd):
    """Spelled with int, Fraction or float bound components, two operators
    are equal exactly when their derived keys are, and a pickle round trip
    keeps the key."""
    for y in (x, x.adjoint(), other):
        y = respell(y, rnd)
        assert (x == y) == (x.key == y.key)
        assert pickle.loads(pickle.dumps(y)).key == y.key
    assert respell(x, rnd).key == x.key


@settings(max_examples=150, deadline=None)
@given(records, records)
def test_records_equal_only_records_of_their_type(x, y):
    if type(x) is not type(y):
        assert x != y and not x == y
    values = tuple(getattr(x, f) for f in FIELDS[type(x)])
    assert x != values and values != x
    if len(values) == 1:
        assert x != values[0]


def test_records_never_equal_plain_values():
    assert OnShell("k") != ("k",) and ("k",) != OnShell("k")
    assert OnShell("k") != "k"
    assert CRat(1) != 1 and 1 != CRat(1)
    assert CRat(Fraction(1)) != Fraction(1)
    assert CRat(1) != (1, 0)
    # same field tuple, different record types
    assert OnShell("k") != fock.FockState("k")
    assert len({OnShell("k"): 0, ("k",): 1, "k": 2}) == 3


@settings(max_examples=60, deadline=None)
@given(records, st.data())
def test_records_are_immutable(x, data):
    before, h = repr(x), hash(x)
    name = data.draw(st.sampled_from(FIELDS[type(x)] + ("other",)))
    with pytest.raises(AttributeError):
        setattr(x, name, 0)
    with pytest.raises(AttributeError):
        delattr(x, name)
    assert repr(x) == before and hash(x) == h


REFERENCE = {cls: dataclasses.make_dataclass(cls.__name__,
                                             [(f, object) for f in fields],
                                             frozen=True)
             for cls, fields in FIELDS.items()}


@settings(max_examples=100, deadline=None)
@given(records)
def test_repr_is_the_dataclass_text(x):
    fields = FIELDS[type(x)]
    want = REFERENCE[type(x)](*(getattr(x, f) for f in fields))
    assert repr(x) == repr(want)


def test_repr_pins():
    assert repr(OnShell((1, Fraction(1, 2), 0))) == \
        "OnShell(mom=(1, Fraction(1, 2), 0))"
    # the derived sort key is not a field and is not printed
    assert repr(Atom("d3", ("k", "h"))) == \
        "Atom(kind='d3', args=('h', 'k'), power=1)"
    assert repr(CRat.of(2)) == "CRat(re=Fraction(2, 1), im=Fraction(0, 1))"
    assert repr(LadderOperator(opalg.DIRAC_PARTICLE, True, "k", "K", 1)) == (
        "LadderOperator(field='dirac_particle', dagger=True, mom='k', "
        "inner='K', spin=1, pol=None, ipol=None)")


@pytest.mark.parametrize("label, text", [
    (OnShell("k"), "OnShell(mom='k')"),
    (OnShell((Fraction(1, 2), 0, 0)), "OnShell(mom=(Fraction(1, 2), 0, 0))"),
])
def test_unresolved_inner_label_message(label, text):
    e = OperatorExpr.from_monomials([make_monomial(
        1, atoms=(opalg.Delta4(label, (1, 0, 0, 1)),))])
    with pytest.raises(gravlimit.UnresolvedInnerLabel) as err:
        gravlimit.grav_limit_expr(e)
    assert str(err.value) == f"d4 over {text}, (1, 0, 0, 1) does not collapse"


# -- CRat against Fraction pairs -------------------------------------------------

# a third of the parts zero and another third from a few small values, so
# that sums and products often cancel a part to zero
parts = st.one_of(st.just(Fraction(0)),
                  st.sampled_from([Fraction(1), Fraction(-1), Fraction(1, 2),
                                   Fraction(-1, 2), Fraction(3, 4)]),
                  st.fractions(min_value=-9, max_value=9, max_denominator=9))
scalars = st.tuples(parts, parts)
steps = st.lists(st.tuples(st.sampled_from(["+", "*", "neg", "conj"]), scalars),
                 max_size=8)


def reference(op, x, y):
    (a, b), (c, d) = x, y
    if op == "+":
        return a + c, b + d
    if op == "*":
        return a * c - b * d, a * d + b * c
    if op == "neg":
        return -a, -b
    return a, -b


def apply(op, z, w):
    if op == "+":
        return z + w
    if op == "*":
        return z * w
    return -z if op == "neg" else z.conj()


def check(z, want):
    assert (z.re, z.im) == want
    assert type(z.re) is Fraction and type(z.im) is Fraction
    assert z == CRat(*want) and hash(z) == hash(CRat(*want))
    assert bool(z) == (want != (0, 0))


@settings(max_examples=300, deadline=None)
@given(scalars, steps)
def test_crat_matches_fraction_pairs(start, program):
    z, want = CRat(*start), start
    check(z, want)
    for op, operand in program:
        z, want = apply(op, z, CRat(*operand)), reference(op, want, operand)
        check(z, want)


def test_crat_parts_that_cancel():
    i, one = opalg.I, opalg.ONE
    check(one + CRat(Fraction(-1)), (0, 0))
    check(CRat(Fraction(1), Fraction(2)) + CRat(Fraction(0), Fraction(-2)),
          (1, 0))
    check((one + i) * (one + i.conj()), (2, 0))
    check((one + i) * (one + i), (0, 2))
    check(i * i, (-1, 0))

