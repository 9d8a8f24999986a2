import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from innerqft import fock, opalg
from innerqft.fock import FockState
from innerqft.grammar import parse_expression
from innerqft.opalg import (CRat, Delta3, Delta4, ERatioPow, Metric, OmegaPow,
                            OperatorExpr, SpinDelta, anticommutator,
                            commutator, delta_resolve, make_monomial,
                            normal_order, reduce_to_normal_form, vev)

from conftest import (random_bound_mom, random_inner, random_ladder,
                      random_product, random_sum)


def expr_of(*monos):
    return OperatorExpr.from_monomials(list(monos))


def assert_same_expression(got, want):
    """Equal, printed alike, and every scalar part a Fraction."""
    assert got == want
    assert str(got) == str(want)
    assert all(type(x) is Fraction
               for m in got.terms for x in (m.scalar.re, m.scalar.im))


# -- exact scalar arithmetic -------------------------------------------------

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=6)


@given(rationals, rationals, rationals, rationals)
def test_crat_multiplication(a, b, c, d):
    x, y = CRat(a, b), CRat(c, d)
    z = x * y
    assert z.re == a * c - b * d
    assert z.im == a * d + b * c
    assert (x * y).conj() == x.conj() * y.conj()


def test_crat_i_squared():
    assert opalg.I * opalg.I == CRat.of(-1)


# -- contact terms [DERIVED from the quantization rules] ----------------------


def test_scalar_contact_term():
    got = commutator(opalg.a("k", "K"), opalg.a("h", "H", dagger=True))
    want = expr_of(make_monomial(2, lam=-4, twopi=7,
                                 atoms=(OmegaPow("k"), Delta4("K", "H"),
                                        Delta3("k", "h"))))
    assert got == want


def test_dirac_contact_term():
    got = anticommutator(opalg.b("k", "s", "K"),
                         opalg.b("h", "t", "H", dagger=True))
    want = expr_of(make_monomial(1, lam=-4, twopi=7,
                                 atoms=(ERatioPow("k"), SpinDelta("s", "t"),
                                        Delta4("K", "H"), Delta3("k", "h"))))
    assert got == want


def test_gauge_contact_term():
    got = commutator(opalg.gauge("k", "g", "K", "G"),
                     opalg.gauge("h", "g2", "H", "G2", dagger=True))
    want = expr_of(make_monomial(2, lam=-2, twopi=7,
                                 atoms=(OmegaPow("k"), Metric(True, "g", "g2"),
                                        Metric(False, "G", "G2"),
                                        Delta4("K", "H"), Delta3("k", "h"))))
    assert got == want


def test_same_type_brackets_vanish():
    assert commutator(opalg.a("k", "K"), opalg.a("h", "H")).is_zero()
    assert commutator(opalg.a("k", "K", dagger=True),
                      opalg.a("h", "H", dagger=True)).is_zero()
    assert anticommutator(opalg.b("k", "s", "K"),
                          opalg.b("h", "t", "H")).is_zero()
    assert anticommutator(opalg.d("k", "s", "K", dagger=True),
                          opalg.d("h", "t", "H", dagger=True)).is_zero()


def test_distinct_species_commute_freely():
    pairs = [
        (opalg.a("k", "K"), opalg.b("h", "t", "H", dagger=True)),
        (opalg.a("k", "K"), opalg.gauge("h", "g", "H", "G", dagger=True)),
        (opalg.b("k", "s", "K"), opalg.d("h", "t", "H", dagger=True)),
        (opalg.d("k", "s", "K"), opalg.gauge("h", "g", "H", "G", dagger=True)),
    ]
    for x, y in pairs:
        fermi = (x.terms[0].ops[0].fermionic and y.terms[0].ops[0].fermionic)
        bracket = anticommutator(x, y) if fermi else commutator(x, y)
        assert bracket.is_zero()


def test_bound_spin_mismatch_kills_term():
    got = anticommutator(opalg.b("k", 1, "K"), opalg.b("h", 2, "H", dagger=True))
    assert got.is_zero()


def test_bound_gauge_metric_signs():
    # eta^{00} = +1, eta^{jj} = -1; inner metric is purely negative
    lhs = commutator(opalg.gauge("k", 0, "K", 1),
                     opalg.gauge("h", 0, "H", 1, dagger=True))
    want = expr_of(make_monomial(-2, lam=-2, twopi=7,
                                 atoms=(OmegaPow("k"), Delta4("K", "H"),
                                        Delta3("k", "h"))))
    assert lhs == want
    lhs = commutator(opalg.gauge("k", 2, "K", 3),
                     opalg.gauge("h", 2, "H", 3, dagger=True))
    want = expr_of(make_monomial(2, lam=-2, twopi=7,
                                 atoms=(OmegaPow("k"), Delta4("K", "H"),
                                        Delta3("k", "h"))))
    assert lhs == want
    assert commutator(opalg.gauge("k", 1, "K", 1),
                      opalg.gauge("h", 2, "H", 1, dagger=True)).is_zero()


def test_pauli_exclusion():
    b = opalg.b("k", 1, "K")
    assert reduce_to_normal_form(b * b).is_zero()
    bd = opalg.b("k", 1, "K", dagger=True)
    assert reduce_to_normal_form(bd * bd).is_zero()


def test_gauge_polarization_validation():
    with pytest.raises(ValueError):
        opalg.gauge("k", 4, "K", 1)
    with pytest.raises(ValueError):
        opalg.gauge("k", 1, "K", 0)  # inner index 0 is not a valid mode
    with pytest.raises(ValueError):
        opalg.b("k", 3, "K")


# -- reduction properties ----------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(st.randoms(use_true_random=False))
def test_reduction_idempotent(r):
    e = random_product(r)
    once = reduce_to_normal_form(e)
    assert reduce_to_normal_form(once) == once


@settings(max_examples=80, deadline=None)
@given(st.randoms(use_true_random=False))
def test_reduction_is_normal_ordered(r):
    e = reduce_to_normal_form(random_product(r))
    for m in e.terms:
        keys = [op.key for op in m.ops]
        assert keys == sorted(keys)


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False))
def test_dagger_involution(r):
    e = random_product(r)
    assert e.dagger().dagger() == e


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False))
def test_dagger_antihomomorphism(r):
    x = random_product(r, max_ops=2)
    y = random_product(r, max_ops=2)
    assert (x * y).dagger() == y.dagger() * x.dagger()


@settings(max_examples=40, deadline=None)
@given(st.randoms(use_true_random=False))
def test_reduction_preserves_vev_probes(r):
    # the reduced expression is the same operator: identical matrix
    # elements between random states built from creators
    e = random_product(r, max_ops=3)
    red = reduce_to_normal_form(e)
    bra = random_product(r, max_ops=2)
    ket = random_product(r, max_ops=2)
    assert vev(bra.dagger() * e * ket) == vev(bra.dagger() * red * ket)


@settings(max_examples=40, deadline=None)
@given(st.randoms(use_true_random=False))
def test_commutator_antisymmetry(r):
    x = random_product(r, max_ops=2)
    y = random_product(r, max_ops=2)
    assert commutator(x, y) == -commutator(y, x)


@settings(max_examples=25, deadline=None)
@given(st.randoms(use_true_random=False))
def test_jacobi_identity(r):
    x = random_product(r, max_ops=2)
    y = random_product(r, max_ops=2)
    z = random_product(r, max_ops=2)
    total = (commutator(x, commutator(y, z))
             + commutator(y, commutator(z, x))
             + commutator(z, commutator(x, y)))
    assert total.is_zero()


def test_normal_order_drops_contact_terms():
    e = opalg.a("k", "K") * opalg.a("h", "H", dagger=True)
    assert normal_order(e) == reduce_to_normal_form(
        opalg.a("h", "H", dagger=True) * opalg.a("k", "K"))


def test_normal_order_keeps_fermionic_sign():
    e = opalg.b("k", "s", "K") * opalg.b("h", "t", "H", dagger=True)
    swapped = reduce_to_normal_form(
        opalg.b("h", "t", "H", dagger=True) * opalg.b("k", "s", "K"))
    assert normal_order(e) == -swapped


# -- scale-power bookkeeping ---------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False))
def test_scale_powers_additive_under_product(r):
    m1 = make_monomial(1, lam=r.randint(-3, 3), twopi=r.randint(-3, 3),
                       vreg=r.randint(0, 2))
    m2 = make_monomial(1, lam=r.randint(-3, 3), twopi=r.randint(-3, 3),
                       vreg=r.randint(0, 2))
    prod = expr_of(m1) * expr_of(m2)
    ((m,),) = [prod.terms]
    assert (m.lam, m.twopi, m.vreg) == (m1.lam + m2.lam, m1.twopi + m2.twopi,
                                        m1.vreg + m2.vreg)


def test_vev_picks_scalar_part():
    assert vev(OperatorExpr.number(3)) == OperatorExpr.number(3)
    assert vev(opalg.a("k", "K", dagger=True)).is_zero()
    assert vev(opalg.a("k", "K")).is_zero()


def test_vev_two_point_ordering():
    assert vev(opalg.a("h", "H", dagger=True) * opalg.a("k", "K")).is_zero()
    assert not vev(opalg.a("k", "K") * opalg.a("h", "H", dagger=True)).is_zero()


# -- vev against the full-normal-form oracle -----------------------------------


def vev_oracle(e):
    """The operator-free part of the full normal form, built by adjacent
    swaps (`swap_reduce_oracle`), which shares no code with `vev` or the
    reducer."""
    return OperatorExpr.from_monomials(
        m for m in swap_reduce_oracle(e).terms if not m.ops)


def balanced_product(r, allow_onshell):
    """A shuffled product in which every annihilator stands left of a
    partner creator of its own field: its adjoint, or another creator of
    that field. Pairs nest and cross at random."""
    ops = []
    for _ in range(r.randint(1, 4)):
        x = random_ladder(r, dagger=False, allow_onshell=allow_onshell)
        y = x.adjoint()
        if r.random() < 0.5:
            y = random_ladder(r, dagger=True, allow_onshell=allow_onshell)
            while y.field != x.field:
                y = random_ladder(r, dagger=True, allow_onshell=allow_onshell)
        i = r.randint(0, len(ops))
        ops.insert(i, x)
        ops.insert(r.randint(i + 1, len(ops)), y)
    return OperatorExpr.from_monomials(
        [make_monomial(CRat(Fraction(r.randint(1, 3)), Fraction(r.randint(-2, 2))),
                       ops=tuple(ops))])


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False), st.booleans())
def test_vev_matches_normal_form_oracle(r, allow_onshell):
    e = random_sum(r, allow_onshell)
    got = vev(e)
    assert_same_expression(got, vev_oracle(e))
    assert_same_expression(got, vev_pairing_oracle(e))


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False), st.booleans())
def test_vev_matches_oracle_on_balanced_products(r, allow_onshell):
    e = balanced_product(r, allow_onshell)
    if r.random() < 0.3:
        e = e + balanced_product(r, allow_onshell)
    got = vev(e)
    assert_same_expression(got, vev_oracle(e))
    assert_same_expression(got, vev_pairing_oracle(e))


def test_scalar_ladder_vev_matches_oracle():
    e = OperatorExpr.number(1)
    for i in range(5):
        e = e * opalg.a(f"k{i}", f"K{i}")
    for i in range(5):
        e = e * opalg.a(f"h{i}", f"H{i}", dagger=True)
    got = vev(e)
    assert len(got.terms) == 120
    assert_same_expression(got, vev_oracle(e))
    assert_same_expression(got, vev_pairing_oracle(e))


# -- vev on repeated operators against both oracles -----------------------------


def vev_pairing_oracle(e):
    """Wick contraction pairing by pairing, left to right: the leftmost
    annihilator is contracted with each creator of its field to its right,
    the partial coefficient canonicalized as it is built, and every full
    pairing kept as its own monomial until the final merge."""
    done = []
    stack = [(m, m.ops) for m in e.terms]
    while stack:
        m, ops = stack.pop()
        if not ops:
            done.append(m)
            continue
        x = ops[0]
        if x.dagger:
            continue
        crossed = 0
        for j in range(1, len(ops)):
            y = ops[j]
            if y.dagger and y.field == x.field:
                cs, clam, ctp, catoms = opalg._contact_factors(x, y)
                if x.fermionic and crossed % 2:
                    cs = -cs
                c = make_monomial(m.scalar * cs, m.lam + clam, m.twopi + ctp,
                                  m.vreg, m.atoms + catoms)
                if c is not None:
                    stack.append((c, ops[1:j] + ops[j + 1:]))
            crossed += y.fermionic
    return OperatorExpr.from_monomials(done)


def operator_pool(r, fields, spins=(1, 2), onshell=False):
    """One to three annihilators over at most two bound momenta, so that
    products drawn from the pool repeat operators and labels."""
    moms = [random_bound_mom(r) for _ in range(r.randint(1, 2))]
    inners = [(Fraction(3), Fraction(1), Fraction(0), Fraction(-2)), "K"]
    pool = []
    for _ in range(r.randint(1, 3)):
        field = r.choice(fields)
        mom = r.choice(moms)
        inner = opalg.OnShell(mom) if onshell else r.choice(inners)
        kwargs = {}
        if field in (opalg.DIRAC_PARTICLE, opalg.DIRAC_ANTIPARTICLE):
            kwargs["spin"] = r.choice(spins)
        if field == opalg.GAUGE:
            kwargs["pol"] = r.choice((0, 2))
            kwargs["ipol"] = r.choice((1, "G"))
        pool.append(opalg.LadderOperator(field, False, mom, inner, **kwargs))
    return pool


def pooled_ops(r, pool, pairs):
    """Operators drawn with repetition from the pool: each annihilator
    stands left of a creator of its field, pairs nesting and crossing."""
    ops = []
    for _ in range(pairs):
        x = r.choice(pool)
        y = r.choice([p for p in pool if p.field == x.field]).adjoint()
        i = r.randint(0, len(ops))
        ops.insert(i, x)
        ops.insert(r.randint(i + 1, len(ops)), y)
    return tuple(ops)


def pooled_term(r, pool, ops):
    """A monomial over `ops` whose coefficient may carry inverse energy
    atoms of the pool's momenta, which contractions can cancel."""
    atoms = [(OmegaPow if p.field in (opalg.SCALAR, opalg.GAUGE)
              else ERatioPow)(p.mom, -r.randint(1, 2))
             for p in pool if r.random() < 0.3]
    return make_monomial(CRat(Fraction(r.randint(1, 3)),
                              Fraction(r.randint(-1, 1))),
                         lam=r.randint(-1, 1), vreg=r.randint(0, 1),
                         atoms=atoms, ops=ops)


POOLS = {
    "coincident scalar": dict(fields=(opalg.SCALAR,)),
    "equal-spin dirac": dict(fields=(opalg.DIRAC_PARTICLE,
                                     opalg.DIRAC_ANTIPARTICLE), spins=(1,)),
    "mixed species": dict(fields=opalg.FIELDS),
    "on-shell": dict(fields=opalg.FIELDS, onshell=True),
}


@pytest.mark.parametrize("pool_name", sorted(POOLS))
@settings(max_examples=60, deadline=None)
@given(r=st.randoms(use_true_random=False))
def test_vev_matches_both_oracles_on_repeated_operators(pool_name, r):
    pool = operator_pool(r, **POOLS[pool_name])
    e = expr_of(pooled_term(r, pool, pooled_ops(r, pool, r.randint(1, 4))))
    got = vev(e)
    assert_same_expression(got, vev_pairing_oracle(e))
    assert_same_expression(got, vev_oracle(e))


@settings(max_examples=60, deadline=None)
@given(r=st.randoms(use_true_random=False), pool_name=st.sampled_from(
    sorted(POOLS)))
def test_vev_matches_oracle_on_sums_sharing_suffixes(r, pool_name):
    """Terms that share their trailing operators, differing in their
    leading pairs or in the order of their operators: one call meets the
    same operator pairs in several terms."""
    pool = operator_pool(r, **POOLS[pool_name])
    tail = pooled_ops(r, pool, r.randint(1, 3))
    terms = []
    for _ in range(r.randint(2, 4)):
        ops = pooled_ops(r, pool, r.randint(0, 2)) + tail
        if r.random() < 0.3:
            ops = tuple(r.sample(ops, len(ops)))
        terms.append(pooled_term(r, pool, ops))
    e = expr_of(*terms)
    assert_same_expression(vev(e), vev_pairing_oracle(e))


@settings(max_examples=60, deadline=None)
@given(r=st.randoms(use_true_random=False))
def test_pauli_zeros_cancel_within_vev(r):
    """Equal-spin coincident fermions: pairings cancel as the operators
    are inserted, so a one-term product hands the final merge only
    surviving terms."""
    pool = operator_pool(r, **POOLS["equal-spin dirac"])
    e = expr_of(pooled_term(r, pool, pooled_ops(r, pool, r.randint(1, 4))))
    real = OperatorExpr.from_monomials.__func__
    fed = []

    def counting(cls, monos):
        monos = list(monos)
        fed.append(len(monos))
        return real(cls, monos)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(OperatorExpr, "from_monomials", classmethod(counting))
        got = vev(e)
    assert fed[-1] == len(got.terms)
    assert_same_expression(got, vev_pairing_oracle(e))


@pytest.mark.parametrize("pool_name", sorted(POOLS))
@settings(max_examples=40, deadline=None)
@given(r=st.randoms(use_true_random=False))
def test_apply_matches_the_swap_oracle(pool_name, r):
    """fock.apply(e, s) is the creator-only part of the swap reducer's
    normal form of e times s: e's annihilators contract with the ket's
    creators and with its own."""
    pool = operator_pool(r, **POOLS[pool_name])
    ops = pooled_ops(r, pool, r.randint(0, 2))
    e = expr_of(pooled_term(r, pool, ops + tuple(r.choices(pool, k=r.randint(0, 2)))))
    ket = FockState.ket(*(p.adjoint() for p in r.choices(pool, k=r.randint(0, 3))))
    want = OperatorExpr.from_monomials(
        m for m in swap_reduce_oracle(e * ket.expr).terms
        if all(op.dagger for op in m.ops))
    assert_same_expression(fock.apply(e, ket).expr, want)


def test_coincident_vev_cost_is_polynomial(monkeypatch):
    """A product of n coincident annihilators and creators has n! pairings
    that merge; the terms the Wick insertions make must grow polynomially
    in n, not as n!, for `vev`, `reduce_to_normal_form` and `fock.apply`
    alike. The normal form keeps one term per number of contractions,
    n + 1 in all; the other two keep one."""
    real = opalg._insert
    made = [0]

    def counting(x, term, contacts):
        out = real(x, term, contacts)
        made[0] += len(out)
        if made[0] > 10_000:
            raise AssertionError("the insertions enumerate the pairings one by one")
        return out

    monkeypatch.setattr(opalg, "_insert", counting)
    k = (Fraction(1, 2), Fraction(0), Fraction(-1))

    def terms_made(op, n, n_terms):
        x = opalg.a(k, opalg.OnShell(k))
        e = OperatorExpr.number(1)
        for _ in range(n):
            e = x * e * x.dagger()
        made[0] = 0
        assert len(op(e).terms) == n_terms
        return made[0]

    for name, op, one_term in (
            ("vev", vev, True),
            ("reduce_to_normal_form", reduce_to_normal_form, False),
            ("fock.apply", lambda e: fock.apply(e, FockState.vacuum()).expr, True)):
        counts = [terms_made(op, n, 1 if one_term else n + 1) for n in range(4, 10)]
        assert all(b <= 3 * a for a, b in zip(counts, counts[1:])), (name, counts)


# -- the reducer against the swap reducer ----------------------------------------


def swap_reduce_oracle(e, keep_contact=True):
    """The normal form by adjacent swaps: the leftmost out-of-order pair is
    swapped (a sign for two fermions), an annihilator/creator pair of one
    field also leaves its contact term, and the product is rescanned until
    it is sorted; a sorted product with two equal adjacent fermions is
    zero."""
    done = []
    stack = list(e.terms)
    while stack:
        m = stack.pop()
        if m is None:
            continue
        i = next((i for i in range(len(m.ops) - 1)
                  if m.ops[i].key > m.ops[i + 1].key), None)
        if i is None:
            if not any(x == y and x.fermionic
                       for x, y in zip(m.ops, m.ops[1:])):
                done.append(m)
            continue
        x, y = m.ops[i], m.ops[i + 1]
        sign = -1 if (x.fermionic and y.fermionic) else 1
        swapped = m.ops[:i] + (y, x) + m.ops[i + 2:]
        stack.append(make_monomial(m.scalar * CRat.of(sign), m.lam, m.twopi,
                                   m.vreg, m.atoms, swapped))
        if keep_contact and not x.dagger and y.dagger and x.field == y.field:
            cs, clam, ctp, catoms = opalg._contact_factors(x, y)
            stack.append(make_monomial(m.scalar * cs, m.lam + clam,
                                       m.twopi + ctp, m.vreg, m.atoms + catoms,
                                       m.ops[:i] + m.ops[i + 2:]))
    return OperatorExpr.from_monomials(done)


def assert_reduces_like_the_oracle(e):
    for keep_contact in (True, False):
        got = reduce_to_normal_form(e, keep_contact)
        assert_same_expression(got, swap_reduce_oracle(e, keep_contact))


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False))
def test_reducer_matches_swap_oracle_on_random_products(r):
    assert_reduces_like_the_oracle(
        random_product(r, max_ops=7, allow_onshell=True))


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False))
def test_reducer_matches_swap_oracle_on_sums(r):
    assert_reduces_like_the_oracle(
        random_sum(r, allow_onshell=True, max_ops=7))


@settings(max_examples=100, deadline=None)
@given(st.randoms(use_true_random=False), st.booleans())
def test_reducer_matches_swap_oracle_on_balanced_products(r, allow_onshell):
    assert_reduces_like_the_oracle(balanced_product(r, allow_onshell))


def respelled(op, r):
    """`op` with each integral bound component written as an int or as a
    Fraction at random: an equal operator."""
    def spell(label):
        if isinstance(label, opalg.OnShell):
            return opalg.OnShell(spell(label.mom))
        if isinstance(label, tuple):
            return tuple(int(c) if c == int(c) and r.random() < 0.5
                         else Fraction(c) for c in label)
        return label
    return opalg.LadderOperator(op.field, op.dagger, spell(op.mom),
                                spell(op.inner), op.spin, op.pol, op.ipol)


@pytest.mark.parametrize("pool_name", sorted(POOLS))
@settings(max_examples=60, deadline=None)
@given(r=st.randoms(use_true_random=False))
def test_reducer_matches_swap_oracle_on_repeated_operators(pool_name, r):
    pool = operator_pool(r, **POOLS[pool_name])
    ops = pooled_ops(r, pool, r.randint(1, 3))
    if r.random() < 0.5:
        ops = tuple(r.sample(ops, len(ops)))
    ops = tuple(respelled(op, r) for op in ops)
    assert_reduces_like_the_oracle(expr_of(pooled_term(r, pool, ops)))


def counting_contacts(monkeypatch):
    """A list whose first item counts the `_contact_factors` calls made."""
    real = opalg._contact_factors
    calls = [0]

    def counting(lo, hi):
        calls[0] += 1
        return real(lo, hi)

    monkeypatch.setattr(opalg, "_contact_factors", counting)
    return calls


def test_false_delta_ladder_reduction_cost_is_quadratic(monkeypatch):
    """n annihilators before n creators whose momenta all differ: every
    contact factor carries a false d3 and is pruned when made, so the
    reducer makes one contact factor per annihilator/creator pair."""
    calls = counting_contacts(monkeypatch)
    for n in range(4, 9):
        e = OperatorExpr.number(1)
        for i in range(n):
            e = e * opalg.a((i, 0, 0), f"K{i}")
        for i in range(n):
            e = e * opalg.a((i + 100, 0, 0), f"H{i}", dagger=True)
        calls[0] = 0
        got = reduce_to_normal_form(e)
        assert len(got.terms) == 1
        assert calls[0] <= n * n, (n, calls[0])


def product(factors):
    e = OperatorExpr.number(1)
    for x in factors:
        e = e * x
    return e


@pytest.mark.parametrize("n", range(3, 7))
def test_ladder_canonicalizes_each_contact_factor_once(n, monkeypatch):
    """The n! pairings of a^n a'^n, every label a distinct symbol, meet
    each annihilator/creator pair many times; each pair's contact factor is
    made once per call, so vev and the reducer make exactly n*n of them.
    vev drops a term as soon as it ends in an annihilator: a'^n a^n makes
    no contact factor, and (a a')^n one per adjacent pair."""
    calls = counting_contacts(monkeypatch)
    lows = [opalg.a(f"k{i}", f"K{i}") for i in range(n)]
    highs = [opalg.a(f"h{i}", f"H{i}", dagger=True) for i in range(n)]
    for fn in (vev, reduce_to_normal_form):
        calls[0] = 0
        fn(product(lows + highs))
        assert calls[0] == n * n, (fn.__name__, calls[0])
    pairs = [x for pair in zip(lows, highs) for x in pair]
    for factors, want in ((highs + lows, 0), (pairs, n)):
        calls[0] = 0
        vev(product(factors))
        assert calls[0] == want


def test_ladder_vev_codes_each_term_once(monkeypatch):
    """vev(a^6 a'^6), every label a distinct symbol: the insertions return
    3,199 coded terms, 36 contact factors are made, and the Wick loop
    builds one Monomial per output term, 720, besides the 36 contact
    monomials."""
    calls = counting_contacts(monkeypatch)
    real_insert = opalg._insert
    inserted = [0]

    def counting_insert(x, term, ctx):
        out = real_insert(x, term, ctx)
        inserted[0] += len(out)
        return out

    e = product([opalg.a(f"k{i}", f"K{i}") for i in range(6)]
                + [opalg.a(f"h{i}", f"H{i}", dagger=True) for i in range(6)])
    real_init = opalg.Monomial.__init__
    built = [0]

    def counting_init(self, *args, **kwargs):
        built[0] += 1
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(opalg, "_insert", counting_insert)
    monkeypatch.setattr(opalg.Monomial, "__init__", counting_init)
    assert len(vev(e).terms) == 720
    assert inserted[0] == 3199
    assert calls[0] == 36
    assert built[0] == 720 + 36


@pytest.mark.parametrize("n", range(3, 7))
def test_printing_a_ladder_formats_each_atom_once(n, monkeypatch):
    """The n! terms of vev(a^n a'^n) share the atoms of the n*n contact
    factors, three each; an atom builds its text once, so printing the
    result formats at most 3*n*n atoms, not 3*n per term."""
    real = opalg._atom_text
    calls = [0]

    def counting(atom):
        calls[0] += 1
        return real(atom)

    monkeypatch.setattr(opalg, "_atom_text", counting)
    lows = [opalg.a(f"k{i}", f"K{i}") for i in range(n)]
    highs = [opalg.a(f"h{i}", f"H{i}", dagger=True) for i in range(n)]
    text = str(vev(product(lows + highs)))
    assert text.count(" + ") + 1 == math.factorial(n)
    assert calls[0] <= 3 * n * n, (n, calls[0])


@settings(max_examples=40, deadline=None)
@given(st.randoms(use_true_random=False))
def test_creator_products_make_no_contact_factors(r):
    e = OperatorExpr.number(1)
    for _ in range(r.randint(0, 7)):
        e = e * OperatorExpr.from_op(random_ladder(r, dagger=True))
    with pytest.MonkeyPatch.context() as mp:
        calls = counting_contacts(mp)
        reduce_to_normal_form(e)
    assert calls[0] == 0


# -- delta resolution ----------------------------------------------------------


def test_delta_resolve_substitutes_symbols():
    e = commutator(opalg.a("k", "K"), opalg.a("h", "H", dagger=True))
    resolved = delta_resolve(e, {"h": (Fraction(1), Fraction(2), Fraction(2)),
                                 "H": (Fraction(4), Fraction(0), Fraction(0),
                                       Fraction(0))})
    ((m,),) = [resolved.terms]
    # the deltas are consumed: k and K are unified with the bound values
    assert not any(a.kind in ("d3", "d4") for a in m.atoms)
    atom_moms = [a.args[0] for a in m.atoms if a.kind == "w"]
    assert atom_moms == [(Fraction(1), Fraction(2), Fraction(2))]


def test_delta_resolve_conflicting_deltas_kill_monomial():
    m = make_monomial(1, atoms=(Delta3("k", (Fraction(1), Fraction(0), Fraction(0))),
                                Delta3("k", (Fraction(2), Fraction(0), Fraction(0)))))
    assert delta_resolve(expr_of(m)).is_zero()
    m = make_monomial(1, atoms=(SpinDelta("s", 1), SpinDelta("s", 2)))
    assert delta_resolve(expr_of(m)).is_zero()


def test_delta_resolve_consumes_one_copy_of_a_repeated_delta():
    """d3(k-h)*d3(k-h) is d3(0)*d3(k-h): one copy is consumed and the other
    collapses, whether or not the two copies are one object."""
    one = expr_of(make_monomial(1, atoms=(Delta3("k", "h"),)))
    want = expr_of(make_monomial(1, atoms=(opalg.Delta3Zero(),)))
    assert delta_resolve(one * one) == want
    twice = make_monomial(1, atoms=(Delta3("k", "h"), Delta3("k", "h")))
    assert delta_resolve(expr_of(twice)) == want


def delta_resolve_oracle(e, bindings=None):
    """Delta resolution rebuilding an expression per consumed delta: the
    first sifted atom over a symbol is dropped, the monomial rebuilt
    without it, and the symbol substituted through the expression, until
    no such atom is left."""
    if bindings:
        e = e.substitute(dict(bindings))
    out = []
    for m in e.terms:
        cur = OperatorExpr.from_monomials([m])
        while not cur.is_zero():
            (mm,) = cur.terms
            i = next((i for i, a in enumerate(mm.atoms)
                      if opalg.ATOMS[a.kind].sifted
                      and any(isinstance(x, str) for x in a.args)), None)
            if i is None:
                break
            sym, val = mm.atoms[i].args
            if not isinstance(sym, str):
                sym, val = val, sym
            base = expr_of(make_monomial(mm.scalar, mm.lam, mm.twopi, mm.vreg,
                                         mm.atoms[:i] + mm.atoms[i + 1:],
                                         mm.ops))
            cur = base.substitute({sym: val}) if sym != val else base
        out.extend(cur.terms)
    return OperatorExpr.from_monomials(out)


def _resolved(resolve, e, bindings=None):
    """The result of `resolve`, or the type of the ValueError it raised."""
    try:
        return resolve(e, bindings)
    except ValueError as exc:
        return type(exc)


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False), st.booleans())
def test_delta_resolve_matches_oracle(r, bind):
    """Normal forms of random sums carry d3, d4 and kd atoms over symbols,
    bound labels and on-shell labels; a square repeats them. An inner symbol
    may also name a momentum, so that a substitution can put a label of one
    type in a slot of another: both then raise ValueError."""
    e = reduce_to_normal_form(random_sum(r, allow_onshell=True, max_ops=4,
                                         shared_symbols=True))
    if r.random() < 0.5:
        e = e * e
    bindings = None
    if bind:
        bindings = {"k": random_bound_mom(r), "H": random_inner(r),
                    "s": r.choice((1, 2, "t")), r.choice("hq"): "p2"}
    got = _resolved(delta_resolve, e, bindings)
    want = _resolved(delta_resolve_oracle, e, bindings)
    assert got == want
    assert str(got) == str(want)


def test_delta_resolve_symbols_shared_by_momenta_and_inner_labels():
    """A symbol bound once is not substituted again, even where its value
    holds it (`h` to `~h`), and a value of the wrong type raises."""
    assert delta_resolve(parse_expression("d3(K-h)*d4(K-~h)")) == \
        OperatorExpr.number(1)
    for text in ("2*d4(k-~k)*a(k;K)", "d3(K-[4,-4/3,-2])*d4(K-h)"):
        with pytest.raises(ValueError):
            delta_resolve(parse_expression(text))


def test_delta_resolve_makes_one_monomial_per_term(monkeypatch):
    """One make_monomial call per term that has deltas to consume, however
    many it has; a term without any is kept as it is."""
    e = reduce_to_normal_form(opalg.b("k", "s", "K") * opalg.b("h", "t", "H")
                              * opalg.b("q", "t", "Q", dagger=True)
                              * opalg.b("p", "s", "P", dagger=True))
    e = e * e
    with_deltas = [m for m in e.terms if any(a.kind == "d3" for a in m.atoms)]
    assert 0 < len(with_deltas) < len(e.terms)
    real = opalg.make_monomial
    calls = [0]

    def counting(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(opalg, "make_monomial", counting)
    got = delta_resolve(e)
    assert calls[0] == len(with_deltas)
    monkeypatch.setattr(opalg, "make_monomial", real)
    assert got == delta_resolve_oracle(e)


def test_delta_resolve_rejects_malformed_bindings():
    e = opalg.a("k", "K")
    with pytest.raises(opalg.InconsistentBinding):
        delta_resolve(e, {("k",): (Fraction(1), Fraction(0), Fraction(0))})


def test_delta_symmetry_canonicalizes():
    assert Delta3("k", "h") == Delta3("h", "k")
    assert Delta4("K", "H") == Delta4("H", "K")
    assert SpinDelta(2, 1) == SpinDelta(1, 2)
    assert Metric(True, "g", 0) == Metric(True, 0, "g")
    assert Metric(False, "G2", "G") == Metric(False, "G", "G2")


def test_equal_symbol_pairs_are_canonical():
    """A pair atom over one symbol twice evaluates when its sign is the same
    over the symbol's whole index range, as a pair of equal ints does."""
    def atoms(*xs):
        return OperatorExpr.from_monomials([make_monomial(1, atoms=xs)])
    assert atoms(SpinDelta("s", "s")) == OperatorExpr.number(1)
    assert atoms(Metric(False, "G", "G")) == OperatorExpr.number(-1)
    assert str(atoms(Metric(True, "g", "g"))) == "1*eta[g,g]"
    assert atoms(Metric(True, 2, 2)) == OperatorExpr.number(-1)
    # the pair delta_resolve drops as 1 is 1 already
    e = opalg.vev(opalg.b("k", "s", "K") * opalg.b("h", "s", "H", dagger=True))
    assert "kd" not in str(e)
    assert delta_resolve(e) == delta_resolve(opalg.vev(
        opalg.b("k", 1, "K") * opalg.b("h", 1, "H", dagger=True)))


def test_atoms_print_in_canonical_order():
    # all nine kinds, w twice; kinds order as
    # w < E/m < kd < eta < ETA < d3 < d4 < d3(0) < d4(0), and within a kind
    # symbols < on-shell < bound, for every argument
    atoms = [opalg.Delta4Zero(), Metric(False, "G2", "G"), OmegaPow((1, 2, 3)),
             SpinDelta("t", 1), Delta3((1, 0, 0), "k"), ERatioPow("q", -1),
             Metric(True, "g", 0), opalg.Delta3Zero(),
             Delta4(opalg.OnShell("k"), "K"), OmegaPow("k", 2)]
    want = ("1*w(k)^2*w([1,2,3])*E/m(q)^-1*kd(t,1)*eta[g,0]*ETA[G,G2]"
            "*d3(k-[1,0,0])*d4(K-~k)*d3(0)*d4(0)")
    rng = random.Random(5)
    for _ in range(20):
        rng.shuffle(atoms)
        assert str(make_monomial(1, atoms=atoms)) == want


def test_monomial_merge_cancels():
    x = opalg.a("k", "K")
    e = x + x - x.scale(2)
    assert e.is_zero()
