import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numeric_oracles as oracle
from innerqft import cli, opalg, smatrix
from innerqft.config import RunConfig
from innerqft.fock import FieldMasses
from innerqft.grammar import parse_expression
from innerqft.gravlimit import RegularizationConfig
from innerqft.kinematics import ETA
from innerqft.smatrix import (Leg, LSZRecipe, PropagatorSpec, elastic_overlap,
                              lsz_reduce,
                              propagator_eval, toy_unitarity_check,
                              vacuum_and_one_particle_checks,
                              wick_pairing_oracle, wick_two_point)

def test_propagator_spec_validation():
    with pytest.raises(ValueError):
        PropagatorSpec("tensor", 1.0)
    with pytest.raises(ValueError):
        PropagatorSpec("scalar", 1.0, i_epsilon=0.0)
    with pytest.raises(ValueError, match="^i_epsilon must be positive$"):
        PropagatorSpec("scalar", 1.0, math.nan)


@pytest.mark.parametrize("mass", [math.nan, math.inf, -1.0])
def test_propagator_mass_must_be_finite_and_non_negative(mass):
    with pytest.raises(ValueError, match="^propagator mass must be finite "
                                         "and non-negative$"):
        PropagatorSpec("scalar", mass)


def test_massless_gauge_propagator_is_allowed():
    spec = PropagatorSpec("gauge", 0.0)
    assert spec.denominator(np.array([2., 0, 0, 0])) == 4 + 1e-8j


def test_scalar_propagator_value():
    spec = PropagatorSpec("scalar", 1.0, 1e-8)
    # [DERIVED] k = (2,0,0,0): k^2 - m^2 = 4 - 1 = 3
    val = propagator_eval(spec, np.array([2., 0, 0, 0]))
    assert val == pytest.approx(1 / (3 + 1e-8j))


def test_dirac_propagator_matrix():
    spec = PropagatorSpec("dirac", 1.0, 1e-8)
    k = np.array([2., 0, 0, 0])
    mat = propagator_eval(spec, k)
    from innerqft.kinematics import slash
    want = (slash(k) + np.eye(4)) / (3 + 1e-8j)
    assert np.allclose(mat, want)


def test_gauge_propagator_factorizes():
    spec = PropagatorSpec("gauge", 1.0, 1e-8)
    k = np.array([2., 0, 0, 0])
    K = np.array([3., 1, 0, 0])
    spacetime, inner = propagator_eval(spec, k, K)
    assert np.allclose(spacetime, -ETA / (3 + 1e-8j))
    # inner part is the transversal projector around K
    assert np.max(np.abs(K @ inner)) < 1e-12
    proj = smatrix.inner_transversal_projector(K)
    assert np.allclose(inner, proj)
    Kl = ETA @ K
    assert np.allclose(proj, ETA - np.outer(Kl, Kl) / (9 - 1))


def test_inner_projector_rejects_null():
    with pytest.raises(ValueError):
        smatrix.inner_transversal_projector(np.array([1., 1, 0, 0]))


@pytest.mark.parametrize("K", [[math.nan, 0, 0, 0], [3, math.nan, 0, 0],
                               [math.inf, 0, 0, 0]])
def test_inner_projector_rejects_non_finite_momenta(K):
    with pytest.raises(ValueError, match="singular"):
        smatrix.inner_transversal_projector(np.array(K, dtype=float))


@pytest.mark.parametrize("kind", ["scalar", "dirac", "gauge"])
def test_wick_two_point(kind):
    residue, expected, numerator = wick_two_point(kind)
    assert residue == expected
    assert numerator <= 1e-12


def test_wick_two_point_exact_residue():
    residue, _, _ = wick_two_point("scalar")
    assert residue == opalg.OperatorExpr.number(1)
    gauge, _, _ = wick_two_point("gauge")
    ((m,),) = [gauge.terms]
    assert m.lam == 2  # the gauge contraction carries the squared scale


# -- LSZ ----------------------------------------------------------------------


def masses():
    return FieldMasses()


def recipe():
    return LSZRecipe(1.0, 1.0, 1.0)


def test_recipe_validation():
    with pytest.raises(ValueError):
        LSZRecipe(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        LSZRecipe(1.0, 1.5, 1.0)


def test_free_two_point():
    p = (1.0, 2.0, 2.0)
    legs = (Leg("in", opalg.SCALAR, p), Leg("out", opalg.SCALAR, p))
    amp = lsz_reduce(legs, (), recipe(), RegularizationConfig())
    assert amp.connected == 0
    assert amp.invariance == Fraction(1)
    assert not amp.elastic.is_zero()


def test_two_point_different_momenta_no_overlap():
    legs = (Leg("in", opalg.SCALAR, (1.0, 0.0, 0.0)),
            Leg("out", opalg.SCALAR, (0.0, 1.0, 0.0)))
    amp = lsz_reduce(legs, (), recipe(), RegularizationConfig())
    assert amp.elastic.is_zero()
    assert amp.invariance == Fraction(0)


# momenta that differ only in number type or in the sign of a zero
_TWO_LEG_MOMS = ((1, 0, 0), (1.0, -0.0, 0.0), (Fraction(1, 2), 2, 0),
                 (0.5, 2.0, 0.0))


@st.composite
def _two_leg_inputs(draw):
    """One in and one out leg, in either order; the out leg repeats the in
    leg's labels half the time, else draws its own."""
    def leg(direction):
        fld = draw(st.sampled_from(opalg.FIELDS))
        labels = {}
        if fld in (opalg.DIRAC_PARTICLE, opalg.DIRAC_ANTIPARTICLE):
            labels["spin"] = draw(st.sampled_from((1, 2)))
        elif fld == opalg.GAUGE:
            labels["pol"] = draw(st.sampled_from((0, 2)))
            labels["ipol"] = draw(st.sampled_from((1, 3)))
        return Leg(direction, fld, draw(st.sampled_from(_TWO_LEG_MOMS)), **labels)

    leg_in = leg("in")
    if draw(st.booleans()):
        leg_out = Leg("out", leg_in.field, draw(st.sampled_from(_TWO_LEG_MOMS)),
                      leg_in.spin, leg_in.pol, leg_in.ipol)
    else:
        leg_out = leg("out")
    return (leg_in, leg_out) if draw(st.booleans()) else (leg_out, leg_in)


@settings(max_examples=200, deadline=None)
@given(_two_leg_inputs(),
       st.sampled_from([RegularizationConfig(), RegularizationConfig(2.0, 1.0)]))
def test_two_leg_invariance_is_the_norm_comparison(legs, reg):
    """The invariance flag of a vertex-free 1->1 input is 1 exactly when the
    elastic overlap equals the in leg's norm, built as its own overlap."""
    leg_in = next(l for l in legs if l.direction == "in")
    norm = elastic_overlap([leg_in, Leg("out", leg_in.field, leg_in.mom,
                                        leg_in.spin, leg_in.pol, leg_in.ipol)], reg)
    amp = lsz_reduce(legs, (), recipe(), reg)
    assert not norm.is_zero()
    assert amp.invariance == Fraction(amp.elastic == norm)


def test_off_shell_leg_rejected():
    leg = Leg("in", opalg.SCALAR, (1.0, 0.0, 0.0), energy=5.0)
    with pytest.raises(ValueError):
        lsz_reduce((leg, Leg("out", opalg.SCALAR, (1.0, 0.0, 0.0))), (),
                   recipe(), RegularizationConfig())


def test_leg_attachment_validation():
    with pytest.raises(ValueError):
        Leg("sideways", opalg.SCALAR, (1, 0, 0))
    with pytest.raises(ValueError):
        Leg("in", opalg.DIRAC_PARTICLE, (1, 0, 0))  # spin required
    with pytest.raises(ValueError):
        Leg("in", opalg.GAUGE, (1, 0, 0), pol=1)    # ipol required
    # the leg's operator rules: field, label ranges, a 3-vector momentum
    for bad in [dict(field="tensor"), dict(spin=1),
                dict(field=opalg.DIRAC_PARTICLE, spin=3),
                dict(field=opalg.GAUGE, pol=4, ipol=1),
                dict(field=opalg.GAUGE, pol=0, ipol=0),
                dict(mom=(1, 0)), dict(mom=(10**400, 0, 0)),
                dict(mom=(float("nan"), 0, 0))]:
        kw = dict(field=opalg.SCALAR, mom=(1, 0, 0)) | bad
        with pytest.raises(ValueError):
            Leg("in", **kw)
    # the leg's own rules: bound integer labels, a finite energy
    with pytest.raises(ValueError):
        Leg("in", opalg.DIRAC_PARTICLE, (1, 0, 0), spin="s")
    with pytest.raises(ValueError):
        Leg("in", opalg.GAUGE, (1, 0, 0), pol="g", ipol=1)
    with pytest.raises(ValueError):
        Leg("in", opalg.SCALAR, (1, 0, 0), energy=float("inf"))


def test_on_shell_check_is_exact_and_cannot_overflow():
    shell = 1e-9
    smatrix._check_on_shell(Leg("in", opalg.SCALAR, (0, 0, 0), energy=1.0),
                            shell)
    # the tolerance is relative to E^2: the nearest float to 10^200 is on
    # shell at |p| = 10^200, twice it is not
    smatrix._check_on_shell(Leg("in", opalg.SCALAR, (Fraction(10**200), 0, 0),
                                energy=1e200), shell)
    for mom, energy in [((0, 0, 0), 1e300), ((10**200, 0, 0), 1.0),
                        ((Fraction(10**200), 0, 0), 2e200)]:
        with pytest.raises(ValueError, match="off-shell"):
            smatrix._check_on_shell(Leg("in", opalg.SCALAR, mom,
                                        energy=energy), shell)


@pytest.mark.parametrize("field, labels, z", [
    (opalg.SCALAR, {}, 1 / 4), (opalg.DIRAC_PARTICLE, {"spin": 1}, 1 / 16),
    (opalg.DIRAC_ANTIPARTICLE, {"spin": 2}, 1 / 16),
    (opalg.GAUGE, {"pol": 1, "ipol": 3}, 1 / 64)])
def test_each_field_reads_its_own_z(field, labels, z):
    """connected = vertex (i/sqrt(Z))^2 for one in/out pair of a field, with
    z, z2 and z3 distinct powers of 2, so that every factor is exact."""
    legs = [Leg(direction, field, (1, 0, 0), **labels) for direction in ("in", "out")]
    amp = lsz_reduce(legs, [(3, 0)], LSZRecipe(1 / 4, 1 / 16, 1 / 64))
    assert amp.connected == 3 * (1j / math.sqrt(z)) ** 2


def test_four_point_elastic_matches_pairing_oracle():
    p, q = (1.0, 2.0, 2.0), (0.5, 0.0, -1.0)
    legs = (Leg("in", opalg.SCALAR, p), Leg("in", opalg.SCALAR, q),
            Leg("out", opalg.SCALAR, p), Leg("out", opalg.SCALAR, q))
    amp = lsz_reduce(legs, (), recipe(), RegularizationConfig())
    assert amp.elastic == wick_pairing_oracle(legs, masses(),
                                              RegularizationConfig())


def test_four_point_oracle_coincident_momenta():
    p = (1.0, 0.0, 0.0)
    legs = (Leg("in", opalg.SCALAR, p), Leg("in", opalg.SCALAR, p),
            Leg("out", opalg.SCALAR, p), Leg("out", opalg.SCALAR, p))
    amp = lsz_reduce(legs, (), recipe(), RegularizationConfig())
    assert amp.elastic == wick_pairing_oracle(legs, masses(),
                                              RegularizationConfig())


def test_gauge_elastic_matches_oracle():
    p = (1.0, 2.0, 2.0)
    legs = (Leg("in", opalg.GAUGE, p, pol=1, ipol=2),
            Leg("out", opalg.GAUGE, p, pol=1, ipol=2))
    amp = lsz_reduce(legs, (), recipe(), RegularizationConfig())
    assert amp.elastic == wick_pairing_oracle(legs, masses(),
                                              RegularizationConfig())


_D, _A, _S = opalg.DIRAC_PARTICLE, opalg.DIRAC_ANTIPARTICLE, opalg.SCALAR
_P, _Q, _R = (1.0, 2.0, 2.0), (0.5, 0.0, -1.0), (Fraction(2, 3), 0, 1)

# (legs as (direction, field, momentum, spin), whether the overlap vanishes)
FERMIONIC_ELASTIC = {
    "2-leg": ([("in", _D, _P, 1), ("out", _D, _P, 1)], False),
    "2-leg spin flip": ([("in", _A, _P, 1), ("out", _A, _P, 2)], True),
    "4-leg distinct": ([("in", _D, _P, 1), ("in", _A, _Q, 2),
                        ("out", _A, _Q, 2), ("out", _D, _P, 1)], False),
    "4-leg distinct same species": ([("in", _D, _P, 1), ("in", _D, _Q, 1),
                                     ("out", _D, _P, 1), ("out", _D, _Q, 1)],
                                    False),
    "4-leg coincident": ([("in", _D, _P, 1), ("in", _D, _P, 2),
                          ("out", _D, _P, 2), ("out", _D, _P, 1)], False),
    "4-leg coincident Pauli": ([("in", _A, _P, 1), ("in", _A, _P, 1),
                                ("out", _A, _P, 1), ("out", _A, _P, 1)], True),
    "6-leg distinct": ([("in", _D, _P, 1), ("in", _D, _Q, 1), ("in", _A, _R, 2),
                        ("out", _A, _R, 2), ("out", _D, _Q, 1),
                        ("out", _D, _P, 1)], False),
    "6-leg coincident": ([("in", _D, _P, 1), ("in", _D, _P, 2), ("in", _A, _P, 1),
                          ("out", _D, _P, 2), ("out", _A, _P, 1),
                          ("out", _D, _P, 1)], False),
    "6-leg with a scalar": ([("in", _D, _P, 1), ("in", _S, _P, None),
                             ("in", _A, _Q, 1), ("out", _S, _P, None),
                             ("out", _A, _Q, 1), ("out", _D, _P, 1)], False),
}


@pytest.mark.parametrize("name", sorted(FERMIONIC_ELASTIC))
def test_fermionic_elastic_matches_pairing_oracle(name):
    spec, vanishes = FERMIONIC_ELASTIC[name]
    legs = tuple(Leg(d, f, p, spin=s) for d, f, p, s in spec)
    amp = lsz_reduce(legs, (), recipe(), RegularizationConfig())
    oracle = wick_pairing_oracle(legs, masses(), RegularizationConfig())
    assert amp.elastic == oracle
    assert oracle.is_zero() == vanishes


@pytest.mark.parametrize("name", ["4-leg coincident", "6-leg with a scalar"])
def test_pairing_oracle_carries_volume_ratio(name):
    spec, _ = FERMIONIC_ELASTIC[name]
    legs = tuple(Leg(d, f, p, spin=s) for d, f, p, s in spec)
    reg = RegularizationConfig(2.0, 1.0)
    amp = lsz_reduce(legs, (), recipe(), reg)
    assert amp.elastic == wick_pairing_oracle(legs, masses(), reg)
    assert amp.elastic != wick_pairing_oracle(legs, masses(),
                                              RegularizationConfig())


# -- coincident legs in closed form --------------------------------------------

_K = (Fraction(1, 2), 0, -1)
# (field, discrete labels shared by every leg)
COINCIDENT_BOSONS = {"scalar": (opalg.SCALAR, {}),
                     "gauge": (opalg.GAUGE, {"pol": 2, "ipol": 3})}


def coincident_legs(n, fld, labels):
    return tuple(Leg(d, fld, _K, **labels) for d in ("in", "out")
                 for _ in range(n))


def coincident_closed_form(n, fld, labels):
    """n identical in/out pairs: all n! pairings give the same factor, the
    single pair's overlap to the n-th power."""
    one = elastic_overlap(coincident_legs(1, fld, labels),
                          RegularizationConfig())
    power = opalg.OperatorExpr.number(1)
    for _ in range(n):
        power = power * one
    return power.scale(math.factorial(n))


@pytest.mark.parametrize("n", range(1, 6))
@pytest.mark.parametrize("name", sorted(COINCIDENT_BOSONS))
def test_coincident_bosons_match_oracle_and_closed_form(name, n):
    fld, labels = COINCIDENT_BOSONS[name]
    legs = coincident_legs(n, fld, labels)
    got = elastic_overlap(legs, RegularizationConfig())
    assert got == wick_pairing_oracle(legs, masses(), RegularizationConfig())
    assert got == coincident_closed_form(n, fld, labels)
    assert len(got.terms) == 1


@pytest.mark.parametrize("n", [8, 10])
@pytest.mark.parametrize("name", sorted(COINCIDENT_BOSONS))
def test_many_coincident_bosons_give_the_closed_form(name, n):
    # 8! and 10! pairings: beyond the pairing oracle
    fld, labels = COINCIDENT_BOSONS[name]
    got = elastic_overlap(coincident_legs(n, fld, labels),
                          RegularizationConfig())
    assert got == coincident_closed_form(n, fld, labels)


@pytest.mark.parametrize("n", [1, 6])
def test_each_leg_builds_its_creator_once(n, monkeypatch):
    """`Leg.op` serves the overlap and the invariance flag: building and
    reducing 2n legs builds 2n creators."""
    real, creators = opalg.LadderOperator.__post_init__, []

    def counting(op):
        real(op)
        creators.append(op.dagger)

    monkeypatch.setattr(opalg.LadderOperator, "__post_init__", counting)
    legs = tuple(Leg(d, opalg.SCALAR, (i % 3, 0, 0)) for d in ("in", "out")
                 for i in range(n))
    lsz_reduce(legs, (), recipe(), RegularizationConfig())
    assert creators.count(True) == 2 * n


@pytest.mark.parametrize("n", range(1, 11))
def test_coincident_legs_make_one_contact_factor(n, monkeypatch):
    """2n identical scalar legs meet one annihilator/creator pair, whose
    contact factor is made once however many pairings reuse it."""
    real = opalg._contact_factors
    calls = [0]

    def counting(lo, hi):
        calls[0] += 1
        return real(lo, hi)

    monkeypatch.setattr(opalg, "_contact_factors", counting)
    got = elastic_overlap(coincident_legs(n, opalg.SCALAR, {}),
                          RegularizationConfig())
    assert len(got.terms) == 1
    assert calls[0] == 1


@pytest.mark.parametrize("n", range(2, 6))
def test_coincident_equal_spin_fermions_have_no_overlap(n):
    legs = coincident_legs(n, opalg.DIRAC_PARTICLE, {"spin": 2})
    assert elastic_overlap(legs, RegularizationConfig()).is_zero()
    if n <= 4:
        assert wick_pairing_oracle(legs, masses(),
                                   RegularizationConfig()).is_zero()


def test_reduce_on_twenty_coincident_legs_prints_the_closed_form(tmp_path,
                                                                 capsys):
    legs = tmp_path / "legs.txt"
    legs.write_text("".join(f"{d} scalar p=1/2,0,-1\n"
                            for d in ("in", "out") for _ in range(10)))
    greens = tmp_path / "greens.txt"
    greens.write_text("")
    assert cli.main(["reduce", str(greens), "--legs", str(legs)]) == 0
    (line,) = [l for l in capsys.readouterr().out.splitlines()
               if l.startswith("elastic:")]
    elastic = parse_expression(line.removeprefix("elastic:"))
    assert elastic == coincident_closed_form(10, opalg.SCALAR, {})


def test_zero_vertex_factors_give_zero_connected():
    p, q = (1.0, 2.0, 2.0), (0.5, 0.0, -1.0)
    legs = (Leg("in", opalg.SCALAR, p), Leg("in", opalg.SCALAR, q),
            Leg("out", opalg.SCALAR, p), Leg("out", opalg.SCALAR, q))
    vertices = ((0.0, 0), (0.0, 0))
    assert lsz_reduce(legs, vertices, recipe(),
                      RegularizationConfig()).connected == 0


@pytest.mark.parametrize("vertex, part", [((math.inf, 0), "inf"),
                                           ((math.nan, 0), "nan"),
                                           ((0, -math.inf), "-inf")])
def test_non_finite_vertex_part_names_the_part(vertex, part):
    legs = (Leg("in", opalg.SCALAR, (1, 0, 0)), Leg("out", opalg.SCALAR, (1, 0, 0)))
    with pytest.raises(ValueError, match=f"^vertex part {part} is not finite$"):
        lsz_reduce(legs, [vertex])


def test_nonzero_vertex_scales_with_z():
    p = (1.0, 0.0, 0.0)
    legs = (Leg("in", opalg.SCALAR, p), Leg("out", opalg.SCALAR, p))
    vertices = ((2.0, 0),)
    full = lsz_reduce(legs, vertices, LSZRecipe(1.0, 1.0, 1.0),
                      RegularizationConfig())
    damped = lsz_reduce(legs, vertices, LSZRecipe(0.25, 1.0, 1.0),
                        RegularizationConfig())
    # each scalar leg contributes 1/sqrt(z): two legs at z=1/4 give factor 4
    assert abs(damped.connected) == pytest.approx(4 * abs(full.connected))


# -- toy unitarity ------------------------------------------------------------


def test_unitarity_identity():
    failures, concl = toy_unitarity_check(np.eye(4, dtype=complex),
                                          np.diag([1.0, 1.0, 0.0, 0.0]))
    assert not failures and concl <= 1e-12


def test_unitarity_random_instances():
    from innerqft.suites import random_toy_instances
    rng = random.Random(5)
    for dim in (4, 16):
        for _ in range(25):
            (s,), (p,) = random_toy_instances(rng, dim, 1)
            failures, concl = toy_unitarity_check(s, p, 1e-12)
            assert not failures and concl <= 1e-12, failures


def test_unitarity_preconditions_reported():
    # unitary S that does not commute with P: no conclusion is drawn
    had = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    failures, concl = toy_unitarity_check(had, np.diag([1.0, 0.0]))
    assert failures
    assert concl is None


def test_unitarity_nonunitary_s():
    s = np.diag([2.0 + 0j, 1.0])
    failures, concl = toy_unitarity_check(s, np.eye(2))
    assert failures and concl is None
    assert any("S" in f for f in failures)


def test_unitarity_bad_projector():
    """P must be the diagonal 0/1 projector of a graded basis; an
    idempotent, self-adjoint but not diagonal P is refused as well."""
    for p in (np.diag([0.5, 0.0]), np.diag([1.0, 1j]),
              np.array([[1.0, 0.5], [0.0, 0.0]]),
              np.array([[0.5, 0.5], [0.5, 0.5]])):
        with pytest.raises(ValueError,
                           match="^P must be diagonal with entries 0 and 1$"):
            toy_unitarity_check(np.eye(2, dtype=complex), p)


def test_vacuum_and_one_particle_invariance():
    assert vacuum_and_one_particle_checks(np.eye(4, dtype=complex), (1, 2)) == ()


def test_vacuum_phase_flagged():
    s = np.diag([np.exp(0.2j), 1.0, 1.0, 1.0])
    assert vacuum_and_one_particle_checks(s, (1,))


def test_vacuum_mixing_flagged():
    s = np.eye(4, dtype=complex)[[1, 0, 2, 3]]  # S swaps the vacuum and state 1
    assert vacuum_and_one_particle_checks(s, (2,)) == (
        "vacuum: S[0,0] = 0+0j, want 1 (zero-phase convention)",
        "vacuum: S mixes the vacuum with other sectors")


def test_one_particle_mixing_flagged():
    s = np.eye(4, dtype=complex)
    s[1, 1] = s[3, 3] = 0
    s[1, 3] = s[3, 1] = 1
    assert vacuum_and_one_particle_checks(s, (1,))


# -- the Frobenius screen of the unitarity preconditions ----------------------


def _svd_unitarity_report(s, p, tol):
    """The unitarity check with every norm taken by SVD of a dense matrix:
    the reference for the Frobenius screen."""
    failures = []
    for name, residual in (("S not unitary", s.conj().T @ s - np.eye(len(s))),
                           ("SP != PS", s @ p - p @ s)):
        norm = np.linalg.norm(residual, 2)
        if norm > tol:
            failures.append(f"{name} (norm {norm:.3e})")
    if failures:
        return tuple(failures), None
    return (), float(np.linalg.norm(p @ s.conj().T @ s @ p - p, 2))


_EPS = np.finfo(float).eps


def _same_report(got, want) -> bool:
    """Equal failures, and equal conclusion norms up to the last bits: the
    SVD of the physical block and that of the dense matrix, the block padded
    with zeros, round apart by an ulp or two."""
    if got[0] != want[0] or (got[1] is None) != (want[1] is None):
        return False
    return got[1] is None or got[1] == pytest.approx(want[1], rel=4 * _EPS, abs=0)


def _broken_copies(s, p, size):
    """Copies of an admissible instance in which each precondition in turn
    fails by a residual of about `size`."""
    n = len(s)
    yield s * (1 + size / 2), p                              # S not unitary
    c, si = np.cos(size), np.sin(size)                       # SP != PS
    mix = np.eye(n, dtype=complex)
    mix[[0, 0, n - 1, n - 1], [0, n - 1, 0, n - 1]] = c, -si, si, c
    yield s @ mix, p


def _bad_projectors(p, size):
    """Copies of a 0/1 diagonal P that are not idempotent, or not
    self-adjoint, which the check refuses."""
    n = len(p)
    yield p * (1 + size)
    skew = np.zeros((n, n))
    skew[0, n - 1] = size
    yield p + skew


def test_frobenius_screen_matches_svd_reports():
    from innerqft.suites import random_toy_instances
    rng = random.Random(11)
    tol = 1e-9
    seen = set()
    for dim in (2, 4, 16):
        for _ in range(10):
            (s,), (p,) = random_toy_instances(rng, dim, 1)
            assert _same_report(toy_unitarity_check(s, p, tol),
                                _svd_unitarity_report(s, p, tol))
            for size in tol * np.array([0.1, 0.45, 0.55, 0.9, 1.1, 3.0, 1e6]):
                for broken in _broken_copies(s, p, size):
                    rep = toy_unitarity_check(*broken, tol)
                    assert _same_report(rep, _svd_unitarity_report(*broken, tol))
                    seen.update(f.split(" (")[0] for f in rep[0])
                for bad in _bad_projectors(p, size):
                    with pytest.raises(ValueError):
                        toy_unitarity_check(s, bad, tol)
    assert seen == {"S not unitary", "SP != PS"}


_PRECONDITIONS = ("S not unitary", "SP != PS")


def _report_of_instances(s, p, tol):
    """The report of a stack, made from the calls on its instances: each
    failure with its largest norm, the largest conclusion norm or None."""
    worst, concls = {}, []
    for s1, p1 in zip(s.reshape(-1, *s.shape[-2:]), p.reshape(-1, *p.shape[-2:])):
        failures, concl = toy_unitarity_check(s1, p1, tol)
        for failure in failures:
            name, norm = failure.removesuffix(")").split(" (norm ")
            worst[name] = max(worst.get(name, 0.0), float(norm))
        if concl is not None:
            concls.append(concl)
    return (tuple(f"{name} (norm {worst[name]:.3e})"
                  for name in _PRECONDITIONS if name in worst),
            max(concls) if concls else None)


def test_stack_check_agrees_with_per_instance_calls():
    from innerqft.suites import random_toy_instances
    rng = random.Random(3)
    tol = 1e-9
    for dim in (2, 4, 16):
        s, p = random_toy_instances(rng, dim, 6)
        stacks = [(s, p), (2 * s, p)]        # all hold; none holds
        for k, (bs, bp) in enumerate(_broken_copies(s[0], p[0], 10 * tol)):
            s2, p2 = s.copy(), p.copy()      # one instance fails
            s2[k + 1], p2[k + 1] = bs, bp
            stacks.append((s2, p2))
        s2 = s.copy()
        s2[1] *= 1 + 5 * tol                 # two fail, by different norms
        s2[2] *= 1 + 20 * tol
        # SP != PS by 0.7 tol passes a screen that SP != PS by 10 tol fails
        _, (s2[4], _) = _broken_copies(s[4], p[4], 0.7 * tol)
        _, (s2[5], _) = _broken_copies(s[5], p[5], 10 * tol)
        stacks.append((s2, p))
        for s2, p2 in stacks:
            want = _report_of_instances(s2, p2, tol)
            assert toy_unitarity_check(s2, p2, tol) == want
            assert toy_unitarity_check(s2.reshape(2, 3, dim, dim),
                                       p2.reshape(2, 3, dim, dim), tol) == want
        assert toy_unitarity_check(2 * s, p, tol)[1] is None
        with pytest.raises(ValueError):      # one refused P refuses the stack
            toy_unitarity_check(s, np.concatenate([p[:5], 0.5 * p[5:]]), tol)


def test_block_check_equals_the_dense_oracle():
    """The block check reports what the earlier check with dense products
    of P reported, on the instances of seeds 0-39: single instances and
    stacks, admissible and broken in S or in SP = PS, at tolerances above
    and below the rounding of the conclusion."""
    from innerqft.suites import random_toy_instances
    for seed in range(40):
        rng = random.Random(seed)
        for dim, count in ((2, 6), (4, 6), (16, 3), (64, 1)):
            s, p = random_toy_instances(rng, dim, count)
            cases = [(s, p), (s[0], p[0])]
            for size in (1e-13, 1e-9, 1e-3):
                for bs, bp in _broken_copies(s[-1], p[-1], size):
                    s2, p2 = s.copy(), p.copy()
                    s2[-1], p2[-1] = bs, bp
                    cases += [(s2, p2), (bs, bp)]
            for s2, p2 in cases:
                for tol in (1e-12, 1e-15):
                    assert _same_report(toy_unitarity_check(s2, p2, tol),
                                        oracle.toy_unitarity_check(s2, p2, tol))


def test_stacked_propagator_suite_equals_the_per_sample_loops():
    """`suite_propagators` and the numerator residuals report what their
    earlier per-sample loops reported, seeds 0-39."""
    from innerqft import numeric
    from innerqft.suites import suite_propagators
    for kind in ("scalar", "dirac", "gauge"):
        assert numeric._numerator_residual(kind) == oracle.numerator_residual(kind)
    for seed in range(40):
        for tol in (1e-12, 1e-17):
            cfg = RunConfig(seed=seed, tolerance=tol)
            assert suite_propagators(cfg) == oracle.suite_propagators(cfg)


def _one_toy_instance(rng, dim):
    """One (S, P), drawn alone and built one block at a time: the reference
    for the stacked draws."""
    from innerqft.suites import _complex_normals
    phys = rng.randrange(1, dim)
    z = _complex_normals(rng, phys * phys + (dim - phys) ** 2)
    s = np.zeros((dim, dim), dtype=complex)
    for at, n in ((0, phys), (phys, dim - phys)):
        q, r = np.linalg.qr(z[:n * n].reshape(n, n))
        s[at:at + n, at:at + n] = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
        z = z[n * n:]
    return s, np.diag([1.0] * phys + [0.0] * (dim - phys))


def test_stacked_draws_equal_one_at_a_time_draws():
    from innerqft.suites import random_toy_instances
    for dim in (2, 5, 16):
        one, many = random.Random(dim), random.Random(dim)
        pairs = [_one_toy_instance(one, dim) for _ in range(30)]
        s, p = random_toy_instances(many, dim, 30)
        assert np.array_equal(s, [a for a, _ in pairs])
        assert np.array_equal(p, [b for _, b in pairs])
        assert one.getstate() == many.getstate()
        (s,), (p,) = random_toy_instances(many, dim, 1)
        assert all(np.array_equal(a, b) for a, b in
                   zip(_one_toy_instance(one, dim), (s, p)))


def test_complex_normals_are_standard_and_circular():
    """2 * 10^5 seeded draws: finite, mean 0, E|z|^2 = 2 and E z^2 = 0 (the
    real and imaginary parts are independent unit normals), each within
    five standard errors; and the draws take one `getrandbits` call."""
    from innerqft.suites import _complex_normals
    n = 200_000
    rng = random.Random(2007)
    z = _complex_normals(rng, n)
    assert z.shape == (n,) and np.isfinite(z).all()
    assert abs(z.mean()) < 5 * math.sqrt(2 / n)
    assert abs(np.mean(abs(z) ** 2) - 2) < 5 * math.sqrt(4 / n)
    assert abs(np.mean(z * z)) < 5 * math.sqrt(8 / n)
    ref = random.Random(2007)
    ref.getrandbits(64 * n)
    assert rng.getstate() == ref.getstate()


def _scaled_identity(n, two_norm):
    """(S, P) with S = c*I, ||S^dag S - I||_2 = two_norm and a Frobenius
    norm sqrt(n) times larger."""
    c = np.sqrt(1 + two_norm)
    return c * np.eye(n, dtype=complex), np.diag([1.0, 0.0] * (n // 2))


def test_precondition_between_half_tol_and_tol_passes():
    tol = 1e-9
    s, p = _scaled_identity(16, 0.8 * tol)
    residual = s.conj().T @ s - np.eye(16)
    assert tol / 2 < np.linalg.norm(residual, 2) <= tol
    assert np.linalg.norm(residual) > tol      # only the 2-norm passes it
    failures, concl = toy_unitarity_check(s, p, tol)
    assert not failures and concl <= tol
    assert concl == pytest.approx(0.8 * tol, rel=1e-4)


def test_precondition_just_above_tol_fails_with_its_norm():
    tol = 1e-9
    s, p = _scaled_identity(16, 1.05 * tol)
    norm = np.linalg.norm(s.conj().T @ s - np.eye(16), 2)
    assert norm > tol
    failures, concl = toy_unitarity_check(s, p, tol)
    assert failures == (f"S not unitary (norm {norm:.3e})",)
    assert failures == ("S not unitary (norm 1.050e-09)",)
    assert concl is None
