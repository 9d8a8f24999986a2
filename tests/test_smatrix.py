import random
from fractions import Fraction

import numpy as np
import pytest

from innerqft import opalg, smatrix
from innerqft.fock import FieldMasses
from innerqft.gravlimit import RegularizationConfig
from innerqft.kinematics import ETA, FourVector
from innerqft.smatrix import (GreenFunction, Leg, LSZRecipe, PropagatorSpec,
                              ToySMatrix, VertexRule, lsz_reduce,
                              propagator_eval, toy_unitarity_check,
                              vacuum_and_one_particle_checks,
                              wick_pairing_oracle, wick_two_point)

def test_propagator_spec_validation():
    with pytest.raises(ValueError):
        PropagatorSpec("tensor", 1.0)
    with pytest.raises(ValueError):
        PropagatorSpec("scalar", 1.0, i_epsilon=0.0)
    assert PropagatorSpec("scalar", 1.0).lambda_power == 4
    assert PropagatorSpec("dirac", 1.0).lambda_power == 4
    assert PropagatorSpec("gauge", 1.0).lambda_power == 2


def test_scalar_propagator_value():
    spec = PropagatorSpec("scalar", 1.0, 1e-8)
    # [DERIVED] k = (2,0,0,0): k^2 - m^2 = 4 - 1 = 3
    val = propagator_eval(spec, FourVector(2, 0, 0, 0))
    assert val == pytest.approx(1 / (3 + 1e-8j))


def test_dirac_propagator_matrix():
    spec = PropagatorSpec("dirac", 1.0, 1e-8)
    k = FourVector(2, 0, 0, 0)
    mat = propagator_eval(spec, k)
    from innerqft.kinematics import slash
    want = (slash(k) + np.eye(4)) / (3 + 1e-8j)
    assert np.allclose(mat, want)


def test_gauge_propagator_factorizes():
    spec = PropagatorSpec("gauge", 1.0, 1e-8)
    k = FourVector(2, 0, 0, 0)
    K = FourVector(3, 1, 0, 0)
    spacetime, inner = propagator_eval(spec, k, K)
    assert np.allclose(spacetime, -ETA / (3 + 1e-8j))
    # inner part is the transversal projector around K
    assert np.max(np.abs(K.as_array() @ inner)) < 1e-12
    proj = smatrix.inner_transversal_projector(K)
    assert np.allclose(inner, proj)
    Kl = ETA @ K.as_array()
    assert np.allclose(proj, ETA - np.outer(Kl, Kl) / (9 - 1))


def test_inner_projector_rejects_null():
    with pytest.raises(ValueError):
        smatrix.inner_transversal_projector(FourVector(1, 1, 0, 0))


@pytest.mark.parametrize("kind", ["scalar", "dirac", "gauge"])
def test_wick_two_point(kind):
    check = wick_two_point(kind)
    assert check.passed, check.mismatch()


def test_wick_two_point_exact_residue():
    check = wick_two_point("scalar")
    assert check.residue == opalg.OperatorExpr.number(1)
    gauge = wick_two_point("gauge")
    ((m,),) = [gauge.residue.terms]
    assert m.lam == 2  # the gauge contraction carries the squared scale


# -- LSZ ----------------------------------------------------------------------


def masses():
    return FieldMasses()


def recipe():
    return LSZRecipe(1.0, 1.0, 1.0, masses())


def test_recipe_validation():
    with pytest.raises(ValueError):
        LSZRecipe(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        LSZRecipe(1.0, 1.5, 1.0)


def test_free_two_point():
    p = (1.0, 2.0, 2.0)
    g = GreenFunction((Leg("in", opalg.SCALAR, p), Leg("out", opalg.SCALAR, p)))
    amp = lsz_reduce(g, recipe(), RegularizationConfig())
    assert amp.connected == 0
    assert amp.invariance == Fraction(1)
    assert not amp.elastic.is_zero()


def test_two_point_different_momenta_no_overlap():
    g = GreenFunction((Leg("in", opalg.SCALAR, (1.0, 0.0, 0.0)),
                       Leg("out", opalg.SCALAR, (0.0, 1.0, 0.0))))
    amp = lsz_reduce(g, recipe(), RegularizationConfig())
    assert amp.elastic.is_zero()
    assert amp.invariance == Fraction(0)


def test_off_shell_leg_rejected():
    leg = Leg("in", opalg.SCALAR, (1.0, 0.0, 0.0), energy=5.0)
    with pytest.raises(ValueError):
        lsz_reduce(GreenFunction((leg, Leg("out", opalg.SCALAR,
                                           (1.0, 0.0, 0.0)))), recipe(),
                   RegularizationConfig())


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
    masses, shell = FieldMasses(), 1e-9
    smatrix._check_on_shell(Leg("in", opalg.SCALAR, (0, 0, 0), energy=1.0),
                            masses, shell)
    for mom, energy in [((0, 0, 0), 1e300), ((10**200, 0, 0), 1.0),
                        ((Fraction(10**200), 0, 0), 1e200)]:
        with pytest.raises(ValueError, match="off-shell"):
            smatrix._check_on_shell(Leg("in", opalg.SCALAR, mom,
                                        energy=energy), masses, shell)


def test_four_point_elastic_matches_pairing_oracle():
    p, q = (1.0, 2.0, 2.0), (0.5, 0.0, -1.0)
    legs = (Leg("in", opalg.SCALAR, p), Leg("in", opalg.SCALAR, q),
            Leg("out", opalg.SCALAR, p), Leg("out", opalg.SCALAR, q))
    amp = lsz_reduce(GreenFunction(legs), recipe(), RegularizationConfig())
    assert amp.elastic == wick_pairing_oracle(legs, masses(),
                                              RegularizationConfig())


def test_four_point_oracle_coincident_momenta():
    p = (1.0, 0.0, 0.0)
    legs = (Leg("in", opalg.SCALAR, p), Leg("in", opalg.SCALAR, p),
            Leg("out", opalg.SCALAR, p), Leg("out", opalg.SCALAR, p))
    amp = lsz_reduce(GreenFunction(legs), recipe(), RegularizationConfig())
    assert amp.elastic == wick_pairing_oracle(legs, masses(),
                                              RegularizationConfig())


def test_gauge_elastic_matches_oracle():
    p = (1.0, 2.0, 2.0)
    legs = (Leg("in", opalg.GAUGE, p, pol=1, ipol=2),
            Leg("out", opalg.GAUGE, p, pol=1, ipol=2))
    amp = lsz_reduce(GreenFunction(legs), recipe(), RegularizationConfig())
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
    amp = lsz_reduce(GreenFunction(legs), recipe(), RegularizationConfig())
    oracle = wick_pairing_oracle(legs, masses(), RegularizationConfig())
    assert amp.elastic == oracle
    assert oracle.is_zero() == vanishes


@pytest.mark.parametrize("name", ["4-leg coincident", "6-leg with a scalar"])
def test_pairing_oracle_carries_volume_ratio(name):
    spec, _ = FERMIONIC_ELASTIC[name]
    legs = tuple(Leg(d, f, p, spin=s) for d, f, p, s in spec)
    reg = RegularizationConfig(2.0, 1.0)
    amp = lsz_reduce(GreenFunction(legs), recipe(), reg)
    assert amp.elastic == wick_pairing_oracle(legs, masses(), reg)
    assert amp.elastic != wick_pairing_oracle(legs, masses(),
                                              RegularizationConfig())


def test_zero_vertex_factors_give_zero_connected():
    p, q = (1.0, 2.0, 2.0), (0.5, 0.0, -1.0)
    legs = (Leg("in", opalg.SCALAR, p), Leg("in", opalg.SCALAR, q),
            Leg("out", opalg.SCALAR, p), Leg("out", opalg.SCALAR, q))
    g = GreenFunction(legs, (VertexRule(0.0), VertexRule(0.0)))
    assert lsz_reduce(g, recipe(), RegularizationConfig()).connected == 0


def test_nonzero_vertex_scales_with_z():
    p = (1.0, 0.0, 0.0)
    legs = (Leg("in", opalg.SCALAR, p), Leg("out", opalg.SCALAR, p))
    g = GreenFunction(legs, (VertexRule(2.0),))
    full = lsz_reduce(g, LSZRecipe(1.0, 1.0, 1.0, masses()),
                      RegularizationConfig())
    damped = lsz_reduce(g, LSZRecipe(0.25, 1.0, 1.0, masses()),
                        RegularizationConfig())
    # each scalar leg contributes 1/sqrt(z): two legs at z=1/4 give factor 4
    assert abs(damped.connected) == pytest.approx(4 * abs(full.connected))


# -- toy unitarity ------------------------------------------------------------


def test_unitarity_identity():
    t = ToySMatrix(np.eye(4, dtype=complex), np.diag([1.0, 1.0, 0.0, 0.0]))
    rep = toy_unitarity_check(t)
    assert rep.passed and not rep.precondition_failures


def test_unitarity_random_instances():
    from innerqft.suites import random_toy_instance
    rng = np.random.default_rng(5)
    for dim in (4, 16):
        for _ in range(25):
            t = random_toy_instance(rng, dim)
            rep = toy_unitarity_check(t, 1e-12)
            assert rep.passed, rep.precondition_failures


def test_unitarity_preconditions_reported():
    # unitary S that does not commute with P: no conclusion is drawn
    had = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    rep = toy_unitarity_check(ToySMatrix(had, np.diag([1.0, 0.0])))
    assert not rep.passed
    assert rep.precondition_failures
    assert rep.conclusion_norm is None


def test_unitarity_nonunitary_s():
    s = np.diag([2.0 + 0j, 1.0])
    rep = toy_unitarity_check(ToySMatrix(s, np.eye(2)))
    assert not rep.passed
    assert any("S" in f for f in rep.precondition_failures)


def test_unitarity_bad_projector():
    p = np.diag([0.5, 0.0])
    rep = toy_unitarity_check(ToySMatrix(np.eye(2, dtype=complex), p))
    assert not rep.passed


def test_vacuum_and_one_particle_invariance():
    t = ToySMatrix(np.eye(4, dtype=complex), np.eye(4), vacuum_index=0,
                   one_particle_indices=(1, 2))
    assert vacuum_and_one_particle_checks(t).passed


def test_vacuum_phase_flagged():
    s = np.diag([np.exp(0.2j), 1.0, 1.0, 1.0])
    t = ToySMatrix(s, np.eye(4), vacuum_index=0, one_particle_indices=(1,))
    assert not vacuum_and_one_particle_checks(t).passed


def test_one_particle_mixing_flagged():
    s = np.eye(4, dtype=complex)
    s[1, 1] = s[3, 3] = 0
    s[1, 3] = s[3, 1] = 1
    t = ToySMatrix(s, np.eye(4), vacuum_index=0, one_particle_indices=(1,))
    assert not vacuum_and_one_particle_checks(t).passed
