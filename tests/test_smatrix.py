import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from innerqft import cli, opalg, smatrix
from innerqft.fock import FieldMasses
from innerqft.grammar import parse_expression
from innerqft.gravlimit import RegularizationConfig
from innerqft.kinematics import ETA, FourVector
from innerqft.smatrix import (GreenFunction, Leg, LSZRecipe, PropagatorSpec,
                              ToySMatrix, VertexRule, elastic_overlap,
                              lsz_reduce,
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
    amp = lsz_reduce(GreenFunction(legs), recipe(), reg)
    assert not norm.is_zero()
    assert amp.invariance == Fraction(amp.elastic == norm)


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
    # the tolerance is relative to E^2: the nearest float to 10^200 is on
    # shell at |p| = 10^200, twice it is not
    smatrix._check_on_shell(Leg("in", opalg.SCALAR, (Fraction(10**200), 0, 0),
                                energy=1e200), masses, shell)
    for mom, energy in [((0, 0, 0), 1e300), ((10**200, 0, 0), 1.0),
                        ((Fraction(10**200), 0, 0), 2e200)]:
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


# -- the Frobenius screen of the unitarity preconditions ----------------------


def _svd_unitarity_report(t, tol):
    """The unitarity check with every norm taken by SVD: the reference for
    the Frobenius screen."""
    s, p = t.s, t.p
    failures = []
    for name, residual in (("S not unitary", s.conj().T @ s - np.eye(t.dim)),
                           ("P not idempotent", p @ p - p),
                           ("P not self-adjoint", p.conj().T - p),
                           ("SP != PS", s @ p - p @ s)):
        norm = np.linalg.norm(residual, 2)
        if norm > tol:
            failures.append(f"{name} (norm {norm:.3e})")
    if failures:
        return smatrix.UnitarityReport(tuple(failures), None, tol)
    concl = float(np.linalg.norm(p @ s.conj().T @ s @ p - p, 2))
    return smatrix.UnitarityReport((), concl, tol)


def _broken_copies(t, size):
    """Copies of an admissible instance in which each precondition in turn
    fails by a residual of about `size`."""
    n = t.dim
    phys = int(round(np.trace(t.p).real))
    yield ToySMatrix(t.s * (1 + size / 2), t.p)              # S not unitary
    yield ToySMatrix(t.s, t.p * (1 + size))                  # P not idempotent
    skew = np.zeros((n, n))
    if phys < n:
        skew[0, n - 1] = size                                # P not self-adjoint
    yield ToySMatrix(t.s, t.p + skew)
    c, s = np.cos(size), np.sin(size)                        # SP != PS
    mix = np.eye(n, dtype=complex)
    mix[[0, 0, n - 1, n - 1], [0, n - 1, 0, n - 1]] = c, -s, s, c
    yield ToySMatrix(t.s @ mix, t.p)


def test_frobenius_screen_matches_svd_reports():
    from innerqft.suites import random_toy_instance
    rng = np.random.default_rng(11)
    tol = 1e-9
    seen = set()
    for dim in (2, 4, 16):
        for _ in range(10):
            t = random_toy_instance(rng, dim)
            assert toy_unitarity_check(t, tol) == _svd_unitarity_report(t, tol)
            for size in tol * np.array([0.1, 0.45, 0.55, 0.9, 1.1, 3.0, 1e6]):
                for broken in _broken_copies(t, size):
                    rep = toy_unitarity_check(broken, tol)
                    assert rep == _svd_unitarity_report(broken, tol)
                    seen.update(f.split(" (")[0]
                                for f in rep.precondition_failures)
    assert seen == {"S not unitary", "P not idempotent", "P not self-adjoint",
                    "SP != PS"}


def _scaled_identity(n, two_norm):
    """S = c*I with ||S^dag S - I||_2 = two_norm and a Frobenius norm
    sqrt(n) times larger."""
    c = np.sqrt(1 + two_norm)
    return ToySMatrix(c * np.eye(n, dtype=complex), np.diag([1.0, 0.0] * (n // 2)))


def test_precondition_between_half_tol_and_tol_passes():
    tol = 1e-9
    t = _scaled_identity(16, 0.8 * tol)
    residual = t.s.conj().T @ t.s - np.eye(16)
    assert tol / 2 < np.linalg.norm(residual, 2) <= tol
    assert np.linalg.norm(residual) > tol      # only the 2-norm passes it
    rep = toy_unitarity_check(t, tol)
    assert rep.passed
    assert rep.conclusion_norm == pytest.approx(0.8 * tol, rel=1e-4)


def test_precondition_just_above_tol_fails_with_its_norm():
    tol = 1e-9
    t = _scaled_identity(16, 1.05 * tol)
    norm = np.linalg.norm(t.s.conj().T @ t.s - np.eye(16), 2)
    assert norm > tol
    rep = toy_unitarity_check(t, tol)
    assert rep.precondition_failures == (f"S not unitary (norm {norm:.3e})",)
    assert rep.precondition_failures == ("S not unitary (norm 1.050e-09)",)
    assert rep.conclusion_norm is None and not rep.passed
