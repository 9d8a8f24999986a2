"""End-to-end acceptance checks. Each test prints one PASS/FAIL line."""

import itertools
import json
import random
from fractions import Fraction

import numpy as np
import pytest

from innerqft import fock, gravlimit, kinematics, opalg, smatrix
from innerqft.cli import main as cli_main
from innerqft.fock import FieldMasses, FockState
from innerqft.grammar import parse_expression
from innerqft.gravlimit import RegularizationConfig, barred, grav_limit_expr
from innerqft.kinematics import ETA, MassShellMomentum
from innerqft.opalg import (Delta3, ERatioPow, Metric, OmegaPow,
                            OperatorExpr, SpinDelta, anticommutator,
                            commutator, make_monomial)
from innerqft.suites import EXACT_CASES, random_toy_instances

import conftest

TOL = 1e-12


def report(n, name, ok):
    ok = bool(ok)
    conftest.ACCEPTANCE_RESULTS.append((n, name, ok))
    print(f"ACCEPTANCE {n} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {n} ({name})"


def test_01_generator_algebra_table():
    """Every ordered generator pair reduces to its exact contact relation."""
    gens = {
        "a": opalg.a("k", "K"), "a'": opalg.a("h", "H", dagger=True),
        "b": parse_expression("b(k,s=s;K)"), "b'": parse_expression("b'(h,s=t;H)"),
        "d": parse_expression("d(k,s=s;K)"), "d'": parse_expression("d'(h,s=t;H)"),
        "A": parse_expression("A(k,g=g;K,G=G)"),
        "A'": parse_expression("A'(h,g=g2;H,G=G2)"),
    }
    fermionic = {"b", "b'", "d", "d'"}
    texts = {row[0]: row[3] for rows in EXACT_CASES.values() for row in rows}
    expected_nonzero = {
        ("a", "a'"): parse_expression(texts["ccr.a_adag_contact"]),
        ("b", "b'"): parse_expression(texts["car.b_bdag_contact"]),
        ("d", "d'"): parse_expression(texts["car.d_ddag_contact"]),
        ("A", "A'"): parse_expression(texts["gauge.a_adag_contact"]),
    }
    ok = True
    for (nx, x), (ny, y) in itertools.product(gens.items(), repeat=2):
        fermi = nx in fermionic and ny in fermionic
        bracket = anticommutator(x, y) if fermi else commutator(x, y)
        base_x, base_y = nx.rstrip("'"), ny.rstrip("'")
        if (nx, ny) in expected_nonzero:
            ok &= bracket == expected_nonzero[(nx, ny)]
        elif (ny, nx) in expected_nonzero:
            ok &= bracket == (expected_nonzero[(ny, nx)]
                              if fermi else -expected_nonzero[(ny, nx)])
        elif base_x == base_y and nx != ny and not fermi:
            pass  # handled above: same species, mixed dagger
        else:
            ok &= bracket.is_zero()
    report(1, "generator bracket table", ok)


def test_02_norm_sign_table():
    """One-quantum norm sign is +1 exactly for spatial mode pairs."""
    ok = True
    for g in range(4):
        for G in range(1, 4):
            ket = FockState.ket(opalg.LadderOperator(
                opalg.GAUGE, True, (1, 0, 0), (2, 0, 0, 0), pol=g, ipol=G))
            sign = fock.norm_sign(ket)
            ok &= sign == (1 if 1 <= g <= 3 else -1)
            filtered = fock.physical_filter(ket)
            ok &= filtered.is_zero() == (g == 0)
    for fld, kw in ((opalg.SCALAR, {}), (opalg.DIRAC_PARTICLE, {"spin": 1}),
                    (opalg.DIRAC_ANTIPARTICLE, {"spin": 2})):
        ket = FockState.ket(opalg.LadderOperator(fld, True, (1, 0, 0),
                                                 (2, 0, 0, 0), **kw))
        ok &= fock.norm_sign(ket) == 1
    report(2, "indefinite-metric sign table", ok)


def test_03_eigenvalue_additivity():
    """Momentum eigenvalues add over quanta for 100 random kets."""
    rng = random.Random(11)
    ok = True
    checked = 0
    while checked < 100:
        ops = []
        for _ in range(rng.randint(2, 5)):
            field = rng.choice([opalg.SCALAR, opalg.DIRAC_PARTICLE,
                                opalg.DIRAC_ANTIPARTICLE, opalg.GAUGE])
            kw = {}
            if field in (opalg.DIRAC_PARTICLE, opalg.DIRAC_ANTIPARTICLE):
                kw["spin"] = rng.choice([1, 2])
            if field == opalg.GAUGE:
                kw["pol"] = rng.randint(0, 3)
                kw["ipol"] = rng.randint(1, 3)
            mom = tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                        for _ in range(3))
            spatial = [Fraction(rng.randint(-2, 2)) for _ in range(3)]
            inner = (sum(abs(c) for c in spatial) + rng.randint(1, 2), *spatial)
            ops.append(opalg.LadderOperator(field, True, mom, inner, **kw))
        ket = FockState.ket(*ops)
        if ket.is_zero():
            continue
        checked += 1
        for which in ("p", "P"):
            ((_, total),) = fock.momentum_action(which, ket)
            parts = [fock.momentum_action(which, FockState.ket(op))[0][1]
                     for op in ops]
            ok &= abs(total[0] - sum(p[0] for p in parts)) <= TOL
            ok &= total[1:] == tuple(sum(p[i] for p in parts)
                                     for i in range(1, 4))
    report(3, "eigenvalue additivity over 100 random kets", ok)


def test_04_polarization_and_spinor_identities():
    """Completeness/orthogonality at 1e-12 over 100 random momenta."""
    rng = random.Random(13)
    ok = kinematics.gamma_anticommutator_residual() == 0.0
    for _ in range(100):
        mu = rng.uniform(0.5, 2.0)
        k = MassShellMomentum.of([rng.uniform(-2, 2) for _ in range(3)], mu)
        eps = kinematics.build_spacetime_polarizations(k)
        ok &= kinematics.completeness_residual(
            eps[1:], k.four_vector(), mu**2) <= TOL
        for g in range(4):
            for g2 in range(4):
                ok &= abs(kinematics.minkowski_dot(eps[g], eps[g2])
                          - ETA[g, g2]) <= TOL
        spatial = [rng.uniform(-2, 2) for _ in range(3)]
        t = sum(abs(c) for c in spatial) + rng.uniform(0.5, 2)
        K = np.array([t, *spatial])
        ibasis = kinematics.build_inner_polarizations(K)
        ok &= kinematics.completeness_residual(
            ibasis, K, kinematics.minkowski_dot(K, K)) <= TOL
        for E in ibasis:
            ok &= abs(kinematics.minkowski_dot(K, E)) <= TOL
        m = rng.uniform(0.5, 2.0)
        km = MassShellMomentum.of([rng.uniform(-2, 2) for _ in range(3)], m)
        k4 = km.four_vector()
        for s in (1, 2):
            u = kinematics.dirac_spinor(km, s, "u")
            ok &= float(np.max(np.abs((kinematics.slash(k4) - m * np.eye(4))
                                      @ u))) <= TOL * 10
            ok &= abs(kinematics.bar(u) @ u - 1) <= TOL
        ok &= float(np.max(np.abs(
            kinematics.spin_sum(km, "u")
            - (kinematics.slash(k4) + m * np.eye(4)) / (2 * m)))) <= TOL
    report(4, "polarization and spinor identities", ok)


def test_05_propagator_wick_match():
    """Each propagator numerator/measure matches its Wick contraction."""
    ok = True
    for kind in ("scalar", "dirac", "gauge"):
        residue, expected, numerator = smatrix.wick_two_point(kind)
        ok &= residue == expected and numerator <= TOL
    ok &= smatrix.wick_two_point("scalar")[0] == OperatorExpr.number(1)
    report(5, "propagator vs Wick contraction", ok)


def test_06_on_shell_reduction():
    """Barred brackets reduce to the printed limits; projection idempotent."""
    e_s = commutator(barred(opalg.a("k", "K")),
                     barred(opalg.a("h", "H", dagger=True)))
    e_d = anticommutator(barred(parse_expression("b(k,s=s;K)")),
                         barred(parse_expression("b'(h,s=t;H)")))
    e_g = commutator(barred(parse_expression("A(k,g=g;K,G=G)")),
                     barred(parse_expression("A'(h,g=g2;H,G=G2)")))
    want_s = OperatorExpr.from_monomials([make_monomial(
        2, twopi=3, atoms=(OmegaPow("k"), Delta3("k", "h")))])
    want_d = OperatorExpr.from_monomials([make_monomial(
        1, twopi=3, atoms=(ERatioPow("k"), SpinDelta("s", "t"),
                           Delta3("k", "h")))])
    want_g = OperatorExpr.from_monomials([make_monomial(
        2, lam=2, twopi=3, atoms=(OmegaPow("k"), Metric(True, "g", "g2"),
                                  Metric(False, "G", "G2"), Delta3("k", "h")))])
    ok = True
    for lam in (1.0, 2.0, 5.0):
        cfg = RegularizationConfig(lam, lam ** 4)
        ok &= grav_limit_expr(e_s, cfg) == want_s      # scale-independent
        ok &= grav_limit_expr(e_d, cfg) == want_d      # scale-independent
        ok &= grav_limit_expr(e_g, cfg) == want_g      # explicit L^2 factor
    op = opalg.LadderOperator(opalg.SCALAR, True, (2, 2, 0), (9, 0, 0, 0))
    once = gravlimit.project_state(FockState.ket(op))
    ok &= gravlimit.project_state(once).expr == once.expr
    ok &= once.expr.terms[0].ops[0].inner == opalg.OnShell((2, 2, 0))
    ok &= fock.momentum_action("P", once)[0][1] == (3.0, 2, 2, 0)
    report(6, "on-shell reduction limit", ok)


def test_07_lsz_free_theory():
    """Free-theory amplitudes: elastic matches the pairing oracle."""
    reg = RegularizationConfig()
    masses = FieldMasses()
    recipe = smatrix.LSZRecipe(1.0, 1.0, 1.0)
    p, q = (1.0, 2.0, 2.0), (0.5, 0.0, -1.0)
    legs2 = (smatrix.Leg("in", opalg.SCALAR, p),
             smatrix.Leg("out", opalg.SCALAR, p))
    amp2 = smatrix.lsz_reduce(legs2, (), recipe, reg)
    ok = amp2.invariance == Fraction(1) and amp2.connected == 0
    legs4 = (smatrix.Leg("in", opalg.SCALAR, p), smatrix.Leg("in", opalg.SCALAR, q),
             smatrix.Leg("out", opalg.SCALAR, p), smatrix.Leg("out", opalg.SCALAR, q))
    amp4 = smatrix.lsz_reduce(legs4, (), recipe, reg)
    ok &= amp4.elastic == smatrix.wick_pairing_oracle(legs4, masses, reg)
    ok &= amp4.connected == 0
    ok &= smatrix.lsz_reduce(legs4, ((0.0, 0),), recipe, reg).connected == 0
    report(7, "free-theory amplitude reduction", ok)


def test_08_projected_unitarity():
    """300 random block instances satisfy projected unitarity at 1e-12."""
    rng = random.Random(17)
    ok = True
    for dim in (4, 16, 64):
        for _ in range(100):
            failures, concl = smatrix.toy_unitarity_check(
                *random_toy_instances(rng, dim, 1), TOL)
            ok &= not failures and concl <= TOL
    ident = np.eye(4, dtype=complex)
    ok &= not smatrix.vacuum_and_one_particle_checks(ident, (1, 2), TOL)
    phase = np.diag([np.exp(0.3j), 1.0, 1.0, 1.0])
    ok &= bool(smatrix.vacuum_and_one_particle_checks(phase, (1,), TOL))
    had = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    failures, concl = smatrix.toy_unitarity_check(had, np.diag([1.0, 0.0]),
                                                  TOL)
    ok &= bool(failures) and concl is None
    report(8, "projected unitarity of toy instances", ok)


def test_09_deterministic_reports(capsys):
    """Same seed and config produce byte-identical verification reports."""
    cli_main(["verify", "--suite", "all", "--format", "json", "--seed", "21"])
    first = capsys.readouterr().out
    cli_main(["verify", "--suite", "all", "--format", "json", "--seed", "21"])
    second = capsys.readouterr().out
    ok = bool(first) and first == second
    json.loads(first)  # stays machine-readable
    report(9, "deterministic reports", ok)
