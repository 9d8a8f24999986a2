"""Named verification suites driving the per-module identities.

Every suite returns a deterministic, name-sorted list of cases. Symbolic
cases are exact and ignore the numeric tolerance; numeric cases compare
against cfg.tolerance.
"""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np

from . import fock, gravlimit, kinematics, numeric, opalg, smatrix
from .config import RunConfig
from .fock import FieldMasses, FockState
from .grammar import parse_expression
from .gravlimit import RegularizationConfig, grav_limit_expr
from .kinematics import FourVector, MassShellMomentum
from .opalg import (OperatorExpr, anticommutator, commutator, reduce_to_normal_form,
                    vev)
from .record import Record


class Case(Record):
    name: str
    passed: bool
    detail: str = ""
    lhs: str = ""
    rhs: str = ""
    tolerance: float | None = None

    @property
    def status(self) -> str:
        return "pass" if self.passed else "fail"


def _exact(name: str, got: OperatorExpr, want: OperatorExpr) -> Case:
    ok = got == want
    return Case(name, ok, "exact term equality" if ok else _term_diff(got, want),
                str(got), str(want), None)


def _term_diff(got: OperatorExpr, want: OperatorExpr) -> str:
    """The monomials `got` lacks, those it has in excess, and those whose
    coefficient differs (with the wanted one), matched by structure."""
    have = {m.structure_key(): m for m in got.terms}
    need = {m.structure_key(): m for m in want.terms}
    sections = (
        ("missing", [str(m) for k, m in need.items() if k not in have]),
        ("extra", [str(m) for k, m in have.items() if k not in need]),
        ("wrong coefficient", [f"{have[k]} (want {m.scalar})"
                               for k, m in need.items()
                               if k in have and have[k].scalar != m.scalar]))
    return "; ".join(f"{label}: {', '.join(items)}"
                     for label, items in sections if items)


def _numeric(name: str, value: float, tol: float, detail: str = "") -> Case:
    return Case(name, value <= tol, detail or "max residual",
                f"{value:.3e}", f"<= {tol:.3e}", tol)


# ---------------------------------------------------------------------------
# Exact cases written in the grammar: (name, operation, operand texts,
# expected text). An operation takes the parsed operands; the report's rhs
# is the expected text, which prints back to itself.


def _inner(bra: OperatorExpr, ket: OperatorExpr) -> OperatorExpr:
    """<bra|ket> of the two operators applied to the vacuum."""
    vac = FockState.vacuum()
    return fock.inner_product(fock.apply(bra, vac), fock.apply(ket, vac))


_OPERATIONS = {
    "commutator": commutator,
    "anticommutator": anticommutator,
    "vev": vev,
    "reduce": reduce_to_normal_form,
    "apply": lambda e: fock.apply(e, FockState.vacuum()).expr,
    "inner": _inner,
}

_SCALAR = "2*L^-4*(2pi)^7*w(k)*d3(h-k)*d4(H-K)"
_DIRAC = "1*L^-4*(2pi)^7*E/m(k)*kd(s,t)*d3(h-k)*d4(H-K)"
_GAUGE = "2*L^-2*(2pi)^7*w(k)*eta[g,g2]*ETA[G,G2]*d3(h-k)*d4(H-K)"

EXACT_CASES = {
    "ccr": (
        ("ccr.aa_vanishes", "commutator", ("a(k;K)", "a(h;H)"), "0"),
        ("ccr.adad_vanishes", "commutator", ("a'(k;K)", "a'(h;H)"), "0"),
        ("ccr.a_adag_contact", "commutator", ("a(k;K)", "a'(h;H)"), _SCALAR),
        ("ccr.vev_normalization", "vev", ("a(k;K)*a'(h;H)",), _SCALAR),
        ("ccr.vev_normal_ordered", "vev", ("a'(h;H)*a(k;K)",), "0"),
        ("ccr.cross_species_scalar_dirac", "commutator", ("a(k;K)", "b'(h,s=t;H)"), "0"),
    ),
    "car": (
        ("car.b_bdag_contact", "anticommutator", ("b(k,s=s;K)", "b'(h,s=t;H)"), _DIRAC),
        ("car.d_ddag_contact", "anticommutator", ("d(k,s=s;K)", "d'(h,s=t;H)"), _DIRAC),
        ("car.bb_vanishes", "anticommutator", ("b(k,s=s;K)", "b(h,s=t;H)"), "0"),
        ("car.bdbd_vanishes", "anticommutator", ("b'(k,s=s;K)", "b'(h,s=t;H)"), "0"),
        ("car.b_ddag_vanishes", "anticommutator", ("b(k,s=s;K)", "d'(h,s=t;H)"), "0"),
        ("car.pauli_identical_labels", "reduce", ("b(k,s=s;K)*b(k,s=s;K)",), "0"),
    ),
    "gauge": (
        ("gauge.a_adag_contact", "commutator", ("A(k,g=g;K,G=G)", "A'(h,g=g2;H,G=G2)"),
         _GAUGE),
        ("gauge.aa_vanishes", "commutator", ("A(k,g=g;K,G=G)", "A(h,g=g2;H,G=G2)"), "0"),
        ("gauge.vev_normalization", "vev", ("A(k,g=g;K,G=G)*A'(h,g=g2;H,G=G2)",), _GAUGE),
    ),
    "fock": (
        ("fock.vacuum_norm", "inner", ("1", "1"), "1"),
        ("fock.one_particle_norm", "inner", ("a'(h;H)", "a'(k;K)"),
         "2*L^-4*(2pi)^7*w(h)*d3(h-k)*d4(H-K)"),
        ("fock.annihilate_vacuum", "apply", ("a(k;K)",), "0"),
        ("fock.species_orthogonality", "inner", ("b'(h,s=t;H)", "a'(k;K)"), "0"),
    ),
    # one name per regularization of suite_gravlimit: the configured one,
    # then L = 2 with Vreg = 16, where Vreg/L^4 is 1; each row collapses one
    # d4, so its limit carries one factor of Vreg/L^4
    "gravlimit": (
        (("gravlimit.scalar_barred_ccr", "gravlimit.scalar_lambda_independent"),
         "commutator", ("a(k;~k)", "a'(h;~h)"), "2*(2pi)^3*w(k)*d3(h-k)"),
        (("gravlimit.dirac_barred_car", "gravlimit.dirac_lambda_independent"),
         "anticommutator", ("b(k,s=s;~k)", "b'(h,s=t;~h)"),
         "1*(2pi)^3*E/m(k)*kd(s,t)*d3(h-k)"),
        (("gravlimit.gauge_barred_ccr", "gravlimit.gauge_lambda_factor"),
         "commutator", ("A(k,g=g;~k,G=G)", "A'(h,g=g2;~h,G=G2)"),
         "2*L^2*(2pi)^3*w(k)*eta[g,g2]*ETA[G,G2]*d3(h-k)"),
    ),
}


def _table(rows, finish=lambda e: e, scale=1) -> list[Case]:
    """One exact case per row: `finish` of the operation on the operands,
    against the expected text times `scale`."""
    return [_exact(name, finish(_OPERATIONS[op](*map(parse_expression, operands))),
                   parse_expression(want).scale(scale))
            for name, op, operands, want in rows]


# ---------------------------------------------------------------------------
# Suites


def suite_ccr(cfg: RunConfig) -> list[Case]:
    prod = opalg.a("k", "K") * opalg.a("h", "H", dagger=True)
    cases = _table(EXACT_CASES["ccr"]) + [
        _exact("ccr.idempotent_reduction",
               reduce_to_normal_form(reduce_to_normal_form(prod)),
               reduce_to_normal_form(prod))]
    return sorted(cases, key=lambda c: c.name)


def suite_car(cfg: RunConfig) -> list[Case]:
    b = opalg.b("k", "s", "K")
    bd = opalg.b("h", "t", "H", dagger=True)
    cases = _table(EXACT_CASES["car"]) + [
        _exact("car.normal_order_sign", opalg.normal_order(b * bd),
               reduce_to_normal_form(bd * b).scale(-1))]
    return sorted(cases, key=lambda c: c.name)


def suite_gauge(cfg: RunConfig) -> list[Case]:
    cases = _table(EXACT_CASES["gauge"])
    # norm-sign table over all bound polarization pairs, plus matter quanta
    for g in range(4):
        for G in range(1, 4):
            op = opalg.LadderOperator(opalg.GAUGE, True, (1, 0, 0),
                                      (2, 0, 0, 0), pol=g, ipol=G)
            ket = FockState.ket(op)
            want = (1 if g == 0 else -1) * -1
            got = fock.norm_sign(ket)
            cases.append(Case(f"gauge.norm_sign_g{g}_G{G}", got == want,
                              "eta^gg eta^GG product", str(got), str(want)))
            filtered = fock.physical_filter(ket)
            ok = filtered.is_zero() if g == 0 else filtered.expr == ket.expr
            cases.append(Case(f"gauge.physical_filter_g{g}_G{G}", ok,
                              "gamma=0 quanta dropped, others kept"))
    for name, op in (("scalar", opalg.LadderOperator(opalg.SCALAR, True,
                                                     (1, 0, 0), (2, 0, 0, 0))),
                     ("dirac_b", opalg.LadderOperator(opalg.DIRAC_PARTICLE, True,
                                                      (1, 0, 0), (2, 0, 0, 0), spin=1)),
                     ("dirac_d", opalg.LadderOperator(opalg.DIRAC_ANTIPARTICLE, True,
                                                      (1, 0, 0), (2, 0, 0, 0), spin=2))):
        got = fock.norm_sign(FockState.ket(op))
        cases.append(Case(f"gauge.norm_sign_matter_{name}", got == 1,
                          "matter quanta contribute +1", str(got), "1"))
    return sorted(cases, key=lambda c: c.name)


def _random_timelike(rng: random.Random) -> FourVector:
    x = [rng.uniform(-3, 3) for _ in range(3)]
    extra = rng.uniform(0.1, 3)
    t = (sum(c * c for c in x)) ** 0.5 + extra
    return FourVector(t if rng.random() < 0.5 else -t, *x)


def suite_kinematics(cfg: RunConfig) -> list[Case]:
    rng = random.Random(cfg.seed)
    tol = cfg.tolerance
    cases = [
        _numeric("kinematics.gamma_clifford",
                 kinematics.gamma_anticommutator_residual(), 0.0,
                 "exact entrywise Clifford relation")]
    worst_c = worst_o = 0.0
    for _ in range(100):
        mu = rng.uniform(0.5, 2.0)
        k = MassShellMomentum.of([rng.uniform(-2, 2) for _ in range(3)], mu)
        basis = kinematics.build_spacetime_polarizations(k, mu)
        worst_c = max(worst_c,
                      kinematics.spacetime_completeness_residual(basis, k, mu))
        eps = basis.spacetime
        k4 = k.four_vector()
        worst_o = max(worst_o, max(abs(kinematics.minkowski_dot(k4, eps[g]))
                                   for g in range(1, 4)))
        for g in range(4):
            for g2 in range(4):
                want = kinematics.ETA[g, g2]
                worst_o = max(worst_o, abs(
                    kinematics.minkowski_dot(eps[g], eps[g2]) - want))
    cases.append(_numeric("kinematics.spacetime_completeness", worst_c, tol))
    cases.append(_numeric("kinematics.spacetime_orthonormality", worst_o, tol))
    worst_ic = worst_it = 0.0
    for _ in range(100):
        K = _random_timelike(rng)
        basis = kinematics.build_inner_polarizations(K)
        worst_ic = max(worst_ic,
                       kinematics.inner_completeness_residual(basis, K))
        worst_it = max(worst_it, max(abs(kinematics.minkowski_dot(K, E))
                                     for E in basis.inner))
    cases.append(_numeric("kinematics.inner_completeness", worst_ic, tol))
    cases.append(_numeric("kinematics.inner_transversality", worst_it, tol))
    worst_d = worst_n = worst_s = 0.0
    for _ in range(100):
        m = rng.uniform(0.1, 10)
        k = MassShellMomentum.of([rng.uniform(-5, 5) for _ in range(3)], m)
        k4 = k.four_vector()
        for s in (1, 2):
            u = kinematics.dirac_spinor(k, s, "u")
            v = kinematics.dirac_spinor(k, s, "v")
            ksl = kinematics.slash(k4)
            worst_d = max(worst_d,
                          float(np.max(np.abs((ksl - m * np.eye(4)) @ u.components))),
                          float(np.max(np.abs((ksl + m * np.eye(4)) @ v.components))))
            worst_n = max(worst_n,
                          abs(u.bar() @ u.components - 1),
                          abs(v.bar() @ v.components + 1),
                          abs(u.components.conj() @ u.components - k.energy / m))
        su = kinematics.spin_sum(k, "u")
        sv = kinematics.spin_sum(k, "v")
        worst_s = max(worst_s,
                      float(np.max(np.abs(su - (kinematics.slash(k4) + m * np.eye(4)) / (2 * m)))),
                      float(np.max(np.abs(sv - (kinematics.slash(k4) - m * np.eye(4)) / (2 * m)))))
    cases.append(_numeric("kinematics.dirac_equation_residual", worst_d, tol))
    cases.append(_numeric("kinematics.spinor_normalizations", worst_n, tol))
    cases.append(_numeric("kinematics.spin_sums", worst_s, tol))
    return sorted(cases, key=lambda c: c.name)


def _random_ket(rng: random.Random, max_quanta: int = 5):
    ops = []
    for _ in range(rng.randint(1, max_quanta)):
        kind = rng.choice([opalg.SCALAR, opalg.DIRAC_PARTICLE,
                           opalg.DIRAC_ANTIPARTICLE, opalg.GAUGE])
        mom = tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                    for _ in range(3))
        spatial = [Fraction(rng.randint(-3, 3), rng.randint(1, 4))
                   for _ in range(3)]
        t = sum(abs(c) for c in spatial) + rng.randint(1, 3)  # timelike by L1 bound
        inner = (t, *spatial)
        kwargs = {}
        if kind in (opalg.DIRAC_PARTICLE, opalg.DIRAC_ANTIPARTICLE):
            kwargs["spin"] = rng.choice([1, 2])
        if kind == opalg.GAUGE:
            kwargs["pol"] = rng.choice([0, 1, 2, 3])
            kwargs["ipol"] = rng.choice([1, 2, 3])
        ops.append(opalg.LadderOperator(kind, True, mom, inner, **kwargs))
    return ops


def suite_fock(cfg: RunConfig) -> list[Case]:
    rng = random.Random(cfg.seed)
    cases = _table(EXACT_CASES["fock"])
    # additivity of eigen-actions on random bound kets
    masses = FieldMasses(1.0, 1.0, 1.0)
    additive = True
    for _ in range(100):
        ops = _random_ket(rng)
        ket = FockState.ket(*ops)
        if ket.is_zero():
            continue
        singles = [FockState.ket(op) for op in ops]
        for which in ("p", "P"):
            ((_, total),) = fock.momentum_action(which, ket, masses)
            parts = [fock.momentum_action(which, one, masses)[0][1]
                     for one in singles]
            expect = tuple(sum(p[i] for p in parts) for i in range(4))
            # energies are floats and may be summed in a different order
            if abs(total[0] - expect[0]) > 1e-12 or total[1:] != expect[1:]:
                additive = False
    cases.append(Case("fock.eigenvalue_additivity", additive,
                      "100 random multi-quanta kets, exact arithmetic"))
    # conservation: the energy action commutes with both momentum actions
    # on eigenkets (all actions are diagonal, so the commutator is zero
    # exactly when both eigenvalue assignments agree on the same ket)
    ket = FockState.ket(*_random_ket(rng, 3))
    pa = fock.momentum_action("p", ket, masses)
    pb = fock.momentum_action("P", ket, masses)
    same_kets = ([m for m, _ in pa] == [m for m, _ in pb]
                 == list(ket.expr.terms))
    cases.append(Case("fock.diagonal_actions_commute", same_kets,
                      "H = p^0 action diagonal alongside p, P"))
    # support restriction
    try:
        FockState.ket(opalg.LadderOperator(opalg.SCALAR, True, (1, 0, 0),
                                           (0, 1, 0, 0)))
        support_ok = False
    except fock.SupportError:
        support_ok = True
    cases.append(Case("fock.spacelike_support_rejected", support_ok,
                      "spacelike inner momentum rejected"))
    # conjugate symmetry on bound states
    op1 = opalg.LadderOperator(opalg.SCALAR, True, (1, 2, 3), (4, 1, 0, 0))
    op2 = opalg.LadderOperator(opalg.SCALAR, True, (1, 2, 3), (4, 1, 0, 0))
    s1, s2 = FockState.ket(op1), FockState.ket(op2)
    lhs = opalg.delta_resolve(fock.inner_product(s1, s2))
    rhs = opalg.delta_resolve(fock.inner_product(s2, s1)).dagger()
    cases.append(_exact("fock.conjugate_symmetry", lhs, rhs))
    # every physical ket has positive norm sign
    all_positive = True
    for _ in range(50):
        ops = _random_ket(rng)
        ket = FockState.ket(*ops)
        if ket.is_zero():
            continue
        phys = fock.physical_filter(ket)
        if not phys.is_zero() and fock.norm_sign(phys) != 1:
            all_positive = False
    cases.append(Case("fock.physical_states_positive", all_positive,
                      "random kets with <= 5 gauge quanta"))
    return sorted(cases, key=lambda c: c.name)


def suite_gravlimit(cfg: RunConfig) -> list[Case]:
    cases = []
    for i, reg in enumerate((cfg.reg(), RegularizationConfig(2.0, 16.0))):
        cases += _table([(names[i], *row) for names, *row in EXACT_CASES["gravlimit"]],
                        lambda e: grav_limit_expr(e, reg), reg.ratio)
    op = opalg.LadderOperator(opalg.SCALAR, True, (2, 2, 0), (9, 0, 0, 0))
    state = FockState.ket(op)
    once = gravlimit.project_state(state)
    twice = gravlimit.project_state(once)
    cases.append(_exact("gravlimit.projection_idempotent", twice.expr, once.expr))
    cases.append(_exact("gravlimit.vacuum_projects_to_vacuum",
                        gravlimit.project_state(FockState.vacuum()).expr,
                        FockState.vacuum().expr))
    # the symbolic label ~k, and its P eigenvalue evaluated at unit mass
    ((m, P),) = fock.momentum_action("P", once)
    inner = m.ops[0].inner
    cases.append(Case("gravlimit.projection_on_shell",
                      inner == opalg.OnShell((2, 2, 0)) and P == (3.0, 2, 2, 0),
                      "inner label collapses to (omega_k, k) at unit mass",
                      f"{opalg.label_str(inner)} P={P}",
                      "~[2,2,0] P=(3.0, 2, 2, 0)"))
    return sorted(cases, key=lambda c: c.name)


def suite_propagators(cfg: RunConfig) -> list[Case]:
    tol = cfg.tolerance
    cases = []
    for kind in ("scalar", "dirac", "gauge"):
        check = numeric.wick_two_point(kind, tol=tol)
        cases.append(Case(f"propagators.wick_{kind}", check.passed,
                          check.mismatch() or "structure and numerators match",
                          str(check.residue), str(check.residue_expected),
                          tol))
    spec = numeric.PropagatorSpec("scalar", 1.0, cfg.i_epsilon)
    k = FourVector(2.0, 0.0, 0.0, 0.0)
    val = numeric.propagator_eval(spec, k)
    cases.append(_numeric("propagators.scalar_kernel_value",
                          abs(val - 1 / (3 + 1j * cfg.i_epsilon)), 1e-15,
                          "1/(k^2 - m^2 + ie) at k=(2,0,0,0), m=1"))
    rng = random.Random(cfg.seed)
    worst = 0.0
    for _ in range(100):
        K = _random_timelike(rng)
        proj = numeric.inner_transversal_projector(K)
        worst = max(worst, float(np.max(np.abs(K.as_array() @ proj))))
    cases.append(_numeric("propagators.gauge_inner_transversality", worst, tol))
    worst = 0.0
    for _ in range(20):
        m = rng.uniform(0.2, 5)
        kk = MassShellMomentum.of([rng.uniform(-3, 3) for _ in range(3)], m)
        num = kinematics.slash(kk.four_vector()) + m * np.eye(4)
        worst = max(worst, float(np.max(np.abs(
            num - 2 * m * kinematics.spin_sum(kk, "u")))))
    cases.append(_numeric("propagators.dirac_numerator_spin_sum", worst, tol))
    return sorted(cases, key=lambda c: c.name)


def suite_lsz(cfg: RunConfig) -> list[Case]:
    reg = cfg.reg()
    masses = FieldMasses()
    recipe = cfg.recipe()
    p = (1.0, 2.0, 2.0)
    legs2 = (smatrix.Leg("in", opalg.SCALAR, p), smatrix.Leg("out", opalg.SCALAR, p))
    amp2 = smatrix.lsz_reduce(smatrix.GreenFunction(legs2), recipe, reg)
    cases = [
        Case("lsz.free_two_point_invariance", amp2.invariance == Fraction(1),
             "one-particle invariance of the free 2-point", str(amp2.invariance), "1"),
        Case("lsz.free_two_point_connected_zero", amp2.connected == 0,
             "no vertices, no connected part", str(amp2.connected), "0"),
    ]
    q = (0.5, 0.0, -1.0)
    legs4 = (smatrix.Leg("in", opalg.SCALAR, p), smatrix.Leg("in", opalg.SCALAR, q),
             smatrix.Leg("out", opalg.SCALAR, p), smatrix.Leg("out", opalg.SCALAR, q))
    amp4 = smatrix.lsz_reduce(smatrix.GreenFunction(legs4), recipe, reg)
    oracle = smatrix.wick_pairing_oracle(legs4, masses, reg)
    cases.append(_exact("lsz.free_four_point_elastic_matches_oracle",
                        amp4.elastic, oracle))
    cases.append(Case("lsz.free_four_point_connected_zero", amp4.connected == 0,
                      "", str(amp4.connected), "0"))
    gzero = smatrix.GreenFunction(legs4, (smatrix.VertexRule(0.0),
                                          smatrix.VertexRule(0.0)))
    ampz = smatrix.lsz_reduce(gzero, recipe, reg)
    cases.append(Case("lsz.zero_vertices_zero_connected", ampz.connected == 0,
                      "", str(ampz.connected), "0"))
    big = RegularizationConfig(5.0, 625.0)
    amp_big = smatrix.lsz_reduce(smatrix.GreenFunction(legs2), recipe, big)
    cases.append(Case("lsz.two_point_lambda_independent",
                      amp_big.invariance == Fraction(1),
                      "Vreg/L^4 = 1 at L = 5", str(amp_big.invariance), "1"))
    return sorted(cases, key=lambda c: c.name)


def random_toy_instance(rng: np.random.Generator, dim: int) -> numeric.ToySMatrix:
    """Block-diagonal unitary commuting with a diagonal projector."""
    phys = int(rng.integers(1, dim))
    diag = np.zeros(dim)
    diag[:phys] = 1.0
    p = np.diag(diag)

    def haar(n: int) -> np.ndarray:
        z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        q, r = np.linalg.qr(z)
        return q * (np.diagonal(r) / np.abs(np.diagonal(r)))

    s = np.zeros((dim, dim), dtype=complex)
    s[:phys, :phys] = haar(phys)
    if dim - phys:
        s[phys:, phys:] = haar(dim - phys)
    return numeric.ToySMatrix(s, p)


def suite_unitarity(cfg: RunConfig) -> list[Case]:
    rng = np.random.default_rng(cfg.seed)
    tol = cfg.tolerance
    cases = []
    for dim in (4, 16, 64):
        worst = 0.0
        ok = True
        for _ in range(100):
            t = random_toy_instance(rng, dim)
            rep = numeric.toy_unitarity_check(t, tol)
            if not rep.passed:
                ok = False
            if rep.conclusion_norm is not None:
                worst = max(worst, rep.conclusion_norm)
        cases.append(Case(f"unitarity.projected_dim{dim:02d}", ok,
                          "100 random admissible instances",
                          f"{worst:.3e}", f"<= {tol:.3e}", tol))
    ident = numeric.ToySMatrix(np.eye(4, dtype=complex),
                               np.diag([1.0, 1.0, 0.0, 0.0]),
                               vacuum_index=0, one_particle_indices=(1,))
    cases.append(Case("unitarity.identity_smatrix",
                      numeric.toy_unitarity_check(ident, tol).passed, ""))
    cases.append(Case("unitarity.vacuum_one_particle_identity",
                      numeric.vacuum_and_one_particle_checks(ident, tol).passed,
                      ""))
    # S unitary but SP != PS: precondition reported, conclusion not claimed
    had = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    bad = numeric.ToySMatrix(had, np.diag([1.0, 0.0]))
    rep = numeric.toy_unitarity_check(bad, tol)
    cases.append(Case("unitarity.noncommuting_precondition_reported",
                      bool(rep.precondition_failures)
                      and rep.conclusion_norm is None,
                      "; ".join(rep.precondition_failures)))
    phase = numeric.ToySMatrix(np.diag([np.exp(0.3j), 1.0, 1.0, 1.0]),
                               np.eye(4), vacuum_index=0,
                               one_particle_indices=(1, 2))
    cases.append(Case("unitarity.vacuum_phase_reported",
                      not numeric.vacuum_and_one_particle_checks(phase, tol).passed,
                      "nontrivial vacuum phase flagged"))
    mixing = np.eye(4, dtype=complex)
    mixing[1, 1] = mixing[3, 3] = 0
    mixing[1, 3] = mixing[3, 1] = 1
    mix = numeric.ToySMatrix(mixing, np.eye(4), vacuum_index=0,
                             one_particle_indices=(1,))
    cases.append(Case("unitarity.sector_mixing_reported",
                      not numeric.vacuum_and_one_particle_checks(mix, tol).passed,
                      "one-particle/two-particle mixing flagged"))
    return sorted(cases, key=lambda c: c.name)


SUITES = {
    "ccr": suite_ccr,
    "car": suite_car,
    "gauge": suite_gauge,
    "kinematics": suite_kinematics,
    "fock": suite_fock,
    "gravlimit": suite_gravlimit,
    "propagators": suite_propagators,
    "lsz": suite_lsz,
    "unitarity": suite_unitarity,
}


def run_suite(name: str, cfg: RunConfig) -> list[Case]:
    if name == "all":
        cases = []
        for key in sorted(SUITES):
            cases.extend(SUITES[key](cfg))
        return cases
    if name not in SUITES:
        raise KeyError(name)
    return SUITES[name](cfg)
