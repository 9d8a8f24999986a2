"""Named verification suites driving the per-module identities.

Every suite returns a deterministic list of cases; `run_suite` sorts each
suite's cases by name. Symbolic cases are exact and ignore the numeric
tolerance; numeric cases compare against cfg.tolerance. Only the numeric
suites import numpy, `kinematics` and `numeric`, so the exact ones run
without them.
"""

from __future__ import annotations

import random
from fractions import Fraction

from . import fock, gravlimit, opalg, smatrix
from .config import RunConfig
from .fock import FieldMasses, FockState
from .grammar import parse_expression
from .gravlimit import RegularizationConfig, grav_limit_expr
from .opalg import (OperatorExpr, anticommutator, commutator, normal_order,
                    reduce_to_normal_form, vev)
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
    "normal_order": normal_order,
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
        ("ccr.idempotent_reduction", "reduce", (f"{_SCALAR} + a'(h;H)*a(k;K)",),
         f"{_SCALAR} + a'(h;H)*a(k;K)"),
    ),
    "car": (
        ("car.b_bdag_contact", "anticommutator", ("b(k,s=s;K)", "b'(h,s=t;H)"), _DIRAC),
        ("car.d_ddag_contact", "anticommutator", ("d(k,s=s;K)", "d'(h,s=t;H)"), _DIRAC),
        ("car.bb_vanishes", "anticommutator", ("b(k,s=s;K)", "b(h,s=t;H)"), "0"),
        ("car.bdbd_vanishes", "anticommutator", ("b'(k,s=s;K)", "b'(h,s=t;H)"), "0"),
        ("car.b_ddag_vanishes", "anticommutator", ("b(k,s=s;K)", "d'(h,s=t;H)"), "0"),
        ("car.pauli_identical_labels", "reduce", ("b(k,s=s;K)*b(k,s=s;K)",), "0"),
        ("car.normal_order_sign", "normal_order", ("b(k,s=s;K)*b'(h,s=t;H)",),
         "-1*b'(h,s=t;H)*b(k,s=s;K)"),
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
    return _table(EXACT_CASES["ccr"])


def suite_car(cfg: RunConfig) -> list[Case]:
    return _table(EXACT_CASES["car"])


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
    return cases


def _random_timelike(rng: random.Random):
    import numpy as np
    x = [rng.uniform(-3, 3) for _ in range(3)]
    extra = rng.uniform(0.1, 3)
    t = (sum(c * c for c in x)) ** 0.5 + extra
    return np.array([t if rng.random() < 0.5 else -t, *x])


def _shell_stack(rng: random.Random, mass: tuple, spatial: tuple, count=100):
    """A stack of mass-shell momenta, each drawn as a mass uniform in `mass`,
    then three components uniform in `spatial`."""
    from .kinematics import MassShellMomentum
    draws = [(rng.uniform(*mass), [rng.uniform(*spatial) for _ in range(3)])
             for _ in range(count)]
    return MassShellMomentum.of([p for _, p in draws], [m for m, _ in draws])


def suite_kinematics(cfg: RunConfig) -> list[Case]:
    import numpy as np
    from .kinematics import (ETA, bar, build_inner_polarizations as inner_basis,
                             build_spacetime_polarizations, completeness_residual,
                             dirac_spinor, gamma_anticommutator_residual,
                             minkowski_dot as dot, slash, spin_sum_residual)
    rng = random.Random(cfg.seed)
    tol = cfg.tolerance
    cases = [
        _numeric("kinematics.gamma_clifford", gamma_anticommutator_residual(),
                 0.0, "exact entrywise Clifford relation")]
    k = _shell_stack(rng, (0.5, 2.0), (-2, 2))
    eps = build_spacetime_polarizations(k)
    k4 = k.four_vector()
    worst_o = max(np.abs(dot(k4, e)).max() for e in eps[1:])
    for g in range(4):
        for g2 in range(4):
            worst_o = max(worst_o, np.abs(dot(eps[g], eps[g2]) - ETA[g, g2]).max())
    cases.append(_numeric("kinematics.spacetime_completeness", float(
        completeness_residual(eps[1:], k4, k.mass**2).max()), tol))
    cases.append(_numeric("kinematics.spacetime_orthonormality", float(worst_o), tol))
    K = np.array([_random_timelike(rng) for _ in range(100)])
    basis = inner_basis(K)
    cases.append(_numeric("kinematics.inner_completeness", float(
        completeness_residual(basis, K, dot(K, K)).max()), tol))
    cases.append(_numeric("kinematics.inner_transversality", float(
        max(np.abs(dot(K, E)).max() for E in basis)), tol))
    k = _shell_stack(rng, (0.1, 10), (-5, 5))
    m1 = k.mass[:, None, None] * np.eye(4)
    ksl = slash(k.four_vector())
    plus, minus = ksl + m1, ksl - m1
    worst_d = worst_n = 0.0
    for s in (1, 2):
        # the spinors as columns (100, 4, 1), their Dirac adjoints as rows
        u, v = (dirac_spinor(k, s, kind)[..., None] for kind in ("u", "v"))
        ubar, vbar = (bar(w[..., 0])[:, None] for w in (u, v))
        worst_d = max(worst_d, np.abs(minus @ u).max(), np.abs(plus @ v).max())
        worst_n = max(worst_n, np.abs(ubar @ u - 1).max(),
                      np.abs(vbar @ v + 1).max(),
                      np.abs(u.conj().swapaxes(1, 2) @ u
                             - (k.energy / k.mass)[:, None, None]).max())
    worst_s = max(spin_sum_residual(k, "u").max(), spin_sum_residual(k, "v").max())
    cases.append(_numeric("kinematics.dirac_equation_residual", float(worst_d), tol))
    cases.append(_numeric("kinematics.spinor_normalizations", float(worst_n), tol))
    cases.append(_numeric("kinematics.spin_sums", float(worst_s), tol))
    return cases


def _random_ket(rng: random.Random, max_quanta: int = 5):
    ops = []
    for _ in range(rng.randint(1, max_quanta)):
        kind = rng.choice(opalg.FIELDS)
        mom = tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                    for _ in range(3))
        spatial = [Fraction(rng.randint(-3, 3), rng.randint(1, 4))
                   for _ in range(3)]
        t = sum(abs(c) for c in spatial) + rng.randint(1, 3)  # timelike by L1 bound
        inner = (t, *spatial)
        discrete = {name: rng.choice(opalg.INDEX_RANGES[name][0])
                    for name in opalg.FIELD_TABLE[kind].labels}
        ops.append(opalg.LadderOperator(kind, True, mom, inner, **discrete))
    return ops


def suite_fock(cfg: RunConfig) -> list[Case]:
    rng = random.Random(cfg.seed)
    cases = _table(EXACT_CASES["fock"])
    # additivity of eigen-actions on random bound kets
    additive = True
    for _ in range(100):
        ops = _random_ket(rng)
        ket = FockState.ket(*ops)
        if ket.is_zero():
            continue
        singles = [FockState.ket(op) for op in ops]
        for which in ("p", "P"):
            ((_, total),) = fock.momentum_action(which, ket)
            parts = [fock.momentum_action(which, one)[0][1]
                     for one in singles]
            expect = tuple(sum(p[i] for p in parts) for i in range(4))
            # energies are floats and may be summed in a different order
            if abs(total[0] - expect[0]) > 1e-12 or total[1:] != expect[1:]:
                additive = False
    cases.append(Case("fock.eigenvalue_additivity", additive,
                      "100 random multi-quanta kets; momenta exact, energies within 1e-12"))
    # conservation: the energy action commutes with both momentum actions
    # on eigenkets (all actions are diagonal, so the commutator is zero
    # exactly when both eigenvalue assignments agree on the same ket)
    ket = FockState.ket(*_random_ket(rng, 3))
    pa = fock.momentum_action("p", ket)
    pb = fock.momentum_action("P", ket)
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
    return cases


def suite_gravlimit(cfg: RunConfig) -> list[Case]:
    cases = []
    for i, reg in enumerate((cfg.reg, RegularizationConfig(2.0, 16.0))):
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
    return cases


def suite_propagators(cfg: RunConfig) -> list[Case]:
    import numpy as np
    from . import numeric
    from .kinematics import spin_sum_residual
    tol = cfg.tolerance
    cases = []
    for kind in ("scalar", "dirac", "gauge"):
        residue, expected, numerator = numeric.wick_two_point(kind)
        if residue != expected:
            detail = f"coefficient structure: got {residue}, want {expected}"
        elif numerator > tol:
            detail = f"numerator residual {numerator:.3e}"
        else:
            detail = "structure and numerators match"
        cases.append(Case(f"propagators.wick_{kind}",
                          residue == expected and numerator <= tol, detail,
                          str(residue), str(expected), tol))
    spec = numeric.PropagatorSpec("scalar", 1.0, cfg.i_epsilon)
    val = numeric.propagator_eval(spec, np.array([2.0, 0.0, 0.0, 0.0]))
    cases.append(_numeric("propagators.scalar_kernel_value",
                          abs(val - 1 / (3 + 1j * cfg.i_epsilon)), 1e-15,
                          "1/(k^2 - m^2 + ie) at k=(2,0,0,0), m=1"))
    rng = random.Random(cfg.seed)
    K = np.array([_random_timelike(rng) for _ in range(100)])
    proj = numeric.inner_transversal_projector(K)
    cases.append(_numeric("propagators.gauge_inner_transversality",
                          float(np.abs(K[:, None] @ proj).max()), tol))
    k = _shell_stack(rng, (0.2, 5), (-3, 3), 20)
    cases.append(_numeric("propagators.dirac_numerator_spin_sum",
                          float(spin_sum_residual(k, "u").max()), tol))
    return cases


def suite_lsz(cfg: RunConfig) -> list[Case]:
    reg = cfg.reg
    recipe = cfg.recipe
    p = (1.0, 2.0, 2.0)
    legs2 = (smatrix.Leg("in", opalg.SCALAR, p), smatrix.Leg("out", opalg.SCALAR, p))
    amp2 = smatrix.lsz_reduce(legs2, (), recipe, reg)
    cases = [
        Case("lsz.free_two_point_invariance", amp2.invariance == Fraction(1),
             "one-particle invariance of the free 2-point", str(amp2.invariance), "1"),
        Case("lsz.free_two_point_connected_zero", amp2.connected == 0,
             "no vertices, no connected part", str(amp2.connected), "0"),
    ]
    q = (0.5, 0.0, -1.0)
    legs4 = (smatrix.Leg("in", opalg.SCALAR, p), smatrix.Leg("in", opalg.SCALAR, q),
             smatrix.Leg("out", opalg.SCALAR, p), smatrix.Leg("out", opalg.SCALAR, q))
    amp4 = smatrix.lsz_reduce(legs4, (), recipe, reg)
    oracle = smatrix.wick_pairing_oracle(legs4, FieldMasses(), reg)
    cases.append(_exact("lsz.free_four_point_elastic_matches_oracle",
                        amp4.elastic, oracle))
    cases.append(Case("lsz.free_four_point_connected_zero", amp4.connected == 0,
                      "", str(amp4.connected), "0"))
    ampz = smatrix.lsz_reduce(legs4, ((0, 0), (0, 0)), recipe, reg)
    cases.append(Case("lsz.zero_vertices_zero_connected", ampz.connected == 0,
                      "", str(ampz.connected), "0"))
    big = RegularizationConfig(5.0, 625.0)
    amp_big = smatrix.lsz_reduce(legs2, (), recipe, big)
    cases.append(Case("lsz.two_point_lambda_independent",
                      amp_big.invariance == Fraction(1),
                      "Vreg/L^4 = 1 at L = 5", str(amp_big.invariance), "1"))
    return cases


def _complex_normals(rng: random.Random, count: int):
    """`count` standard complex Gaussians (E|z|^2 = 2) from one
    `rng.getrandbits` call: per entry two 32-bit words, as u, v in (0, 1),
    give sqrt(-2 ln u) e^{2 pi i v}, the Box-Muller (1958) pair as one complex
    number; its phase in single precision, over ten times faster than double."""
    import numpy as np
    words = rng.getrandbits(64 * count).to_bytes(8 * count, "little")
    u, v = (np.frombuffer(words, "<u4").reshape(-1, 2).T + 0.5) / 2**32
    t = (2 * np.pi * v).astype(np.float32)
    return np.sqrt(-2 * np.log(u)) * (np.cos(t) + 1j * np.sin(t))


def random_toy_instances(rng: random.Random, dim: int, count: int) -> tuple:
    """(S, P), stacks of shape (count, dim, dim): in each instance a
    block-diagonal unitary commuting with a diagonal projector.

    The draws are those of `count` instances drawn one at a time: each its
    physical dimension, then the entries of its two blocks. Blocks of equal
    size are made unitary by one stacked QR factorization with the phases of
    R's diagonal taken out: Haar unitaries (Mezzadri 2007).
    """
    import numpy as np
    physes, blocks = [], {}
    for i in range(count):
        phys = rng.randrange(1, dim)
        physes.append(phys)
        z = _complex_normals(rng, phys * phys + (dim - phys) ** 2)
        for at, n in ((0, phys), (phys, dim - phys)):
            blocks.setdefault(n, []).append((i, at, z[:n * n].reshape(n, n)))
            z = z[n * n:]
    s = np.zeros((count, dim, dim), dtype=complex)
    for n, group in blocks.items():
        q, r = np.linalg.qr(np.array([z for _, _, z in group]))
        d = np.diagonal(r, axis1=-2, axis2=-1)
        q *= (d / np.abs(d))[:, None, :]
        for (i, at, _), u in zip(group, q):
            s[i, at:at + n, at:at + n] = u
    p = np.zeros((count, dim, dim))
    # the diagonal of each P: 1 on the physical states
    p.reshape(count, -1)[:, ::dim + 1] = np.arange(dim) < np.array(physes)[:, None]
    return s, p


# the bytes of S in one stack of `suite_unitarity`: all 100 instances at
# dim 4, 24 at dim 16, and one at dim 64, where LAPACK dominates the check
# and a larger stack only adds memory
TOY_STACK_BYTES = 96 * 1024


def suite_unitarity(cfg: RunConfig) -> list[Case]:
    import numpy as np
    from . import numeric
    rng = random.Random(cfg.seed)
    tol = cfg.tolerance
    sectors = numeric.vacuum_and_one_particle_checks
    cases = []
    for dim in (4, 16, 64):
        worst = 0.0
        ok = True
        per_stack = max(1, TOY_STACK_BYTES // (16 * dim * dim))
        for start in range(0, 100, per_stack):
            failures, concl = numeric.toy_unitarity_check(
                *random_toy_instances(rng, dim, min(per_stack, 100 - start)), tol)
            ok = ok and not failures and concl <= tol
            if concl is not None:
                worst = max(worst, concl)
        cases.append(Case(f"unitarity.projected_dim{dim:02d}", ok,
                          "100 random admissible instances",
                          f"{worst:.3e}", f"<= {tol:.3e}", tol))
    ident = np.eye(4, dtype=complex)
    failures, concl = numeric.toy_unitarity_check(
        ident, np.diag([1.0, 1.0, 0.0, 0.0]), tol)
    cases.append(Case("unitarity.identity_smatrix",
                      not failures and concl <= tol, ""))
    cases.append(Case("unitarity.vacuum_one_particle_identity",
                      not sectors(ident, (1,), tol), ""))
    # S unitary but SP != PS: precondition reported, conclusion not claimed
    had = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    failures, concl = numeric.toy_unitarity_check(had, np.diag([1.0, 0.0]), tol)
    cases.append(Case("unitarity.noncommuting_precondition_reported",
                      bool(failures) and concl is None, "; ".join(failures)))
    phase = np.diag([np.exp(0.3j), 1.0, 1.0, 1.0])
    cases.append(Case("unitarity.vacuum_phase_reported",
                      bool(sectors(phase, (1, 2), tol)),
                      "nontrivial vacuum phase flagged"))
    mixing = np.eye(4, dtype=complex)
    mixing[1, 1] = mixing[3, 3] = 0
    mixing[1, 3] = mixing[3, 1] = 1
    cases.append(Case("unitarity.sector_mixing_reported",
                      bool(sectors(mixing, (1,), tol)),
                      "one-particle/two-particle mixing flagged"))
    return cases


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
    """The cases of suite `name`, or of every suite in name order for
    "all"; each suite's cases sorted by case name."""
    cases = []
    for key in sorted(SUITES) if name == "all" else [name]:
        cases.extend(sorted(SUITES[key](cfg), key=lambda c: c.name))
    return cases
