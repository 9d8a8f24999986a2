"""Propagators, two-point Wick checks, LSZ amplitude assembly, and the toy
projected-unitarity model.

Gauge propagators are fixed to the Feynman-type gauge (gauge parameter 1);
other gauges are out of scope.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from . import opalg
from .fock import FieldMasses
from .gravlimit import RegularizationConfig, grav_limit_expr
from .kinematics import (DEFAULT_TOL, ETA, FourVector, MassShellMomentum,
                         build_spacetime_polarizations, build_inner_polarizations,
                         minkowski_dot, slash, spin_sum)
from .opalg import (GAUGE, DIRAC_PARTICLE, DIRAC_ANTIPARTICLE, SCALAR,
                    Delta3, ERatioPow, Metric, OmegaPow, OnShell,
                    OperatorExpr, SpinDelta, delta_resolve, make_monomial, vev)

# ---------------------------------------------------------------------------
# Propagators


@dataclass(frozen=True)
class PropagatorSpec:
    """Momentum-space Feynman propagator kernel plus inner prefactor.

    scalar: L^4 d4(X-Y) inner delta, kernel 1/(k^2 - m^2 + ie)
    dirac:  L^4 d4(X-Y) inner delta, kernel (kslash + m)/(k^2 - m^2 + ie)
    gauge:  L^2 inner-transversal delta, kernel -eta_{mn}/(k^2 - mu^2 + ie)
    """

    kind: str
    mass: float
    i_epsilon: float = 1e-8

    def __post_init__(self):
        if self.kind not in ("scalar", "dirac", "gauge"):
            raise ValueError(f"unknown propagator kind {self.kind!r}")
        if self.i_epsilon <= 0:
            raise ValueError("i_epsilon must be positive")

    @property
    def lambda_power(self) -> int:
        return 2 if self.kind == "gauge" else 4

    def denominator(self, k: FourVector) -> complex:
        return minkowski_dot(k, k) - self.mass**2 + 1j * self.i_epsilon


def inner_transversal_projector(K: FourVector) -> np.ndarray:
    """eta_{ab} - K_a K_b / K^2 with lowered indices; annihilates K."""
    K2 = minkowski_dot(K, K)
    if K2 == 0:
        raise ValueError("inner projector is singular for lightlike K")
    Kl = K.lower()
    return ETA - np.outer(Kl, Kl) / K2


def propagator_eval(spec: PropagatorSpec, k: FourVector,
                    K: FourVector | None = None):
    """Kernel value at the given momenta.

    Returns a complex scalar (scalar field), a 4x4 matrix (Dirac), or the
    pair (spacetime 4x4, inner 4x4) tensor factors (gauge).
    """
    den = spec.denominator(k)
    if spec.kind == "scalar":
        return 1.0 / den
    if spec.kind == "dirac":
        return (slash(k) + spec.mass * np.eye(4)) / den
    if K is None:
        raise ValueError("gauge propagator needs an inner momentum")
    proj = inner_transversal_projector(K)
    return (-ETA / den, proj)


# ---------------------------------------------------------------------------
# Two-point function vs Wick contraction


@dataclass(frozen=True)
class TwoPointCheck:
    kind: str
    spec: PropagatorSpec
    residue: OperatorExpr          # exact leftover of the measure cancellation
    residue_expected: OperatorExpr
    numerator_residual: float      # numeric spin/polarization-sum identity
    tolerance: float

    @property
    def passed(self) -> bool:
        return (self.residue == self.residue_expected
                and self.numerator_residual <= self.tolerance)

    def mismatch(self) -> str:
        if self.residue != self.residue_expected:
            return (f"coefficient structure: got {self.residue}, "
                    f"want {self.residue_expected}")
        if self.numerator_residual > self.tolerance:
            return f"numerator residual {self.numerator_residual:.3e}"
        return ""


def _mode_contraction(kind: str) -> OperatorExpr:
    """vev of annihilator(k,...;K) * creator(h,...;H) for one species."""
    if kind == "scalar":
        prod = opalg.a("k", "K") * opalg.a("h", "H", dagger=True)
    elif kind == "dirac":
        prod = opalg.b("k", "s", "K") * opalg.b("h", "t", "H", dagger=True)
    else:
        prod = opalg.gauge("k", "g", "K", "G") * opalg.gauge("h", "g2", "H", "G2",
                                                             dagger=True)
    return vev(prod)


def _leg_measure(kind: str) -> OperatorExpr:
    """One leg's mode-expansion measure factor, as printed in the expansions."""
    if kind == "dirac":
        mono = make_monomial(1, lam=4, twopi=-7, atoms=(ERatioPow("h", -1),))
    else:
        mono = make_monomial(Fraction(1, 2), lam=4, twopi=-7,
                             atoms=(OmegaPow("h", -1),))
    return OperatorExpr.from_monomials([mono])


def _numerator_residual(kind: str, masses: FieldMasses) -> float:
    if kind == "scalar":
        return 0.0
    rng = np.random.default_rng(20240824)
    worst = 0.0
    for _ in range(8):
        spatial = rng.uniform(-2, 2, size=3)
        if kind == "dirac":
            k = MassShellMomentum.of(spatial, masses.dirac)
            target = (slash(k.four_vector()) + masses.dirac * np.eye(4)) / (2 * masses.dirac)
            worst = max(worst, float(np.max(np.abs(spin_sum(k, "u") - target))))
        else:
            mu = masses.gauge
            k = MassShellMomentum.of(spatial, mu)
            eps = build_spacetime_polarizations(k, mu).spacetime
            got = sum((1.0 if g == 0 else -1.0)
                      * np.outer(eps[g].as_array(), eps[g].as_array())
                      for g in range(4))
            worst = max(worst, float(np.max(np.abs(got - np.linalg.inv(ETA)))))
            K = FourVector.of((3.0, *rng.uniform(-1, 1, size=3)))
            basis = build_inner_polarizations(K).inner
            proj = inner_transversal_projector(K)
            got_i = sum(np.outer(E.lower(), E.lower()) for E in basis)
            worst = max(worst, float(np.max(np.abs(got_i + proj))))
    return worst


def wick_two_point(kind: str, masses: FieldMasses = FieldMasses(),
                   tol: float = DEFAULT_TOL) -> TwoPointCheck:
    """Check the free time-ordered two-point function against its propagator.

    The mode-expansion measure of the contracted leg must cancel the contact
    term exactly, leaving the printed propagator prefactor: 1 for matter
    (times L^4 d4(X-Y) which the uncontracted measure supplies) and
    L^2 eta eta for the gauge field. Spin and polarization sums are checked
    numerically against the kernel numerators.
    """
    if kind not in ("scalar", "dirac", "gauge"):
        raise ValueError(f"unknown two-point kind {kind!r}")
    contraction = _mode_contraction(kind)
    residue = delta_resolve(contraction * _leg_measure(kind))
    if kind == "gauge":
        expected = OperatorExpr.from_monomials([
            make_monomial(1, lam=2, atoms=(Metric(True, "g", "g2"),
                                           Metric(False, "G", "G2")))])
    else:
        expected = OperatorExpr.number(1)
    spec = PropagatorSpec(kind, masses.gauge if kind == "gauge"
                          else (masses.scalar if kind == "scalar" else masses.dirac))
    return TwoPointCheck(kind, spec, residue, expected,
                         _numerator_residual(kind, masses), tol)


# ---------------------------------------------------------------------------
# LSZ reduction


@dataclass(frozen=True)
class Leg:
    direction: str                 # "in" or "out"
    field: str                     # opalg field kind
    mom: tuple                     # bound spatial momentum
    spin: int | None = None
    pol: int | None = None
    ipol: int | None = None
    energy: float | None = None    # optional, validated against the shell

    def __post_init__(self):
        if self.direction not in ("in", "out"):
            raise ValueError("leg direction must be 'in' or 'out'")
        if self.field not in opalg.FIELDS:
            raise ValueError(f"unknown leg field {self.field!r}")
        if len(self.mom) != 3:
            raise ValueError("leg momentum is a spatial 3-vector")
        dirac = self.field in (opalg.DIRAC_PARTICLE, opalg.DIRAC_ANTIPARTICLE)
        if dirac and self.spin not in (1, 2):
            raise ValueError("fermionic legs need spin 1 or 2")
        if self.field == opalg.GAUGE:
            if self.pol not in (0, 1, 2, 3) or self.ipol not in (1, 2, 3):
                raise ValueError("gauge legs need pol in 0..3 and ipol in 1..3")
        if not dirac and self.spin is not None:
            raise ValueError("only fermionic legs carry spin")
        if self.field != opalg.GAUGE and (self.pol is not None
                                          or self.ipol is not None):
            raise ValueError("only gauge legs carry polarizations")


@dataclass(frozen=True)
class VertexRule:
    """Opaque momentum-space factor attached to an interaction point."""

    factor: complex | Callable[[Sequence[Leg]], complex] = 0.0

    def value(self, legs: Sequence[Leg]) -> complex:
        if callable(self.factor):
            return complex(self.factor(legs))
        return complex(self.factor)


@dataclass(frozen=True)
class GreenFunction:
    legs: tuple
    vertices: tuple = ()


@dataclass(frozen=True)
class LSZRecipe:
    z: float = 1.0
    z2: float = 1.0
    z3: float = 1.0
    masses: FieldMasses = field(default_factory=FieldMasses)

    def __post_init__(self):
        for name, z in (("z", self.z), ("z2", self.z2), ("z3", self.z3)):
            if not 0 < z <= 1:
                raise ValueError(f"{name} must lie in (0, 1]")

    def z_of(self, fld: str) -> float:
        if fld == SCALAR:
            return self.z
        if fld == GAUGE:
            return self.z3
        return self.z2


@dataclass(frozen=True)
class Amplitude:
    connected: complex
    elastic: OperatorExpr
    invariance: Fraction | None = None


def _leg_operator(leg: Leg) -> opalg.LadderOperator:
    mom = tuple(float(c) for c in leg.mom)
    return opalg.LadderOperator(leg.field, True, mom, OnShell(mom), leg.spin,
                                leg.pol, leg.ipol)


def _check_on_shell(leg: Leg, masses: FieldMasses, tol: float) -> None:
    if leg.energy is None:
        return
    m = masses.of(leg.field)
    k2 = leg.energy**2 - sum(float(c)**2 for c in leg.mom)
    if abs(k2 - m * m) > tol * max(1.0, m * m):
        raise ValueError(f"off-shell leg: k^2 = {k2}, expected {m * m}")


def elastic_overlap(legs: Sequence[Leg], masses: FieldMasses,
                    cfg: RegularizationConfig) -> OperatorExpr:
    """<out|in> for free barred quanta, via normal-form reduction.

    This is the disconnected delta structure: a signed sum over perfect
    matchings of out against in legs, each pair contributing its
    gravitational-limit contact factor.
    """
    ins = [_leg_operator(l) for l in legs if l.direction == "in"]
    outs = [_leg_operator(l) for l in legs if l.direction == "out"]
    prod = OperatorExpr.from_monomials([make_monomial(
        1, ops=tuple(op.adjoint() for op in outs) + tuple(ins))])
    return grav_limit_expr(vev(prod), cfg)


def lsz_reduce(g: GreenFunction, recipe: LSZRecipe = LSZRecipe(),
               cfg: RegularizationConfig = RegularizationConfig(),
               shell_tol: float = 1e-9) -> Amplitude:
    """Momentum-space LSZ assembly for a Green-function specification.

    Each external leg contributes i/sqrt(Z); its amputation factor cancels
    the external propagator pole exactly, so legs enter the connected part
    with residue one. The connected amplitude is the sum of vertex factors
    times the leg prefactors; with no (or all-zero) vertices it is exactly
    zero. The elastic contribution is assembled independently from the free
    barred overlap.
    """
    for leg in g.legs:
        _check_on_shell(leg, recipe.masses, shell_tol)
    elastic = elastic_overlap(g.legs, recipe.masses, cfg)
    vertex_sum = sum((v.value(g.legs) for v in g.vertices), 0j)
    if vertex_sum == 0:
        connected = 0j
    else:
        prefactor = 1.0 + 0j
        for leg in g.legs:
            prefactor *= 1j / math.sqrt(recipe.z_of(leg.field))
        connected = prefactor * vertex_sum
    invariance = None
    ins = [l for l in g.legs if l.direction == "in"]
    outs = [l for l in g.legs if l.direction == "out"]
    if len(ins) == 1 and len(outs) == 1 and not g.vertices:
        norm = elastic_overlap([ins[0], Leg("out", ins[0].field, ins[0].mom,
                                            ins[0].spin, ins[0].pol, ins[0].ipol)],
                               recipe.masses, cfg)
        if not norm.is_zero() and elastic == norm:
            invariance = Fraction(1)
        else:
            invariance = Fraction(0)
    return Amplitude(connected, elastic, invariance)


def wick_pairing_oracle(legs: Sequence[Leg], masses: FieldMasses,
                        cfg: RegularizationConfig) -> OperatorExpr:
    """Brute-force enumeration of out-against-in pairings.

    Independent of the normal-form reduction and of `vev`: builds each
    pairing's gravitational-limit contact factor directly from the printed
    relations. The overlap orders the out legs before the in legs, each in
    the given order; a pairing's sign is the parity of the permutation that
    brings every fermionic leg of that order next to its partner.
    """
    ins = [l for l in legs if l.direction == "in"]
    outs = [l for l in legs if l.direction == "out"]
    if len(ins) != len(outs):
        return OperatorExpr.zero()
    fermionic = [l.field in (DIRAC_PARTICLE, DIRAC_ANTIPARTICLE)
                 for l in outs + ins]
    monos = []
    for perm in itertools.permutations(range(len(ins))):
        pairs = [(outs[oi], ins[ii]) for oi, ii in enumerate(perm)]
        if any(lo.field != li.field for lo, li in pairs):
            continue
        # fermionic legs, each out leg followed by its in partner
        order = [k for oi, ii in enumerate(perm) for k in (oi, len(outs) + ii)
                 if fermionic[k]]
        inversions = sum(x > y for x, y in itertools.combinations(order, 2))
        scalar, lam, atoms = (-1) ** inversions * cfg.ratio ** len(pairs), 0, []
        for lo, li in pairs:
            mo = tuple(float(c) for c in lo.mom)
            mi = tuple(float(c) for c in li.mom)
            # the d4(0) -> Vreg/(2pi)^4 rewrite and the Vreg -> ratio*L^4
            # reduction are built into each pair's factor
            if lo.field in (DIRAC_PARTICLE, DIRAC_ANTIPARTICLE):
                atoms += [ERatioPow(mi), SpinDelta(lo.spin, li.spin)]
            else:
                scalar *= 2
                atoms.append(OmegaPow(mi))
            if lo.field == GAUGE:
                atoms += [Metric(True, lo.pol, li.pol),
                          Metric(False, lo.ipol, li.ipol)]
                lam += 2
            atoms.append(Delta3(mo, mi))
        monos.append(make_monomial(scalar, lam=lam, twopi=3 * len(pairs),
                                   atoms=atoms))
    return OperatorExpr.from_monomials(monos)


# ---------------------------------------------------------------------------
# Toy S-matrix and projected unitarity


@dataclass(frozen=True)
class ToySMatrix:
    """Finite unitary S over a graded basis with a physical projector P."""

    s: np.ndarray
    p: np.ndarray
    vacuum_index: int = 0
    one_particle_indices: tuple = ()

    @property
    def dim(self) -> int:
        return self.s.shape[0]


@dataclass(frozen=True)
class UnitarityReport:
    precondition_failures: tuple
    conclusion_norm: float | None
    tolerance: float

    @property
    def passed(self) -> bool:
        return (not self.precondition_failures
                and self.conclusion_norm is not None
                and self.conclusion_norm <= self.tolerance)


def toy_unitarity_check(t: ToySMatrix, tol: float = DEFAULT_TOL) -> UnitarityReport:
    """Assert ||P S^dag S P - P|| <= tol given the S/P compatibility preconditions."""
    s, p = t.s, t.p
    eye = np.eye(t.dim)
    failures = []
    for name, norm in (
            ("S not unitary", np.linalg.norm(s.conj().T @ s - eye, 2)),
            ("P not idempotent", np.linalg.norm(p @ p - p, 2)),
            ("P not self-adjoint", np.linalg.norm(p.conj().T - p, 2)),
            ("SP != PS", np.linalg.norm(s @ p - p @ s, 2))):
        if norm > tol:
            failures.append(f"{name} (norm {norm:.3e})")
    if failures:
        return UnitarityReport(tuple(failures), None, tol)
    concl = float(np.linalg.norm(p @ s.conj().T @ s @ p - p, 2))
    return UnitarityReport((), concl, tol)


@dataclass(frozen=True)
class InvarianceReport:
    violations: tuple
    tolerance: float

    @property
    def passed(self) -> bool:
        return not self.violations


def vacuum_and_one_particle_checks(t: ToySMatrix,
                                   tol: float = DEFAULT_TOL) -> InvarianceReport:
    """S fixes the vacuum with zero phase and acts as identity on the
    one-particle sector."""
    violations = []
    v = t.vacuum_index
    col = t.s[:, v]
    if abs(col[v] - 1.0) > tol:
        violations.append(f"vacuum: S[{v},{v}] = {col[v]:.6g}, want 1 "
                          "(zero-phase convention)")
    off = np.delete(col, v)
    if off.size and np.max(np.abs(off)) > tol:
        violations.append("vacuum: S mixes the vacuum with other sectors")
    for i in t.one_particle_indices:
        if abs(t.s[i, i] - 1.0) > tol:
            violations.append(f"one-particle {i}: diagonal {t.s[i, i]:.6g}, want 1")
        off = np.delete(t.s[:, i], i)
        if off.size and np.max(np.abs(off)) > tol:
            violations.append(f"one-particle {i}: mixes with other sectors")
    return InvarianceReport(tuple(violations), tol)
