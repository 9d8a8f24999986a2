"""Numeric cross-checks: propagator kernels, two-point Wick checks, and the
toy projected-unitarity model.

This is the package's numpy layer; of the CLI commands only `verify` loads
it. Gauge propagators are fixed to the Feynman-type gauge (gauge parameter
1); other gauges are out of scope.
"""

from __future__ import annotations

import numpy as np

from .fock import FieldMasses
from .grammar import parse_expression
from .kinematics import (DEFAULT_TOL, ETA, FourVector, MassShellMomentum,
                         build_spacetime_polarizations, build_inner_polarizations,
                         minkowski_dot, slash, spin_sum)
from .opalg import OperatorExpr, delta_resolve, vev
from .record import Record

# ---------------------------------------------------------------------------
# Propagators


class PropagatorSpec(Record):
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


class TwoPointCheck(Record):
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


# per kind: the contracted annihilator/creator pair, one leg's mode-expansion
# measure as printed in the expansions, and the residue their product leaves
_TWO_POINT = {
    "scalar": ("a(k;K)*a'(h;H)", "1/2*L^4*(2pi)^-7*w(h)^-1", "1"),
    "dirac": ("b(k,s=s;K)*b'(h,s=t;H)", "1*L^4*(2pi)^-7*E/m(h)^-1", "1"),
    "gauge": ("A(k,g=g;K,G=G)*A'(h,g=g2;H,G=G2)", "1/2*L^4*(2pi)^-7*w(h)^-1",
              "1*L^2*eta[g,g2]*ETA[G,G2]"),
}


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
    if kind not in _TWO_POINT:
        raise ValueError(f"unknown two-point kind {kind!r}")
    pair, measure, expected = map(parse_expression, _TWO_POINT[kind])
    residue = delta_resolve(vev(pair) * measure)
    spec = PropagatorSpec(kind, masses.gauge if kind == "gauge"
                          else (masses.scalar if kind == "scalar" else masses.dirac))
    return TwoPointCheck(kind, spec, residue, expected,
                         _numerator_residual(kind, masses), tol)


# ---------------------------------------------------------------------------
# Toy S-matrix and projected unitarity


class ToySMatrix(Record):
    """Finite unitary S over a graded basis with a physical projector P."""

    s: np.ndarray
    p: np.ndarray
    vacuum_index: int = 0
    one_particle_indices: tuple = ()

    @property
    def dim(self) -> int:
        return self.s.shape[0]


class UnitarityReport(Record):
    precondition_failures: tuple
    conclusion_norm: float | None
    tolerance: float

    @property
    def passed(self) -> bool:
        return (not self.precondition_failures
                and self.conclusion_norm is not None
                and self.conclusion_norm <= self.tolerance)


def toy_unitarity_check(t: ToySMatrix, tol: float = DEFAULT_TOL) -> UnitarityReport:
    """Assert ||P S^dag S P - P|| <= tol given the S/P compatibility preconditions.

    Every norm is the spectral (2-)norm. A precondition only gates the
    result, and ||A||_2 <= ||A||_F, so its costly SVD is skipped when the
    Frobenius norm is at most tol/2: the 2-norm then lies far enough below
    tol that rounding in either norm cannot flip the decision. Above tol/2
    the 2-norm decides and is printed, as is the conclusion norm.
    """
    s, p = t.s, t.p
    eye = np.eye(t.dim)
    failures = []
    for name, residual in (
            ("S not unitary", s.conj().T @ s - eye),
            ("P not idempotent", p @ p - p),
            ("P not self-adjoint", p.conj().T - p),
            ("SP != PS", s @ p - p @ s)):
        if np.linalg.norm(residual) <= tol / 2:
            continue
        norm = np.linalg.norm(residual, 2)
        if norm > tol:
            failures.append(f"{name} (norm {norm:.3e})")
    if failures:
        return UnitarityReport(tuple(failures), None, tol)
    concl = float(np.linalg.norm(p @ s.conj().T @ s @ p - p, 2))
    return UnitarityReport((), concl, tol)


class InvarianceReport(Record):
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
