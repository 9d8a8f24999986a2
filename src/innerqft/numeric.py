"""Numeric cross-checks: propagator kernels, two-point Wick checks, and the
toy projected-unitarity model.

This is the package's numpy layer; of the CLI commands only `verify` loads
it. Momenta are four-vector arrays as in `kinematics`. Gauge propagators are
fixed to the Feynman-type gauge (gauge parameter 1); other gauges are out of
scope. The checks return plain values: `wick_two_point` the exact residue,
its expected value and the numerator residual; `toy_unitarity_check` the
failed preconditions and the conclusion norm; the vacuum and one-particle
check a tuple of violations.
"""

from __future__ import annotations

import math
import random

import numpy as np

from .grammar import parse_expression
from .kinematics import (DEFAULT_TOL, ETA, MassShellMomentum,
                         build_inner_polarizations, build_spacetime_polarizations,
                         completeness_residual, minkowski_dot, slash,
                         spin_sum_residual)
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
        if not 0 <= self.mass < math.inf:
            raise ValueError("propagator mass must be finite and non-negative")
        if not self.i_epsilon > 0:
            raise ValueError("i_epsilon must be positive")

    def denominator(self, k: np.ndarray) -> complex:
        return minkowski_dot(k, k) - self.mass**2 + 1j * self.i_epsilon


def inner_transversal_projector(K: np.ndarray) -> np.ndarray:
    """eta_{ab} - K_a K_b / K^2 with lowered indices; annihilates K. K may
    be a stack (..., 4), as in `kinematics`."""
    K2 = minkowski_dot(K, K)
    if not (np.isfinite(K2) & (K2 != 0)).all():
        raise ValueError("inner projector is singular for lightlike or "
                         "non-finite K")
    Kl = K @ ETA
    return ETA - Kl[..., :, None] * Kl[..., None, :] / K2[..., None, None]


def propagator_eval(spec: PropagatorSpec, k: np.ndarray,
                    K: np.ndarray | None = None):
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


# per kind: the contracted annihilator/creator pair, one leg's mode-expansion
# measure as printed in the expansions, and the residue their product leaves
_TWO_POINT = {
    "scalar": ("a(k;K)*a'(h;H)", "1/2*L^4*(2pi)^-7*w(h)^-1", "1"),
    "dirac": ("b(k,s=s;K)*b'(h,s=t;H)", "1*L^4*(2pi)^-7*E/m(h)^-1", "1"),
    "gauge": ("A(k,g=g;K,G=G)*A'(h,g=g2;H,G=G2)", "1/2*L^4*(2pi)^-7*w(h)^-1",
              "1*L^2*eta[g,g2]*ETA[G,G2]"),
}


def _numerator_residual(kind: str) -> float:
    if kind == "scalar":
        return 0.0
    rng = random.Random(20240824)
    # eight samples at unit mass, each gauge one drawing K after k
    draws = [([rng.uniform(-2, 2) for _ in range(3)],
              None if kind == "dirac" else [rng.uniform(-1, 1) for _ in range(3)])
             for _ in range(8)]
    k = MassShellMomentum.of([p for p, _ in draws], 1.0)
    if kind == "dirac":
        return float(spin_sum_residual(k, "u").max())
    eps = build_spacetime_polarizations(k)
    K = np.array([[3.0, *inner] for _, inner in draws])
    return float(max(
        completeness_residual(eps[1:], k.four_vector(), k.mass**2).max(),
        completeness_residual(build_inner_polarizations(K), K,
                              minkowski_dot(K, K)).max()))


def wick_two_point(kind: str) -> tuple[OperatorExpr, OperatorExpr, float]:
    """The free time-ordered two-point function against its propagator:
    (residue, expected, numerator_residual).

    The mode-expansion measure of the contracted leg must cancel the contact
    term exactly, leaving `expected`, the printed propagator prefactor: 1 for
    matter (times L^4 d4(X-Y) which the uncontracted measure supplies) and
    L^2 eta eta for the gauge field. The numerator residual is the largest
    deviation of the spin and polarization sums from the kernel numerators,
    at unit masses.
    """
    if kind not in _TWO_POINT:
        raise ValueError(f"unknown two-point kind {kind!r}")
    pair, measure, expected = map(parse_expression, _TWO_POINT[kind])
    residue = delta_resolve(vev(pair) * measure)
    return residue, expected, _numerator_residual(kind)


# ---------------------------------------------------------------------------
# Toy S-matrix and projected unitarity


def _frobenius(a: np.ndarray) -> np.ndarray:
    """The Frobenius norm of each matrix of a stack (..., n, n)."""
    flat = a.reshape(*a.shape[:-2], -1)
    if flat.dtype.kind == "c":
        flat = flat.view(flat.real.dtype)
    return np.sqrt(np.vecdot(flat, flat))


def _spectral(a: np.ndarray) -> np.ndarray:
    """The spectral norm of each matrix of a stack: its largest singular
    value."""
    return np.linalg.svdvals(a)[..., 0]


def _minus_one(a: np.ndarray) -> np.ndarray:
    """a - 1 for each square matrix of a stack, in place."""
    a.reshape(*a.shape[:-2], -1)[..., ::a.shape[-1] + 1] -= 1
    return a


def toy_unitarity_check(s: np.ndarray, p: np.ndarray, tol: float = DEFAULT_TOL
                        ) -> tuple[tuple, float | None]:
    """Check ||P S^dag S P - P|| <= tol for a unitary S commuting with the
    projector P onto the physical states of a graded basis: (failed
    preconditions, conclusion norm). S passes when no precondition fails and
    the norm is at most tol.

    S and P are one instance of shape (n, n), or stacks of instances of one
    shape (..., n, n). Each P is diagonal with entries 0 and 1, as the toy
    model defines it; any other P raises ValueError. A failure message
    names the largest norm of its precondition over the stack. The
    conclusion norm is the largest over the instances whose preconditions
    all hold, and None when none do; so for one instance it is None when a
    precondition fails.

    For such P, SP - PS is S's off-diagonal blocks, one negated, and
    P S^dag S P - P is the physical block of S^dag S - 1, padded with
    zeros: its norm is taken on the blocks of one physical count at once.

    Every norm is the spectral (2-)norm. A precondition only gates the
    result, and ||A||_2 <= ||A||_F, so its costly SVD is skipped when the
    Frobenius norm is at most tol/2: the 2-norm then lies far enough below
    tol that rounding in either norm cannot flip the decision. Above tol/2
    the 2-norm decides and is printed, as is the conclusion norm.
    """
    n = s.shape[-1]
    diag = np.diagonal(p, axis1=-2, axis2=-1)
    if not (((diag == 0) | (diag == 1)).all()
            and np.count_nonzero(p) == np.count_nonzero(diag)):
        raise ValueError("P must be diagonal with entries 0 and 1")
    phys = (np.broadcast_to(diag.real, s.shape[:-1]) == 1).reshape(-1, n)
    s = s.reshape(-1, n, n)
    residual = _minus_one(s.conj().swapaxes(-1, -2) @ s)
    sign = phys[:, None, :].astype(float) - phys[:, :, None]
    holds = np.ones(len(s), dtype=bool)
    failures = []
    for name, r in (("S not unitary", residual), ("SP != PS", s * sign)):
        screened = _frobenius(r) > tol / 2
        if not screened.any():
            continue
        norms = _spectral(r[screened])
        if norms.max() > tol:
            failures.append(f"{name} (norm {norms.max():.3e})")
            holds[screened] &= norms <= tol
    if not holds.any():
        return tuple(failures), None
    residual, phys = residual[holds], phys[holds]
    count = phys.sum(-1)
    worst = 0.0
    for c in set(count.tolist()) - {0}:
        group = np.nonzero(count == c)[0]
        at = np.nonzero(phys[group])[1].reshape(len(group), c)
        block = residual[group[:, None, None], at[:, :, None], at[:, None, :]]
        worst = max(worst, _spectral(block).max())
    return tuple(failures), float(worst)


def vacuum_and_one_particle_checks(s: np.ndarray, one_particle_indices: tuple,
                                   tol: float = DEFAULT_TOL) -> tuple:
    """The ways S fails to fix the vacuum, basis state 0, with zero phase or
    to act as the identity on the one-particle sector; empty when it passes."""
    violations = []
    col = s[:, 0]
    if abs(col[0] - 1.0) > tol:
        violations.append(f"vacuum: S[0,0] = {col[0]:.6g}, want 1 "
                          "(zero-phase convention)")
    off = col[1:]
    if off.size and np.max(np.abs(off)) > tol:
        violations.append("vacuum: S mixes the vacuum with other sectors")
    for i in one_particle_indices:
        if abs(s[i, i] - 1.0) > tol:
            violations.append(f"one-particle {i}: diagonal {s[i, i]:.6g}, want 1")
        off = np.delete(s[:, i], i)
        if off.size and np.max(np.abs(off)) > tol:
            violations.append(f"one-particle {i}: mixes with other sectors")
    return tuple(violations)
