"""Numeric four-vector, polarization, gamma-matrix and spinor kinematics.

Everything here works on (M4, eta) with eta = diag(1,-1,-1,-1) and is pure
value-semantic: no global state, safe for concurrent use.
"""

from __future__ import annotations

import math

import numpy as np

from .record import Record

ETA = np.diag([1.0, -1.0, -1.0, -1.0])

DEFAULT_TOL = 1e-12


class FourVector(Record):
    """Contravariant four-vector in natural units."""

    t: float
    x: float
    y: float
    z: float

    @classmethod
    def of(cls, seq) -> "FourVector":
        t, x, y, z = (float(c) for c in seq)
        return cls(t, x, y, z)

    def as_array(self) -> np.ndarray:
        return np.array([self.t, self.x, self.y, self.z], dtype=float)

    def lower(self) -> np.ndarray:
        """Covariant components a_mu = eta_{mu nu} a^nu."""
        return ETA @ self.as_array()


def minkowski_dot(a: FourVector, b: FourVector) -> float:
    return a.t * b.t - a.x * b.x - a.y * b.y - a.z * b.z


def on_shell_energy(spatial, mass: float) -> float:
    """Positive-energy dispersion sqrt(|k|^2 + m^2)."""
    if mass <= 0:
        raise ValueError("mass must be positive")
    kx, ky, kz = (float(c) for c in spatial)
    return math.sqrt(kx * kx + ky * ky + kz * kz + mass * mass)


class MassShellMomentum(Record):
    """Spatial momentum plus mass; energy is derived and always positive."""

    spatial: tuple[float, float, float]
    mass: float

    @classmethod
    def of(cls, spatial, mass: float) -> "MassShellMomentum":
        if mass <= 0:
            raise ValueError("mass must be positive")
        return cls(tuple(float(c) for c in spatial), float(mass))

    @property
    def energy(self) -> float:
        return on_shell_energy(self.spatial, self.mass)

    def four_vector(self) -> FourVector:
        return FourVector(self.energy, *self.spatial)


# ---------------------------------------------------------------------------
# Polarization bases


class PolarizationBasis(Record):
    """Spacetime vectors eps(k, 0..3) and/or inner vectors E(K, 1..3)."""

    spacetime: tuple[FourVector, ...] | None = None
    inner: tuple[FourVector, ...] | None = None


def _gram_schmidt_spacelike(timelike: FourVector) -> list[FourVector]:
    """Three Minkowski-orthonormal spacelike vectors orthogonal to `timelike`.

    Seeds with the spatial axes in fixed x, y, z order; the projector onto
    the complement of a timelike vector keeps them independent, so the
    construction is total and deterministic.
    """
    basis: list[np.ndarray] = [timelike.as_array()]
    norms = [minkowski_dot(timelike, timelike)]
    out: list[FourVector] = []
    seeds = [np.array([0.0, 1.0, 0.0, 0.0]),
             np.array([0.0, 0.0, 1.0, 0.0]),
             np.array([0.0, 0.0, 0.0, 1.0])]
    for seed in seeds:
        v = seed.copy()
        for b, n in zip(basis, norms):
            v = v - (float(v @ ETA @ b) / n) * b
        n = float(v @ ETA @ v)
        if n >= -1e-30:
            raise ValueError("degenerate seed frame")  # pragma: no cover
        v = v / math.sqrt(-n)
        basis.append(v)
        norms.append(-1.0)
        out.append(FourVector.of(v))
    return out


def build_spacetime_polarizations(k: MassShellMomentum, mu: float) -> PolarizationBasis:
    """eps(k,0) = k/mu plus three transversal unit vectors.

    Requires mu > 0 and k on shell with mass mu; the gamma=0 vector divides
    by mu, so the massless case is rejected.
    """
    if mu <= 0:
        raise ValueError("spacetime polarizations need a positive mass")
    if abs(k.mass - mu) > 1e-9 * max(1.0, mu):
        raise ValueError("momentum is not on the requested mass shell")
    k4 = k.four_vector()
    eps0 = FourVector.of(k4.as_array() / mu)
    trans = _gram_schmidt_spacelike(k4)
    return PolarizationBasis(spacetime=(eps0, *trans))


def build_inner_polarizations(K: FourVector) -> PolarizationBasis:
    """Three inner polarization vectors E(K, 1..3) transversal to K.

    Only defined for K^2 > 0: the completeness projector carries 1/K^2 and
    is singular on the light cone, and spacelike K is outside the support.
    """
    K2 = minkowski_dot(K, K)
    if K2 <= 0:
        raise ValueError("inner polarizations require K^2 > 0")
    return PolarizationBasis(inner=tuple(_gram_schmidt_spacelike(K)))


def spacetime_completeness_residual(basis: PolarizationBasis,
                                    k: MassShellMomentum, mu: float) -> float:
    """Max entrywise residual of sum_{g=1..3} eps^r eps^s = -eta^{rs} + k^r k^s / mu^2."""
    eps = basis.spacetime
    k4 = k.four_vector().as_array()
    target = -np.linalg.inv(ETA) + np.outer(k4, k4) / mu**2
    got = sum(np.outer(e.as_array(), e.as_array()) for e in eps[1:4])
    return float(np.max(np.abs(got - target)))


def inner_completeness_residual(basis: PolarizationBasis, K: FourVector) -> float:
    """Max entrywise residual of sum_G E_a E_b = -eta_{ab} + K_a K_b / K^2."""
    K2 = minkowski_dot(K, K)
    Kl = K.lower()
    target = -ETA + np.outer(Kl, Kl) / K2
    got = sum(np.outer(e.lower(), e.lower()) for e in basis.inner)
    return float(np.max(np.abs(got - target)))


# ---------------------------------------------------------------------------
# Gamma matrices and Dirac spinors (Dirac representation)

_ID2 = np.eye(2, dtype=complex)
_SIGMA = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def _block(a, b, c, d) -> np.ndarray:
    return np.block([[a, b], [c, d]])


GAMMA = (
    _block(_ID2, 0 * _ID2, 0 * _ID2, -_ID2),
    _block(0 * _ID2, _SIGMA[0], -_SIGMA[0], 0 * _ID2),
    _block(0 * _ID2, _SIGMA[1], -_SIGMA[1], 0 * _ID2),
    _block(0 * _ID2, _SIGMA[2], -_SIGMA[2], 0 * _ID2),
)


def slash(k: FourVector) -> np.ndarray:
    """k-slash = gamma^mu k_mu."""
    kl = k.lower()
    return sum(kl[mu] * GAMMA[mu] for mu in range(4))


def gamma_anticommutator_residual() -> float:
    """Entrywise max of {gamma^mu, gamma^nu} - 2 eta^{mu nu} 1 (exactly 0)."""
    worst = 0.0
    for mu in range(4):
        for nu in range(4):
            acomm = GAMMA[mu] @ GAMMA[nu] + GAMMA[nu] @ GAMMA[mu]
            worst = max(worst, float(np.max(np.abs(acomm - 2 * ETA[mu, nu] * np.eye(4)))))
    return worst


class DiracSpinor(Record):
    """u/v solution with ubar u = 1, vbar v = -1, u^dag u = k0/m.

    `components`, derived from the labels when the spinor is built, takes
    no part in comparison. The normalization divides by the mass, so m = 0
    is rejected.
    """

    __slots__ = ("components",)
    kind: str  # "u" or "v"
    spin: int  # 1 or 2
    momentum: MassShellMomentum

    def __post_init__(self):
        k, s = self.momentum, self.spin
        if k.mass <= 0:
            raise ValueError("spinor normalization requires m > 0")
        if s not in (1, 2):
            raise ValueError("spin label must be 1 or 2")
        if self.kind not in ("u", "v"):
            raise ValueError("spinor kind must be 'u' or 'v'")
        m = k.mass
        E = k.energy
        chi = np.zeros(2, dtype=complex)
        chi[s - 1] = 1.0
        sig_k = sum(c * sig for c, sig in zip(k.spatial, _SIGMA))
        lower = (sig_k @ chi) / (E + m)
        norm = math.sqrt((E + m) / (2 * m))
        if self.kind == "u":
            comps = norm * np.concatenate([chi, lower])
        else:
            comps = norm * np.concatenate([lower, chi])
        object.__setattr__(self, "components", comps)

    def bar(self) -> np.ndarray:
        return self.components.conj() @ GAMMA[0]


def dirac_spinor(k: MassShellMomentum, s: int, kind: str) -> DiracSpinor:
    """The u/v spinor of momentum k and spin s (see DiracSpinor)."""
    return DiracSpinor(kind, s, k)


def spin_sum(k: MassShellMomentum, kind: str) -> np.ndarray:
    """sum_s u ubar = (kslash + m)/2m, resp. sum_s v vbar = (kslash - m)/2m."""
    total = np.zeros((4, 4), dtype=complex)
    for s in (1, 2):
        sp = dirac_spinor(k, s, kind)
        total += np.outer(sp.components, sp.bar())
    return total
