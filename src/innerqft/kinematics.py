"""Numeric four-vector, polarization, gamma-matrix and spinor kinematics.

Everything here works on (M4, eta) with eta = diag(1,-1,-1,-1) and is pure
value-semantic: no global state, safe for concurrent use. A four-vector is a
float numpy array of its contravariant components (t, x, y, z); `v @ ETA`
lowers its index. Polarization bases are plain tuples of such arrays, and
both kinds come from one closed form: the pure boost that takes (1,0,0,0) to
a unit timelike vector u, applied to the spatial axes.

Every function takes one sample or a stack of samples along leading axes,
with one residual per sample: each sample sees the arithmetic it would see
alone.
"""

from __future__ import annotations

import numpy as np

from .record import Record

ETA = np.diag([1.0, -1.0, -1.0, -1.0])

DEFAULT_TOL = 1e-12


def minkowski_dot(a: np.ndarray, b: np.ndarray):
    return (a[..., 0] * b[..., 0] - a[..., 1] * b[..., 1]
            - a[..., 2] * b[..., 2] - a[..., 3] * b[..., 3])


def _outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The outer product a b^T of each sample."""
    return a[..., :, None] * b[..., None, :]


class MassShellMomentum(Record):
    """Spatial momentum plus a positive mass; the energy is derived. `of`
    takes a stack too: spatial momenta (..., 3), one mass or one each."""

    spatial: np.ndarray
    mass: float | np.ndarray

    def __post_init__(self):
        if not np.all(np.greater(self.mass, 0)):
            raise ValueError("mass must be positive")
        if not np.isfinite(self.spatial).all():
            raise ValueError("spatial momentum components must be finite")

    def __eq__(self, other):
        """Equal when both arrays are equal in shape and in every value."""
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(map(np.array_equal, self._values(self), self._values(other)))

    def __hash__(self):
        return hash(tuple((np.shape(x), *np.ravel(x)) for x in self._values(self)))

    @classmethod
    def of(cls, spatial, mass) -> "MassShellMomentum":
        return cls(np.asarray(spatial, dtype=float), np.asarray(mass, dtype=float))

    @property
    def energy(self):
        """sqrt(|k|^2 + m^2), summed as `fock.on_shell_energy` sums it."""
        kx, ky, kz = np.moveaxis(np.asarray(self.spatial, dtype=float), -1, 0)
        return np.sqrt(kx * kx + ky * ky + kz * kz + self.mass * self.mass)

    def four_vector(self) -> np.ndarray:
        return np.concatenate([self.energy[..., None],
                               np.asarray(self.spatial, dtype=float)], axis=-1)


# ---------------------------------------------------------------------------
# Polarization bases


def _boost_frame(u: np.ndarray) -> tuple[np.ndarray, ...]:
    """The pure boost Lambda(u) applied to e1, e2, e3 (Weinberg, QFT I,
    sec. 2.5), u a future-pointing unit timelike vector: the columns
    (u_j, delta_ij + u_i u_j / (1 + u_0)), j = 1, 2, 3. They are spacelike,
    Minkowski-orthonormal and orthogonal to u; 1 + u_0 >= 2 keeps the
    division well conditioned."""
    spatial = u[..., 1:]
    frame = np.empty(u.shape[:-1] + (3, 4))
    frame[..., 0] = spatial
    frame[..., 1:] = _outer(spatial, spatial) / (1 + u[..., 0, None, None]) + np.eye(3)
    return tuple(np.moveaxis(frame, -2, 0))


def build_spacetime_polarizations(k: MassShellMomentum) -> tuple[np.ndarray, ...]:
    """(eps(k,0), ..., eps(k,3)): u = k/m and the boost frame of u, m = k.mass.

    u divides by the exact mass, which MassShellMomentum keeps positive;
    sqrt(k.k) would lose digits to cancellation.
    """
    u = k.four_vector() / np.expand_dims(k.mass, -1)
    return (u, *_boost_frame(u))


def build_inner_polarizations(K: np.ndarray) -> tuple[np.ndarray, ...]:
    """(E(K,1), E(K,2), E(K,3)): the boost frame of the future-pointing one
    of +-K/sqrt(K.K), so K and -K share their basis.

    Only defined for K^2 > 0: the completeness projector carries 1/K^2 and
    is singular on the light cone, and spacelike K is outside the support.
    """
    K2 = minkowski_dot(K, K)
    if not np.all(K2 > 0):
        raise ValueError("inner polarizations require K^2 > 0")
    u = K / np.sqrt(K2)[..., None]
    return _boost_frame(np.where(u[..., :1] > 0, u, -u))


def completeness_residual(vectors, k: np.ndarray, k2):
    """Max entrywise residual of sum_v v^r v^s = -eta^{rs} + k^r k^s / k2:
    (eps[1:], k.four_vector(), k.mass**2) checks the spacetime basis, (E,
    K, K.K) the inner one. eta is diagonal +-1, so lowering both indices,
    as the inner identity is often written, leaves the residual as it is."""
    target = -ETA + _outer(k, k) / np.expand_dims(k2, (-2, -1))
    got = sum(_outer(v, v) for v in vectors)
    return np.max(np.abs(got - target), axis=(-2, -1))


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


def slash(k: np.ndarray) -> np.ndarray:
    """k-slash = gamma^mu k_mu."""
    kl = k @ ETA
    return sum(kl[..., mu, None, None] * GAMMA[mu] for mu in range(4))


def gamma_anticommutator_residual() -> float:
    """Entrywise max of {gamma^mu, gamma^nu} - 2 eta^{mu nu} 1 (exactly 0)."""
    worst = 0.0
    for mu in range(4):
        for nu in range(4):
            acomm = GAMMA[mu] @ GAMMA[nu] + GAMMA[nu] @ GAMMA[mu]
            worst = max(worst, float(np.max(np.abs(acomm - 2 * ETA[mu, nu] * np.eye(4)))))
    return worst


def dirac_spinor(k: MassShellMomentum, s: int, kind: str) -> np.ndarray:
    """The 4 components of the u (kind "u") or v ("v") spinor of momentum k
    and spin s in {1, 2}: ubar u = 1, vbar v = -1, u^dag u = k0/m. The
    normalization divides by the mass, which MassShellMomentum keeps positive.
    """
    if s not in (1, 2):
        raise ValueError("spin label must be 1 or 2")
    if kind not in ("u", "v"):
        raise ValueError("spinor kind must be 'u' or 'v'")
    spatial = np.asarray(k.spatial, dtype=float)
    Em = np.expand_dims(k.energy + k.mass, -1)
    chi = np.zeros(spatial.shape[:-1] + (2,), dtype=complex)
    chi[..., s - 1] = 1.0
    sig_k = sum(spatial[..., j, None, None] * _SIGMA[j] for j in range(3))
    lower = (sig_k @ chi[..., None])[..., 0] / Em
    norm = np.sqrt(Em / (2 * np.expand_dims(k.mass, -1)))
    return norm * np.concatenate([chi, lower] if kind == "u" else [lower, chi],
                                 axis=-1)


def bar(spinor: np.ndarray) -> np.ndarray:
    """The Dirac adjoint spinor^dag gamma^0."""
    return spinor.conj() @ GAMMA[0]


def spin_sum(k: MassShellMomentum, kind: str) -> np.ndarray:
    """sum_s u ubar = (kslash + m)/2m, resp. sum_s v vbar = (kslash - m)/2m."""
    spinors = [dirac_spinor(k, s, kind) for s in (1, 2)]
    return sum(_outer(sp, bar(sp)) for sp in spinors)


def spin_sum_residual(k: MassShellMomentum, kind: str):
    """Max entrywise residual of the spin sum of `kind` against
    (kslash +- m)/2m, m = k.mass."""
    total = spin_sum(k, kind)
    ksl = slash(k.four_vector())
    m = np.expand_dims(k.mass, (-2, -1))
    m1 = m * np.eye(4)
    target = (ksl + m1 if kind == "u" else ksl - m1) / (2 * m)
    return np.max(np.abs(total - target), axis=(-2, -1))
