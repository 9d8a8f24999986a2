"""Per-sample references for the stacked numeric code.

`kinematics`, `numeric._numerator_residual`, `suites.suite_kinematics` and
`suite_propagators` evaluate each identity once over a stack of samples,
and `numeric.toy_unitarity_check` takes its conclusion on the physical
block. The functions here are the earlier forms: one sample at a time, and
projected unitarity with dense products of P. They draw the same samples
in the same order, so the tests can ask for equal results.
"""

from __future__ import annotations

import math
import random

import numpy as np

from innerqft import numeric
from innerqft.fock import on_shell_energy
from innerqft.kinematics import (ETA, GAMMA, _SIGMA,
                                 gamma_anticommutator_residual)
from innerqft.suites import Case, _numeric, _random_timelike

# ---------------------------------------------------------------------------
# Kinematics, one sample at a time; k is (spatial, mass)


def minkowski_dot(a, b) -> float:
    a, b = a.tolist(), b.tolist()
    return a[0] * b[0] - a[1] * b[1] - a[2] * b[2] - a[3] * b[3]


def four_vector(k) -> np.ndarray:
    spatial, mass = k
    return np.array([on_shell_energy(spatial, mass), *spatial], dtype=float)


def _boost_frame(u):
    spatial = u[1:]
    frame = np.empty((3, 4))
    frame[:, 0] = spatial
    frame[:, 1:] = np.outer(spatial, spatial) / (1 + u[0]) + np.eye(3)
    return tuple(frame)


def spacetime_polarizations(k):
    u = four_vector(k) / k[1]
    return (u, *_boost_frame(u))


def inner_polarizations(K):
    u = K / math.sqrt(minkowski_dot(K, K))
    return _boost_frame(u if u[0] > 0 else -u)


def completeness_residual(vectors, k, k2) -> float:
    target = -ETA + np.outer(k, k) / k2
    got = sum(np.outer(v, v) for v in vectors)
    return float(np.max(np.abs(got - target)))


def slash(k) -> np.ndarray:
    kl = ETA @ k
    return sum(kl[mu] * GAMMA[mu] for mu in range(4))


def dirac_spinor(k, s: int, kind: str) -> np.ndarray:
    spatial, m = k
    E = on_shell_energy(spatial, m)
    chi = np.zeros(2, dtype=complex)
    chi[s - 1] = 1.0
    sig_k = sum(c * sig for c, sig in zip(spatial, _SIGMA))
    lower = (sig_k @ chi) / (E + m)
    norm = math.sqrt((E + m) / (2 * m))
    if kind == "u":
        return norm * np.concatenate([chi, lower])
    return norm * np.concatenate([lower, chi])


def bar(spinor) -> np.ndarray:
    return spinor.conj() @ GAMMA[0]


def spin_sum(k, kind: str) -> np.ndarray:
    total = np.zeros((4, 4), dtype=complex)
    for s in (1, 2):
        sp = dirac_spinor(k, s, kind)
        total += np.outer(sp, bar(sp))
    return total


def spin_sum_residual(k, kind: str) -> float:
    ksl = slash(four_vector(k))
    m1 = k[1] * np.eye(4)
    target = (ksl + m1 if kind == "u" else ksl - m1) / (2 * k[1])
    return float(np.max(np.abs(spin_sum(k, kind) - target)))


def inner_transversal_projector(K) -> np.ndarray:
    Kl = ETA @ K
    return ETA - np.outer(Kl, Kl) / minkowski_dot(K, K)


def _shell(rng: random.Random, mass: tuple, spatial: tuple):
    m = rng.uniform(*mass)
    return tuple(rng.uniform(*spatial) for _ in range(3)), m


# ---------------------------------------------------------------------------
# The suites' numeric identities, one sample at a time


def numerator_residual(kind: str) -> float:
    if kind == "scalar":
        return 0.0
    rng = random.Random(20240824)
    worst = 0.0
    for _ in range(8):
        k = tuple(rng.uniform(-2, 2) for _ in range(3)), 1.0
        if kind == "dirac":
            worst = max(worst, spin_sum_residual(k, "u"))
            continue
        eps = spacetime_polarizations(k)
        K = np.array([3.0, *(rng.uniform(-1, 1) for _ in range(3))])
        worst = max(worst,
                    completeness_residual(eps[1:], four_vector(k), k[1]**2),
                    completeness_residual(inner_polarizations(K), K,
                                          minkowski_dot(K, K)))
    return worst


def suite_kinematics(cfg) -> list[Case]:
    rng = random.Random(cfg.seed)
    tol = cfg.tolerance
    cases = [_numeric("kinematics.gamma_clifford",
                      gamma_anticommutator_residual(), 0.0,
                      "exact entrywise Clifford relation")]
    worst_c = worst_o = 0.0
    for _ in range(100):
        k = _shell(rng, (0.5, 2.0), (-2, 2))
        eps = spacetime_polarizations(k)
        k4 = four_vector(k)
        worst_c = max(worst_c, completeness_residual(eps[1:], k4, k[1]**2))
        worst_o = max(worst_o, max(abs(minkowski_dot(k4, eps[g]))
                                   for g in range(1, 4)))
        for g in range(4):
            for g2 in range(4):
                worst_o = max(worst_o, abs(minkowski_dot(eps[g], eps[g2])
                                           - ETA[g, g2]))
    cases.append(_numeric("kinematics.spacetime_completeness", worst_c, tol))
    cases.append(_numeric("kinematics.spacetime_orthonormality", worst_o, tol))
    worst_ic = worst_it = 0.0
    for _ in range(100):
        K = _random_timelike(rng)
        basis = inner_polarizations(K)
        worst_ic = max(worst_ic, completeness_residual(basis, K,
                                                       minkowski_dot(K, K)))
        worst_it = max(worst_it, max(abs(minkowski_dot(K, E)) for E in basis))
    cases.append(_numeric("kinematics.inner_completeness", worst_ic, tol))
    cases.append(_numeric("kinematics.inner_transversality", worst_it, tol))
    worst_d = worst_n = worst_s = 0.0
    for _ in range(100):
        k = _shell(rng, (0.1, 10), (-5, 5))
        m = k[1]
        ksl = slash(four_vector(k))
        m1 = m * np.eye(4)
        plus, minus = ksl + m1, ksl - m1
        for s in (1, 2):
            u = dirac_spinor(k, s, "u")
            v = dirac_spinor(k, s, "v")
            worst_d = max(worst_d, float(np.max(np.abs(minus @ u))),
                          float(np.max(np.abs(plus @ v))))
            worst_n = max(worst_n, abs(bar(u) @ u - 1), abs(bar(v) @ v + 1),
                          abs(u.conj() @ u - on_shell_energy(*k) / m))
        worst_s = max(worst_s, spin_sum_residual(k, "u"),
                      spin_sum_residual(k, "v"))
    cases.append(_numeric("kinematics.dirac_equation_residual", worst_d, tol))
    cases.append(_numeric("kinematics.spinor_normalizations", worst_n, tol))
    cases.append(_numeric("kinematics.spin_sums", worst_s, tol))
    return cases


def suite_propagators(cfg) -> list[Case]:
    tol = cfg.tolerance
    cases = []
    for kind in ("scalar", "dirac", "gauge"):
        residue, expected, _ = numeric.wick_two_point(kind)
        numerator = numerator_residual(kind)
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
    worst = 0.0
    for _ in range(100):
        K = _random_timelike(rng)
        worst = max(worst, float(np.max(np.abs(
            K @ inner_transversal_projector(K)))))
    cases.append(_numeric("propagators.gauge_inner_transversality", worst, tol))
    worst = 0.0
    for _ in range(20):
        worst = max(worst, spin_sum_residual(_shell(rng, (0.2, 5), (-3, 3)), "u"))
    cases.append(_numeric("propagators.dirac_numerator_spin_sum", worst, tol))
    return cases


# ---------------------------------------------------------------------------
# Projected unitarity with dense products of P


def _frobenius(a):
    flat = a.reshape(*a.shape[:-2], -1)
    if flat.dtype.kind == "c":
        flat = flat.view(flat.real.dtype)
    return np.sqrt(np.vecdot(flat, flat))


def _spectral(a):
    return np.linalg.svdvals(a)[..., 0]


def _minus_one(a):
    a.reshape(*a.shape[:-2], -1)[..., ::a.shape[-1] + 1] -= 1
    return a


def toy_unitarity_check(s, p, tol):
    """(failed preconditions, conclusion norm) of ||P S^dag S P - P||, for
    any P, with the precondition norms screened by the Frobenius norm."""
    sh = s.conj().swapaxes(-1, -2)
    ps = p.astype(np.result_type(s, p))
    holds = np.ones(s.shape[:-2], dtype=bool)
    failures = []
    for name, residual in (("S not unitary", _minus_one(sh @ s)),
                           ("P not idempotent", p @ p - p),
                           ("P not self-adjoint", p.conj().swapaxes(-1, -2) - p),
                           ("SP != PS", s @ ps - ps @ s)):
        screened = _frobenius(residual) > tol / 2
        if not screened.any():
            continue
        norms = _spectral(residual[screened])
        if norms.max() > tol:
            failures.append(f"{name} (norm {norms.max():.3e})")
            holds[screened] &= norms <= tol
    if not holds.any():
        return tuple(failures), None
    if not holds.all():
        s, sh, ps = s[holds], sh[holds], ps[holds]
    concl = ps @ sh @ s @ ps
    concl -= ps
    return tuple(failures), float(_spectral(concl).max())
